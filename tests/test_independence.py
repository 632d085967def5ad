import itertools
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from freequandle import basis
from freequandle import cli
from freequandle import conj_quandle as cq
from freequandle import free_group as fg
from freequandle import independence as ind
from freequandle import subquandle as sq
from freequandle.errors import AlphabetMismatch, EmptyInputWord
from freequandle.free_group import Alphabet

from test_basis import _ref_shrinks
from test_output_digest import _corpus_commands

XY = Alphabet(("x", "y"))
ABC = Alphabet(("a", "b", "c"))
XYZ = Alphabet(("x", "y", "z"))

# Dependent sets that a loop of strictly length-reducing Nielsen moves
# passed, each with a relation lhs = rhs among its words (1-based index, sign).
NIELSEN_FALSE_PASSES = [
    (("a^-1 c", "c b^-1", "b a", "b^-1 a^-1 c^-1"),
     [(1, 1), (4, 1), (2, 1), (3, 1), (2, -1)],
     [(3, -1), (3, -1), (2, -1), (4, -1)]),
    (("c c", "b^-1", "c a b^-1 c^-1", "a b^-1 c"),
     [(1, 1), (4, 1), (1, -1), (3, -1)],
     [(3, 1), (1, 1), (4, -1)]),
]


def el(text):
    return cq.parse_element(XY, text)


def els(*texts):
    return [el(t) for t in texts]


def w(text):
    return fg.parse_word(XY, text)


nonempty_words = st.lists(
    st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=8
).map(lambda raw: fg.reduce(XY, raw)).filter(lambda u: not u.is_identity())


class TestCancellationDepth:
    def test_no_cancellation(self):
        assert ind.cancellation_depth(w("x y").letters, w("x").letters) == 0

    def test_single(self):
        assert ind.cancellation_depth(w("x y").letters, w("y^-1 x").letters) == 1

    @given(nonempty_words, nonempty_words)
    def test_zero_iff_no_boundary_inverse(self, u, v):
        c = ind.cancellation_depth(u.letters, v.letters)
        assert (c == 0) == (u.letters[-1] != -v.letters[0])

    @given(nonempty_words, nonempty_words)
    def test_matches_length_drop(self, u, v):
        c = ind.cancellation_depth(u.letters, v.letters)
        assert len(fg.multiply(u, v)) == len(u) + len(v) - 2 * c


class TestSignificantFactors:
    def test_free_generators_pass(self):
        assert ind.check_significant_factors(els("x", "y")).passed

    def test_rigid_pair_passes(self):
        assert ind.check_significant_factors(els("x^(y)", "x^(y^-1)")).passed

    def test_mixed_pair_fails_on_named_pair(self):
        report = ind.check_significant_factors(els("x^(y)", "y"))
        assert not report.passed
        assert report.failing_pair == ("y", "x^(y)")
        assert report.cancellation_depth == 1

    def test_permutation_invariant(self):
        sets = [els("x", "y"), els("x^(y)", "y"), els("x^(y)", "x^(y^-1)")]
        for elements in sets:
            verdicts = {ind.check_significant_factors(list(p)).passed
                        for p in itertools.permutations(elements)}
            assert len(verdicts) == 1

    def test_empty_input_rejected(self):
        for check in (ind.check_significant_factors, ind.nielsen_independent):
            with pytest.raises(ValueError, match="need at least one"):
                check([])

    def test_mixed_alphabets_rejected(self):
        # x over "x y" has the raw letters of x over "x y z"
        mixed = [cq.parse_element(XY, "x"), cq.parse_element(XYZ, "x")]
        with pytest.raises(AlphabetMismatch, match="come from different alphabets"):
            ind.check_significant_factors(mixed)


def restated_significant_factors(elements):
    """The criterion from reduced-product lengths alone: the documented pair
    order (positive pairs, then every pair with an inverse), u = v^-1
    skipped, depth (|u| + |v| - |uv|) / 2 failing past either central letter.
    """
    n = len(elements)
    signed = [(str(e), cq.to_group_word(e), len(e.tail)) for e in elements]
    signed += [(f"({label})^-1", fg.invert(u), half) for label, u, half in signed]
    pairs = [(a, b) for a in range(n) for b in range(n)]
    pairs += [(a, b) for a in range(2 * n) for b in range(2 * n) if a >= n or b >= n]
    for a, b in pairs:
        (label_u, u, half_u), (label_v, v, half_v) = signed[a], signed[b]
        uv = fg.multiply(u, v)
        if uv.is_identity():
            continue
        depth = (len(u) + len(v) - len(uv)) // 2
        if depth > half_u or depth > half_v:
            return False, (label_u, label_v), depth
    return True, None, None


class TestSignificantFactorsPinned:
    def check(self, elements):
        report = ind.check_significant_factors(elements)
        assert ((report.passed, report.failing_pair, report.cancellation_depth)
                == restated_significant_factors(elements))

    def test_corpus_generators_and_candidates(self, corpus_closures):
        for gens, c in corpus_closures:
            self.check(gens)
            self.check([cq.QuandleElement(axis, t) for axis in range(len(c.alphabet))
                        for t in basis.compute_T(axis, c)])

    def test_random_sets_with_duplicates(self):
        rng = random.Random(6)
        for _ in range(300):
            alphabet = Alphabet(("x", "y", "z")[:rng.randint(1, 3)])
            elements = [cq.random_element(alphabet, 4, rng) for _ in range(rng.randint(1, 4))]
            elements += rng.choices(elements, k=rng.randint(0, 2))
            rng.shuffle(elements)
            self.check(elements)


@st.composite
def suffix_sets(draw):
    """Element sets on 1-3 letters whose tails are suffixes of one reduced
    word, some with one more letter of either sign in front, often on the
    axis of the letter before the suffix (the letter that makes a product
    cancel past a centre), some with one tail on two axes or duplicated."""
    alphabet = Alphabet(("x", "y", "z")[:draw(st.integers(1, 3))])
    axes = st.integers(0, len(alphabet) - 1)
    letters = st.sampled_from([s * (i + 1) for i in range(len(alphabet))
                               for s in (1, -1)])
    base = fg.reduced_product((), draw(st.lists(letters, max_size=6)))
    elements = []
    for _ in range(draw(st.integers(1, 5))):
        i = draw(st.integers(0, len(base)))
        tail = base[i:]
        front = draw(st.none() | letters)
        if front is not None and not (tail and tail[0] == -front):
            tail = (front,) + tail
        critical = st.just(fg.letter_generator(base[i - 1])) if i else axes
        for axis in draw(st.sets(critical | axes, min_size=1, max_size=2)):
            elements.append(cq.QuandleElement(
                axis, fg.Word(alphabet, cq.canonical_tail(axis, tail))))
    elements += draw(st.lists(st.sampled_from(elements), max_size=2))
    return draw(st.permutations(elements))


def wide_elements():
    """The README's set: x^(w) for the 972 reduced words w of length 6 in
    y^±1, z^±1."""
    words = [w for w in itertools.product((2, -2, 3, -3), repeat=6)
             if all(a != -b for a, b in zip(w, w[1:]))]
    return [cq.QuandleElement(0, fg.Word(XYZ, w)) for w in words]


class TestSignificantFactorsIndex:
    """The reversed-tail index against the restated pair scan."""

    @settings(max_examples=400, deadline=None)
    @given(suffix_sets())
    def test_matches_pair_scan(self, elements):
        report = ind.check_significant_factors(elements)
        passed, pair, depth = restated_significant_factors(elements)
        assert (report.passed, report.failing_pair,
                report.cancellation_depth) == (passed, pair, depth)
        assert report.detail == (
            "all pairwise products pass" if passed else
            f"cancellation in {pair[0]} · {pair[1]} reaches a significant "
            f"factor (depth {depth})")

    def test_wide_passing_set_is_small(self):
        # no tail is a proper suffix of another, so the set passes
        elements = wide_elements()
        assert len(elements) == 972
        tracemalloc.start()
        try:
            report = ind.check_significant_factors(elements)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 10 * 2**20


def _best_of_three(f):
    """f's result and its least wall time over three calls."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        result = f()
        times.append(time.perf_counter() - start)
    return result, min(times)


class TestShrinkRelation:
    """The significant-factor check and the tail filter decide one relation:
    a set fails exactly when one of its elements shortens another."""

    @settings(max_examples=400, deadline=None)
    @given(suffix_sets())
    def test_fails_iff_one_element_shortens_another(self, elements):
        # _ref_shrinks is the plain suffix scan, not the shared index
        shortened = any(_ref_shrinks(a.tail.letters, q, eps)
                        for a in elements for q in elements for eps in (-1, 1))
        assert ind.check_significant_factors(elements).passed == (not shortened)

    def test_corpus_candidates_pass(self, corpus, corpus_closures):
        # no candidate element is shortened by another, so both methods'
        # candidates pass by construction
        closures = ([sq.closure(gens, 6) for _, _, gens in corpus]
                    + [c for _, c in corpus_closures])
        reports = [method(c) for c in closures
                   for method in (basis.compute_S, basis.greedy_shrink)]
        assert len(reports) == 400
        assert all(r.hall_verdict.passed for r in reports)

    def test_one_trie_per_check(self, monkeypatch, capsys, tmp_path, corpus):
        # only the significant-factor check builds a trie of reversed tails,
        # one per call; the closures of basis and express answer the
        # relation from their own tables of positions
        package = [m for name, m in sys.modules.items()
                   if name == "freequandle" or name.startswith("freequandle.")]
        assert sorted((m.__name__, attr) for m in package for attr, value in vars(m).items()
                      if value is cq.shrink_index) == [
            ("freequandle.conj_quandle", "shrink_index"),
            ("freequandle.independence", "shrink_index")]
        calls = []

        def spying(name, fn):
            def spy(*args):
                calls.append(name)
                return fn(*args)
            return spy

        trie = spying("trie", cq.shrink_index)
        monkeypatch.setattr(cq, "shrink_index", trie)
        monkeypatch.setattr(ind, "shrink_index", trie)
        check = spying("check", ind.check_significant_factors)
        monkeypatch.setattr(ind, "check_significant_factors", check)
        monkeypatch.setattr(basis, "check_significant_factors", check)
        checks = 0
        for _, commands in _corpus_commands(tmp_path, corpus):
            for argv in commands:
                if argv[0] == "check-independence":
                    continue
                calls.clear()
                cli.main(argv)
                capsys.readouterr()
                assert calls == ["check", "trie"] * (len(calls) // 2), argv
                checks += len(calls) // 2
        assert checks == 2 * len(corpus)  # one per basis command

    def test_linear_in_word_length(self):
        # each check is timed against a linear reference on the same words
        # (building their group words), so machine load slows both alike:
        # the checks take at most 8 times the reference, while a quadratic
        # suffix scan takes over 140 times it
        xyz = Alphabet(("x", "y", "z"))
        c = sq.closure([cq.parse_element(xyz, t) for t in ("x^(y)", "z")], 4)
        long_tail = (2, 3) * 10000  # (y z)^10000
        pair = [cq.QuandleElement(2, fg.Word(xyz, long_tail)),
                cq.QuandleElement(0, fg.Word(xyz, (3,) + long_tail))]
        _, reference_s = _best_of_three(lambda: [cq.to_group_word(e) for e in pair])

        hits, shrink_s = _best_of_three(lambda: c.shrinkers(long_tail))
        assert str(c.elements[hits[0]]) == "z"
        report, hall_s = _best_of_three(lambda: ind.check_significant_factors(pair))
        assert report.cancellation_depth == 20001
        assert shrink_s < 25 * reference_s and hall_s < 25 * reference_s


class TestNielsen:
    def test_free_basis(self):
        assert ind.nielsen_independent([w("x"), w("y")]).passed

    def test_reducible_but_independent(self):
        assert ind.nielsen_independent([w("x y"), w("y")]).passed

    def test_inverse_pair_fails(self):
        assert not ind.nielsen_independent([w("x"), w("x^-1")]).passed

    def test_duplicates_deduped_before_check(self):
        # cardinality is compared against the deduped input, so {x, x}
        # is the independent set {x}
        assert ind.nielsen_independent([w("x"), w("x")]).passed

    def test_dependent_product_fails(self):
        assert not ind.nielsen_independent([w("x"), w("y"), w("x y")]).passed

    def test_identity_rejected(self):
        with pytest.raises(EmptyInputWord):
            ind.nielsen_independent([w("1")])

    def test_mixed_alphabets_rejected(self):
        # the two words' raw letters would fold to rank 1
        with pytest.raises(AlphabetMismatch, match="come from different alphabets"):
            ind.nielsen_independent([w("x"), fg.parse_word(XYZ, "x")])


def evaluate(words, symbols):
    """Reduced product of the words named by (1-based index, sign) symbols."""
    out = ()
    for i, sign in symbols:
        letters = words[i - 1]
        out = fg.reduced_product(out, letters if sign == 1 else fg.inverse(letters))
    return out


class TestNielsenFalsePasses:
    @pytest.mark.parametrize("texts, lhs, rhs", NIELSEN_FALSE_PASSES)
    def test_dependent_set_fails(self, texts, lhs, rhs):
        words = [fg.parse_word(ABC, t) for t in texts]
        relator = lhs + [(i, -sign) for i, sign in reversed(rhs)]
        # a nontrivial relation: a freely reduced word in the w_i ...
        assert all(a != (b[0], -b[1]) for a, b in zip(relator, relator[1:]))
        # ... whose product is the identity, independently of the checker
        assert evaluate([u.letters for u in words], relator) == ()
        report = ind.nielsen_independent(words)
        assert not report.passed
        assert report.detail == "4 distinct words generate a subgroup of rank 3"


def transformed_basis(rng):
    """A free basis (the letters or their squares) after random Nielsen moves."""
    alphabet = Alphabet(("a", "b", "c", "d")[:rng.randint(2, 4)])
    power = rng.choice((1, 2))
    basis = [(i + 1,) * power for i in range(len(alphabet))]
    for _ in range(rng.randint(0, 6)):
        i = rng.randrange(len(basis))
        if rng.random() < 0.25:
            basis[i] = fg.inverse(basis[i])
        else:
            j = rng.choice([j for j in range(len(basis)) if j != i])
            wj = basis[j] if rng.random() < 0.5 else fg.inverse(basis[j])
            basis[i] = fg.reduced_product(basis[i], wj)
    return alphabet, basis


class TestConstructedBases:
    """Ground truth by construction: Nielsen moves keep a free basis free,
    and one more product of its words makes it dependent."""

    def test_transformed_basis_passes(self):
        rng = random.Random(11)
        for _ in range(300):
            alphabet, basis = transformed_basis(rng)
            words = [fg.Word(alphabet, b) for b in basis]
            assert ind.nielsen_independent(words).passed, basis

    def test_basis_plus_product_fails(self):
        rng = random.Random(12)
        for _ in range(300):
            alphabet, basis = transformed_basis(rng)
            symbols = []
            while len(symbols) < rng.randint(2, 4):
                s = (rng.randint(1, len(basis)), rng.choice((1, -1)))
                if not symbols or symbols[-1] != (s[0], -s[1]):
                    symbols.append(s)
            # a reduced word of length >= 2 in a basis is neither the
            # identity nor one of the basis words
            extra = evaluate(basis, symbols)
            assert extra and extra not in basis
            words = [fg.Word(alphabet, b) for b in basis + [extra]]
            assert not ind.nielsen_independent(words).passed, (basis, extra)


def reference_folded_rank(words) -> int:
    """Rank ``E - V + 1`` of the Stallings graph of the subgroup ``<words>``.

    Each word becomes a loop at the base vertex 0.  Two edges with the same
    label at a vertex are folded into one: the duplicate is dropped and its
    target merged (union-find) with the kept edge's target, until none remain.
    """
    parent: list[int] = []
    out: list[dict[int, int]] = []  # out[v][letter] = target; both directions
    pending: list[tuple[int, int]] = []  # pairs of vertices to merge

    def vertex() -> int:
        parent.append(len(parent))
        out.append({})
        return len(parent) - 1

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def attach(u: int, lt: int, v: int) -> None:
        kept = out[u].setdefault(lt, v)
        if kept != v:
            pending.append((kept, v))

    base = vertex()
    for w in words:
        u = base
        for k, lt in enumerate(w):
            v = base if k == len(w) - 1 else vertex()
            attach(u, lt, v)
            attach(v, -lt, u)
            u = v
    while pending:
        a, b = (find(v) for v in pending.pop())
        if a != b:
            parent[b] = a
            for lt, t in out[b].items():
                attach(a, lt, t)
            out[b] = {}

    roots = [v for v in range(len(parent)) if parent[v] == v]
    return sum(len(out[v]) for v in roots) // 2 - len(roots) + 1


def random_reduced(rng, letters, lo, hi):
    return fg.reduced_product((), [rng.choice(letters)
                                   for _ in range(rng.randint(lo, hi))])


def shared_base_set(rng):
    """Distinct words, each a product of a few shared base words, some of
    them conjugated by a random word."""
    n = rng.randint(2, 4)
    letters = [sign * g for g in range(1, n + 1) for sign in (1, -1)]
    base = [random_reduced(rng, letters, 1, 4) for _ in range(rng.randint(1, 3))]
    words = []
    for _ in range(rng.randint(1, 6)):
        u = evaluate(base, [(rng.randint(1, len(base)), rng.choice((1, -1)))
                            for _ in range(rng.randint(1, 4))])
        if rng.random() < 0.4:
            t = random_reduced(rng, letters, 1, 5)
            u = fg.reduced_product(fg.reduced_product(fg.inverse(t), u), t)
        words.append(u)
    return [u for u in dict.fromkeys(words) if u]


def element_words(elements):
    return [cq.to_group_word(e).letters for e in elements]


class TestFoldAgainstReference:
    """The fold that reads each word's known prefix and suffix against the
    one-vertex-per-letter fold: the rank of a subgroup does not depend on
    how its graph is folded."""

    def test_shared_base_sets(self):
        rng = random.Random(14)
        for _ in range(2000):
            words = shared_base_set(rng)
            if words:
                assert ind._Folding(words).rank() == reference_folded_rank(words), words

    @pytest.mark.parametrize("texts, rank", [
        (("x x", "x x x", "x x y"), 2),  # merges put the base under another root
        (("x y x^-1",), 1),  # a stem
        (("x", "y", "x y"), 2),  # x y reads back to the base
        (("x x", "x"), 1),  # x reads to a vertex other than the base
    ])
    def test_pinned(self, texts, rank):
        words = [w(t).letters for t in texts]
        assert ind._Folding(words).rank() == reference_folded_rank(words) == rank

    def test_wide_set(self):
        words = element_words(wide_elements())
        assert ind._Folding(words).rank() == reference_folded_rank(words) == 972


class TestFoldWork:
    """Element words t^-1 x t of a set share their stems: folding them
    creates at most the total tail length plus one (the base) vertices,
    where one vertex per letter creates twice the total tail length."""

    def test_element_sets(self):
        rng = random.Random(15)
        sets = [wide_elements()]
        for _ in range(300):
            sets.append(list(dict.fromkeys(
                cq.random_element(XYZ, 10, rng) for _ in range(rng.randint(1, 30)))))
        for elements in sets:
            graph = ind._Folding(element_words(elements))
            assert len(graph.parent) <= sum(len(e.tail) for e in elements) + 1

    def test_long_conjugates(self):
        t = (2, 3) * 10000 + (2,)  # (y z)^10000 y
        elements = [cq.QuandleElement(a, fg.Word(XYZ, t)) for a in (0, 2)]
        graph = ind._Folding(element_words(elements))
        assert len(graph.parent) == len(t) + 1
        assert graph.rank() == 2


class TestCrossOracle:
    def test_hall_pass_implies_nielsen_pass(self):
        rng = random.Random(7)
        for _ in range(200):
            elements = list(dict.fromkeys(
                cq.random_element(XY, 3, rng) for _ in range(rng.randint(1, 4))))
            if ind.check_significant_factors(elements).passed:
                assert ind.nielsen_independent(map(cq.to_group_word, elements)).passed

    def test_converse_fails_on_known_asymmetry(self):
        elements = els("x^(y)", "y")
        assert not ind.check_significant_factors(elements).passed
        assert ind.nielsen_independent(map(cq.to_group_word, elements)).passed
