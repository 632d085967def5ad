import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from freequandle import conj_quandle as cq
from freequandle import free_group as fg
from freequandle import subquandle as sq
from freequandle.errors import (
    AlphabetMismatch,
    BoundTooSmall,
    ClosureTooLarge,
    EmptyGeneratorSet,
    NotInClosure,
    WitnessNotFound,
)
from freequandle.free_group import Alphabet
from freequandle.stallings import SubquandleGraph

from conftest import BASELINE_ROWS

XY = Alphabet(("x", "y"))
XYZ = Alphabet(("x", "y", "z"))


def el(text):
    return cq.parse_element(XY, text)


def els(*texts):
    return [el(t) for t in texts]


class TestClosure:
    def test_single_generator(self):
        c = sq.closure(els("x"), 4)
        assert c.elements == (el("x"),)

    def test_reaches_shorter_elements(self):
        c = sq.closure(els("x^(y)", "y"), 2)
        assert el("x") in c
        assert el("y^(x y)") in c

    def test_single_step_conjugates(self):
        c = sq.closure(els("x", "y"), 1)
        assert set(c.elements) == set(
            els("x", "y", "x^(y)", "x^(y^-1)", "y^(x)", "y^(x^-1)"))

    def test_empty_generator_set(self):
        with pytest.raises(EmptyGeneratorSet):
            sq.closure([], 4)

    def test_alphabet_mismatch(self):
        other = cq.parse_element(XYZ, "x")
        with pytest.raises(AlphabetMismatch):
            sq.closure([el("x"), other], 4)
        c = sq.closure(els("x^(y)", "y"), 4)
        with pytest.raises(AlphabetMismatch):
            other in c
        # x over "x y z" has the raw letters of x over "x y", a member of c
        with pytest.raises(AlphabetMismatch):
            sq.closure(c.generators, 4, stop_when_contains=[other])

    def test_bound_too_small(self):
        with pytest.raises(BoundTooSmall):
            sq.closure(els("x^(y x y^-1)"), 2)
        with pytest.raises(BoundTooSmall):
            sq.closure(els("x^(y)", "y"), 0)

    def test_element_budget(self):
        with pytest.raises(ClosureTooLarge):
            sq.closure(els("x", "y"), 6, max_elements=100)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_nonpositive_budget_rejected_up_front(self, budget):
        with pytest.raises(ClosureTooLarge, match=f"element budget of {budget} "):
            sq.closure(els("x"), 4, max_elements=budget)

    def test_deterministic(self):
        a = sq.closure(els("x^(y)", "y"), 2)
        b = sq.closure(els("x^(y)", "y"), 2)
        assert a.elements == b.elements
        assert a.derivations == b.derivations

    def test_monotone_in_bound(self):
        small = sq.closure(els("x^(y)", "y"), 2)
        large = sq.closure(els("x^(y)", "y"), 3)
        assert set(small.elements) <= set(large.elements)

    def test_generators_deduped(self):
        c = sq.closure(els("x", "x"), 2)
        assert c.generators == (el("x"),)

    def test_derivations_replay(self):
        c = sq.closure(els("x^(y)", "y"), 2)
        for e, (a, q, eps) in c.derivations.items():
            assert cq.act(a, q, eps) == e

    def test_element_budget_boundary(self, corpus_closures):
        fulls = [sq.closure(els("x^(y)", "y"), 2), sq.closure(els("x"), 4)]
        fulls += [c for _, c in corpus_closures]
        for full in fulls:
            at_size = sq.closure(full.generators, full.bound, max_elements=len(full))
            assert at_size.elements == full.elements
            with pytest.raises(ClosureTooLarge):
                sq.closure(full.generators, full.bound, max_elements=len(full) - 1)

    def test_early_stop_prefix(self, corpus_closures):
        # stopping at the k-th element gives exactly the full closure's
        # prefix through k (never fewer than the generators), and the same
        # derivations for it
        fulls = [sq.closure(els("x^(y)", "y"), 2)] + [c for _, c in corpus_closures]
        for full in fulls:
            gens = full.generators
            for k, target in enumerate(full.elements):
                partial = sq.closure(gens, full.bound, stop_when_contains=[target])
                prefix = full.elements[:max(k + 1, len(gens))]
                assert partial.elements == prefix
                assert partial.derivations == {
                    e: full.derivations[e] for e in prefix[len(gens):]}

    def test_early_stop_absent_target_gives_full_closure(self):
        full = sq.closure(els("x^(y)", "y"), 2)
        for targets in ([el("x^(y y y)")], [el("x"), el("x^(y y y)")]):
            partial = sq.closure(els("x^(y)", "y"), 2, stop_when_contains=targets)
            assert partial.elements == full.elements
            assert partial.derivations == full.derivations


def _acting_words(e):
    gw = fg.conjugate_word(*e)
    return (gw, 1), (fg.inverse(gw), -1)


def _all_pairs_new_elements(elements, bound):
    """Reference: the exhaustive pair loop the indexed one replaced, verbatim."""
    seen = set(elements)
    acting = [_acting_words(e) for e in elements]
    done = 0  # pairs among elements[:done] are already tried
    while done < len(elements):
        prev, done = done, len(elements)
        for i in range(done):
            axis, tail = elements[i]
            la = len(tail)
            for j in range(prev if i < prev else 0, done):
                for gw, eps in acting[j]:
                    lg = len(gw)
                    # cancellation depth of tail · gw, before materializing
                    c = 0
                    while c < la and c < lg and tail[la - 1 - c] == -gw[c]:
                        c += 1
                    # a surviving first tail letter leaves nothing to strip
                    if c < la and la + lg - 2 * c > bound:
                        continue
                    res = (axis, cq.canonical_tail(axis, tail[:la - c] + gw[c:]))
                    if len(res[1]) > bound or res in seen:
                        continue
                    seen.add(res)
                    elements.append(res)
                    acting.append(_acting_words(res))
                    yield i, j, eps


# the exhaustive loop is quadratic, so both enumerations are compared on
# their first PREFIX derivations: they run in the same order, so a prefix
# is a complete check up to that size.  Closures of at most WHOLE elements
# are compared whole, the indexed loop stopping at the exact size
PREFIX = 150
WHOLE = 300


def _exact_size(gens, bound):
    """size_within of raw elements on at most three axes, each tail within
    the bound, as closure asks."""
    return SubquandleGraph([cq.QuandleElement(a, fg.Word(XYZ, t))
                            for a, t in gens]).size_within(bound)


@st.composite
def raw_generator_sets(draw):
    """(raw elements, bound): tails of up to four letters on one to three
    axes, each with a random suffix of it, each put on one or more axes."""
    n = draw(st.integers(1, 3))
    bound = draw(st.integers(0, 9))
    letters = st.sampled_from([s * (g + 1) for g in range(n) for s in (1, -1)])
    tails = []
    for raw in draw(st.lists(st.lists(letters, max_size=min(4, bound)),
                             min_size=1, max_size=3)):
        tail = fg.reduced_product((), raw)
        tails += [tail, tail[draw(st.integers(0, len(tail))):]]
    elements = []
    for tail in tails:
        for axis in draw(st.lists(st.integers(0, n - 1), min_size=1,
                                  max_size=n, unique=True)):
            elements.append((axis, cq.canonical_tail(axis, tail)))
    return list(dict.fromkeys(elements)), bound


class TestIndexedLoop:
    @settings(max_examples=150, deadline=None)
    @given(raw_generator_sets())
    @example(([(0, (2,)), (1, ())], 6))                    # {x^(y), y}: an empty tail
    @example(([(0, ())], 9))                               # one-letter alphabet
    @example(([(0, (2, 3)), (1, (3,)), (2, (1, -2, 3))], 7))  # tails ending in one another
    @example(([(0, (3,)), (1, (3,)), (2, (1,))], 5))       # one tail on two axes
    @example(([(0, ()), (1, ())], 0))
    # y^(z x x) acting on x costs exactly 5 letters: an x-run next to an empty tail
    @example(([(0, ()), (1, (3, 1, 1)), (2, (1,))], 4))
    @example(([(0, ()), (1, (3, 1, 1)), (2, (1,))], 5))
    # a new a^u acting on an old x^v, each found only from u's walk:
    @example(([(1, (1,)), (0, ())], 1))                    # v ends in u, |v| < L
    @example(([(1, (1,)), (2, ()), (0, (3,))], 1))         # v = a^±1 u, |v| = L
    @example(([(0, (-2, -2, 1, 2)), (0, (2,))], 6))       # v leaves u's suffix
    @example(([(0, ()), (1, ())], 3))                      # v a proper suffix of u
    @example(([(0, ()), (1, ())], 2))                      # ... after an x-run it strips
    @example(([(1, (3,)), (0, (3,))], 3))                  # ... before a one-letter v
    # z^(y) at the bound waits for its shrinker y, found a round later
    @example(([(0, ()), (2, (2,)), (1, (1,))], 1))
    def test_same_elements_and_derivations(self, case):
        gens, bound = case
        size = _exact_size(gens, bound)
        limit = PREFIX if size > WHOLE else None
        ref, new = list(gens), list(gens)
        want = list(itertools.islice(_all_pairs_new_elements(ref, bound), limit))
        index = sq._index(new, len(XYZ))
        got = list(itertools.islice(sq._new_elements(new, index, bound, size), limit))
        assert got == want
        assert new == ref
        if limit is None:
            assert len(new) == size


class TestStop:
    def test_no_walk_after_the_last_element(self, monkeypatch, corpus_closures,
                                            baseline_closures):
        # without stop targets the enumeration ends with the size_within(L)-th
        # element: no trie walk or shrinker lookup runs after it, where the
        # fixed point's last round walks or looks up once more for every
        # element the round before found
        lengths = []
        real_walk, real_shrinkers = sq._walk, sq._shrinkers

        def walk(root, elements, *args):
            lengths.append(len(elements))
            return real_walk(root, elements, *args)

        def shrinkers(seen, u, *args):
            lengths.append(sum(map(len, seen.values())))
            return real_shrinkers(seen, u, *args)

        monkeypatch.setattr(sq, "_walk", walk)
        monkeypatch.setattr(sq, "_shrinkers", shrinkers)
        closures = [c for _, c in corpus_closures]
        closures += [c for c in baseline_closures if len(c) <= 2_000]
        for c in closures:
            size = SubquandleGraph(c.generators).size_within(c.bound)
            lengths.clear()
            assert len(sq.closure(c.generators, c.bound)) == size
            assert max(lengths, default=0) < size
            lengths.clear()
            elements = [(g.axis, g.tail.letters) for g in c.generators]
            for _ in sq._new_elements(elements, sq._index(elements, len(c.alphabet)), c.bound):
                pass
            assert len(elements) == size == max(lengths)


    def test_one_walk_per_element(self, monkeypatch, corpus_closures, baseline_closures):
        # each element below the bound walks the trie once, in the round
        # after it is found: the walks of a round's new elements also find
        # the old elements they act on, so no old element walks again.  An
        # element at the bound never walks: it looks up its shrinkers once
        walked, looked_up = [], []
        real_walk, real_shrinkers = sq._walk, sq._shrinkers

        def walk(root, elements, axis, u, *args):
            walked.append((axis, u))
            return real_walk(root, elements, axis, u, *args)

        def shrinkers(seen, u, *args):
            looked_up.append(u)
            return real_shrinkers(seen, u, *args)

        monkeypatch.setattr(sq, "_walk", walk)
        monkeypatch.setattr(sq, "_shrinkers", shrinkers)
        closures = [c for _, c in corpus_closures] + list(baseline_closures)
        for c in closures:
            below = {(a, t) for a, t in c.raw if len(t) < c.bound}
            walked.clear()
            assert len(sq.closure(c.generators, c.bound)) == len(c)
            assert len(set(walked)) == len(walked) and set(walked) <= below
            walked.clear()
            looked_up.clear()
            elements = [(g.axis, g.tail.letters) for g in c.generators]
            for _ in sq._new_elements(elements, sq._index(elements, len(c.alphabet)), c.bound):
                pass
            assert len(set(walked)) == len(walked) and set(walked) == below
            assert len(looked_up) == len(c) - len(below)
            assert all(len(u) == c.bound for u in looked_up)

    def test_walks_only_below_the_bound(self, monkeypatch, corpus_closures,
                                        baseline_closures):
        # an element at the bound acts on no element within it, and its
        # candidates are its shrinkers, looked up without a trie walk
        walks = []
        real = sq._walk

        def spy(root, elements, axis, u, bound, prev):
            assert len(u) < bound
            walks.append(u)
            return real(root, elements, axis, u, bound, prev)

        monkeypatch.setattr(sq, "_walk", spy)
        closures = [c for _, c in corpus_closures] + list(baseline_closures)
        for c in closures:
            assert sq.closure(c.generators, c.bound).raw == c.raw
            middle = c.elements[len(c) // 2]
            stopped = sq.closure(c.generators, c.bound, stop_when_contains=[middle])
            assert stopped.raw == c.raw[:max(len(c) // 2 + 1, len(c.generators))]
        assert walks


class TestWaitList:
    def test_elements_at_the_bound_wait(self, monkeypatch, corpus_closures,
                                        baseline_closures):
        # an element whose tail has L letters is in no list of the trie and
        # gets no acting words.  A new a^u below the bound pairs with the old
        # elements waiting for it, exactly those a trie of all elements
        # holds at the bound under the children a^±1 of u's node, below
        # prev (the walk spy reads the wait-list before a^u takes from it).
        # No key left waiting names an element of the closure.  The corpus
        # and baseline closures have no such pair; the three last ones do
        closures = [c for _, c in corpus_closures] + list(baseline_closures)
        closures += [sq.closure([cq.parse_element(XYZ, g) for g in gens], bound)
                     for gens, bound in ((("x", "z^(y)", "y^(x)"), 1),
                                         (("z^(x y y y)", "y", "y^(x^-1 z^-1 x)"), 4),
                                         (("x^(z^-1 x^-1 z x)", "x^(z x)"), 4))]
        state, acted = {}, []
        real_walk, real_shrinkers, real_acting = sq._walk, sq._shrinkers, sq._acting_words

        def shrinkers(seen, u, misses=None):
            if misses is not None:
                state["waiting"] = misses[0]
            return real_shrinkers(seen, u, misses)

        def walk(root, elements, axis, u, bound, prev):
            state["trie"] = root
            node, lu = state["all"], len(u)
            for key in reversed(u):
                node = node[0][key]
            read = [i for child in filter(None, map(node[0].get, (axis + 1, -axis - 1)))
                    for group in child[1][bound - lu - 1:bound - lu]
                    for i in group if i < prev]
            assert sorted(state.get("waiting", {}).get((axis, u), ())) == read
            state["pairs"] += len(read)
            return real_walk(root, elements, axis, u, bound, prev)

        def acting_words(e):
            acted.append(e)
            return real_acting(e)

        monkeypatch.setattr(sq, "_walk", walk)
        monkeypatch.setattr(sq, "_shrinkers", shrinkers)
        monkeypatch.setattr(sq, "_acting_words", acting_words)
        pairs = 0
        for c in closures:
            state.clear()
            state.update(all=[{}, []], pairs=0)
            for j, (_, tail) in enumerate(c.raw):
                sq._trie_insert(state["all"], tail, j)
            acted.clear()
            elements = [(g.axis, g.tail.letters) for g in c.generators]
            for _ in sq._new_elements(elements, sq._index(elements, len(c.alphabet)), c.bound):
                pass
            assert elements == list(c.raw)
            assert sorted(acted) == sorted(e for e in c.raw if len(e[1]) < c.bound)
            nodes = [(state.get("trie", [{}, []]), 0)]
            while nodes:
                (children, by_len), depth = nodes.pop()
                for k, group in enumerate(by_len):
                    assert all(len(elements[i][1]) == depth + k < c.bound for i in group)
                nodes += [(child, depth + 1) for child in children.values()]
            assert not any(t in c.index[a] for a, t in state.get("waiting", {}))
            pairs += state["pairs"]
        assert pairs > 0


class TestIndex:
    def test_one_table_per_closure(self, monkeypatch, corpus_closures, baseline_closures):
        # closure() builds one table of positions, enumerates with it and
        # keeps it as c.index, whole or stopped.  It holds a dict for every
        # axis of the alphabet, so reads leave it as it is
        real, tables = sq._index, []

        def spy(elements, *args):
            tables.append(real(elements, *args))
            return tables[-1]

        monkeypatch.setattr(sq, "_index", spy)
        closures = [c for _, c in corpus_closures]
        closures += [c for c in baseline_closures if len(c) <= 2_000]
        for c in closures:
            middle = c.elements[len(c) // 2]
            for targets in (None, [middle]):
                tables.clear()
                built = sq.closure(c.generators, c.bound, stop_when_contains=targets)
                assert len(tables) == 1 and built.index is tables[0]
                n = len(built.alphabet)
                whole = real(built.raw, n)
                assert built.index == whole
                # a member read and a shrinker lookup on every axis
                assert [cq.QuandleElement(a, fg.Word(built.alphabet, ())) in built
                        for a in range(n)] == [() in whole[a] for a in range(n)]
                built.shrinkers(tuple(range(n, 0, -1)) * 2)
                assert built.index == whole


class TestCandidates:
    def test_no_product_longer_than_bound(self, monkeypatch, corpus):
        # every product the closure materializes lands within the bound:
        # _candidates bounds the walk below tail by the product's exact length.
        # canonical_tail sees only the products that cancel the whole tail, so
        # every element appended is also checked to be canonical and within L
        products = []
        canonical_tail = cq.canonical_tail

        def spy(axis, letters):
            tail = canonical_tail(axis, letters)
            products.append(len(tail))
            return tail

        monkeypatch.setattr(cq, "canonical_tail", spy)
        cases = [([cq.parse_element(XYZ, g) for g in gens], bound)
                 for gens, bound in BASELINE_ROWS]
        cases += [(gens, bound) for bound in (4, 6, 8, 10) for _, _, gens in corpus]
        calls = 0
        for gens, bound in cases:
            products.clear()
            c = sq.closure(gens, bound)
            assert max(products, default=0) <= bound
            calls += len(products)
            for e in c.elements[len(c.generators):]:
                tail = e.tail.letters
                assert len(tail) <= bound
                assert fg.reduced_product((), tail) == tail
                assert canonical_tail(e.axis, tail) == tail
        assert calls > 0  # the spy saw the closure's products

    def test_superset_of_pairs_within_bound(self, corpus_closures):
        # on whole closures, every (i, j) with a product within the bound
        # other than elements[i] itself is among i's candidates
        closures = [c for _, c in corpus_closures]
        closures += [sq.closure([cq.parse_element(XYZ, g) for g in gens], bound)
                     for gens, bound in ((("x^(y)", "y"), 4),
                                         (("x^(y)", "y^(z x)", "z"), 8))]
        for c in closures:
            elements = [(e.axis, e.tail.letters) for e in c.elements]
            bound = c.bound
            trie = [{}, []]
            for j, (_, tail) in enumerate(elements):
                sq._trie_insert(trie, tail, j)
            words = [(gw, fg.inverse(gw)) for gw in
                     (fg.conjugate_word(*e) for e in elements)]
            seen = sq._index(elements, len(c.alphabet))
            for axis, tail in elements:
                if len(tail) == bound:
                    candidates = set(sq._shrinkers(seen, tail))
                else:
                    candidates = set(sq._walk(trie, elements, axis, tail, bound, 0)[0])
                for j, pair in enumerate(words):
                    if j in candidates:
                        continue
                    for gw in pair:
                        res = cq.canonical_tail(axis, fg.reduced_product(tail, gw))
                        assert len(res) > bound or res == tail

    def test_reverse_lookups(self, corpus_closures, baseline_closures):
        # on whole closures, at every tail length: every (i, j) with a
        # product within the bound other than elements[i] itself is found
        # from j; j's walk, or for i at the bound the wait-list, finds i
        # exactly when i's walk or shrinker lookup finds j; the old indices
        # below prev are those at prev = n, cut; and at |tail_i| = L the
        # shrinker lookup returns exactly the within-bound j.  Only the
        # elements below the bound walk, and only they are in the trie.
        # Each element at the bound waits for all its shrinkers, as if it
        # had looked them up before any of them was found
        closures = [c for _, c in corpus_closures]
        closures += [c for c in baseline_closures if len(c) <= 2_000]
        checked = 0
        for c in closures:
            elements = [(e.axis, e.tail.letters) for e in c.elements]
            bound, n = c.bound, len(elements)
            trie = [{}, []]
            for j, (_, tail) in enumerate(elements):
                if len(tail) < bound:
                    sq._trie_insert(trie, tail, j)
            seen = sq._index(elements, len(c.alphabet))
            nothing, waiting = sq._index([], len(c.alphabet)), {}
            for i, (_, v) in enumerate(elements):
                if len(v) == bound:
                    assert sq._shrinkers(nothing, v, (waiting, i)) == []
            found = [set() for _ in elements]
            forward = []
            for j, (a, u) in enumerate(elements):
                if len(u) == bound:
                    forward.append(sq._shrinkers(seen, u))
                    continue
                candidates, targets = sq._walk(trie, elements, a, u, bound, n)
                forward.append(candidates)
                assert sq._walk(trie, elements, a, u, bound, n // 2)[1] == [
                    i for i in targets if i < n // 2]
                assert all(len(elements[i][1]) < bound for i in targets)
                targets += waiting.pop((a, u), ())
                assert len(set(targets)) == len(targets)
                for i in targets:
                    found[i].add(j)
            assert not any(t in seen[a] for a, t in waiting)
            words = [(gw, fg.inverse(gw)) for gw in
                     (fg.conjugate_word(*e) for e in elements)]
            for i, (axis, tail) in enumerate(elements):
                assert found[i] == set(forward[i])
                within = set()
                for j, pair in enumerate(words):
                    for gw in pair:
                        depth = fg.cancellation_depth(tail, gw)
                        if depth < len(tail):  # tail[0] stays: nothing to strip
                            if len(tail) + len(gw) - 2 * depth <= bound:
                                within.add(j)
                            continue
                        res = cq.canonical_tail(axis, gw[depth:])
                        if len(res) <= bound and res != tail:
                            within.add(j)
                assert within <= found[i]
                if len(tail) == bound:
                    assert forward[i] == sorted(within)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("a, q, eps, product, bound", [
        # one cancellation at the junction; the other eps has 7 letters
        ("x^(y x^-1 y^-1 x y x)", "y^(x y x)", 1, "x^(y y x)", 6),
        # the cancellation reaches the front, then the axis letter is stripped
        ("x^(y z y^-1 x)", "z^(y^-1 x)", -1, "x", 4),
    ])
    def test_shrink_by_deletion(self, a, q, eps, product, bound):
        # an element at the bound looks up its shrinker and deletes the
        # letter before the shrinker's tail, as act does
        a, q, product = (cq.parse_element(XYZ, e) for e in (a, q, product))
        assert cq.act(a, q, eps) == product
        assert len(cq.act(a, q, -eps).tail) == bound + 1
        elements = [(a.axis, a.tail.letters), (q.axis, q.tail.letters)]
        assert sq._shrinkers(sq._index(elements, len(XYZ)), a.tail.letters) == [1]
        assert next(sq._new_elements(elements, sq._index(elements, len(XYZ)), bound)) == (0, 1, eps)
        assert elements[2] == (product.axis, product.tail.letters)


class TestBaselineSizes:
    # the baseline problems of the ROADMAP, at each bound it lists
    @pytest.mark.parametrize("gens, bound, size", [
        (("x^(y)", "y"), 4, 162),
        (("x^(y)", "y"), 6, 1_458),
        (("x^(y)", "y"), 8, 13_122),
        (("x^(y z)", "y^(z)", "z^(x)"), 6, 591),
        (("x^(y)", "y^(z x)", "z"), 8, 439),
        (("x^(y)", "y^(z x)", "z"), 9, 923),
        (("x^(y)", "y^(z x)", "z"), 10, 1_951),
    ])
    def test_closure_size(self, gens, bound, size):
        c = sq.closure([cq.parse_element(XYZ, g) for g in gens], bound)
        assert len(c) == size


class TestContains:
    def test_generator(self):
        assert el("x") in sq.closure(els("x"), 4)

    def test_other_axis_absent(self):
        assert el("y") not in sq.closure(els("x"), 4)

    def test_derived_member(self):
        assert el("x") in sq.closure(els("x^(y)", "y"), 2)


class TestExpress:
    def test_generator_is_leaf(self):
        c = sq.closure(els("x^(y)", "y"), 2)
        term = sq.express(c, el("x^(y)"))
        assert term.leaf == 0

    def test_single_step(self):
        c = sq.closure(els("x^(y)", "y"), 2)
        term = sq.express(c, el("x"))
        assert term.leaf is None
        assert (term.left.leaf, term.right.leaf, term.eps) == (0, 1, -1)

    def test_single_step_other_direction(self):
        c = sq.closure(els("x^(y)", "y"), 2)
        term = sq.express(c, el("y^(x y)"))
        assert (term.left.leaf, term.right.leaf, term.eps) == (1, 0, 1)

    def test_not_in_closure(self):
        with pytest.raises(NotInClosure):
            sq.express(sq.closure(els("x"), 4), el("y"))

    def test_alphabet_mismatch(self):
        # as for ``e in c``: x^(y) over "x y z" is from another alphabet,
        # not an element the closure lacks
        c = sq.closure(els("x^(y)", "y"), 2)
        with pytest.raises(AlphabetMismatch, match="different alphabet"):
            sq.express(c, cq.parse_element(XYZ, "x^(y)"))

    def test_every_element_expressible(self):
        c = sq.closure(els("x^(y)", "y"), 2)
        for e in c.elements:
            assert sq.express(c, e).evaluate(c.generators) == e

    def test_corrupted_derivation_raises(self):
        # the replay check is an explicit raise, so it also holds under -O
        c = sq.closure(els("x^(y)", "y"), 2)
        e = el("x")
        m = c.index[e.axis][e.tail.letters] - len(c.generators)
        i, j, eps = c.steps[m]
        assert cq.act(c.elements[i], c.elements[j], -eps) != e
        steps = (*c.steps[:m], (i, j, -eps), *c.steps[m + 1:])
        corrupted = sq.ClosureSet(c.generators, c.bound, c.raw, steps)
        with pytest.raises(WitnessNotFound):
            sq.express(corrupted, e)


class TestInvariants:
    def test_odd_group_word_lengths(self):
        c = sq.closure(els("x^(y)", "y"), 2)
        assert all(len(cq.to_group_word(e)) % 2 == 1 for e in c.elements)

    def test_tail_parity_changes_under_action(self):
        c = sq.closure(els("x^(y)", "y"), 2)
        for e in c.elements:
            for q in c.elements:
                gw = cq.to_group_word(q)
                for g in (gw, fg.invert(gw)):
                    assert len(fg.multiply(e.tail, g)) != len(e.tail)


class TestProblemFile:
    TEXT = """\
# a small problem
alphabet: x y

x^(y)
y
"""

    def test_parse(self):
        alphabet, gens = sq.parse_problem(self.TEXT)
        assert alphabet == XY
        assert gens == els("x^(y)", "y")

    def test_missing_header(self):
        with pytest.raises(ValueError):
            sq.parse_problem("x^(y)\n")

    def test_no_generators(self):
        with pytest.raises(EmptyGeneratorSet):
            sq.parse_problem("alphabet: x y\n")
