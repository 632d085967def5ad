import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from freequandle import basis as bs
from freequandle import conj_quandle as cq
from freequandle import free_group as fg
from freequandle import subquandle as sq
from freequandle.errors import ClosureTooLarge
from freequandle.free_group import Alphabet
from freequandle.stallings import SubquandleGraph

XY = Alphabet(("x", "y"))


def el(text):
    return cq.parse_element(XY, text)


def els(*texts):
    return [el(t) for t in texts]


def w(text):
    return fg.parse_word(XY, text)


def with_budget(c, max_elements):
    """The closure c under another element budget; its tables are built
    again on first use."""
    return sq.ClosureSet(c.generators, c.bound, c.raw, c.steps, max_elements)


def scrambled_problems(rng, count):
    """Generating sets on 2-3 letters: 2-3 random elements with tails <= 3,
    then 0-3 moves g_i <- act(g_i, g_j, +-1), deduped."""
    out = []
    for _ in range(count):
        alphabet = Alphabet(("x", "y", "z")[:rng.randint(2, 3)])
        gens = [cq.random_element(alphabet, 3, rng) for _ in range(rng.randint(2, 3))]
        for _ in range(rng.randint(0, 3)):
            i, j = rng.sample(range(len(gens)), 2)
            gens[i] = cq.act(gens[i], gens[j], rng.choice((1, -1)))
        out.append(list(dict.fromkeys(gens)))
    return out


@pytest.fixture(scope="module")
def small_closure():
    return sq.closure(els("x^(y)", "y"), 2)


@pytest.fixture(scope="module")
def rigid_closure():
    # no element can shrink another; the generators are already a basis
    return sq.closure(els("x^(y)", "x^(y^-1)"), 4)


class TestShrinkers:
    def test_empty_tail_never_shrinks(self, small_closure):
        assert small_closure.shrinkers(()) == []

    def test_shrinks_by_generator(self, small_closure):
        hits = small_closure.shrinkers(w("y").letters)
        assert small_closure.elements[hits[0]] == el("y")

    def test_rigid_set(self, rigid_closure):
        assert rigid_closure.shrinkers(w("y").letters) == []

    def test_oracle_brute_force(self, small_closure, corpus_closures):
        # independent oracle: every element that shortens the tail under
        # explicit reduced multiplication, for some eps
        closures = [small_closure] + [c for _, c in corpus_closures if len(c) <= 200]
        for c in closures:
            words = [(gw, fg.invert(gw)) for gw in map(cq.to_group_word, c.elements)]
            for e in c.elements:
                expected = [k for k, pair in enumerate(words)
                            if any(len(fg.multiply(e.tail, g)) < len(e.tail) for g in pair)]
                assert c.shrinkers(e.tail.letters) == expected


def _ref_shrinks(tail, q, eps):
    """Reference: the closure scan the suffix index replaced, verbatim."""
    u = q.tail.letters
    suffix = (fg.letter(q.axis, -eps),) + u
    k = len(suffix)
    return len(tail) >= k and tail[-k:] == suffix


def _ref_first_shrinker(tail, c):
    """The first position the scan finds, eps -1 before +1, or None."""
    return next((k for k, q in enumerate(c.elements) for eps in (-1, 1)
                 if _ref_shrinks(tail, q, eps)), None)


class TestSuffixIndex:
    @pytest.fixture(scope="class")
    def closures(self, corpus, corpus_closures, baseline_closures):
        # the corpus at L = 6, 8 and 10, then the ROADMAP baseline rows
        return ([sq.closure(gens, bound) for bound in (6, 10) for _, _, gens in corpus]
                + [c for _, c in corpus_closures] + baseline_closures)

    def test_same_moves_as_scan(self, closures):
        # the first shrinker only: the full scan takes minutes here
        for c in closures:
            for e in c.elements:
                first = _ref_first_shrinker(e.tail.letters, c)
                assert c.shrinkers(e.tail.letters)[:1] == ([] if first is None else [first])

    def test_same_tails_as_scan(self, closures):
        for c in closures:
            for axis in range(len(c.alphabet)):
                assert bs.compute_T(axis, c) == [
                    e.tail for e in c.elements
                    if e.axis == axis and _ref_first_shrinker(e.tail.letters, c) is None]

    def test_tail_filter_builds_no_moves(self, monkeypatch, closures):
        calls = []
        monkeypatch.setattr(bs, "act", lambda *args: calls.append(args))
        for c in closures:
            bs._tail_filter(c)
        assert calls == []


@st.composite
def closures_and_targets(draw):
    """A closure on two or three letters at L <= 4, and target tails of
    L + 1 and L + 2 letters, the edge of the slice that
    ClosureSet.shrinkers reads, and of 0 to L + 4; about half end in a closure
    tail u after the letter y^±1 of its axis y."""
    alphabet = Alphabet(("x", "y", "z")[:draw(st.integers(2, 3))])
    n = len(alphabet)
    letters = st.sampled_from([s * (g + 1) for g in range(n) for s in (1, -1)])
    gens = []
    for axis in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
        tail = fg.reduced_product((), draw(st.lists(letters, max_size=3)))
        gens.append(cq.QuandleElement(axis, fg.Word(alphabet, cq.canonical_tail(axis, tail))))
    bound = draw(st.integers(max(len(g.tail) for g in gens), 4))
    try:
        c = sq.closure(gens, bound, max_elements=500)
    except ClosureTooLarge:
        assume(False)
    targets = []
    for length in draw(st.lists(st.one_of(st.sampled_from([bound + 1, bound + 2]),
                                          st.integers(0, bound + 4)), min_size=1, max_size=4)):
        t = ()
        planted = [e for e in c.raw if len(e[1]) < length]
        if planted and draw(st.booleans()):
            y, u = draw(st.sampled_from(planted))
            t = (draw(st.sampled_from([y + 1, -y - 1])),) + u
        while len(t) < length:
            t = (draw(letters.filter(lambda lt: not t or lt != -t[0])),) + t
        axis = draw(st.sampled_from([a for a in range(n) if not t or abs(t[0]) != a + 1]))
        targets.append((axis, t))
    return c, targets


class TestClosureShrinkers:
    @settings(max_examples=200, deadline=None)
    @given(closures_and_targets())
    def test_same_as_the_trie(self, case):
        # the closure's own table answers what a trie of its reversed tails
        # answers, at any target length
        c, targets = case
        trie = cq.shrink_index(c.raw)
        for _, t in targets:
            assert c.shrinkers(t) == sorted(k for k, _ in cq.shrinkers(trie, t))


class TestComputeT:
    def test_single_generator(self):
        c = sq.closure(els("x"), 4)
        assert bs.compute_T(0, c) == [w("1")]

    def test_axis_x(self, small_closure):
        assert bs.compute_T(0, small_closure) == [w("1")]

    def test_axis_y(self, small_closure):
        assert bs.compute_T(1, small_closure) == [w("1")]

    def test_filter_restated(self, small_closure):
        for axis in range(2):
            for tail in bs.compute_T(axis, small_closure):
                for q in small_closure.elements:
                    gw = cq.to_group_word(q)
                    for g in (gw, fg.invert(gw)):
                        assert len(fg.multiply(tail, g)) >= len(tail)


class TestComputeS:
    def test_single_generator(self):
        report = bs.compute_S(sq.closure(els("x"), 4))
        assert report.candidate == (el("x"),)
        assert report.certified

    def test_shrinks_to_generators(self, small_closure):
        report = bs.compute_S(small_closure)
        assert set(report.candidate) == set(els("x", "y"))
        assert report.certified
        for g, term in report.witnesses.items():
            assert term.evaluate(report.candidate) == g

    def test_rigid_set(self, rigid_closure):
        report = bs.compute_S(rigid_closure)
        assert set(report.candidate) == set(els("x^(y)", "x^(y^-1)"))
        assert report.certified

    def test_stability_flag(self, monkeypatch, small_closure, corpus, baseline_closures):
        # F4 (see compute_S): at every accepted L the L+2 closure cut to
        # tails <= L is the closure at L, so the check always says yes; a
        # problem is skipped when its L+2 closure passes 3,000 elements
        problems = [(small_closure.generators, 2)]
        problems += [(gens, bound) for bound in (4, 6, 8) for _, _, gens in corpus]
        problems += [(c.generators, c.bound) for c in baseline_closures if len(c) <= 3000]
        problems += [(gens, max(len(g.tail) for g in gens))
                     for gens in scrambled_problems(random.Random(16), 150)]
        built = []  # the closures compute_S builds, the L+2 one first
        real = sq.closure

        def recording(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(bs, "closure", recording)
        checked = 0
        for gens, bound in problems:
            built.clear()
            try:
                c = sq.closure(gens, bound, max_elements=3000)
                report = bs.compute_S(c, check_stability=True)
            except ClosureTooLarge:
                continue
            bigger = built[0]
            assert bigger.bound == bound + 2
            assert report.stable is True, (gens, bound)
            assert report.stable == (report.hall_verdict.passed
                                     and not report.missing_witnesses)
            assert {e for e in bigger.elements if len(e.tail) <= bound} == set(c.elements)
            checked += 1
        assert checked >= 400

    def test_budget_applies_to_witness_closure(self, small_closure):
        report = bs.compute_S(small_closure)
        size = len(sq.closure(report.candidate, small_closure.bound,
                              stop_when_contains=small_closure.generators))
        budgeted = with_budget(small_closure, size)
        assert bs.compute_S(budgeted) == report
        with pytest.raises(ClosureTooLarge):
            bs.compute_S(with_budget(small_closure, size - 1))


class TestGreedyShrink:
    def test_single_generator(self):
        c = sq.closure(els("x"), 4)
        report = bs.greedy_shrink(c)
        assert report.candidate == (el("x"),)
        assert report.moves == ()

    def test_one_move(self, small_closure):
        report = bs.greedy_shrink(small_closure)
        assert set(report.candidate) == set(els("x", "y"))
        assert len(report.moves) == 1
        mv = report.moves[0]
        assert (mv.target, mv.by, mv.eps, mv.result) == \
            (el("x^(y)"), el("y"), -1, el("x"))
        assert report.certified

    def test_budget_applies_to_working_closures(self, small_closure):
        # the budget is stated on small_closure, not used to build it
        report = bs.greedy_shrink(small_closure)
        size = len(sq.closure(report.candidate, small_closure.bound))
        budgeted = with_budget(small_closure, size)
        assert bs.greedy_shrink(budgeted) == report
        with pytest.raises(ClosureTooLarge):
            bs.greedy_shrink(with_budget(small_closure, size - 1))

    def test_rigid_set(self, rigid_closure):
        report = bs.greedy_shrink(rigid_closure)
        assert set(report.candidate) == set(els("x^(y)", "x^(y^-1)"))
        assert report.moves == ()
        assert report.certified

    def test_descent(self, small_closure):
        report = bs.greedy_shrink(small_closure)
        total = sum(len(g.tail) for g in report.input_generators)
        for mv in report.moves:
            assert len(mv.result.tail) < len(mv.target.tail)
            assert cq.act(mv.target, mv.by, mv.eps) == mv.result
            total -= len(mv.target.tail) - len(mv.result.tail)
        assert total == sum(len(g.tail) for g in report.candidate)

    def test_moves_keep_the_subquandle(self, corpus_closures):
        # each move is by the first shrinker of the first target, in working
        # order and then closure order, that lies in the subquandle of the
        # other working elements, so the working set keeps generating the
        # input: greedy certifies every corpus problem at L = 8 and every
        # scrambled problem at its longest tail (if its closure there has
        # at most 2,000 elements)
        closures = [c for _, c in corpus_closures]
        for gens in scrambled_problems(random.Random(28), 150):
            try:
                closures.append(sq.closure(gens, max(len(g.tail) for g in gens), 2000))
            except ClosureTooLarge:
                pass
        assert len(closures) >= 230
        for c in closures:
            report = bs.greedy_shrink(c)
            working = list(c.generators)
            for mv in report.moves + (None,):
                wc, first = sq.closure(working, c.bound), None
                for ti, target in enumerate(working):
                    v, rest = target.tail.letters, None
                    for a, t in wc.raw:
                        if len(t) < len(v) and v[-len(t) - 1:] in ((a + 1, *t), (-a - 1, *t)):
                            if rest is None:
                                rest = SubquandleGraph(working[:ti] + working[ti + 1:])
                            q = cq.QuandleElement(a, fg.Word(c.alphabet, t))
                            if rest.member(q):
                                first = (target, q)
                                break
                    if first is not None:
                        break
                assert first == (mv and (mv.target, mv.by))
                if mv is not None:
                    assert cq.act(mv.target, mv.by, mv.eps) == mv.result
                    assert len(mv.result.tail) < len(mv.target.tail)
                    working[working.index(mv.target)] = mv.result
                    working = list(dict.fromkeys(working))
            assert tuple(working) == report.candidate
            assert report.certified, c.generators


class TestInheritedBudget:
    # {x^(y), y} has 162 elements at L = 4 and 1,458 at L = 6
    def test_stability_closure_inherits_budget(self):
        c = sq.closure(els("x^(y)", "y"), 4, max_elements=162)
        with pytest.raises(ClosureTooLarge) as exc:
            bs.compute_S(c, check_stability=True)
        assert str(exc.value) == ("closure at bound L = 6 reached 163 elements, "
                                  "over the element budget of 162")

    @pytest.mark.parametrize("derive", [lambda c: bs.compute_S(c, True),
                                        bs.greedy_shrink],
                             ids=["compute_S", "greedy_shrink"])
    def test_every_derived_closure_gets_the_budget(self, monkeypatch, derive):
        c = sq.closure(els("x^(y)", "y"), 4, max_elements=5000)
        budgets = []
        real = sq.closure

        def recording(gens, bound=sq.DEFAULT_BOUND, max_elements=None,
                      stop_when_contains=None):
            budgets.append(max_elements)
            return real(gens, bound, max_elements, stop_when_contains)

        monkeypatch.setattr(bs, "closure", recording)
        derive(c)
        assert budgets and budgets == [5000] * len(budgets)


class TestAgreement:
    def test_methods_generate_each_other(self, corpus_closures):
        for gens, c in corpus_closures[:20]:
            paper = bs.compute_S(c).candidate
            greedy = bs.greedy_shrink(c).candidate
            fwd = sq.closure(list(paper), c.bound, stop_when_contains=greedy)
            back = sq.closure(list(greedy), c.bound, stop_when_contains=paper)
            assert all(e in fwd for e in greedy)
            assert all(e in back for e in paper)
