import random

import pytest

from freequandle import basis as bs
from freequandle import cli
from freequandle import conj_quandle as cq
from freequandle import independence as ind
from freequandle import stallings
from freequandle import subquandle as sq
from freequandle.errors import (
    AlphabetMismatch,
    BoundTooSmall,
    ClosureTooLarge,
    EmptyGeneratorSet,
    NotInClosure,
)
from freequandle.free_group import Alphabet
from freequandle.stallings import SubquandleGraph

from test_basis import scrambled_problems

XY = Alphabet(("x", "y"))
XYZ = Alphabet(("x", "y", "z"))


def els(alphabet, *texts):
    return [cq.parse_element(alphabet, t) for t in texts]


def test_independence_uses_the_same_folding():
    assert ind._Folding is stallings._Folding


@pytest.fixture(scope="module")
def problems(corpus_closures, baseline_closures):
    """Full closures: the corpus at L = 8, the baseline rows, and scrambled
    problems at their longest generator tail and two above it."""
    out = [c for _, c in corpus_closures] + list(baseline_closures)
    for gens in scrambled_problems(random.Random(21), 150):
        longest = max(len(g.tail) for g in gens)
        for bound in (longest, longest + 2):
            try:
                out.append(sq.closure(gens, bound, max_elements=3000))
            except ClosureTooLarge:
                pass
    assert len(out) >= 350
    return out


class TestGraphAgainstClosure:
    """F1-F4 of :mod:`stallings`, checked against the enumerated closure and
    its tail filter."""

    def test_rank_is_the_number_of_loops(self, problems):
        for c in problems:
            graph = SubquandleGraph(c.generators)
            assert graph.fold.rank() == len(graph.loops)

    def test_members(self, problems):
        rng = random.Random(3)
        for c in problems:
            graph = SubquandleGraph(c.generators)
            assert all(graph.member(e) for e in c.elements)
            for _ in range(40):  # within the bound, a member is in the closure
                e = cq.random_element(c.alphabet, c.bound, rng)
                assert graph.member(e) == (e in c), (c.generators, c.bound, e)

    def test_basis_is_the_tail_filter(self, problems):
        for c in problems:
            assert SubquandleGraph(c.generators).basis() == set(bs._tail_filter(c))

    def test_size_within(self, problems):
        # closure stops at this count, so the oracle is an enumeration run
        # to its fixed point: _new_elements given no count
        for c in problems:
            graph = SubquandleGraph(c.generators)
            elements = [(g.axis, g.tail.letters) for g in c.generators]
            for _ in sq._new_elements(elements, sq._index(elements, len(c.alphabet)), c.bound):
                pass
            assert graph.size_within(c.bound) == len(elements)
            assert elements == [(e.axis, e.tail.letters) for e in c.elements]
            for cap in (len(c) - 1, len(c)):
                assert (graph.size_within(c.bound, cap) > cap) == (len(c) > cap)

    def test_report_from_the_prefix(self, problems):
        for c in problems:
            graph = sq.check_size(c.generators, c.bound)
            prefix = sq.closure(graph, c.bound, stop_when_contains=graph.basis())
            assert prefix.elements == c.elements[:len(prefix)]
            report = bs.compute_S(prefix)
            assert report == bs.compute_S(c)
            assert report.candidate == bs._tail_filter(c)


class TestGraph:
    def test_readme_example(self):
        graph = SubquandleGraph(els(XY, "x^(y)", "y"))
        assert graph.basis() == set(els(XY, "x", "y"))
        assert [graph.size_within(L) for L in (4, 6, 8)] == [162, 1458, 13122]

    def test_member_at_any_tail_length(self):
        graph = SubquandleGraph(els(XYZ, "x^(y)", "y^(z x)", "z"))
        assert not graph.member(cq.parse_element(XYZ, "y"))
        assert graph.member(cq.parse_element(XYZ, "y^(z x)"))
        assert graph.member(cq.parse_element(XYZ, "x^(y" + " z" * 50 + ")"))
        assert not graph.member(cq.parse_element(XYZ, "x^(" + "y z " * 50 + ")"))

    def test_alphabet_checked(self):
        with pytest.raises(AlphabetMismatch):
            SubquandleGraph(els(XY, "x") + els(XYZ, "y"))
        with pytest.raises(AlphabetMismatch):
            SubquandleGraph(els(XY, "x")).member(cq.parse_element(XYZ, "x"))

    def test_empty_set_rejected(self):
        # as closure rejects an empty set, not with an IndexError
        with pytest.raises(EmptyGeneratorSet):
            SubquandleGraph([])

    def test_count_stops_at_the_cap(self):
        # a walk round the x-loop alone counts nothing, so a single
        # generator ends the count at once, at any bound
        assert SubquandleGraph(els(XY, "x")).size_within(10 ** 9) == 1
        assert SubquandleGraph(els(XY, "x^(y y)")).size_within(1) == 0
        readme = SubquandleGraph(els(XY, "x^(y)", "y"))
        assert 20000 < readme.size_within(10 ** 9, 20000) < 10 ** 6
        assert readme.size_within(40) > 10 ** 19


class TestPaperPath:
    def test_compute_s_needs_the_basis(self):
        gens = els(XY, "x^(y)", "y")
        with pytest.raises(NotInClosure, match="lacks the basis elements x\\b"):
            bs.compute_S(sq.closure(gens, 4, stop_when_contains=[]))

    def test_budget_up_front(self):
        gens = els(XY, "x^(y)", "y")  # 162 elements at L = 4
        graph = sq.check_size(gens, 4, max_elements=162)
        assert len(sq.closure(graph, 4, 162, stop_when_contains=graph.basis())) == 4
        with pytest.raises(ClosureTooLarge) as exc:
            sq.check_size(gens, 4, max_elements=161)
        assert str(exc.value) == ("closure at bound L = 4 reached 162 elements, "
                                  "over the element budget of 161")

    def test_check_size_returns_the_fold(self, monkeypatch):
        folds = []
        real = SubquandleGraph.__init__

        def counting(self, elements):
            folds.append(self)
            real(self, elements)

        monkeypatch.setattr(SubquandleGraph, "__init__", counting)
        gens = els(XY, "x^(y)", "y", "x^(y)")
        graph = sq.check_size(gens, 4)  # folded also without a budget
        assert folds == [graph]
        assert graph.generators == tuple(els(XY, "x^(y)", "y"))  # deduplicated
        assert sq.check_size(graph, 4, 162) is graph
        assert folds == [graph]
        # each error is raised, nothing returned; before the fold where the
        # generators alone tell
        with pytest.raises(ClosureTooLarge, match="reached 162 elements"):
            sq.check_size(graph, 4, 161)
        with pytest.raises(ClosureTooLarge, match="reached 162 elements"):
            sq.check_size(gens, 4, 161)
        assert len(folds) == 2
        with pytest.raises(BoundTooSmall):
            sq.check_size(gens, 0)
        with pytest.raises(ClosureTooLarge, match="reached 2 elements"):
            sq.check_size(gens, 4, 1)
        with pytest.raises(EmptyGeneratorSet):
            sq.check_size([], 4)
        assert len(folds) == 2

    @pytest.mark.parametrize("stability", [False, True])
    def test_basis_command_builds_no_full_closure(self, monkeypatch, tmp_path,
                                                  corpus, stability):
        # every closure without stop targets is the L + 2 one
        built = []
        real = sq.closure

        def recording(gens, bound=sq.DEFAULT_BOUND, max_elements=None,
                      stop_when_contains=None):
            c = real(gens, bound, max_elements, stop_when_contains)
            if stop_when_contains is None:
                built.append(bound)
            return c

        monkeypatch.setattr(sq, "closure", recording)
        monkeypatch.setattr(bs, "closure", recording)
        extra = ["--check-stability"] if stability else []
        for k, alphabet, gens in corpus[:30]:
            path = tmp_path / f"p{k}.txt"
            path.write_text(f"alphabet: {' '.join(alphabet.names)}\n"
                            + "".join(f"{g}\n" for g in gens))
            built.clear()
            assert cli.main(["basis", str(path), "--max-tail-len", "6", *extra]) == 0
            assert built == ([8] if stability else [])

    @pytest.mark.parametrize("extra", [[], ["--check-stability"], ["--max-elements", "5000"],
                                       ["--check-stability", "--max-elements", "5000"]])
    def test_basis_command_folds_once(self, monkeypatch, tmp_path, capsys, extra):
        # the budget count, the basis, the L + 2 count and compute_S all
        # read one fold of the input generators (2 to 4 before)
        folds = []
        real = SubquandleGraph.__init__

        def counting(self, elements):
            folds.append(self)
            real(self, elements)

        monkeypatch.setattr(SubquandleGraph, "__init__", counting)
        path = tmp_path / "problem.txt"
        path.write_text("alphabet: x y\nx^(y)\ny\n")
        assert cli.main(["basis", str(path), "--max-tail-len", "4", *extra]) == 0
        assert "certified free basis" in capsys.readouterr().out
        assert len(folds) == 1

    @pytest.mark.parametrize("extra, outcome", [
        ([], (1, "error: x^(y y) not found in closure at bound 4\n")),
        (["--max-elements", "1000"], (1, "error: x^(y y) not found in closure at bound 4\n")),
        # the budget's errors come as before: here the generators' count
        (["--max-elements", "1"], (2, "error: closure at bound L = 4 reached 2 elements, "
                                      "over the element budget of 1\n")),
    ])
    def test_express_non_member_folds_once(self, monkeypatch, tmp_path, capsys, extra,
                                           outcome):
        # membership and the budget count read one fold (2 with a budget before)
        folds = []
        real = SubquandleGraph.__init__

        def counting(self, elements):
            folds.append(self)
            real(self, elements)

        monkeypatch.setattr(SubquandleGraph, "__init__", counting)
        path = tmp_path / "rigid.txt"
        path.write_text("alphabet: x y\nx^(y)\nx^(y^-1)\n")
        code = cli.main(["express", str(path), "x^(y y)", "--max-tail-len", "4", *extra])
        assert (code, capsys.readouterr().err) == outcome
        assert len(folds) == 1
