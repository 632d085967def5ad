"""Acceptance suite: one test per criterion, one printed verdict line each.

All checks are exact (structural equality of canonical forms); there are
no numeric tolerances anywhere.  The random corpus is seeded and screened
to desk scale in conftest.make_corpus, so repeated runs are identical.
"""

import random

from freequandle import basis as bs
from freequandle import cli
from freequandle import conj_quandle as cq
from freequandle import free_group as fg
from freequandle import independence as ind
from freequandle import subquandle as sq
from freequandle.free_group import Alphabet

XY = Alphabet(("x", "y"))


def el(text):
    return cq.parse_element(XY, text)


def els(*texts):
    return [el(t) for t in texts]


def verdict(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_axiom_suite():
    failures = 0
    for names, samples, seed in ((("x",), 200, 101),
                                 (("x", "y"), 400, 102),
                                 (("x", "y", "z"), 400, 103)):
        report = cq.verify_axioms(Alphabet(names), samples,
                                  max_tail_len=4, seed=seed)
        failures += len(report.failures)
    verdict(1, "quandle axioms hold on 1000 seeded random triples",
            failures == 0)


def test_criterion_2_odd_lengths(corpus_closures):
    ok = all(
        len(cq.to_group_word(e)) % 2 == 1
        for _, c in corpus_closures for e in c.elements
    )
    verdict(2, "every closure element has odd group-word length "
               f"({len(corpus_closures)} generating sets)", ok)


def test_criterion_3_parity(corpus_closures):
    checked = 0
    ok = True
    for _, c in corpus_closures:
        if len(c) > 200:
            continue
        checked += 1
        for e in c.elements:
            for q in c.elements:
                gw = cq.to_group_word(q)
                for g in (gw, fg.invert(gw)):
                    if len(fg.multiply(e.tail, g)) == len(e.tail):
                        ok = False
    verdict(3, f"tail length always changes under the action "
               f"(exhaustive over {checked} closures <= 200 elements)", ok)


def test_criterion_4_main_theorem_instantiation(corpus_closures):
    hard_fails = []
    bound_fails = []
    for gens, c in corpus_closures:
        report = bs.compute_S(c)
        if report.certified:
            continue
        if report.hall_verdict.passed and report.nielsen_verdict.passed:
            retry = bs.compute_S(sq.closure(gens, 10))
            if not retry.certified:
                bound_fails.append(gens)
        else:
            hard_fails.append(gens)
    verdict(4, f"tail-filter basis certified on all {len(corpus_closures)} "
               f"instances at L=8 (bound retries needed: 0 allowed, "
               f"got {len(bound_fails)})",
            not hard_fails and not bound_fails)


def test_criterion_5_fixed_worked_examples():
    c1 = sq.closure(els("x^(y)", "y"), 2)
    basis1_paper = set(bs.compute_S(c1).candidate)
    basis1_greedy = set(bs.greedy_shrink(c1).candidate)

    c2 = sq.closure(els("x^(y)", "x^(y^-1)"), 4)
    basis2 = set(bs.compute_S(c2).candidate)

    hall = ind.check_significant_factors(els("x^(y)", "y"))
    nielsen = ind.nielsen_independent(map(cq.to_group_word, els("x^(y)", "y")))

    ok = (basis1_paper == set(els("x", "y"))
          and basis1_greedy == set(els("x", "y"))
          and basis2 == set(els("x^(y)", "x^(y^-1)"))
          and not hall.passed
          and hall.failing_pair == ("y", "x^(y)")
          and nielsen.passed)
    verdict(5, "worked examples: basis of <x^(y), y> is {x, y}; "
               "<x^(y), x^(y^-1)> is its own basis; {x^(y), y} fails the "
               "significant-factor check on (y, x^(y)) but passes Nielsen", ok)


def test_criterion_6_descent_and_replay(corpus_closures):
    ok = True
    for gens, c in corpus_closures:
        report = bs.greedy_shrink(c)
        for mv in report.moves:
            if len(mv.result.tail) >= len(mv.target.tail):
                ok = False
            if cq.act(mv.target, mv.by, mv.eps) != mv.result:
                ok = False
    verdict(6, "greedy moves strictly shrink tails and replay under the "
               f"action ({len(corpus_closures)} instances)", ok)


def test_criterion_7_cross_method_agreement(corpus_closures):
    ok = True
    for gens, c in corpus_closures:
        paper = bs.compute_S(c).candidate
        greedy = bs.greedy_shrink(c).candidate
        fwd = sq.closure(list(paper), c.bound, stop_when_contains=greedy)
        back = sq.closure(list(greedy), c.bound, stop_when_contains=paper)
        for e in greedy:
            if e not in fwd or sq.express(fwd, e).evaluate(fwd.generators) != e:
                ok = False
        for e in paper:
            if e not in back or sq.express(back, e).evaluate(back.generators) != e:
                ok = False
    verdict(7, "paper-method and greedy-method candidates mutually generate "
               f"each other within the bound ({len(corpus_closures)} instances)",
            ok)


def test_criterion_8_cli_determinism(tmp_path, capsys):
    problem = tmp_path / "problem.txt"
    problem.write_text("alphabet: x y\nx^(y)\ny\n")

    def run(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    ok = True
    for argv in (
        ["basis", str(problem), "--method", "paper", "--max-tail-len", "2",
         "--format", "machine"],
        ["basis", str(problem), "--method", "greedy", "--max-tail-len", "2",
         "--format", "machine"],
        ["verify-axioms", "--alphabet", "x y", "--samples", "100",
         "--seed", "5", "--format", "machine"],
    ):
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        if code1 != code2 or out1 != out2:
            ok = False

    rng = random.Random(88)
    for _ in range(1000):
        raw = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 8))]
        word = fg.reduce(XY, raw)
        if fg.parse_word(XY, fg.format_word(word)) != word:
            ok = False
        e = cq.random_element(XY, 4, rng)
        if cq.parse_element(XY, cq.format_element(e)) != e:
            ok = False

    verdict(8, "machine reports are byte-identical across reruns; 1000 "
               "parse/print round trips are exact", ok)
