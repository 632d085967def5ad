import random

import pytest

from freequandle import cli
from freequandle import conj_quandle as cq
from freequandle import free_group as fg
from freequandle import subquandle as sq
from freequandle.free_group import Alphabet

XY = Alphabet(("x", "y"))

PROBLEM = "alphabet: x y\nx^(y)\ny\n"
RIGID = "alphabet: x y\nx^(y)\nx^(y^-1)\n"


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.txt"
    path.write_text(PROBLEM)
    return str(path)


@pytest.fixture
def rigid_file(tmp_path):
    path = tmp_path / "rigid.txt"
    path.write_text(RIGID)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReduce:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "reduce", "--alphabet", "x y", "x x^-1 y")
        assert code == 0 and out.strip() == "y"

    def test_empty_prints_one(self, capsys):
        code, out, _ = run(capsys, "reduce", "--alphabet", "x y", "x x^-1")
        assert code == 0 and out.strip() == "1"

    def test_unknown_generator(self, capsys):
        code, _, err = run(capsys, "reduce", "--alphabet", "x y", "z")
        assert code == 2 and "z" in err


class TestQop:
    def test_right(self, capsys):
        code, out, _ = run(capsys, "qop", "--alphabet", "x y", "x", "y")
        assert code == 0 and out.strip() == "x^(y)"

    def test_left(self, capsys):
        code, out, _ = run(capsys, "qop", "--alphabet", "x y",
                           "--op", "left", "x^(y)", "y")
        assert code == 0 and out.strip() == "x"


class TestClosure:
    def test_text(self, capsys, problem_file):
        code, out, _ = run(capsys, "closure", problem_file,
                           "--max-tail-len", "2")
        assert code == 0
        assert "closure size 18" in out

    def test_machine(self, capsys, problem_file):
        code, out, _ = run(capsys, "closure", problem_file,
                           "--max-tail-len", "2", "--format", "machine")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "kind=closure\tbound=2\tsize=18"
        assert "kind=element\tvalue=x^(y)" in lines


class TestBasis:
    def test_paper_method(self, capsys, problem_file):
        code, out, _ = run(capsys, "basis", problem_file, "--method", "paper",
                           "--max-tail-len", "2")
        assert code == 0
        assert "candidate basis: x, y" in out
        assert "certified free basis" in out

    def test_greedy_method_logs_moves(self, capsys, problem_file):
        code, out, _ = run(capsys, "basis", problem_file, "--method", "greedy",
                           "--max-tail-len", "2")
        assert code == 0
        assert "x^(y) < y  ->  x" in out

    def test_greedy_rejects_check_stability(self, capsys, problem_file):
        code, out, err = run(capsys, "basis", problem_file, "--method", "greedy",
                             "--max-tail-len", "2", "--check-stability")
        assert code == 2 and not out and "--check-stability" in err

    def test_machine_format(self, capsys, rigid_file):
        code, out, _ = run(capsys, "basis", rigid_file, "--method", "paper",
                           "--max-tail-len", "4", "--format", "machine")
        assert code == 0
        assert "kind=candidate\telement=x^(y)" in out
        assert "kind=certified\tvalue=yes" in out


class TestCheckIndependence:
    def test_hall_failure_names_pair(self, capsys, tmp_path):
        path = tmp_path / "elems.txt"
        path.write_text("alphabet: x y\nx^(y)\ny\n")
        code, out, _ = run(capsys, "check-independence", str(path),
                           "--method", "hall")
        assert code == 1
        assert "y" in out and "x^(y)" in out and "FAIL" in out

    def test_nielsen_passes_same_set(self, capsys, tmp_path):
        path = tmp_path / "elems.txt"
        path.write_text("alphabet: x y\nx^(y)\ny\n")
        code, out, _ = run(capsys, "check-independence", str(path),
                           "--method", "nielsen")
        assert code == 0 and "PASS" in out

    def test_raw_words_nielsen(self, capsys, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("alphabet: x y\nx y\ny\n")
        code, out, _ = run(capsys, "check-independence", str(path),
                           "--method", "nielsen")
        assert code == 0 and "PASS" in out

    def test_raw_words_dependent_nielsen_fails(self, capsys, tmp_path):
        # {w1..w4} satisfy w1 w4 w2 w3 w2^-1 = w3^-1 w3^-1 w2^-1 w4^-1
        path = tmp_path / "words.txt"
        path.write_text("alphabet: a b c\na^-1 c\nc b^-1\nb a\nb^-1 a^-1 c^-1\n")
        code, out, _ = run(capsys, "check-independence", str(path),
                           "--method", "nielsen", "--format", "machine")
        assert code == 1
        assert out == "kind=verdict\tmethod=nielsen\tverdict=FAIL\n"

    def test_raw_words_both_runs_nielsen_only(self, capsys, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("alphabet: a b\na b\nb a^-1\n")
        code, out, err = run(capsys, "check-independence", str(path),
                             "--format", "machine")
        assert code == 0
        assert out == "kind=verdict\tmethod=nielsen\tverdict=PASS\n"
        assert "'a b'" in err and "hall skipped" in err

    @pytest.mark.parametrize("words", [
        "a^-1 c\nc b^-1\nb a\nb^-1 a^-1 c^-1",
        "c c\nb^-1\nc a b^-1 c^-1\na b^-1 c",
    ], ids=["first", "second"])
    def test_raw_words_dependent_both_fails(self, capsys, tmp_path, words):
        # the two dependent sets a length-reducing Nielsen loop passed
        path = tmp_path / "words.txt"
        path.write_text(f"alphabet: a b c\n{words}\n")
        code, out, _ = run(capsys, "check-independence", str(path),
                           "--method", "both", "--format", "machine")
        assert code == 1
        assert out == "kind=verdict\tmethod=nielsen\tverdict=FAIL\n"

    def test_raw_words_rejected_for_hall(self, capsys, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("alphabet: x y\nx y\n")
        code, _, err = run(capsys, "check-independence", str(path),
                           "--method", "hall")
        assert code == 2 and "element" in err


class TestVerifyAxioms:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify-axioms", "--alphabet", "x y",
                           "--samples", "50", "--seed", "1")
        assert code == 0 and "PASS" in out

    def test_machine_deterministic(self, capsys):
        argv = ["verify-axioms", "--alphabet", "x y", "--samples", "50",
                "--seed", "7", "--format", "machine"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_counterexample_lines(self, capsys, monkeypatch):
        a, b = cq.parse_element(XY, "x^(y)"), cq.parse_element(XY, "y")
        law = "self_distributivity_right"
        report = cq.AxiomReport(XY, 3, 5, {"idempotence_right": 3, law: 3},
                                (cq.AxiomFailure(law, (a, b)),))
        monkeypatch.setattr(cq, "verify_axioms", lambda *args: report)
        argv = ["verify-axioms", "--alphabet", "x y"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and not err
        assert out == ("axiom suite: FAIL (3 samples, seed 5)\n"
                       "  idempotence_right: 3 checks\n"
                       f"  {law}: 3 checks\n"
                       f"  counterexample for {law}: x^(y), y\n")
        code, out, err = run(capsys, *argv, "--format", "machine")
        assert code == 1 and not err
        assert out == ("kind=axioms\tfailures=1\tsamples=3\tseed=5\tverdict=FAIL\n"
                       f"kind=counterexample\telements=x^(y) , y\tlaw={law}\n")


class TestExpress:
    def test_expressible(self, capsys, problem_file):
        code, out, _ = run(capsys, "express", problem_file, "x",
                           "--max-tail-len", "2")
        assert code == 0
        assert "x = (g0 < g1)" in out

    def test_not_in_closure(self, capsys, problem_file):
        code, _, err = run(capsys, "express", problem_file, "x^(y y y)",
                           "--max-tail-len", "2")
        assert code == 1 and "not found" in err

    def test_tail_longer_than_bound_fails_at_once(self, capsys, monkeypatch,
                                                   problem_file):
        sizes = []

        def recording_closure(*args, **kwargs):
            c = closure(*args, **kwargs)
            sizes.append(len(c))
            return c

        closure = sq.closure
        monkeypatch.setattr(sq, "closure", recording_closure)
        code, out, err = run(capsys, "express", problem_file,
                             "x^(y y y y y y y y)", "--max-tail-len", "6")
        assert code == 1 and not out
        assert err == "error: x^(y y y y y y y y) not found in closure at bound 6\n"
        assert sizes == [2]  # the generators only, no enumeration

    def test_tail_longer_than_bound_still_checks_generators(self, capsys,
                                                            tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("alphabet: x y\nx^(y y y)\n")
        code, out, err = run(capsys, "express", str(path), "x^(y y y y y)",
                             "--max-tail-len", "2")
        assert code == 2 and not out and "bound 2" in err

    def test_term_matches_full_closure(self, capsys, problem_file):
        _, gens = sq.parse_problem(PROBLEM)
        full = sq.closure(gens, 4)
        for e in full.elements:
            code, out, _ = run(capsys, "express", problem_file, str(e),
                               "--max-tail-len", "4", "--format", "machine")
            assert code == 0
            assert out == f"kind=expression\telement={e}\tterm={sq.express(full, e)}\n"


class TestDeterminismAndRoundTrip:
    def test_basis_machine_byte_identical(self, capsys, problem_file):
        argv = ["basis", problem_file, "--method", "greedy",
                "--max-tail-len", "2", "--format", "machine"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_word_round_trip(self):
        rng = random.Random(11)
        for _ in range(200):
            raw = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 8))]
            word = fg.reduce(XY, raw)
            assert fg.parse_word(XY, fg.format_word(word)) == word

    def test_element_round_trip(self):
        rng = random.Random(12)
        for _ in range(200):
            e = cq.random_element(XY, 4, rng)
            assert cq.parse_element(XY, cq.format_element(e)) == e

    def test_bad_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("no header\n")
        for command in ("basis", "check-independence"):
            code, out, err = run(capsys, command, str(path))
            assert code == 2 and not out and "must start with 'alphabet:" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "basis", "/nonexistent/problem.txt")
        assert code == 2 and err
