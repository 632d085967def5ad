import argparse
import contextlib
import gc
import hashlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from freequandle import basis as basis_mod
from freequandle import cli
from freequandle import conj_quandle as cq
from freequandle import free_group as fg
from freequandle import independence as ind
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
    def test_reduce(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "reduce", "--alphabet", "x y", "x x^-1 y")
        assert code == 0 and out.strip() == "y"
        # without argv, main reads the command line
        monkeypatch.setattr(sys, "argv", ["freequandle", "reduce", "--alphabet",
                                          "x y", "x x^-1 y"])
        assert cli.main() == 0 and capsys.readouterr().out.strip() == "y"

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

    def test_comment_marker_generator_is_input_error(self, capsys, tmp_path):
        # "#a^(b)" would be read as a comment, leaving the closure of b alone
        path = tmp_path / "hash.txt"
        path.write_text("alphabet: #a b\n#a^(b)\nb\n")
        code, out, err = run(capsys, "closure", str(path))
        assert (code, out) == (2, "")
        assert err == "error: reserved characters in generator name '#a'\n"

    def test_byte_order_mark(self, capsys, tmp_path, problem_file):
        # a file saved with a UTF-8 byte-order mark reads as one without
        path = tmp_path / "bom.txt"
        path.write_text("\ufeff" + PROBLEM, encoding="utf-8")
        plain = run(capsys, "closure", problem_file, "--max-tail-len", "2")
        assert plain[0] == 0
        assert run(capsys, "closure", str(path), "--max-tail-len", "2") == plain


class TestRawElements:
    """The closure keeps the kernel's raw elements: the CLI spells, indexes
    and expresses them without building an object per element."""

    @staticmethod
    def closure_lines(capsys, tmp_path, c):
        path = tmp_path / "p.txt"
        path.write_text(f"alphabet: {' '.join(c.alphabet.names)}\n"
                        + "".join(f"{g}\n" for g in c.generators))
        code, out, err = run(capsys, "closure", str(path), "--max-tail-len", str(c.bound))
        assert (code, err) == (0, "")
        return out.splitlines()[1:]

    def test_element_lines_spell_the_elements(self, capsys, tmp_path, corpus_closures,
                                              baseline_closures):
        spelled = []
        for c in [c for _, c in corpus_closures] + baseline_closures:
            lines = self.closure_lines(capsys, tmp_path, c)
            assert lines == [f"  {e}" for e in c.elements]
            spelled += lines
        # bare generators, and tails with inverse letters, are among them
        assert "  x" in spelled and "  y" in spelled
        assert any("^-1" in ln for ln in spelled)

    @pytest.mark.parametrize("argv, most", [
        # the two parsed generators only, where the closure has 1,458 elements
        (["closure"], 2),
        # and the basis's two loop elements, built once, and one replayed act
        (["basis"], 5),
        # and the L + 2 tail filter's two
        (["basis", "--check-stability"], 9),
        # and the parsed element, and the term's replayed acts
        (["express", "y^(x y)"], 4),
        (["express", "x^(y x^-1 y^-1 x y)"], 6),
    ])
    def test_no_object_per_element(self, capsys, monkeypatch, problem_file, argv, most):
        built = []
        real = cq.QuandleElement.__init__

        def counting(self, axis, tail):
            built.append(self)
            real(self, axis, tail)

        monkeypatch.setattr(cq.QuandleElement, "__init__", counting)
        command, *rest = argv
        assert run(capsys, command, problem_file, *rest, "--max-tail-len", "6")[0] == 0
        assert len(built) <= most


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestEmit:
    @pytest.mark.parametrize("fmt, lines", [("text", "  x\n  y\n"),
                                            ("machine", "kind=element\tvalue=x\n"
                                                        "kind=element\tvalue=y\n")])
    def test_records_before_an_error_are_printed(self, capsys, monkeypatch,
                                                 problem_file, fmt, lines):
        def failing(args):
            yield "element", {"value": "x"}, "  x"
            yield "element", {"value": "y"}, "  y"
            raise ValueError("no third record")

        monkeypatch.setattr(cli, "cmd_closure", failing)
        code, out, err = run(capsys, "closure", problem_file, "--format", fmt)
        assert (code, out, err) == (2, lines, "error: no third record\n")

    def test_one_write_per_command(self, monkeypatch, problem_file):
        stdout = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(["closure", problem_file, "--max-tail-len", "2"]) == 0
        assert stdout.writes == 1 and stdout.getvalue().count("\n") == 19

    def test_no_stdout_record_writes_nothing(self, capsys, monkeypatch, problem_file):
        stdout = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(["express", problem_file, "x^(y y y)", "--max-tail-len", "2"]) == 1
        assert stdout.writes == 0
        assert capsys.readouterr().err == "error: x^(y y y) not found in closure at bound 2\n"


class TestElementBudget:
    @pytest.mark.parametrize("argv, tripped_bound", [
        (["closure", "--max-tail-len", "4"], 4),
        # the L+2 closure is the largest, so it trips first
        (["basis", "--check-stability", "--max-tail-len", "4"], 6),
        (["basis", "--method", "greedy", "--max-tail-len", "4"], 4),
        (["express", "y^(x y x y)", "--max-tail-len", "4"], 4),
    ])
    def test_budget_edges(self, capsys, monkeypatch, problem_file, argv,
                          tripped_bound):
        sizes = []
        real = sq.closure

        def recording(*args, **kwargs):
            c = real(*args, **kwargs)
            sizes.append(len(c))
            return c

        with monkeypatch.context() as m:
            m.setattr(sq, "closure", recording)
            m.setattr(basis_mod, "closure", recording)
            unbudgeted = run(capsys, *argv[:1], problem_file, *argv[1:])
        full = max(sizes)  # the largest closure the command builds
        assert run(capsys, *argv[:1], problem_file, *argv[1:],
                   "--max-elements", str(full)) == unbudgeted
        code, out, err = run(capsys, *argv[:1], problem_file, *argv[1:],
                             "--max-elements", str(full - 1))
        assert (code, out) == (2, "")
        assert err == (f"error: closure at bound L = {tripped_bound} reached "
                       f"{full} elements, over the element budget of {full - 1}\n")

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_nonpositive_budget_is_input_error(self, capsys, problem_file, budget):
        code, out, err = run(capsys, "closure", problem_file, "--max-elements", budget)
        assert (code, out) == (2, "")
        assert err == (f"error: the element budget of {budget} holds no closure; "
                       "it must be at least 1\n")


class TestUpFrontBudget:
    """Budget errors of closures the command does not enumerate in full:
    the bytes that enumerating would have printed."""

    @pytest.mark.parametrize("method", ["paper", "greedy"])
    def test_plain_basis_edges(self, capsys, problem_file, method):
        _, gens = sq.parse_problem(PROBLEM)
        full = len(sq.closure(gens, 4))  # 162
        argv = ["basis", problem_file, "--method", method, "--max-tail-len", "4"]
        assert run(capsys, *argv, "--max-elements", str(full)) == run(capsys, *argv)
        assert run(capsys, *argv, "--max-elements", str(full - 1)) == (
            2, "", f"error: closure at bound L = 4 reached {full} elements, "
                   f"over the element budget of {full - 1}\n")

    @pytest.mark.parametrize("command", ["basis", "closure"])
    def test_generator_count_over_budget(self, capsys, tmp_path, command):
        path = tmp_path / "three.txt"
        path.write_text("alphabet: x y\nx^(y)\ny\nx^(y^-1)\n")
        assert run(capsys, command, str(path), "--max-elements", "1") == (
            2, "", "error: closure at bound L = 8 reached 3 elements, "
                   "over the element budget of 1\n")

    def test_closure_fails_without_enumerating(self, capsys, monkeypatch,
                                               problem_file):
        def enumerating(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(sq, "_new_elements", enumerating)
        assert run(capsys, "closure", problem_file, "--max-tail-len", "12",
                   "--max-elements", "20000") == (
            2, "", "error: closure at bound L = 12 reached 20001 elements, "
                   "over the element budget of 20000\n")

    def test_express_non_member_without_a_closure(self, capsys, monkeypatch,
                                                  tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("alphabet: x y z\nx^(y)\ny^(z x)\nz\n")
        built = []
        real = sq.closure

        def recording(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(sq, "closure", recording)
        argv = ["express", str(path), "y", "--max-tail-len", "12"]
        assert run(capsys, *argv) == (
            1, "", "error: y not found in closure at bound 12\n")
        assert built == []
        # 8,911 elements at L = 12: the budget error comes up front
        assert run(capsys, *argv, "--max-elements", "8911") == (
            1, "", "error: y not found in closure at bound 12\n")
        assert run(capsys, *argv, "--max-elements", "8910") == (
            2, "", "error: closure at bound L = 12 reached 8911 elements, "
                   "over the element budget of 8910\n")
        assert built == []

    def test_default_budget(self, capsys, monkeypatch, problem_file):
        # 9,565,938 elements at L = 14, about 14 GB: without --max-elements
        # the default budget fails up front, as that budget given explicitly
        def enumerating(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(sq, "_new_elements", enumerating)
        budget = cli.DEFAULT_MAX_ELEMENTS
        argv = ["closure", problem_file, "--max-tail-len", "14"]
        assert run(capsys, *argv) == run(capsys, *argv, "--max-elements", str(budget)) == (
            2, "", f"error: closure at bound L = 14 reached {budget + 1} elements, "
                   f"over the element budget of {budget}\n")

    def test_default_budget_spares_answers_without_a_closure(self, capsys, problem_file,
                                                            tmp_path):
        # the paper basis and a non-member's "not found" enumerate no whole
        # closure, so only an explicit budget binds the whole one: 9,565,938
        # elements at L = 14 for README's problem, 828,135 at L = 18 for this
        budget = str(cli.DEFAULT_MAX_ELEMENTS)
        argv = ["basis", problem_file, "--max-tail-len", "14"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert "candidate basis: x, y\n" in out
        assert run(capsys, *argv, "--max-elements", "9565938") == (code, out, err)
        assert run(capsys, *argv, "--max-elements", budget)[0] == 2
        path = tmp_path / "p.txt"
        path.write_text("alphabet: x y z\nx^(y)\ny^(z x)\nz\n")
        argv = ["express", str(path), "y", "--max-tail-len", "18"]
        assert run(capsys, *argv) == (1, "", "error: y not found in closure at bound 18\n")
        assert run(capsys, *argv, "--max-elements", budget)[0] == 2

    def test_default_budget_binds_what_basis_enumerates(self, capsys, monkeypatch,
                                                       problem_file):
        # the L + 2 closure of --check-stability is enumerated whole
        budget = cli.DEFAULT_MAX_ELEMENTS
        argv = ["basis", problem_file, "--max-tail-len", "12", "--check-stability"]
        assert run(capsys, *argv) == (
            2, "", f"error: closure at bound L = 14 reached {budget + 1} elements, "
                   f"over the element budget of {budget}\n")
        # the prefix that holds the basis has 4 elements at L = 4, the whole
        # closure 162: the default binds the prefix, as it grows
        argv = ["basis", problem_file, "--max-tail-len", "4"]
        monkeypatch.setattr(cli, "DEFAULT_MAX_ELEMENTS", 4)
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, *argv, "--max-elements", "4")[0] == 2
        monkeypatch.setattr(cli, "DEFAULT_MAX_ELEMENTS", 3)
        assert run(capsys, *argv) == (
            2, "", "error: closure at bound L = 4 reached 4 elements, "
                   "over the element budget of 3\n")


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

    @pytest.mark.parametrize("bound", ["3", "7"])
    def test_greedy_missing_witness(self, capsys, tmp_path, bound):
        # y, the first shrinker of x^(y^-1 y^-1), is derived only through
        # that generator, so greedy may not move it by y first (it used to,
        # and printed a MISSING witness at every L).  It shortens the other
        # generator to y first, and then certifies {x, y}, as the paper
        # method does at L = 3
        path = tmp_path / "scrambled.txt"
        path.write_text("alphabet: x y\nx^(y^-1 y^-1)\ny^(x y^-1 y^-1)\n")
        argv = ["basis", str(path), "--method", "greedy", "--max-tail-len", bound]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert ("candidate basis: x, y\n"
                "moves:\n"
                "  y^(x y^-1 y^-1) < x^(y^-1 y^-1)  ->  y\n"
                "  x^(y^-1 y^-1) > y  ->  x^(y^-1)\n"
                "  x^(y^-1) > y  ->  x\n"
                "witnesses:\n"
                "  x^(y^-1 y^-1) = ((g0 < g1) < g1)\n"
                "  y^(x y^-1 y^-1) = (g1 > ((g0 < g1) < g1))\n") in out
        assert out.endswith("certified free basis\n")
        code, out, _ = run(capsys, *argv, "--format", "machine")
        assert code == 0
        assert "term=MISSING" not in out
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

    def test_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "elems.txt"
        path.write_text("\ufeffalphabet: x y\nx^(y)\nx y\n", encoding="utf-8")
        code, out, _ = run(capsys, "check-independence", str(path),
                           "--method", "nielsen")
        assert code == 0 and "PASS" in out

    @pytest.mark.parametrize("method", ["both", "nielsen"])
    @pytest.mark.parametrize("line", ["1", "x x^-1"])
    def test_identity_line_rejected(self, capsys, tmp_path, method, line):
        # rejected while reading, before any note on raw words
        path = tmp_path / "words.txt"
        path.write_text(f"alphabet: x y\nx\n{line}\n")
        code, out, err = run(capsys, "check-independence", str(path),
                             "--method", method)
        assert code == 2 and out == ""
        assert err == "error: the identity word is not allowed as input\n"

    @pytest.mark.parametrize("command", ["check-independence", "basis"])
    def test_malformed_element_line(self, capsys, tmp_path, command):
        # a line with "^(" is in the element grammar, not a raw word
        path = tmp_path / "elems.txt"
        for line in ("x^(y", "x^(y)^(y)"):
            path.write_text(f"alphabet: x y\ny\n{line}\n")
            code, out, err = run(capsys, command, str(path))
            assert code == 2 and out == ""
            assert err == f"error: malformed element {line!r}\n"


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

    @pytest.mark.parametrize("alphabet", ["x", "x y"])
    def test_negative_tail_length_is_input_error(self, capsys, alphabet):
        code, out, err = run(capsys, "verify-axioms", "--alphabet", alphabet,
                             "--max-tail-len", "-2")
        assert (code, out, err) == (2, "", "error: max_tail_len must be >= 0\n")

    def test_tail_length_above_the_bound_is_input_error(self):
        # under a 600 MB address-space cap, so that a tail that is not
        # bounded fails with MemoryError (exit 1) instead of taking the
        # machine's memory
        code = ("import resource, sys; sys.path.insert(0, sys.argv[1]); "
                "resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20)); "
                "from freequandle.cli import main; sys.exit(main(sys.argv[2:]))")
        src = str(Path(cli.__file__).resolve().parent.parent)

        def verify(tail_len):
            return subprocess.run(
                [sys.executable, "-S", "-c", code, src, "verify-axioms", "--alphabet", "x y",
                 "--samples", "1", "--max-tail-len", str(tail_len)],
                capture_output=True, text=True, timeout=60)

        proc = verify(200_000_000)
        bound = cq.MAX_SAMPLE_TAIL_LEN
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", f"error: max_tail_len must be <= {bound}\n")
        proc = verify(bound)
        assert proc.returncode == 0 and proc.stdout.startswith("axiom suite: PASS")


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

    def test_output_independent_of_hash_seed(self, problem_file):
        # an element's hash includes its alphabet's, which Python randomizes
        # per process through the generator names
        src = str(Path(cli.__file__).resolve().parent.parent)
        commands = [["basis", problem_file, "--method", "paper", "--check-stability"],
                    ["basis", problem_file, "--method", "greedy"],
                    ["closure", problem_file]]

        def outputs(seed):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            return [subprocess.run([sys.executable, "-m", "freequandle.cli", *argv,
                                    "--max-tail-len", "6"], env=env, capture_output=True,
                                   timeout=120, check=True).stdout
                    for argv in commands]

        first = outputs("1")
        assert all(first) and outputs("2") == first

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
        for text, command, message in (
                ("no header\n", "basis", "must start with 'alphabet:"),
                ("no header\n", "check-independence", "must start with 'alphabet:"),
                ("alphabet: x y\n", "check-independence",
                 "input file lists no elements or words")):
            path.write_text(text)
            code, out, err = run(capsys, command, str(path))
            assert code == 2 and not out and message in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "basis", "/nonexistent/problem.txt")
        assert code == 2 and err


# argv that each subcommand parses without error
VALID = {
    "reduce": ["--alphabet", "x y", "x"],
    "qop": ["--alphabet", "x y", "x", "y"],
    "closure": ["problem.txt"],
    "basis": ["problem.txt"],
    "check-independence": ["elems.txt"],
    "verify-axioms": ["--alphabet", "x y"],
    "express": ["problem.txt", "x"],
}
ROOT_ARGVS = [["-h"], [], ["frobnicate"], ["--format", "machine", "closure"]]
SUBCOMMAND_ARGVS = [
    argv
    for name, valid in VALID.items()
    for argv in ([name, "-h"], [name], [name, *valid],
                 [name, *valid, "--bogus"], [name, *valid, "extra", "more"],
                 [name, *valid, "--format", "xml"],
                 [name, *valid, "--max-tail-len", "two"])
]
# argv that argparse reads in more than one way: abbreviated options, an
# ambiguous one, --opt=value, "--" before a positional, an option before
# the positional, -h after other arguments, and a repeated option
SHAPE_ARGVS = [
    ["basis", "problem.txt", "--max-t", "4"],
    ["basis", "problem.txt", "--meth", "greedy"],
    ["basis", "problem.txt", "--check-stab"],
    ["basis", "problem.txt", "--max", "4"],
    ["closure", "problem.txt", "--max-tail-len=4", "--format=machine"],
    ["closure", "--", "problem.txt"],
    ["qop", "--alphabet", "x y", "--", "x", "y"],
    ["closure", "--max-elements", "9", "problem.txt"],
    ["basis", "problem.txt", "--method", "greedy", "-h"],
    ["closure", "problem.txt", "--bogus", "-h"],
    ["closure", "problem.txt", "--max-tail-len", "2", "--max-tail-len", "4"],
    ["verify-axioms", "--alphabet=x y", "--seed", "-1", "--he"],
    # and edge tokens: empty, a leading space, what int() reads beyond
    # ASCII digits, an option value that starts with "-" or is an option,
    # and a repeated flag
    ["reduce", "--alphabet", "x y", ""],
    ["closure", " -x", "--max-tail-len", "1_0"],
    ["closure", "problem.txt", "--max-elements", "08"],
    ["verify-axioms", "--alphabet", "", "--samples", "٣", "--seed", "08"],
    ["verify-axioms", "--alphabet", "x y", "--seed", "-1"],
    ["basis", "problem.txt", "--method", "--format"],
    ["basis", "problem.txt", "--check-stability", "--check-stability"],
]


USAGE_ARGVS = ROOT_ARGVS + [
    argv
    for name in VALID
    for argv in ([name, "-h"], [name], [name, "--bogus"],
                 [name, "--format", "xml"])
]
# exit code, stdout and stderr of main on USAGE_ARGVS at COLUMNS=80, as
# Python 3.11's argparse lays them out
USAGE_DIGEST = "8f5cbf3e94cd885ae608157d8e0dd4eee6398753505a65f7b052f6271d4b4a0f"


def test_usage_digest(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in USAGE_ARGVS:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        digest.update(f"{code}\n{captured.out}\0{captured.err}\0".encode())
    assert digest.hexdigest() == USAGE_DIGEST


class _Parsed(Exception):
    pass


def _outcome(call):
    """What ``call`` parses, or its exit code, with what it prints."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = ("parsed", vars(call()))
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _main_parse(argv):
    """The namespace ``main`` parses from ``argv``, taken before it runs
    the command."""
    real = cli.parse_argv

    def parse(argv):
        raise _Parsed(real(argv))

    cli.parse_argv = parse
    try:
        cli.main(argv)
    except _Parsed as parsed:
        return parsed.args[0]
    finally:
        cli.parse_argv = real
    raise AssertionError(f"main ran {argv} without parse_argv")


# every subcommand's option strings, with values and abbreviations, and
# stray tokens, from which the property draws argv
_OPTION_TOKENS = {
    name: sorted({t for option in cli._add_options(argparse.ArgumentParser(), name)
                  ._option_string_actions for t in (option, option[:5], option + "=2")})
    for name in cli._COMMANDS
}
_STRAY_TOKENS = ["problem.txt", "x", "x y", "2", "-1", "two", "machine", "greedy",
                 "both", "left", "--", "-", "--bogus", "-z", "--format=xml",
                 "", " -x", "1_0", "08", "٣"]

_VALUES = ["problem.txt", "x y", "", " -x", "08"]
_INTS = ["2", "08", "1_0", "٣", " 3 "]


@st.composite
def _table_argv(draw):
    """An argv laid out as the option table reads one: a subcommand, its
    positionals in order, and each option up to twice (a required one at
    least once), in any order, with a value that its type or choices
    mostly accept."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    positionals, options = [], []
    for flag, keywords in cli._COMMANDS[name][1]:
        if flag[0] != "-":
            positionals.append(draw(st.sampled_from(_VALUES)))
            continue
        good = keywords.get("choices") or (_INTS if "type" in keywords else _VALUES)
        values = st.sampled_from([*good, *good, "two", "xml"])
        for _ in range(draw(st.integers(1 if keywords.get("required") else 0, 2))):
            options.append([flag] if "action" in keywords else [flag, draw(values)])
    options = draw(st.permutations(options))
    at = sorted(draw(st.lists(st.integers(0, len(options)), min_size=len(positionals),
                              max_size=len(positionals))))
    argv = [name]
    for i, group in enumerate([*options, []]):
        argv += [positionals.pop(0) for _ in range(at.count(i))] + group
    return argv


class TestParserSelection:
    """``main`` reads a well-formed argv off the option table, builds the
    full parser for any other, and parses as the full parser does."""

    @pytest.mark.parametrize("argv", ROOT_ARGVS + SUBCOMMAND_ARGVS + SHAPE_ARGVS, ids=str)
    def test_same_as_full_parser(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        full = _outcome(lambda: cli.build_parser().parse_args(argv))
        assert _outcome(lambda: _main_parse(argv)) == full

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(_OPTION_TOKENS)).flatmap(
        lambda name: st.lists(st.sampled_from(_OPTION_TOKENS[name] + _STRAY_TOKENS),
                              max_size=6).map(lambda rest: [name, *rest])))
    def test_same_as_full_parser_on_drawn_argv(self, argv):
        full = _outcome(lambda: cli.build_parser().parse_args(argv))
        assert _outcome(lambda: _main_parse(argv)) == full

    @settings(max_examples=300, deadline=None)
    @given(_table_argv())
    def test_same_as_full_parser_on_table_argv(self, argv):
        full = _outcome(lambda: cli.build_parser().parse_args(argv))
        assert _outcome(lambda: _main_parse(argv)) == full

    @pytest.mark.parametrize("argv, message", [
        ([], "required: command"),
        (["frobnicate"], "argument command: invalid choice"),
    ])
    def test_root_errors_name_the_command(self, argv, message):
        result, _, err = _outcome(lambda: _main_parse(argv))
        assert result == ("exit", 2) and message in err

    @pytest.mark.parametrize("argv, parsers", [
        (["check-independence"], 0),  # read off the table
        (["basis", "--max-tail-len", "2"], 0),
        # an abbreviation: the full parser, the root and its 7 subcommands
        (["basis", "--max-t", "2"], 8),
    ], ids=["check-independence", "basis", "basis-abbreviated"])
    def test_parsers_built_per_call(self, capsys, monkeypatch, problem_file,
                                    argv, parsers):
        built = []
        real = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        code, out, _ = run(capsys, argv[0], problem_file, *argv[1:])
        assert code in (0, 1) and out
        assert len(built) == parsers


def test_well_formed_commands_import_no_argparse(tmp_path):
    # -S keeps site's own imports out, so only the package's are seen
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from freequandle.cli import main; "
            "code = main(sys.argv[2:]); "
            "print(sorted({'argparse', 'gettext'} & sys.modules.keys())); sys.exit(code)")
    src = str(Path(cli.__file__).resolve().parent.parent)
    elems = tmp_path / "elems.txt"
    elems.write_text("alphabet: x y\nx^(y)\ny\n")

    def run_s(*argv):
        return subprocess.run([sys.executable, "-S", "-c", code, src, *argv],
                              capture_output=True, text=True, timeout=60)

    proc = run_s("reduce", "--alphabet", "x y", "x x^-1 y")
    assert (proc.returncode, proc.stdout) == (0, "y\n[]\n")
    proc = run_s("check-independence", str(elems), "--method", "nielsen")
    assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, "[]")
    # help still comes from argparse
    proc = run_s("basis", "-h")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: freequandle basis")


@pytest.fixture
def collector():
    """Restores the cyclic collector's state after the test."""
    collecting = gc.isenabled()
    yield
    (gc.enable if collecting else gc.disable)()


class TestCollectorPause:
    """``main`` pauses the cyclic collector and hands it back as it found
    it; the pause is sound because the package makes no reference cycles."""

    @pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("argv, code", [
        (["reduce", "--alphabet", "x y", "x x^-1 y"], 0),
        (["check-independence", "{elems}", "--method", "hall"], 1),
        (["reduce", "--alphabet", "x y", "z"], 2),
        (["-h"], "exit 0"),
        (["basis", "-h"], "exit 0"),
        (["reduce", "--bogus"], "exit 2"),
    ], ids=["exit-0", "fail-1", "input-error-2", "root-help", "help", "unknown-option"])
    def test_collector_handed_back(self, capsys, tmp_path, collector,
                                   collecting, argv, code):
        elems = tmp_path / "elems.txt"
        elems.write_text("alphabet: x y\nx^(y)\ny\n")
        (gc.enable if collecting else gc.disable)()
        try:
            result = cli.main([a.format(elems=elems) for a in argv])
        except SystemExit as exc:
            result = f"exit {exc.code}"
        capsys.readouterr()
        assert result == code
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize("argv", [
        ["reduce", "--alphabet", "x y", "x x^-1 y"],
        ["check-independence", "{problem}", "--method", "nielsen"],
        ["basis", "{problem}", "--max-tail-len", "4", "--format", "machine"],
    ], ids=["reduce", "check-independence", "basis"])
    def test_well_formed_command_leaves_no_garbage(self, capsys, collector,
                                                   problem_file, argv):
        gc.disable()
        gc.collect()
        assert cli.main([a.format(problem=problem_file) for a in argv]) == 0
        capsys.readouterr()
        assert gc.collect() == 0

    @pytest.mark.parametrize("gens, bound", [
        (("x^(y)", "y"), 6),
        (("x^(y z)", "y^(z)", "z^(x)"), 6),
    ], ids=["readme", "three-axes"])
    def test_package_makes_no_reference_cycles(self, collector, xyz, gens, bound):
        gens = [cq.parse_element(xyz, g) for g in gens]
        c = sq.closure(gens, bound)
        words = [cq.to_group_word(g) for g in gens]
        calls = {
            "closure": lambda: sq.closure(gens, bound),
            "paper": lambda: basis_mod.compute_S(
                sq.closure(graph := sq.check_size(gens, bound), bound,
                           stop_when_contains=graph.basis()),
                check_stability=True),
            "greedy": lambda: basis_mod.greedy_shrink(sq.closure(gens, bound)),
            "express": lambda: [sq.express(c, e) for e in c.elements[-5:]],
            "hall": lambda: ind.check_significant_factors(gens),
            "nielsen": lambda: ind.nielsen_independent(words),
        }
        gc.disable()
        for name, call in calls.items():
            gc.collect()
            call()
            assert (name, gc.collect()) == (name, 0)
