"""Batch command-line interface.

Exit codes: 0 computed and certified/PASS, 1 computed but a verification
FAILed, 2 bad input.  ``--format machine`` emits one tab-separated record
per line, ``kind=...`` first and the remaining keys sorted, so identical
inputs (and seeds) give byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

from . import basis as basis_mod
from . import conj_quandle as cq
from . import free_group as fg
from . import independence as ind
from . import subquandle as sq
from .errors import FreeQuandleError, NotInFreeQuandle
from .free_group import Alphabet
from .subquandle import DEFAULT_BOUND


def _machine_record(kind: str, **fields) -> str:
    parts = [f"kind={kind}"]
    parts += [f"{k}={fields[k]}" for k in sorted(fields)]
    return "\t".join(parts)


def _read_problem(path: str):
    with open(path, encoding="utf-8") as fh:
        return sq.parse_problem(fh.read())


def _emit_verdict(out, verdict: ind.IndependenceReport, machine: bool) -> None:
    if machine:
        rec = {"method": verdict.method,
               "verdict": "PASS" if verdict.passed else "FAIL"}
        if verdict.failing_pair:
            rec["pair"] = " , ".join(verdict.failing_pair)
        if verdict.cancellation_depth is not None:
            rec["depth"] = verdict.cancellation_depth
        out.append(_machine_record("verdict", **rec))
    else:
        status = "PASS" if verdict.passed else "FAIL"
        out.append(f"{verdict.method}: {status} ({verdict.detail})")


def _emit_basis_report(report: basis_mod.BasisReport, machine: bool) -> list[str]:
    out: list[str] = []
    if machine:
        out.append(_machine_record(
            "basis", bound=report.bound, method=report.method,
            size=len(report.candidate)))
        for e in report.candidate:
            out.append(_machine_record("candidate", element=e))
        for mv in report.moves:
            out.append(_machine_record(
                "move", by=mv.by, eps=mv.eps, result=mv.result, target=mv.target))
        for g, term in report.witnesses.items():
            out.append(_machine_record(
                "witness", generator=g, term="MISSING" if term is None else term))
        _emit_verdict(out, report.hall_verdict, True)
        _emit_verdict(out, report.nielsen_verdict, True)
        if report.stable is not None:
            out.append(_machine_record("stability", stable=report.stable))
        out.append(_machine_record(
            "certified", value="yes" if report.certified else "no"))
    else:
        out.append(f"method: {report.method}   bound L = {report.bound}")
        out.append("candidate basis: " + ", ".join(str(e) for e in report.candidate))
        if report.moves:
            out.append("moves:")
            for mv in report.moves:
                op = ">" if mv.eps == 1 else "<"
                out.append(f"  {mv.target} {op} {mv.by}  ->  {mv.result}")
        out.append("witnesses:")
        for g, term in report.witnesses.items():
            out.append(f"  {g} = {'MISSING (bound too small?)' if term is None else term}")
        _emit_verdict(out, report.hall_verdict, False)
        _emit_verdict(out, report.nielsen_verdict, False)
        if report.stable is not None:
            out.append(f"stable at L+2: {'yes' if report.stable else 'NO'}")
        out.append("certified free basis" if report.certified
                   else "NOT certified")
    return out


def cmd_reduce(args) -> int:
    alphabet = Alphabet.parse(args.alphabet)
    word = fg.parse_word(alphabet, args.word)
    print(_machine_record("word", value=word) if args.format == "machine"
          else str(word))
    return 0


def cmd_qop(args) -> int:
    alphabet = Alphabet.parse(args.alphabet)
    a = cq.parse_element(alphabet, args.element)
    q = cq.parse_element(alphabet, args.by)
    eps = 1 if args.op == "right" else -1
    result = cq.act(a, q, eps)
    print(_machine_record("element", value=result) if args.format == "machine"
          else str(result))
    return 0


def cmd_closure(args) -> int:
    _, gens = _read_problem(args.file)
    c = sq.closure(gens, args.max_tail_len)
    if args.format == "machine":
        print(_machine_record("closure", bound=c.bound, size=len(c)))
        for e in c.elements:
            print(_machine_record("element", value=e))
    else:
        print(f"closure size {len(c)} at bound L = {c.bound}")
        for e in c.elements:
            print(f"  {e}")
    return 0


def cmd_basis(args) -> int:
    if args.check_stability and args.method != "paper":
        raise ValueError("--check-stability applies to --method paper only")
    _, gens = _read_problem(args.file)
    c = sq.closure(gens, args.max_tail_len)
    if args.method == "paper":
        report = basis_mod.compute_S(c, check_stability=args.check_stability)
    else:
        report = basis_mod.greedy_shrink(c)
    print("\n".join(_emit_basis_report(report, args.format == "machine")))
    return 0 if report.certified else 1


def cmd_check_independence(args) -> int:
    _, items = _read_independence_input(args.file)
    out: list[str] = []
    ok = True
    machine = args.format == "machine"
    raw = next((text for text, elem, _ in items if elem is None), None)
    if raw is not None and args.method == "hall":
        print(f"error: {raw!r} is not a free-quandle element; "
              "the hall method needs elements", file=sys.stderr)
        return 2
    if raw is not None and args.method == "both":
        print(f"note: {raw!r} is not a free-quandle element; "
              "hall skipped, nielsen only", file=sys.stderr)
    if raw is None and args.method in ("hall", "both"):
        verdict = ind.check_significant_factors([elem for _, elem, _ in items])
        _emit_verdict(out, verdict, machine)
        ok = verdict.passed
    if args.method in ("nielsen", "both"):
        verdict = ind.nielsen_independent([word for _, _, word in items])
        _emit_verdict(out, verdict, machine)
        ok = ok and verdict.passed
    print("\n".join(out))
    return 0 if ok else 1


def _read_independence_input(path: str):
    """Each line is an element (element grammar) or a raw group word."""
    with open(path, encoding="utf-8") as fh:
        alphabet, lines = sq.parse_header(fh.read())
    items = []
    for ln in lines:
        try:
            elem = cq.parse_element(alphabet, ln)
            word = cq.to_group_word(elem)
        except NotInFreeQuandle:
            elem, word = None, fg.parse_word(alphabet, ln)
        items.append((ln, elem, word))
    if not items:
        raise ValueError("input file lists no elements or words")
    return alphabet, items


def cmd_verify_axioms(args) -> int:
    alphabet = Alphabet.parse(args.alphabet)
    report = cq.verify_axioms(alphabet, args.samples, args.max_tail_len, args.seed)
    if args.format == "machine":
        print(_machine_record(
            "axioms", failures=len(report.failures), samples=report.samples,
            seed=report.seed, verdict="PASS" if report.passed else "FAIL"))
        for f in report.failures:
            print(_machine_record(
                "counterexample",
                elements=" , ".join(str(e) for e in f.elements), law=f.law))
    else:
        status = "PASS" if report.passed else "FAIL"
        print(f"axiom suite: {status} "
              f"({report.samples} samples, seed {report.seed})")
        for law, n in report.checked.items():
            print(f"  {law}: {n} checks")
        for f in report.failures:
            elems = ", ".join(str(e) for e in f.elements)
            print(f"  counterexample for {f.law}: {elems}")
    return 0 if report.passed else 1


def cmd_express(args) -> int:
    alphabet, gens = _read_problem(args.file)
    e = cq.parse_element(alphabet, args.element)
    # a prefix of the full closure with the same derivations, so the same term
    c = sq.closure(gens, args.max_tail_len, stop_when_contains=[e])
    if not sq.contains(c, e):
        print(f"error: {e} not found in closure at bound {c.bound}",
              file=sys.stderr)
        return 1
    term = sq.express(c, e)
    if args.format == "machine":
        print(_machine_record("expression", element=e, term=term))
    else:
        print(f"{e} = {term}")
        for i, g in enumerate(c.generators):
            print(f"  g{i} = {g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freequandle",
        description="Free-quandle arithmetic, subquandle closures, and "
                    "free-basis computation with certification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, file_input=False):
        p.add_argument("--format", choices=("text", "machine"), default="text")
        if file_input:
            p.add_argument("file", help="problem file (alphabet: header, one "
                           "element per line)")
            p.add_argument("--max-tail-len", type=int, default=DEFAULT_BOUND,
                           metavar="L")

    p = sub.add_parser("reduce", help="reduce a word to normal form")
    p.add_argument("--alphabet", required=True)
    p.add_argument("word")
    add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("qop", help="apply a quandle operation to two elements")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--op", choices=("right", "left"), default="right")
    p.add_argument("element")
    p.add_argument("by")
    add_common(p)
    p.set_defaults(func=cmd_qop)

    p = sub.add_parser("closure", help="enumerate a bounded subquandle closure")
    add_common(p, file_input=True)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("basis", help="compute and certify a free basis")
    add_common(p, file_input=True)
    p.add_argument("--method", choices=("paper", "greedy"), default="paper")
    p.add_argument("--check-stability", action="store_true",
                   help="recompute the candidate at L+2 and flag a change "
                        "(paper method only)")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("check-independence",
                       help="run the independence checkers on a file of "
                            "elements or group words")
    add_common(p)
    p.add_argument("file", help="file of elements or group words (alphabet: "
                   "header, one per line)")
    p.add_argument("--method", choices=("hall", "nielsen", "both"),
                   default="both")
    p.set_defaults(func=cmd_check_independence)

    p = sub.add_parser("verify-axioms", help="sample-check the quandle laws")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-tail-len", type=int, default=4, metavar="L")
    add_common(p)
    p.set_defaults(func=cmd_verify_axioms)

    p = sub.add_parser("express",
                       help="express a closure element over the generators")
    add_common(p, file_input=True)
    p.add_argument("element")
    p.set_defaults(func=cmd_express)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FreeQuandleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
