"""Batch command-line interface.

Exit codes: 0 computed and certified/PASS, 1 computed but a verification
FAILed, 2 bad input.  Each command yields ``(kind, fields, text)`` records
and returns its exit code; :func:`_emit` alone chooses the format: the text
lines, or with ``--format machine`` one tab-separated record per line,
``kind=...`` first and the other non-None fields sorted by key, so identical
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
from .errors import EmptyInputWord, FreeQuandleError, NotInFreeQuandle
from .free_group import Alphabet
from .subquandle import DEFAULT_BOUND


def _machine_record(kind: str, **fields) -> str:
    parts = [f"kind={kind}"]
    parts += [f"{k}={fields[k]}" for k in sorted(fields) if fields[k] is not None]
    return "\t".join(parts)


def _emit(records, fmt: str) -> int:
    """Print each record's ``fmt`` side that is not None; return the exit code."""
    while True:
        try:
            kind, fields, text = next(records)
        except StopIteration as done:
            return done.value
        if fmt == "machine":
            text = None if kind is None else _machine_record(kind, **fields)
        if text is not None:
            print(text)


def _read_problem(path: str):
    with open(path, encoding="utf-8-sig") as fh:
        return sq.parse_problem(fh.read())


def _verdict_record(verdict: ind.IndependenceReport):
    status = "PASS" if verdict.passed else "FAIL"
    fields = {"method": verdict.method, "verdict": status,
              "pair": " , ".join(verdict.failing_pair or ()) or None,
              "depth": verdict.cancellation_depth}
    return "verdict", fields, f"{verdict.method}: {status} ({verdict.detail})"


def _basis_records(report: basis_mod.BasisReport):
    candidate = [str(e) for e in report.candidate]
    yield ("basis", {"bound": report.bound, "method": report.method,
                     "size": len(candidate)},
           f"method: {report.method}   bound L = {report.bound}")
    yield None, None, "candidate basis: " + ", ".join(candidate)
    for e in candidate:
        yield "candidate", {"element": e}, None
    if report.moves:
        yield None, None, "moves:"
    for mv in report.moves:
        target, by, result = str(mv.target), str(mv.by), str(mv.result)
        op = ">" if mv.eps == 1 else "<"
        yield ("move", {"by": by, "eps": mv.eps, "result": result, "target": target},
               f"  {target} {op} {by}  ->  {result}")
    yield None, None, "witnesses:"
    for g, term in report.witnesses.items():
        g, term = str(g), term and str(term)
        yield ("witness", {"generator": g, "term": term or "MISSING"},
               f"  {g} = {term or 'MISSING (bound too small?)'}")
    yield from map(_verdict_record, (report.hall_verdict, report.nielsen_verdict))
    if report.stable is not None:
        yield ("stability", {"stable": report.stable},
               f"stable at L+2: {'yes' if report.stable else 'NO'}")
    yield ("certified", {"value": "yes" if report.certified else "no"},
           "certified free basis" if report.certified else "NOT certified")


def cmd_reduce(args):
    word = str(fg.parse_word(Alphabet.parse(args.alphabet), args.word))
    yield "word", {"value": word}, word
    return 0


def cmd_qop(args):
    alphabet = Alphabet.parse(args.alphabet)
    a = cq.parse_element(alphabet, args.element)
    q = cq.parse_element(alphabet, args.by)
    result = str(cq.act(a, q, 1 if args.op == "right" else -1))
    yield "element", {"value": result}, result
    return 0


def cmd_closure(args):
    _, gens = _read_problem(args.file)
    c = sq.closure(gens, args.max_tail_len, args.max_elements)
    yield ("closure", {"bound": c.bound, "size": len(c)},
           f"closure size {len(c)} at bound L = {c.bound}")
    for e in map(str, c.elements):
        yield "element", {"value": e}, f"  {e}"
    return 0


def cmd_basis(args):
    if args.check_stability and args.method != "paper":
        raise ValueError("--check-stability applies to --method paper only")
    _, gens = _read_problem(args.file)
    c = sq.closure(gens, args.max_tail_len, args.max_elements)
    if args.method == "paper":
        report = basis_mod.compute_S(c, args.check_stability)
    else:
        report = basis_mod.greedy_shrink(c)
    yield from _basis_records(report)
    return 0 if report.certified else 1


def cmd_check_independence(args):
    items = _read_independence_input(args.file)
    raw = next((text for text, elem, _ in items if elem is None), None)
    if raw is not None and args.method == "hall":
        raise ValueError(f"{raw!r} is not a free-quandle element; "
                         "the hall method needs elements")
    if raw is not None and args.method == "both":
        print(f"note: {raw!r} is not a free-quandle element; "
              "hall skipped, nielsen only", file=sys.stderr)
    verdicts = []
    if raw is None and args.method in ("hall", "both"):
        verdicts.append(ind.check_significant_factors([elem for _, elem, _ in items]))
    if args.method in ("nielsen", "both"):
        verdicts.append(ind.nielsen_independent([word for _, _, word in items]))
    yield from map(_verdict_record, verdicts)
    return 0 if all(v.passed for v in verdicts) else 1


def _read_independence_input(path: str):
    """Each line is an element (element grammar) or a raw group word; a
    line holding ``^(`` is an element.  A word that reduces to the identity
    is rejected here, before any command output."""
    with open(path, encoding="utf-8-sig") as fh:
        alphabet, lines = sq.parse_header(fh.read())
    items = []
    for ln in lines:
        try:
            elem = cq.parse_element(alphabet, ln)
            word = cq.to_group_word(elem)
        except NotInFreeQuandle:
            if "^(" in ln:  # the element grammar: a malformed element
                raise
            elem, word = None, fg.parse_word(alphabet, ln)
            if word.is_identity():
                raise EmptyInputWord("the identity word is not allowed as input")
        items.append((ln, elem, word))
    if not items:
        raise ValueError("input file lists no elements or words")
    return items


def cmd_verify_axioms(args):
    alphabet = Alphabet.parse(args.alphabet)
    report = cq.verify_axioms(alphabet, args.samples, args.max_tail_len, args.seed)
    status = "PASS" if report.passed else "FAIL"
    yield ("axioms", {"failures": len(report.failures), "samples": report.samples,
                      "seed": report.seed, "verdict": status},
           f"axiom suite: {status} ({report.samples} samples, seed {report.seed})")
    for law, n in report.checked.items():
        yield None, None, f"  {law}: {n} checks"
    for f in report.failures:
        elems = [str(e) for e in f.elements]
        yield ("counterexample", {"elements": " , ".join(elems), "law": f.law},
               f"  counterexample for {f.law}: {', '.join(elems)}")
    return 0 if report.passed else 1


def cmd_express(args):
    alphabet, gens = _read_problem(args.file)
    e = cq.parse_element(alphabet, args.element)
    # a prefix of the full closure with the same derivations, so the same
    # term; a tail longer than L cannot be in it, so only check the generators
    fits = len(e.tail) <= args.max_tail_len
    c = sq.closure(gens, args.max_tail_len, args.max_elements,
                   stop_when_contains=[e] if fits else [])
    if not sq.contains(c, e):
        print(f"error: {e} not found in closure at bound {c.bound}",
              file=sys.stderr)
        return 1
    element, term = str(e), str(sq.express(c, e))
    yield "expression", {"element": element, "term": term}, f"{element} = {term}"
    for i, g in enumerate(c.generators):
        yield None, None, f"  g{i} = {g}"
    return 0


# subcommand -> the shared options it takes besides --format, in the order
# -h lists the subcommands
_COMMANDS = {"reduce": "alphabet", "qop": "alphabet", "closure": "problem",
             "basis": "problem", "check-independence": None,
             "verify-axioms": "alphabet", "express": "problem"}


def _shared_options(p: argparse.ArgumentParser, kind) -> None:
    """Add ``--format`` to ``p``, then ``--alphabet`` or the problem options
    that ``kind`` names."""
    p.add_argument("--format", choices=("text", "machine"), default="text")
    if kind == "alphabet":
        p.add_argument("--alphabet", required=True)
    elif kind == "problem":
        p.add_argument("file", help="problem file (alphabet: header, "
                       "one element per line)")
        p.add_argument("--max-tail-len", type=int, default=DEFAULT_BOUND,
                       metavar="L")
        p.add_argument("--max-elements", type=int, metavar="N",
                       help="element budget of every closure the command "
                            "builds; exceeding it is an input error (exit 2)")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI's argument parser, with every subcommand.

    Given a subcommand's name, the root holds that subcommand alone (2
    parsers, not 8): an argv that starts with the name parses, or fails,
    exactly as under the full parser.
    """
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    parser = argparse.ArgumentParser(
        prog="freequandle",
        description="Free-quandle arithmetic, subquandle closures, and "
                    "free-basis computation with certification.")
    # with one subcommand, the root usage an error prints still lists all
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None)

    def add(name, func, help):
        if name in names:
            p = sub.add_parser(name, help=help)
            _shared_options(p, _COMMANDS[name])
            p.set_defaults(func=func)
            return p

    if p := add("reduce", cmd_reduce, "reduce a word to normal form"):
        p.add_argument("word")

    if p := add("qop", cmd_qop, "apply a quandle operation to two elements"):
        p.add_argument("--op", choices=("right", "left"), default="right")
        p.add_argument("element")
        p.add_argument("by")

    add("closure", cmd_closure, "enumerate a bounded subquandle closure")

    if p := add("basis", cmd_basis, "compute and certify a free basis"):
        p.add_argument("--method", choices=("paper", "greedy"), default="paper")
        p.add_argument("--check-stability", action="store_true",
                       help="recompute the candidate at L+2 and flag a change "
                            "(paper method only)")

    if p := add("check-independence", cmd_check_independence,
                "run the independence checkers on a file of elements or "
                "group words"):
        p.add_argument("file", help="file of elements or group words "
                       "(alphabet: header, one per line)")
        p.add_argument("--method", choices=("hall", "nielsen", "both"),
                       default="both")

    if p := add("verify-axioms", cmd_verify_axioms,
                "sample-check the quandle laws"):
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-tail-len", type=int, default=4, metavar="L")

    if p := add("express", cmd_express,
                "express a closure element over the generators"):
        p.add_argument("element")

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return _emit(args.func(args), args.format)
    except (FreeQuandleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
