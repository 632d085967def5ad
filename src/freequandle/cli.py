"""Batch command-line interface.

Exit codes: 0 computed and certified/PASS, 1 computed but a verification
FAILed, 2 bad input.  Each command yields ``(kind, fields, text)`` records
and returns its exit code; :func:`_emit` alone chooses the format: the text
lines, or with ``--format machine`` one tab-separated record per line,
``kind=...`` first and the other non-None fields sorted by key, so identical
inputs (and seeds) give byte-identical output.

Each subcommand's arguments are declared once, in :data:`_COMMANDS`.  A
well-formed argv is read off that table directly; any other, help and
errors among them, goes to the argparse parser built from it, so argparse
is imported only to print a help screen or an error.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

from . import basis as basis_mod
from . import conj_quandle as cq
from . import free_group as fg
from . import independence as ind
from . import subquandle as sq
from .errors import EmptyInputWord, FreeQuandleError, NotInFreeQuandle
from .free_group import Alphabet
from .stallings import SubquandleGraph
from .subquandle import DEFAULT_BOUND


# the element budget without --max-elements: a closure process peaks at
# about 1 KB per element (maxrss 122-124 MB for the 118,098 of {x^(y), y}
# at L = 10, against 15 MB at L = 2), so about 0.5 GB
DEFAULT_MAX_ELEMENTS = 500_000


def _budget(args) -> int:
    """The budget of the closures a command enumerates: ``--max-elements``,
    or the default.  Only an explicit budget binds the closures a command
    answers without enumerating: :func:`cmd_basis` (the paper basis's) and
    :func:`cmd_express` (a non-member's) pass ``args.max_elements`` to
    :func:`subquandle.check_size` for those."""
    return DEFAULT_MAX_ELEMENTS if args.max_elements is None else args.max_elements


def _machine_record(kind: str, fields: dict) -> str:
    # most records, such as a closure's elements: about 0.2 us a record
    # here against 0.7 us by the general path
    if len(fields) == 1:
        [(k, v)] = fields.items()
        if v is not None:
            return f"kind={kind}\t{k}={v}"
    return "\t".join([f"kind={kind}",
                      *[f"{k}={v}" for k, v in sorted(fields.items()) if v is not None]])


def _emit(records, fmt: str) -> int:
    """Print each record's ``fmt`` side that is not None; return the exit code.

    The lines go to stdout in one write, made also when the records stop
    on an error, so that the lines yielded before it are printed."""
    lines = []
    try:
        while True:
            try:
                kind, fields, text = next(records)
            except StopIteration as done:
                return done.value
            if fmt == "machine":
                text = None if kind is None else _machine_record(kind, fields)
            if text is not None:
                lines.append(text)
    finally:
        if lines:
            sys.stdout.write("\n".join(lines) + "\n")


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
               f"  {g} = {term or 'MISSING (not generated by the candidate)'}")
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
    c = sq.closure(gens, args.max_tail_len, _budget(args))
    yield ("closure", {"bound": c.bound, "size": len(c)},
           f"closure size {len(c)} at bound L = {c.bound}")
    alphabet = c.alphabet
    for e in [cq.spell_element(alphabet, axis, tail) for axis, tail in c.raw]:
        yield "element", {"value": e}, f"  {e}"
    return 0


def cmd_basis(args):
    if args.check_stability and args.method != "paper":
        raise ValueError("--check-stability applies to --method paper only")
    _, gens = _read_problem(args.file)
    if args.method == "paper":
        # the whole closure's errors (its budget only if given), then the
        # prefix that holds the basis
        graph = sq.check_size(gens, args.max_tail_len, args.max_elements)
        c = sq.closure(graph, args.max_tail_len, _budget(args),
                       stop_when_contains=graph.basis())
        report = basis_mod.compute_S(c, args.check_stability)
    else:
        report = basis_mod.greedy_shrink(
            sq.closure(gens, args.max_tail_len, _budget(args)))
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
        if "^(" in ln:  # the element grammar
            elem = cq.parse_element(alphabet, ln)
            word = cq.to_group_word(elem)
        else:  # a group word, an element if it is a generator's conjugate
            word = fg.parse_word(alphabet, ln)
            if word.is_identity():
                raise EmptyInputWord("the identity word is not allowed as input")
            try:
                elem = cq.from_group_word(word)
            except NotInFreeQuandle:
                elem = None
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
    bound, budget = args.max_tail_len, args.max_elements
    if len(e.tail) > bound:  # not in the closure: only check the generators
        sq.closure(gens, bound, budget, stop_when_contains=[])
    elif not (graph := SubquandleGraph(gens)).member(e):
        # nor is a non-member (F4): raise the whole closure's errors up front
        sq.check_size(graph, bound, budget)
    else:
        # a prefix of the full closure with the same derivations, so the
        # same term
        c = sq.closure(gens, bound, _budget(args), stop_when_contains=[e])
        element, term = str(e), str(sq.express(c, e))
        yield "expression", {"element": element, "term": term}, f"{element} = {term}"
        for i, g in enumerate(c.generators):
            yield None, None, f"  g{i} = {g}"
        return 0
    print(f"error: {e} not found in closure at bound {bound}", file=sys.stderr)
    return 1


# the arguments that several subcommands share, each a flag or name with
# the keywords that argparse's add_argument takes for it
_FORMAT = ("--format", {"choices": ("text", "machine"), "default": "text"})
_ALPHABET = ("--alphabet", {"required": True})
_PROBLEM = ("file", {"help": "problem file (alphabet: header, one element per line)"})
_BOUND = ("--max-tail-len", {"type": int, "default": DEFAULT_BOUND, "metavar": "L"})
_BUDGET = ("--max-elements", {"type": int, "metavar": "N",
                              "help": "element budget of every closure the command "
                                      "builds; exceeding it is an input error (exit 2)"})

# subcommand -> its line in the root's -h, and its arguments in the order its
# -h lists them; the subcommands in the order the root's -h lists them.  Only
# "--" options, store_true flags and one-value arguments appear, which is all
# that _read_table reads
_COMMANDS = {
    "reduce": ("reduce a word to normal form", (_FORMAT, _ALPHABET, ("word", {}))),
    "qop": ("apply a quandle operation to two elements",
            (_FORMAT, _ALPHABET, ("--op", {"choices": ("right", "left"), "default": "right"}),
             ("element", {}), ("by", {}))),
    "closure": ("enumerate a bounded subquandle closure", (_FORMAT, _PROBLEM, _BOUND, _BUDGET)),
    "basis": ("compute and certify a free basis",
              (_FORMAT, _PROBLEM, _BOUND, _BUDGET,
               ("--method", {"choices": ("paper", "greedy"), "default": "paper"}),
               ("--check-stability", {"action": "store_true", "default": False,
                                      "help": "recompute the candidate at L+2 and flag a "
                                              "change (paper method only)"}))),
    "check-independence": ("run the independence checkers on a file of elements or group words",
                           (_FORMAT, ("file", {"help": "file of elements or group words "
                                                       "(alphabet: header, one per line)"}),
                            ("--method", {"choices": ("hall", "nielsen", "both"),
                                          "default": "both"}))),
    "verify-axioms": ("sample-check the quandle laws",
                      (_FORMAT, _ALPHABET, ("--samples", {"type": int, "default": 200}),
                       ("--seed", {"type": int, "default": 0}),
                       ("--max-tail-len", {"type": int, "default": 4, "metavar": "L"}))),
    "express": ("express a closure element over the generators",
                (_FORMAT, _PROBLEM, _BOUND, _BUDGET, ("element", {}))),
}


def _command_values(name: str) -> dict:
    """Subcommand ``name``'s ``command`` and handler, read from the module
    now, so that a patched handler is taken."""
    return {"command": name, "func": globals()["cmd_" + name.replace("-", "_")]}


def _add_options(p, name: str):
    """Give the argparse parser ``p`` subcommand ``name``'s arguments from
    :data:`_COMMANDS`, with :func:`_command_values` as defaults; return
    ``p``."""
    p.set_defaults(**_command_values(name))
    for flag, keywords in _COMMANDS[name][1]:
        p.add_argument(flag, **keywords)
    return p


def build_parser():
    """The CLI's full argparse parser: the root and every subcommand."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="freequandle",
        description="Free-quandle arithmetic, subquandle closures, and "
                    "free-basis computation with certification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, _) in _COMMANDS.items():
        _add_options(sub.add_parser(name, help=help), name)
    return parser


def _read_table(argv: list[str]) -> SimpleNamespace | None:
    """``argv``'s arguments read off :data:`_COMMANDS`, or None where only
    argparse can judge it.

    The table reads an argv that names a subcommand first, then gives only
    that subcommand's exact option strings (no abbreviation, no ``=``, no
    ``--``), each with a value that does not start with ``-`` and that its
    type and choices accept, every required option, and exactly its
    positionals.  On such an argv argparse takes each token as the table
    does, so both give the same arguments.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    arguments = _COMMANDS[argv[0]][1]
    options = {flag: keywords for flag, keywords in arguments if flag[0] == "-"}
    given, positionals = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            positionals.append(token)
            continue
        keywords = options.get(token)
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            given[token] = True
            continue
        value = next(tokens, "-")
        if value[:1] == "-":
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[token] = value
    names = [flag for flag, _ in arguments if flag[0] != "-"]
    if len(positionals) != len(names) or any(
            keywords.get("required") and flag not in given for flag, keywords in options.items()):
        return None
    values = _command_values(argv[0])
    for flag, keywords in options.items():
        values[flag[2:].replace("-", "_")] = given.get(flag, keywords.get("default"))
    values.update(zip(names, positionals))
    return SimpleNamespace(**values)


def parse_argv(argv: list[str]):
    """Parse ``argv`` as :func:`build_parser`'s parser does.

    A well-formed argv is read off :data:`_COMMANDS` (:func:`_read_table`)
    without building a parser or importing argparse.  Every other argv,
    help and errors among them, goes to the full parser, so every help
    screen and error is argparse's own.
    """
    return _read_table(argv) or build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run the command that ``argv`` (by default the command line) names;
    return its exit code.

    The command runs with the cyclic garbage collector paused.  The
    package's own work makes no reference cycles, so reference counting
    frees all of it; the collections its allocations would trigger only
    traverse live objects.  A well-formed command leaves the collector
    nothing; only an argv that argparse parses (help, errors) leaves its
    parser graph, a few dozen objects, freed at the next collection.  The
    collector is switched back on, on every exit path (argparse's
    ``SystemExit`` too), only if it was on at entry.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
        try:
            return _emit(args.func(args), args.format)
        except (FreeQuandleError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
