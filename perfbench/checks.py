"""Checks of the CLI's ``--format machine`` output against the oracle.

Each ``check_*`` function returns a list of complaints; an empty list means
the output was accepted.  Outputs are parsed with the oracle's own parser
under the pass's letter names, so they compare as encoded words, which do
not depend on the pass.
"""

from __future__ import annotations

import oracle as O


class Reference:
    """Oracle answers shared by every pass of one run, computed on demand."""

    def __init__(self):
        self._closures: dict = {}
        self._free: dict = {}
        self._sf_ok: dict = {}

    def closure(self, gens, bound: int) -> frozenset:
        key = (frozenset(gens), bound)
        if key not in self._closures:
            self._closures[key] = O.closure(gens, bound)
        return self._closures[key]

    def candidate(self, gens, bound: int) -> frozenset:
        return O.tail_filter(self.closure(gens, bound))

    def free(self, elements) -> bool:
        key = frozenset(elements)
        if key not in self._free:
            self._free[key] = O.is_free_basis([O.group_word(e) for e in key])
        return self._free[key]

    def significant_factors(self, elements) -> bool:
        key = frozenset(elements)
        if key not in self._sf_ok:
            self._sf_ok[key] = O.significant_factor_failure(sorted(key)) is None
        return self._sf_ok[key]


def parse_records(stdout: str) -> list[dict]:
    recs = []
    for line in stdout.splitlines():
        if not line:
            continue
        rec = {}
        for part in line.split("\t"):
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"field without '=' in {line!r}")
            rec[key] = value
        recs.append(rec)
    return recs


def _verdict_label(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _check_pair(names, rec, elements, errs) -> None:
    """A reported significant-factor failure must really be one."""
    if "pair" not in rec:
        return
    words = []
    for label in rec["pair"].split(" , "):
        inverted = label.startswith("(") and label.endswith(")^-1")
        e = O.parse_element(names, label[1:-4] if inverted else label)
        if e not in elements:
            errs.append(f"hall pair names {label!r}, not in the set")
            return
        gw = O.group_word(e)
        words.append(O.inverse(gw) if inverted else gw)
    if len(words) != 2:
        errs.append(f"hall pair {rec['pair']!r} is not a pair")
        return
    u, v = words
    c = O.cancel_depth(u, v)
    if str(c) != rec.get("depth"):
        errs.append(f"hall pair depth {rec.get('depth')} but the product cancels {c}")
    if u == O.inverse(v) or not (len(u) - c <= len(u) // 2 or c > len(v) // 2):
        errs.append(f"hall pair {rec['pair']!r} does not cancel a marked letter")


def _check_verdicts(names, recs, elements, ref, errs) -> bool:
    """Hall and Nielsen verdict records; returns whether both passed."""
    verdicts = {r.get("method"): r for r in recs if r.get("kind") == "verdict"}
    if set(verdicts) != {"hall", "nielsen"}:
        errs.append(f"verdict records for {sorted(verdicts)}, want hall and nielsen")
        return False
    want_hall = ref.significant_factors(elements)
    want_nielsen = ref.free(elements)
    if verdicts["hall"].get("verdict") != _verdict_label(want_hall):
        errs.append(f"hall verdict {verdicts['hall'].get('verdict')}, "
                    f"oracle criterion {_verdict_label(want_hall)}")
    if verdicts["nielsen"].get("verdict") != _verdict_label(want_nielsen):
        errs.append(f"nielsen verdict {verdicts['nielsen'].get('verdict')}, "
                    f"exact freeness {_verdict_label(want_nielsen)}")
    if verdicts["hall"].get("verdict") == "FAIL":
        _check_pair(names, verdicts["hall"], elements, errs)
    return want_hall and want_nielsen


def check_closure(problem, names, rc, recs, ref) -> list[str]:
    errs = []
    if rc != 0:
        errs.append(f"exit code {rc}, want 0")
    head = [r for r in recs if r.get("kind") == "closure"]
    got = [O.parse_element(names, r["value"]) for r in recs if r.get("kind") == "element"]
    want = ref.closure(problem.elements, problem.bound)
    if len(head) != 1 or head[0].get("bound") != str(problem.bound):
        errs.append("missing or wrong closure header")
    elif head[0].get("size") != str(len(want)):
        errs.append(f"closure size {head[0].get('size')}, oracle {len(want)}")
    if len(got) != len(want) or set(got) != want:
        errs.append(f"closure lists {len(got)} elements ({len(set(got))} distinct), "
                    f"oracle has {len(want)}; sets differ by "
                    f"{len(set(got) ^ want)}")
    return errs


def check_basis(problem, names, rc, recs, ref, method: str,
                stability: bool) -> list[str]:
    errs: list[str] = []
    bound = problem.bound
    gens = list(dict.fromkeys(problem.elements))
    head = [r for r in recs if r.get("kind") == "basis"]
    cands = [O.parse_element(names, r["element"]) for r in recs
             if r.get("kind") == "candidate"]
    if (len(head) != 1 or head[0].get("method") != method
            or head[0].get("bound") != str(bound)):
        errs.append("missing or wrong basis header")
    elif head[0].get("size") != str(len(cands)):
        errs.append(f"basis size {head[0].get('size')} but {len(cands)} candidates")
    if len(set(cands)) != len(cands):
        errs.append("duplicate candidates")
    if not cands:
        return errs + ["empty candidate"]

    moves = [r for r in recs if r.get("kind") == "move"]
    if method == "paper":
        want = ref.candidate(gens, bound)
        if set(cands) != want:
            errs.append(f"paper candidate differs from the oracle tail filter "
                        f"by {len(set(cands) ^ want)} elements")
        if moves:
            errs.append("paper method printed moves")
        stab = [r for r in recs if r.get("kind") == "stability"]
        if stability:
            stable = ref.candidate(gens, bound + 2) == want
            if len(stab) != 1 or stab[0].get("stable") != str(stable):
                errs.append(f"stability record {stab}, oracle says stable={stable}")
    else:
        working = list(gens)
        for r in moves:
            target, by, result = (O.parse_element(names, r[k]) for k in ("target", "by", "result"))
            eps = int(r["eps"])
            if target not in working:
                errs.append(f"move target {r['target']} is not in the working set")
                break
            if by not in ref.closure(working, bound):
                errs.append(f"move uses {r['by']}, outside the working set's closure")
            if O.act(target, by, eps) != result:
                errs.append(f"move {r['target']} by {r['by']} does not replay to {r['result']}")
            if len(result[1]) >= len(target[1]):
                errs.append(f"move on {r['target']} does not shorten it")
            working[working.index(target)] = result
            working = list(dict.fromkeys(working))
        if set(working) != set(cands):
            errs.append("greedy candidate is not the result of its moves")
        closed = ref.closure(cands, bound)
        for c in cands:
            if O.shortenable(c, closed):
                errs.append(f"candidate {O.format_element(names, c)} is still "
                            "shortened by its own closure")

    witnesses = [r for r in recs if r.get("kind") == "witness"]
    got_targets = [O.parse_element(names, r["generator"]) for r in witnesses]
    if sorted(got_targets) != sorted(gens):
        errs.append("witness records do not match the input generators")
    missing = False
    for g, r in zip(got_targets, witnesses):
        if r["term"] == "MISSING":
            missing = True
            if g in ref.closure(cands, bound):
                errs.append(f"witness for {r['generator']} MISSING, but the "
                            "candidate's bounded closure contains it")
            continue
        try:
            value = O.evaluate(O.parse_term(r["term"]), cands)
        except (ValueError, IndexError):
            errs.append(f"witness term {r['term']!r} does not parse over the candidate")
            continue
        if value != g:
            errs.append(f"witness term for {r['generator']} does not replay")

    passed = _check_verdicts(names, recs, set(cands), ref, errs)
    certified = passed and not missing
    cert = [r for r in recs if r.get("kind") == "certified"]
    if len(cert) != 1 or cert[0].get("value") != ("yes" if certified else "no"):
        errs.append(f"certified record {cert}, want {'yes' if certified else 'no'}")
    want_rc = 0 if certified else 1
    if rc != want_rc:
        errs.append(f"exit code {rc}, want {want_rc}")
    return errs


def check_express(problem, names, rc, recs, ref, target) -> list[str]:
    errs = []
    if rc != 0:
        errs.append(f"exit code {rc}, want 0")
    expr = [r for r in recs if r.get("kind") == "expression"]
    if len(expr) != 1:
        return errs + ["want one expression record"]
    if O.parse_element(names, expr[0]["element"]) != target:
        errs.append("expression names another element")
    gens = list(dict.fromkeys(problem.elements))
    try:
        value = O.evaluate(O.parse_term(expr[0]["term"]), gens)
    except (ValueError, IndexError):
        return errs + [f"term {expr[0]['term']!r} does not parse over the generators"]
    if value != target:
        errs.append("term does not replay to the element")
    return errs


def check_independence(problem, names, rc, recs, ref) -> list[str]:
    errs: list[str] = []
    if len([r for r in recs if r.get("kind") == "verdict"]) != 2:
        errs.append("want exactly two verdict records")
    passed = _check_verdicts(names, recs, set(problem.elements), ref, errs)
    if rc != (0 if passed else 1):
        errs.append(f"exit code {rc}, want {0 if passed else 1}")
    return errs


def check_command(workload, cmd, names, rc, stdout: str, ref) -> list[str]:
    """All checks for one command's output; an empty list accepts it."""
    if rc == 2:
        return ["exit code 2 (input rejected)"]
    try:
        recs = parse_records(stdout)
        problem = workload.problems[cmd.problem]
        if cmd.kind == "closure":
            return check_closure(problem, names, rc, recs, ref)
        if cmd.kind in ("basis_paper", "basis_greedy"):
            method = "paper" if cmd.kind == "basis_paper" else "greedy"
            return check_basis(problem, names, rc, recs, ref, method, cmd.stability)
        if cmd.kind == "express":
            return check_express(problem, names, rc, recs, ref, cmd.target)
        if cmd.kind == "check":
            return check_independence(problem, names, rc, recs, ref)
    except (KeyError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]
    return [f"unknown command kind {cmd.kind}"]
