"""Self-tests of the benchmark: input determinism, the oracle, the checks, the tracer."""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import oracle as O  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

cli = pytest.importorskip("freequandle.cli")


def _files(workload, directory, passes=(0, 3)):
    return {(p, path.name): path.read_bytes()
            for p in passes for path in workload.write_pass(directory / f"pass{p}", p)}


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_gives_identical_input_files(name, tmp_path, monkeypatch):
    monkeypatch.setattr(W, "MANY_SMALL_COUNT", 6)
    monkeypatch.setattr(W, "CERTIFY_COUNT", 6)
    first = W.WORKLOADS[name](7)
    again = W.WORKLOADS[name](7)
    other = W.WORKLOADS[name](8)
    assert _files(first, tmp_path / "a") == _files(again, tmp_path / "b")
    assert first.commands == again.commands
    assert _files(first, tmp_path / "a") != _files(other, tmp_path / "c")
    # renaming per pass changes every file but not the encoded problems
    files = _files(first, tmp_path / "a")
    assert all(files[(0, k)] != files[(3, k)] for _, k in files)


def _random_element(rng, letters=3, hi=5):
    return W.random_element(rng, letters, 0, hi)


def test_oracle_satisfies_quandle_axioms():
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = (_random_element(rng) for _ in range(3))
        for eps in (1, -1):
            assert O.act(a, a, eps) == a
            assert O.act(O.act(a, b, eps), b, -eps) == a
            assert O.act(O.act(a, b, eps), c, eps) == O.act(O.act(a, c, eps), O.act(b, c, eps), eps)


def _brute_closure(gens, bound):
    known = set(gens)
    while True:
        new = {r for a in known for q in known for eps in (1, -1)
               if len((r := O.act(a, q, eps))[1]) <= bound} - known
        if not new:
            return frozenset(known)
        known |= new


def test_oracle_closure_and_tail_filter_match_brute_force():
    rng = random.Random(12)
    checked = 0
    while checked < 40:
        letters = rng.randint(2, 3)
        gens = [_random_element(rng, letters, 3) for _ in range(rng.randint(1, 3))]
        bound = rng.randint(max(len(g[1]) for g in gens), 5)
        try:
            fast = O.closure(gens, bound, budget=150)
        except O.TooLarge:
            continue
        assert fast == _brute_closure(gens, bound)
        brute_filter = {e for e in fast if not any(
            len(O.act(e, q, eps)[1]) < len(e[1]) for q in fast for eps in (1, -1))}
        assert O.tail_filter(fast) == brute_filter
        checked += 1


def _words(text):
    return [O.parse_word("abc", w) for w in text.split(",")]


@pytest.mark.parametrize("text", [
    "a^-1 c, c b^-1, b a, b^-1 a^-1 c^-1",
    "c c, b^-1, c a b^-1 c^-1, a b^-1 c",
])
def test_roadmap_nielsen_counterexamples_are_dependent(text):
    assert not O.is_free_basis(_words(text))


def test_nielsen_moved_basis_is_free():
    rng = random.Random(13)
    for _ in range(50):
        basis = [(1,), (2,), (3,)]
        for _ in range(8):
            i, j = rng.sample(range(3), 2)
            wj = basis[j] if rng.random() < 0.5 else O.inverse(basis[j])
            basis[i] = O.reduce(basis[i] + wj) if rng.random() < 0.5 else O.reduce(wj + basis[i])
        assert O.is_free_basis(basis)
        assert not O.is_free_basis(basis + [O.reduce(basis[0] + basis[1])])


# -- checks reject mutated output ---------------------------------------------

@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """{x^(y), y} at L=3: paper basis {x, y}, witness x^(y) = (g0 > g1)."""
    problem = W.Problem(2, ((0, (2,)), (1, ())), 3)
    commands = [W.Command("closure", 0), W.Command("basis_paper", 0, stability=True),
                W.Command("basis_greedy", 0), W.Command("check", 0),
                W.Command("express", 0, target=(0, (2, 2)))]
    workload = W.Workload("small", [problem], commands, ["x", "y"])
    names = workload.names(0)
    path = workload.write_pass(tmp_path_factory.mktemp("small"), 0)[0]
    ref = checks.Reference()
    outputs = {}
    for cmd in commands:
        rc, out, _, escaped = run.invoke(cli, workload.argv(cmd, path, names))
        assert escaped is None
        assert checks.check_command(workload, cmd, names, rc, out, ref) == []
        outputs[cmd.kind] = (rc, out)
    return workload, names, ref, outputs


def _rejects(small, kind, mutate=None, rc=None):
    """The complaints about a command's output after mutating it or its exit code."""
    workload, names, ref, outputs = small
    cmd = next(c for c in workload.commands if c.kind == kind)
    old_rc, out = outputs[kind]
    if mutate is not None:
        mutated = mutate(out)
        assert mutated != out
        out = mutated
    else:
        assert rc is not None and rc != old_rc
    return checks.check_command(workload, cmd, names, old_rc if rc is None else rc, out, ref)


def test_check_rejects_dropped_candidate(small):
    def drop(out):
        lines = out.splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.startswith("kind=candidate"))
        return "\n".join(lines[:k] + lines[k + 1:])
    assert _rejects(small, "basis_paper", drop)
    assert _rejects(small, "basis_greedy", drop)


def test_check_rejects_flipped_verdict(small):
    flip = lambda out: out.replace("method=nielsen\tverdict=PASS", "method=nielsen\tverdict=FAIL")
    assert _rejects(small, "check", flip)
    assert _rejects(small, "basis_paper", flip)
    # {x^(y), y} fails the significant-factor criterion at the pair (y, x^(y))
    assert _rejects(small, "check", lambda out: out.replace("verdict=FAIL", "verdict=PASS"))
    assert _rejects(small, "check", rc=0)
    assert _rejects(small, "basis_paper", rc=1)


def test_check_rejects_corrupted_witness_term(small):
    assert _rejects(small, "basis_paper", lambda out: out.replace("(g0 > g1)", "(g0 < g1)"))
    assert _rejects(small, "basis_paper", lambda out: out.replace("term=(g0 > g1)", "term=MISSING"))
    assert _rejects(small, "express", lambda out: out.replace(">", "<"))


def test_check_rejects_wrong_closure_size(small):
    def grow(out):
        head, rest = out.split("\n", 1)
        size = int(head.rsplit("size=", 1)[1])
        return head.replace(f"size={size}", f"size={size + 1}") + "\n" + rest
    assert _rejects(small, "closure", grow)
    assert _rejects(small, "closure", lambda out: out.rsplit("\n", 2)[0] + "\n")


def test_check_counts_input_errors():
    workload = W.Workload("w", [W.Problem(1, ((0, ()),))], [W.Command("closure", 0)], ["x"])
    assert checks.check_command(workload, workload.commands[0], ["x"], 2, "", checks.Reference())


# -- tracer ---------------------------------------------------------------------

def test_tracer_patches_every_binding_and_restores():
    import freequandle
    import freequandle.basis as basis
    import freequandle.conj_quandle as cq
    import freequandle.subquandle as sq
    closure, act = sq.closure, cq.act
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert basis.closure is sq.closure is freequandle.closure is not closure
        assert basis.act is cq.act is freequandle.act is not act
    finally:
        tracer.uninstall()
    assert basis.closure is sq.closure is freequandle.closure is closure
    assert basis.act is cq.act is act
    assert not tracer.unbound


def test_tracer_labels_closures(small, tmp_path):
    workload, names, ref, _ = small
    path = workload.write_pass(tmp_path, 0)[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for kind in ("basis_paper", "basis_greedy"):
            cmd = next(c for c in workload.commands if c.kind == kind)
            rc, out, _, escaped = run.invoke(cli, workload.argv(cmd, path, names))
            assert escaped is None
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer.spans, 0, tracer.counts)
    for label in ("main", "witness", "stability", "greedy"):
        assert m[f"subquandle.closure.{label}_s"] > 0
    assert m["basis.greedy.closures"] >= 1
    assert m["independence.checked_letters"] > 0
    assert m["conj_quandle.act.calls"] > 0
    names_seen = {s[0] for s in tracer.spans}
    assert {"cli.main", "basis.compute_S", "basis.greedy_shrink",
            "independence.nielsen_independent"} <= names_seen
