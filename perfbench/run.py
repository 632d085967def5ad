"""Benchmark of the freequandle CLI, run in-process through ``cli.main(argv)``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, one client in a closed loop: the commands of a
workload run one after another, pass after pass, until ``S`` seconds have
gone.  Each pass writes fresh input files under renamed letters.  Every
command's ``--format machine`` output is checked against ``oracle.py``; a
command fails when an exception escapes ``main``, when it exits with code 2,
or when a check rejects its output.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured untraced; with ``--trace 1`` untraced and
traced passes alternate and the metrics are the per-layer ones.  What each
metric should move is listed in ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import kernels  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 11
TAIL_BEYOND = 10
COMMAND_KINDS = ("closure", "basis_paper", "basis_greedy", "express", "check")

# A shared machine's speed drifts: on the 2-core machine the bounds were set
# on, the same pure-Python work ran up to 1.7x slower or faster for seconds
# to minutes at a time, and it exposes no hardware counters.  So every timing
# is scaled by a fixed calibration task from this benchmark's own code (the
# oracle's closure of {x^(y), y} at L=3), run after each timed command for
# CALIBRATION_SHARE of its time.  A command's time is reported as
# measured * CALIBRATION_S / (the mean time of the samples just before and
# just after it: on each side its own burst, and at least CALIBRATION_WINDOW),
# in seconds of a machine on which the task takes CALIBRATION_S (its time on
# that machine when quiet).
CALIBRATION = ((0, (2,)), (1, ()))
CALIBRATION_BOUND = 3
CALIBRATION_S = 0.0011
CALIBRATION_SHARE = 0.15
CALIBRATION_WINDOW = 8

_SETUP_CHILD = """
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
start = perf_counter()
import freequandle.cli
print(perf_counter() - start)
"""

_RSS_CHILD = """
import contextlib, io, json, resource, sys
sys.path.insert(0, sys.argv[1])
from freequandle.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = main(json.loads(sys.argv[2]))
print(json.dumps({"rc": rc, "out": out.getvalue(),
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def import_cli():
    """The checkout's ``freequandle.cli``, or None when ``src/`` lacks it."""
    package = SRC / "freequandle"
    if not (package / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import freequandle.cli as cli
    if Path(cli.__file__).resolve().parent != package.resolve():
        return None
    return cli


class Calibration:
    """Runs the calibration task after timed work, in proportion to it."""

    def __init__(self):
        self.samples: list[float] = []
        self._owed = 0.0

    def after(self, seconds: float) -> None:
        """Call after ``seconds`` of timed work; calibrates for its share."""
        self._owed += CALIBRATION_SHARE * seconds
        while self._owed > 0 or not self.samples:
            start = perf_counter()
            oracle.closure(CALIBRATION, CALIBRATION_BOUND)
            self.samples.append(perf_counter() - start)
            self._owed -= self.samples[-1]

    def scale(self, at: int | None = None, width: int = 0) -> float:
        """The time scale over all samples, or over ``width`` samples on each
        side of the work that came when ``at`` samples had been taken."""
        samples = self.samples
        if at is not None:
            samples = samples[max(0, at - width):at + width]
        return CALIBRATION_S * len(samples) / sum(samples)


def invoke(cli, argv):
    """Run one command; returns (exit code, stdout, seconds, escape or None)."""
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc, escaped = exc.code, f"SystemExit({exc.code}) escaped main"
        except Exception as exc:  # a crash is a failed command, not a benchmark error
            rc, escaped = None, f"{type(exc).__name__} escaped main: {exc}"
        seconds = perf_counter() - start
    return rc, out.getvalue(), seconds, escaped


class Runner:
    """Runs passes of one workload and counts checked commands."""

    def __init__(self, workload, cli, work: Path):
        self.workload = workload
        self.cli = cli
        self.work = work
        self.ref = checks.Reference()
        self.attempted = 0
        self.failed = 0
        self.complaints: list[str] = []
        self.raw_pass_s: list[float] = []

    def record(self, label: str, errs: list[str]) -> None:
        self.attempted += 1
        if errs:
            self.failed += 1
            if len(self.complaints) < 20:
                self.complaints.append(f"{label}: {'; '.join(errs[:3])}")

    def run_pass(self, index: int) -> list[float]:
        """One pass over the command list; returns each command's calibrated seconds."""
        w = self.workload
        names = w.names(index)
        directory = self.work / f"pass{index}"
        paths = w.write_pass(directory, index)
        # a CLI process starts with a small heap: keep the benchmark's own
        # objects out of the collections the commands trigger
        gc.collect()
        gc.freeze()

        calibration = Calibration()
        times, marks = [], []
        for k, cmd in enumerate(w.commands):
            argv = w.argv(cmd, paths[cmd.problem], names)
            at = len(calibration.samples)
            rc, out, seconds, escaped = invoke(self.cli, argv)
            calibration.after(seconds)
            marks.append((at, max(CALIBRATION_WINDOW, len(calibration.samples) - at)))
            errs = [escaped] if escaped else checks.check_command(w, cmd, names, rc, out, self.ref)
            self.record(f"pass {index} command {k} ({' '.join(argv[:1] + argv[2:])})", errs)
            times.append(seconds)
        shutil.rmtree(directory)
        self.raw_pass_s.append(sum(times))
        return [t * calibration.scale(*mark) for t, mark in zip(times, marks)]

    def heaviest(self):
        """The command with the largest closure (or set) to measure memory on."""
        w = self.workload

        def weight(cmd):
            p = w.problems[cmd.problem]
            if cmd.kind == "check":
                return len(p.elements)
            return len(self.ref.closure(p.elements, p.bound + (2 if cmd.stability else 0)))
        return max(w.commands, key=weight)

    def peak_rss_mb(self, index: int) -> float:
        """Peak RSS of a fresh interpreter running the heaviest command."""
        w = self.workload
        cmd = self.heaviest()
        names = w.names(index)
        paths = w.write_pass(self.work / f"pass{index}", index)
        argv = w.argv(cmd, paths[cmd.problem], names)
        proc = subprocess.run([sys.executable, "-c", _RSS_CHILD, str(SRC), json.dumps(argv)],
                              capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            self.record("memory run", [f"child exited {proc.returncode}: {proc.stderr[-300:]}"])
            return float("nan")
        child = json.loads(proc.stdout.splitlines()[-1])
        self.record("memory run", checks.check_command(
            w, cmd, names, child["rc"], child["out"], self.ref))
        return child["maxrss_kb"] / 1024


def setup_seconds() -> float:
    """Median calibrated time a fresh interpreter takes to import ``freequandle.cli``.

    The child times the import itself, which leaves out process creation and
    interpreter start-up: the package does not control those, and their wall
    time varies twofold on a shared machine.
    """
    cmd = [sys.executable, "-c", _SETUP_CHILD, str(SRC)]
    subprocess.run(cmd, check=True, timeout=60, cwd=ROOT, capture_output=True)  # writes bytecode
    calibration = Calibration()
    times = []
    for _ in range(SETUP_RUNS):
        times.append(float(subprocess.run(cmd, check=True, timeout=60, cwd=ROOT, text=True,
                                          capture_output=True).stdout))
        # the child's whole life counts as time spent, so calibrate for its share
        calibration.after(4 * times[-1])
    return statistics.median(times) * calibration.scale()


def latency_summary(passes: list[list[float]]) -> tuple[float, float, str]:
    """p50 and tail (ms) over the per-command median latencies.

    Medians are taken per command across passes, so the sample is the
    command list whatever the number of passes.  The tail is the highest
    percentile with at least ``TAIL_BEYOND`` commands beyond it; a list too
    short for that reports its slowest command.
    """
    per_cmd = sorted(statistics.median(p[k] for p in passes) for k in range(len(passes[0])))
    n = len(per_cmd)
    if n > TAIL_BEYOND:
        tail, label = per_cmd[n - TAIL_BEYOND - 1], f"p{100 * (n - TAIL_BEYOND) / n:.1f}"
    else:
        tail, label = per_cmd[-1], "p100 (slowest command)"
    return statistics.median(per_cmd) * 1e3, tail * 1e3, f"{label} of {n} commands"


def kind_seconds(workload, passes) -> dict[str, float]:
    """Median seconds per pass spent in each command kind."""
    out = {}
    for kind in COMMAND_KINDS:
        idx = [k for k, c in enumerate(workload.commands) if c.kind == kind]
        out[f"{kind}_s"] = statistics.median(sum(p[k] for k in idx) for p in passes)
    return out


def measure(runner: Runner, seconds: float, trace: bool):
    """Alternate untraced and (with ``trace``) traced passes for ``seconds``.

    Returns the calibrated per-command seconds of each untraced pass, and
    (calibrated pass seconds, layer metrics) for each traced pass.
    """
    untraced, traced = [], []
    tracer = tracing.Tracer() if trace else None
    start = perf_counter()
    index = 0
    while True:
        if trace and index % 2 == 1:
            tracer.install()
            first = len(tracer.spans)
            tracer.counts.clear()
            try:
                times = runner.run_pass(index)
            finally:
                tracer.uninstall()
            # scale the layers' times as the pass's commands were scaled
            scale = sum(times) / runner.raw_pass_s[-1]
            layers = tracing.layer_metrics(tracer.spans, first, tracer.counts)
            for name in layers:
                if name.endswith(("_s", "us_per_element")):
                    layers[name] *= scale
            traced.append((sum(times), layers))
        else:
            untraced.append(runner.run_pass(index))
        index += 1
        if perf_counter() - start >= seconds and (traced or not trace):
            return untraced, traced, tracer, index


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    if cli is None:
        print(f"error: no freequandle package under {SRC}", file=sys.stderr)
        return 1

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, cli, work: Path) -> int:
    start = perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    runner = Runner(workload, cli, work)
    print(f"workload {workload.name} seed {args.seed}: {len(workload.problems)} problems, "
          f"{len(workload.commands)} commands per pass (inputs in {perf_counter() - start:.2f} s)")

    untraced, traced, tracer, passes = measure(runner, args.seconds, bool(args.trace))
    metrics: dict[str, dict] = {}
    pass_s = statistics.median(sum(p) for p in untraced)
    if not args.trace:
        p50, tail, tail_label = latency_summary(untraced)
        metrics["pass_s"] = metric(pass_s, "s")
        metrics["cmd_p50_ms"] = metric(p50, "ms")
        metrics["cmd_tail_ms"] = metric(tail, "ms")
        metrics["peak_rss_mb"] = metric(runner.peak_rss_mb(passes), "MB")
        metrics["setup_s"] = metric(setup_seconds(), "s")
        print(f"{len(untraced)} passes; cmd_tail_ms is the {tail_label}; uncalibrated "
              f"pass_s {statistics.median(runner.raw_pass_s):.4f}")
    else:
        for name, value in kind_seconds(workload, untraced).items():
            metrics[name] = metric(value, "s")
        layers = [m for _, m in traced]
        for name in layers[0]:
            unit = ("us" if name.endswith("us_per_element") else
                    "s" if name.endswith("_s") else "count")
            metrics[name] = metric(statistics.median(m[name] for m in layers), unit)
        traced_pass_s = statistics.median(t for t, _ in traced)
        metrics["trace.pass_s"] = metric(traced_pass_s, "s")
        metrics["trace.overhead_share"] = metric(traced_pass_s / pass_s - 1, "ratio")
        import freequandle.conj_quandle as cq
        import freequandle.free_group as fg
        calibration = Calibration()
        start = perf_counter()
        kernel, errors = kernels.kernel_metrics(fg, cq, args.seed)
        calibration.after(perf_counter() - start)
        runner.record("kernel micro-benchmark", errors)
        for name, value in kernel.items():
            metrics[name] = metric(value * calibration.scale(), "us")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{workload.name}-seed{args.seed}.jsonl")
        print(f"{len(untraced)} untraced and {len(traced)} traced passes; spans in {out_dir}")
        if tracer.unbound:
            print(f"not traced (missing): {', '.join(tracer.unbound)}")

    print(f"failed_share {runner.failed / runner.attempted:.4f} "
          f"({runner.failed} of {runner.attempted} commands)")
    for line in runner.complaints:
        print(f"FAILED {line}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
