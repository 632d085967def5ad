"""Seeded micro-benchmark of the package's word kernel: reduce, multiply, act.

Each operation runs on fixed batches of random inputs with words of 8 and
32 letters; the figure is the median over repeats of the time per
operation.  Every result is compared with the oracle once.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import oracle as O
from workloads import random_element

LETTERS = 3
BATCH = 400
REPEATS = 9


def _random_letters(rng: random.Random, n: int) -> list[int]:
    return [rng.choice((1, -1)) * (rng.randrange(LETTERS) + 1) for _ in range(n)]


def _per_op_us(fn, items) -> float:
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        for item in items:
            fn(*item)
        times.append(perf_counter() - start)
    return statistics.median(times) / len(items) * 1e6


def kernel_metrics(fg, cq, seed: int) -> tuple[dict[str, float], list[str]]:
    """Metrics ``kernel.<op>_us.len<n>`` and a list of wrong results."""
    rng = random.Random(seed)
    ab = fg.Alphabet(tuple(f"k{i}" for i in range(LETTERS)))
    metrics: dict[str, float] = {}
    errors: list[str] = []
    for n in (8, 32):
        raws = [_random_letters(rng, n) for _ in range(BATCH)]
        pairs = [(random_element(rng, LETTERS, n, n)[1], random_element(rng, LETTERS, n, n)[1])
                 for _ in range(BATCH)]
        elems = [(random_element(rng, LETTERS, n, n), random_element(rng, LETTERS, n, n),
                  rng.choice((1, -1))) for _ in range(BATCH)]

        reduce_in = [(ab, raw) for raw in raws]
        multiply_in = [(fg.Word(ab, u), fg.Word(ab, v)) for u, v in pairs]
        act_in = [(cq.QuandleElement(a[0], fg.Word(ab, a[1])),
                   cq.QuandleElement(q[0], fg.Word(ab, q[1])), eps) for a, q, eps in elems]

        if any(fg.reduce(*x).letters != O.reduce(raw) for x, raw in zip(reduce_in, raws)):
            errors.append(f"reduce differs from the oracle at length {n}")
        if any(fg.multiply(*x).letters != O.reduce(u + v)
               for x, (u, v) in zip(multiply_in, pairs)):
            errors.append(f"multiply differs from the oracle at length {n}")
        if any((r.axis, r.tail.letters) != O.act(a, q, eps)
               for r, (a, q, eps) in zip((cq.act(*x) for x in act_in), elems)):
            errors.append(f"act differs from the oracle at length {n}")

        metrics[f"kernel.reduce_us.len{n}"] = _per_op_us(fg.reduce, reduce_in)
        metrics[f"kernel.multiply_us.len{n}"] = _per_op_us(fg.multiply, multiply_in)
        metrics[f"kernel.act_us.len{n}"] = _per_op_us(cq.act, act_in)
    return metrics, errors
