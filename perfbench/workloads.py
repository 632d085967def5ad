"""Seeded benchmark inputs: problems, command lists and per-pass input files.

Inputs come from :mod:`oracle` and :mod:`random` alone, so a change to the
package cannot change what the benchmark feeds it.

Every workload's problems are fixed: the random ones are drawn from
``POOL_SEED``.  The run's seed draws the letter names, and every pass renames
them again.  The encoded words, and so the work, stay the same across seeds
and passes, so runs with different seeds measure the same thing, while nothing
a pass leaves in the process (a cache keyed by the parsed alphabet, say) can
serve the next one.  Problems drawn per seed would not do: the checkers'
cost varies tenfold between random sets of one size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import oracle as O

NAME_POOL = "abcdefghjkmnpqrstuvw"
POOL_SEED = 20190415


@dataclass(frozen=True)
class Problem:
    """Elements over the first ``letters`` generators, written one per line."""

    letters: int
    elements: tuple
    bound: int = 8


@dataclass(frozen=True)
class Command:
    kind: str            # closure, basis_paper, basis_greedy, express or check
    problem: int
    stability: bool = False
    target: tuple | None = None   # the element an express command asks for


@dataclass
class Workload:
    name: str
    problems: list[Problem]
    commands: list[Command]
    letter_base: list[str]   # one name per letter, suffixed with the pass index

    def names(self, pass_index: int) -> list[str]:
        return [f"{c}{pass_index:03d}" for c in self.letter_base]

    def problem_text(self, i: int, names) -> str:
        p = self.problems[i]
        lines = ["alphabet: " + " ".join(names[:p.letters])]
        lines += [O.format_element(names, e) for e in p.elements]
        return "\n".join(lines) + "\n"

    def write_pass(self, directory: Path, pass_index: int) -> list[Path]:
        """Write this pass's input files; returns one path per problem."""
        directory.mkdir(parents=True, exist_ok=True)
        names = self.names(pass_index)
        paths = []
        for i in range(len(self.problems)):
            path = directory / f"p{i:03d}.txt"
            path.write_text(self.problem_text(i, names), encoding="utf-8")
            paths.append(path)
        return paths

    def argv(self, cmd: Command, path: Path, names) -> list[str]:
        bound = str(self.problems[cmd.problem].bound)
        common = ["--max-tail-len", bound, "--format", "machine"]
        if cmd.kind == "closure":
            return ["closure", str(path)] + common
        if cmd.kind in ("basis_paper", "basis_greedy"):
            method = "paper" if cmd.kind == "basis_paper" else "greedy"
            extra = ["--check-stability"] if cmd.stability else []
            return ["basis", str(path), "--method", method] + extra + common
        if cmd.kind == "express":
            return ["express", str(path), O.format_element(names, cmd.target)] + common
        if cmd.kind == "check":
            return ["check-independence", str(path), "--method", "both",
                    "--format", "machine"]
        raise ValueError(f"unknown command kind {cmd.kind}")


def _letter_base(rng: random.Random, count: int) -> list[str]:
    return rng.sample(NAME_POOL, count)


def random_element(rng: random.Random, letters: int, lo: int, hi: int) -> tuple:
    """A canonical element with a uniformly random reduced tail of length lo..hi."""
    axis = rng.randrange(letters)
    length = rng.randint(lo, hi)
    tail: list[int] = []
    while len(tail) < length:
        lt = rng.choice((1, -1)) * (rng.randrange(letters) + 1)
        if (tail and tail[-1] == -lt) or (not tail and abs(lt) == axis + 1):
            continue
        tail.append(lt)
    return (axis, tuple(tail))


# -- deep-closure ------------------------------------------------------------

# The three baseline problems of the roadmap, as (letters, generators, L):
# {x^(y), y} at L=6, {x^(y z), y^(z), z^(x)} at L=6, {x^(y), y^(z x), z} at L=9.
DEEP_PROBLEMS = (
    (2, ((0, (2,)), (1, ())), 6),
    (3, ((0, (2, 3)), (1, (3,)), (2, (1,))), 6),
    (3, ((0, (2,)), (1, (3, 1)), (2, ())), 9),
)


def deep_closure(seed: int) -> Workload:
    problems = [Problem(k, gens, bound) for k, gens, bound in DEEP_PROBLEMS]
    commands = []
    for i in range(len(problems)):
        commands += [Command("closure", i), Command("basis_paper", i)]
    return Workload("deep-closure", problems, commands,
                    _letter_base(random.Random(seed), 3))


# -- many-small --------------------------------------------------------------

MANY_SMALL_COUNT = 60
MANY_SMALL_BOUND = 8
MANY_SMALL_BUDGET = 400   # closure elements at L+2, where the stability check runs


def _scrambled_problem(rng: random.Random) -> Problem | None:
    letters = rng.randint(2, 3)
    gens = [random_element(rng, letters, 0, 2) for _ in range(rng.randint(2, 3))]
    if len(set(gens)) < len(gens):
        return None
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(len(gens)), 2)
        gens[i] = O.act(gens[i], gens[j], rng.choice((1, -1)))
    if len(set(gens)) < len(gens) or max(len(g[1]) for g in gens) > MANY_SMALL_BOUND:
        return None
    try:
        O.closure(gens, MANY_SMALL_BOUND + 2, budget=MANY_SMALL_BUDGET)
    except O.TooLarge:
        return None
    return Problem(letters, tuple(gens), MANY_SMALL_BOUND)


def many_small(seed: int) -> Workload:
    """Small scrambled problems: each generator set had 1-3 random moves
    ``g_i <- act(g_i, g_j, +-1)`` applied, so the greedy method has work."""
    rng = random.Random(POOL_SEED)
    problems: list[Problem] = []
    while len(problems) < MANY_SMALL_COUNT:
        p = _scrambled_problem(rng)
        if p is not None:
            problems.append(p)
    commands = []
    for i, p in enumerate(problems):
        closed = O.closure(p.elements, p.bound)
        longest = max(len(e[1]) for e in closed)
        target = rng.choice(sorted(e for e in closed if len(e[1]) == longest))
        commands += [Command("basis_paper", i, stability=True),
                     Command("basis_greedy", i),
                     Command("express", i, target=target),
                     Command("closure", i)]
    return Workload("many-small", problems, commands,
                    _letter_base(random.Random(seed), 3))


# -- certify-wide ------------------------------------------------------------

CERTIFY_COUNT = 60
DERIVED_SHARE = 0.35


def _derived_element(rng: random.Random, base: list) -> tuple | None:
    """A random walk of actions over ``base`` that lands on a tail of 6-10."""
    for _ in range(200):
        e = rng.choice(base)
        for _ in range(12):
            e = O.act(e, rng.choice(base), rng.choice((1, -1)))
            if 6 <= len(e[1]) <= 10:
                return e
            if len(e[1]) > 10:
                break
    return None


def certify_wide(seed: int) -> Workload:
    """Element sets of 8-30 elements with tails 6-10 over 3-4 letters.

    About a third of the elements are derived from a 2-3 element base, so
    a set holding more derived elements than its base is dependent, and
    larger sets are dependent more often.
    """
    rng = random.Random(POOL_SEED)
    problems = []
    for _ in range(CERTIFY_COUNT):
        letters = rng.randint(3, 4)
        size = rng.randint(8, 30)
        base = sorted({random_element(rng, letters, 1, 2)
                       for _ in range(rng.randint(2, 3))})
        elements: set = set()
        while len(elements) < size:
            e = _derived_element(rng, base) if rng.random() < DERIVED_SHARE else None
            elements.add(e or random_element(rng, letters, 6, 10))
        problems.append(Problem(letters, tuple(sorted(elements))))
    commands = [Command("check", i) for i in range(len(problems))]
    return Workload("certify-wide", problems, commands,
                    _letter_base(random.Random(seed), 4))


WORKLOADS = {
    "deep-closure": deep_closure,
    "many-small": many_small,
    "certify-wide": certify_wide,
}
