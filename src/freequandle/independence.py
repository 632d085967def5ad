"""Two independent checkers for independence of group words.

The significant-factor checker marks the central letter of each conjugate
and fails a product u·v (u != v^-1, found through v's partner entry v^-1)
that cancels to a depth > min(|t_u|, |t_v|), i.e. reaches a marked letter;
a set that passes is a basis of the subgroup it generates.  The exact
checker passes iff the rank ``E - V + 1`` of the words' folded Stallings
graph equals the number of distinct words.

A significant-factor FAIL means "criterion inapplicable with central
factors", not "dependent"; the exact verdict decides independence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import free_group as fg
from .conj_quandle import to_group_word
from .errors import EmptyInputWord
from .free_group import cancellation_depth


@dataclass(frozen=True)
class IndependenceReport:
    method: str  # "hall" or "nielsen"
    passed: bool
    detail: str = ""
    failing_pair: Optional[tuple[str, str]] = None
    cancellation_depth: Optional[int] = None


def check_significant_factors(elements) -> IndependenceReport:
    """Check the central-letter significant-factor criterion on a set.

    The marked letter of x^t, and of its inverse, is the central x, with
    |t| letters on each side.  Every ordered product u·v over the set and
    its inverses must leave both marked letters uncancelled: it fails iff
    its cancellation depth exceeds min(|t_u|, |t_v|), so stopping exactly
    at a marked letter passes.  The excluded pairs u = v^-1 are found by
    comparing u with v's partner entry, the word of v^-1.
    """
    elements = list(elements)
    if not elements:
        raise ValueError("need at least one element")

    # (label, letters, |t|); entry k + n is the inverse of entry k
    n = len(elements)
    signed = [(str(e), fg.conjugate_word(e.axis, e.tail.letters), len(e.tail))
              for e in elements]
    signed += [(f"({label})^-1", fg.inverse(w), half) for label, w, half in signed]

    # scan the positive-positive pairs first so failures are reported on
    # elements of the set itself whenever possible
    pairs = [(a, b) for a in range(n) for b in range(n)]
    pairs += [(a, b) for a in range(2 * n) for b in range(2 * n) if a >= n or b >= n]
    for a, b in pairs:
        label_u, u, half_u = signed[a]
        label_v, v, half_v = signed[b]
        if u == signed[(b + n) % (2 * n)][1]:
            continue  # the excluded pairs u = v^-1
        c = cancellation_depth(u, v)
        if c > min(half_u, half_v):
            return IndependenceReport(
                "hall", False,
                detail=(f"cancellation in {label_u} · {label_v} reaches a "
                        f"significant factor (depth {c})"),
                failing_pair=(label_u, label_v),
                cancellation_depth=c,
            )
    return IndependenceReport("hall", True, detail="all pairwise products pass")


def _folded_rank(words) -> int:
    """Rank ``E - V + 1`` of the Stallings graph of the subgroup ``<words>``.

    Each word becomes a loop at the base vertex 0.  Two edges with the same
    label at a vertex are folded into one: the duplicate is dropped and its
    target merged (union-find) with the kept edge's target, until none remain.
    """
    parent: list[int] = []
    out: list[dict[int, int]] = []  # out[v][letter] = target; both directions
    pending: list[tuple[int, int]] = []  # pairs of vertices to merge

    def vertex() -> int:
        parent.append(len(parent))
        out.append({})
        return len(parent) - 1

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def attach(u: int, lt: int, v: int) -> None:
        kept = out[u].setdefault(lt, v)
        if kept != v:
            pending.append((kept, v))

    base = vertex()
    for w in words:
        u = base
        for k, lt in enumerate(w):
            v = base if k == len(w) - 1 else vertex()
            attach(u, lt, v)
            attach(v, -lt, u)
            u = v
    while pending:
        a, b = (find(v) for v in pending.pop())
        if a != b:
            parent[b] = a
            for lt, t in out[b].items():
                attach(a, lt, t)
            out[b] = {}

    roots = [v for v in range(len(parent)) if parent[v] == v]
    return sum(len(out[v]) for v in roots) // 2 - len(roots) + 1


def nielsen_independent(words) -> IndependenceReport:
    """Exact test: pass iff the distinct words are a basis of their subgroup.

    n distinct words generate a free subgroup of rank r <= n, and (free
    groups being Hopfian) they are a basis iff r = n.  So ``{x, x}``
    passes and ``{x, x^-1}`` does not.  The ``nielsen`` name and method
    label stay so that callers and ``--format machine`` output keep working.
    """
    words = list(words)
    if not words:
        raise ValueError("need at least one word")
    for w in words:
        if w.is_identity():
            raise EmptyInputWord("the identity word is not allowed as input")
    distinct = list(dict.fromkeys(w.letters for w in words))
    rank = _folded_rank(distinct)
    return IndependenceReport(
        "nielsen", rank == len(distinct),
        detail=f"{len(distinct)} distinct words generate a subgroup of rank {rank}")


def nielsen_independent_elements(elements) -> IndependenceReport:
    """Run the exact independence check on the group words of quandle elements."""
    return nielsen_independent([to_group_word(e) for e in elements])
