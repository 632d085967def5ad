"""Two independent checkers for independence of group words.

A set that passes the significant-factor checker is a basis of the subgroup
it generates; a FAIL means "criterion inapplicable with central factors",
not "dependent".  The exact checker passes iff the rank ``E - V + 1`` of the
words' folded Stallings graph equals the number of distinct words, and so
decides independence.

The graph stays folded as each word is added: the word's longest known
prefix is read from the base, and its longest known suffix backwards from
the base.  Merges can put the base under another union-find root, so both
reads start at the base's root and resolve every edge target.  The ends of
an unread middle ``a ... a^-1`` that sit on one vertex share a new stem
vertex; the rest of the middle becomes a fresh path.  Vertices are merged
only when a word closes without a middle, its two ends apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .conj_quandle import shrink_index, shrinkers, to_group_word
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
    its inverses, u != v^-1, must leave both marked letters uncancelled: it
    fails iff its cancellation depth exceeds min(|t_u|, |t_v|), so stopping
    exactly at a marked letter passes.

    The documented scan order takes the products of two elements of the
    set, (a, b) row by row, before every product with an inverse; the
    report names the first failing product in it.  That is always a product
    of two elements, the least failing (a, b), read off the set's shrink
    index (:func:`conj_quandle.shrinkers`): linear in total letters.
    """
    elements = list(elements)
    if not elements:
        raise ValueError("need at least one element")
    failing = min(_failing_pairs(elements), default=None)
    if failing is None:
        return IndependenceReport("hall", True, detail="all pairwise products pass")

    u, v = (elements[i] for i in failing)
    c = cancellation_depth(to_group_word(u).letters, to_group_word(v).letters)
    return IndependenceReport(
        "hall", False,
        detail=f"cancellation in {u} · {v} reaches a significant factor (depth {c})",
        failing_pair=(str(u), str(v)),
        cancellation_depth=c,
    )


def _failing_pairs(elements):
    """Failing products elements[a] · elements[b] as (a, b), the least among them."""
    index = shrink_index(elements)
    for k, e in enumerate(elements):
        for j, eps in shrinkers(index, e.tail.letters):
            yield (j, k) if eps == -1 else (k, j)


class _Folding:
    """The folded Stallings graph of the subgroup ``<words>`` of reduced
    words, grown one word at a time.

    Each word becomes a loop at the base, folded as it is added
    (:meth:`add`), so ``t^-1 x t`` adds ``|t|`` vertices, not ``2|t|``.
    Vertex 0 is the base.  ``out[v]`` maps a letter to the target of the
    edge labelled with it at v, both directions stored.  Merged vertices go
    under a union-find root and edge targets may be stale, so every read
    resolves them with :meth:`find`.
    """

    def __init__(self, words=()):
        self.parent = [0]
        self.out: list[dict[int, int]] = [{}]
        for w in words:
            self.add(w)

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def read(self, v: int, letters) -> tuple[int, int]:
        """Follow ``letters`` from the root v as far as edges exist: the root
        reached and the number of letters read.  A reduced word is in the
        subgroup iff reading it from the base's root reads every letter and
        ends there."""
        out, parent = self.out, self.parent
        k = 0
        for lt in letters:
            t = out[v].get(lt)
            if t is None:
                break
            v = t if parent[t] == t else self.find(t)
            k += 1
        return v, k

    def add(self, w: tuple[int, ...]) -> None:
        """Add the reduced word w as a loop at the base, keeping the graph
        folded: read its ends, then add stems and a path, or merge."""
        parent, out = self.parent, self.out
        base = self.find(0)
        p, i = self.read(base, w)
        q, k = self.read(base, (-lt for lt in reversed(w[i:])))
        j = len(w) - k
        if i == j:
            if p != q:
                self._merge(p, q)
            return
        while i < j - 1:  # a new vertex past p: a stem, or the path to q
            lt, v = w[i], len(parent)
            parent.append(v)
            out.append({-lt: p})
            out[p][lt] = v
            if p == q and lt == -w[j - 1]:
                q, j = v, j - 1
            p, i = v, i + 1
        lt = w[i]
        out[p][lt] = q
        out[q][-lt] = p

    def _merge(self, p: int, q: int) -> None:
        """Identify p with q, then fold the duplicate edges that makes."""
        out, parent, find = self.out, self.parent, self.find
        pending = [(p, q)]
        while pending:
            a, b = (find(v) for v in pending.pop())
            if a != b:
                parent[b] = a
                for lt, t in out[b].items():
                    kept = out[a].setdefault(lt, t)
                    if kept != t:
                        pending.append((kept, t))
                out[b] = {}

    def rank(self) -> int:
        """``E - V + 1`` over the roots."""
        roots = [v for v in range(len(self.parent)) if self.parent[v] == v]
        return sum(len(self.out[v]) for v in roots) // 2 - len(roots) + 1


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
    rank = _Folding(distinct).rank()
    return IndependenceReport(
        "nielsen", rank == len(distinct),
        detail=f"{len(distinct)} distinct words generate a subgroup of rank {rank}")

