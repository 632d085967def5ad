"""The folded Stallings graph of a subgroup of a free group, and what it
says about the subquandle a finite set of elements generates.

A reduced word lies in a finitely generated subgroup H iff it labels a
closed path at the base of H's folded graph, which is unique whatever the
order of the folds (Stallings 1983; Kapovich–Myasnikov 2002).
:class:`_Folding` builds that graph; :class:`SubquandleGraph` reads it for
``S = {x_s^(t_s)}`` and ``H = <gw(S)>``, where ``gw(x^t) = t^-1 x t``.
Write Γ for its graph and ``p_s`` for the vertex that reading ``t_s^-1``
from the base reaches.

**F1: a tree plus loops.**  In Γ the ``x_s`` edge at ``p_s`` is a loop, and
Γ is a spanning tree plus exactly the distinct loops ``(p_s, x_s)``.
Before any fold, Γ is the wedge of lollipops: a stem ``t_s^-1`` from the
base, then an ``x_s``-loop.  That is a tree plus loops, and every fold keeps
the shape.  Two tree edges at v with one label merge their far ends, which
leaves a tree.  A tree edge at v beside a loop with its label is
contracted into the loop, so one loop is left.  Two equal loops become one.
So the rank of H is the number of loops.

Call ``b_p = x^(w_p^-1)`` the element of the loop ``(p, x)``, where ``w_p``
labels the tree path from the base to p: ``gw(b_p)`` is that path, the
loop, and the path back.  ``b_p`` is canonical: its tail would start with
``x^±1`` only if the path entered p by an x edge, and p's x edges are the
loop.  Replay the folds from the wedge, where the loop elements are S.  A
tree-tree fold changes no path label, and two equal loops have equal
elements.  Contracting a tree edge labelled ``a`` into the a-loop at v
removes that letter from the path of every vertex beyond the edge, seen
from the base.  If v is beyond it, ``b_v``'s canonical form already lacks
the letter.  Every other loop element beyond it is acted on by ``b_v``,
once, and gets shorter.  So every loop element of Γ comes from
S by actions that shorten, and S from them by the inverse actions:
``Q(B) = Q(S)`` for the loop elements B.

**F2: membership.**  ``x^v`` is in ``Q(S)`` iff reading ``v^-1`` from the
base reads every letter and stops at a vertex with an x-loop.  Acting on
``x^u`` by ``y^w`` prefixes ``u^-1`` with ``w^-1 y^±1 w``, a walk out to
a y-loop, around it and back, so members keep the property, and the
elements of S have it.  Conversely, split the walk of ``v^-1`` at its loop
crossings ``y_i^(e_i)`` at ``p_i``.  In the group, ``v^-1`` is the product
of the ``gw(b_(p_i))^(e_i)`` and then ``w_p``, so ``x^v`` is ``b_p`` acted
on by the ``b_(p_i)``, last crossing first: it is in ``Q(B) = Q(S)``.

**F3: the paper's basis.**  A member is shortened by a member iff its read
path crosses a loop.  ``x^u`` is shortened by ``y^w`` with eps iff u ends
with ``y^-eps w`` (:func:`conj_quandle.shrinkers`), and then the read path
of ``u^-1`` crosses the y-loop that ``w^-1`` leads to.  Before its first
crossing the path is a reduced walk in the tree, so it is ``w_p`` itself,
and ``b_p`` shortens the member.  So the members no member shortens are the
loop elements: B, one per loop, is the set of non-shrinkable members.

**F4: the closure is exact.**  ``closure(S, L)`` is ``Q(S) ∩ ball(L)`` for
every L at least the longest tail in S, which is every L that
:func:`subquandle.closure` accepts.  The replay of F1 starts in S and only
shortens, so it stays within L, and the closure is closed under the
actions that land within L: B lies in ``closure(S, L)``.  A shortest member
within L missing from the closure is not in B, so by F3 some ``b_p``
shortens it.  Both ``b_p`` and the result are shorter members, so both are
in the closure, and so is the member, their product: a contradiction.

So ``|closure(S, L)|`` is a count (:meth:`SubquandleGraph.size_within`): by
F2 the members ``x^v`` within L are the reduced words ``w = v^-1``, at most
L long, that read from the base to an x-loop and do not end in ``x^±1``
(v is canonical).  In a folded graph a reduced word read from the base is
a walk that never turns straight back, and distinct words are distinct
walks.
"""

from __future__ import annotations

from functools import cached_property

from . import free_group as fg
from .conj_quandle import QuandleElement
from .errors import EmptyGeneratorSet
from .free_group import Word


class _Folding:
    """The folded Stallings graph of the subgroup ``<words>`` of reduced
    words, grown one word at a time.

    Each word becomes a loop at the base, folded as it is added
    (:meth:`add`), so ``t^-1 x t`` adds ``|t|`` vertices, not ``2|t|``.
    Vertex 0 is the base.  ``out[v]`` maps a letter to the target of the
    edge labelled with it at v, both directions stored.  Merged vertices go
    under a union-find root and edge targets may be stale, so every read
    resolves them with :meth:`find`.

    The word's longest known prefix is read from the base, and its longest
    known suffix backwards from the base.  Merges can put the base under
    another union-find root, so both reads start at the base's root and
    resolve every edge target.  The ends of an unread middle ``a ... a^-1``
    that sit on one vertex share a new stem vertex; the rest of the middle
    becomes a fresh path.  Vertices are merged only when a word closes
    without a middle, its two ends apart.
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


class SubquandleGraph:
    """The folded graph of ``<gw(S)>`` for a non-empty sequence S of elements
    of one alphabet, read as a tree plus loops (F1).

    ``loops`` maps each loop ``(root, axis letter)`` to the index in S of the
    first element whose word made it.
    """

    def __init__(self, elements):
        self.generators = tuple(elements)
        if not self.generators:
            raise EmptyGeneratorSet("a subquandle graph needs at least one element")
        self.alphabet = fg.one_alphabet(self.generators, "elements")
        self.fold = fold = _Folding(
            fg.conjugate_word(g.axis, g.tail.letters) for g in self.generators)
        base = fold.find(0)
        self.loops: dict[tuple[int, int], int] = {}
        for k, g in enumerate(self.generators):
            p, _ = fold.read(base, fg.inverse(g.tail.letters))
            self.loops.setdefault((p, g.axis + 1), k)

    def member(self, e: QuandleElement) -> bool:
        """Whether e is in the subquandle S generates (F2): exact, at any
        tail length.  An e from another alphabet raises
        :class:`errors.AlphabetMismatch`."""
        fg.one_alphabet((e, self.generators[0]), "element and generators")
        fold = self.fold
        p, k = fold.read(fold.find(0), fg.inverse(e.tail.letters))
        return k == len(e.tail) and (p, e.axis + 1) in self.loops

    def basis(self) -> frozenset[QuandleElement]:
        """The members no member shortens (F3): ``x^(w_p^-1)`` for each loop
        ``(p, x)``, where ``w_p`` labels the tree path from the base to p.
        They are built once per graph.

        ``w_p`` is read off the loop's first element ``x^t``: the walk of
        ``t^-1`` reaches p, and with its loop crossings left out it is a
        walk in the tree, which reduces to the tree path.
        """
        return self._basis

    @cached_property
    def _basis(self) -> frozenset[QuandleElement]:
        fold = self.fold
        out, find = fold.out, fold.find
        base = find(0)
        basis = set()
        for (p, x), k in self.loops.items():
            v, steps = base, []
            for lt in fg.inverse(self.generators[k].tail.letters):
                t = find(out[v][lt])
                if t != v:  # not a loop crossing
                    steps.append(lt)
                v = t
            path = fg.reduced_product((), steps)
            basis.add(QuandleElement(x - 1, Word(self.alphabet, fg.inverse(path))))
        return frozenset(basis)

    def size_within(self, bound: int, cap: int | None = None) -> int:
        """The number of members with a tail of at most ``bound`` letters,
        which is ``len(closure(S, bound))`` at every bound closure accepts
        (F4).  With ``cap``, counting stops once the count passes it, and a
        count above ``cap`` is returned.

        With one loop, the subquandle is that loop's element alone.  The
        general count gives the same number, but a count of at most 1 never
        passes a cap, so it would step through every length up to
        ``bound``: 10**9 steps for ``size_within(10**9)``.  With more, a DP
        over the walks' last edges (in a folded graph, the vertex and the
        last letter) counts, length by length, the walks from the
        base that never turn straight back: those that go on from v by lt
        are those that end at v, less those that entered v by ``lt^-1``.
        Each walk adds its vertex's x-loops with x not its last letter.
        Their number grows exponentially with the length, so a cap ends the
        count after a few steps.
        """
        if len(self.loops) == 1:
            (k,) = self.loops.values()
            return int(len(self.generators[k].tail) <= bound)
        fold = self.fold
        edges = [(v, lt, fold.find(t))  # a merged vertex has none
                 for v, out in enumerate(fold.out) for lt, t in out.items()]
        index = {(v, lt): e for e, (v, lt, _) in enumerate(edges)}
        rev = [index[t, -lt] for _, lt, t in edges]
        loops = [(v, e, rev[e]) for e, (v, lt, t) in enumerate(edges)
                 if t == v and lt > 0]
        ending = [0] * len(fold.out)  # the walks that end at each vertex
        ending[fold.find(0)] = 1  # the empty walk
        walks = [0] * len(edges)  # the walks that end with each edge
        total = 0
        for length in range(bound + 1):
            for v, e, r in loops:  # the walks to v not ending in x^±1
                total += ending[v] - walks[e] - walks[r]
            if cap is not None and total > cap or length == bound:
                break
            # no walk turns straight back: none that entered v by lt^-1
            walks = [ending[v] - walks[r] for (v, _, _), r in zip(edges, rev)]
            ending = [0] * len(fold.out)
            for (_, _, t), n in zip(edges, walks):
                ending[t] += n
        return total
