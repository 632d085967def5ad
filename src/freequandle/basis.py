"""Free-basis computation for a bounded subquandle closure.

Two methods produce a candidate basis: the tail-filter construction
(keep, per axis, exactly the closure tails no closure element can
shorten) and a greedy shrink of the input generators.  Either candidate
is only *certified* after the fact: generation witnesses for every input
generator must replay, and both independence checkers must pass.

The tail filter keeps exactly the loop elements B of the generators'
folded graph (:mod:`stallings`, F3 and F4), so :func:`compute_S` reads B
off the graph and needs of the closure only the prefix that holds B: the
closure stopped once B is in it (``stop_when_contains``).  This module
sets no element budget; its closures inherit that of the one given.
"""

from __future__ import annotations

from .conj_quandle import QuandleElement, act, to_group_word
from .errors import NotInClosure
from .independence import IndependenceReport, check_significant_factors, nielsen_independent
from .free_group import Word, _Value
from .stallings import SubquandleGraph
from .subquandle import ClosureSet, QuandleTerm, closure, express

METHOD_PAPER = "paper"
METHOD_GREEDY = "greedy"


class ShrinkMove(_Value):
    """One tail-shortening step: result = act(target, by, eps)."""

    target: QuandleElement
    by: QuandleElement
    eps: int
    result: QuandleElement


class BasisReport(_Value):
    input_generators: tuple[QuandleElement, ...]
    bound: int
    candidate: tuple[QuandleElement, ...]
    method: str
    witnesses: dict[QuandleElement, QuandleTerm | None]
    hall_verdict: IndependenceReport
    nielsen_verdict: IndependenceReport
    moves: tuple[ShrinkMove, ...] = ()
    stable: bool | None = None  # candidate unchanged when recomputed at bound+2

    @property
    def missing_witnesses(self) -> tuple[QuandleElement, ...]:
        return tuple(g for g, t in self.witnesses.items() if t is None)

    @property
    def certified(self) -> bool:
        return (self.hall_verdict.passed and self.nielsen_verdict.passed
                and not self.missing_witnesses)


def compute_T(axis: int, c: ClosureSet) -> list[Word]:
    """Closure tails on the given axis that no closure element can shorten:
    those with no shrinker in the closure (:meth:`ClosureSet.shrinkers`),
    so no move is built.  It reads c's raw elements and wraps only the
    tails it keeps."""
    return [Word(c.alphabet, t) for a, t in c.raw if a == axis and not c.shrinkers(t)]


def _tail_filter(c: ClosureSet) -> tuple[QuandleElement, ...]:
    """The per-axis non-shrinkable tails of c, axis by axis."""
    return tuple(QuandleElement(axis, w)
                 for axis in range(len(c.alphabet)) for w in compute_T(axis, c))


def _report(c: ClosureSet, candidate, method, sub, **extra) -> BasisReport:
    """c's generators expressed in sub (None if absent), and both verdicts."""
    return BasisReport(
        input_generators=c.generators,
        bound=c.bound,
        candidate=candidate,
        method=method,
        witnesses={g: express(sub, g) if g in sub else None for g in c.generators},
        hall_verdict=check_significant_factors(candidate),
        nielsen_verdict=nielsen_independent(map(to_group_word, candidate)),
        **extra,
    )


def compute_S(c: ClosureSet, check_stability: bool = False) -> BasisReport:
    """Candidate basis from the per-axis non-shrinkable tails.

    c may be any closure of its generators that holds the loop elements B
    of their folded graph: the whole closure, or a prefix that stopped
    once B was in it (``cli.cmd_basis`` builds that one).  By F3 and F4 (see
    :mod:`stallings`) B is exactly the tail filter of the whole closure
    (:func:`_tail_filter`).  Its order is the filter's: axis by axis, then
    closure order, and a stopped closure is a prefix of the whole one, so
    the indices agree.  If c lacks an element of B, this raises
    :class:`NotInClosure`.

    The candidate is certified a posteriori: generation witnesses for the
    input generators are built from a re-closure of the candidate at the
    same bound, and both independence checkers run on the candidate.  No
    witness can be missing: each shrinkable element e of c is
    act(e', q, -eps) for the shorter elements e' = act(e, q, eps) and q of
    c, so by induction on tail length the re-closure regenerates all of c
    within the bound.  The witness check stays as a guard.  Nor can the
    significant-factor check fail: it fails exactly when one element of the
    set shortens another (:func:`conj_quandle.shrinkers`), and no candidate
    element does, so it too stays as a guard.

    Nor can the stability check say no (F4).  Let C be the candidate, with
    both guards passed, and L' >= L; then ``closure(S, L')`` is
    ``Q(S) ∩ ball(L')`` and its tail filter is C.  No product of two
    C-words ``t^-1 x t`` (or inverses) cancels past a central letter, so
    every central letter survives in every reduced product of them: C is
    Nielsen reduced, hence a free basis of ``<C>`` (Lyndon–Schupp I.2), and
    a reduced product is longer than each of its reduced subproducts.  As
    C lies in ``closure(S, L)`` and regenerates S, ``Q(C) = Q(S)``, whose
    members are the ``c^V`` with V reduced over the C-words and not
    starting with c's word or its inverse.  If V is nonempty, acting by
    its last factor's element removes that factor and shortens the tail;
    and no element of ``Q(C)`` shortens an element of C.  Since
    ``C ⊆ closure(S, L) ⊆ closure(S, L')``, induction on tail length puts
    every member within L' in ``closure(S, L')``, and the filter there
    keeps exactly C.  So ``stable`` is yes at every bound the CLI accepts.

    The closures built here (at L + 2 for the stability check, and the
    witness re-closure) inherit c's element budget.
    """
    basis = c.graph.basis()
    at = {(e.axis, c.index[e.axis][e.tail.letters]): e for e in basis if e in c}
    candidate = tuple(at[k] for k in sorted(at))  # axis by axis, then closure order
    if len(candidate) < len(basis):
        absent = ", ".join(sorted(map(str, basis.difference(candidate))))
        raise NotInClosure(f"the closure at bound L = {c.bound} lacks the basis "
                           f"elements {absent}")
    stable = None
    if check_stability:
        bigger = closure(c.graph, c.bound + 2, c.max_elements)
        stable = set(_tail_filter(bigger)) == set(candidate)
    # stops once every generator is found: a prefix of the full closure
    # with the same derivations, or all of it if some generator is missing
    sub = closure(candidate, c.bound, c.max_elements, stop_when_contains=c.generators)
    return _report(c, candidate, METHOD_PAPER, sub, stable=stable)


def greedy_shrink(c: ClosureSet) -> BasisReport:
    """Shrink the generators of c against their own bounded closure.

    The working set starts as c's (deduped) generators, with c as its
    closure.  Each step takes the first target, in working order, that a
    shrinker in the working closure lying in the subquandle of the other
    working elements shortens (read on their folded graph,
    :meth:`SubquandleGraph.member`), and the first such shrinker in
    closure order; it replaces the target by the move's result, re-dedupes
    and re-closes.  The shrinkers are read off the working closure
    (:meth:`ClosureSet.shrinkers`).  A shrinker ``y^u`` shortens a tail
    with one eps only, since the tail ends with ``y^-eps u``
    (:func:`conj_quandle.shrinkers`): eps is minus the sign of the letter
    of the tail before u.  A result of equal length cannot occur (odd group
    words flip tail parity).  The target is that result acted on by the same
    shrinker with -eps, so every move keeps the subquandle of the working
    set that of the input.  Total tail length strictly decreases, so the
    loop terminates.  The witnesses come from the last working closure,
    the candidate's subquandle within L (F4), so none is missing; the
    check stays as a guard.  Once no move is left, no candidate element
    shortens another, as each lies in the subquandle of the others.  Each
    working closure inherits c's bound and element budget.
    """
    working = list(c.generators)
    wc = c
    moves: list[ShrinkMove] = []
    while True:
        for ti, target in enumerate(working):
            hits = wc.shrinkers(target.tail.letters)
            if hits:  # the others fold only for a target that has shrinkers
                rest = SubquandleGraph(working[:ti] + working[ti + 1:])
                shrinkers = (QuandleElement(a, Word(wc.alphabet, t))
                             for a, t in (wc.raw[k] for k in hits))
                q = next(filter(rest.member, shrinkers), None)
                if q is not None:
                    break
        else:
            break
        eps = -1 if target.tail.letters[-len(q.tail) - 1] > 0 else 1
        mv = ShrinkMove(target, q, eps, act(target, q, eps))
        moves.append(mv)
        working[ti] = mv.result
        working = list(dict.fromkeys(working))
        wc = closure(working, c.bound, c.max_elements)

    return _report(c, tuple(working), METHOD_GREEDY, wc, moves=tuple(moves))
