"""Bounded closure of a finitely generated subquandle with derivations.

The closure enumerates every element reachable from the generators by the
two quandle operations whose canonical tail stays within a length bound L.
Membership answers are therefore one-sided: "not found" only means "not
found within L".  Each discovered element carries a derivation record so
it can be expressed as a term over the generators.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import chain

from . import conj_quandle as cq
from . import free_group as fg
from .conj_quandle import QuandleElement, parse_element
from .errors import (
    BoundTooSmall,
    ClosureTooLarge,
    EmptyGeneratorSet,
    NotInClosure,
    WitnessNotFound,
)
from .free_group import Alphabet, Word, _Value
from .stallings import SubquandleGraph

DEFAULT_BOUND = 8

RawElement = tuple[int, tuple[int, ...]]  # (axis, canonical tail letters)


class QuandleTerm(_Value):
    """Expression tree over a generating list; Leaf(i) names generator i."""

    eps: int | None = None
    left: QuandleTerm | None = None
    right: QuandleTerm | None = None
    leaf: int | None = None

    def evaluate(self, generators) -> QuandleElement:
        if self.leaf is not None:
            return generators[self.leaf]
        return cq.act(self.left.evaluate(generators),
                      self.right.evaluate(generators), self.eps)

    def __str__(self) -> str:
        if self.leaf is not None:
            return f"g{self.leaf}"
        op = ">" if self.eps == 1 else "<"
        return f"({self.left} {op} {self.right})"


class ClosureSet(_Value):
    """Deterministic bounded closure with one derivation per non-generator,
    built under a tail bound and an element budget (None: none) that the
    closures ``basis`` derives from it inherit.

    It keeps the enumeration as :func:`_new_elements` left it: element k
    is ``raw[k] = (axis, tail letters)``, the generators first, and
    element ``len(generators) + m`` is ``act(raw[i], raw[j], eps)`` for
    ``steps[m] = (i, j, eps)``.  It also keeps the kernel's table of
    positions, :attr:`index`, which answers membership, positions and
    shrinkers (:meth:`shrinkers`) by lookup.  The objects are built only
    where a caller asks for them: :attr:`elements` wraps every element in
    a validated :class:`QuandleElement` on first use, and
    :attr:`derivations` reads them; the CLI spells, filters, indexes and
    expresses the raw elements.
    """

    generators: tuple[QuandleElement, ...]
    bound: int
    raw: tuple[RawElement, ...]
    steps: tuple[tuple[int, int, int], ...]
    max_elements: int | None = None

    @property
    def alphabet(self) -> Alphabet:
        return self.generators[0].alphabet

    def __len__(self) -> int:
        return len(self.raw)

    def __contains__(self, e: QuandleElement) -> bool:
        """Bounded membership: False means "not found within bound", not a
        proof.  An e from another alphabet raises :class:`errors.AlphabetMismatch`."""
        fg.one_alphabet((e, self.generators[0]), "element and generators")
        return e.tail.letters in self.index[e.axis]

    @cached_property
    def elements(self) -> tuple[QuandleElement, ...]:
        return tuple([QuandleElement(a, Word(self.alphabet, t)) for a, t in self.raw])

    @cached_property
    def derivations(self) -> dict[QuandleElement, tuple[QuandleElement, QuandleElement, int]]:
        """Each non-generator's derivation ``(a, q, eps)``: it is ``act(a, q, eps)``."""
        el, n = self.elements, len(self.generators)
        return {el[n + m]: (el[i], el[j], eps) for m, (i, j, eps) in enumerate(self.steps)}

    @cached_property
    def index(self) -> dict[int, dict]:
        """Per axis, each raw element's tail -> its position (:func:`_index`):
        the table :func:`closure` enumerated with, or else built on first use."""
        return _index(self.raw, len(self.alphabet))

    def shrinkers(self, letters: tuple[int, ...]) -> list[int]:
        """The positions of the elements that shorten a tail ``letters``,
        sorted (:func:`_shrinkers`).  Their tails have at most ``bound``
        letters, so only the last ``bound + 1`` letters of ``letters`` can
        hold one and the letter before it: O(bound²) at any length."""
        return _shrinkers(self.index, letters[-self.bound - 1:])

    @cached_property
    def graph(self) -> SubquandleGraph:
        """The generators' folded graph: the one :func:`closure` counted
        the size on, or else built on first use."""
        return SubquandleGraph(self.generators)


def _acting_words(e: RawElement):
    """The group words of e and of its inverse, each with its eps: both
    are ``tail^-1 x^±1 tail``, so one inverse serves them."""
    axis, tail = e
    head = fg.inverse(tail)
    return (head + (axis + 1,) + tail, 1), (head + (-axis - 1,) + tail, -1)


def _trie_insert(root, tail: tuple[int, ...], j: int) -> None:
    """File element j under its tail read backwards from the last letter.

    A node at depth d holds ``[children, by_len]``: ``by_len[k]`` lists, in
    index order, the elements below it whose tail has length d + k.  Every
    node of a non-empty trie lies on a filed tail, so its ``by_len`` is
    never empty.  :func:`_new_elements` files only tails below the bound.
    """
    node = root
    for k in range(len(tail), -1, -1):  # letters of tail still to read
        by_len = node[1]
        while len(by_len) <= k:
            by_len.append([])
        by_len[k].append(j)
        if k:
            children = node[0]
            node = children.get(tail[k - 1])
            if node is None:
                node = children[tail[k - 1]] = [{}, []]


def _walk(root, elements: list[RawElement], axis: int, u: tuple[int, ...],
          bound: int, prev: int) -> tuple[list[int], list[int]]:
    """One walk of the trie along ``u`` reversed, for the filed element
    ``axis^u`` off the bound: the indices of the trie's elements that may
    act on it within ``bound``, sorted, and those below ``prev`` that it
    may act on, unordered; see :func:`_new_elements`, which looks up the
    candidates of an element at the bound instead (:func:`_shrinkers`).

    Acted on: below the node of ``u`` it walks the runs ``x^k u`` and
    ``x^-k u`` of the axis letter x while ``|u| + k + 1 <= bound``.  At run
    depth k it takes ``t = x^k u`` itself, and from each child off the run
    the tails ``t = q x^k u`` with ``|u| + k + 2|q| + 1 <= bound``, the
    exact length of the product.

    Acting on: the old ``x^v`` of :func:`_new_elements`' three cases, read
    off the same nodes: the suffixes of ``u`` and the children off its path
    on the way down, and the tails below the node of ``u`` at its end.
    The trie's groups are index-ordered, so the old indices of each are a
    prefix of it, cut at ``prev`` once.  No tail filed has L letters.
    """
    lu = len(u)
    reach = (bound - lu - 1) // 2  # most letters of t past the shared suffix
    # >= 0, as |u| < bound: a run x^k before v that strips enough starts here
    start = bound - 1 - lu
    groups, olds = [], []  # olds: the groups of v, yet to cut at prev
    node = root
    for s, key in enumerate(reversed(u)):  # s letters of u read
        children, by_len = node
        here = by_len[0]
        groups.append(here)  # t is a suffix of u
        back = bound - 1 - 2 * lu + s  # see :func:`_new_elements`
        if back >= 0:  # v is a proper suffix of u = q x^k v, at any k
            olds.append(here)
        elif u[start] == key and u[start:lu - s] == (key,) * -back:
            a = abs(key) - 1  # k >= -back: u[start:] begins with x^-back v
            olds.append([i for i in here if elements[i][0] == a])
        if reach > 0 or back > 0:
            for lt, child in children.items():
                if lt != key:
                    groups += child[1][:reach]
                    if back > 0:
                        olds += child[1][:back]
        node = children[key]
    olds += node[1]  # u is a suffix of v
    old: list[int] = []
    for group in olds:
        if group and group[0] < prev:
            old += group[:bisect_left(group, prev)]
    # u is a suffix of t = q x^k u; walk the runs x^k, x^-k
    x = axis + 1
    run = [node]  # the nodes of x^k u, one per sign once k > 0
    for k in range(bound - lu):  # |u| + k + 1 <= bound
        reach = (bound - lu - k - 1) // 2  # most letters of q
        below = []
        for children, by_len in run:
            groups.append(by_len[0])  # q is empty
            for lt, child in children.items():
                if lt == x or lt == -x:
                    below.append(child)
                elif reach > 0:
                    groups += child[1][:reach]
        if not below:
            break
        run = below
    out: list[int] = []
    for group in groups:
        out += group
    out.sort()
    return out, old


def _index(elements: list[RawElement], axes: int) -> dict[int, dict]:
    """Per axis, each element's tail -> its position in ``elements``: the
    table :func:`_new_elements` extends.  It holds a dict for each of the
    ``axes`` axes of the alphabet, so reads add none."""
    index: dict[int, dict] = {a: {} for a in range(axes)}
    for k, (axis, tail) in enumerate(elements):
        index[axis][tail] = k
    return index


def _shrinkers(seen, u: tuple[int, ...], misses=None) -> list[int]:
    """The indices in ``seen`` (per axis, tail -> index) of the elements
    that shorten an element with tail ``u``, sorted: for each proper suffix
    ``t`` of ``u``, the ``a^t`` with ``a`` the generator of the letter
    before ``t`` (:func:`conj_quandle.shrinkers`).  Given ``misses =
    (waiting, i)``, it files ``i`` in ``waiting`` under each ``(a, t)``
    that ``seen`` lacks."""
    out = []
    for k in range(len(u)):
        a, t = abs(u[k]) - 1, u[k + 1:]
        j = seen[a].get(t)
        if j is not None:
            out.append(j)
        elif misses is not None:
            misses[0].setdefault((a, t), []).append(misses[1])
    out.sort()
    return out


def _new_elements(elements: list[RawElement], seen: dict[int, dict], bound: int,
                  size: int | None = None):
    """Semi-naive fixed point of act(a, q, ±1) over ``elements``, in place.

    Appends each new within-bound product to ``elements``, files its
    position in ``seen``, the table of ``elements``' positions that the
    caller built (:func:`_index`), and yields its derivation
    ``(i, j, eps)``: elements[i] acted on by elements[j].  Each
    round tries the pairs with at least one element new since the last
    round, i in insertion order, then j, then eps +1 before -1.
    ``elements`` must be canonical with tails of at most ``bound`` letters,
    as :func:`closure` guarantees: :class:`QuandleElement` rejects a
    non-canonical tail and :class:`BoundTooSmall` a longer one.

    Only the pairs that can land within the bound are tried.  Let
    ``elements[i] = x^tail`` and ``elements[j] = a^t``, whose acting word
    is ``t^-1 a^±1 t``.  Then ``tail · gw`` cancels exactly the common suffix
    of ``tail`` and ``t`` (of length s), and cancels further only when
    ``t`` is a whole suffix of ``tail``.  In any other case where ``tail``
    keeps a letter, the product is reduced, has nothing to strip at its
    front and has ``|tail| + 2(|t| - s) + 1`` letters.  When ``tail`` is a
    suffix of ``t``, write ``t = q x^k tail`` with ``x^k`` (k >= 0, one
    sign) the longest run of axis letters next to ``tail``: the product is
    the reduced ``x^-k q^-1 a^±1 q x^k tail``, the axis strip removes
    exactly ``x^-k``, and ``|tail| + k + 2|q| + 1`` letters are left (or,
    if ``q`` is empty and ``a = x``, just ``elements[i]``).  So a trie of
    the elements keyed on their reversed tails, walked along ``tail``
    reversed and then down both runs of axis letters, returns every
    element whose tail is a suffix of ``tail``, leaves the shared suffix
    by at most ``(bound - |tail| - 1) // 2`` letters, or has a tail
    ``q x^k tail`` with ``|tail| + k + 2|q| + 1 <= bound``.  That is a
    superset of the within-bound pairs, and every product that passes the
    depth test below lands within the bound.  Sorted by j and put through
    the same exact test as an exhaustive loop, it finds the same elements,
    with the same derivations, in the same order.  It materializes only
    the trials that can land within the bound, and only those that cancel
    the whole tail pass through :func:`conj_quandle.canonical_tail`: a
    product that keeps the first letter of a canonical ``tail`` is already
    canonical.  The trie is built per call, extended only between rounds,
    and holds only the elements below the bound (see below).  The two
    acting words of ``a^t`` differ only in their middle letter, so one
    scan of the common suffix serves both eps.  Where neither tail is a
    suffix of the other, the walk has already bounded the exact length of
    both products, so a product is measured only where one tail is a
    suffix of the other.

    Each round walks the trie once per new element below the bound, at
    its start (:func:`_walk`), and old elements never walk again.  An old
    i pairs only with the new j, so the walk of a new ``a^u`` also reads
    the bounds above from the other side: it returns the old ``x^v`` below
    the bound that ``a^u`` may act on within L.  With
    ``back = L - 1 - 2|u| + s`` at depth s, they are the ``v`` that
    - end in ``u``;
    - leave the suffix of ``u`` at depth s, with ``|v| - s <= back``, that
      is ``|v| + 2(|u| - s) + 1 <= L``;
    - are proper suffixes of ``u = q x^k v`` (``s = |v|``), with ``x^k`` the
      longest run of ``x^±1`` before ``v`` and ``k >= -back``, that is
      ``2|u| - |v| - k + 1 <= L``.
    Each new i keeps its sorted candidates until its turn; each old i
    takes, ascending, the new j that found it, and an old i that none found
    is skipped.

    Two kinds of trial are skipped, because they can only rediscover:
    ``j = i``, since ``act(e, e, ±1) = e``, and the eps that undoes i's own
    derivation, since ``act(act(a, q, eps), q, -eps) = a``.  Given
    ``size``, the closure's exact size (:func:`closure` counts it by F4),
    the enumeration stops at the ``size``-th element: every later trial
    only rediscovers.  Without it, the last round finds nothing.

    A product keeps the axis of ``elements[i]``, so ``seen`` holds one
    dict from tail to index per axis, looked up once per i.  Most products
    within the bound are rediscoveries (8,422 of 9,878 for ``{x^(y), y}``
    at L = 6), each costing one hash of its tail.

    At ``|tail| = L`` only a shrink stays within L: of the ``a^t`` with
    ``t`` a proper suffix of ``tail``, those with ``a`` the generator of
    the letter before ``t``.  A suffix hit with the wrong axis has L + 1
    letters, every other product more, and ``t = tail`` gives
    ``elements[i]`` itself or L + 1 letters.  Such an element acts on none
    within L, so it is never a candidate, and it is neither filed in the
    trie nor given acting words.  A new one does not walk: :func:`_shrinkers`
    looks up its candidates in ``seen``, one lookup per proper suffix,
    before the round's first trial, so they are old.  The elements that
    shrink it later, the ``a^u`` with ``a^±1 u`` ending its tail, are new
    in a later round: each lookup that misses files it in a wait-list
    under that ``(a, u)``, and ``a^u``, at the start of its round, takes
    the elements waiting for it as old i.  Trials at the bound need no
    suffix scan: for the candidate ``a^t`` the letter ``tail[k]``, with
    ``k = L - |t| - 1``, is ``a^∓1``, so ``eps = -sign(tail[k])`` deletes
    it from ``tail · t^-1 a^eps t``, and the other eps gives L + 1 letters.
    The two ends left, ``tail[:k]`` and ``t``, cancel while
    ``tail[k - 1 - d] == -tail[k + 1 + d]``, and only a cancellation that
    reaches the front goes through :func:`conj_quandle.canonical_tail`.
    """
    # (j, eps) with act(elements[k], elements[j], eps) already found
    undo = [(-1, 0)] * len(elements)
    trie = [{}, []]  # of the elements of elements[:done] below the bound
    acting = {}  # their acting words, by index
    waiting: dict[RawElement, list[int]] = {}  # missing shrinker -> i at the bound
    done = 0  # pairs among elements[:done] are already tried
    while done < len(elements) != size:  # a round found something, short of size
        prev, done = done, len(elements)
        for j in range(prev, done):
            if len(elements[j][1]) < bound:
                _trie_insert(trie, elements[j][1], j)
                acting[j] = _acting_words(elements[j])
        near: dict[int, list[int]] = {}  # old i -> its new j, ascending
        forward = []  # each new i's candidates, sorted
        for j, (a, u) in enumerate(elements[prev:done], prev):
            if len(u) == bound:  # acts on no old element within L
                forward.append(_shrinkers(seen, u, (waiting, j)))
                continue
            candidates, acted_on = _walk(trie, elements, a, u, bound, prev)
            forward.append(candidates)
            acted_on += waiting.pop((a, u), ())
            for i in acted_on:
                near.setdefault(i, []).append(j)
        for i, candidates in chain(sorted(near.items()), enumerate(forward, prev)):
            axis, tail = elements[i]
            found = seen[axis]  # a product keeps i's axis
            la = len(tail)
            back, back_eps = undo[i]
            if la == bound:  # every candidate a^t shrinks tail by tail[k]
                for j in candidates:
                    k = la - 1 - len(elements[j][1])
                    eps = -1 if tail[k] > 0 else 1
                    if j == back and eps == back_eps:
                        continue
                    lo, hi = k - 1, k + 1
                    while lo >= 0 and hi < la and tail[lo] == -tail[hi]:
                        lo -= 1
                        hi += 1
                    if lo >= 0:
                        product = tail[:lo + 1] + tail[hi:]
                    else:
                        product = cq.canonical_tail(axis, tail[hi:])
                    if product in found:
                        continue
                    found[product] = len(elements)
                    elements.append((axis, product))
                    undo.append((j, -eps))
                    yield i, j, eps
                    if len(elements) == size:
                        return
                continue
            for j in candidates:
                if j == i:
                    continue
                t = elements[j][1]
                lt = len(t)
                # common suffix of tail and t: where tail · gw stops
                # cancelling for both eps, unless t is a suffix of tail
                s = 0
                m = la if la < lt else lt
                while s < m and tail[~s] == t[~s]:
                    s += 1
                for gw, eps in acting[j]:
                    if j == back and eps == back_eps:
                        continue
                    c = s
                    if c == lt:  # past t, the scan reads a^eps, then t again
                        lg = len(gw)
                        while c < la and c < lg and tail[~c] == -gw[c]:
                            c += 1
                        if c < la and la + lg - 2 * c > bound:
                            continue
                    if c < la:  # a surviving first tail letter: nothing to strip
                        product = tail[:la - c] + gw[c:]
                    else:
                        product = cq.canonical_tail(axis, gw[c:])
                        if len(product) > bound:
                            continue
                    if product in found:
                        continue
                    found[product] = len(elements)
                    elements.append((axis, product))
                    undo.append((j, -eps))
                    yield i, j, eps
                    if len(elements) == size:
                        return


def _checked_generators(gens, bound: int, max_elements: int | None):
    """gens deduplicated, after the checks :func:`closure` makes before it
    enumerates, the budget last: a budget below 1, or below the number of
    generators, raises :class:`ClosureTooLarge`.  ``gens`` may also be
    their folded graph; it is returned second, or else None."""
    graph = gens if isinstance(gens, SubquandleGraph) else None
    if max_elements is not None and max_elements < 1:
        raise ClosureTooLarge(
            f"the element budget of {max_elements} holds no closure; it must be at least 1")
    gens = list(dict.fromkeys(graph.generators if graph else gens))
    if not gens:
        raise EmptyGeneratorSet("closure needs at least one generator")
    fg.one_alphabet(gens, "generators")
    for g in gens:
        if len(g.tail) > bound:
            raise BoundTooSmall(f"generator {g} has tail length {len(g.tail)} > bound {bound}")
    if max_elements is not None and len(gens) > max_elements:
        raise _too_large(bound, len(gens), max_elements)
    return gens, graph


def _too_large(bound: int, size: int, max_elements: int) -> ClosureTooLarge:
    return ClosureTooLarge(
        f"closure at bound L = {bound} reached {size} "
        f"elements, over the element budget of {max_elements}")


def check_size(gens, bound: int = DEFAULT_BOUND,
               max_elements: int | None = None) -> SubquandleGraph:
    """Raise every error of ``closure(gens, bound, max_elements)`` without
    enumerating, in the same order; return the generators' folded graph.

    The closure's size is counted on that graph
    (:meth:`stallings.SubquandleGraph.size_within`, exact by F4), so a
    closure over the budget raises what enumerating would have raised at
    element ``max_elements + 1``.  As for :func:`closure`, ``gens`` may
    also be that graph, which is returned as given; otherwise the checked,
    deduplicated generators are folded, also without a budget, so that a
    caller folds them once for the count, the closure and the basis.
    """
    gens, graph = _checked_generators(gens, bound, max_elements)
    graph = graph or SubquandleGraph(gens)
    if max_elements is not None:
        _size(graph, bound, max_elements)
    return graph


def _size(graph: SubquandleGraph, bound: int, max_elements: int | None) -> int:
    """The exact size of the closure of the checked generators folded in
    ``graph``; over the budget, the error enumerating would raise."""
    size = graph.size_within(bound, max_elements)
    if max_elements is not None and size > max_elements:
        raise _too_large(bound, max_elements + 1, max_elements)
    return size


def closure(gens, bound: int = DEFAULT_BOUND, max_elements: int | None = None,
            stop_when_contains=None) -> ClosureSet:
    """Fixed point of act(a, q, ±1) over ordered pairs, tails capped at ``bound``.

    Pair iteration order is fixed (elements in insertion order, acting
    element second, eps +1 before -1), so identical inputs give identical
    closures.

    ``max_elements`` raises :class:`ClosureTooLarge`, naming the budget,
    the bound and the size reached, once the closure grows past it, and
    up front for a budget below 1.  Without stop targets the whole closure
    is built, so its size is counted and checked up front
    (:func:`check_size`), and the enumeration stops once it holds that
    many elements: by F4 (:mod:`stallings`) the closure is exactly the
    subquandle's members within the bound, so the trials after that only
    rediscover, as do the two kinds :func:`_new_elements` skips.
    ``stop_when_contains`` stops enumeration as soon as all listed elements
    are present; the result is then a prefix of the full closure whose
    derivations are still valid.  A generator or a listed element from
    another alphabet raises :class:`errors.AlphabetMismatch`.

    ``gens`` may also be the generators' folded graph, so that a caller
    who has it folds them once: the size is then counted on it, and the
    set keeps it as its :attr:`ClosureSet.graph`.  The set also keeps the
    enumeration's table of positions as its :attr:`ClosureSet.index`.
    """
    gens, graph = _checked_generators(gens, bound, max_elements)
    size = None
    if stop_when_contains is None:
        graph = graph or SubquandleGraph(gens)
        size = _size(graph, bound, max_elements)
    elements: list[RawElement] = [(g.axis, g.tail.letters) for g in gens]
    index = _index(elements, len(gens[0].alphabet))
    steps: list[tuple[int, int, int]] = []  # of elements[len(gens):]

    missing = None
    if stop_when_contains is not None:
        stop = list(stop_when_contains)
        fg.one_alphabet([gens[0], *stop], "stop targets and generators")
        missing = {(e.axis, e.tail.letters) for e in stop} - set(elements)
    if missing != set():
        for d in _new_elements(elements, index, bound, size):
            steps.append(d)
            if max_elements is not None and len(elements) > max_elements:
                raise _too_large(bound, len(elements), max_elements)
            if missing is not None:
                missing.discard(elements[-1])
                if not missing:
                    break

    c = ClosureSet(tuple(gens), bound, tuple(elements), tuple(steps), max_elements)
    object.__setattr__(c, "index", index)  # the cached properties, already built
    if graph is not None:
        object.__setattr__(c, "graph", graph)
    return c


def express(c: ClosureSet, e: QuandleElement) -> QuandleTerm:
    """A term over c.generators evaluating to e, replayed before returning.

    An e not in c raises :class:`NotInClosure`, and, as for ``e in c``, an
    e from another alphabet :class:`errors.AlphabetMismatch`.

    The term is built by walking c's steps back from e's index, so no
    element of c is wrapped; the replay builds the elements it evaluates.
    The walk is a loop, not a recursive closure, so it leaves no reference
    cycle behind (the CLI runs with the cyclic collector paused).
    """
    if e not in c:
        raise NotInClosure(f"{e} is not in the closure")
    n = len(c.generators)
    target = c.index[e.axis][e.tail.letters]
    needed, todo = set(), [target]
    while todo:
        k = todo.pop()
        if k >= n and k not in needed:
            needed.add(k)
            todo += c.steps[k - n][:2]
    terms = {i: QuandleTerm(leaf=i) for i in range(n)}
    # a step derives its element from earlier ones: build in index order
    for k in sorted(needed):
        i, j, eps = c.steps[k - n]
        terms[k] = QuandleTerm(eps, terms[i], terms[j])
    term = terms[target]
    if term.evaluate(c.generators) != e:
        raise WitnessNotFound(f"derivation term {term} does not replay to {e}")
    return term


def parse_header(text: str) -> tuple[Alphabet, list[str]]:
    """Split an input file into its alphabet and its content lines.

    Line 1 is ``alphabet: x y ...``; blank lines and ``#`` comments are
    dropped, and the remaining lines are returned stripped.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("alphabet:"):
        raise ValueError("problem file must start with 'alphabet: ...'")
    return Alphabet.parse(lines[0][len("alphabet:"):]), lines[1:]


def parse_problem(text: str) -> tuple[Alphabet, list[QuandleElement]]:
    """Parse a subquandle problem file: a header (see :func:`parse_header`),
    then one generator per line in the element grammar.
    """
    alphabet, lines = parse_header(text)
    gens = [parse_element(alphabet, ln) for ln in lines]
    if not gens:
        raise EmptyGeneratorSet("problem file lists no generators")
    return alphabet, gens
