"""Reference arithmetic used to generate benchmark inputs and check outputs.

This module imports nothing from ``freequandle``: every answer the benchmark
accepts is recomputed here by separate code, so a defect in the package
cannot make its own output look right.

Encoding: a letter is a nonzero int, ``+(i + 1)`` for generator ``i`` and
``-(i + 1)`` for its inverse.  A word is a tuple of letters.  A free-quandle
element is a pair ``(axis, tail)`` meaning ``tail^-1 x_axis tail``, canonical
when ``tail`` is reduced and does not start with ``x_axis^{+-1}``.
"""

from __future__ import annotations

import re


class TooLarge(Exception):
    """A closure grew past the element budget it was given."""


# -- words -------------------------------------------------------------------

def reduce(letters) -> tuple:
    out = []
    for lt in letters:
        if out and out[-1] == -lt:
            out.pop()
        else:
            out.append(lt)
    return tuple(out)


def inverse(word) -> tuple:
    return tuple(-lt for lt in reversed(word))


def cancel_depth(u, v) -> int:
    """Number of letter pairs that cancel in the product ``u v``."""
    c = 0
    while c < len(u) and c < len(v) and u[len(u) - 1 - c] == -v[c]:
        c += 1
    return c


# -- free-quandle elements ---------------------------------------------------

def canonical(axis: int, tail) -> tuple:
    """``x^(x^+-1 w) = x^w``: drop leading axis letters of a reduced tail."""
    i = 0
    while i < len(tail) and abs(tail[i]) == axis + 1:
        i += 1
    return (axis, tuple(tail[i:]))


def group_word(e) -> tuple:
    axis, tail = e
    return inverse(tail) + (axis + 1,) + tuple(tail)


def act(a, q, eps: int) -> tuple:
    """``a`` conjugated by ``gw(q)^eps``; eps=+1 is a > q, eps=-1 is a < q."""
    gw = group_word(q)
    if eps < 0:
        gw = inverse(gw)
    return canonical(a[0], reduce(a[1] + gw))


# -- bounded closure ---------------------------------------------------------

class _Words:
    """Group words keyed by each prefix of up to ``bound`` letters, then by
    half-length (a word of an element within the bound has odd length
    ``2 * half + 1`` with ``half <= bound``)."""

    def __init__(self, bound: int):
        self.bound = bound
        self.by_prefix: dict[tuple, dict[int, list[tuple]]] = {}

    def add(self, word: tuple) -> None:
        half = len(word) // 2
        for k in range(min(len(word), self.bound) + 1):
            halves = self.by_prefix.get(word[:k])
            if halves is None:
                halves = self.by_prefix[word[:k]] = {}
            bucket = halves.get(half)
            if bucket is None:
                halves[half] = [word]
            else:
                bucket.append(word)

    def products(self, e, out: set) -> None:
        """Add to ``out`` every ``canonical(e.tail * w)`` within the bound.

        A word ``w`` whose first ``c`` letters cancel exactly the last ``c``
        letters of the tail gives ``tail[:n-c] + w[c:]``, of length
        ``n + |w| - 2c``.  Each word is taken at its exact depth ``c``; when
        the whole tail cancels, leading axis letters are stripped as well,
        so no length limit selects those words in advance.
        """
        axis, tail = e
        n, bound = len(tail), self.bound
        key: tuple = ()
        for c in range(n + 1):
            if c:
                key += (-tail[n - c],)
            halves = self.by_prefix.get(key)
            if halves is None:
                return
            if c == n:
                for words in halves.values():
                    for w in words:
                        res = canonical(axis, w[n:])
                        if len(res[1]) <= bound:
                            out.add(res)
                return
            head = tail[:n - c]
            deeper = -head[-1]   # a word going on with this letter cancels further
            limit = bound - n + 2 * c
            for half, words in halves.items():
                if 2 * half + 1 <= limit:
                    for w in words:
                        if len(w) == c or w[c] != deeper:
                            out.add((axis, head + w[c:]))


def closure(gens, bound: int, budget: int | None = None) -> frozenset:
    """Least set containing ``gens`` and closed under ``act(a, q, +-1)``
    whenever the result's tail has length at most ``bound``.

    Semi-naive evaluation: each round combines the elements found in the
    previous round with everything known so far, in both roles.
    """
    gens = sorted(set(gens))
    for g in gens:
        if len(g[1]) > bound:
            raise ValueError(f"generator tail longer than the bound {bound}")
    known = set(gens)
    every = _Words(bound)
    frontier = gens
    while frontier:
        fresh = _Words(bound)
        for e in frontier:
            for w in (group_word(e), inverse(group_word(e))):
                fresh.add(w)
                every.add(w)
        found: set = set()
        for index, a in [(fresh, a) for a in known] + [(every, a) for a in frontier]:
            index.products(a, found)
            # found lies inside the closure, so this bound check is exact
            if budget is not None and len(found) > budget:
                raise TooLarge(f"closure exceeds {budget} elements")
        frontier = sorted(found - known)
        known.update(frontier)
        if budget is not None and len(known) > budget:
            raise TooLarge(f"closure exceeds {budget} elements")
    return frozenset(known)


def shortenable(e, elements) -> bool:
    """Whether some ``q`` in ``elements`` and sign shortens ``e``'s tail.

    ``tail * (u^-1 y^eps u)`` is shorter than ``tail`` exactly when the tail
    ends with ``y^-eps u``, so it suffices to look up each tail suffix
    ``(l,) + u`` as the element ``y^u`` with ``y = |l| - 1``.
    """
    tail = e[1]
    for k in range(1, len(tail) + 1):
        s = tail[len(tail) - k:]
        if (abs(s[0]) - 1, s[1:]) in elements:
            return True
    return False


def tail_filter(elements) -> frozenset:
    """The paper's candidate: closure elements no closure element shortens."""
    return frozenset(e for e in elements if not shortenable(e, elements))


# -- independence ------------------------------------------------------------

def significant_factor_failure(elements):
    """First ordered pair whose product cancels a marked letter, or None.

    Each element's group word ``t^-1 x t`` and its inverse carry a marked
    letter, the central ``x^{+-1}`` at index ``|t|``.  For every ordered pair
    ``(u, v)`` of these words with ``u != v^-1``, the letters cancelled in
    ``u v`` (the last ``c`` of ``u``, the first ``c`` of ``v``) must not
    include either marked letter.  Returns ``(u, v, c)`` for a violation.
    """
    signed = []
    for e in elements:
        gw = group_word(e)
        signed += [(gw, len(e[1])), (inverse(gw), len(e[1]))]
    for u, mu in signed:
        for v, mv in signed:
            if u == inverse(v):
                continue
            c = cancel_depth(u, v)
            if len(u) - c <= mu or c > mv:
                return (u, v, c)
    return None


def folded_rank(words) -> int:
    """Rank ``E - V + 1`` of the Stallings-folded graph of ``<words>``."""
    parent: list[int] = []
    out: list[dict] = []
    into: list[dict] = []
    pending: list[tuple[int, int]] = []

    def vertex() -> int:
        parent.append(len(parent))
        out.append({})
        into.append({})
        return len(parent) - 1

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def edge(u: int, a: int, v: int) -> None:
        u, v = find(u), find(v)
        for table, src, dst in ((out, u, v), (into, v, u)):
            other = table[src].get(a)
            if other is None:
                table[src][a] = dst
            else:
                pending.append((other, dst))

    def merge(a: int, b: int) -> None:
        a, b = find(a), find(b)
        if a == b:
            return
        parent[b] = a
        for table in (out, into):
            for label, t in table[b].items():
                other = table[a].get(label)
                if other is None:
                    table[a][label] = t
                else:
                    pending.append((other, t))
            table[b] = {}

    base = vertex()
    for w in words:
        cur = base
        for k, lt in enumerate(w):
            nxt = base if k == len(w) - 1 else vertex()
            if lt > 0:
                edge(cur, lt, nxt)
            else:
                edge(nxt, -lt, cur)
            cur = nxt
        while pending:
            merge(*pending.pop())
    roots = [v for v in range(len(parent)) if find(v) == v]
    edges = sum(len(out[v]) for v in roots)
    return edges - len(roots) + 1


def is_free_basis(words) -> bool:
    """Exact test: distinct non-identity words form a basis of their subgroup.

    A generating set of a free group of rank r with r elements is a basis,
    so the set is free iff its size equals the folded rank.
    """
    words = set(map(tuple, words))
    if () in words:
        return False
    return folded_rank(words) == len(words)


# -- text --------------------------------------------------------------------

def parse_word(names, text: str) -> tuple:
    index = {n: i for i, n in enumerate(names)}
    tokens = text.split()
    if tokens == ["1"]:
        return ()
    letters = []
    for tok in tokens:
        if tok.endswith("^-1"):
            letters.append(-(index[tok[:-3]] + 1))
        else:
            letters.append(index[tok] + 1)
    return reduce(letters)


def parse_element(names, text: str) -> tuple:
    """``x^(w)`` or a bare generator name (the forms the CLI prints)."""
    text = text.strip()
    if text.endswith(")") and "^(" in text:
        name, _, rest = text.partition("^(")
        return canonical(list(names).index(name), parse_word(names, rest[:-1]))
    return (list(names).index(text), ())


def format_word(names, word) -> str:
    if not word:
        return "1"
    return " ".join(names[lt - 1] if lt > 0 else names[-lt - 1] + "^-1" for lt in word)


def format_element(names, e) -> str:
    axis, tail = e
    return names[axis] if not tail else f"{names[axis]}^({format_word(names, tail)})"


_TERM_TOKEN = re.compile(r"\s*(\(|\)|>|<|g\d+)")


def parse_term(text: str):
    """``g<i>`` or ``(<term> > <term>)`` / ``(<term> < <term>)``.

    Returns nested tuples: an int for a leaf, ``(left, right, eps)`` for a node.
    """
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM_TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad term {text!r}")
        tokens.append(m.group(1))
        pos = m.end()

    def parse(i: int):
        tok = tokens[i]
        if tok.startswith("g"):
            return int(tok[1:]), i + 1
        if tok != "(":
            raise ValueError(f"bad term {text!r}")
        left, i = parse(i + 1)
        op = tokens[i]
        if op not in "<>":
            raise ValueError(f"bad term {text!r}")
        right, i = parse(i + 1)
        if tokens[i] != ")":
            raise ValueError(f"bad term {text!r}")
        return (left, right, 1 if op == ">" else -1), i + 1

    try:
        term, end = parse(0)
    except IndexError:
        raise ValueError(f"bad term {text!r}") from None
    if end != len(tokens):
        raise ValueError(f"bad term {text!r}")
    return term


def evaluate(term, generators) -> tuple:
    if isinstance(term, int):
        return generators[term]
    left, right, eps = term
    return act(evaluate(left, generators), evaluate(right, generators), eps)
