"""Bounded closure of a finitely generated subquandle with derivations.

The closure enumerates every element reachable from the generators by the
two quandle operations whose canonical tail stays within a length bound L.
Membership answers are therefore one-sided: "not found" only means "not
found within L".  Each discovered element carries a derivation record so
it can be expressed as a term over the generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import conj_quandle as cq
from . import free_group as fg
from .conj_quandle import QuandleElement, parse_element
from .errors import (
    AlphabetMismatch,
    BoundTooSmall,
    ClosureTooLarge,
    EmptyGeneratorSet,
    NotInClosure,
    WitnessNotFound,
)
from .free_group import Alphabet, Word

DEFAULT_BOUND = 8

RawElement = tuple[int, tuple[int, ...]]  # (axis, canonical tail letters)


def _raw(e: QuandleElement) -> RawElement:
    return (e.axis, e.tail.letters)


@dataclass(frozen=True)
class QuandleTerm:
    """Expression tree over a generating list; Leaf(i) names generator i."""

    eps: Optional[int] = None
    left: Optional["QuandleTerm"] = None
    right: Optional["QuandleTerm"] = None
    leaf: Optional[int] = None

    @classmethod
    def leaf_of(cls, index: int) -> "QuandleTerm":
        return cls(leaf=index)

    @classmethod
    def node(cls, left: "QuandleTerm", right: "QuandleTerm", eps: int) -> "QuandleTerm":
        return cls(eps=eps, left=left, right=right)

    def is_leaf(self) -> bool:
        return self.leaf is not None

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


Derivation = tuple[QuandleElement, QuandleElement, int]  # (a, q, eps)


@dataclass(frozen=True)
class ClosureSet:
    """Deterministic bounded closure with one derivation per non-generator."""

    generators: tuple[QuandleElement, ...]
    bound: int
    elements: tuple[QuandleElement, ...]
    derivations: dict[QuandleElement, Derivation]

    @property
    def alphabet(self) -> Alphabet:
        return self.generators[0].alphabet

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, e: QuandleElement) -> bool:
        return e in self.derivations or e in self.generators


def closure(gens, bound: int = DEFAULT_BOUND, max_elements: Optional[int] = None,
            stop_when_contains=None) -> ClosureSet:
    """Fixed point of act(a, q, ±1) over ordered pairs, tails capped at ``bound``.

    Pair iteration order is fixed (elements in insertion order, acting
    element second, eps +1 before -1), so identical inputs give identical
    closures.

    ``max_elements`` raises :class:`ClosureTooLarge` once exceeded (a desk
    budget guard).  ``stop_when_contains`` stops enumeration as soon as all
    listed elements are present; the result is then a prefix of the full
    closure whose derivations are still valid.
    """
    gens = list(dict.fromkeys(gens))
    if not gens:
        raise EmptyGeneratorSet("closure needs at least one generator")
    alphabet = gens[0].alphabet
    for g in gens:
        if g.alphabet != alphabet:
            raise AlphabetMismatch("generators come from different alphabets")
        if len(g.tail) > bound:
            raise BoundTooSmall(
                f"generator {g} has tail length {len(g.tail)} > bound {bound}"
            )

    elements: list[RawElement] = [_raw(g) for g in gens]
    index: dict[RawElement, int] = {e: i for i, e in enumerate(elements)}
    group_words: list[tuple[tuple[int, ...], tuple[int, ...]]] = [
        (gw := fg.conjugate_word(a, t), fg.inverse(gw))
        for a, t in elements
    ]
    derivations: dict[int, tuple[int, int, int]] = {}
    missing = None
    if stop_when_contains is not None:
        missing = {_raw(e) for e in stop_when_contains} - set(index)

    done = 0  # pairs among elements[:done] are already processed
    while done < len(elements) and missing != set():
        prev = done
        done = len(elements)
        n = done
        for i in range(n):
            axis, tail = elements[i]
            la = len(tail)
            axis_letter = axis + 1
            for j in range(n):
                if i < prev and j < prev:
                    continue
                pair = group_words[j]
                for eps in (0, 1):
                    gw = pair[eps]
                    lg = len(gw)
                    # cancellation depth of tail · gw, before materializing
                    c = 0
                    while c < la and c < lg and tail[la - 1 - c] == -gw[c]:
                        c += 1
                    if c < la:
                        # first tail letter survives; no axis stripping
                        if la + lg - 2 * c > bound:
                            continue
                        res = (axis, tail[:la - c] + gw[c:])
                    else:
                        rest = gw[la:]
                        k = 0
                        while k < len(rest) and abs(rest[k]) == axis_letter:
                            k += 1
                        if len(rest) - k > bound:
                            continue
                        res = (axis, rest[k:])
                    if res in index:
                        continue
                    index[res] = len(elements)
                    elements.append(res)
                    rgw = fg.conjugate_word(*res)
                    group_words.append((rgw, fg.inverse(rgw)))
                    derivations[index[res]] = (i, j, 1 if eps == 0 else -1)
                    if max_elements is not None and len(elements) > max_elements:
                        raise ClosureTooLarge(
                            f"closure exceeded {max_elements} elements")
                    if missing is not None:
                        missing.discard(res)
                        if not missing:
                            break
                if missing == set():
                    break
            if missing == set():
                break

    wrapped = tuple(
        QuandleElement(a, Word(alphabet, t)) for a, t in elements
    )
    deriv = {
        wrapped[k]: (wrapped[i], wrapped[j], eps)
        for k, (i, j, eps) in derivations.items()
    }
    return ClosureSet(tuple(gens), bound, wrapped, deriv)


def contains(c: ClosureSet, e: QuandleElement) -> bool:
    """Bounded membership: False means "not found within bound", not a proof."""
    if e.alphabet != c.alphabet:
        raise AlphabetMismatch("element from a different alphabet")
    return e in c


def express(c: ClosureSet, e: QuandleElement) -> QuandleTerm:
    """A term over c.generators evaluating to e, replayed before returning."""
    gen_index = {g: i for i, g in enumerate(c.generators)}
    memo: dict[QuandleElement, QuandleTerm] = {}

    def build(elt: QuandleElement) -> QuandleTerm:
        if elt in memo:
            return memo[elt]
        if elt in gen_index:
            term = QuandleTerm.leaf_of(gen_index[elt])
        elif elt in c.derivations:
            a, q, eps = c.derivations[elt]
            term = QuandleTerm.node(build(a), build(q), eps)
        else:
            raise NotInClosure(f"{elt} is not in the closure")
        memo[elt] = term
        return term

    term = build(e)
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
