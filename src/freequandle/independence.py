"""Two independent checkers for independence of group words.

A set that passes the significant-factor checker is a basis of the subgroup
it generates; a FAIL means "criterion inapplicable with central factors",
not "dependent".  The exact checker passes iff the rank ``E - V + 1`` of the
words' folded Stallings graph (:class:`stallings._Folding`) equals the
number of distinct words, and so decides independence.  Both reject a set
from more than one alphabet.
"""

from __future__ import annotations

from .conj_quandle import shrink_index, shrinkers, to_group_word
from .errors import EmptyInputWord
from .free_group import _Value, cancellation_depth, one_alphabet
from .stallings import _Folding


class IndependenceReport(_Value):
    method: str  # "hall" or "nielsen"
    passed: bool
    detail: str = ""
    failing_pair: tuple[str, str] | None = None
    cancellation_depth: int | None = None


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
    one_alphabet(elements, "elements")
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
    index = shrink_index([(e.axis, e.tail.letters) for e in elements])
    for k, e in enumerate(elements):
        for j, eps in shrinkers(index, e.tail.letters):
            yield (j, k) if eps == -1 else (k, j)


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
    one_alphabet(words, "words")
    for w in words:
        if w.is_identity():
            raise EmptyInputWord("the identity word is not allowed as input")
    distinct = list(dict.fromkeys(w.letters for w in words))
    rank = _Folding(distinct).rank()
    return IndependenceReport(
        "nielsen", rank == len(distinct),
        detail=f"{len(distinct)} distinct words generate a subgroup of rank {rank}")

