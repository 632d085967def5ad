"""Two independent checkers for independence of group words.

The significant-factor checker marks the central axis letter of each
conjugate and verifies that no pairwise product cancels deep enough to
reach a marked letter (a sufficient criterion: a set with significant
factors is a basis of the subgroup it generates).  The Nielsen checker is
a classical length-reducing reduction and serves as an unrelated oracle.

A significant-factor FAIL means "criterion inapplicable with central
factors", not "dependent"; the Nielsen verdict decides independence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import free_group as fg
from .conj_quandle import QuandleElement, to_group_word
from .errors import EmptyInputWord
from .free_group import Word, cancellation_depth


@dataclass(frozen=True)
class IndependenceReport:
    method: str  # "hall" or "nielsen"
    passed: bool
    detail: str = ""
    failing_pair: Optional[tuple[str, str]] = None
    cancellation_depth: Optional[int] = None


def check_significant_factors(elements) -> IndependenceReport:
    """Check the central-letter significant-factor criterion on a set.

    For each element x^w the marked letter is the central x (1-based index
    |w|+1 into the group word); the inverse carries the mirrored index,
    which is again the center.  Every ordered product u·v over the set and
    its inverses (u != v^-1) must leave both marked letters uncancelled;
    cancellation stopping exactly at a marked letter counts as a pass.
    """
    elements = list(elements)
    if not elements:
        raise ValueError("need at least one element")

    positives: list[tuple[str, Word, int]] = []
    inverses: list[tuple[str, Word, int]] = []
    for e in elements:
        gw = to_group_word(e)
        i = len(e.tail) + 1  # the central axis letter
        positives.append((str(e), gw, i))
        inverses.append((f"({e})^-1", fg.invert(gw), i))
    signed = positives + inverses

    # scan the positive-positive pairs first so failures are reported on
    # elements of the set itself whenever possible
    npos = len(positives)
    pairs = [(a, b) for a in range(npos) for b in range(npos)]
    pairs += [(a, b) for a in range(len(signed)) for b in range(len(signed))
              if a >= npos or b >= npos]
    for a, b in pairs:
        label_u, u, iu = signed[a]
        label_v, v, iv = signed[b]
        if u.letters == fg.inverse(v.letters):
            continue  # the excluded pairs u = v^-1
        c = cancellation_depth(u, v)
        if c > len(u) - iu or c > iv - 1:
            return IndependenceReport(
                "hall", False,
                detail=(f"cancellation in {label_u} · {label_v} reaches a "
                        f"significant factor (depth {c})"),
                failing_pair=(label_u, label_v),
                cancellation_depth=c,
            )
    return IndependenceReport("hall", True, detail="all pairwise products pass")


def nielsen_independent(words) -> IndependenceReport:
    """Nielsen reduction: pass iff the set is a basis of its subgroup.

    Repeatedly replaces some w_i by a strictly shorter product with
    another word, dropping exact duplicates and inverse pairs; passes iff
    nothing collapses (final cardinality equals the deduped input's and no
    word reduces to the identity).
    """
    words = list(words)
    if not words:
        raise ValueError("need at least one word")
    for w in words:
        if w.is_identity():
            raise EmptyInputWord("the identity word is not allowed as input")

    work = [w.letters for w in words]
    work = list(dict.fromkeys(work))
    start_count = len(work)
    alphabet = words[0].alphabet
    identity_seen = False

    changed = True
    while changed:
        changed = False
        # drop duplicates and exact inverses, keeping earlier entries
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                if work[j] == work[i] or work[j] == fg.inverse(work[i]):
                    del work[j]
                    changed = True
                    break
            if changed:
                break
        if changed:
            continue
        # first strictly length-reducing elementary move, scanned in index order
        for i in range(len(work)):
            for j in range(len(work)):
                if i == j:
                    continue
                wi, wj = work[i], work[j]
                wj_inv = fg.inverse(wj)
                for cand in (fg.reduced_product(wi, wj), fg.reduced_product(wi, wj_inv),
                             fg.reduced_product(wj, wi), fg.reduced_product(wj_inv, wi)):
                    if len(cand) < len(wi):
                        if not cand:
                            identity_seen = True
                        work[i] = cand
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break

    ok = not identity_seen and len(work) == start_count
    final = ", ".join(fg.format_word(Word(alphabet, t)) for t in work)
    if ok:
        return IndependenceReport(
            "nielsen", True, detail=f"Nielsen-reduced to [{final}]")
    return IndependenceReport(
        "nielsen", False,
        detail=(f"collapsed from {start_count} to {len(work)} words"
                + ("; a word reduced to the identity" if identity_seen else "")
                + f"; Nielsen-reduced to [{final}]"),
    )


def nielsen_independent_elements(elements) -> IndependenceReport:
    """Run the Nielsen oracle on the group words of quandle elements."""
    return nielsen_independent([to_group_word(e) for e in elements])
