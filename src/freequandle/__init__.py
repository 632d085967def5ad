"""Free quandles as conjugation classes in free groups.

Reduced-word arithmetic, canonical free-quandle elements, bounded
subquandle closures, free-basis computation, and two independence
checkers for certifying that a computed basis is free.
"""

from .free_group import Alphabet, Word, reduce, multiply, invert, conjugate
from .conj_quandle import (
    QuandleElement,
    act,
    canonicalize,
    from_group_word,
    to_group_word,
    verify_axioms,
    RIGHT,
    LEFT,
)
from .subquandle import ClosureSet, QuandleTerm, closure, express
from .basis import BasisReport, ShrinkMove, compute_S, compute_T, greedy_shrink
from .independence import (
    IndependenceReport,
    check_significant_factors,
    nielsen_independent,
)

__all__ = [
    "Alphabet", "Word", "reduce", "multiply", "invert", "conjugate",
    "QuandleElement", "act", "canonicalize", "from_group_word",
    "to_group_word", "verify_axioms", "RIGHT", "LEFT",
    "ClosureSet", "QuandleTerm", "closure", "express",
    "BasisReport", "ShrinkMove", "compute_S", "compute_T", "greedy_shrink",
    "IndependenceReport", "check_significant_factors", "nielsen_independent",
]

__version__ = "0.1.0"
