"""Elements of the free quandle as canonical conjugates of generators.

An element is a pair (axis, tail): the conjugate ``tail^-1 axis tail`` of
the generator ``axis`` inside the free group.  Canonical form requires the
tail not to start with the axis letter or its inverse, which makes the
representation unique and the group word cancellation-free.
"""

from __future__ import annotations

from types import MappingProxyType

from . import free_group as fg
from .errors import NotInFreeQuandle
from .free_group import Alphabet, Word, _Value

RIGHT = 1   # the operation a ▷ q, conjugation by q
LEFT = -1   # the operation a ◁ q, conjugation by q^-1

# the longest tail verify_axioms samples: 200 samples take 8-12 s at
# this bound, and a tail of 2 * 10**8 letters exhausts 600 MB of memory
MAX_SAMPLE_TAIL_LEN = 10_000


class QuandleElement(_Value):
    """Canonical conjugate ``axis^tail`` of a generator."""

    __slots__ = ("axis", "tail")
    axis: int
    tail: Word

    def __init__(self, axis: int, tail: Word):
        if not 0 <= axis < len(tail.alphabet):
            raise ValueError(f"axis {axis} out of alphabet bounds")
        if tail.letters and fg.letter_generator(tail.letters[0]) == axis:
            raise ValueError("tail starts with the axis letter; not canonical")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "tail", tail)

    @property
    def alphabet(self) -> Alphabet:
        return self.tail.alphabet

    def __str__(self) -> str:
        return format_element(self)


def canonical_tail(axis: int, letters: tuple[int, ...]) -> tuple[int, ...]:
    """Strip leading axis letters from tail letters: x^(x^±1 u) = x^u."""
    i = 0
    while i < len(letters) and fg.letter_generator(letters[i]) == axis:
        i += 1
    return letters[i:]


def canonicalize(axis: int, tail: Word) -> QuandleElement:
    """The canonical element ``axis^tail``; see :func:`canonical_tail`."""
    letters = canonical_tail(axis, tail.letters)
    if len(letters) < len(tail.letters):
        tail = Word(tail.alphabet, letters)
    return QuandleElement(axis, tail)


def to_group_word(e: QuandleElement) -> Word:
    """The reduced group word ``tail^-1 axis tail`` (length 2|tail| + 1)."""
    return Word(e.alphabet, fg.conjugate_word(e.axis, e.tail.letters))


def from_group_word(w: Word) -> QuandleElement:
    """Recognize ``u^-1 x u`` for a generator x; inverse of to_group_word."""
    n = len(w.letters)
    if n % 2 == 0:
        raise NotInFreeQuandle(f"word {w} has even length {n}")
    k = n // 2
    axis = fg.letter_generator(w.letters[k])
    if w.letters[k] != fg.letter(axis, 1):
        raise NotInFreeQuandle(
            f"word {w} is conjugate to an inverse generator, not a generator"
        )
    suffix = w.letters[k + 1:]
    if w.letters != fg.conjugate_word(axis, suffix):
        raise NotInFreeQuandle(f"word {w} is not of the form u^-1 x u")
    # canonical already: in the reduced u^-1 x u, a leading x^±1 of u would cancel
    return QuandleElement(axis, Word(w.alphabet, suffix))


def act(a: QuandleElement, q: QuandleElement, eps: int = RIGHT) -> QuandleElement:
    """Conjugation action: eps=+1 is a ▷ q, eps=-1 is a ◁ q.

    The result is ``axis(a)^(tail(a) · gw(q)^eps)`` in canonical form; the
    axis never changes.  Elements of two alphabets raise
    :class:`errors.AlphabetMismatch`.
    """
    alphabet = fg.one_alphabet((a, q), "elements")
    gw = fg.conjugate_word(q.axis, q.tail.letters)
    if eps == -1:
        gw = fg.inverse(gw)
    tail = canonical_tail(a.axis, fg.reduced_product(a.tail.letters, gw))
    return QuandleElement(a.axis, Word(alphabet, tail))


def shrink_index(elements) -> tuple[dict, dict]:
    """A trie of the elements' reversed tails for :func:`shrinkers`, over
    canonical elements given as ``(axis, tail letters)`` pairs, with tails
    of any length.  A node is ``(children by letter, {y + 1: least k})``
    over the ``elements[k] = y^u`` whose reversed tail ends at it."""
    root: tuple[dict, dict] = ({}, {})
    for k, (axis, tail) in enumerate(elements):
        node = root
        for lt in reversed(tail):
            node = node[0].setdefault(lt, ({}, {}))
        node[1].setdefault(axis + 1, k)
    return root


def shrinkers(index, tail: tuple[int, ...]):
    """``(k, eps)`` for each indexed ``elements[k]`` whose eps action
    shortens ``tail``, by one walk of ``tail`` reversed: linear in
    ``len(tail)``.

    The suffix characterization: ``gw(q)^eps = u^-1 y^eps u`` for
    ``q = y^u``, and by parity ``tail · gw(q)^eps`` is shorter than ``tail``
    exactly when the half ``u^-1 y^eps`` cancels completely, that is, when
    ``tail`` ends with ``y^-eps u``.  The walk meets each u that is a
    proper suffix of ``tail``; the letter of ``tail`` before it names y and
    eps.  Of the elements filed there with that axis only the least k is
    yielded, so ``min`` of the hits is the first move of a scan over the
    elements in index order, eps -1 before +1.

    The significant-factor criterion (Lyndon–Schupp 1977, I.2) asks the
    same of a set.  For ``a = t_a^-1 x^σ t_a`` and ``b = t_b^-1 y^τ t_b``,
    ``a·b`` cancels past a central letter exactly when the longer tail ends
    with ``x^σ t_a`` (a shorter) or ``y^-τ t_b`` (b shorter); equal tails
    do so only if ``a = b^-1``.  So a product over the set and its inverses
    fails iff some ``elements[k]`` is shortened by an ``elements[j]^eps``,
    and then ``elements[j] · elements[k]`` fails if eps is -1 and
    ``elements[k] · elements[j]`` if it is +1.
    """
    node = index
    for lt in reversed(tail):
        children, ends = node
        k = ends.get(abs(lt))
        if k is not None:
            yield k, -1 if lt > 0 else 1
        node = children.get(lt)
        if node is None:
            return


def parse_element(alphabet: Alphabet, text: str) -> QuandleElement:
    """Parse the element grammar.

    Accepts ``x^(w)`` with w in word grammar, a bare generator name, or a
    raw group word routed through :func:`from_group_word`.
    """
    text = text.strip()
    if "^(" in text:
        name, _, rest = text.partition("^")
        rest = rest.strip()
        inner = rest[1:-1]
        if not (rest.startswith("(") and rest.endswith(")")
                and "(" not in inner and ")" not in inner):
            raise NotInFreeQuandle(f"malformed element {text!r}")
        axis = alphabet.index(name.strip())
        tail = fg.parse_word(alphabet, inner)
        return canonicalize(axis, tail)
    return from_group_word(fg.parse_word(alphabet, text))


def format_element(e: QuandleElement) -> str:
    """Inverse of :func:`parse_element`: bare axis or ``x^(w)``."""
    return spell_element(e.alphabet, e.axis, e.tail.letters)


def spell_element(alphabet: Alphabet, axis: int, letters: tuple[int, ...]) -> str:
    """:func:`format_element` of the canonical ``axis^letters`` over
    ``alphabet``, for callers that hold an element's letters, not the
    element; its tail is spelled by :meth:`free_group.Alphabet.spell`."""
    name = alphabet.names[axis]
    return f"{name}^({alphabet.spell(letters)})" if letters else name


def random_element(alphabet: Alphabet, max_tail_len: int, rng) -> QuandleElement:
    """A uniformly-shaped random canonical element (for axiom sampling),
    drawn with ``rng``, a ``random.Random``."""
    axis = rng.randrange(len(alphabet))
    # over one generator the only canonical elements are the generators
    length = 0 if len(alphabet) == 1 else rng.randint(0, max_tail_len)
    letters: list[int] = []
    n = len(alphabet)
    while len(letters) < length:
        lt = fg.letter(rng.randrange(n), rng.choice((1, -1)))
        if letters and letters[-1] == -lt:
            continue
        if not letters and fg.letter_generator(lt) == axis:
            continue
        letters.append(lt)
    return QuandleElement(axis, Word(alphabet, tuple(letters)))


class AxiomFailure(_Value):
    law: str
    elements: tuple[QuandleElement, ...]


class AxiomReport(_Value):
    alphabet: Alphabet
    samples: int
    seed: int
    checked: dict[str, int] = MappingProxyType({})  # the default is shared: read-only
    failures: tuple[AxiomFailure, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def _distributes(a: QuandleElement, b: QuandleElement, c: QuandleElement,
                 eps: int) -> bool:
    return act(act(a, b, eps), c, eps) == act(act(a, c, eps), act(b, c, eps), eps)


# law -> (how many of the sampled a, b, c it reads, whether it holds on them)
_LAWS = {
    "idempotence_right": (1, lambda a: act(a, a, RIGHT) == a),
    "idempotence_left": (1, lambda a: act(a, a, LEFT) == a),
    "inverse_right_then_left": (2, lambda a, b: act(act(a, b, RIGHT), b, LEFT) == a),
    "inverse_left_then_right": (2, lambda a, b: act(act(a, b, LEFT), b, RIGHT) == a),
    "self_distributivity_right": (3, lambda a, b, c: _distributes(a, b, c, RIGHT)),
    "self_distributivity_left": (3, lambda a, b, c: _distributes(a, b, c, LEFT)),
}


def verify_axioms(alphabet: Alphabet, sample_count: int, max_tail_len: int = 4,
                  seed: int = 0) -> AxiomReport:
    """Check the quandle laws on random canonical elements.

    Laws checked per sampled triple (a, b, c): idempotence act(a,a,ε)=a,
    the two inverse laws act(act(a,b,±1),b,∓1)=a, and right
    self-distributivity act(act(a,b,ε),c,ε) = act(act(a,c,ε),act(b,c,ε),ε)
    for both ε.  Equality is structural equality of canonical forms.
    Tails have at most ``max_tail_len`` letters, which may not exceed
    :data:`MAX_SAMPLE_TAIL_LEN`.
    """
    if sample_count <= 0:
        raise ValueError("sample_count must be positive")
    if max_tail_len < 0:
        raise ValueError("max_tail_len must be >= 0")
    if max_tail_len > MAX_SAMPLE_TAIL_LEN:
        raise ValueError(f"max_tail_len must be <= {MAX_SAMPLE_TAIL_LEN}")
    import random  # here, so that importing the CLI does not load it
    rng = random.Random(seed)
    failures: list[AxiomFailure] = []
    for _ in range(sample_count):
        sample = tuple(random_element(alphabet, max_tail_len, rng) for _ in range(3))
        for law, (arity, holds) in _LAWS.items():
            if not holds(*sample[:arity]):
                failures.append(AxiomFailure(law, sample[:arity]))

    return AxiomReport(alphabet, sample_count, seed,
                       dict.fromkeys(_LAWS, sample_count), tuple(failures))
