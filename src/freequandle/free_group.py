"""Reduced-word arithmetic in the free group over a finite alphabet.

Letters are encoded as nonzero signed integers: ``+(i + 1)`` is generator
``i``, ``-(i + 1)`` its inverse.  Negation is inversion, which keeps the
hot loops on plain integer tuples.

This module owns that encoding and the one reduction loop.  Other modules
build and read letters with :func:`letter` and :func:`letter_generator`,
and work on reduced letter tuples through :func:`reduced_product`,
:func:`inverse`, :func:`conjugate_word` and :func:`cancellation_depth`.
:class:`Alphabet` also holds the encoding's letter tables, built once per
alphabet: the set of valid letters, each letter's spelling, and the
spellings read back as tokens for :func:`parse_word`.  So :class:`Word`
checks its letters with set operations (``issuperset`` of the valid
letters, and no zero among the sums of adjacent letters), and loops per
letter only to name the first bad one in its error.  :meth:`Alphabet.spell`
is the one reader of the spelling table: :func:`format_word`,
``conj_quandle.format_element`` and ``conj_quandle.spell_element``, which
``cli.cmd_closure`` calls on a closure's raw elements, all spell through it.
The documented fork is in the hot loops, where a call per pair trial or per
letter of a trie walk would dominate the running time.
``subquandle._new_elements`` inlines its depth scan (``-gw[c]``), one scan
of the common suffix per pair below the bound for both eps (3,721 pairs,
6,958 trials for ``{x^(y), y}`` at L = 6), and, at the bound, a one-letter
deletion that reads the sign of the deleted letter (``tail[k] > 0``) and
cancels with ``-tail[hi]`` (3,765 pairs, 2,920 trials).
``subquandle._acting_words`` builds both acting words of an element below
the bound around one inverse (``axis + 1``).  The trie walks and lookups read the encoding
inline: the closure's ``subquandle._walk`` (``axis + 1``,
``abs(key) - 1``) and ``subquandle._shrinkers`` (``abs(u[k]) - 1``, also
the axis of a missing shrinker's key on the wait-list), which also answers
a closure's shrinkers for ``basis.compute_T`` and ``basis.greedy_shrink``
(the sign of the letter before the shrinker's tail); and the
significant-factor check's ``conj_quandle.shrink_index`` (``axis + 1`` of
its ``(axis, letters)`` pairs) and ``conj_quandle.shrinkers`` (``abs(lt)``
and the sign of ``lt``).  So do the folded graph's reads in
:mod:`stallings`: ``_Folding`` (``-lt``), ``SubquandleGraph``
(``axis + 1``) and its count ``size_within`` (``-lt``, and ``lt > 0`` for
a loop's letter).
"""

from __future__ import annotations

import operator

from .errors import (
    AlphabetMismatch,
    InvalidLetter,
    MalformedExponent,
    UnknownGenerator,
)


def letter(generator: int, sign: int) -> int:
    """Encode (generator index, sign) as a signed-integer letter."""
    if sign not in (1, -1):
        raise InvalidLetter(f"sign must be +1 or -1, got {sign}")
    if generator < 0:
        raise InvalidLetter(f"negative generator index {generator}")
    return sign * (generator + 1)


def letter_generator(lt: int) -> int:
    return abs(lt) - 1


class _Value:
    """An immutable value, with what ``@dataclass(frozen=True)`` gave it.

    Its fields are the names annotated in its class body, in order, each
    with its class attribute, if any, as its default.  It is equal to an
    instance of its own class with equal fields (``NotImplemented`` for any
    other class), hashes by them, names them in its repr and raises
    ``AttributeError`` on assignment and deletion.  A class with
    ``__slots__`` (faster reads, no instance dict) writes its own
    ``__init__``, which sets the fields with ``object.__setattr__``.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        # a subclass that annotates nothing keeps its base's fields
        cls._fields = tuple(cls.__dict__.get("__annotations__", cls._fields))
        # a call gives at least the fields up to the last one without a default
        cls._required = max([i + 1 for i, name in enumerate(cls._fields)
                             if not hasattr(cls, name)], default=0)
        cls._key = property(operator.attrgetter(*cls._fields))
        # after n positional values, the names a keyword may give, and those
        # it must give
        n = len(cls._fields)
        cls._after = [frozenset(cls._fields[k:]) for k in range(n + 1)]
        cls._needed = [frozenset(cls._fields[k:cls._required]) for k in range(n + 1)]

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or not self._required <= len(args) <= len(fields):
            n = len(args)
            if not (n <= len(fields) and self._needed[n] <= kwargs.keys() <= self._after[n]):
                raise TypeError(f"{type(self).__name__}() takes the fields {fields}, "
                                "each at most once, and those without a default")
            fields, args = fields[:n] + tuple(kwargs), args + tuple(kwargs.values())
        for name, value in zip(fields, args):  # a field not given keeps its default
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle through the constructor
        return type(self), tuple([getattr(self, name) for name in self._fields])


class Alphabet(_Value):
    """Ordered finite set of named generators."""

    __slots__ = ("names", "_index", "_letters", "_spelling", "_tokens")
    names: tuple[str, ...]

    def __init__(self, names: tuple[str, ...]):
        if not names:
            raise ValueError("alphabet must be non-empty")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names}")
        for name in names:
            if not name or any(c.isspace() for c in name) or "^" in name:
                raise ValueError(f"bad generator name {name!r}")
            if name == "1" or "(" in name or ")" in name or name.startswith("#"):
                raise ValueError(f"reserved characters in generator name {name!r}")
        # the letter tables: a Word's valid letters, and the spelling of
        # each letter, which parse_word reads back as a token
        spelling = {}
        for i, name in enumerate(names):
            spelling[letter(i, 1)] = name
            spelling[letter(i, -1)] = name + "^-1"
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_letters", frozenset(spelling))
        object.__setattr__(self, "_spelling", spelling)
        object.__setattr__(self, "_tokens", {tok: lt for lt, tok in spelling.items()})

    def __len__(self) -> int:
        return len(self.names)

    def spell(self, letters: tuple[int, ...]) -> str:
        """The word grammar's spelling of reduced letters, read off the
        spelling table: the one spelling of letters, which
        :func:`format_word` and :func:`conj_quandle.spell_element` share."""
        return " ".join(map(self._spelling.__getitem__, letters)) if letters else "1"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownGenerator(
                f"{name!r} is not a generator of alphabet {' '.join(self.names)}"
            ) from None

    @classmethod
    def parse(cls, text: str) -> "Alphabet":
        return cls(tuple(text.split()))


def reduced_product(u: tuple[int, ...], raw) -> tuple[int, ...]:
    """Reduced form of the reduced letters ``u`` followed by any letters ``raw``.

    The one reduction loop: a stack scan removing adjacent inverse pairs.
    """
    out = list(u)
    for lt in raw:
        if out and out[-1] == -lt:
            out.pop()
        else:
            out.append(lt)
    return tuple(out)


def inverse(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The group inverse: reversed letters with flipped signs."""
    return tuple([-lt for lt in reversed(letters)])  # a list builds faster than a generator


def conjugate_word(generator: int, tail: tuple[int, ...]) -> tuple[int, ...]:
    """The group word ``tail^-1 x tail`` of generator x; reduced when the
    tail is reduced and does not start with ``x^±1``."""
    return inverse(tail) + (generator + 1,) + tail


class Word(_Value):
    """A reduced word in the free group over ``alphabet``.

    The empty tuple is the identity.  Construction does not re-reduce;
    use :func:`reduce` for arbitrary letter sequences.
    """

    __slots__ = ("alphabet", "letters")
    alphabet: Alphabet
    letters: tuple[int, ...]

    def __init__(self, alphabet: Alphabet, letters: tuple[int, ...] = ()):
        if not alphabet._letters.issuperset(letters):
            n = len(alphabet)
            for lt in letters:  # name the first bad letter
                if lt == 0 or abs(lt) > n:
                    raise InvalidLetter(f"letter {lt} out of bounds for {n} generators")
        if 0 in map(operator.add, letters, letters[1:]):  # an adjacent a, -a
            raise ValueError(f"word {letters} is not reduced")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", letters)

    def __eq__(self, other):  # the fields' comparison, without _key's call
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.letters, self.alphabet) == (other.letters, other.alphabet)

    def __hash__(self) -> int:
        # equal words have equal letters, so they alone are hashed: the
        # alphabet's hash would cost one more Python call per word
        return hash(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)

    def is_identity(self) -> bool:
        return not self.letters


def _check_same_alphabet(u: Word, v: Word) -> None:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatch(
            f"alphabets {u.alphabet.names} and {v.alphabet.names} differ"
        )


def one_alphabet(items, what: str) -> Alphabet:
    """The alphabet of the first item; raise :class:`AlphabetMismatch`
    unless every item has it.  Items parsed together share one alphabet
    object, which the identity test passes without comparing names."""
    alphabet = items[0].alphabet
    for it in items:
        if it.alphabet is not alphabet and it.alphabet != alphabet:
            raise AlphabetMismatch(f"{what} come from different alphabets")
    return alphabet


def reduce(alphabet: Alphabet, raw) -> Word:
    """Reduce an arbitrary sequence of letters to its unique normal form."""
    return Word(alphabet, reduced_product((), raw))


def multiply(u: Word, v: Word) -> Word:
    """Reduced product ``uv``."""
    _check_same_alphabet(u, v)
    return Word(u.alphabet, reduced_product(u.letters, v.letters))


def invert(w: Word) -> Word:
    """Reversed word with flipped signs; the group inverse."""
    return Word(w.alphabet, inverse(w.letters))


def cancellation_depth(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Number of letter pairs cancelled in the product of reduced letters u·v."""
    c, n = 0, len(u)
    while c < n and c < len(v) and u[n - 1 - c] == -v[c]:
        c += 1
    return c


def conjugate(g: Word, h: Word, eps: int = 1) -> Word:
    """Reduced form of ``(h^eps)^-1 g h^eps``."""
    _check_same_alphabet(g, h)
    he = h if eps == 1 else invert(h)
    return multiply(multiply(invert(he), g), he)


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse the word grammar: whitespace-separated ``name`` or ``name^-1``.

    ``1`` denotes the empty word.  The result is reduced.
    """
    tokens = text.split()
    if tokens == ["1"]:
        return Word(alphabet)
    table = alphabet._tokens
    # letters are nonzero: a token missing from the table goes to _token_letter
    return reduce(alphabet, [table.get(tok) or _token_letter(alphabet, tok)
                             for tok in tokens])


def _token_letter(alphabet: Alphabet, tok: str) -> int:
    """The letter of one token, by its grammar; names what is wrong with a
    token that is not in the alphabet's table."""
    if "^" in tok:
        name, _, exp = tok.partition("^")
        if exp != "-1":
            raise MalformedExponent(f"expected ^-1 in token {tok!r}")
        sign = -1
    else:
        name, sign = tok, 1
    return letter(alphabet.index(name), sign)


def format_word(w: Word) -> str:
    """Inverse of :func:`parse_word`; the empty word prints as ``1``."""
    return w.alphabet.spell(w.letters)
