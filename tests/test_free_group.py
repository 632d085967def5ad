import pytest
from hypothesis import given, strategies as st

from freequandle import conj_quandle as cq
from freequandle import free_group as fg
from freequandle.errors import AlphabetMismatch, InvalidLetter, MalformedExponent, UnknownGenerator
from freequandle.free_group import Alphabet, Word


XY = Alphabet(("x", "y"))
X, XI, Y, YI = 1, -1, 2, -2

letters = st.lists(st.sampled_from([X, XI, Y, YI]), max_size=12)
words = letters.map(lambda raw: fg.reduce(XY, raw))


def w(text):
    return fg.parse_word(XY, text)


class TestReduce:
    def test_full_cancellation(self):
        assert fg.reduce(XY, [X, XI]) == w("1")

    def test_already_reduced(self):
        assert fg.reduce(XY, [X, YI, X]) == w("x y^-1 x")

    def test_nested_cancellation(self):
        assert fg.reduce(XY, [X, Y, YI, Y, YI, XI]) == w("1")

    def test_out_of_bounds_letter(self):
        with pytest.raises(InvalidLetter):
            fg.reduce(XY, [3])
        with pytest.raises(InvalidLetter):
            fg.reduce(XY, [0])
        with pytest.raises(InvalidLetter, match="sign must be"):
            fg.letter(0, 2)
        with pytest.raises(InvalidLetter, match="negative generator index"):
            fg.letter(-1, 1)

    def test_word_must_be_reduced(self):
        # Word does not reduce: a tuple with a cancelling pair is rejected
        with pytest.raises(ValueError, match="not reduced"):
            Word(XY, (X, Y, YI))

    @given(letters)
    def test_idempotent(self, raw):
        once = fg.reduce(XY, raw)
        assert fg.reduce(XY, once.letters) == once

    @given(letters)
    def test_no_adjacent_inverses(self, raw):
        out = fg.reduce(XY, raw).letters
        assert all(a != -b for a, b in zip(out, out[1:]))


class TestMultiply:
    def test_identity(self):
        assert fg.multiply(w("x y"), w("1")) == w("x y")

    def test_single_cancellation(self):
        assert fg.multiply(w("x y"), w("y^-1 x")) == w("x x")

    def test_cascading_cancellation(self):
        assert fg.multiply(w("x y x^-1"), w("x y^-1")) == w("x")

    def test_alphabet_mismatch(self):
        other = Alphabet(("x", "y", "z"))
        with pytest.raises(AlphabetMismatch):
            fg.multiply(w("x"), Word(other, (1,)))

    @given(words, words, words)
    def test_associative(self, u, v, t):
        assert fg.multiply(fg.multiply(u, v), t) == fg.multiply(u, fg.multiply(v, t))

    @given(words, words)
    def test_parity(self, u, v):
        assert len(fg.multiply(u, v)) % 2 == (len(u) + len(v)) % 2

    @given(words, words)
    def test_length_bound(self, u, v):
        assert len(fg.multiply(u, v)) <= len(u) + len(v)


class TestInvert:
    def test_identity(self):
        assert fg.invert(w("1")) == w("1")

    def test_generator(self):
        assert fg.invert(w("x")) == w("x^-1")

    def test_reverse_and_flip(self):
        assert fg.invert(w("x y^-1")) == w("y x^-1")

    @given(words)
    def test_involution(self, u):
        assert fg.invert(fg.invert(u)) == u

    @given(words)
    def test_inverse_law(self, u):
        assert fg.multiply(u, fg.invert(u)).is_identity()
        assert fg.multiply(fg.invert(u), u).is_identity()


class TestConjugate:
    def test_by_identity(self):
        assert fg.conjugate(w("x"), w("1"), 1) == w("x")

    def test_definition(self):
        assert fg.conjugate(w("x"), w("y"), 1) == w("y^-1 x y")

    def test_inverse_undoes(self):
        assert fg.conjugate(w("y^-1 x y"), w("y"), -1) == w("x")

    @given(words, words)
    def test_round_trip(self, g, h):
        assert fg.conjugate(fg.conjugate(g, h, 1), h, -1) == g


class TestGrammar:
    def test_parse(self):
        assert w("x y^-1 x").letters == (X, YI, X)

    def test_parse_reduces(self):
        assert w("x x^-1") == w("1")
        assert str(w("x x^-1")) == "1"

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            w("z")

    def test_malformed_exponent(self):
        with pytest.raises(MalformedExponent):
            w("x^2")

    @given(words)
    def test_round_trip(self, u):
        assert fg.parse_word(XY, fg.format_word(u)) == u


class TestAlphabet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(("x", "x"))

    def test_rejects_bad_names(self):
        # a problem-file line starting with # is a comment; no names at all
        # is no alphabet
        for names in (("a b",), ("a^",), ("",), ("#a",), ()):
            with pytest.raises(ValueError):
                Alphabet(names)

    def test_index(self):
        assert XY.index("y") == 1


# the word paths as they were before the alphabet's letter tables, verbatim,
# as the reference for the table-driven ones
def old_word_checks(alphabet, letters):
    n = len(alphabet)
    for lt in letters:
        if lt == 0 or abs(lt) > n:
            raise InvalidLetter(f"letter {lt} out of bounds for {n} generators")
    for a, b in zip(letters, letters[1:]):
        if a == -b:
            raise ValueError(f"word {letters} is not reduced")


def old_parse_word(alphabet, text):
    tokens = text.split()
    if tokens == ["1"]:
        return Word(alphabet)
    raw = []
    for tok in tokens:
        if "^" in tok:
            name, _, exp = tok.partition("^")
            if exp != "-1":
                raise MalformedExponent(f"expected ^-1 in token {tok!r}")
            sign = -1
        else:
            name, sign = tok, 1
        raw.append(fg.letter(alphabet.index(name), sign))
    return fg.reduce(alphabet, raw)


def old_format_word(w):
    if not w.letters:
        return "1"
    parts = []
    for lt in w.letters:
        name = w.alphabet.names[fg.letter_generator(lt)]
        parts.append(name if lt > 0 else name + "^-1")
    return " ".join(parts)


def outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


XYZ = Alphabet(("x", "y", "z"))
alphabets = st.sampled_from([Alphabet(("x",)), XY, XYZ])
raw_letters = st.lists(st.integers(-4, 4), max_size=8).map(tuple)
tokens = st.sampled_from(["x", "y", "x^-1", "y^-1", "x^-2", "x^", "^-1", "w", "1"])


class TestAgainstOldLoops:
    @given(alphabets, raw_letters)
    def test_word_checks(self, alphabet, letters):
        # 0, out-of-range and adjacent-inverse letters, in any mix
        old = outcome(old_word_checks, alphabet, letters)
        new = outcome(Word, alphabet, letters)
        if old is None:
            assert new.letters == letters
        else:
            assert new == old

    def test_word_check_messages(self):
        for letters in [(0,), (1, 3), (3, 0), (1, -1), (2, 1, -1), (1, -1, 5)]:
            old = outcome(old_word_checks, XY, letters)
            assert old is not None and outcome(Word, XY, letters) == old

    @given(st.lists(tokens, max_size=6), st.sampled_from([" ", "  ", "\t"]))
    def test_parse_word(self, toks, sep):
        # valid, unreduced, x^-2, x^, unknown-name and 1 tokens
        text = sep.join(toks)
        assert outcome(fg.parse_word, XY, text) == outcome(old_parse_word, XY, text)

    def test_parse_word_errors(self):
        for text in ["x^-2", "x^", "^-1", "w", "x 1", "1 1", "x y^-1 z", "x^-1^-1"]:
            old = outcome(old_parse_word, XY, text)
            assert isinstance(old, tuple) and outcome(fg.parse_word, XY, text) == old
        assert fg.parse_word(XY, " 1 ") == Word(XY) == old_parse_word(XY, "1")

    @given(alphabets, st.data())
    def test_format_word(self, alphabet, data):
        n = len(alphabet)
        raw = data.draw(st.lists(st.sampled_from([*range(-n, 0), *range(1, n + 1)]),
                                 max_size=10))
        u = fg.reduce(alphabet, raw)
        assert fg.format_word(u) == old_format_word(u)

    @given(words)
    def test_hash_and_equality(self, word):
        letters = word.letters
        u, v = Word(XY, letters), Word(Alphabet(("x", "y")), letters)
        assert u == v and hash(u) == hash(v)
        assert Word(XYZ, letters) != u
        if letters and abs(letters[0]) != 1:
            e = cq.QuandleElement(0, u)
            assert e == cq.QuandleElement(0, v) and hash(e) == hash(cq.QuandleElement(0, v))
            assert cq.QuandleElement(0, Word(XYZ, letters)) != e
