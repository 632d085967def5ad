import random

import pytest
from hypothesis import given, strategies as st

from freequandle import conj_quandle as cq
from freequandle import free_group as fg
from freequandle.conj_quandle import LEFT, RIGHT, QuandleElement
from freequandle.errors import AlphabetMismatch, NotInFreeQuandle
from freequandle.free_group import Alphabet

XY = Alphabet(("x", "y"))


def w(text):
    return fg.parse_word(XY, text)


def el(text):
    return cq.parse_element(XY, text)


elements = st.integers(min_value=0).map(
    lambda s: cq.random_element(XY, 4, random.Random(s)))


class TestCanonicalize:
    def test_generator_itself(self):
        e = cq.canonicalize(0, w("1"))
        assert e == el("x")

    def test_leading_axis_absorbed(self):
        assert cq.canonicalize(0, w("x y")) == el("x^(y)")

    def test_repeated_stripping(self):
        assert cq.canonicalize(0, w("x^-1 x^-1 y x")) == el("x^(y x)")

    def test_constructor_rejects_non_canonical(self):
        with pytest.raises(ValueError, match="out of alphabet bounds"):
            QuandleElement(2, w("y"))
        with pytest.raises(ValueError, match="not canonical"):
            QuandleElement(0, w("x^-1 y"))

    def test_canonical_tail_kept(self):
        # a tail with nothing to strip is used as given, not rebuilt
        tail = w("y x")
        assert cq.canonicalize(0, tail).tail is tail

    def test_same_conjugacy_action(self):
        # stripping does not change the group element being represented
        tail = w("x^-1 y x")
        assert cq.to_group_word(cq.canonicalize(0, tail)) == \
            fg.conjugate(w("x"), tail, 1)


class TestGroupWordRoundTrip:
    def test_bare_generator(self):
        assert cq.to_group_word(el("x")) == w("x")

    def test_definition(self):
        assert cq.to_group_word(el("x^(y)")) == w("y^-1 x y")

    def test_no_cancellation(self):
        assert cq.to_group_word(el("x^(y x)")) == w("x^-1 y^-1 x y x")

    def test_from_direct_match(self):
        assert cq.from_group_word(w("y^-1 x y")) == el("x^(y)")

    def test_even_length_rejected(self):
        with pytest.raises(NotInFreeQuandle):
            cq.from_group_word(w("x y"))

    def test_inverse_generator_rejected(self):
        with pytest.raises(NotInFreeQuandle):
            cq.from_group_word(w("y^-1 x^-1 y"))

    def test_not_a_conjugate_rejected(self):
        with pytest.raises(NotInFreeQuandle):
            cq.from_group_word(w("y x y"))

    @given(elements)
    def test_round_trip(self, e):
        assert cq.from_group_word(cq.to_group_word(e)) == e

    @given(elements)
    def test_odd_length(self, e):
        assert len(cq.to_group_word(e)) % 2 == 1
        assert len(cq.to_group_word(e)) == 2 * len(e.tail) + 1


class TestAct:
    def test_idempotence_instance(self):
        assert cq.act(el("x"), el("x"), RIGHT) == el("x")

    def test_left_undoes_tail(self):
        assert cq.act(el("x^(y)"), el("y"), LEFT) == el("x")

    def test_strips_after_multiplying(self):
        # tail 1 · (y^-1 x y) canonicalizes by stripping the leading y^-1
        result = cq.act(el("y"), el("x^(y)"), RIGHT)
        assert result == el("y^(x y)")
        assert cq.to_group_word(result) == w("y^-1 x^-1 y x y")

    def test_alphabet_mismatch(self):
        other = Alphabet(("x",))
        with pytest.raises(AlphabetMismatch, match="come from different alphabets"):
            cq.act(el("x"), QuandleElement(0, fg.Word(other)), RIGHT)

    @given(elements, elements, st.sampled_from([RIGHT, LEFT]))
    def test_axis_preserved(self, a, q, eps):
        assert cq.act(a, q, eps).axis == a.axis

    @given(elements, elements, st.sampled_from([RIGHT, LEFT]))
    def test_matches_group_conjugation(self, a, q, eps):
        # independent oracle: the action is conjugation of group words
        expected = fg.conjugate(cq.to_group_word(a), cq.to_group_word(q), eps)
        assert cq.to_group_word(cq.act(a, q, eps)) == expected


class TestElementGrammar:
    def test_explicit_form(self):
        assert el("x^(y)") == cq.canonicalize(0, w("y"))

    def test_group_word_route(self):
        assert el("y^-1 x y") == el("x^(y)")

    def test_even_word_rejected(self):
        with pytest.raises(NotInFreeQuandle):
            el("x y")

    @given(elements)
    def test_round_trip(self, e):
        assert cq.parse_element(XY, cq.format_element(e)) == e


def _reference_report(alphabet, sample_count, max_tail_len, seed):
    """The sampling loop of ``verify_axioms`` with one hand-written check
    per law, kept as the reference for its ``checked`` and ``failures``.
    It calls ``cq.act`` at run time, so a patched ``act`` is used here too."""
    act = cq.act
    rng = random.Random(seed)
    failures = []

    def record(law, ok, *elts):
        if not ok:
            failures.append(cq.AxiomFailure(law, elts))

    for _ in range(sample_count):
        a = cq.random_element(alphabet, max_tail_len, rng)
        b = cq.random_element(alphabet, max_tail_len, rng)
        c = cq.random_element(alphabet, max_tail_len, rng)
        record("idempotence_right", act(a, a, RIGHT) == a, a)
        record("idempotence_left", act(a, a, LEFT) == a, a)
        record("inverse_right_then_left", act(act(a, b, RIGHT), b, LEFT) == a, a, b)
        record("inverse_left_then_right", act(act(a, b, LEFT), b, RIGHT) == a, a, b)
        for law, eps in (("self_distributivity_right", RIGHT),
                         ("self_distributivity_left", LEFT)):
            lhs = act(act(a, b, eps), c, eps)
            rhs = act(act(a, c, eps), act(b, c, eps), eps)
            record(law, lhs == rhs, a, b, c)
    laws = ("idempotence_right", "idempotence_left", "inverse_right_then_left",
            "inverse_left_then_right", "self_distributivity_right",
            "self_distributivity_left")
    return list(dict.fromkeys(laws, sample_count).items()), tuple(failures)


_act = cq.act
# wrong actions, each breaking some of the laws
_WRONG_ACTS = {
    "ignores_eps": lambda a, q, eps=RIGHT: _act(a, q, RIGHT),
    "always_by_y": lambda a, q, eps=RIGHT: _act(a, el("y"), eps),
    "identity_on_long_q": lambda a, q, eps=RIGHT: a if len(q.tail) >= 2 else _act(a, q, eps),
}


class TestVerifyAxioms:
    def test_one_generator(self):
        report = cq.verify_axioms(Alphabet(("x",)), 50, seed=3)
        assert report.passed

    def test_two_generators(self):
        report = cq.verify_axioms(XY, 200, max_tail_len=4, seed=1)
        assert report.passed
        assert all(n == 200 for n in report.checked.values())

    def test_failures_match_reference(self, monkeypatch):
        laws = set()
        for wrong in _WRONG_ACTS.values():
            monkeypatch.setattr(cq, "act", wrong)
            report = cq.verify_axioms(XY, 40, max_tail_len=3, seed=2)
            checked, failures = _reference_report(XY, 40, 3, 2)
            assert (list(report.checked.items()), report.failures) == (checked, failures)
            laws |= {f.law for f in report.failures}
        assert laws == set(report.checked)

    def test_idempotence_instance(self):
        a = el("x^(y x)")
        assert cq.act(a, a, RIGHT) == a
        assert cq.act(a, a, LEFT) == a

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            cq.verify_axioms(XY, 0)

    @pytest.mark.parametrize("names", [("x",), ("x", "y")])
    def test_rejects_negative_tail_length(self, names):
        with pytest.raises(ValueError, match="max_tail_len must be >= 0"):
            cq.verify_axioms(Alphabet(names), 10, max_tail_len=-2)
