import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teslab.qt_algebra import (
    M,
    ONE,
    Q,
    T,
    ZERO,
    LaurentPolyQT,
    RatFuncQT,
    exact_div,
    q_int,
    qt_int,
)


def lp(d):
    return LaurentPolyQT(d)


small_polys = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-6, 6),
    max_size=5,
).map(LaurentPolyQT)


class TestLaurentArith:
    def test_m_expansion(self):
        assert (ONE - Q) * (ONE - T) == M
        assert str(M) == "1 - q - t + q*t"

    def test_additive_inverse(self):
        p = Q + T
        assert (p + (-p)).is_zero()
        assert (p + (-p)).terms == {}

    def test_monomial_inversion(self):
        qt = Q * T
        assert qt ** -1 == lp({(-1, -1): 1})

    def test_negative_power_rejects_nonmonomial(self):
        with pytest.raises(ValueError, match="non-invertible element"):
            (ONE + Q) ** -1
        with pytest.raises(ValueError, match="non-invertible element"):
            (2 * Q) ** -1

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @given(small_polys)
    @settings(max_examples=40, deadline=None)
    def test_bar_involution(self, a):
        assert a.bar().bar() == a

    def test_bar_examples(self):
        assert (Q + Q * T).bar() == lp({(-1, 0): 1, (-1, -1): 1})
        assert M.bar() * (Q * T) == M  # bar(M) = M/(qt)


class TestQTAnalogues:
    def test_qt_int_small(self):
        assert qt_int(2) == Q + T
        assert qt_int(0) == ZERO
        assert qt_int(1) == ONE
        assert qt_int(-1) == lp({(-1, -1): -1})

    def test_q_int_small(self):
        assert q_int(3) == lp({(0, 0): 1, (1, 0): 1, (2, 0): 1})
        assert q_int(1) == ONE
        assert q_int(-2) == lp({(-1, 0): -1, (-2, 0): -1})

    @pytest.mark.parametrize("k", range(1, 13))
    def test_negation_law(self, k):
        # [-k] = -(qt)^(-k) [k]
        lhs = qt_int(-k)
        rhs = -((Q * T) ** -k) * qt_int(k)
        assert lhs == rhs

    @pytest.mark.parametrize("k", range(1, 13))
    def test_bar_scaling_law(self, k):
        # bar([k]) = (qt)^(1-k) [k]; the identity that replaces the broken
        # bar(a_k) = -qt a_k bookkeeping
        assert qt_int(k).bar() == (Q * T) ** (1 - k) * qt_int(k)

    @pytest.mark.parametrize("k", list(range(-6, 7)))
    def test_t1_specialization_is_q_int(self, k):
        assert qt_int(k).specialize(t=1) == q_int(k)

    def test_definition_by_division(self):
        for k in range(0, 9):
            assert exact_div(Q ** k - T ** k, Q - T) == qt_int(k)


class TestSpecialize:
    def test_t0(self):
        assert (ONE + Q + T).specialize(t=0) == ONE + Q
        assert qt_int(2).specialize(t=0) == Q

    def test_pole(self):
        with pytest.raises(ValueError, match="pole at specialization"):
            qt_int(-1).specialize(t=0)

    def test_full_binding(self):
        assert (ONE + Q + T).specialize(q=1, t=1) == Fraction(3)
        assert qt_int(-1).specialize(q=2, t=3) == Fraction(-1, 6)
        assert (ONE + Q * T).specialize(q=0, t=5) == Fraction(1)
        with pytest.raises(ValueError, match="pole"):
            qt_int(-1).specialize(q=0, t=1)

    def test_minus_one(self):
        assert (Q + T).specialize(q=-1) == T - 1


class TestRatFunc:
    def test_multiply_cancels(self):
        one_minus_q = ONE - Q
        r = RatFuncQT(ONE, one_minus_q) * RatFuncQT.from_laurent(one_minus_q)
        assert r.is_laurent() and r.to_laurent() == ONE

    def test_cross_multiplication_equality(self):
        lhs = RatFuncQT(Q, (ONE - Q) * (Q - T))
        rhs = RatFuncQT(Q * (ONE - T), (ONE - Q) * (ONE - T) * (Q - T))
        assert lhs == rhs

    def test_additive_inverse(self):
        r = RatFuncQT(ONE, M)
        assert (r + (-r)).is_zero()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RatFuncQT.from_laurent(ONE) / RatFuncQT.from_laurent(ZERO)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFuncQT(ONE, ZERO)

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=40, deadline=None)
    def test_field_laws(self, a, b, c):
        db = RatFuncQT(a, M) if not a.is_zero() else RatFuncQT(ONE + Q, M)
        rb = RatFuncQT(b, ONE - Q)
        rc = RatFuncQT(c, (ONE - T) * (Q - T))
        assert db * (rb + rc) == db * rb + db * rc
        assert (db * rb) / db == rb

    def test_bar(self):
        r = RatFuncQT(ONE, Q - T)
        # bar(1/(q-t)) = 1/(1/q - 1/t) = qt/(t-q)
        assert r.bar() == RatFuncQT(Q * T, T - Q)

    def test_numerator_denominator_contract(self):
        r = RatFuncQT(qt_int(-1), ONE - Q)
        num, den = r.numerator, r.denominator
        assert min(e for e, _ in num.terms) >= 0 if num.terms else True
        assert RatFuncQT(num, den) == r


class TestRfToLaurent:
    def test_qt_int_quotient(self):
        assert RatFuncQT(Q ** 2 - T ** 2, Q - T).to_laurent() == Q + T

    def test_unit_quotient(self):
        assert RatFuncQT(ONE - Q, ONE - Q).to_laurent() == ONE

    def test_failure(self):
        with pytest.raises(ValueError, match="not a Laurent polynomial"):
            RatFuncQT(ONE, ONE - Q).to_laurent()

    @given(small_polys)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_identity(self, a):
        assert RatFuncQT.from_laurent(a).to_laurent() == a

    def test_monomial_denominator_shifts(self):
        assert RatFuncQT(Q * T + Q ** 2 * T, Q * T).to_laurent() == ONE + Q

    def test_integer_content(self):
        assert RatFuncQT(2 * Q, LaurentPolyQT.const(2)).to_laurent() == Q
        with pytest.raises(ValueError):
            RatFuncQT(Q, LaurentPolyQT.const(2)).to_laurent()


class TestDisplay:
    def test_golden_strings(self):
        assert str(ONE + Q + T) == "1 + q + t"
        assert str(qt_int(3)) == "q^2 + q*t + t^2"
        assert str(ZERO) == "0"
        assert str(lp({(-1, -1): -1, (0, 0): 1})) == "-q^-1*t^-1 + 1"
        assert str(lp({(1, 0): 2, (0, 0): 1, (2, 0): 1})) == "1 + 2*q + q^2"

    def test_json_terms(self):
        assert (ONE + 2 * Q).json_terms() == [[0, 0, "1"], [1, 0, "2"]]


class TestExactDiv:
    @given(small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_product_divides(self, a, b):
        if b.is_zero():
            return
        assert exact_div(a * b, b) == a

    def test_non_divisible(self):
        assert exact_div(ONE + Q, ONE - Q) is None
        assert exact_div(Q, LaurentPolyQT.const(2)) is None

    def test_seeded_random_laurent(self):
        rng = random.Random(7)
        for _ in range(50):
            a = lp({(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-4, 4)
                    for _ in range(rng.randint(0, 4))})
            b = lp({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                    for _ in range(rng.randint(1, 3))})
            if b.is_zero():
                continue
            assert exact_div(a * b, b) == a
