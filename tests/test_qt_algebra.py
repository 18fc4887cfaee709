import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teslab import qt_algebra as qa
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
    q_int_product,
    qt_int,
)


def lp(d):
    return LaurentPolyQT(d)


small_polys = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-6, 6),
    max_size=5,
).map(LaurentPolyQT)

_exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
# +-x^A +- x^B: the divisors that exact_div takes by line sums
unit_binomials = st.tuples(
    _exponents, _exponents, st.sampled_from([1, -1]), st.sampled_from([1, -1])
).filter(lambda x: x[0] != x[1]).map(lambda x: LaurentPolyQT({x[0]: x[2], x[1]: x[3]}))


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

    @pytest.mark.parametrize("c", [1, -1, 2, -2, 3])
    def test_power_of_a_monomial_is_repeated_multiplication(self, c):
        for a in range(-3, 4):
            for b in range(-2, 3):
                base = LaurentPolyQT.monomial(c, a, b)
                expect = ONE
                for k in range(13):
                    assert (base ** k).terms == expect.terms
                    if c in (1, -1):
                        assert base ** k * base ** -k == ONE
                    expect = expect * base

    def test_power_of_a_polynomial_squares(self):
        p = 2 * ONE - Q * T + T ** -1
        expect = ONE
        for k in range(9):
            assert (p ** k).terms == expect.terms
            expect = expect * p

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

    @pytest.mark.parametrize("c", [0, 1, -3])
    def test_constant_hashes_like_its_int(self, c):
        assert LaurentPolyQT.const(c) == c
        assert hash(LaurentPolyQT.const(c)) == hash(c)

    def test_ints_find_constants_in_sets(self):
        assert 1 in {ONE}
        assert 0 in {ZERO}
        assert ONE in {1} and Q not in {0, 1}

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

    @pytest.mark.parametrize("values", [(), (3,), (0,), (2, 0, 1), (-1,), (-2, 3),
                                        (1, -1, 2, -3), (0, -2), (4, 4, -1, 2, 1)])
    def test_q_int_product_is_the_plain_loop(self, values):
        expect = ONE
        for v in values:
            expect = expect * q_int(v)
        assert q_int_product(values) == expect
        assert q_int_product(values).is_zero() == (0 in values)

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
        assert (ONE + Q + T).specialize(q=1, t=1) == 3
        # only 0 and +-1 are bound; rational points are refused
        with pytest.raises(ValueError, match="only 0 and"):
            qt_int(-1).specialize(q=2, t=3)
        with pytest.raises(ValueError, match="only 0 and"):
            (ONE + Q * T).specialize(q=0, t=5)
        with pytest.raises(ValueError, match="pole"):
            qt_int(-1).specialize(q=0, t=1)

    def test_minus_one(self):
        assert (Q + T).specialize(q=-1) == T - 1


def _summed(pairs) -> dict:
    """The naive model of a sum: add up every (monomial, coefficient) pair,
    then drop the zeros."""
    out = {}
    for mono, c in pairs:
        out[mono] = out.get(mono, 0) + c
    return {mono: c for mono, c in out.items() if c}


def _substituted(terms: dict, var: int, value: int):
    """The pairs of terms with value for q (var 0) or t (var 1), one per term."""
    for mono, c in terms.items():
        e = mono[var]
        if value == 0 and e < 0:
            raise ValueError("pole")
        yield ((0, mono[1]) if var == 0 else (mono[0], 0)), c * value ** abs(e)


class TestSumsDropZeros:
    """The constructor, __mul__ and specialize against the naive summing
    model, on seeded products built to cancel: the operands are small
    polynomials times 1 + x and 1 - x for one monomial x, so each product
    has the factor 1 - x^2 and its x terms meet 0."""

    def _random_poly(self, rng, v, sign) -> dict:
        small = {(rng.randint(-1, 2), rng.randint(-1, 1)): rng.choice((1, -1, 2, 0))
                 for _ in range(rng.randint(0, 4))}
        # the zero coefficients stay, for the constructor to drop
        return {**{m: 0 for m in small},
                **_summed(pair for m, c in small.items()
                          for pair in ((m, c), ((m[0] + v[0], m[1] + v[1]), sign * c)))}

    def test_matches_the_naive_sums(self):
        rng = random.Random(24)
        cancelled = 0
        bindings = [(q, t) for q in (None, 0, 1, -1) for t in (None, 0, 1, -1)][1:]
        for _ in range(400):
            v, sign = (rng.randint(0, 2), rng.randint(-1, 1)), rng.choice((1, -1))
            da, db = self._random_poly(rng, v, sign), self._random_poly(rng, v, -sign)
            a, b = lp(da), lp(db)
            assert a.terms == _summed(da.items()) and b.terms == _summed(db.items())
            pairs = [((e0 + f0, e1 + f1), c * d)
                     for (e0, e1), c in da.items() for (f0, f1), d in db.items()]
            product = a * b
            assert product.terms == _summed(pairs)
            assert 0 not in product.terms.values()
            cancelled += len({m for m, c in pairs if c}) - len(product.terms)
            for q, t in bindings:
                try:
                    want = product.terms
                    for var, value in ((0, q), (1, t)):
                        if value is not None:
                            want = _summed(_substituted(want, var, value))
                except ValueError:
                    with pytest.raises(ValueError, match="pole"):
                        product.specialize(q=q, t=t)
                    continue
                got = product.specialize(q=q, t=t)
                assert got.terms == want and 0 not in got.terms.values()
        # the products did cancel: monomials met by a nonzero term product
        # summed to 0
        assert cancelled > 300


class TestRatFunc:
    def test_multiply_cancels(self):
        one_minus_q = ONE - Q
        r = RatFuncQT.from_binomials((), (one_minus_q,)) * RatFuncQT.from_laurent(one_minus_q)
        assert r.is_laurent() and r.to_laurent() == ONE

    def test_cross_multiplication_equality(self):
        lhs = RatFuncQT.from_binomials((), (ONE - Q, Q - T), Q)
        rhs = RatFuncQT.from_binomials((), (ONE - Q, ONE - T, Q - T), Q * (ONE - T))
        assert lhs == rhs

    def test_additive_inverse(self):
        r = RatFuncQT.from_binomials((), (ONE - Q, ONE - T))
        assert (r + (-r)).is_zero()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFuncQT.from_binomials((), (ZERO,))
        with pytest.raises(ZeroDivisionError):
            RatFuncQT.from_binomials((), (ONE - Q, ZERO))

    @pytest.mark.parametrize("factor", [ONE - Q - T, M, 2 * Q - T])
    def test_rejects_factor_that_is_not_a_binomial(self, factor):
        with pytest.raises(ValueError, match="denominator factor"):
            RatFuncQT.from_binomials((), (ONE - Q, factor))

    def test_rejects_content_and_monomials(self):
        # integer content (2 - 2q), a monomial and a constant are not +-x^A +- x^B
        for factor in (2 - 2 * Q, -Q * T, LaurentPolyQT.const(3)):
            with pytest.raises(ValueError, match="denominator factor"):
                RatFuncQT.from_binomials((), (ONE - Q, factor))

    @given(unit_binomials, small_polys, small_polys)
    @settings(max_examples=40, deadline=None)
    def test_field_laws(self, a, b, c):
        db = RatFuncQT.from_binomials((), (ONE - Q, ONE - T), a)
        rb = RatFuncQT.from_binomials((), (ONE - Q,), b)
        rc = RatFuncQT.from_binomials((), (ONE - T, Q - T), c)
        assert db * (rb + rc) == db * rb + db * rc
        assert (db * rb) * RatFuncQT.from_binomials((), (a,), M) == rb


class TestMixedOperands:
    """A LaurentPolyQT operator hands a RatFuncQT operand to RatFuncQT's
    reflected one, and both refuse any other type."""

    def test_laurent_with_a_fraction(self):
        r = RatFuncQT.from_binomials((), (ONE - Q,), T)
        for got, want in ((Q + r, r + Q), (Q * r, r * Q)):
            assert isinstance(got, RatFuncQT) and got == want
        assert Q == RatFuncQT.from_laurent(Q) and RatFuncQT.from_laurent(Q) == Q
        assert Q * 0 is ZERO and (Q * 0).is_zero()

    @pytest.mark.parametrize("x", [Q + T, RatFuncQT.from_binomials((), (ONE - Q,), T)])
    def test_other_types_are_refused(self, x):
        other = object()
        assert (x == other) is False and (x != "q + t") is True
        for op in (lambda: x + other, lambda: x - other, lambda: x * other,
                   lambda: other + x, lambda: other * x):
            with pytest.raises(TypeError):
                op()

    def test_a_fraction_is_not_hashable(self):
        with pytest.raises(TypeError, match="not hashable"):
            hash(RatFuncQT.from_laurent(Q))

    def test_specialize_needs_a_binding(self):
        with pytest.raises(ValueError, match="at least one binding"):
            (Q + T).specialize()

    def test_str_of_a_fraction(self):
        assert str(RatFuncQT.from_laurent(ONE + Q)) == "1 + q"
        assert str(RatFuncQT.from_binomials((), (ONE - Q,), T)) == "(-t) / (-1 + q)"


class TestRfToLaurent:
    def test_qt_int_quotient(self):
        assert RatFuncQT.from_binomials((), (Q - T,), Q ** 2 - T ** 2).to_laurent() == Q + T

    def test_unit_quotient(self):
        assert RatFuncQT.from_binomials((), (ONE - Q,), ONE - Q).to_laurent() == ONE

    def test_failure(self):
        with pytest.raises(ValueError, match="not a Laurent polynomial"):
            RatFuncQT.from_binomials((), (ONE - Q,)).to_laurent()

    @given(small_polys)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_identity(self, a):
        assert RatFuncQT.from_laurent(a).to_laurent() == a

    def test_monomial_denominator_shifts(self):
        # the monomial part q*t of the factor q*t - q^2*t leaves the denominator
        num = Q * T * (ONE - Q * Q)
        assert RatFuncQT.from_binomials((), (Q * T - Q ** 2 * T,), num).to_laurent() == ONE + Q

    def test_integer_content(self):
        # content stays in the numerator; only exact_div cancels
        assert RatFuncQT.from_binomials((), (ONE - Q,), 2 - 2 * Q).to_laurent() == 2
        with pytest.raises(ValueError, match="not a Laurent polynomial"):
            RatFuncQT.from_binomials((), (ONE - Q,), 2 * Q).to_laurent()


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
    @given(small_polys, unit_binomials, st.sampled_from([1, -1]))
    @settings(max_examples=60, deadline=None)
    def test_product_divides(self, a, b, sign):
        b = b * sign
        assert exact_div(a * b, b) == a

    def test_non_divisible(self):
        assert exact_div(ONE + Q, ONE - Q) is None
        assert exact_div(Q, Q - T) is None

    @pytest.mark.parametrize("b", [2 - 2 * Q, ONE + Q + T, LaurentPolyQT.const(2), ZERO])
    def test_rejects_other_divisors(self, b):
        with pytest.raises(ValueError, match="binomial"):
            exact_div(ONE, b)

    def test_seeded_random_laurent(self):
        rng = random.Random(7)
        for _ in range(50):
            a = lp({(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-4, 4)
                    for _ in range(rng.randint(0, 4))})
            A, B = rng.sample([(e0, e1) for e0 in range(-2, 3) for e1 in range(-2, 3)], 2)
            b = lp({A: rng.choice([1, -1]), B: rng.choice([1, -1])})
            assert exact_div(a * b, b) == a

    # a two-term dividend is divided in closed form: the geometric sum when its
    # direction is k times the divisor's and s^|k| matches, else None
    @pytest.mark.parametrize("a, b, quotient", [
        (ONE - Q ** 6, ONE - Q ** 2, ONE + Q ** 2 + Q ** 4),
        (ONE + Q ** 3, ONE + Q, ONE - Q + Q ** 2),
        (ONE - Q ** 4, ONE + Q ** 2, ONE - Q ** 2),
        (Q ** 2 - T ** 4, Q - T ** 2, Q + T ** 2),
        (Q ** -6 - ONE, Q ** -2 - ONE, Q ** -4 + Q ** -2 + ONE),
        (T ** 2 - Q ** 2 * T ** -2, T - Q * T ** -1, T + Q * T ** -1),
    ])
    def test_binomial_by_a_binomial_of_a_coarser_direction(self, a, b, quotient):
        for sign in (1, -1):
            assert exact_div(a * sign, b) == quotient * sign
            assert exact_div(a, b * sign) == quotient * sign
            assert _line_walk_div(a * sign, b) == quotient * sign

    @pytest.mark.parametrize("a, b", [
        (ONE - Q ** 3, ONE - Q ** 2),  # 3/2 is not an integer
        (ONE - Q ** 2, ONE - T),  # not parallel
        (Q - T, ONE - Q * T),  # not parallel
        (ONE + Q ** 2, ONE - Q),  # the sign: (+1)^2 is not -1
        (ONE - Q ** 2, ONE + Q * T),
        (ONE + Q ** 4, ONE + Q ** 2),  # (-1)^2 is not -1
        (ONE - Q ** 3, ONE + Q),  # (-1)^3 is not 1
        (ONE - 2 * Q ** 2, ONE - Q),  # unequal coefficients
    ])
    def test_binomial_misses(self, a, b):
        sympy = pytest.importorskip("sympy")
        assert exact_div(a, b) is None
        assert _line_walk_div(a, b) is None
        assert _sympy_quotient(a, b, sympy) is None

    def test_seeded_binomial_pairs_match_the_line_walk(self):
        # b = c x^B (1 - s x^v) and a = d x^E (1 - s' x^(k v)), negative
        # exponents and k in +-1..+-6, about half with s' = s^|k|; the other
        # half draws s' or a's direction at random
        rng = random.Random(34)
        hits = misses = 0
        for _ in range(4000):
            v = (0, 0)
            while v == (0, 0):
                v = (rng.randint(-3, 3), rng.randint(-3, 3))
            s, c, d = rng.choice((1, -1)), rng.choice((1, -1)), rng.choice((1, -2, 1, 3))
            k = rng.choice((1, -1)) * rng.randint(1, 6)
            B, E = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(2)]
            b = lp({B: c, (B[0] + v[0], B[1] + v[1]): -c * s})
            w = (k * v[0], k * v[1])
            if rng.random() < 0.2:
                w = (rng.randint(-6, 6), rng.randint(-6, 6))
            s_a = s ** abs(k) if rng.random() < 0.5 else rng.choice((1, -1))
            if w == (0, 0):
                continue
            a = lp({E: d, (E[0] + w[0], E[1] + w[1]): -d * s_a})
            got = exact_div(a, b)
            assert got == _line_walk_div(a, b), (a, b)
            if got is None:
                misses += 1
            else:
                hits += 1
                assert got * b == a
        assert hits > 1000 and misses > 1000

    def test_seeded_binomial_misses_leave_a_remainder(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(35)
        misses = 0
        for _ in range(150):
            b = lp({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.choice((1, -1)),
                    (rng.randint(-2, 2), rng.randint(-2, 2)): rng.choice((1, -1))})
            a = lp({(rng.randint(-6, 6), rng.randint(-6, 6)): rng.choice((1, -1)),
                    (rng.randint(-6, 6), rng.randint(-6, 6)): rng.choice((1, -1))})
            if len(a.terms) != 2 or len(b.terms) != 2:
                continue
            got = exact_div(a, b)
            assert got == _sympy_quotient(a, b, sympy), (a, b)
            misses += got is None
        assert misses > 50

    @given(small_polys, unit_binomials, st.sampled_from([1, -1]),
           st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           st.integers(-3, 3), max_size=2).map(LaurentPolyQT))
    @example(ONE, ONE - Q, -1, ZERO)
    @example(ONE + T, ONE - Q, -1, Q)
    @example(ONE + T - Q * T, ONE + Q, 1, ZERO)  # s = -1
    @example(Q - T ** 2, ONE - Q ** 2, 1, ZERO)  # direction (2, 0), not primitive
    @example(ONE + Q * T ** -1, Q ** 2 - T ** 3, -1, ZERO)
    @example(Q ** -2 + T, Q ** -1 - T ** -2, 1, ZERO)  # negative exponents
    @example(ONE + Q, ONE - Q ** 2, 1, T)  # not divisible
    @settings(max_examples=100, deadline=None)
    def test_matches_sympy_division(self, a, b, scale, r):
        # oracle: shift both sides to polynomials, divide over QQ by sympy;
        # one divisor is a Groebner basis, so remainder 0 <=> B divides A
        sympy = pytest.importorskip("sympy")
        b = b * scale
        num = a * b + r
        got = exact_div(num, b)
        if num.is_zero():
            assert got == ZERO
            return
        assert got == _sympy_quotient(num, b, sympy)


def _sympy_quotient(num: LaurentPolyQT, b: LaurentPolyQT, sympy):
    """num / b by sympy, or None when the remainder is not 0 or the quotient
    is not over Z: both sides are shifted to polynomials and divided over QQ,
    where one divisor is a Groebner basis, so remainder 0 <=> b divides num."""
    q, t = sympy.symbols("q t")

    def mins(p):
        return min(e for e, _ in p.terms), min(e for _, e in p.terms)

    def shifted(p):
        m0, m1 = mins(p)
        return sum(c * q ** (e0 - m0) * t ** (e1 - m1) for (e0, e1), c in p.terms.items())

    quot, rem = sympy.div(shifted(num), shifted(b), q, t, domain="QQ")
    coeffs = sympy.Poly(quot, q, t).terms()
    if rem != 0 or any(not c.is_integer for _, c in coeffs):
        return None
    (n0, n1), (b0, b1) = mins(num), mins(b)
    return LaurentPolyQT({(e0 + n0 - b0, e1 + n1 - b1): int(c) for (e0, e1), c in coeffs})


def _line_walk_div(a: LaurentPolyQT, b: LaurentPolyQT):
    """The oracle for exact_div: the same division, with each line keyed by
    its point at k = 0 as an exponent tuple and its points kept as (k, c)."""
    if a.is_zero():
        return ZERO
    (A, ca), ((b0, b1), cb) = b.terms.items()
    v0, v1 = A[0] - b0, A[1] - b1
    s = -ca * cb
    i = 0 if v0 else 1
    vi = v0 or v1
    lines: dict = {}
    for e, c in a.terms.items():
        k = e[i] // vi
        lines.setdefault((e[0] - k * v0, e[1] - k * v1), []).append((k, c))
    quot: dict = {}
    for (p0, p1), points in lines.items():
        points.sort()
        p0 -= b0
        p1 -= b1
        carry = prev = 0
        for k, c in points:
            if carry:
                for j in range(prev + 1, k):
                    carry *= s
                    quot[(p0 + j * v0, p1 + j * v1)] = carry * cb
                carry = c + s * carry
            else:
                carry = c
            if carry:
                quot[(p0 + k * v0, p1 + k * v1)] = carry * cb
            prev = k
        if carry:
            return None
    return LaurentPolyQT._raw(quot)


def _direction_binomial(v, c) -> LaurentPolyQT:
    """x^a + c x^b with min exponents (0, 0) and a - b = v, in that term order."""
    a = (max(v[0], 0), max(v[1], 0))
    b = (max(-v[0], 0), max(-v[1], 0))
    return LaurentPolyQT._raw({a: 1, b: c})


# every canonical binomial with |v_i| <= 6, each in both term orders (v and
# -v): non-primitive directions (1 - q^6, q^2 - t^4) and v0 = 0 among them
DIRECTION_BINOMIALS = [_direction_binomial((v0, v1), c)
                       for v0 in range(-6, 7) for v1 in range(-6, 7) if v0 or v1
                       for c in (1, -1)]


class TestLineIds:
    """exact_div buckets terms by one integer line id: against the line walk."""

    def test_matches_the_line_walk_on_every_small_direction(self):
        rng = random.Random(21)
        for b in DIRECTION_BINOMIALS:
            # a unit multiple, so B is not always the origin and c_B not always 1
            b = b * rng.choice((1, -1)) * Q ** rng.randint(-2, 2) * T ** rng.randint(-2, 2)
            r = lp({(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-4, 4)
                    for _ in range(rng.randint(1, 6))})
            noise = lp({(rng.randint(-3, 3), rng.randint(-3, 3)): rng.choice((1, -1))})
            for a in (r * b, r * b + noise, r):
                got = exact_div(a, b)
                assert got == _line_walk_div(a, b), (a, b)
                if got is not None:
                    assert got * b == a
            assert exact_div(r * b, b) == r

    @pytest.mark.parametrize("a, b", [(Q - 1, Q ** 6 - 1), (T - 1, T ** 4 - 1),
                                      (Q - 1, 1 - Q ** 6), (Q - T, Q ** 2 - T ** 4)])
    def test_a_line_id_keeps_cosets_apart(self, a, b):
        # the cross product alone puts 1 and q on one line of 1 - q^6
        assert exact_div(a, b) is None
        assert _line_walk_div(a, b) is None


def _sympy_value(r: RatFuncQT, sympy, q, t):
    def expr(p):
        return sympy.Add(*(c * q ** e0 * t ** e1 for (e0, e1), c in p.terms.items()))

    return expr(r.num) / sympy.Mul(*map(expr, r.factors))


# num / (prod of 0-2 unit binomials), built as the Macdonald route builds them
unit_fractions = st.tuples(
    small_polys, st.lists(unit_binomials, max_size=2)
).map(lambda x: RatFuncQT.from_binomials((), x[1], x[0]))


class TestRatFuncAgainstSympy:
    @given(unit_fractions, unit_fractions, unit_binomials)
    @settings(max_examples=40, deadline=None)
    def test_add_mul_eq_match_cancel(self, x, y, g):
        sympy = pytest.importorskip("sympy")
        q, t = sympy.symbols("q t")
        sx, sy = _sympy_value(x, sympy, q, t), _sympy_value(y, sympy, q, t)
        for got, want in ((x + y, sx + sy), (x * y, sx * sy)):
            assert sympy.cancel(_sympy_value(got, sympy, q, t) - want) == 0
        assert (x == y) == (sympy.cancel(sx - sy) == 0)
        # the same value with g in numerator and denominator: the reduction divides
        # by g or by a factor of x, so at most len(x.factors) factors stay
        same = RatFuncQT.from_binomials((), x.factors + (g,), x.num * g)
        assert same == x and x == same
        assert len(same.factors) <= len(x.factors)
        for r in (x + y, x * y, same):
            # the reduction keeps only factors that do not divide the numerator
            assert all(exact_div(r.num, f) is None for f in r.factors)


# binomials of both kinds: prime ones, whose direction has coprime entries,
# and ones that factor (1 - q^2, q^2 - t^2) or need not be prime (1 + q^2 t^2)
PRIME_BINOMIALS = (ONE - Q, ONE - T, Q - T, ONE + Q, ONE + T, Q - T * T, ONE - Q * T, Q + T)
OTHER_BINOMIALS = (ONE - Q * Q, Q * Q - T * T, ONE + Q * Q * T * T, ONE - Q * Q * T * T)
BINOMIALS = PRIME_BINOMIALS + OTHER_BINOMIALS


def _random_binomials(rng, most):
    # each a random pool binomial times a random unit +-q^a t^b
    return [rng.choice(BINOMIALS) * rng.choice((1, -1)) * Q ** rng.randint(-1, 1)
            * T ** rng.randint(-1, 1) for _ in range(rng.randint(0, most))]


def _random_fraction(rng):
    """num / den with num a product of binomials times a small polynomial."""
    num = lp({(rng.randint(-1, 1), rng.randint(-1, 1)): rng.choice((1, -1, 2))
              for _ in range(rng.randint(1, 2))})
    for f in _random_binomials(rng, 3):
        num = num * f
    return num, _random_binomials(rng, 4)


def _naive(num, factors):
    """The reference reduction: expand, then trial-divide by every factor."""
    kept = []
    for f in factors:
        quotient = exact_div(num, f)
        if quotient is None:
            kept.append(f)
        else:
            num = quotient
    return num, kept


def _product(factors):
    out = ONE
    for f in factors:
        out = out * f
    return out


def _cancellation_failures(seed, count):
    """The cases where a sum, a product or from_binomials differs in value
    from _naive, keeps a factor that divides its numerator, or is not a
    Laurent polynomial where _naive's result is one."""
    rng = random.Random(seed)
    bad = []

    def check(label, got, num, den):
        ref_num, ref_kept = _naive(num, den)
        if got.num * _product(den) != num * _product(got.factors):
            bad.append((label, "value"))
        elif any(exact_div(got.num, f) is not None for f in got.factors):
            bad.append((label, "not reduced"))
        elif got.is_laurent() != (not ref_kept):
            bad.append((label, "laurent"))
        elif got.is_laurent() and got.to_laurent() != ref_num:
            bad.append((label, "laurent value"))

    for i in range(count):
        (na, da), (nb, db) = _random_fraction(rng), _random_fraction(rng)
        x, y = RatFuncQT.from_binomials((), da, na), RatFuncQT.from_binomials((), db, nb)
        check((i, "from_binomials, no top"), x, na, da)
        check((i, "*"), x * y, na * nb, da + db)
        check((i, "+"), x + y, na * _product(db) + nb * _product(da), da + db)
        top, bottom = _random_binomials(rng, 5), _random_binomials(rng, 5)
        scale = lp({(0, 0): 1, (rng.randint(0, 2), rng.randint(0, 2)): rng.choice((0, 1, -1))})
        check((i, "from_binomials"), RatFuncQT.from_binomials(top, bottom, scale),
              scale * _product(top), bottom)
    return bad


class TestCancellationRules:
    """Products cross-cancel primes, sums skip a prime one side carries more
    often, and from_binomials cancels before it expands: each against _naive."""

    def test_pool_primality(self):
        assert all(qa._is_prime(qa._split_canonical(f)[2]) for f in PRIME_BINOMIALS)
        assert not any(qa._is_prime(qa._split_canonical(f)[2]) for f in OTHER_BINOMIALS)

    def test_matches_the_naive_reduction(self):
        assert _cancellation_failures(5, 400) == []

    def test_a_composite_taken_for_a_prime_is_caught(self, monkeypatch):
        # 1 - q^2 = (1 - q)(1 + q) may divide a product or a sum that no
        # single operand or gained binomial shows
        square = qa._split_canonical(ONE - Q * Q)[2]
        is_prime = qa._is_prime
        monkeypatch.setattr(qa, "_is_prime", lambda f: f == square or is_prime(f))
        assert _cancellation_failures(5, 400) != []

    def test_no_top_binomials_means_no_cancellation_and_no_expansion(self, monkeypatch):
        # num / prod(bottom) tries each bottom binomial on num, in the order given
        def refuse(*args):
            raise AssertionError("from_binomials with no top binomial must not get here")

        monkeypatch.setattr(qa, "Counter", refuse)
        monkeypatch.setattr(qa, "_expand", refuse)
        r = RatFuncQT.from_binomials((), (ONE - Q, ONE - Q * Q, ONE - Q), ONE - Q * Q)
        # the three signs and the one division by q - 1 leave (1 + q) / ((q - 1)(q^2 - 1))
        assert r.num == ONE + Q and r.factors == (Q - ONE, Q * Q - ONE)
        assert RatFuncQT.from_binomials((), (ONE - Q,), ZERO).factors == ()

    def test_a_composite_bottom_is_still_tried(self):
        # 1 - q^2 divides neither top alone, but it divides their product
        r = RatFuncQT.from_binomials([ONE - Q, ONE + Q], [ONE - Q * Q])
        assert r.num == ONE and r.factors == ()

    def test_a_prime_bottom_is_tried_on_a_scale_that_is_not_a_monomial(self):
        # 1 - q divides no top, but it divides the scale 1 - q^2
        r = RatFuncQT.from_binomials([ONE - T], [ONE - Q], ONE - Q * Q)
        assert r.num == (ONE + Q) * (ONE - T) and r.factors == ()

    def test_a_prime_bottom_that_divides_no_top_is_kept_untried(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return exact_div(a, b)

        monkeypatch.setattr(qa, "exact_div", counted)
        r = RatFuncQT.from_binomials([ONE - Q * Q, Q - T], [ONE - Q, ONE - T, ONE - Q], -Q)
        # each bottom is tried on the tops left, never on their product
        assert all(len(a.terms) == 2 for a, _ in calls)
        assert r.num == -Q * (ONE + Q) * (Q - T) and r.factors == qa._sorted(
            [qa._split_canonical(ONE - T)[2], qa._split_canonical(ONE - Q)[2]])

    @pytest.mark.parametrize("c, e0, e1", [(1, 2, -1), (1, 0, 0), (-1, -3, 2), (3, 1, 1)])
    def test_a_monomial_factor_needs_no_trial(self, monkeypatch, c, e0, e1):
        x = RatFuncQT.from_binomials([ONE + Q], [ONE - Q, Q - T, ONE - Q * T * T], ONE + T)
        mono = LaurentPolyQT.monomial(c, e0, e1)
        calls = []
        monkeypatch.setattr(qa, "exact_div", lambda a, b: calls.append(b))
        for got in (x * RatFuncQT.from_laurent(mono), RatFuncQT.from_laurent(mono) * x,
                    x * mono, mono * x):
            assert got.factors == x.factors
            assert got.num == x.num.shift(e0, e1) * c
        assert calls == []

    def test_every_division_goes_through_the_module_exact_div(self, monkeypatch):
        # the benchmark tracer counts divisions by rebinding qt_algebra.exact_div
        calls = []

        def counted(a, b):
            calls.append(b)
            return exact_div(a, b)

        monkeypatch.setattr(qa, "exact_div", counted)
        over = RatFuncQT.from_binomials((), (ONE - Q,))
        for build in (lambda: over + RatFuncQT.from_binomials((), (ONE - Q,), Q),
                      lambda: over * RatFuncQT.from_laurent(ONE - Q * Q),
                      lambda: RatFuncQT.from_binomials([ONE - Q * Q], [ONE - Q])):
            calls.clear()
            build()
            assert calls


def _clear_teslab_caches():
    """cache_clear on every lru_cache of a loaded teslab module."""
    for name, module in list(sys.modules.items()):
        if name == "teslab" or name.startswith("teslab."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


class TestInternedFactors:
    """Each canonical binomial is one object carrying its hash, sort key and
    primality; equality and hashing stay those of its terms."""

    def test_one_object_per_binomial_on_every_route(self):
        from teslab.young import Partition, w_factors

        (f,) = RatFuncQT.from_binomials((), [T - Q * Q]).factors
        routes = [
            RatFuncQT.from_binomials((), [Q * Q - T]).factors,
            RatFuncQT.from_binomials((), [(T - Q * Q) * Q ** -1 * T ** 2], Q).factors,
            RatFuncQT.from_binomials([], [T - Q * Q]).factors,
            RatFuncQT.from_binomials((), [Q - T * T]).swap_qt().factors,
            # (2, 1): the cell (0, 0) has arm 1 and leg 1, so t - q^2 is a w factor
            RatFuncQT.from_binomials([], w_factors(Partition((2, 1)))).factors,
        ]
        for factors in routes:
            assert any(g is f for g in factors), factors

    def test_hash_and_equality_are_the_plain_ones(self):
        for g in BINOMIALS:
            _, _, f = qa._split_canonical(g)
            plain = LaurentPolyQT(dict(f.terms))
            assert type(plain) is LaurentPolyQT
            assert plain == f and f == plain
            assert hash(f) == hash(plain)
            assert Counter([f, plain]) == Counter({plain: 2})

    def test_canonicalize_is_the_per_factor_fold(self):
        # one sign product and one shift equal a shift and a sign per factor
        rng = random.Random(12)
        for _ in range(200):
            num, factors = _random_fraction(rng)
            for side in (1, -1):
                expect = num
                for f in factors:
                    sign, (m0, m1), _ = qa._split_canonical(f)
                    expect = expect.shift(side * m0, side * m1) * sign
                got, canon = qa._canonicalize(num, factors, side)
                assert got.terms == expect.terms
                assert canon == [qa._split_canonical(f)[2] for f in factors]

    def test_factors_keep_their_order(self):
        # a denominator's factors sort by their sorted terms
        rng = random.Random(8)
        for _ in range(100):
            (na, da), (nb, db) = _random_fraction(rng), _random_fraction(rng)
            x, y = RatFuncQT.from_binomials((), da, na), RatFuncQT.from_binomials((), db, nb)
            for r in (x, x + y, x * y, x.swap_qt()):
                assert r.factors == tuple(sorted(r.factors, key=lambda f: sorted(f.terms.items())))

    def test_clearing_every_cache_keeps_sums_and_equality(self):
        rng = random.Random(9)
        parts = [_random_fraction(rng) for _ in range(60)]
        old = [RatFuncQT.from_binomials((), den, num) for num, den in parts]
        _clear_teslab_caches()
        new = [RatFuncQT.from_binomials((), den, num) for num, den in parts]
        # equal values built before and after the clear hold other factor objects
        assert any(f is not g for x, y in zip(old, new) for f, g in zip(x.factors, y.factors))
        for x, y, z in zip(old, new, new[1:] + new[:1]):
            assert x == y and y == x
            assert (x.num, x.factors) == (y.num, y.factors)
            for mixed, same in ((x + z, y + z), (x * z, y * z), (x - y, y - y)):
                assert (mixed.num, mixed.factors) == (same.num, same.factors)
            assert (x - y).is_zero()


# q - t is canonical, and swapping q and t flips it to -(q - t)
_over_q_minus_t = RatFuncQT.from_binomials((), (Q - T, ONE - Q), ONE + Q * Q)


class TestSubstitution:
    """swap_qt maps the numerator and each factor, with no trial division."""

    @given(unit_fractions, unit_fractions)
    @example(_over_q_minus_t, _over_q_minus_t)
    @settings(max_examples=60, deadline=None)
    def test_automorphism(self, x, y):
        assert x.swap_qt().swap_qt() == x
        assert (x + y).swap_qt() == x.swap_qt() + y.swap_qt()
        assert (x * y).swap_qt() == x.swap_qt() * y.swap_qt()

    @given(unit_fractions)
    @example(_over_q_minus_t)
    @settings(max_examples=60, deadline=None)
    def test_equals_reduced_rebuild(self, x):
        got = x.swap_qt()
        rebuilt = RatFuncQT.from_binomials((), [f.swap_qt() for f in x.factors], x.num.swap_qt())
        assert got == rebuilt
        # x is reduced, so no factor of the rebuild cancels: same parts, still reduced
        assert len(got.factors) == len(x.factors)
        assert (got.num, got.factors) == (rebuilt.num, rebuilt.factors)
        assert all(exact_div(got.num, f) is None for f in got.factors)
