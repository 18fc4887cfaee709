import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teslab.plethysm import (
    MonomialSymFn,
    e_plethysm,
    h_single,
    m_eval,
    p_plethysm,
    schur_to_monomial,
)
from teslab.qt_algebra import M, ONE, Q, T, LaurentPolyQT, qt_int
from teslab.young import Partition, partition_stats


def lp(d):
    return LaurentPolyQT(d)


def b_of(parts):
    return partition_stats(Partition(parts)).B


def e_newton(k, alphabet):
    """e_k[S] by Newton's identity k e_k = sum_r (-1)^(r-1) p_r[S] e_{k-r}, over Fraction."""
    es = [{(0, 0): Fraction(1)}]
    for j in range(1, k + 1):
        acc = {}
        for r in range(1, j + 1):
            scale = Fraction(1 if r % 2 else -1, j)
            for (e0, e1), c in p_plethysm(r, alphabet).terms.items():
                for (f0, f1), d in es[j - r].items():
                    key = (e0 + f0, e1 + f1)
                    acc[key] = acc.get(key, 0) + scale * c * d
        es.append({m: c for m, c in acc.items() if c})
    assert all(c.denominator == 1 for c in es[k].values())
    return LaurentPolyQT({m: int(c) for m, c in es[k].items()})


signed_polys = st.lists(
    st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-3, 3)),
    max_size=4,
).map(LaurentPolyQT)


class TestAlphabets:
    def test_m_alphabet(self):
        assert M.terms == {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}

    def test_mb1_minus_one(self):
        # M*B((1)) - 1 = M - 1: the +1 and -1 cancel
        assert (M * b_of((1,)) - ONE).terms == {(1, 0): -1, (0, 1): -1, (1, 1): 1}

    def test_b_minus_one(self):
        assert (b_of((2,)) - 1).terms == {(1, 0): 1}


class TestPowerPlethysm:
    def test_p2_of_M(self):
        assert p_plethysm(2, M) == lp(
            {(0, 0): 1, (2, 0): -1, (0, 2): -1, (2, 2): 1})

    def test_p1_is_identity(self):
        a = lp({(1, 0): 2, (0, 1): -1})
        assert p_plethysm(1, a) == a

    def test_p3_of_B2(self):
        assert p_plethysm(3, b_of((2,))) == ONE + Q ** 3


class TestElementaryPlethysm:
    def test_e2_of_M(self):
        assert e_plethysm(2, M) == -(Q + T) * M

    def test_e3_of_M(self):
        assert e_plethysm(3, M) == (Q * Q + Q * T + T * T) * M

    def test_e1_is_sum(self):
        a = M * b_of((1,)) - ONE
        assert e_plethysm(1, a) == -Q - T + Q * T

    def test_e0(self):
        assert e_plethysm(0, M) == ONE

    @pytest.mark.parametrize("k", range(1, 9))
    def test_qt_binomial_bracket(self, k):
        # (-1)^(k-1) e_k[M] / M = [k]_{q,t}
        sign = 1 if (k - 1) % 2 == 0 else -1
        assert sign * e_plethysm(k, M) == qt_int(k) * M

    @given(signed_polys, st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_matches_newton_identity(self, alphabet, k):
        assert e_plethysm(k, alphabet) == e_newton(k, alphabet)

    def test_additivity_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            a = lp({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-2, 2)
                    for _ in range(rng.randint(0, 3))})
            b = lp({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-2, 2)
                    for _ in range(rng.randint(0, 3))})
            for k in range(0, 5):
                direct = e_plethysm(k, a + b)
                split = LaurentPolyQT()
                for i in range(k + 1):
                    split = split + e_plethysm(i, a) * e_plethysm(k - i, b)
                assert direct == split

    def test_sign_rule_on_single_monomials(self):
        # e_k[-m] = (-1)^k h_k[m] for a single monomial m
        for mono in [(1, 0), (0, 1), (2, 1), (-1, 2)]:
            single = lp({mono: 1})
            for k in range(0, 5):
                lhs = e_plethysm(k, -single)
                rhs = (1 if k % 2 == 0 else -1) * h_single(k, mono)
                assert lhs == rhs


class TestMonomialEval:
    def test_e1_case(self):
        assert m_eval((1,), b_of((2,))) == ONE + Q

    def test_negative_part(self):
        assert m_eval((-1,), b_of((2,))) == ONE + Q ** -1

    def test_two_parts(self):
        assert m_eval((2, 1), lp({(0, 0): 1, (1, 0): 1})) == Q + Q ** 2

    def test_signed_alphabet_rejected(self):
        with pytest.raises(ValueError, match="plain alphabet"):
            m_eval((1,), M)

    def test_too_many_parts_gives_zero(self):
        assert m_eval((1, 1, 1), lp({(0, 0): 1, (1, 0): 1})).is_zero()

    def test_order_independence(self):
        a = lp({(0, 0): 1, (1, 0): 1, (0, 1): 1})
        b = lp({(0, 1): 1, (1, 0): 1, (0, 0): 1})
        assert m_eval((2, -1), a) == m_eval((2, -1), b)

    @pytest.mark.parametrize("k", range(0, 4))
    def test_all_ones_is_elementary(self, k):
        for parts in [(2,), (2, 1), (3, 1)]:
            plain = b_of(parts)
            assert m_eval((1,) * k, plain) == e_plethysm(k, plain)


class TestSchur:
    def test_e_column(self):
        assert schur_to_monomial(Partition((1, 1, 1))) == MonomialSymFn({(1, 1, 1): 1})

    def test_two_one(self):
        assert schur_to_monomial(Partition((2, 1))) == MonomialSymFn(
            {(2, 1): 1, (1, 1, 1): 2})

    def test_h_row(self):
        assert schur_to_monomial(Partition((3,))) == MonomialSymFn(
            {(3,): 1, (2, 1): 1, (1, 1, 1): 1})

    def test_degree_cap(self):
        with pytest.raises(ValueError, match="capped"):
            schur_to_monomial(Partition((9,)))


class TestMonomialSymFn:
    def test_parse(self):
        assert MonomialSymFn.parse("e:2") == MonomialSymFn({(1, 1): 1})
        assert MonomialSymFn.parse("m:3,-1") == MonomialSymFn({(3, -1): 1})
        assert MonomialSymFn.parse("s:2,1") == schur_to_monomial(Partition((2, 1)))
        assert MonomialSymFn.parse("e:0") == MonomialSymFn({(): 1})
        with pytest.raises(ValueError):
            MonomialSymFn.parse("p:2")
        with pytest.raises(ValueError):
            MonomialSymFn.parse("q+t")

    def test_constant_bracket(self):
        f = MonomialSymFn({(): 1})
        assert f.eval_bracket(b_of((2, 1))) == ONE

    def test_expand_last_one_e1(self):
        f = MonomialSymFn.parse("e:1")
        expansion = f.expand_last_one(3)
        assert expansion == {(1, 0): ONE, (0, 1): ONE, (0, 0): ONE}

    def test_expand_last_one_m_minus1(self):
        f = MonomialSymFn.parse("m:-1")
        expansion = f.expand_last_one(3)
        assert expansion == {(-1, 0): ONE, (0, -1): ONE, (0, 0): ONE}
