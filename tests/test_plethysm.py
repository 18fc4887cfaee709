import random

import pytest

from teslab.plethysm import (
    Alphabet,
    MonomialSymFn,
    b_alphabet,
    b_minus_one,
    e_plethysm,
    h_single,
    m_alphabet,
    m_eval,
    mb_minus_one,
    p_plethysm,
    schur_to_monomial,
)
from teslab.qt_algebra import M, ONE, Q, T, LaurentPolyQT, qt_int
from teslab.young import Partition


def lp(d):
    return LaurentPolyQT(d)


class TestAlphabets:
    def test_m_alphabet(self):
        assert m_alphabet().terms == {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}

    def test_mb1_minus_one(self):
        # M*B((1)) - 1 = M - 1: the +1 and -1 cancel
        assert mb_minus_one(Partition((1,))).terms == {(1, 0): -1, (0, 1): -1, (1, 1): 1}

    def test_b_minus_one(self):
        assert b_minus_one(Partition((2,))).terms == {(1, 0): 1}


class TestPowerPlethysm:
    def test_p2_of_M(self):
        assert p_plethysm(2, m_alphabet()) == lp(
            {(0, 0): 1, (2, 0): -1, (0, 2): -1, (2, 2): 1})

    def test_p1_is_identity(self):
        a = Alphabet({(1, 0): 2, (0, 1): -1})
        assert p_plethysm(1, a) == a.as_poly()

    def test_p3_of_B2(self):
        assert p_plethysm(3, b_alphabet(Partition((2,)))) == ONE + Q ** 3


class TestElementaryPlethysm:
    def test_e2_of_M(self):
        assert e_plethysm(2, m_alphabet()) == -(Q + T) * M

    def test_e3_of_M(self):
        assert e_plethysm(3, m_alphabet()) == (Q * Q + Q * T + T * T) * M

    def test_e1_is_sum(self):
        a = mb_minus_one(Partition((1,)))
        assert e_plethysm(1, a) == -Q - T + Q * T

    def test_e0(self):
        assert e_plethysm(0, m_alphabet()) == ONE

    @pytest.mark.parametrize("k", range(1, 9))
    def test_qt_binomial_bracket(self, k):
        # (-1)^(k-1) e_k[M] / M = [k]_{q,t}
        sign = 1 if (k - 1) % 2 == 0 else -1
        assert sign * e_plethysm(k, m_alphabet()) == qt_int(k) * M

    def test_additivity_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            a = Alphabet({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-2, 2)
                          for _ in range(rng.randint(0, 3))})
            b = Alphabet({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-2, 2)
                          for _ in range(rng.randint(0, 3))})
            for k in range(0, 5):
                direct = e_plethysm(k, a.union(b))
                split = LaurentPolyQT()
                for i in range(k + 1):
                    split = split + e_plethysm(i, a) * e_plethysm(k - i, b)
                assert direct == split

    def test_sign_rule_on_single_monomials(self):
        # e_k[-m] = (-1)^k h_k[m] for a single monomial m
        for mono in [(1, 0), (0, 1), (2, 1), (-1, 2)]:
            single = Alphabet({mono: 1})
            for k in range(0, 5):
                lhs = e_plethysm(k, single.negate())
                rhs = (1 if k % 2 == 0 else -1) * h_single(k, mono)
                assert lhs == rhs


class TestMonomialEval:
    def test_e1_case(self):
        assert m_eval((1,), b_alphabet(Partition((2,)))) == ONE + Q

    def test_negative_part(self):
        assert m_eval((-1,), b_alphabet(Partition((2,)))) == ONE + Q ** -1

    def test_two_parts(self):
        assert m_eval((2, 1), Alphabet({(0, 0): 1, (1, 0): 1})) == Q + Q ** 2

    def test_signed_alphabet_rejected(self):
        with pytest.raises(ValueError, match="plain alphabet"):
            m_eval((1,), m_alphabet())

    def test_too_many_parts_gives_zero(self):
        assert m_eval((1, 1, 1), Alphabet({(0, 0): 1, (1, 0): 1})).is_zero()

    def test_order_independence(self):
        a = Alphabet({(0, 0): 1, (1, 0): 1, (0, 1): 1})
        b = Alphabet({(0, 1): 1, (1, 0): 1, (0, 0): 1})
        assert m_eval((2, -1), a) == m_eval((2, -1), b)

    @pytest.mark.parametrize("k", range(0, 4))
    def test_all_ones_is_elementary(self, k):
        for mu in [Partition((2,)), Partition((2, 1)), Partition((3, 1))]:
            plain = b_alphabet(mu)
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
        assert f.eval_bracket(b_alphabet(Partition((2, 1)))) == ONE

    def test_expand_last_one_e1(self):
        f = MonomialSymFn.parse("e:1")
        expansion = f.expand_last_one(3)
        assert expansion == {(1, 0): ONE, (0, 1): ONE, (0, 0): ONE}

    def test_expand_last_one_m_minus1(self):
        f = MonomialSymFn.parse("m:-1")
        expansion = f.expand_last_one(3)
        assert expansion == {(-1, 0): ONE, (0, -1): ONE, (0, 0): ONE}
