import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teslab.plethysm import (
    SCHUR_DEGREE_BUDGET,
    MonomialSymFn,
    arrangement_count,
    distinct_arrangements,
    e_plethysm,
    e_plethysms,
    m_eval,
    schur_to_monomial,
)
from teslab.qt_algebra import M, ONE, Q, T, LaurentPolyQT, qt_int
from teslab.young import Partition, partition_stats, partitions_of


def lp(d):
    return LaurentPolyQT(d)


def b_of(parts):
    return partition_stats(Partition(parts)).B


def p_plethysm(r: int, alphabet: LaurentPolyQT) -> LaurentPolyQT:
    """Power-sum bracket p_r[S]: raise each letter to the r-th power, keep signs."""
    if r < 1:
        raise ValueError("power-sum index must be >= 1")
    return LaurentPolyQT({(e0 * r, e1 * r): c for (e0, e1), c in alphabet.terms.items()})


def expand_last_one(f: MonomialSymFn, n: int) -> dict:
    """Brute-force f(x_1, ..., x_{n-1}, 1) as {exponent vector: coefficient}.

    Walks every arrangement of every rho in n slots and drops the last slot.
    """
    out: dict = {}
    for rho, c in f.coeffs.items():
        for vec in distinct_arrangements(rho, n):
            key = vec[: n - 1]
            out[key] = out[key] + c if key in out else c
    return {k: v for k, v in out.items() if not v.is_zero()}


def expand_monomials(g: MonomialSymFn, slots: int) -> dict:
    """g in `slots` variables as {exponent vector: coefficient}."""
    out: dict = {}
    for rho, c in g.coeffs.items():
        for vec in distinct_arrangements(rho, slots):
            out[vec] = out[vec] + c if vec in out else c
    return {k: v for k, v in out.items() if not v.is_zero()}


def at_last_one_every_arrangement(f: MonomialSymFn, n: int) -> MonomialSymFn:
    """A wrong at_last_one: it adds c once per arrangement, not once per m_rho."""
    out: dict = {}
    for rho, c in f.coeffs.items():
        for vec in distinct_arrangements(rho, n):
            key = tuple(sorted((v for v in vec[: n - 1] if v), reverse=True))
            out[key] = out[key] + c if key in out else c
    return MonomialSymFn(out)


def h_single(k: int, mono) -> LaurentPolyQT:
    """h_k of a one-letter alphabet: just the k-th power of the letter."""
    return LaurentPolyQT.monomial(1, mono[0] * k, mono[1] * k)


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


def merged(pairs):
    """The polynomial of (monomial, coefficient) pairs, repeated monomials added."""
    terms = {}
    for mono, c in pairs:
        terms[mono] = terms.get(mono, 0) + c
    return LaurentPolyQT(terms)


signed_polys = st.lists(
    st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-3, 3)),
    max_size=4,
).map(merged)


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

    def test_one_pass_gives_every_lower_bracket(self):
        # e_plethysms(k, S)[j] is e_j[S] for every j <= k, negative
        # multiplicities included, whose updates run the other way
        rng = random.Random(33)
        for _ in range(30):
            alphabet = lp({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                           for _ in range(rng.randint(0, 4))})
            k = rng.randint(0, 6)
            es = e_plethysms(k, alphabet)
            assert len(es) == k + 1
            assert es == [e_plethysm(j, alphabet) for j in range(k + 1)]
        with pytest.raises(ValueError, match="elementary index"):
            e_plethysms(-1, M)

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

    def test_budget_is_inclusive(self):
        # h_8 is the sum of every m_mu of degree 8, each once
        assert SCHUR_DEGREE_BUDGET == 8
        row = schur_to_monomial(Partition((8,)))
        assert row == MonomialSymFn({mu.parts: 1 for mu in partitions_of(8)})
        assert schur_to_monomial(Partition((1,) * 8)) == MonomialSymFn({(1,) * 8: 1})
        for parts in [(9,), (5, 4), (1,) * 9]:
            with pytest.raises(ValueError, match="capped at degree 8, got s:.* of degree 9"):
                schur_to_monomial(Partition(parts))


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

    def test_parse_refusals_and_the_empty_schur(self):
        with pytest.raises(ValueError, match="single nonnegative index"):
            MonomialSymFn.parse("e:1,2")
        assert MonomialSymFn.parse("s:") == MonomialSymFn({(): 1})

    @pytest.mark.parametrize("rho, match", [((2, 0), "nonzero"), ((-1, 2), "weakly decreasing")])
    def test_refuses_an_invalid_laurent_partition(self, rho, match):
        with pytest.raises(ValueError, match=match):
            MonomialSymFn({rho: 1})

    def test_constant_bracket(self):
        f = MonomialSymFn({(): 1})
        assert f.eval_bracket(b_of((2, 1))) == ONE

    # the brute-force oracle of at_last_one, pinned on two small cases
    def test_expand_last_one_e1(self):
        f = MonomialSymFn.parse("e:1")
        expansion = expand_last_one(f, 3)
        assert expansion == {(1, 0): ONE, (0, 1): ONE, (0, 0): ONE}

    def test_expand_last_one_m_minus1(self):
        f = MonomialSymFn.parse("m:-1")
        expansion = expand_last_one(f, 3)
        assert expansion == {(-1, 0): ONE, (0, -1): ONE, (0, 0): ONE}

    def test_at_last_one_e1(self):
        # e_1(x_1, x_2, 1) = m_1(x_1, x_2) + 1
        assert MonomialSymFn.parse("e:1").at_last_one(3) == MonomialSymFn({(1,): 1, (): 1})

    AT_LAST_ONE_CASES = {
        **{text: MonomialSymFn.parse(text)
           for text in ("e:1", "m:-1", "e:2", "e:3", "s:2,1", "m:2,-1", "m:1,1,-1",
                        "m:2,2,1", "s:3,1", "m:1,-1,-1,-1")},
        "qt-coefficients": MonomialSymFn({(2, 1): Q - T, (1,): ONE + Q, (): T}),
    }

    @pytest.mark.parametrize("f", AT_LAST_ONE_CASES.values(), ids=AT_LAST_ONE_CASES.keys())
    def test_at_last_one_matches_brute_force(self, f):
        for n in range(1, 7):
            assert expand_monomials(f.at_last_one(n), n - 1) == expand_last_one(f, n), n

    def test_oracle_rejects_counting_every_arrangement(self):
        f = MonomialSymFn.parse("e:1")
        for n in range(3, 7):
            wrong = at_last_one_every_arrangement(f, n)
            assert wrong.coeffs[(1,)] == n - 1
            assert expand_monomials(wrong, n - 1) != expand_last_one(f, n)


# repeated parts, negative parts, and (1^8), more parts than slots <= 7
ARRANGED_RHOS = [(), (1,), (1, 1), (2, 1, 1), (3, 3, 1), (-1,), (1, -1), (2, -1, -1),
                 (-2, -2, -3), (1,) * 8]


def _arrangements_by_permutations(rho, slots):
    """The slow definition: every permutation of rho padded with zeros to
    `slots`, each distinct one once, sorted."""
    if len(rho) > slots:
        return []
    return sorted(set(permutations(tuple(rho) + (0,) * (slots - len(rho)))))


class TestDistinctArrangements:
    @pytest.mark.parametrize("rho", ARRANGED_RHOS)
    def test_matches_the_permutation_walk(self, rho):
        for slots in range(8):
            assert distinct_arrangements(rho, slots) == _arrangements_by_permutations(rho, slots)

    def test_more_parts_than_slots_give_none(self):
        assert all(distinct_arrangements((1,) * 8, slots) == [] for slots in range(8))
        assert distinct_arrangements((2, -1), 1) == []

    @pytest.mark.parametrize("rho", ARRANGED_RHOS)
    def test_length_is_the_multinomial(self, rho):
        for slots in range(len(rho), 11):
            multiplicities = Counter(tuple(rho) + (0,) * (slots - len(rho))).values()
            multinomial = factorial(slots) // prod(map(factorial, multiplicities))
            assert len(distinct_arrangements(rho, slots)) == multinomial

    @pytest.mark.parametrize("rho", ARRANGED_RHOS)
    def test_count_is_the_length_of_the_list(self, rho):
        for slots in range(11):
            assert arrangement_count(rho, slots) == len(distinct_arrangements(rho, slots))

    @pytest.mark.parametrize("rho", ARRANGED_RHOS)
    def test_order_is_strictly_increasing(self, rho):
        for slots in range(len(rho), 11):
            out = distinct_arrangements(rho, slots)
            assert all(a < b for a, b in zip(out, out[1:]))
