import math
import random
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from teslab.macdonald import (
    _eigen_coeff,
    closed_forms,
    hilb_delta,
    hilb_delta_prime,
    hilb_tilde,
    n_cap,
    shifted_power_identity_rhs,
    power_identity_rhs,
    pieri_d,
    pieri_power_sum,
    pieri_power_sum_shifted,
    skew_pieri_c,
    tes_via_theorem,
    virtual_F,
)
from teslab.plethysm import MonomialSymFn
from teslab.qt_algebra import ONE, Q, T, LaurentPolyQT, RatFuncQT, qt_int
from teslab.tesler import tes
from teslab.young import Partition, cover_monomial, partition_stats, partitions_of, w_factors

P = Partition


def _leibniz_det(matrix: list) -> RatFuncQT:
    """det by the Leibniz sum over permutations, with RatFuncQT entries."""
    total = RatFuncQT.from_laurent(0)
    for perm in permutations(range(len(matrix))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        term = RatFuncQT.from_laurent(-1 if inversions % 2 else 1)
        for row, col in zip(matrix, perm):
            term = term * row[col]
        total = total + term
    return total


def solved_pieri_d(nu: Partition) -> dict:
    """The d coefficients of nu solved from the k = 0..m-1 power identities.

    The system is V d = rhs with V[k][j] = t_j^k for the distinct cover
    monomials t_j, a Vandermonde matrix, so Cramer's rule gives
    d_j = det(V_j) / det(V) with det(V) = prod_{i<j} (t_j - t_i): every
    factor of the denominator is a +-1 binomial.
    """
    covers = nu.covers()
    m = len(covers)
    ts = [LaurentPolyQT.monomial(1, cell[0], cell[1]) for _, cell in covers]
    matrix = [[RatFuncQT.from_laurent(t ** k) for t in ts] for k in range(m)]
    rhs = [power_identity_rhs(nu, k) for k in range(m)]
    vandermonde = [ts[j] - ts[i] for i, j in combinations(range(m), 2)]
    assert _leibniz_det(matrix) == RatFuncQT.from_laurent(math.prod(vandermonde, start=ONE))
    inverse_det = RatFuncQT.from_binomials((), vandermonde)
    solved = {}
    for j, (mu, _) in enumerate(covers):
        cramer = [row[:j] + [b] + row[j + 1:] for row, b in zip(matrix, rhs)]
        solved[mu] = _leibniz_det(cramer) * inverse_det
    return solved


def _binomial_denominators(r: RatFuncQT) -> bool:
    return all(len(f.terms) == 2 and all(abs(c) == 1 for c in f.terms.values())
               for f in r.factors)


class TestPieri:
    def test_one_cell_solution(self):
        table = pieri_d(P((1,)))
        d2 = table.entries[P((2,))]
        d11 = table.entries[P((1, 1))]
        assert d2 == RatFuncQT.from_binomials((), (ONE - Q, Q - T))
        assert d11 == RatFuncQT.from_binomials((), (ONE - T, T - Q))

    def test_one_cell_k2_overdetermined(self):
        table = pieri_d(P((1,)))
        expect = RatFuncQT.from_binomials((), (ONE - Q, ONE - T), Q + T - Q * T)
        assert pieri_power_sum(table, 2) == expect
        assert pieri_power_sum(table, 2) == power_identity_rhs(P((1,)), 2)

    def test_one_cell_negative_k(self):
        table = pieri_d(P((1,)))
        assert pieri_power_sum(table, -1) == power_identity_rhs(P((1,)), -1)

    @pytest.mark.parametrize("nu", [P((2, 1)), P((3,)), P((2, 2))])
    def test_overdetermined_sweep(self, nu):
        table = pieri_d(nu)
        m = len(table.entries)
        for k in range(-2, m + 2):
            assert pieri_power_sum(table, k) == power_identity_rhs(nu, k)
            assert pieri_power_sum_shifted(table, k) == shifted_power_identity_rhs(nu, k)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_product_matches_vandermonde_solve(self, n):
        for nu in partitions_of(n):
            solved = solved_pieri_d(nu)
            assert pieri_d(nu).entries == solved
            for mu, d in solved.items():
                w_mu = math.prod(w_factors(mu), start=ONE)
                c = d * RatFuncQT.from_binomials((), w_factors(nu), w_mu)
                assert skew_pieri_c(mu)[nu] == c, (mu, nu)

    def test_denominators_are_unit_binomials(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                values = list(pieri_d(mu).entries.values())
                values += [power_identity_rhs(mu, k) for k in range(-2, len(mu.covers()) + 2)]
                if n > 1:
                    values += skew_pieri_c(mu).values()
                for k in (-1, 0, 2):
                    values.append(virtual_F((k,) * (n - 1), mu))
                assert all(_binomial_denominators(r) for r in values), mu


class TestSkewPieri:
    def test_row_and_column(self):
        cs = skew_pieri_c(P((2,)))
        assert cs[P((1,))] == RatFuncQT.from_laurent(ONE + Q)
        cs = skew_pieri_c(P((1, 1)))
        assert cs[P((1,))] == RatFuncQT.from_laurent(ONE + T)


class TestVirtualF:
    def test_base_case(self):
        assert virtual_F((), P((1,))) == RatFuncQT.from_laurent(ONE)

    def test_zero_hooks_are_hilbert_series(self):
        assert virtual_F((0,), P((2,))).to_laurent() == ONE + Q
        assert virtual_F((0,), P((1, 1))).to_laurent() == ONE + T

    def test_monomial_scaling(self):
        assert virtual_F((1,), P((2,))).to_laurent() == Q * (ONE + Q)
        assert virtual_F((-1,), P((2,))).to_laurent() == Q ** -1 * (ONE + Q)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            virtual_F((0, 0), P((2,)))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_factorial_specialization(self, n):
        for mu in partitions_of(n):
            f = virtual_F((0,) * (n - 1), mu).to_laurent()
            assert f.specialize(q=1, t=1) == math.factorial(n)

    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
    def test_power_hooks_scale_by_T(self, k):
        from teslab.young import partition_stats

        for n in range(1, 5):
            for mu in partitions_of(n):
                lhs = virtual_F((k,) * (n - 1), mu).to_laurent()
                T_mu = partition_stats(mu).T
                rhs = T_mu ** k * virtual_F((0,) * (n - 1), mu).to_laurent()
                assert lhs == rhs


@lru_cache(maxsize=None)
def plain_F(alpha: tuple, mu: Partition) -> RatFuncQT:
    """F^alpha_mu by the cover recursion on every mu, with no conjugate shortcut."""
    if mu.n == 1:
        return RatFuncQT.from_laurent(ONE)
    total = RatFuncQT.from_laurent(0)
    for nu, c in skew_pieri_c(mu).items():
        power = RatFuncQT.from_laurent(cover_monomial(nu, mu) ** alpha[0])
        total = total + c * power * plain_F(alpha[1:], nu)
    return total


class TestConjugation:
    """Conjugating mu swaps q and t; the route computes half the partitions."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_virtual_F_matches_plain_recursion(self, n):
        rng = random.Random(n)
        alphas = [(0,) * (n - 1)] + [tuple(rng.randint(-2, 2) for _ in range(n - 1))
                                     for _ in range(3)]
        for alpha in alphas:
            for mu in partitions_of(n):
                assert virtual_F(alpha, mu) == plain_F(alpha, mu), (alpha, mu)
                assert virtual_F(alpha, mu.conjugate()) == virtual_F(alpha, mu).swap_qt()

    @pytest.mark.parametrize("target", ["e", "p"])
    def test_eigen_coeff_conjugates_by_swap(self, target):
        for n in range(1, 8):
            for mu in partitions_of(n):
                assert _eigen_coeff(mu.conjugate(), target) == _eigen_coeff(mu, target).swap_qt()

    # f^sigma != f: the conjugate half of the bracket sum takes f^sigma's brackets
    QT_F = MonomialSymFn({(1,): Q, (1, 1): T * T + ONE})

    @pytest.mark.parametrize("n", range(1, 6))
    def test_delta_routes_agree_on_qt_coefficients(self, n):
        f = self.QT_F
        assert f.swap_qt() != f
        assert hilb_delta(f, n, "eigen") == hilb_delta(f, n, "tesler")
        for target in ("e", "p"):
            assert hilb_delta_prime(f, target, n) == hilb_delta_prime(f, target, n, "tesler")


class TestHilbTilde:
    def test_e2_with_one(self):
        assert hilb_tilde((1,), "e").to_laurent() == ONE + Q + T

    def test_p2_scaled(self):
        assert hilb_tilde((1,), "p").to_laurent() == ONE

    def test_zero_hooks_e(self):
        for n in range(1, 5):
            assert hilb_tilde((0,) * (n - 1), "e").to_laurent() == ONE


class TestTheoremRoute:
    def test_single_entries(self):
        assert tes_via_theorem((1,)) == ONE
        assert tes_via_theorem((-1,)) == qt_int(-1)
        assert tes_via_theorem((1, 1)) == ONE + Q + T

    def test_matches_enumeration_spotcheck(self):
        for alpha in [(2,), (-2,), (1, -1), (2, 0), (1, 1, 1), (-1, 2, -2)]:
            assert tes_via_theorem(alpha) == tes(alpha)

    def test_corollary_route(self):
        for alpha in [(0,), (1,), (-1, 1), (2, -1)]:
            assert hilb_tilde(alpha, "e").to_laurent() == tes((1,) + alpha)


class TestDeltaPrime:
    def test_e1_on_e2(self):
        f = MonomialSymFn({(1,): 1})
        assert hilb_delta_prime(f, "e", 2) == ONE + Q + T

    def test_high_degree_annihilates(self):
        for n in range(1, 4):
            for k in range(n, n + 2):
                f = MonomialSymFn({(1,) * k: 1})
                assert hilb_delta_prime(f, "e", n).is_zero()

    def test_constant_is_identity(self):
        f = MonomialSymFn({(): 1})
        for n in range(1, 5):
            assert hilb_delta_prime(f, "e", n) == ONE

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("target", ["e", "p"])
    @pytest.mark.parametrize("text", ["e:1", "e:2", "m:-1", "s:2,1"])
    def test_routes_agree(self, text, target, n):
        f = MonomialSymFn.parse(text)
        assert hilb_delta_prime(f, target, n, "tesler") == hilb_delta_prime(f, target, n)

    @pytest.mark.parametrize("route", ["eigen", "tesler"])
    def test_unknown_target(self, route):
        with pytest.raises(ValueError, match="target"):
            hilb_delta_prime(MonomialSymFn.parse("e:1"), "x", 3, route)

    def test_unknown_route(self):
        with pytest.raises(ValueError, match="route"):
            hilb_delta_prime(MonomialSymFn.parse("e:1"), "e", 3, "enum")


class TestDelta:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_e1_closed_form_both_routes(self, n):
        f = MonomialSymFn.parse("e:1")
        expected = closed_forms("e1", n)
        assert hilb_delta(f, n, "eigen") == expected
        assert hilb_delta(f, n, "tesler") == expected

    def test_m_minus1(self):
        f = MonomialSymFn.parse("m:-1")
        assert hilb_delta(f, 2, "eigen") == ONE - (Q * T) ** -1
        for n in range(1, 9):
            expected = closed_forms("m_minus1", n)
            assert hilb_delta(f, n, "eigen") == expected
            assert hilb_delta(f, n, "tesler") == expected

    def test_s321_seven_terms(self):
        f = MonomialSymFn.parse("s:3,2,1")
        explicit = (
            tes((1, 3, 2)) + tes((1, 2, 3)) + tes((1, 3, 1)) + 2 * tes((1, 2, 2))
            + tes((1, 1, 3)) + tes((1, 2, 1)) + tes((1, 1, 2))
        )
        assert hilb_delta(f, 3, "tesler") == explicit
        assert hilb_delta(f, 3, "eigen") == explicit

    @pytest.mark.parametrize("text", ["e:1", "e:2", "m:2", "m:-1", "s:2,1"])
    def test_routes_agree_to_n5(self, text):
        f = MonomialSymFn.parse(text)
        for n in range(1, 6):
            assert hilb_delta(f, n, "eigen") == hilb_delta(f, n, "tesler"), (text, n)


def direct_delta_sum(f: MonomialSymFn, n: int) -> LaurentPolyQT:
    """Sum over every partition mu of n of f[B_mu] times the zero-hook term, no halving."""
    total = RatFuncQT.from_laurent(0)
    for mu in partitions_of(n):
        bracket = f.eval_bracket(partition_stats(mu).B)
        total = total + _eigen_coeff(mu, "e") * virtual_F((0,) * (n - 1), mu) * bracket
    return total.to_laurent()


class TestDeltaThroughPrime:
    """hilb_delta is hilb_delta_prime of f(x_1, ..., x_{n-1}, 1), checked on f[B_mu]."""

    CASES = {
        **{text: MonomialSymFn.parse(text)
           for text in ("e:1", "m:-1", "e:2", "e:3", "s:2,1", "m:2,-1", "m:1,1,-1")},
        "qt-coefficients": TestConjugation.QT_F,
    }

    @pytest.mark.parametrize("f", CASES.values(), ids=CASES.keys())
    def test_equals_direct_eigen_sum(self, f):
        for n in range(1, 7):
            expected = direct_delta_sum(f, n)
            assert hilb_delta(f, n, "eigen") == expected, n
            assert hilb_delta(f, n, "tesler") == expected, n

    def test_cap_is_checked_before_the_expansion(self, monkeypatch):
        monkeypatch.setenv("TESLAB_NMAX", "3")

        def refuse(self, n):
            raise AssertionError("at_last_one ran before the cap check")

        monkeypatch.setattr(MonomialSymFn, "at_last_one", refuse)
        with pytest.raises(ValueError, match="exceeds the configured cap 3"):
            hilb_delta(MonomialSymFn.parse("e:1"), 12)


class TestNabla:
    def test_diagonal_harmonics_n2(self):
        # nabla^k e_n has Hilbert series hilb_tilde((k,) * (n - 1), "e")
        assert hilb_tilde((1,), "e").to_laurent() == ONE + Q + T

    def test_zeroth_power(self):
        for n in range(1, 5):
            assert hilb_tilde((0,) * (n - 1), "e").to_laurent() == ONE

    def test_inverse_is_delta_at_minus_ones(self):
        f = MonomialSymFn({(-1, -1): 1})
        assert hilb_tilde((-1,), "e").to_laurent() == hilb_delta(f, 2, "eigen")


class TestClosedForms:
    def test_values(self):
        assert closed_forms("e1", 2) == 2 * ONE + Q + T
        assert closed_forms("e2_pn", 2) == ONE
        assert closed_forms("m_minus1", 3) == (ONE - (Q * T) ** -1) ** 2

    def test_unknown(self):
        with pytest.raises(ValueError):
            closed_forms("nope", 3)


class TestConfig:
    def test_cap(self, monkeypatch):
        monkeypatch.setenv("TESLAB_NMAX", "3")
        with pytest.raises(ValueError, match="exceeds"):
            hilb_tilde((0, 0, 0), "e")
        monkeypatch.delenv("TESLAB_NMAX")
        assert hilb_tilde((0, 0, 0), "e").to_laurent() == ONE

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", ""])
    def test_bad_cap_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("TESLAB_NMAX", raw)
        with pytest.raises(ValueError, match="TESLAB_NMAX must be an integer of at least 1"):
            n_cap()

    def test_cache_transparency(self):
        warm = tes_via_theorem((1, -1, 2))
        for memo in (pieri_d, skew_pieri_c, virtual_F):
            memo.cache_clear()
        assert tes_via_theorem((1, -1, 2)) == warm
