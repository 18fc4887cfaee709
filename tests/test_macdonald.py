import math

import pytest

from teslab.macdonald import (
    closed_forms,
    hilb_delta,
    hilb_delta_prime,
    hilb_tilde,
    n_cap,
    shifted_power_identity_rhs,
    power_identity_rhs,
    nabla_hilb,
    pieri_d,
    pieri_power_sum,
    pieri_power_sum_shifted,
    skew_pieri_c,
    tes_via_theorem,
    virtual_F,
)
from teslab.plethysm import MonomialSymFn
from teslab.qt_algebra import M, ONE, Q, T, RatFuncQT, qt_int
from teslab.tesler import tes
from teslab.young import Partition, partitions_of

P = Partition


class TestPieri:
    def test_one_cell_solution(self):
        table = pieri_d(P((1,)))
        d2 = table.entries[P((2,))]
        d11 = table.entries[P((1, 1))]
        assert d2 == RatFuncQT(ONE, (ONE - Q) * (Q - T))
        assert d11 == RatFuncQT(ONE, (ONE - T) * (T - Q))

    def test_one_cell_k2_overdetermined(self):
        table = pieri_d(P((1,)))
        assert pieri_power_sum(table, 2) == RatFuncQT(Q + T - Q * T, M)
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
    @pytest.mark.parametrize("n", range(1, 5))
    def test_e1_closed_form_both_routes(self, n):
        f = MonomialSymFn.parse("e:1")
        expected = closed_forms("e1", n)
        assert hilb_delta(f, n, "eigen") == expected
        assert hilb_delta(f, n, "tesler") == expected

    def test_m_minus1(self):
        f = MonomialSymFn.parse("m:-1")
        assert hilb_delta(f, 2, "eigen") == ONE - (Q * T) ** -1
        for n in range(1, 5):
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


class TestNabla:
    def test_diagonal_harmonics_n2(self):
        assert nabla_hilb(1, 2) == ONE + Q + T

    def test_zeroth_power(self):
        for n in range(1, 5):
            assert nabla_hilb(0, n) == ONE

    def test_inverse_is_delta_at_minus_ones(self):
        f = MonomialSymFn({(-1, -1): 1})
        assert nabla_hilb(-1, 2) == hilb_delta(f, 2, "eigen")


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
