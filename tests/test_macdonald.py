import math
import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from teslab import macdonald, tesler, verify
from teslab.macdonald import (
    M_FACTORS,
    _eigen_coeff,
    _tesler_cost,
    cheaper_route,
    closed_forms,
    hilb_delta,
    hilb_delta_prime,
    hilb_tilde,
    pieri_d,
    skew_pieri_c,
    tes_via_theorem,
    virtual_F,
)
from teslab.plethysm import MonomialSymFn, e_plethysm
from teslab.qt_algebra import M, ONE, Q, T, ZERO, LaurentPolyQT, RatFuncQT, exact_div, qt_int
from teslab.tesler import tes
from teslab.young import Partition, cover_monomial, partition_stats, partitions_of, w_factors

P = Partition


# The two sides of Lemma 3.3's power identities as RatFuncQT sums, one per k:
# the slow definition that verify's cleared numerators are checked against.

def pieri_power_sum(table: tuple, k: int) -> RatFuncQT:
    """Sum of d * T^k over the covers (the left side of the power identities)."""
    total = RatFuncQT.from_laurent(ZERO)
    for _, t, d in table:
        total = total + d * RatFuncQT.from_laurent(t ** k)
    return total


def pieri_power_sum_shifted(table: tuple, k: int) -> RatFuncQT:
    """Sum of d * (1 - T) * T^k over the covers."""
    total = RatFuncQT.from_laurent(ZERO)
    for _, t, d in table:
        total = total + d * RatFuncQT.from_laurent((ONE - t) * t ** k)
    return total


def _bracket_side(alphabet: LaurentPolyQT, k: int, j: int) -> RatFuncQT:
    """Lemma 3.3's bracket side: (-1)^(k-1) e_j[alphabet] / M for k > 0, and for
    k < 0 (-1)^k q^-1 t^-1 bar(e_(-k)[alphabet] / M) = (-1)^k bar(e_(-k)[alphabet]) / M."""
    if k > 0:
        return RatFuncQT.from_binomials((), M_FACTORS, e_plethysm(j, alphabet) * (-1) ** (k - 1))
    return RatFuncQT.from_binomials((), M_FACTORS, e_plethysm(-k, alphabet).bar() * (-1) ** -k)


def power_identity_rhs(nu: Partition, k: int) -> RatFuncQT:
    """The bracket side of the power identities built on M*B(nu) - 1."""
    if k == 0:
        return RatFuncQT.from_binomials((), M_FACTORS)
    return _bracket_side(M * partition_stats(nu).B - ONE, k, k - 1)


def shifted_power_identity_rhs(nu: Partition, k: int) -> RatFuncQT:
    """The bracket side of the shifted identities built on M*B(nu)."""
    if k == 0:
        return RatFuncQT.from_laurent(ZERO)
    return _bracket_side(M * partition_stats(nu).B, k, k)


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
        assert pieri_d(P((1,))) == (
            (P((2,)), Q, RatFuncQT.from_binomials((), (ONE - Q, Q - T))),
            (P((1, 1)), T, RatFuncQT.from_binomials((), (ONE - T, T - Q))),
        )

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
        m = len(table)
        for k in range(-2, m + 2):
            assert pieri_power_sum(table, k) == power_identity_rhs(nu, k)
            assert pieri_power_sum_shifted(table, k) == shifted_power_identity_rhs(nu, k)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_product_matches_vandermonde_solve(self, n):
        for nu in partitions_of(n):
            solved = solved_pieri_d(nu)
            assert [(mu, d) for mu, _, d in pieri_d(nu)] == list(solved.items())
            for mu, d in solved.items():
                w_mu = math.prod(w_factors(mu), start=ONE)
                c = d * RatFuncQT.from_binomials((), w_factors(nu), w_mu)
                assert {p: v for p, _, v in skew_pieri_c(mu)}[nu] == c, (mu, nu)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_triples_carry_the_cover_cell(self, n):
        # the oracle finds each cell again by a search over the covers of nu
        for nu in partitions_of(n):
            table = pieri_d(nu)
            assert [mu for mu, _, _ in table] == [mu for mu, _ in nu.covers()]
            for mu, t, _ in table:
                assert t == cover_monomial(nu, mu), (nu, mu)
        for mu in partitions_of(n + 1):
            table = skew_pieri_c(mu)
            assert [nu for nu, _, _ in table] == [nu for nu, _ in mu.cocovers()]
            for nu, t, _ in table:
                assert t == cover_monomial(nu, mu), (nu, mu)

    def test_denominators_are_unit_binomials(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                values = [d for _, _, d in pieri_d(mu)]
                values += [power_identity_rhs(mu, k) for k in range(-2, len(mu.covers()) + 2)]
                if n > 1:
                    values += [c for _, _, c in skew_pieri_c(mu)]
                for k in (-1, 0, 2):
                    values.append(virtual_F((k,) * (n - 1), mu))
                assert all(_binomial_denominators(r) for r in values), mu


class TestClearedPowerIdentities:
    """verify's lemma-3-3 compares numerators over one denominator per nu:
    the least common multiple of M and the denominators of nu's d's."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cleared_sides_match_the_per_k_sums(self, n):
        for nu in partitions_of(n):
            table = pieri_d(nu)
            lcm = Counter(RatFuncQT.from_binomials((), M_FACTORS).factors)
            for _, _, d in table:
                lcm |= Counter(d.factors)
            denominator = list(lcm.elements())
            for k in range(-2, len(table) + 2):
                for shifted, lhs, rhs in ((False, pieri_power_sum, power_identity_rhs),
                                          (True, pieri_power_sum_shifted,
                                           shifted_power_identity_rhs)):
                    cleared = verify._cleared_sum(nu, k, shifted)
                    assert RatFuncQT.from_binomials((), denominator, cleared) == lhs(table, k)
                    cleared = verify._cleared_bracket(nu, k, shifted)
                    assert RatFuncQT.from_binomials((), denominator, cleared) == rhs(nu, k)

    def test_a_wrong_d_fails_the_suite(self, monkeypatch):
        def scaled(nu):
            (mu, t, d), *rest = pieri_d(nu)
            return ((mu, t, d * Q), *rest)

        verify._power_parts.cache_clear()
        monkeypatch.setattr(verify, "pieri_d", scaled)
        try:
            report = verify.run_suite("lemma-3-3")
        finally:
            verify._power_parts.cache_clear()
        assert report.cases_run == 388
        # every Pieri case fails; only the 8 qt-binomial cases pass
        assert len(report.failures) == 380


def _w_pair(mu: Partition, cell) -> tuple:
    """The row and column w factors q^a - t^(l+1) and t^l - q^(a+1) of a cell,
    its arm a and leg l counted off the diagram."""
    x, y = cell
    cells = mu.cells()
    a = sum(1 for cx, cy in cells if cy == y and cx > x)
    l = sum(1 for cx, cy in cells if cx == x and cy > y)
    return Q ** a - T ** (l + 1), T ** l - Q ** (a + 1)


def _line_binomials(nu: Partition, mu: Partition, cell, other: bool):
    """The top and bottom binomials of d_{mu nu} (other False, with M's two
    factors below) or of c_{mu nu} (other True), from the product formula."""
    x0, y0 = cell
    top, bottom = [], [] if other else list(M_FACTORS)
    for c, k in [((x, y0), 0) for x in range(x0)] + [((x0, y), 1) for y in range(y0)]:
        small, big = _w_pair(nu, c), _w_pair(mu, c)
        i = 1 - k if other else k
        top.append((big if other else small)[i])
        bottom.append((small if other else big)[i])
    return top, bottom


def _coefficients(n: int):
    """(label, value, scale, top, bottom) for every d and c of the partitions
    of n and the eigen coefficients of both targets."""
    for nu in partitions_of(n):
        for mu, cell in nu.covers():
            d = {m: v for m, _, v in pieri_d(nu)}[mu]
            yield ("d", nu, mu), d, ONE, *_line_binomials(nu, mu, cell, False)
        if n > 1:
            for small, cell in nu.cocovers():
                c = {m: v for m, _, v in skew_pieri_c(nu)}[small]
                yield ("c", nu, small), c, ONE, *_line_binomials(small, nu, cell, True)
        pi = [ONE - Q ** x * T ** y for x, y in nu.cells() if (x, y) != (0, 0)]
        w = [f for cell in nu.cells() for f in _w_pair(nu, cell)]
        for target, scale in (("p", ONE), ("e", partition_stats(nu).B)):
            yield ("eigen", nu, target), _eigen_coeff(nu, target), scale, pi + list(M_FACTORS), w


class TestReducedCoefficients:
    """Every Pieri, skew and eigen coefficient is reduced and has the value of
    its product formula, whatever trial divisions were skipped on the way."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_reduced_with_the_value_of_the_formula(self, n):
        for label, r, scale, top, bottom in _coefficients(n):
            assert all(exact_div(r.num, f) is None for f in r.factors), label
            # cross-multiplied: scale * prod(top) over prod(bottom), no cancellation
            lhs = r.num * math.prod(bottom, start=ONE)
            assert lhs == scale * math.prod(top, start=ONE) * math.prod(r.factors, start=ONE), label


class TestSkewPieri:
    def test_row_and_column(self):
        assert skew_pieri_c(P((2,))) == ((P((1,)), Q, RatFuncQT.from_laurent(ONE + Q)),)
        assert skew_pieri_c(P((1, 1))) == ((P((1,)), T, RatFuncQT.from_laurent(ONE + T)),)

    def test_too_small_partitions(self):
        with pytest.raises(ValueError, match="at least two cells"):
            skew_pieri_c(P((1,)))
        with pytest.raises(ValueError, match="nonempty"):
            pieri_d(P(()))


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
    for nu, _, c in skew_pieri_c(mu):
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

    @pytest.mark.parametrize("alpha", [(), (1,), (1, 0)])
    def test_unknown_target(self, alpha):
        with pytest.raises(ValueError, match="target must be"):
            hilb_tilde(alpha, "h")


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


OTHER_ROUTE = {"eigen": "tesler", "tesler": "eigen"}


class TestCheaperRoute:
    """cheaper_route picks a route from counts; both routes give one value."""

    @pytest.fixture
    def no_route_runs(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a route ran")

        monkeypatch.setattr(macdonald, "tes_sums", refuse)
        monkeypatch.setattr(macdonald, "_eigen_sum", refuse)

    @pytest.mark.parametrize("text, n, route", [
        ("e:2", 8, "tesler"),       # 5 ms against 98 ms
        ("s:3,3,2", 10, "eigen"),   # 1.9 s against 83 s
        ("m:20,20", 5, "eigen"),    # 0.1 s against more than 100 s
    ])
    def test_pinned_choices(self, no_route_runs, text, n, route):
        assert cheaper_route(MonomialSymFn.parse(text), "e", n) == route

    def test_delta_forms_take_the_tesler_route(self, no_route_runs):
        for text in ("e:1", "m:-1", "e:2", "s:2,1"):
            for n in range(5, 9):
                g = MonomialSymFn.parse(text).at_last_one(n)
                assert cheaper_route(g, "e", n) == "tesler", (text, n)

    def test_checks_the_partition_size_budget(self, no_route_runs):
        with pytest.raises(ValueError, match="over the partition-size budget"):
            cheaper_route(MonomialSymFn.parse("e:1"), "e", macdonald.PARTITION_SIZE_BUDGET + 1)
        with pytest.raises(ValueError, match="n must be at least 1"):
            cheaper_route(MonomialSymFn.parse("e:1"), "e", 0)

    # the f of the cor-4-4 and cor-4-5 suites: Delta_{e_1} and Delta_{m_-1} on
    # e_n, Delta'_{e_2} and Delta'_{e_1} on p_n
    SUITE_CASES = [("e:1", "e", True), ("m:-1", "e", True), ("e:2", "p", False), ("e:1", "p", False)]

    @pytest.mark.parametrize("text, target, delta", SUITE_CASES)
    def test_chosen_route_equals_the_other(self, text, target, delta):
        for n in range(1, 7):
            f = MonomialSymFn.parse(text)
            g = f.at_last_one(n) if delta else f
            route = cheaper_route(g, target, n)
            value = hilb_delta_prime(g, target, n, route)
            assert value == hilb_delta_prime(g, target, n, OTHER_ROUTE[route]), (text, n)


class TestTeslerRouteBudget:
    def test_is_inclusive(self, monkeypatch):
        f = MonomialSymFn.parse("e:2")
        cost = _tesler_cost(f, "e", 6)
        monkeypatch.setattr(macdonald, "TESLER_ROUTE_BUDGET", cost)
        assert hilb_delta_prime(f, "e", 6, "tesler") == hilb_delta_prime(f, "e", 6)
        monkeypatch.setattr(macdonald, "TESLER_ROUTE_BUDGET", math.nextafter(cost, 0))
        with pytest.raises(ValueError, match="over its budget"):
            hilb_delta_prime(f, "e", 6, "tesler")

    def test_refuses_before_the_first_tes(self, monkeypatch):
        def refuse(alpha):
            raise AssertionError("tes ran before the budget check")

        monkeypatch.setattr(macdonald, "tes_sums", refuse)
        f = MonomialSymFn.parse("m:20,20")
        assert _tesler_cost(f, "e", 5) > macdonald.TESLER_ROUTE_BUDGET
        with pytest.raises(ValueError, match="the Tesler route at n=5 .* over its budget"):
            hilb_delta_prime(f, "e", 5, "tesler")
        with pytest.raises(ValueError, match="over its budget"):
            hilb_delta(MonomialSymFn.parse("m:20,20,1"), 5, "tesler")


class TestTeslerRoute:
    @pytest.mark.parametrize("target", ["e", "p"])
    @pytest.mark.parametrize("f", [MonomialSymFn.parse("e:0"), TestConjugation.QT_F],
                             ids=["e:0", "qt-coefficients"])
    def test_routes_agree_at_n1(self, f, target):
        # at n = 1 every monomial has the empty arrangement only, so the
        # p-target sums tes(()) = 1 for f's constant term
        value = hilb_delta_prime(f, target, 1, "tesler")
        assert value == hilb_delta_prime(f, target, 1, "eigen")
        assert value == f.coeffs.get((), 0)

    def test_each_state_is_packed_once(self):
        # one (K, W) for every arrangement of every monomial: a cold call packs
        # no state twice, so the packed walk misses no more often than the
        # bound walk (288 packed against 249 with one (K, W) per tes call)
        for cache in (tesler._bound, tesler._tes_cached):
            cache.cache_clear()
        f = MonomialSymFn.parse("s:2,1")
        assert hilb_delta_prime(f, "e", 6, "tesler") == hilb_delta_prime(f, "e", 6)
        assert tesler._tes_cached.cache_info().misses <= tesler._bound.cache_info().misses


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
        monkeypatch.setattr(macdonald, "PARTITION_SIZE_BUDGET", 3)

        def refuse(self, n):
            raise AssertionError("at_last_one ran before the budget check")

        monkeypatch.setattr(MonomialSymFn, "at_last_one", refuse)
        with pytest.raises(ValueError, match="over the partition-size budget of 3"):
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
        monkeypatch.setattr(macdonald, "PARTITION_SIZE_BUDGET", 3)
        with pytest.raises(ValueError, match="over the partition-size budget of 3"):
            hilb_tilde((0, 0, 0), "e")
        monkeypatch.undo()
        assert hilb_tilde((0, 0, 0), "e").to_laurent() == ONE

    def test_partition_size_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(macdonald, "PARTITION_SIZE_BUDGET", 5)
        e1 = MonomialSymFn.parse("e:1")
        assert hilb_delta(e1, 5) == hilb_delta(e1, 5, "tesler")
        assert tes_via_theorem((1, -1, 2, 0)) == tes((1, -1, 2, 0))
        misses = virtual_F.cache_info().misses
        for refused in (lambda: hilb_delta(e1, 6), lambda: hilb_delta_prime(e1, "p", 6),
                        lambda: tes_via_theorem((1, -1, 2, 0, 1))):
            with pytest.raises(ValueError, match="n=6 is over the partition-size budget of 5"):
                refused()
        assert virtual_F.cache_info().misses == misses
        # a miss checks the budget too
        virtual_F.cache_clear()
        with pytest.raises(ValueError, match="n=6 is over the partition-size budget of 5"):
            virtual_F((0,) * 5, Partition((3, 2, 1)))

    def test_cache_transparency(self):
        warm = tes_via_theorem((1, -1, 2))
        for memo in (pieri_d, skew_pieri_c, virtual_F):
            memo.cache_clear()
        assert tes_via_theorem((1, -1, 2)) == warm
