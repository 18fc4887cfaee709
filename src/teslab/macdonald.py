"""Pieri coefficients, virtual Hilbert series, and delta-operator Hilbert series.

The Pieri coefficients d are recovered by solving the Vandermonde system that
the elementary brackets impose on the cover monomials (exact Gaussian
elimination over RatFuncQT, deterministic pivot order).  The skew
coefficients follow from c/w_mu = d/w_nu, and the virtual Hilbert series
F^alpha_mu is the cover recursion with the first hook entry exponentiating
the cover monomial.  Every final answer is converted back to a Laurent
polynomial, which doubles as a structural self-check.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .plethysm import MonomialSymFn, b_alphabet, b_minus_one, e_plethysm, mb_alphabet, mb_minus_one
from .qt_algebra import ONE, ZERO, LaurentPolyQT, RatFuncQT, qt_int
from .tesler import tes
from .young import Partition, cover_monomial, partition_stats, partitions_of, w_factors

M_FACTORS = (
    LaurentPolyQT({(0, 0): 1, (1, 0): -1}),  # 1 - q
    LaurentPolyQT({(0, 0): 1, (0, 1): -1}),  # 1 - t
)

DEFAULT_N_CAP = 7


def n_cap() -> int:
    """Partition-size cap; override with the TESLAB_NMAX environment variable."""
    raw = os.environ.get("TESLAB_NMAX")
    if raw is None:
        return DEFAULT_N_CAP
    message = f"TESLAB_NMAX must be an integer of at least 1, got {raw!r}"
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(message) from None
    if cap < 1:
        raise ValueError(message)
    return cap


def _check_cap(n: int) -> None:
    cap = n_cap()
    if n > cap:
        raise ValueError(f"n={n} exceeds the configured cap {cap} (set TESLAB_NMAX)")


_PIERI_CACHE: dict = {}
_SKEW_CACHE: dict = {}
_F_CACHE: dict = {}
_CACHING = True


def set_caching(enabled: bool) -> None:
    """Disable or re-enable the memo tables (results must not change)."""
    global _CACHING
    _CACHING = enabled
    if not enabled:
        clear_caches()


def clear_caches() -> None:
    _PIERI_CACHE.clear()
    _SKEW_CACHE.clear()
    _F_CACHE.clear()


@dataclass(frozen=True)
class PieriTable:
    """Expansion coefficients d of (e_1/M) applied to the basis element of nu."""

    nu: Partition
    entries: dict      # cover partition -> RatFuncQT
    monomials: dict    # cover partition -> LaurentPolyQT (the added-cell monomial)


def power_identity_rhs(nu: Partition, k: int) -> RatFuncQT:
    """The bracket side of the power identities built on M*B(nu) - 1."""
    if k == 0:
        return RatFuncQT.from_factors(ONE, M_FACTORS)
    if k > 0:
        sign = 1 if (k - 1) % 2 == 0 else -1
        return RatFuncQT.from_factors(e_plethysm(k - 1, mb_minus_one(nu)) * sign, M_FACTORS)
    sign = 1 if k % 2 == 0 else -1
    inner = RatFuncQT.from_factors(e_plethysm(-k, mb_minus_one(nu)), M_FACTORS)
    return RatFuncQT.from_laurent(LaurentPolyQT.monomial(sign, -1, -1)) * inner.bar()


def shifted_power_identity_rhs(nu: Partition, k: int) -> RatFuncQT:
    """The bracket side of the shifted identities built on M*B(nu)."""
    if k == 0:
        return RatFuncQT.from_laurent(ZERO)
    if k > 0:
        sign = 1 if (k - 1) % 2 == 0 else -1
        return RatFuncQT.from_factors(e_plethysm(k, mb_alphabet(nu)) * sign, M_FACTORS)
    sign = 1 if k % 2 == 0 else -1
    inner = RatFuncQT.from_factors(e_plethysm(-k, mb_alphabet(nu)), M_FACTORS)
    return RatFuncQT.from_laurent(LaurentPolyQT.monomial(sign, -1, -1)) * inner.bar()


def _solve_linear(matrix: list, rhs: list) -> list:
    """Exact Gaussian elimination over RatFuncQT, first-nonzero pivoting."""
    m = len(rhs)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(m):
        piv = next((r for r in range(col, m) if not aug[r][col].is_zero()), None)
        if piv is None:
            raise ArithmeticError("singular system (cover monomials must be distinct)")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(m):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][m] for i in range(m)]


def pieri_d(nu: Partition) -> PieriTable:
    """Solve for the d coefficients of nu from the k = 0..m-1 power identities."""
    if not nu.parts:
        raise ValueError("nu must be nonempty")
    if _CACHING and nu in _PIERI_CACHE:
        return _PIERI_CACHE[nu]
    covers = nu.covers()
    ts = [LaurentPolyQT.monomial(1, cell[0], cell[1]) for _, cell in covers]
    m = len(covers)
    matrix = [[RatFuncQT.from_laurent(t ** k) for t in ts] for k in range(m)]
    rhs = [power_identity_rhs(nu, k) for k in range(m)]
    sol = _solve_linear(matrix, rhs)
    table = PieriTable(
        nu,
        {mu: d for (mu, _), d in zip(covers, sol)},
        {mu: t for (mu, _), t in zip(covers, ts)},
    )
    if _CACHING:
        _PIERI_CACHE[nu] = table
    return table


def pieri_power_sum(table: PieriTable, k: int) -> RatFuncQT:
    """Sum of d * T^k over the covers (the left side of the power identities)."""
    total = RatFuncQT.from_laurent(ZERO)
    for mu, d in table.entries.items():
        total = total + d * RatFuncQT.from_laurent(table.monomials[mu] ** k)
    return total


def pieri_power_sum_shifted(table: PieriTable, k: int) -> RatFuncQT:
    """Sum of d * (1 - T) * T^k over the covers."""
    total = RatFuncQT.from_laurent(ZERO)
    for mu, d in table.entries.items():
        t = table.monomials[mu]
        total = total + d * RatFuncQT.from_laurent((ONE - t) * t ** k)
    return total


def skew_pieri_c(mu: Partition) -> dict:
    """Skew coefficients c for removing a cell of mu, via c/w_mu = d/w_nu."""
    if _CACHING and mu in _SKEW_CACHE:
        return _SKEW_CACHE[mu]
    if mu.n < 2:
        raise ValueError("skew coefficients need at least two cells")
    w_mu_poly = partition_stats(mu).w
    out = {}
    for nu, _ in mu.cocovers():
        d = pieri_d(nu).entries[mu]
        out[nu] = d * RatFuncQT.from_factors(w_mu_poly, w_factors(nu))
    if _CACHING:
        _SKEW_CACHE[mu] = out
    return out


def virtual_F(alpha, mu: Partition) -> RatFuncQT:
    """The recursively defined q,t-deformation of the Hilbert series of mu.

    alpha must have length |mu| - 1; entry i exponentiates the cover monomial
    at depth i of the recursion.
    """
    alpha = tuple(alpha)
    n = mu.n
    if len(alpha) != n - 1:
        raise ValueError(f"alpha must have length {n - 1}, got {len(alpha)}")
    _check_cap(n)
    key = (alpha, mu)
    if _CACHING and key in _F_CACHE:
        return _F_CACHE[key]
    if n == 1:
        result = RatFuncQT.from_laurent(ONE)
    else:
        total = RatFuncQT.from_laurent(ZERO)
        for nu, c in skew_pieri_c(mu).items():
            power = RatFuncQT.from_laurent(cover_monomial(nu, mu) ** alpha[0])
            total = total + c * power * virtual_F(alpha[1:], nu)
        result = total
    if _CACHING:
        _F_CACHE[key] = result
    return result


def virtual_F_laurent(alpha, mu: Partition) -> LaurentPolyQT:
    return virtual_F(alpha, mu).to_laurent()


def _eigen_coeff(mu: Partition, target: str) -> RatFuncQT:
    st = partition_stats(mu)
    num = ONE * st.Pi
    for f in M_FACTORS:
        num = num * f
    if target == "e":
        num = num * st.B
    elif target != "p":
        raise ValueError("target must be 'p' or 'e'")
    return RatFuncQT.from_factors(num, w_factors(mu))


def hilb_tilde(alpha, target: str) -> RatFuncQT:
    """Virtual Hilbert series of e_n, or of p_n carrying its sign/[n]q[n]t scale.

    target 'e' weights F by M*B*Pi/w; target 'p' weights by M*Pi/w, which
    absorbs the (-1)^(n-1)/([n]_q [n]_t) prefactor of the p_n expansion.
    """
    alpha = tuple(alpha)
    n = len(alpha) + 1
    _check_cap(n)
    total = RatFuncQT.from_laurent(ZERO)
    for mu in partitions_of(n):
        total = total + _eigen_coeff(mu, target) * virtual_F(alpha, mu)
    return total


def tes_via_theorem(alpha) -> LaurentPolyQT:
    """The Tesler function computed through the eigenbasis route."""
    return hilb_tilde(alpha, "p").to_laurent()


def hilb_delta_prime(f: MonomialSymFn, target: str, n: int) -> LaurentPolyQT:
    """Hilbert series of the primed delta operator applied to e_n or p_n.

    The p_n variant carries the same scale as hilb_tilde(..., 'p').
    """
    _check_cap(n)
    total = RatFuncQT.from_laurent(ZERO)
    for mu in partitions_of(n):
        bracket = f.eval_bracket(b_minus_one(mu))
        if bracket.is_zero():
            continue
        total = total + _eigen_coeff(mu, target) * bracket * virtual_F((0,) * (n - 1), mu)
    return total.to_laurent()


def hilb_delta(f: MonomialSymFn, n: int, route: str = "eigen") -> LaurentPolyQT:
    """Hilbert series of the delta operator applied to e_n, two routes.

    Route 'eigen' sums f[B] against the zero-hook virtual series; route
    'tesler' expands f at (x_1, ..., x_{n-1}, 1) and replaces each monomial
    x^alpha by tes((1, alpha)).  The two must agree.
    """
    _check_cap(n)
    if route == "eigen":
        total = RatFuncQT.from_laurent(ZERO)
        for mu in partitions_of(n):
            bracket = f.eval_bracket(b_alphabet(mu))
            if bracket.is_zero():
                continue
            total = total + _eigen_coeff(mu, "e") * bracket * virtual_F((0,) * (n - 1), mu)
        return total.to_laurent()
    if route == "tesler":
        total = ZERO
        for exponents, coeff in f.expand_last_one(n).items():
            total = total + coeff * tes((1,) + exponents)
        return total
    raise ValueError("route must be 'eigen' or 'tesler'")


def nabla_hilb(k: int, n: int) -> LaurentPolyQT:
    """Hilbert series of the k-th nabla power applied to e_n."""
    return hilb_tilde((k,) * (n - 1), "e").to_laurent()


def closed_forms(which: str, n: int) -> LaurentPolyQT:
    """Direct binomial/product formulas used as a third verification route."""
    if which == "e1":
        total = ZERO
        for k in range(1, n + 1):
            total = total + math.comb(n, k) * qt_int(k)
        return total
    if which == "e2_pn":
        total = ZERO
        for k in range(1, n):
            total = total + math.comb(n - 1, k) * qt_int(k)
        return total
    if which == "m_minus1":
        return (ONE - (LaurentPolyQT.monomial(1, 1, 1)) ** -1) ** (n - 1)
    raise ValueError(f"unknown closed form {which!r}")
