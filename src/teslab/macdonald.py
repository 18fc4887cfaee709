"""Pieri coefficients, virtual Hilbert series, and delta-operator Hilbert series.

The Pieri coefficients d and the skew coefficients c of the modified
Macdonald basis are closed products of the arm/leg binomials of the cells in
the row and the column of the added cell (Garsia-Haiman, J. Algebraic
Combin. 5 (1996); Macdonald, Symmetric Functions and Hall Polynomials,
VI (6.24)), so every denominator factor is a binomial.  The virtual Hilbert
series F^alpha_mu is the cover recursion with the first hook entry
exponentiating the cover monomial.  Every final answer is converted back to
a Laurent polynomial, which doubles as a structural self-check.

Conjugation exchanges q and t: H~_mu'(X; q, t) = H~_mu(X; t, q) (Macdonald,
VI; Garsia-Haiman 1996), and with it c, the cover monomials, B, Pi and w.
So F^alpha_mu' is F^alpha_mu with q and t swapped, and every sum over the
partitions of n computes one partition of each conjugate pair
(_conjugate_sum).

Delta_f has no sum of its own: B_mu - 1 has n - 1 letters, so
f[B_mu] = g[B_mu - 1] for g = f(x_1, ..., x_{n-1}, 1), and hilb_delta is
hilb_delta_prime of g on either route.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache, partial

from .plethysm import MonomialSymFn, distinct_arrangements, e_plethysm
from .qt_algebra import M, ONE, ZERO, LaurentPolyQT, RatFuncQT, qt_int
from .tesler import tes
from .young import (Partition, cover_monomial, partition_stats, partitions_of,
                    pi_factors, w_cell_factors, w_factors)

M_FACTORS = (
    LaurentPolyQT({(0, 0): 1, (1, 0): -1}),  # 1 - q
    LaurentPolyQT({(0, 0): 1, (0, 1): -1}),  # 1 - t
)

DEFAULT_N_CAP = 8


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
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    cap = n_cap()
    if n > cap:
        raise ValueError(f"n={n} exceeds the configured cap {cap} (set TESLAB_NMAX)")


@dataclass(frozen=True)
class PieriTable:
    """Expansion coefficients d of (e_1/M) applied to the basis element of nu."""

    nu: Partition
    entries: dict      # cover partition -> RatFuncQT
    monomials: dict    # cover partition -> LaurentPolyQT (the added-cell monomial)


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


def _line_product(nu: Partition, mu: Partition, cell, other: bool, extra=()) -> RatFuncQT:
    """The d (other=False) or c (other=True) product of pieri_d / skew_pieri_c.

    Factors equal on both sides cancel before anything is expanded: the
    product telescopes along runs of equal legs or arms.  extra joins the
    denominator.
    """
    x0, y0 = cell
    lines = [((x, y0), 0) for x in range(x0)] + [((x0, y), 1) for y in range(y0)]
    num, den = [], list(extra)
    for c, k in lines:
        small = w_cell_factors(nu.cell_stats(c))
        big = w_cell_factors(mu.cell_stats(c))
        top, bottom, i = (big, small, 1 - k) if other else (small, big, k)
        num.append(top[i])
        den.append(bottom[i])
    return RatFuncQT.from_binomials(num, den)


@lru_cache(maxsize=None)
def pieri_d(nu: Partition) -> PieriTable:
    """The d coefficients of nu by their closed product formula.

    d_{mu nu} is 1/M times the product, over the cells of nu in the row and
    the column of the added cell, of the row factor q^a - t^(l+1) or the
    column factor t^l - q^(a+1) of nu over that of mu (Garsia-Haiman,
    J. Algebraic Combin. 5 (1996); Macdonald, Symmetric Functions and Hall
    Polynomials, VI (6.24)).
    """
    if not nu.parts:
        raise ValueError("nu must be nonempty")
    covers = nu.covers()
    return PieriTable(
        nu,
        {mu: _line_product(nu, mu, cell, False, M_FACTORS) for mu, cell in covers},
        {mu: LaurentPolyQT.monomial(1, cell[0], cell[1]) for mu, cell in covers},
    )


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


@lru_cache(maxsize=None)
def skew_pieri_c(mu: Partition) -> dict:
    """Skew coefficients c for removing a cell of mu, by their product formula.

    c_{mu nu} is the product of the other w factor of the same cells, of mu
    over nu; it equals d_{mu nu} w_mu / w_nu (Garsia-Haiman 1996).
    """
    if mu.n < 2:
        raise ValueError("skew coefficients need at least two cells")
    return {nu: _line_product(nu, mu, cell, True) for nu, cell in mu.cocovers()}


@lru_cache(maxsize=None)
def virtual_F(alpha: tuple, mu: Partition) -> RatFuncQT:
    """The recursively defined q,t-deformation of the Hilbert series of mu.

    alpha is a tuple of length |mu| - 1; entry i exponentiates the cover
    monomial at depth i of the recursion.  Conjugation swaps q and t in
    every c and cover monomial of the recursion, so F^alpha_mu' is
    F^alpha_mu with q and t swapped; when mu is lexicographically smaller
    than mu', F^alpha_mu is the swap of F^alpha_mu', and the recursion runs
    for one partition of each conjugate pair.
    """
    n = mu.n
    if len(alpha) != n - 1:
        raise ValueError(f"alpha must have length {n - 1}, got {len(alpha)}")
    _check_cap(n)
    if n == 1:
        return RatFuncQT.from_laurent(ONE)
    conj = mu.conjugate()
    if mu.parts < conj.parts:
        return virtual_F(alpha, conj).swap_qt()
    total = RatFuncQT.from_laurent(ZERO)
    for nu, c in skew_pieri_c(mu).items():
        power = RatFuncQT.from_laurent(cover_monomial(nu, mu) ** alpha[0])
        total = total + c * power * virtual_F(alpha[1:], nu)
    return total


def _eigen_coeff(mu: Partition, target: str) -> RatFuncQT:
    """M * Pi_mu / w_mu, times B_mu for target 'e'.  Pi_mu's factors
    1 - q^a' t^l' stay binomials, so they cancel against w_mu's unexpanded."""
    if target not in ("p", "e"):
        raise ValueError("target must be 'p' or 'e'")
    scale = partition_stats(mu).B if target == "e" else ONE
    return RatFuncQT.from_binomials(pi_factors(mu) + list(M_FACTORS), w_factors(mu), scale)


@lru_cache(maxsize=None)
def _zero_hook_term(mu: Partition, target: str) -> RatFuncQT:
    """_eigen_coeff(mu, target) * F^(0,...,0)_mu: the part of an _eigen_sum term free of f."""
    return _eigen_coeff(mu, target) * virtual_F((0,) * (mu.n - 1), mu)


def _conjugate_sum(n: int, term, term_sigma=None) -> RatFuncQT:
    """The sum of term(mu) over the partitions mu of n, from half of them.

    term_sigma (term when None) must satisfy term(mu') = swap(term_sigma(mu)),
    swap exchanging q and t.  With P the sum of term and P' that of
    term_sigma over the partitions mu > mu' (lexicographically), the sum is
    P + swap(P') + the terms of the self-conjugate mu.
    """
    half = other = fixed = RatFuncQT.from_laurent(ZERO)
    for mu in partitions_of(n):
        conj = mu.conjugate()
        if mu.parts == conj.parts:
            fixed = fixed + term(mu)
        elif mu.parts > conj.parts:
            half = half + term(mu)
            if term_sigma is not None:
                other = other + term_sigma(mu)
    return half + (half if term_sigma is None else other).swap_qt() + fixed


def hilb_tilde(alpha, target: str) -> RatFuncQT:
    """Virtual Hilbert series of e_n, or of p_n carrying its sign/[n]q[n]t scale.

    target 'e' weights F by M*B*Pi/w; target 'p' weights by M*Pi/w, which
    absorbs the (-1)^(n-1)/([n]_q [n]_t) prefactor of the p_n expansion.
    Conjugating mu swaps q and t in the weight and in F, so the sum over mu
    runs on one partition of each conjugate pair.
    """
    alpha = tuple(alpha)
    n = len(alpha) + 1
    _check_cap(n)
    return _conjugate_sum(n, lambda mu: _eigen_coeff(mu, target) * virtual_F(alpha, mu))


def tes_via_theorem(alpha) -> LaurentPolyQT:
    """The Tesler function computed through the eigenbasis route."""
    return hilb_tilde(alpha, "p").to_laurent()


def _eigen_sum(f: MonomialSymFn, target: str, n: int) -> LaurentPolyQT:
    """Sum of f[B_mu - 1] against the weighted zero-hook virtual series.

    B_mu' is B_mu with q and t swapped, but f's coefficients are Laurent
    polynomials in q and t themselves, so f[B_mu' - 1] is the swap of
    f^sigma[B_mu - 1], where f^sigma swaps q and t in f's coefficients.  The
    conjugate half of the sum therefore takes f^sigma's brackets; when
    f^sigma == f (every f with integer coefficients) it is the first half.
    """
    def term(g, mu):
        bracket = g.eval_bracket(partition_stats(mu).B - ONE)
        if bracket.is_zero():
            return RatFuncQT.from_laurent(ZERO)
        return _zero_hook_term(mu, target) * bracket

    f_sigma = f.swap_qt()
    term_sigma = None if f_sigma == f else partial(term, f_sigma)
    return _conjugate_sum(n, partial(term, f), term_sigma).to_laurent()


def hilb_delta_prime(f: MonomialSymFn, target: str, n: int,
                     route: str = "eigen") -> LaurentPolyQT:
    """Hilbert series of the primed delta operator applied to e_n or p_n, two routes.

    The p_n variant carries the same scale as hilb_tilde(..., 'p').  Route
    'eigen' sums f[B - 1] against the zero-hook virtual series; route
    'tesler' expands f in n-1 variables and replaces each monomial x^alpha
    by tes((1, alpha)) for e_n and by tes(alpha) for p_n.  The two must agree.
    """
    if target not in ("e", "p"):
        raise ValueError("target must be 'p' or 'e'")
    if route not in ("eigen", "tesler"):
        raise ValueError("route must be 'eigen' or 'tesler'")
    _check_cap(n)
    if route == "eigen":
        return _eigen_sum(f, target, n)
    head = (1,) if target == "e" else ()
    total = ZERO
    for rho, coeff in f.coeffs.items():
        for alpha in distinct_arrangements(rho, n - 1):
            total = total + coeff * tes(head + alpha)
    return total


def hilb_delta(f: MonomialSymFn, n: int, route: str = "eigen") -> LaurentPolyQT:
    """Hilbert series of the delta operator applied to e_n, two routes.

    Delta_f e_n = Delta'_g e_n for g = f(x_1, ..., x_{n-1}, 1): the alphabet
    B_mu has the letter 1 and n - 1 others, so f[B_mu] = g[B_mu - 1] for
    every partition mu of n.  Both routes are hilb_delta_prime's for g.
    """
    _check_cap(n)
    return hilb_delta_prime(f.at_last_one(n), "e", n, route)


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
