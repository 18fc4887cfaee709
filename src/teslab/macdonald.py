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
from functools import lru_cache, partial

from .plethysm import MonomialSymFn, arrangement_count, distinct_arrangements, e_plethysm
from .qt_algebra import M, ONE, ZERO, LaurentPolyQT, RatFuncQT, qt_int
from .tesler import tes_sums
from .young import (Partition, partition_count, partition_stats, partitions_of, pi_factors,
                    w_cell_factors, w_factors)

M_FACTORS = (
    LaurentPolyQT({(0, 0): 1, (1, 0): -1}),  # 1 - q
    LaurentPolyQT({(0, 0): 1, (0, 1): -1}),  # 1 - t
)

# The largest n the sums over the partitions of n may reach, checked at the
# hilb_* entry points and on every virtual_F miss.  It is the largest n whose
# slowest entry point finishes within a minute on one core of a 2-core host,
# the rule of verify.N_MAX_BUDGETS.  Cold, in a fresh process, three runs
# each: tes_via_theorem on a seeded length n - 1 vector in [-2, 2] takes
# 30-38 s at n = 13 and 94-102 s at n = 14; hilb_delta_prime(e:2, "e", n)
# 17-21 s and 39-40 s.
PARTITION_SIZE_BUDGET = 13


def _check_cap(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n > PARTITION_SIZE_BUDGET:
        raise ValueError(f"n={n} is over the partition-size budget of {PARTITION_SIZE_BUDGET}")


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
def pieri_d(nu: Partition) -> tuple:
    """The d coefficients of nu by their closed product formula, as one
    (mu, T_mu / T_nu, d_{mu nu}) triple per cover, in nu.covers() order.

    T_mu / T_nu is the monomial of the added cell.  d_{mu nu} is 1/M times
    the product, over the cells of nu in the row and the column of the added
    cell, of the row factor q^a - t^(l+1) or the column factor t^l - q^(a+1)
    of nu over that of mu (Garsia-Haiman, J. Algebraic Combin. 5 (1996);
    Macdonald, Symmetric Functions and Hall Polynomials, VI (6.24)).
    """
    if not nu.parts:
        raise ValueError("nu must be nonempty")
    return tuple((mu, LaurentPolyQT.monomial(1, *cell),
                  _line_product(nu, mu, cell, False, M_FACTORS)) for mu, cell in nu.covers())


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


@lru_cache(maxsize=None)
def skew_pieri_c(mu: Partition) -> tuple:
    """Skew coefficients c for removing a cell of mu, by their product formula,
    as one (nu, T_mu / T_nu, c_{mu nu}) triple per corner, in mu.cocovers() order.

    c_{mu nu} is the product of the other w factor of the same cells, of mu
    over nu; it equals d_{mu nu} w_mu / w_nu (Garsia-Haiman 1996).
    """
    if mu.n < 2:
        raise ValueError("skew coefficients need at least two cells")
    return tuple((nu, LaurentPolyQT.monomial(1, *cell), _line_product(nu, mu, cell, True))
                 for nu, cell in mu.cocovers())


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
    for nu, t, c in skew_pieri_c(mu):
        total = total + c * RatFuncQT.from_laurent(t ** alpha[0]) * virtual_F(alpha[1:], nu)
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


# The cost rule of cheaper_route and TESLER_ROUTE_BUDGET, in estimated cold
# seconds on one core of a 2-core host: least-squares fits to the logs of
# 176 Tesler-route and 188 eigen-route times of hilb_delta_prime and
# hilb_delta at n = 5-10 (the fit tables are in CHANGES.md).  With a the
# arrangements of a monomial rho of f in n - 1 slots, s = |rho| + 1 the mass
# of its hook vectors (|rho| for the p-target), m the largest |part| of rho
# and d the largest |rho| of f, the Tesler route costs the sum over rho of
#     e^-9.29 * a^-0.0488 * e^(s * (0.157 n - 0.355) + 0.240 m)
# (tes_sums walks every arrangement at one packing, so a state they share is
# packed once, and a enters to a power near 0) and the eigen route
#     e^-10.5 * p(n)^2.70 * e^(0.0876 d),
# p(n) the number of partitions of n.  Both are counts: no tes walk runs.


def _tesler_cost(f: MonomialSymFn, target: str, n: int) -> float:
    head = target == "e"
    total = 0.0
    for rho in f.coeffs:
        count = arrangement_count(rho, n - 1)
        if count:
            sizes = [abs(v) for v in rho]
            mass = head + sum(sizes)
            total += count ** -0.0488 * math.exp(
                mass * (0.157 * n - 0.355) + 0.240 * max(sizes, default=0) - 9.29)
    return total


def _eigen_cost(f: MonomialSymFn, n: int) -> float:
    degree = max((sum(map(abs, rho)) for rho in f.coeffs), default=0)
    return partition_count(n) ** 2.70 * math.exp(0.0876 * degree - 10.5)


def cheaper_route(f: MonomialSymFn, target: str, n: int) -> str:
    """The route of hilb_delta_prime(f, target, n) with the lower estimated
    cost, "tesler" or "eigen", by the cost rule above; the routes agree, so
    the choice changes only the time."""
    _check_cap(n)
    return "tesler" if _tesler_cost(f, target, n) <= _eigen_cost(f, n) else "eigen"


# The most estimated seconds the Tesler route of hilb_delta_prime may cost,
# checked before its first tes: the one-minute rule of PARTITION_SIZE_BUDGET
# on the cost rule's scale.  Cold, one run each, estimated against taken:
# m:4,4,4 at n = 8 25 s and 27 s, m:6,6 at n = 8 41 s and 54 s, m:10 at
# n = 9 104 s and 61 s, m:12 at n = 8 183 s and 78 s; s:3,3,2 at n = 9
# 18 s and 13 s, s:4,4 at n = 9 30 s and 15 s, s:2,2,2,2 at n = 10 31 s
# and 20 s.  The rule adds up f's monomials, whose walks share states, so
# it runs up to 2 times high on Schur functions: s:3,3,2 at n = 10 (69 s
# against 34 s) is refused too, where the eigen route takes 2 s.
TESLER_ROUTE_BUDGET = 60.0


def hilb_delta_prime(f: MonomialSymFn, target: str, n: int,
                     route: str = "eigen") -> LaurentPolyQT:
    """Hilbert series of the primed delta operator applied to e_n or p_n, two routes.

    The p_n variant carries the same scale as hilb_tilde(..., 'p').  Route
    'eigen' sums f[B - 1] against the zero-hook virtual series; route
    'tesler' expands f in n-1 variables and replaces each monomial x^alpha
    by tes((1, alpha)) for e_n and by tes(alpha) for p_n: one tes_sums call
    with one group per monomial of f, each group's sum times the
    monomial's coefficient.  The two must agree.  cheaper_route picks the
    faster one for f.  Route 'tesler' raises ValueError, before any tes
    runs, when its estimated cost is over TESLER_ROUTE_BUDGET.
    """
    if target not in ("e", "p"):
        raise ValueError("target must be 'p' or 'e'")
    if route not in ("eigen", "tesler"):
        raise ValueError("route must be 'eigen' or 'tesler'")
    _check_cap(n)
    if route == "eigen":
        return _eigen_sum(f, target, n)
    cost = _tesler_cost(f, target, n)
    if cost > TESLER_ROUTE_BUDGET:
        raise ValueError(f"the Tesler route at n={n} has an estimated cost of {cost:,.0f} s, "
                         f"over its budget of {TESLER_ROUTE_BUDGET:,.0f} s")
    head = (1,) if target == "e" else ()
    sums = tes_sums([[head + alpha for alpha in distinct_arrangements(rho, n - 1)]
                     for rho in f.coeffs])
    total = ZERO
    for coeff, value in zip(f.coeffs.values(), sums):
        total = total + coeff * value
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
        return closed_forms("e1", n - 1)
    if which == "m_minus1":
        return (ONE - (LaurentPolyQT.monomial(1, 1, 1)) ** -1) ** (n - 1)
    raise ValueError(f"unknown closed form {which!r}")
