"""Plethystic evaluation at signed monomial alphabets.

An alphabet S is a Laurent polynomial: a Z-linear combination of monic
q,t-monomials, each coefficient the multiplicity of its letter.  f[S]
evaluates a symmetric function at the letters of S with all remaining
variables set to zero.  Elementary brackets e_k[S] are the coefficients of
the generating product E[S](z) = prod (1 + x z)^c over the terms c*x of S,
computed in integer arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .qt_algebra import ONE, ZERO, LaurentPolyQT
from .young import Partition, partitions_of


def e_plethysms(k: int, alphabet: LaurentPolyQT) -> list:
    """The elementary brackets e_0[S], ..., e_k[S]: the z^0..z^k coefficients
    of prod (1 + x z)^c over the terms c*x of S.

    The truncated series es[0..k] is multiplied by 1 + x z once per unit of a
    positive multiplicity c and divided by it once per unit of a negative one;
    both are integer updates, so no rational ever appears.
    """
    if k < 0:
        raise ValueError("elementary index must be >= 0")
    es = [ONE] + [ZERO] * k
    for (eq, et), c in alphabet.terms.items():
        for _ in range(abs(c)):
            if c > 0:
                for j in range(k, 0, -1):
                    es[j] = es[j] + es[j - 1].shift(eq, et)
            else:
                for j in range(1, k + 1):
                    es[j] = es[j] - es[j - 1].shift(eq, et)
    return es


def e_plethysm(k: int, alphabet: LaurentPolyQT) -> LaurentPolyQT:
    """Elementary bracket e_k[S], the last entry of e_plethysms(k, S)."""
    return e_plethysms(k, alphabet)[-1]


def distinct_arrangements(rho, slots: int) -> list:
    """Distinct length-`slots` vectors whose nonzero entries rearrange to rho,
    in increasing lexicographic order; [] when rho has more than `slots` parts.

    Next permutation over the sorted multiset (Knuth, TAOCP 7.2.1.2,
    Algorithm L) steps from each arrangement to the next larger one, so the
    walk visits the multinomial slots! / prod(m_i!) arrangements, not the
    slots! permutations: at slots = 9 and rho = (1, 1), 36 of 362,880.
    """
    if len(rho) > slots:
        return []
    vec = sorted(tuple(rho) + (0,) * (slots - len(rho)))
    out = [tuple(vec)]
    while True:
        # the rightmost ascent vec[j] < vec[j + 1]; none means vec is the largest
        j = slots - 2
        while j >= 0 and vec[j] >= vec[j + 1]:
            j -= 1
        if j < 0:
            return out
        # swap vec[j] with the rightmost larger entry, then reverse the tail
        i = slots - 1
        while vec[i] <= vec[j]:
            i -= 1
        vec[j], vec[i] = vec[i], vec[j]
        vec[j + 1:] = vec[:j:-1]
        out.append(tuple(vec))


def arrangement_count(rho, slots: int) -> int:
    """len(distinct_arrangements(rho, slots)) without listing them: the
    multinomial slots! / ((slots - len(rho))! prod m_v!) over the
    multiplicities m_v of the distinct parts v of rho, which is sorted, as a
    Laurent partition is.  Each m_v! is divided out one factor per part of
    v's run, and every quotient on the way is itself a multinomial, so each
    division is exact."""
    if len(rho) > slots:
        return 0
    count, run = math.factorial(slots) // math.factorial(slots - len(rho)), 1
    for a, b in zip(rho, rho[1:]):
        run = run + 1 if a == b else 1
        count //= run
    return count


def m_eval(rho, alphabet: LaurentPolyQT) -> LaurentPolyQT:
    """Monomial symmetric Laurent polynomial m_rho evaluated at a plain alphabet.

    A plain alphabet has only positive multiplicities.  Sums every distinct
    exponent vector obtained by permuting rho padded with zeros to the
    alphabet size; zero when rho has more parts than letters.
    """
    rho = laurent_partition(rho)
    terms = alphabet.terms
    if any(c < 0 for c in terms.values()):
        raise ValueError("monomial evaluation needs a plain alphabet")
    letters = [mono for mono in sorted(terms) for _ in range(terms[mono])]
    out: dict = {}
    for vec in distinct_arrangements(rho, len(letters)):
        e0 = sum(v * m[0] for v, m in zip(vec, letters))
        e1 = sum(v * m[1] for v, m in zip(vec, letters))
        out[(e0, e1)] = out.get((e0, e1), 0) + 1
    return LaurentPolyQT(out)


def laurent_partition(parts) -> tuple:
    """Validate a weakly decreasing vector of nonzero integers."""
    parts = tuple(int(p) for p in parts)
    if any(p == 0 for p in parts):
        raise ValueError("Laurent partition parts must be nonzero")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("Laurent partition parts must be weakly decreasing")
    return parts


class MonomialSymFn:
    """Symmetric Laurent polynomial in the monomial basis.

    coeffs maps Laurent partitions to LaurentPolyQT coefficients; the empty
    partition is the constant term.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        for rho, c in (coeffs or {}).items():
            if isinstance(c, int):
                c = LaurentPolyQT.const(c)
            if not c.is_zero():
                data[laurent_partition(rho)] = c
        self.coeffs = data

    @classmethod
    def parse(cls, text: str) -> "MonomialSymFn":
        """Parse "e:2", "m:3,-1" or "s:3,2,1" (power-sum inputs are not accepted)."""
        text = text.strip()
        if ":" not in text:
            raise ValueError(f"cannot parse symmetric function {text!r}")
        kind, _, body = text.partition(":")
        kind = kind.strip()
        parts = tuple(int(p) for p in body.split(",") if p.strip()) if body.strip() else ()
        if kind == "e":
            if len(parts) != 1 or parts[0] < 0:
                raise ValueError("e takes a single nonnegative index")
            return cls({(1,) * parts[0]: 1})
        if kind == "m":
            return cls({parts: 1})
        if kind == "s":
            return schur_to_monomial(Partition(parts))
        raise ValueError(f"unsupported basis {kind!r} (p-like inputs are not accepted)")

    def __eq__(self, other):
        return isinstance(other, MonomialSymFn) and self.coeffs == other.coeffs

    def swap_qt(self) -> "MonomialSymFn":
        """f^sigma: q and t exchanged in every coefficient, the basis untouched."""
        return MonomialSymFn({rho: c.swap_qt() for rho, c in self.coeffs.items()})

    def eval_bracket(self, alphabet: LaurentPolyQT) -> LaurentPolyQT:
        """f[S] for a plain alphabet S, by linearity over the monomial basis."""
        out = ZERO
        for rho, c in self.coeffs.items():
            out = out + c * m_eval(rho, alphabet)
        return out

    def at_last_one(self, n: int) -> "MonomialSymFn":
        """g = f(x_1, ..., x_{n-1}, 1) in the monomial basis: m_rho(x, 1) sums
        m_(rho minus one v) over the distinct values v of the last variable,
        the parts of rho and 0 when rho has fewer than n parts."""
        out: dict = {}
        for rho, c in self.coeffs.items():
            if len(rho) > n:
                continue
            for v in set(rho) | ({0} if len(rho) < n else set()):
                i = rho.index(v) if v else len(rho)
                rest = rho[:i] + rho[i + 1:]
                out[rest] = out[rest] + c if rest in out else c
        return MonomialSymFn(out)


# The largest degree schur_to_monomial expands: it counts one filling per
# semistandard tableau, for every partition of the degree as content.  Cold,
# on one core of a 2-core host, expanding every shape of a degree takes
# 0.06 s at degree 8, 0.22 s at 9 and 0.95-1.24 s at 10 (three runs each),
# the slowest single shape 4, 12 and 38-56 ms.
SCHUR_DEGREE_BUDGET = 8


@lru_cache(maxsize=None)
def schur_to_monomial(lam: Partition) -> MonomialSymFn:
    """Schur function in the monomial basis, Kostka numbers by direct
    semistandard-filling count; refuses a degree over SCHUR_DEGREE_BUDGET."""
    if not lam.parts:
        return MonomialSymFn({(): 1})
    n = lam.n
    if n > SCHUR_DEGREE_BUDGET:
        raise ValueError(f"schur expansion capped at degree {SCHUR_DEGREE_BUDGET}, "
                         f"got s:{','.join(map(str, lam.parts))} of degree {n}")
    coeffs = {}
    for mu in partitions_of(n):
        k = _kostka(lam.parts, mu.parts)
        if k:
            coeffs[mu.parts] = k
    return MonomialSymFn(coeffs)


def _kostka(shape: tuple, content: tuple) -> int:
    """Count semistandard tableaux of the given shape and content."""
    rows = len(shape)
    cells = [(y, x) for y in range(rows) for x in range(shape[y])]

    def fill(idx: int, tableau: dict, remaining: list) -> int:
        if idx == len(cells):
            return 1
        y, x = cells[idx]
        lo = tableau.get((y, x - 1), 1)                  # rows weakly increase
        above = tableau.get((y - 1, x), 0) + 1           # columns strictly increase
        total = 0
        for v in range(max(lo, above), len(remaining) + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            tableau[(y, x)] = v
            total += fill(idx + 1, tableau, remaining)
            remaining[v - 1] += 1
        tableau.pop((y, x), None)
        return total

    return fill(0, {}, list(content))
