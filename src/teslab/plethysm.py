"""Plethystic evaluation at signed monomial alphabets.

An alphabet S is a Laurent polynomial: a Z-linear combination of monic
q,t-monomials, each coefficient the multiplicity of its letter.  f[S]
evaluates a symmetric function at the letters of S with all remaining
variables set to zero.  Elementary brackets e_k[S] are the coefficients of
the generating product E[S](z) = prod (1 + x z)^c over the terms c*x of S,
computed in integer arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .qt_algebra import ONE, ZERO, LaurentPolyQT
from .young import Partition


def p_plethysm(r: int, alphabet: LaurentPolyQT) -> LaurentPolyQT:
    """Power-sum bracket p_r[S]: raise each letter to the r-th power, keep signs."""
    if r < 1:
        raise ValueError("power-sum index must be >= 1")
    return LaurentPolyQT({(e0 * r, e1 * r): c for (e0, e1), c in alphabet.terms.items()})


def e_plethysm(k: int, alphabet: LaurentPolyQT) -> LaurentPolyQT:
    """Elementary bracket e_k[S], the z^k coefficient of prod (1 + x z)^c over S.

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
    return es[k]


def h_single(k: int, mono) -> LaurentPolyQT:
    """h_k of a one-letter alphabet: just the k-th power of the letter."""
    return LaurentPolyQT.monomial(1, mono[0] * k, mono[1] * k)


def distinct_arrangements(rho, slots: int):
    """Distinct length-`slots` vectors whose nonzero entries rearrange to rho."""
    if len(rho) > slots:
        return []
    padded = tuple(rho) + (0,) * (slots - len(rho))
    return sorted(set(permutations(padded)))


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

    def __repr__(self):
        body = " + ".join(f"({c})*m[{','.join(map(str, r))}]" for r, c in sorted(self.coeffs.items()))
        return f"MonomialSymFn<{body or '0'}>"

    def degree(self) -> int:
        return max((sum(r) for r in self.coeffs), default=0)

    def eval_bracket(self, alphabet: LaurentPolyQT) -> LaurentPolyQT:
        """f[S] for a plain alphabet S, by linearity over the monomial basis."""
        out = ZERO
        for rho, c in self.coeffs.items():
            out = out + c * m_eval(rho, alphabet)
        return out

    def expand_last_one(self, n: int) -> dict:
        """Expansion of f(x_1, ..., x_{n-1}, 1) as {exponent vector: coefficient}.

        Keys are length n-1 integer vectors; the n-th variable is set to 1.
        """
        out: dict = {}
        for rho, c in self.coeffs.items():
            for vec in distinct_arrangements(rho, n):
                key = vec[: n - 1]
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
        return {k: v for k, v in out.items() if not v.is_zero()}


@lru_cache(maxsize=None)
def schur_to_monomial(lam: Partition) -> MonomialSymFn:
    """Schur function in the monomial basis, Kostka numbers by direct
    semistandard-filling count; capped at degree 8."""
    if not lam.parts:
        return MonomialSymFn({(): 1})
    n = lam.n
    if n > 8:
        raise ValueError("schur expansion capped at degree 8")
    from .young import partitions_of

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
