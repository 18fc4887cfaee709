"""Exact sparse arithmetic in Z[q,t,1/q,1/t] and its fraction field.

A Laurent polynomial is a dict from exponent pairs (eq, et) to nonzero
arbitrary-precision integer coefficients, so every computation is exact.
Rational functions keep their denominator as a positive integer times a
multiset of canonical primitive factors; cancellation only ever uses exact
division (checked term by term), which keeps intermediate results small
without computing polynomial gcds.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush

Mono = tuple[int, int]


def _grlex(mono: Mono):
    # graded lex with q before t; used for division and display order
    return (mono[0] + mono[1], mono[0])


class LaurentPolyQT:
    """Sparse Laurent polynomial in q and t with integer coefficients.

    Instances are immutable by convention: all operations return new objects
    and nothing mutates ``terms`` after construction, so values are safe to
    share across threads and memo tables.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mono, coeff in items:
                if not coeff:
                    continue
                key = (mono[0], mono[1])
                c = data.get(key)
                if c is None:
                    data[key] = coeff
                elif c + coeff:
                    data[key] = c + coeff
                else:
                    del data[key]
        self.terms = data

    @classmethod
    def _raw(cls, data: dict) -> "LaurentPolyQT":
        # internal fast path: data must already be canonical (no zeros)
        out = object.__new__(cls)
        out.terms = data
        return out

    @classmethod
    def const(cls, c: int) -> "LaurentPolyQT":
        return cls._raw({(0, 0): c} if c else {})

    @classmethod
    def monomial(cls, coeff: int, eq: int, et: int) -> "LaurentPolyQT":
        return cls._raw({(eq, et): coeff} if coeff else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == ({(0, 0): other} if other else {})
        if isinstance(other, LaurentPolyQT):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "LaurentPolyQT":
        return LaurentPolyQT._raw({m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "LaurentPolyQT":
        if isinstance(other, int):
            other = LaurentPolyQT.const(other)
        if not isinstance(other, LaurentPolyQT):
            return NotImplemented
        data = dict(self.terms)
        for m, c in other.terms.items():
            n = data.get(m)
            if n is None:
                data[m] = c
            elif n + c:
                data[m] = n + c
            else:
                del data[m]
        return LaurentPolyQT._raw(data)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPolyQT":
        if isinstance(other, int):
            other = LaurentPolyQT.const(other)
        if not isinstance(other, LaurentPolyQT):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPolyQT":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPolyQT":
        if isinstance(other, int):
            if not other:
                return ZERO
            return LaurentPolyQT._raw({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, LaurentPolyQT):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        data: dict = {}
        for (e0, e1), c in a.items():
            for (f0, f1), d in b.items():
                key = (e0 + f0, e1 + f1)
                n = data.get(key)
                if n is None:
                    data[key] = c * d
                elif n + c * d:
                    data[key] = n + c * d
                else:
                    del data[key]
        return LaurentPolyQT._raw(data)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPolyQT":
        if k < 0:
            if len(self.terms) != 1:
                raise ValueError("non-invertible element")
            (mono, coeff), = self.terms.items()
            if coeff not in (1, -1):
                raise ValueError("non-invertible element")
            base = LaurentPolyQT._raw({(-mono[0], -mono[1]): coeff})
            return base ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def bar(self) -> "LaurentPolyQT":
        """Substitute q -> 1/q and t -> 1/t (an involution)."""
        return LaurentPolyQT._raw({(-e0, -e1): c for (e0, e1), c in self.terms.items()})

    def swap_qt(self) -> "LaurentPolyQT":
        """Exchange q and t."""
        return LaurentPolyQT._raw({(e1, e0): c for (e0, e1), c in self.terms.items()})

    def specialize(self, q=None, t=None):
        """Exact substitution.

        Binding one variable to 0 or +-1 returns a LaurentPolyQT; binding both
        (any rationals) returns a Fraction.  Substituting 0 into a negative
        exponent raises.
        """
        if q is not None and t is not None:
            total = Fraction(0)
            qv, tv = Fraction(q), Fraction(t)
            for (e0, e1), c in self.terms.items():
                if (qv == 0 and e0 < 0) or (tv == 0 and e1 < 0):
                    raise ValueError("pole at specialization")
                if (qv == 0 and e0 > 0) or (tv == 0 and e1 > 0):
                    continue
                total += c * qv ** e0 * tv ** e1
            return total
        if (q is None) == (t is None):
            raise ValueError("specialize needs at least one binding")
        var, value = (0, q) if q is not None else (1, t)
        if value not in (0, 1, -1):
            raise ValueError("partial specialization supports only 0 and +-1")
        data: dict = {}
        for mono, c in self.terms.items():
            e = mono[var]
            if value == 0:
                if e < 0:
                    raise ValueError("pole at specialization")
                if e > 0:
                    continue
            elif value == -1 and e % 2:
                c = -c
            key = (0, mono[1]) if var == 0 else (mono[0], 0)
            n = data.get(key)
            if n is None:
                data[key] = c
            elif n + c:
                data[key] = n + c
            else:
                del data[key]
        return LaurentPolyQT._raw(data)

    def min_exponents(self) -> Mono:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return (min(e for e, _ in self.terms), min(e for _, e in self.terms))

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*(abs(c) for c in self.terms.values())) if self.terms else 0

    def shift(self, eq: int, et: int) -> "LaurentPolyQT":
        if not (eq or et):
            return self
        return LaurentPolyQT._raw({(e0 + eq, e1 + et): c for (e0, e1), c in self.terms.items()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        # ascending total degree, q-heavy terms first within a degree
        for mono in sorted(self.terms, key=lambda m: (m[0] + m[1], -m[0])):
            c = self.terms[mono]
            mono_s = render_monomial(mono)
            if mono_s == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono_s
            else:
                body = f"{abs(c)}*{mono_s}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPolyQT<{self}>"

    def json_terms(self) -> list:
        """Terms as [eq, et, coeff-as-string] triples, sorted lexicographically."""
        return [[e0, e1, str(self.terms[(e0, e1)])] for e0, e1 in sorted(self.terms)]


def render_monomial(mono: Mono) -> str:
    e0, e1 = mono
    parts = []
    if e0:
        parts.append("q" if e0 == 1 else f"q^{e0}")
    if e1:
        parts.append("t" if e1 == 1 else f"t^{e1}")
    return "*".join(parts) if parts else "1"


def parse_poly_json(triples) -> LaurentPolyQT:
    return LaurentPolyQT({(int(e0), int(e1)): int(c) for e0, e1, c in triples})


ZERO = LaurentPolyQT._raw({})
ONE = LaurentPolyQT.const(1)
Q = LaurentPolyQT.monomial(1, 1, 0)
T = LaurentPolyQT.monomial(1, 0, 1)
# M = (1-q)(1-t), the ubiquitous weight normalizer
M = LaurentPolyQT({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})


@lru_cache(maxsize=None)
def qt_int(k: int) -> LaurentPolyQT:
    """The q,t-analogue (q^k - t^k)/(q - t), exact for every integer k."""
    if k == 0:
        return ZERO
    if k > 0:
        return LaurentPolyQT._raw({(k - 1 - i, i): 1 for i in range(k)})
    m = -k
    return LaurentPolyQT._raw({(-1 - i, i - m): -1 for i in range(m)})


@lru_cache(maxsize=None)
def q_int(k: int) -> LaurentPolyQT:
    """The q-analogue (q^k - 1)/(q - 1), exact for every integer k."""
    if k >= 0:
        return LaurentPolyQT._raw({(i, 0): 1 for i in range(k)})
    return LaurentPolyQT._raw({(-j, 0): -1 for j in range(1, -k + 1)})


@lru_cache(maxsize=None)
def q_factorial(k: int) -> LaurentPolyQT:
    out = ONE
    for i in range(1, k + 1):
        out = out * q_int(i)
    return out


def exact_div(a: LaurentPolyQT, b: LaurentPolyQT):
    """a / b when the quotient is again a Laurent polynomial over Z, else None.

    Greedy leading-term division in graded-lex order.  The remainder is a
    dict, and its leading term comes from a heap of grlex keys
    (-(e0+e1), -e0) with lazy deletion: a popped key whose term has
    cancelled is stale and skipped.  A key is pushed only when a new
    monomial enters the remainder.  Each such monomial is m' + d for a
    non-leading term m' of b and the popped monomial m = lead(b) + d; grlex
    is a monomial order, so it lies strictly below m, and the heap top is
    always the true leading term.  Complete as a divisibility test whenever
    b is primitive (Gauss's lemma covers the integer side).
    """
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return ZERO
    amin = a.min_exponents()
    bmin = b.min_exponents()
    rem = {(e0 - amin[0], e1 - amin[1]): c for (e0, e1), c in a.terms.items()}
    bpoly = {(e0 - bmin[0], e1 - bmin[1]): c for (e0, e1), c in b.terms.items()}
    blead = max(bpoly, key=_grlex)
    bc = bpoly.pop(blead)
    heap = [(-e0 - e1, -e0) for e0, e1 in rem]
    heapify(heap)
    quot: dict = {}
    while rem:
        k0, k1 = heappop(heap)
        m = (-k1, k1 - k0)
        c = rem.pop(m, None)
        if c is None:
            continue
        d0, d1 = m[0] - blead[0], m[1] - blead[1]
        if d0 < 0 or d1 < 0:
            return None
        qc = c // bc
        if qc * bc != c:
            return None
        quot[(d0, d1)] = qc
        for (f0, f1), d in bpoly.items():
            key = (f0 + d0, f1 + d1)
            n = rem.get(key)
            if n is None:
                rem[key] = -qc * d
                heappush(heap, (-key[0] - key[1], -key[0]))
            elif n - qc * d:
                rem[key] = n - qc * d
            else:
                del rem[key]
    s0, s1 = amin[0] - bmin[0], amin[1] - bmin[1]
    return LaurentPolyQT._raw({(e0 + s0, e1 + s1): c for (e0, e1), c in quot.items()})


def _split_canonical(p: LaurentPolyQT):
    """Write nonzero p as sign * content * q^a t^b * primitive.

    The primitive part has min exponents (0,0), coefficient gcd 1 and a
    positive graded-lex leading coefficient; it is ONE iff p is a monomial.
    """
    mins = p.min_exponents()
    shifted = {(e0 - mins[0], e1 - mins[1]): c for (e0, e1), c in p.terms.items()}
    g = math.gcd(*(abs(c) for c in shifted.values()))
    sign = 1 if shifted[max(shifted, key=_grlex)] > 0 else -1
    prim = LaurentPolyQT._raw({m: c // (sign * g) for m, c in shifted.items()})
    return sign, g, mins, prim


class RatFuncQT:
    """Exact rational function in q and t.

    Stored as num / (den_int * prod(factors)) where den_int is a positive
    integer and factors is a sorted tuple of canonical primitive polynomials.
    Monomial content never sits in the denominator (it moves into num as
    negative exponents).  Equality is decided by cross-multiplication, so a
    missed cancellation can never change a result.
    """

    __slots__ = ("num", "den_int", "factors")

    def __init__(self, num, den=1):
        if isinstance(num, int):
            num = LaurentPolyQT.const(num)
        if isinstance(den, int):
            if den == 0:
                raise ZeroDivisionError("zero denominator")
            if den < 0:
                num, den = -num, -den
            self.num, self.den_int, self.factors = _reduce(num, den, ())
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        sign, g, mins, prim = _split_canonical(den)
        num = num.shift(-mins[0], -mins[1]) * sign
        factors = () if prim == ONE else (prim,)
        self.num, self.den_int, self.factors = _reduce(num, g, factors)

    @classmethod
    def _make(cls, num: LaurentPolyQT, den_int: int, factors) -> "RatFuncQT":
        out = object.__new__(cls)
        out.num, out.den_int, out.factors = _reduce(num, den_int, factors)
        return out

    @classmethod
    def from_laurent(cls, p) -> "RatFuncQT":
        if isinstance(p, int):
            p = LaurentPolyQT.const(p)
        out = object.__new__(cls)
        out.num, out.den_int, out.factors = p, 1, ()
        return out

    @classmethod
    def from_factors(cls, num, factors, den_int: int = 1) -> "RatFuncQT":
        """num / (den_int * prod(factors)) with each factor canonicalized, not expanded."""
        if isinstance(num, int):
            num = LaurentPolyQT.const(num)
        if den_int < 0:
            num, den_int = -num, -den_int
        if den_int == 0:
            raise ZeroDivisionError("zero denominator")
        canon = []
        for f in factors:
            if f.is_zero():
                raise ZeroDivisionError("zero denominator")
            sign, g, mins, prim = _split_canonical(f)
            num = num.shift(-mins[0], -mins[1]) * sign
            den_int *= g
            if prim != ONE:
                canon.append(prim)
        return cls._make(num, den_int, tuple(canon))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_laurent(self) -> bool:
        return not self.factors and self.den_int == 1

    def to_laurent(self) -> LaurentPolyQT:
        if self.factors or self.den_int != 1:
            raise ValueError("not a Laurent polynomial")
        return self.num

    @property
    def numerator(self) -> LaurentPolyQT:
        """Numerator with nonnegative exponents (paired with .denominator)."""
        n, _ = self._cleared()
        return n

    @property
    def denominator(self) -> LaurentPolyQT:
        """Expanded denominator with nonnegative exponents."""
        _, d = self._cleared()
        return d

    def _cleared(self):
        den = _expand(self.den_int, self.factors)
        if self.num.is_zero():
            return ZERO, den
        mins = self.num.min_exponents()
        s0, s1 = max(0, -mins[0]), max(0, -mins[1])
        return self.num.shift(s0, s1), den.shift(s0, s1)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ca, cb = Counter(self.factors), Counter(other.factors)
        common = ca & cb
        ra = _expand(1, (ca - common).elements())
        rb = _expand(1, (cb - common).elements())
        g = math.gcd(self.den_int, other.den_int)
        return self.num * rb * (other.den_int // g) == other.num * ra * (self.den_int // g)

    def __hash__(self):
        raise TypeError("RatFuncQT is not hashable (equality is cross-multiplicative)")

    def __neg__(self) -> "RatFuncQT":
        out = object.__new__(RatFuncQT)
        out.num, out.den_int, out.factors = -self.num, self.den_int, self.factors
        return out

    def __add__(self, other) -> "RatFuncQT":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        ca, cb = Counter(self.factors), Counter(other.factors)
        common = ca | cb
        extra_a = _expand(1, (common - ca).elements())
        extra_b = _expand(1, (common - cb).elements())
        lcm = self.den_int * other.den_int // math.gcd(self.den_int, other.den_int)
        num = (self.num * extra_a * (lcm // self.den_int)
               + other.num * extra_b * (lcm // other.den_int))
        return RatFuncQT._make(num, lcm, tuple(common.elements()))

    __radd__ = __add__

    def __sub__(self, other) -> "RatFuncQT":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatFuncQT":
        return (-self) + other

    def __mul__(self, other) -> "RatFuncQT":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFuncQT._make(self.num * other.num,
                               self.den_int * other.den_int,
                               self.factors + other.factors)

    __rmul__ = __mul__

    def inverse(self) -> "RatFuncQT":
        if self.num.is_zero():
            raise ZeroDivisionError("division by zero")
        sign, g, mins, prim = _split_canonical(self.num)
        num = _expand(self.den_int, self.factors).shift(-mins[0], -mins[1]) * sign
        return RatFuncQT._make(num, g, () if prim == ONE else (prim,))

    def __truediv__(self, other) -> "RatFuncQT":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "RatFuncQT":
        return _coerce(other) * self.inverse()

    def bar(self) -> "RatFuncQT":
        """Substitute q -> 1/q, t -> 1/t."""
        num = self.num.bar()
        prims = []
        for f in self.factors:
            # primitive factors stay primitive under bar (coefficients unchanged)
            sign, _, mins, prim = _split_canonical(f.bar())
            num = num.shift(-mins[0], -mins[1]) * sign
            prims.append(prim)
        return RatFuncQT._make(num, self.den_int, tuple(prims))

    def __str__(self) -> str:
        if self.is_laurent():
            return str(self.num)
        den = _expand(self.den_int, self.factors)
        return f"({self.num}) / ({den})"

    def __repr__(self) -> str:
        return f"RatFuncQT<{self}>"


def _expand(den_int: int, factors) -> LaurentPolyQT:
    out = LaurentPolyQT.const(den_int)
    for f in factors:
        out = out * f
    return out


def _coerce(x):
    if isinstance(x, RatFuncQT):
        return x
    if isinstance(x, (int, LaurentPolyQT)):
        return RatFuncQT.from_laurent(x)
    return NotImplemented


def _reduce(num: LaurentPolyQT, den_int: int, factors):
    if num.is_zero():
        return ZERO, 1, ()
    kept = []
    for f in factors:
        quotient = exact_div(num, f)
        if quotient is None:
            kept.append(f)
        else:
            num = quotient
    if den_int != 1:
        g = math.gcd(den_int, num.content())
        if g > 1:
            num = LaurentPolyQT._raw({m: c // g for m, c in num.terms.items()})
            den_int //= g
    kept.sort(key=lambda f: sorted(f.terms.items()))
    return num, den_int, tuple(kept)
