"""Exact sparse arithmetic in Z[q,t,1/q,1/t] and its fraction field.

A Laurent polynomial is a dict from exponent pairs (eq, et) to nonzero
arbitrary-precision integer coefficients, so every computation is exact.
The constructor keeps a dict's nonzero coefficients; a product or a
specialization adds into one fresh dict and drops the zeros at the end.
Rational functions keep their denominator as a multiset of canonical
factors, and every factor is a binomial +-x^A +- x^B: those are all the
denominators the Macdonald route builds (arm/leg binomials and the two
factors of M), and from_binomials refuses any other, integer content and
monomials included.  Cancellation only ever uses exact_div, which divides
by such a binomial with one pass of running sums along the lines
{e + k(A - B)}, so intermediate results stay small without computing
polynomial gcds.  exact_div names each line by one integer, the cross
product of a term's exponent with A - B together with its coset modulo
A - B (needed when A - B is not primitive, as for 1 - q^6).

Each canonical factor is one object per value, made by a lru_cache: it
carries its hash, its sort key in a denominator and its primality, so the
multiset and ordering work on denominators computes none of them again.  It
still equals, and hashes like, the plain LaurentPolyQT with its terms.

Every RatFuncQT is reduced: no factor it keeps divides its numerator.  A
canonical factor whose direction A - B has coprime entries is irreducible
with content 1 (a monomial change of variables takes it to u - 1 or u + 1),
so it is prime in Z[q^+-1, t^+-1].  Division is tried only where a factor
can cancel, the rule for exact fractions of Henrici (JACM 3 (1956)) and
Knuth (TAOCP vol. 2, 4.5.1):
- a product tries each prime factor of one operand against the other
  operand's numerator before multiplying, since it cannot divide its own;
  the other factors (1 - q^2, q^2 - t^2, ...) are tried on the product;
- a sum skips a prime f that one addend carries more often than the other
  unless f divides a binomial that this addend gains: the other addend's
  part of the new numerator has f as a factor, and this one's is f-free
  unless f divides one of those binomials (each squarefree);
- a factor that fails once is not tried again: the numerator only loses
  factors, so its other copies cannot divide either;
- from_binomials cancels equal binomials and divides a denominator binomial
  into a numerator binomial before anything is expanded;
- a binomial divided by a binomial is a closed form in exact_div: the
  geometric sum when the dividend's direction is k >= 1 times the
  divisor's and the signs agree, else no quotient, with no line walk;
- from_binomials keeps a prime denominator binomial that divides no
  numerator binomial untried when the scale is a monomial: a prime divides
  a product only through one of its factors;
- a product with a monomial c x^m shifts the numerator and keeps the
  factors, with no trial: a binomial of content 1 divides c x^m num only if
  it divides num (Gauss's lemma).
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

Mono = tuple[int, int]


def _grlex(mono: Mono):
    # graded lex with q before t; fixes the sign of a canonical factor
    return (mono[0] + mono[1], mono[0])


class LaurentPolyQT:
    """Sparse Laurent polynomial in q and t with integer coefficients.

    Instances are immutable by convention: all operations return new objects
    and nothing mutates ``terms`` after construction, so values are safe to
    share across threads and memo tables.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        # the one rule for a dict of sums: keep the nonzero coefficients
        self.terms = {mono: c for mono, c in terms.items() if c} if terms else {}

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
        # a constant equals its int, so it must hash like it (ZERO like 0)
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and (0, 0) in terms:
            return hash(terms[(0, 0)])
        return hash(frozenset(terms.items()))

    def __neg__(self) -> "LaurentPolyQT":
        return LaurentPolyQT._raw({m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "LaurentPolyQT":
        if isinstance(other, int):
            other = LaurentPolyQT.const(other)
        if not isinstance(other, LaurentPolyQT):
            return NotImplemented
        # deleting a zero in place, not filtering the copy: the folds add small
        # polynomials into large ones, and a filter would cost O(|self|) a sum
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
        get = data.get
        for (e0, e1), c in a.items():
            for (f0, f1), d in b.items():
                key = (e0 + f0, e1 + f1)
                data[key] = get(key, 0) + c * d
        # a one-term a meets each key once, so no sum is 0
        if len(a) == 1 or 0 not in data.values():
            return LaurentPolyQT._raw(data)
        return LaurentPolyQT(data)

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
        if len(self.terms) == 1:
            (e0, e1), c = next(iter(self.terms.items()))
            return LaurentPolyQT._raw({(k * e0, k * e1): c ** k})
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

    def specialize(self, q=None, t=None) -> "LaurentPolyQT":
        """Exact substitution of 0 or +-1 for q, for t, or for q and then t.

        Binding both returns a constant LaurentPolyQT, which compares equal
        to its int.  Substituting 0 into a negative exponent raises.
        """
        if q is None and t is None:
            raise ValueError("specialize needs at least one binding")
        poly = self
        for var, value in ((0, q), (1, t)):
            if value is None:
                continue
            if value not in (0, 1, -1):
                raise ValueError("specialization supports only 0 and +-1")
            data: dict = {}
            for mono, c in poly.terms.items():
                e = mono[var]
                if value == 0:
                    if e < 0:
                        raise ValueError("pole at specialization")
                    if e > 0:
                        continue
                elif value == -1 and e % 2:
                    c = -c
                key = (0, mono[1]) if var == 0 else (mono[0], 0)
                data[key] = data.get(key, 0) + c
            poly = LaurentPolyQT(data)
        return poly

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
def q_int_product(values: tuple) -> LaurentPolyQT:
    """The product of [v]_q over the values."""
    out = ONE
    for v in values:
        out = out * q_int(v)
    return out


def q_factorial(k: int) -> LaurentPolyQT:
    return q_int_product(tuple(range(1, k + 1)))


def _is_unit_binomial(p: LaurentPolyQT) -> bool:
    """True for +-x^A +- x^B, the one kind of denominator factor."""
    terms = p.terms
    if len(terms) != 2:
        return False
    c, d = terms.values()
    return c in (1, -1) and d in (1, -1)


def exact_div(a: LaurentPolyQT, b: LaurentPolyQT):
    """a / b for a +-1 binomial b, when the quotient is a Laurent polynomial over Z, else None.

    Write b = c_A x^A + c_B x^B = c_B x^B (1 - s z) with z = x^v, v = A - B
    and s = -c_A c_B, the terms named so that v0 > 0, or v0 = 0 and v1 > 0.
    The lattice of exponents splits into the lines {e + k v}, and the ring
    into one copy of Z[z, 1/z] per line, so b divides a iff 1 - s z divides
    each line of c_B x^(-B) a.  On a line with coefficients a_k, the quotient
    is the running sum carry_k = a_k + s carry_(k-1), and the line is
    divisible iff its last carry is 0.  Both ends of 1 - s z are units
    because s = +-1, so the carries are integers and no coefficient can fail
    to divide.  One pass over the terms of a finds the unique quotient or
    shows there is none.  Two cheap tests show it sooner: for s = 1, b
    vanishes at q = t = 1, so a must; and a line with a single point cannot
    be divisible.  A two-term a needs no walk: _binomial_quotient divides
    it in closed form.

    A term's line is one integer: its cross product e1 v0 - e0 v1 with v,
    times n = v0 (v1 when v0 = 0), plus its coset e0 mod n (e1 mod n).  The
    coset is needed because v need not be primitive (1 - q^6, q^2 - t^4):
    the cross product alone would put 1 and q on one line of 1 - q^6.

    Any other divisor raises ValueError: from_binomials admits no other
    denominator factor, so RatFuncQT never passes one.
    """
    if not _is_unit_binomial(b):
        raise ValueError(f"exact_div divides only by +-1 binomials, got {b}")
    if a.is_zero():
        return ZERO
    (A, ca), (B, cb) = b.terms.items()
    s = -ca * cb
    v0, v1 = A[0] - B[0], A[1] - B[1]
    if v0 < 0 or (not v0 and v1 < 0):
        B, cb = A, ca
        v0, v1 = -v0, -v1
    if len(a.terms) == 2:
        return _binomial_quotient(a, B, cb, v0, v1, s)
    if s > 0 and sum(a.terms.values()):
        # b = +-(x^A - x^B) vanishes at q = t = 1, so a multiple of it does too
        return None
    # a term's line: its cross product with v, and its coset along v
    n = v0 or v1
    lines: dict = {}
    get = lines.get
    for (e0, e1), c in a.terms.items():
        key = (e1 * v0 - e0 * v1) * n + (e0 if v0 else e1) % n
        line = get(key)
        if line is None:
            lines[key] = [(e0, e1, c)]
        else:
            line.append((e0, e1, c))
    if min(map(len, lines.values())) == 1:
        return None
    b0, b1 = B
    quot: dict = {}
    for points in lines.values():
        # sorted, a line's points run in increasing position; the walk runs
        # in c_B x^(-B) a, so the carries are the quotient's coefficients
        points.sort()
        p0, p1, carry = points[0]
        p0 -= b0
        p1 -= b1
        carry *= cb
        for e0, e1, c in points[1:]:
            e0 -= b0
            e1 -= b1
            if carry:
                # the carry runs on from p through the gap up to e; the test
                # is (p0, p1) < (e0, e1), an order v moves up, so it ends
                quot[(p0, p1)] = carry
                p0 += v0
                p1 += v1
                carry *= s
                while p0 < e0 or (p0 == e0 and p1 < e1):
                    quot[(p0, p1)] = carry
                    p0 += v0
                    p1 += v1
                    carry *= s
            p0, p1 = e0, e1
            carry += c * cb
        if carry:
            return None
    return LaurentPolyQT._raw(quot)


def _binomial_quotient(a: LaurentPolyQT, B: Mono, cb: int, v0: int, v1: int, s: int):
    """exact_div of a two-term a by c_B x^B (1 - s x^v), in closed form.

    With a's terms named so that w = R - P points the way v does,
    a = c_P x^P (1 - s' x^w) for s' = -c_R / c_P.  The quotient is a Laurent
    polynomial exactly when w = k v for an integer k >= 1 and s' = s^k (so
    |c_R| = |c_P|): it is then c_P c_B x^(P - B) times the geometric sum of
    (s x^v)^j over j < k, as 1 - (s z)^k = (1 - s z)(1 + s z + ... ).
    """
    (P, cp), (R, cr) = a.terms.items()
    w0, w1 = R[0] - P[0], R[1] - P[1]
    if w0 < 0 or (not w0 and w1 < 0):
        P, cp, cr = R, cr, cp
        w0, w1 = -w0, -w1
    if w0 * v1 != w1 * v0:
        return None
    # parallel and pointing the same way, so k >= 1 when it divides
    k, rest = divmod(w0, v0) if v0 else divmod(w1, v1)
    if rest or cr != -cp * s ** k:
        return None
    c = cp * cb
    p0, p1 = P[0] - B[0], P[1] - B[1]
    quot = {}
    for _ in range(k):
        quot[(p0, p1)] = c
        p0 += v0
        p1 += v1
        c *= s
    return LaurentPolyQT._raw(quot)


class _Factor(LaurentPolyQT):
    """A canonical binomial x^a + c x^b, one object per value (see _factor).

    Its hash, its sort key in a denominator and its primality are computed
    once.  Equality stays equality of terms, and the hash is the plain
    LaurentPolyQT hash, so a Counter merges a factor with an equal plain
    polynomial, or with the object an earlier _factor cache made.
    """

    __slots__ = ("hash", "order", "prime")

    def __hash__(self):
        return self.hash


@lru_cache(maxsize=None)
def _factor(a: Mono, b: Mono, c: int) -> _Factor:
    """The canonical binomial x^a + c x^b, a leading in graded lex."""
    f = _Factor._raw({a: 1, b: c})
    f.hash = LaurentPolyQT.__hash__(f)
    # the order of a denominator's factors, so equal multisets are equal tuples
    f.order = tuple(sorted(f.terms.items()))
    # a direction with coprime entries makes the binomial irreducible with
    # content 1 (a monomial change of variables takes it to u - 1 or u + 1),
    # so prime
    f.prime = math.gcd(a[0] - b[0], a[1] - b[1]) == 1
    return f


def _split_canonical(p: LaurentPolyQT):
    """Write a +-1 binomial p as sign * x^mins * canonical, where canonical has
    min exponents (0,0) and a positive graded-lex leading coefficient."""
    return _split_terms(*p.terms.items())


@lru_cache(maxsize=None)
def _split_terms(first: tuple, second: tuple):
    # _split_canonical on a binomial's two (exponent, coefficient) items, so
    # an arm/leg binomial met again is split once
    ((a0, a1), ca), ((b0, b1), cb) = first, second
    m0, m1 = min(a0, b0), min(a1, b1)
    a, b = (a0 - m0, a1 - m1), (b0 - m0, b1 - m1)
    if _grlex(a) < _grlex(b):
        a, ca, b, cb = b, cb, a, ca
    sign = 1 if ca > 0 else -1
    return sign, (m0, m1), _factor(a, b, cb * sign)


def _canonicalize(num: LaurentPolyQT, factors, side: int):
    """(num, canonical factors) for num * prod(factors)^side, side = 1 for
    numerator binomials and -1 for denominator ones: the product of the
    factors' signs and monomials x^mins moves into num, in one shift."""
    canon = []
    sign = 1
    s0 = s1 = 0
    for f in factors:
        if side < 0 and f.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _is_unit_binomial(f):
            where = "denominator" if side < 0 else "numerator"
            raise ValueError(f"{where} factor {f} is not +-x^A +- x^B")
        s, (m0, m1), prim = _split_canonical(f)
        sign *= s
        s0 += m0
        s1 += m1
        canon.append(prim)
    num = num.shift(side * s0, side * s1)
    return (num if sign > 0 else -num), canon


def _is_prime(f: _Factor) -> bool:
    """True for a canonical factor whose direction has coprime entries."""
    return f.prime


class RatFuncQT:
    """Exact rational function in q and t.

    Stored as num / prod(factors) where factors is a sorted tuple of canonical
    +-1 binomials, none of which divides num.  Equality is decided by
    cross-multiplication, so a missed cancellation can never change a
    result.  Build one with from_laurent or from_binomials.
    """

    __slots__ = ("num", "factors")

    @classmethod
    def _raw(cls, num: LaurentPolyQT, factors: tuple) -> "RatFuncQT":
        # internal fast path: factors must already be canonical and sorted
        out = object.__new__(cls)
        out.num, out.factors = num, factors
        return out

    @classmethod
    def from_laurent(cls, p) -> "RatFuncQT":
        return cls._raw(LaurentPolyQT.const(p) if isinstance(p, int) else p, ())

    @classmethod
    def from_binomials(cls, top, bottom, scale: LaurentPolyQT = ONE) -> "RatFuncQT":
        """scale * prod(top) / prod(bottom) for +-x^A +- x^B binomials.

        Each binomial's sign and monomial move into scale.  Equal top and
        bottom binomials cancel, each remaining bottom binomial divides into
        one top binomial where it fits, and only then are the tops expanded;
        the bottom binomials left are tried on the numerator in order, but
        for a monomial scale a prime one is kept untried: it divides no top
        left, so it cannot divide their product.  A zero bottom binomial
        raises ZeroDivisionError, and any other non-binomial, integer
        content and monomials included, ValueError.
        """
        num, tops = _canonicalize(scale, top, 1)
        num, bottoms = _canonicalize(num, bottom, -1)
        unit = len(num.terms) == 1
        if tops:
            over, under = Counter(tops), Counter(bottoms)
            common = over & under
            nums = list((over - common).elements())
            bottoms = []
            for f in (under - common).elements():
                for i, g in enumerate(nums):
                    quotient = exact_div(g, f)
                    if quotient is not None:
                        nums[i] = quotient
                        break
                else:
                    bottoms.append(f)
            num = num * _expand(nums)
        if num.is_zero():
            return cls._raw(ZERO, ())
        kept = []
        if unit:
            # a prime divides the monomial scale times the tops left only
            # through one of the tops, and it divides none of them
            kept = [f for f in bottoms if _is_prime(f)]
            bottoms = [f for f in bottoms if not _is_prime(f)]
        num = _divide_out(num, bottoms, kept)
        return cls._raw(num, _sorted(kept))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_laurent(self) -> bool:
        return not self.factors

    def to_laurent(self) -> LaurentPolyQT:
        if self.factors:
            raise ValueError("not a Laurent polynomial")
        return self.num

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ca, cb = Counter(self.factors), Counter(other.factors)
        common = ca & cb
        ra = _expand((ca - common).elements())
        rb = _expand((cb - common).elements())
        return self.num * rb == other.num * ra

    def __hash__(self):
        raise TypeError("RatFuncQT is not hashable (equality is cross-multiplicative)")

    def __neg__(self) -> "RatFuncQT":
        return RatFuncQT._raw(-self.num, self.factors)

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
        gain_a, gain_b = common - ca, common - cb
        num = self.num * _expand(gain_a.elements()) + other.num * _expand(gain_b.elements())
        if num.is_zero():
            return RatFuncQT._raw(ZERO, ())
        # a prime f that one addend carries more often divides the sum only
        # if it divides a binomial that addend gains
        kept, trial = [], []
        for f, count in common.items():
            more = ca[f] - cb[f]
            if more and _is_prime(f) and all(
                    exact_div(g, f) is None for g in (gain_a if more > 0 else gain_b)):
                kept += [f] * count
            else:
                trial += [f] * count
        num = _divide_out(num, trial, kept)
        return RatFuncQT._raw(num, _sorted(kept))

    __radd__ = __add__

    def __sub__(self, other) -> "RatFuncQT":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "RatFuncQT":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return RatFuncQT._raw(ZERO, ())
        # a binomial of content 1 divides c x^m num only if it divides num, so
        # a reduced fraction times a monomial stays reduced, with no trial
        for x, y in ((self, other), (other, self)):
            if not y.factors and len(y.num.terms) == 1:
                ((e0, e1), c), = y.num.terms.items()
                num = x.num.shift(e0, e1)
                return RatFuncQT._raw(num if c == 1 else num * c, x.factors)
        # a prime factor cannot divide its own numerator, so it is tried on
        # the other's; the rest are tried on the product
        kept, trial, nums = [], [], []
        for own, across in ((self, other), (other, self)):
            primes = []
            for f in own.factors:
                (primes if _is_prime(f) else trial).append(f)
            nums.append(_divide_out(across.num, primes, kept))
        num = _divide_out(nums[0] * nums[1], trial, kept)
        return RatFuncQT._raw(num, _sorted(kept))

    __rmul__ = __mul__

    def swap_qt(self) -> "RatFuncQT":
        """Exchange q and t.

        The swap of a canonical factor keeps min exponents (0,0), so only its
        sign moves into num; and a factor divides swap(num) iff its swap
        divides num, so a reduced fraction stays reduced with no trial division.
        """
        num = self.num.swap_qt()
        prims = []
        for f in self.factors:
            sign, _, prim = _split_canonical(f.swap_qt())
            num = num * sign
            prims.append(prim)
        return RatFuncQT._raw(num, _sorted(prims))

    def __str__(self) -> str:
        if self.is_laurent():
            return str(self.num)
        return f"({self.num}) / ({_expand(self.factors)})"

    def __repr__(self) -> str:
        return f"RatFuncQT<{self}>"


def _expand(factors) -> LaurentPolyQT:
    out = ONE
    for f in factors:
        out = out * f
    return out


def _coerce(x):
    if isinstance(x, RatFuncQT):
        return x
    if isinstance(x, (int, LaurentPolyQT)):
        return RatFuncQT.from_laurent(x)
    return NotImplemented


def _divide_out(num: LaurentPolyQT, factors, kept: list) -> LaurentPolyQT:
    """num divided by each of the factors that divides it; kept gets the
    others.  A factor that fails is not tried again: num only loses factors,
    so none of its later copies can divide."""
    failed = set()
    for f in factors:
        if f not in failed:
            quotient = exact_div(num, f)
            if quotient is not None:
                num = quotient
                continue
            failed.add(f)
        kept.append(f)
    return num


def _sorted(factors) -> tuple:
    return tuple(sorted(factors, key=lambda f: f.order))
