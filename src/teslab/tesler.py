"""Tesler matrices for arbitrary integer hook sums.

A Tesler matrix is upper triangular with no zero row and each row entirely
non-negative or entirely non-positive.  The hook sum of row i is the row sum
from the diagonal rightward minus the column sum above the diagonal.  The
weight of a matrix multiplies q,t-integers of its nonzero entries with a sign
and a power of M = (1-q)(1-t); the Tesler function tes(alpha) sums weights
over the finite set of matrices with hook-sum vector alpha.

Finiteness and enumeration: the total s_i of row i is forced to
alpha_i + (column sum above the diagonal), the row's sign is sign(s_i), and
each entry is bounded by |s_i|; sign-homogeneous nonzero rows cannot sum to
zero, so s_i = 0 prunes the branch.

tes does not enumerate.  The weight factorizes row by row: a row with nz
nonzero entries contributes M^(nz-1), the qt_int of each entry, and the sign
(-1)^(nz-1) when it is positive.  Deleting the first row and column of a
matrix with hooks alpha and first row r leaves a Tesler matrix with hooks
alpha[1:] + r[1:], so tes(alpha) = sum over r of w(r) * tes(alpha[1:] + r[1:])
(the first-row recursion of Haglund, Adv. Math. 227 (2011), and of
Armstrong-Garsia-Haglund-Rhoades-Sagan, J. Comb. 3 (2012), here with signed
hooks).  No factor of w(r) depends on where an entry sits, only on the
multiset lambda of its entries: the sub-values of the rows with one lambda
are added, then multiplied by their weight once.  A row -r of total -m weighs
-(qt)^(-m) w(r), as [-v]_{q,t} = -(qt)^(-v) [v]_{q,t}, so only w(r) is built.

Every weight is symmetric in q and t, so every value lies in Z[e1, e2, 1/e2]
with e1 = q + t and e2 = qt, the symmetric part of Z[q,t,1/q,1/t]
(Macdonald, Symmetric Functions and Hall Polynomials, I.2): M = 1 - e1 + e2,
[a]_{q,t} = h_(a-1)(q, t) = sum over j of (-1)^j C(a-1-j, j) e1^(a-1-2j) e2^j,
and [-v]_{q,t} = -e2^(-v) [v]_{q,t}.  The walk works in that basis, on about
half the monomials a (q,t) value has.  An e-basis value is held in a
LaurentPolyQT whose first exponent is that of e1 and second that of e2, so
the row weights are built with its products, and a single hook, whose value
is qt_int itself, skips the walk.

The recursion adds and multiplies Python ints, not dicts (Kronecker
substitution, as in Harvey, J. Symb. Comput. 44 (2009)).  e1^i e2^j ->
y^(iW+j) with y = 2^K is a ring homomorphism from Z[e1,e2,1/e2] to
Z[y,1/y], so a value is one int N and a slot offset e (the value is
y^e * N), a sum is a shift-and-add and a weight product one integer
multiply, both in C.  A negative row of total s multiplies by -e2^s, which
moves the offset by s.  Before any packing, _bound runs the same recursion
on four integers: a bound L1 on the sum of the absolute e-basis
coefficients, a window [lo, hi] holding every e2-exponent and the largest
e1-exponent I.  With 2^(K-1) > L1 every coefficient is a balanced base-2^K
digit, and with W > hi - lo no two monomials share a slot, so tes decodes
the packed value exactly, once; and no packed int is longer than
K * W * (I + 1) bits, which tes checks against its budget.  K and W are
rounded up to steps of 8 bits and 4 slots so that calls of similar size
share the memoized states.  The decode adds 2^(K-1) to every slot and reads
the bytes of the sum K/8 at a time; it converts only the slots that are
not empty, then maps e1^i e2^j to the sum over x of
C(i, x) q^(j+x) t^(j+i-x), for the terms with x >= y only, and mirrors them.

tes_sums sums tes over groups of vectors, as hilb's Tesler route sums it
over the arrangements of each monomial.  The packing is a ring
homomorphism for any (K, W), so it bounds every vector first and walks all
of them at one (K, W): K from the largest group's summed L1, W from the
union of the windows.  A state that many vectors reach is then packed once,
not once per (K, W), each group's packed values are shift-added, and each
group sum is decoded once.  tes is its one-vector case.

A state, the hook vector of the rows still to fill, is one int code: entry
j is base-2^16 digit j, stored as x_j + 2^15, so the first entry is
(code & 0xFFFF) - 2^15, the rows below are code >> 16 and the length is the
number of digits.  A first-row tail is stored as its signed code
sum t_j 2^(16j), so a child is below + tail, one int add.  This is exact
because every entry of every state lies in [-P, P], with P the larger of
the sums of the positive and of the negative |alpha_i|.  A positive first
row x_0 splits x_0 into entries >= 0, so the positive entries of a child
sum to at most those of its state (x_0 leaves, at most x_0 flows back) and
its negative entries only move towards 0; a negative row is the mirror
image.  Neither sum ever grows past alpha's, so while P < 2^15 every digit
lies in [1, 2^16): no add carries and the top digit is never 0.  tes
refuses a larger P.

_bound is the one walk that builds children: per state it records the live
groups (those with a child of nonzero bound) and those children's codes.
The packed pass follows them, and sums the children of each group and then
the group products in one loop per state.

count_tesler runs the recursion with every weight set to 1, on hook tuples
memoized per call.  It adds up the size of each row set before building
it, and refuses a call once that sum passes COUNT_ROWS_BUDGET.  A
permutational matrix (one nonzero entry per row, the matrices that survive
t = 1) is a Tesler matrix whose rows are compositions with one nonzero
entry, so enumerate_tesler and count_tesler take permutational=True to try
only those rows; there is no second recursion for them.

enumerate_tesler and TeslerMatrix.weight stay as the independent
brute-force definition, sharing no code with tes's walk (no grouped first
rows, no bound, no state codes).  Once per call, enumerate_tesler signs the
compositions of each (row total, row index) it meets and pads them with
zeros, each paired with its tail right of the diagonal.  It carries the
hooks of the rows below as a tuple, so a child is one tuple(map(add, below,
tail)), and the last row, which is its total alone, is filled in the frame
of the row above it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import add, sub

from .qt_algebra import M, ONE, ZERO, LaurentPolyQT, qt_int


class TeslerMatrix:
    """Validated upper-triangular, essential, signed integer matrix."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix not square")
        if n == 0:
            raise ValueError("matrix must have at least one row")
        for i, row in enumerate(rows):
            if any(row[j] for j in range(i)):
                raise ValueError("not upper triangular")
            if not any(row[i:]):
                raise ValueError("zero row")
            if any(v > 0 for v in row) and any(v < 0 for v in row):
                raise ValueError("row not sign-homogeneous")
        self.n, self.rows = n, rows

    @classmethod
    def _unchecked(cls, n: int, rows: tuple) -> "TeslerMatrix":
        out = object.__new__(cls)
        out.n, out.rows = n, rows
        return out

    def __eq__(self, other):
        return isinstance(other, TeslerMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"TeslerMatrix({list(map(list, self.rows))})"

    def hooks(self) -> tuple:
        """Row sum from the diagonal rightward minus the column sum above it."""
        rows = self.rows
        return tuple(sum(rows[i][i:]) - sum(row[i] for row in rows[:i]) for i in range(self.n))

    def weight(self) -> LaurentPolyQT:
        """(-1)^(entries+ - rows+) * M^(nonzero - n) * prod qt_int(entry)."""
        entries = [v for row in self.rows for v in row if v]
        plus = sum(v > 0 for v in entries) - sum(any(v > 0 for v in row) for row in self.rows)
        out = _m_power(len(entries) - self.n) * (-1 if plus % 2 else 1)
        for v in entries:
            out = out * qt_int(v)
        return out

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [list(row) for row in self.rows]}


@lru_cache(maxsize=None)
def _m_power(k: int) -> LaurentPolyQT:
    if k < 0:
        raise ValueError("essential matrices cannot give a negative M power")
    return ONE if k == 0 else _m_power(k - 1) * M


@lru_cache(maxsize=None)
def compositions(total: int, parts: int) -> tuple:
    """Nonnegative compositions of total into parts, colexicographic order."""
    if parts == 0:
        return ((),) if total == 0 else ()
    if parts == 1:
        return ((total,),)
    out = []
    for last in range(total + 1):
        for rest in compositions(total - last, parts - 1):
            out.append(rest + (last,))
    return tuple(out)


@lru_cache(maxsize=None)
def _single_rows(total: int, parts: int) -> tuple:
    """The compositions of total > 0 into parts with one nonzero entry, in
    the colexicographic order of compositions: the entry in place 0 first,
    in place parts - 1 last."""
    return tuple((0,) * j + (total,) + (0,) * (parts - 1 - j) for j in range(parts))


# The longest hook vector parse_hooks accepts, which every --hooks route
# reads.  The longest tested vector has 18 entries, and compositions recurses
# once per part, so a vector of about 600 entries would overflow the stack.
HOOKS_LENGTH_BUDGET = 64


def parse_hooks(text: str) -> tuple:
    """The hook vector of comma-separated integers.  Raises ValueError for
    other text and for more than HOOKS_LENGTH_BUDGET entries."""
    try:
        alpha = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse hook vector {text!r}") from exc
    if len(alpha) > HOOKS_LENGTH_BUDGET:
        raise ValueError(f"the hook vector has {len(alpha):,} entries, over the length "
                         f"budget of {HOOKS_LENGTH_BUDGET}")
    return alpha


def enumerate_tesler(alpha, permutational: bool = False):
    """Yield every Tesler matrix with hook sums alpha, in a fixed order.

    Rows are filled top to bottom; each row's compositions come out in
    colexicographic order, so the stream is reproducible.  With
    permutational, only the rows with one nonzero entry are tried, which
    yields the permutational matrices in the same order.
    """
    rows_of = _single_rows if permutational else compositions
    alpha = tuple(alpha)
    n = len(alpha)
    if not alpha or not alpha[0]:
        return
    make = TeslerMatrix._unchecked

    @lru_cache(maxsize=None)
    def signed_rows(s: int, i: int) -> tuple:
        """(row, tail) per row i of total s: the signed composition padded
        with i zeros, and its entries right of the diagonal."""
        pad = (0,) * i
        out = []
        for comp in rows_of(abs(s), n - i):
            row = comp if s > 0 else tuple(-v for v in comp)
            out.append((pad + row, row[1:]))
        return tuple(out)

    if n == 1:
        for row, _ in signed_rows(alpha[0], 0):
            yield make(1, (row,))
        return
    pad = (0,) * (n - 1)

    def rec(i: int, s: int, below: tuple, rows: tuple):
        # s is row i's total, below the hooks of the rows under it plus the
        # column sums of rows 0..i-1
        if len(below) == 1:
            # the last row is its total alone
            for row, tail in signed_rows(s, i):
                last = below[0] + tail[0]
                if last:
                    yield make(n, rows + (row, pad + (last,)))
            return
        for row, tail in signed_rows(s, i):
            kids = tuple(map(add, below, tail))
            if kids[0]:
                yield from rec(i + 1, kids[0], kids[1:], rows + (row,))

    yield from rec(0, alpha[0], alpha[1:], ())


# M = (1 - q)(1 - t) = 1 - e1 + e2 in the e-basis
_E_M = LaurentPolyQT._raw({(0, 0): 1, (1, 0): -1, (0, 1): 1})


@lru_cache(maxsize=None)
def _e_m_power(k: int) -> LaurentPolyQT:
    return ONE if k == 0 else _e_m_power(k - 1) * _E_M


@lru_cache(maxsize=None)
def _e_int(a: int) -> LaurentPolyQT:
    """qt_int(a) in the e-basis: [a] = h_(a-1)(q, t) is the sum over j of
    (-1)^j C(a-1-j, j) e1^(a-1-2j) e2^j, and [-v] = -e2^(-v) [v]."""
    if a < 0:
        return LaurentPolyQT._raw({(i, j + a): -c for (i, j), c in _e_int(-a).terms.items()})
    return LaurentPolyQT._raw({(a - 1 - 2 * j, j): (-1) ** j * math.comb(a - 1 - j, j)
                               for j in range((a + 1) // 2)})


@lru_cache(maxsize=None)
def _row_weight(parts: tuple) -> LaurentPolyQT:
    """The weight of a positive row with nonzero entries parts, in the
    e-basis: (-1)^(nz-1), M^(nz-1) and the qt_int of each entry, wherever
    they sit."""
    weight = _e_m_power(len(parts) - 1) * (-1) ** (len(parts) - 1)
    for v in parts:
        weight = weight * _e_int(v)
    return weight


# The longest packed int tes may build, in bits, K*W*(I+1): (1^10) needs
# 61,824 and tes-large at most 8,160, while (150,1) needs 9,849,600.
PACKED_BITS_BUDGET = 1 << 22


def tes(alpha) -> LaurentPolyQT:
    """The Tesler function: the weight sum over all matrices with hooks alpha.

    The one-vector case of tes_sums: by the first-row recursion on state
    codes and ints packed in the e-basis (see the module docstring),
    memoized on the state, so sub-vectors are shared within one call and
    across calls.  A single hook a is qt_int(a) itself, and () is 1, the
    weight of the one empty matrix.  Raises ValueError as tes_sums does.
    Values are immutable and safe to share.
    """
    return tes_sums(((alpha,),))[0]


def tes_sums(groups) -> list:
    """The sum of tes over each group of hook vectors, one value per group.

    Every vector of two or more entries is bounded once by _bound, and all
    of them are walked at one (K, W): K from the largest group's summed L1
    bound, which bounds the coefficients of that group's sum, and W from
    the union of every e2-window.  Each group's packed values are
    shift-added, and the sum is decoded once.  Vectors of length 0 and 1 are
    not packed: () is 1 and (a,) is qt_int(a).  An empty group sums to 0.
    Raises ValueError, before any packed walk, when the positive or the
    negative hooks of a vector sum to 2^15 or more in absolute value (a
    state would no longer fit its code), and when the shared packed length
    K * W * (I + 1), I the largest e1-exponent, is over PACKED_BITS_BUDGET.
    """
    plan = []
    l1 = top = live = 0
    lo, hi = math.inf, -math.inf
    for group in groups:
        unpacked, codes, total = ZERO, [], 0
        for alpha in group:
            alpha = tuple(alpha)
            mass = max(sum(x for x in alpha if x > 0), -sum(x for x in alpha if x < 0))
            if mass >= _HALF:
                raise ValueError(f"tes needs the positive and the negative hooks to sum "
                                 f"below {_HALF}")
            if len(alpha) < 2:
                value = qt_int(alpha[0]) if alpha else ONE
                unpacked = unpacked + value if unpacked else value
                continue
            code = _encode(alpha)
            cl1, clo, chi, ctop, _ = _bound(code)
            if cl1:
                codes.append(code)
                total += cl1
                live, last = live + 1, alpha
                if clo < lo:
                    lo = clo
                if chi > hi:
                    hi = chi
                if ctop > top:
                    top = ctop
        plan.append((unpacked, codes))
        if total > l1:
            l1 = total
    if not l1:
        return [unpacked for unpacked, _ in plan]
    k, w = _slot_sizes(l1, lo, hi)
    if k * w * (top + 1) > PACKED_BITS_BUDGET:
        what = f"tes{last}" if live == 1 else f"tes over {live:,} hook vectors"
        raise ValueError(f"{what} would pack up to K*W*(I+1) = {k * w * (top + 1):,} bits "
                         f"per value, over the budget of {PACKED_BITS_BUDGET:,}")
    out = []
    for unpacked, codes in plan:
        n = e = 0
        for code in codes:
            cn, ce = _tes_cached(code, k, w)
            if not n:
                n, e = cn, ce
            elif ce >= e:
                n += cn << k * (ce - e)
            else:
                n = (n << k * (e - ce)) + cn
                e = ce
        value = _from_e(_unpack(n, e, k, w, lo))
        out.append(value + unpacked if unpacked else value)
    return out


# a state code: entry j is base-2^_DIGIT digit j, stored as x_j + _HALF
_DIGIT, _HALF, _MASK = 16, 1 << 15, 0xFFFF


def _encode(alpha: tuple) -> int:
    """The state code of the hook vector alpha."""
    return sum((x + _HALF) << _DIGIT * j for j, x in enumerate(alpha))


# K and W round up to these steps, so that calls of similar size share memoized
# states.  Exact sizes spread one verify suite's states over many (K, W): with
# steps of 1, prop-6-2's 780 small calls ran about 25% slower.  Coarser steps
# lengthen every int: with 16 and 8, cold tes-large inputs took 15-30% longer.
# K_STEP is also the byte the decode reads its digits in.
K_STEP = 8
W_STEP = 4


def _slot_sizes(l1: int, lo: int, hi: int) -> tuple:
    """(K, W) for a value with coefficient sum at most l1 and e2-exponents in
    [lo, hi]: 2^(K-1) > l1 and W > hi - lo, each rounded up to its step."""
    k = -(-(l1.bit_length() + 1) // K_STEP) * K_STEP
    w = -(-(hi - lo + 1) // W_STEP) * W_STEP
    return k, w


def _span(poly: LaurentPolyQT) -> tuple:
    """(sum of |coefficients|, lowest e2-exponent, highest e2-exponent,
    highest e1-exponent) of an e-basis value."""
    es, js = zip(*poly.terms)
    return sum(map(abs, poly.terms.values())), min(js), max(js), max(es)


@lru_cache(maxsize=None)
def _row_groups(s: int, width: int) -> tuple:
    """(parts, span of the weight, tails) per partition parts of |s| into at
    most width parts: tails codes the entries right of the diagonal of each
    row of total s with entries parts, in the colex order of compositions,
    each summed as it is generated and keyed by its value counts (one field
    of bits per value, each count <= width < 2^bits).  s < 0 negates the
    codes (they are linear) and moves the e2-window by s."""
    if s < 0:
        return tuple((parts, (l1, lo + s, hi + s, top), tuple(-t for t in tails))
                     for parts, (l1, lo, hi, top), tails in _row_groups(-s, width))
    bits = width.bit_length()
    groups: dict = {}

    def fill(j: int, rest: int, code: int, counts: int) -> None:
        # entries j+1.. are set and sum to s - rest; entry 0 takes what is left
        if not j:
            groups.setdefault(counts + (1 << bits * rest), []).append(code)
            return
        for v in range(rest + 1):
            fill(j - 1, rest - v, code + (v << _DIGIT * (j - 1)), counts + (1 << bits * v))

    fill(width - 1, s, 0, 0)
    mask = (1 << bits) - 1
    parts = [tuple(v for v in range(1, s + 1) for _ in range(c >> bits * v & mask)) for c in groups]
    return tuple((p, _span(_row_weight(p)), tuple(t)) for p, t in zip(parts, groups.values()))


# the bound of the zero value: no coefficient, an empty e2-window, no group
_ZERO_BOUND = (0, math.inf, -math.inf, 0, ())


@lru_cache(maxsize=None)
def _bound(code: int) -> tuple:
    """(l1, lo, hi, top, groups) of the state code: in the e-basis, the sum
    of |coefficients| of its tes is at most l1, its e2-exponents lie in
    [lo, hi] (an empty window when l1 = 0) and its e1-exponents in
    [0, top].  groups holds one (row index, kids) pair per first-row group
    of _row_groups with a live child: kids are the codes of the rows below
    whose bound is nonzero.  The first-row recursion of tes on these four
    numbers: a sum adds the l1, joins the windows and keeps the larger top,
    a product multiplies the l1 and adds the windows and the tops."""
    first = (code & _MASK) - _HALF
    if not first:
        return _ZERO_BOUND
    if code <= _MASK:
        return _span(_e_int(first)) + ((),)
    below = code >> _DIGIT
    l1, lo, hi, top = 0, math.inf, -math.inf, 0
    groups = []
    for index, (_, (wl1, wlo, whi, wtop), tails) in enumerate(
            _row_groups(first, -(-code.bit_length() // _DIGIT))):
        kids = []
        total, klo, khi, ktop = 0, math.inf, -math.inf, 0
        for tail in tails:
            kid = below + tail
            cl1, clo, chi, ctop, _ = _bound(kid)
            if cl1:
                kids.append(kid)
                total += cl1
                if clo < klo:
                    klo = clo
                if chi > khi:
                    khi = chi
                if ctop > ktop:
                    ktop = ctop
        if kids:
            groups.append((index, tuple(kids)))
            l1 += wl1 * total
            if wlo + klo < lo:
                lo = wlo + klo
            if whi + khi > hi:
                hi = whi + khi
            if wtop + ktop > top:
                top = wtop + ktop
    return l1, lo, hi, top, tuple(groups)


def _pack(poly: LaurentPolyQT, k: int, w: int) -> tuple:
    """(N, e) with poly = y^e * N(y) under e1^i e2^j -> y^(iW+j), y = 2^K."""
    if not poly:
        return 0, 0
    slots = [(i * w + j, c) for (i, j), c in poly.terms.items()]
    low = min(s for s, _ in slots)
    return sum(c << k * (s - low) for s, c in slots), low


def _unpack(packed: int, low: int, k: int, w: int, lo: int) -> dict:
    """The e-basis terms {(i, j): c} of _pack's (N, e), in ascending slot
    order, given that K is a multiple of 8, every coefficient is less than
    2^(K-1) in absolute value and every e2-exponent lies in [lo, lo + W).
    Adding 2^(K-1) to every slot makes each balanced digit a plain base-2^K
    digit: the sum's little-endian bytes, K/8 at a time, are the digits,
    and an empty slot reads 2^(K-1)."""
    if not packed:
        return {}
    size = k >> 3
    count = abs(packed).bit_length() // k + 1
    half = 1 << (k - 1)
    raw = (packed + int.from_bytes(half.to_bytes(size, "little") * count, "little")
           ).to_bytes(size * count, "little")
    digits = [int.from_bytes(raw[s:s + size], "little") for s in range(0, len(raw), size)]
    terms = {}
    for slot, u in enumerate(digits, low - lo):
        if u != half:
            i, r = divmod(slot, w)
            terms[(i, r + lo)] = u - half
    return terms


@lru_cache(maxsize=None)
def _spread(i: int) -> tuple:
    """(x, i - x, C(i, x)) for x >= i - x: the upper half of (q + t)^i."""
    return tuple((x, i - x, math.comb(i, x)) for x in range((i + 1) // 2, i + 1))


def _from_e(terms: dict) -> LaurentPolyQT:
    """The (q,t) polynomial of e-basis terms: e1^i e2^j is the sum over x of
    C(i, x) q^(j+x) t^(j+i-x), so c(x, y) is the sum over j of
    C(x+y-2j, x-j) c_e(x+y-2j, j).  Only the terms with x >= y are summed;
    the value is symmetric, so the others are their mirror images."""
    upper: dict = {}
    get = upper.get
    for (i, j), c in terms.items():
        for x, y, b in _spread(i):
            key = (j + x, j + y)
            upper[key] = get(key, 0) + b * c
    out = {}
    for (x, y), c in upper.items():
        if c:
            out[(x, y)] = c
            if x != y:
                out[(y, x)] = c
    return LaurentPolyQT._raw(out)


@lru_cache(maxsize=None)
def _packed_weight(parts: tuple, k: int, w: int) -> tuple:
    return _pack(_row_weight(parts), k, w)


@lru_cache(maxsize=None)
def _packed_rows(s: int, width: int, k: int, w: int) -> tuple:
    """The packed (N, e) of each group weight of _row_groups(s, width); for
    s < 0, (qt)^s = e2^s packs as y^s, so the weight is (-N, e + s)."""
    packed = (_packed_weight(parts, k, w) for parts, _, _ in _row_groups(s, width))
    return tuple(packed) if s > 0 else tuple((-n, e + s) for n, e in packed)


@lru_cache(maxsize=None)
def _tes_cached(code: int, k: int, w: int) -> tuple:
    """The tes of the state code packed with slot sizes (K, W), as the (N, e)
    of _pack, for a state whose bound is nonzero.  Along _bound's live groups
    it sums each group's children, then the group products.  A sum (n, e)
    keeps the lowest offset seen: a value that comes in lower shifts n up,
    and a zero n takes the next value as it is."""
    first = (code & _MASK) - _HALF
    if code <= _MASK:
        return _pack(_e_int(first), k, w)
    weights = _packed_rows(first, -(-code.bit_length() // _DIGIT), k, w)
    total = low = 0
    for index, kids in _bound(code)[4]:
        n = e = 0
        for kid in kids:
            kn, ke = _tes_cached(kid, k, w)
            if not n:
                n, e = kn, ke
            elif ke >= e:
                n += kn << k * (ke - e)
            else:
                n = (n << k * (e - ke)) + kn
                e = ke
        wn, we = weights[index]
        n, e = n * wn, e + we
        if not total:
            total, low = n, e
        elif e >= low:
            total += n << k * (e - low)
        else:
            total = (total << k * (low - e)) + n
            low = e
    return total, low


# The most rows count_tesler may try.  The twelve-1s permutational count tries
# 24,564 rows and (1^13) 309,606 (0.25 s on 2 cores); (1^14) would try
# 815,642, (1^18) millions, and (1000, 1, 1) would build a row set of
# 501,501 before its first count.  At about 1 us a row, a refusal comes in
# well under a second.
COUNT_ROWS_BUDGET = 400_000


def count_tesler(alpha, permutational: bool = False) -> int:
    """The number of Tesler matrices with hooks alpha (only the permutational
    ones, with permutational), without enumerating them: the first-row
    recursion of tes with every weight 1, over the rows enumerate_tesler
    tries, memoized per call.  Raises ValueError, before building a row set,
    when the rows tried would pass COUNT_ROWS_BUDGET."""
    alpha = tuple(alpha)
    rows_of = _single_rows if permutational else compositions
    memo: dict = {}
    tried = 0

    def walk(hooks: tuple) -> int:
        nonlocal tried
        s = hooks[0]
        if not s:
            return 0
        width = len(hooks)
        if width == 1:
            return 1
        if hooks in memo:
            return memo[hooks]
        # the size of the row set, known before it is built
        tried += width if permutational else math.comb(abs(s) + width - 1, width - 1)
        if tried > COUNT_ROWS_BUDGET:
            raise ValueError(f"counting the Tesler matrices with hooks {alpha} tries "
                             f"more than {COUNT_ROWS_BUDGET:,} rows")
        below = hooks[1:]
        total = 0
        for comp in rows_of(abs(s), width):
            total += walk(tuple(map(add, below, comp[1:])) if s > 0
                          else tuple(map(sub, below, comp[1:])))
        memo[hooks] = total
        return total

    return walk(alpha) if alpha else 0
