"""Combinatorial models for the t=0, t=1, and q=t=1 specializations.

Ordered set partitions, each block an increasing tuple of ints, with an
inversion statistic and the array-building map from matrices cover t=0;
permutational matrices, target/tail vectors and the psi map cover t=1;
parking functions with considerate cars and a discounted area statistic
refine the t=1 product, and a rotation-style product formula covers q=t=1.

A ParkingFunction carries its parked outcome (who parks where, and which
cars are considerate), computed once when it is built; car_bars, area and
wt_alpha only read it.  parking_functions(n) generates and parks the
(n+1)^(n-1) parking functions of order n once per n, and cpf filters that
cached tuple; cpf refuses n above CPF_N_MAX before generating anything,
osp_enumerate counts its partitions and refuses more than OSP_BUDGET before
building any, and the CLI turns both refusals into exit 2.  Generated
records, here, in osp_enumerate and in car_bars (the parked order is a
permutation of 1..n), are valid by construction and skip the validation
that __init__ and parse give user input.  Which hook entries sum to each
tail of an ordered set partition depends on the partition alone, so tes_t1
and tail_vectors read the tails of every partition with given minima from
one cached scan, and sum each distinct index tuple once per hook vector.
The statistics are plain ints: tes_t1 counts the distinct tail multisets
and builds its polynomial once, as the callers that sum q^area or q^inv
over many objects count the exponents first.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, permutations, product

from .qt_algebra import ONE, ZERO, LaurentPolyQT, q_int, q_int_product
from .tesler import TeslerMatrix


class OrderedSetPartition:
    """Ordered disjoint nonempty blocks covering {1..n}."""

    __slots__ = ("blocks", "n")

    def __init__(self, blocks):
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        if any(not b for b in blocks):
            raise ValueError("blocks must be nonempty")
        # n counts every entry, so a repeated one leaves the union short of {1..n}
        n = sum(map(len, blocks))
        if set().union(*blocks) != set(range(1, n + 1)):
            raise ValueError("blocks must partition {1..n}")
        self.blocks = blocks
        self.n = n

    @classmethod
    def _unchecked(cls, blocks: tuple, n: int) -> "OrderedSetPartition":
        """The record of blocks, increasing int tuples known to partition {1..n}."""
        out = object.__new__(cls)
        out.blocks = blocks
        out.n = n
        return out

    @classmethod
    def parse(cls, text: str) -> "OrderedSetPartition":
        return cls([[int(ch) for ch in part] for part in text.strip().split("|")])

    def minima(self) -> tuple:
        return tuple(b[0] for b in self.blocks)

    def __eq__(self, other):
        return isinstance(other, OrderedSetPartition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __str__(self):
        return "|".join("".join(str(x) for x in b) for b in self.blocks)

    def __repr__(self):
        return f"OSP<{self}>"


# The most ordered set partitions osp_enumerate may build.  cor-5-1 at
# --n-max 8 builds 8! = 40,320 at most; tes_t1 on (1^9) would build
# 9! = 362,880 records, 20.8 s and 860 MiB of work.
OSP_BUDGET = 100_000


def osp_count(n: int, minima: set) -> int:
    """The number of ordered set partitions osp_enumerate(n, minima) builds,
    without building them: 0 unless 1 is a minimum, else |S|! orders of the
    minima S, times, for each other x, the number of minima below x (the
    blocks x may join)."""
    count = math.factorial(len(minima)) if 1 in minima else 0
    for x in range(2, n + 1):
        if x not in minima:
            count *= sum(m < x for m in minima)
    return count


def osp_enumerate(n: int, minima: set) -> list:
    """All ordered set partitions of {1..n} whose block minima are exactly
    the given set; empty unless 1 is a minimum.  Raises ValueError, before
    building any, when there would be more than OSP_BUDGET of them."""
    minima = set(minima)
    if not minima <= set(range(1, n + 1)):
        raise ValueError("minima must lie in {1..n}")
    if 1 not in minima:
        return []
    count = osp_count(n, minima)
    if count > OSP_BUDGET:
        raise ValueError(f"there are {count:,} ordered set partitions of {{1..{n}}} with "
                         f"minima {sorted(minima)}, over the budget of {OSP_BUDGET:,}")
    rest = [x for x in range(1, n + 1) if x not in minima]
    out = []
    for order in permutations(sorted(minima)):
        allowed = [[i for i, m in enumerate(order) if m < x] for x in rest]
        for choice in product(*allowed):
            # rest is increasing and x joins a block whose minimum is below it
            blocks = [[m] for m in order]
            for x, i in zip(rest, choice):
                blocks[i].append(x)
            out.append(OrderedSetPartition._unchecked(tuple(map(tuple, blocks)), n))
    return out


def inv_stat(pi: OrderedSetPartition) -> int:
    """Pairs a > b with a strictly left of b's block and b a block minimum."""
    total = 0
    seen: list = []
    for b in pi.blocks:
        total += sum(a > b[0] for a in seen)
        seen.extend(b)
    return total


@lru_cache(maxsize=None)
def q_stirling(n: int, k: int) -> LaurentPolyQT:
    """q-Stirling numbers: S(n,k) = S(n-1,k-1) + [k]_q S(n-1,k), S(0,0) = 1."""
    if n == 0 and k == 0:
        return ONE
    if k < 0 or n < k or n < 0:
        return ZERO
    return q_stirling(n - 1, k - 1) + q_int(k) * q_stirling(n - 1, k)


def set_of(alpha) -> set:
    """Positions (1-based) of the nonzero hook entries."""
    return {i + 1 for i, a in enumerate(alpha) if a}


def tes_t0(alpha) -> LaurentPolyQT:
    """Product formula for 0/1 hook vectors at t=0."""
    alpha = tuple(alpha)
    if any(a not in (0, 1) for a in alpha):
        raise ValueError("t=0 product formula needs a 0/1 hook vector")
    return q_int_product(tuple(accumulate(alpha)))


def levande_map(U: TeslerMatrix):
    """Array-building map from a nonnegative 0/1-hook matrix to an ordered
    set partition; also returns the intermediary array.

    Stage 1 reads the diagonal bottom-right to top-left into rows, then each
    column upward, prepending i to the topmost row currently led by j.
    Stage 2 reads row leaders bottom to top as block minima and attaches each
    leftover element through the bottom-most row containing it.
    """
    hooks = U.hooks()
    if any(h not in (0, 1) for h in hooks):
        raise ValueError("map needs hook sums in {0,1}")
    if any(v < 0 for row in U.rows for v in row):
        raise ValueError("map needs a nonnegative matrix")
    n = U.n
    rows: list = []
    for j in range(n, 0, -1):
        for _ in range(U.rows[j - 1][j - 1]):
            rows.append([j])
    for j in range(n, 0, -1):
        for i in range(j - 1, 0, -1):
            for _ in range(U.rows[i - 1][j - 1]):
                r = next(r for r in range(len(rows)) if rows[r][0] == j)
                rows[r].insert(0, i)
    leaders = [rows[r][0] for r in range(len(rows) - 1, -1, -1)]
    block_index = {leader: i for i, leader in enumerate(leaders)}
    blocks = [[leader] for leader in leaders]
    placed = set(leaders)
    for x in range(1, n + 1):
        if x in placed:
            continue
        r = max(r for r in range(len(rows)) if x in rows[r])
        blocks[block_index[rows[r][0]]].append(x)
    array = tuple(tuple(row) for row in rows)
    return array, OrderedSetPartition(blocks)


def _scan(pi: OrderedSetPartition):
    """target_i for each i, and the 0-based hook indices whose entries sum
    to tail_i, read off the word of pi: target_i is the first larger element
    after i, or i; tail_i takes the block minima from one past the nearest
    block left of i's whose last element is larger than i, through i's."""
    blocks = pi.blocks
    word = [(x, r) for r, b in enumerate(blocks) for x in b]
    target = [0] * pi.n
    tails = [()] * pi.n
    for p, (i, r) in enumerate(word):
        target[i - 1] = next((x for x, _ in word[p + 1:] if x > i), i)
        m = r
        while m and blocks[m - 1][-1] < i:
            m -= 1
        tails[i - 1] = tuple(b[0] - 1 for b in blocks[m:r + 1])
    return tuple(target), tuple(tails)


def target_tail(alpha, pi: OrderedSetPartition):
    """The scanning vectors attached to an ordered set partition.

    target_i is the first element greater than i reading rightward from i
    (blocks written in increasing order), or i itself; tail_i sums the hook
    entries indexed by the block minima from the first block right of the
    nearest larger element on the left, through i's block.
    """
    alpha = tuple(alpha)
    if pi.n != len(alpha):
        raise ValueError("hook vector and partition sizes differ")
    if set(pi.minima()) != set_of(alpha):
        raise ValueError("minima mismatch")
    target, tails = _scan(pi)
    return target, tuple(sum(alpha[j] for j in idx) for idx in tails)


def psi(alpha, pi: OrderedSetPartition):
    """Permutational matrix with tail_i placed in row i, column target_i.

    Returns None when some tail vanishes (the matrix would have a zero row);
    otherwise the result has hook sums alpha.
    """
    target, tail = target_tail(alpha, pi)
    if any(v == 0 for v in tail):
        return None
    n = len(target)
    rows = tuple(
        tuple(tail[i] if j == target[i] - 1 else 0 for j in range(n))
        for i in range(n)
    )
    return TeslerMatrix(rows)


@lru_cache(maxsize=None)
def _osp_tails(n: int, minima: frozenset) -> tuple:
    """(index tuples, tails) for the ordered set partitions with these minima:
    the distinct tuples of hook indices that _scan sums to a tail, and for
    each partition, in osp_enumerate's order, its tails as positions in the
    index tuples."""
    position: dict = {}
    tails = tuple(tuple(position.setdefault(idx, len(position)) for idx in _scan(pi)[1])
                  for pi in osp_enumerate(n, minima))
    return tuple(position), tails


def _tail_sums(alpha: tuple, minima: frozenset) -> tuple:
    """(the hook sum of each index tuple of _osp_tails, the tails)."""
    index_tuples, tails = _osp_tails(len(alpha), minima)
    return [sum(map(alpha.__getitem__, idx)) for idx in index_tuples], tails


def tail_vectors(alpha) -> list:
    """(pi, tail) for each ordered set partition pi whose minima are the
    nonzero positions of alpha, in osp_enumerate's order: the tail of
    target_tail(alpha, pi)."""
    alpha = tuple(alpha)
    minima = frozenset(set_of(alpha))
    sums, tails = _tail_sums(alpha, minima)
    return [(pi, tuple(map(sums.__getitem__, t)))
            for pi, t in zip(osp_enumerate(len(alpha), minima), tails)]


def tes_t1(alpha) -> LaurentPolyQT:
    """Tail-product formula over ordered set partitions: the t=1 value.

    The product depends on the multiset of tails alone, so each distinct
    multiset is multiplied out once, and its terms times its count go into
    one dict.
    """
    alpha = tuple(alpha)
    sums, tails = _tail_sums(alpha, frozenset(set_of(alpha)))
    counts = Counter(tuple(sorted(map(sums.__getitem__, t))) for t in tails)
    terms: dict = {}
    for tail, count in counts.items():
        for mono, c in q_int_product(tail).terms.items():
            terms[mono] = terms.get(mono, 0) + count * c
    return LaurentPolyQT(terms)


def tes_11(alpha) -> int:
    """Product formula at q=t=1: a_1 (a_1 + n a_2) ... (a_1 + ... + 2 a_n)."""
    alpha = tuple(alpha)
    n = len(alpha)
    if n == 0:
        raise ValueError("hook vector must be nonempty")
    out = alpha[0]
    partial = alpha[0]
    for j in range(2, n + 1):
        out *= partial + (n - j + 2) * alpha[j - 1]
        partial += alpha[j - 1]
    return out


# cpf filters the (n+1)^(n-1) parking functions of order n, generated once
# per n: at n = 7 the 8^6 = 262,144 records keep about 145 MiB
CPF_N_MAX = 7


class ParkingFunction:
    """A preference list that parks every car, with its parked outcome.

    Car i prefers spot prefs[i-1] and takes the first free spot from there;
    car[j-1] is the car in spot j, spot[i-1] the spot of car i, and the
    considerate cars are those whose spot nobody prefers.
    """

    __slots__ = ("prefs", "car", "spot", "considerate")

    def __init__(self, prefs):
        prefs = tuple(int(v) for v in prefs)
        n = len(prefs)
        if any(not 1 <= v <= n for v in prefs):
            raise ValueError("preferences must lie in 1..n")
        self._park(prefs)

    @classmethod
    def _unchecked(cls, prefs: tuple) -> "ParkingFunction":
        """The record of prefs, a tuple of ints known to be a parking function."""
        out = object.__new__(cls)
        out._park(prefs)
        return out

    def _park(self, prefs: tuple) -> None:
        n = len(prefs)
        car = [0] * (n + 1)
        spot = []
        for i, j in enumerate(prefs, start=1):
            while j <= n and car[j]:
                j += 1
            if j > n:
                raise ValueError(f"{prefs} is not a parking function")
            car[j] = i
            spot.append(j)
        desired = set(prefs)
        self.prefs = prefs
        self.car = tuple(car[1:])
        self.spot = tuple(spot)
        self.considerate = frozenset(i for i, j in enumerate(spot, start=1)
                                     if j not in desired)

    @classmethod
    def parse(cls, text: str) -> "ParkingFunction":
        text = text.strip()
        values = text.split(",") if "," in text else list(text)
        return cls(int(v) for v in values)

    def __eq__(self, other):
        return isinstance(other, ParkingFunction) and self.prefs == other.prefs

    def __hash__(self):
        return hash(self.prefs)

    def __str__(self):
        if len(self.prefs) <= 9:
            return "".join(str(v) for v in self.prefs)
        return ",".join(str(v) for v in self.prefs)

    def __repr__(self):
        return f"ParkingFunction<{self}>"


@lru_cache(maxsize=None)
def parking_functions(n: int) -> tuple:
    """Every parking function of order n, parked once, in lexicographic
    order: the distinct rearrangements of each weakly increasing list with
    a_i <= i.  parking_functions.cache_clear() frees them."""
    prefs = set()
    for seq in combinations_with_replacement(range(1, n + 1), n):
        if all(a <= i for i, a in enumerate(seq, start=1)):
            prefs.update(permutations(seq))
    return tuple(ParkingFunction._unchecked(p) for p in sorted(prefs))


def cpf(n: int, cars) -> list:
    """All parking functions of order n whose considerate cars include `cars`,
    filtered from parking_functions(n); refuses n above CPF_N_MAX first."""
    cars = frozenset(cars)
    if not cars <= set(range(2, n + 1)):
        raise ValueError("decorated cars must lie in 2..n")
    if n > CPF_N_MAX:
        raise ValueError(f"cpf would generate (n+1)^(n-1) = {n + 1}^{n - 1} = "
                         f"{(n + 1) ** (n - 1):,} parking functions; "
                         f"the budget is n <= {CPF_N_MAX}")
    return [pf for pf in parking_functions(n) if cars <= pf.considerate]


def car_bars(pf: ParkingFunction, cars) -> OrderedSetPartition:
    """Ordered set partition from the parked order, with a bar before every
    car not in `cars` (except the leftmost)."""
    cars = frozenset(cars)
    blocks = []
    for pos, c in enumerate(pf.car):
        if pos == 0 or c not in cars:
            block = [c]
            blocks.append(block)
        else:
            # a block grows only at ascents, so its last car is its largest
            if c < block[-1]:
                raise ValueError("bars must sit at ascents")
            block.append(c)
    # pf.car is a permutation of 1..n
    return OrderedSetPartition._unchecked(tuple(map(tuple, blocks)), len(pf.car))


def area(pf: ParkingFunction, cars) -> int:
    """Spots passed beyond the preference, discounting spots parked in by the
    decorated considerate cars: the spot x of each is discounted once for
    every car i with f_i <= x <= s_i."""
    spot = pf.spot
    total = sum(spot) - sum(pf.prefs)
    for j in frozenset(cars):
        x = spot[j - 1]
        total -= sum(f_i <= x <= s_i for f_i, s_i in zip(pf.prefs, spot))
    return total


def wt_alpha(alpha, pf: ParkingFunction) -> int:
    """Product of hook entries indexed by the car occupying each desired spot."""
    out = 1
    for f_i in pf.prefs:
        out *= alpha[pf.car[f_i - 1] - 1]
    return out
