"""Combinatorial models for the t=0, t=1, and q=t=1 specializations.

Ordered set partitions with an inversion statistic and the array-building map
from matrices cover t=0; permutational matrices, target/tail vectors and the
psi map cover t=1; parking functions with considerate cars and a discounted
area statistic refine the t=1 product, and a rotation-style product formula
covers q=t=1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product

from .qt_algebra import ONE, ZERO, LaurentPolyQT, q_int
from .tesler import TeslerMatrix


class OrderedSetPartition:
    """Ordered disjoint nonempty blocks covering {1..n}."""

    __slots__ = ("blocks", "n")

    def __init__(self, blocks):
        blocks = tuple(frozenset(b) for b in blocks)
        if any(not b for b in blocks):
            raise ValueError("blocks must be nonempty")
        n = sum(len(b) for b in blocks)
        seen = set()
        for b in blocks:
            seen |= b
        if seen != set(range(1, n + 1)):
            raise ValueError("blocks must partition {1..n}")
        self.blocks = blocks
        self.n = n

    @classmethod
    def parse(cls, text: str) -> "OrderedSetPartition":
        return cls([{int(ch) for ch in part} for part in text.strip().split("|")])

    def minima(self) -> tuple:
        return tuple(min(b) for b in self.blocks)

    def block_of(self, x: int) -> int:
        """1-based index of the block containing x."""
        for i, b in enumerate(self.blocks):
            if x in b:
                return i + 1
        raise ValueError(f"{x} not in any block")

    def __eq__(self, other):
        return isinstance(other, OrderedSetPartition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __str__(self):
        return "|".join("".join(str(x) for x in sorted(b)) for b in self.blocks)

    def __repr__(self):
        return f"OSP<{self}>"


def osp_enumerate(n: int, minima: set) -> list:
    """All ordered set partitions of {1..n} whose block minima are exactly
    the given set; empty unless 1 is a minimum."""
    minima = set(minima)
    if not minima <= set(range(1, n + 1)):
        raise ValueError("minima must lie in {1..n}")
    if 1 not in minima:
        return []
    rest = [x for x in range(1, n + 1) if x not in minima]
    out = []
    for order in permutations(sorted(minima)):
        allowed = [[i for i, m in enumerate(order) if m < x] for x in rest]
        for choice in product(*allowed):
            blocks = [{m} for m in order]
            for x, i in zip(rest, choice):
                blocks[i].add(x)
            out.append(OrderedSetPartition(blocks))
    return out


def inv_stat(pi: OrderedSetPartition) -> int:
    """Pairs a > b with a strictly left of b's block and b a block minimum."""
    total = 0
    for j, b in enumerate(pi.blocks):
        m = min(b)
        for i in range(j):
            total += sum(1 for a in pi.blocks[i] if a > m)
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
    out = ONE
    partial = 0
    for a in alpha:
        partial += a
        out = out * q_int(partial)
    return out


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
    blocks = [{leader} for leader in leaders]
    placed = set(leaders)
    for x in range(1, n + 1):
        if x in placed:
            continue
        r = max(r for r in range(len(rows)) if x in rows[r])
        blocks[block_index[rows[r][0]]].add(x)
    array = tuple(tuple(row) for row in rows)
    return array, OrderedSetPartition(blocks)


def target_tail(alpha, pi: OrderedSetPartition):
    """The scanning vectors attached to an ordered set partition.

    target_i is the first element greater than i reading rightward from i
    (blocks written in increasing order), or i itself; tail_i sums the hook
    entries indexed by the block minima from the first block right of the
    nearest larger element on the left, through i's block.
    """
    alpha = tuple(alpha)
    n = len(alpha)
    if pi.n != n:
        raise ValueError("hook vector and partition sizes differ")
    if set(pi.minima()) != set_of(alpha):
        raise ValueError("minima mismatch")
    blocks = [sorted(b) for b in pi.blocks]
    target = []
    tail = []
    for i in range(1, n + 1):
        bl = pi.block_of(i)
        tgt = i
        own = [x for x in blocks[bl - 1] if x > i]
        if own:
            tgt = own[0]
        else:
            for r in range(bl, len(blocks)):
                bigger = [x for x in blocks[r] if x > i]
                if bigger:
                    tgt = bigger[0]
                    break
        target.append(tgt)
        m_i = 1
        for r in range(bl - 1, 0, -1):
            if max(blocks[r - 1]) > i:
                m_i = r + 1
                break
        tail.append(sum(alpha[min(blocks[r - 1]) - 1] for r in range(m_i, bl + 1)))
    return tuple(target), tuple(tail)


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


def tes_t1(alpha) -> LaurentPolyQT:
    """Tail-product formula over ordered set partitions: the t=1 value."""
    alpha = tuple(alpha)
    total = ZERO
    for pi in osp_enumerate(len(alpha), set_of(alpha)):
        _, tail = target_tail(alpha, pi)
        term = ONE
        for v in tail:
            term = term * q_int(v)
            if term.is_zero():
                break
        total = total + term
    return total


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


@dataclass(frozen=True)
class ParkReport:
    valid: bool
    car: tuple   # car[i-1] = label parked in spot i
    spot: tuple  # spot[i-1] = spot taken by car i
    cons: frozenset  # considerate cars: spots desired by nobody


def park_analysis(prefs) -> ParkReport:
    """Simulate the parking process for a preference list."""
    prefs = tuple(int(v) for v in prefs)
    n = len(prefs)
    if any(not 1 <= v <= n for v in prefs):
        raise ValueError("preferences must lie in 1..n")
    taken = [0] * (n + 1)
    spot = []
    ok = True
    for i, p in enumerate(prefs, start=1):
        j = p
        while j <= n and taken[j]:
            j += 1
        if j > n:
            ok = False
            break
        taken[j] = i
        spot.append(j)
    if not ok:
        return ParkReport(False, (), (), frozenset())
    car = tuple(taken[1:])
    desired = set(prefs)
    cons = frozenset(i for i in range(1, n + 1) if spot[i - 1] not in desired)
    return ParkReport(True, car, tuple(spot), cons)


class ParkingFunction:
    """Preference list whose increasing rearrangement parks (f_(i) <= i)."""

    __slots__ = ("prefs",)

    def __init__(self, prefs):
        prefs = tuple(int(v) for v in prefs)
        if not park_analysis(prefs).valid:
            raise ValueError(f"{prefs} is not a parking function")
        self.prefs = prefs

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


@dataclass(frozen=True)
class DecoratedParkingFunction:
    pf: ParkingFunction
    cars: frozenset

    def __post_init__(self):
        report = park_analysis(self.pf.prefs)
        if not self.cars <= report.cons:
            raise ValueError("every decorated car must be considerate")


def cpf(n: int, cars) -> list:
    """All parking functions of order n whose considerate cars include `cars`,
    by filtering the n^n preference lists."""
    cars = frozenset(cars)
    if not cars <= set(range(2, n + 1)):
        raise ValueError("decorated cars must lie in 2..n")
    out = []
    for prefs in product(range(1, n + 1), repeat=n):
        report = park_analysis(prefs)
        if report.valid and cars <= report.cons:
            out.append(DecoratedParkingFunction(ParkingFunction(prefs), cars))
    return out


def car_bars(prefs, cars) -> OrderedSetPartition:
    """Ordered set partition from the parked order, with a bar before every
    car not in `cars` (except the leftmost)."""
    report = park_analysis(tuple(prefs))
    if not report.valid:
        raise ValueError("not a parking function")
    cars = frozenset(cars)
    blocks = []
    for pos, c in enumerate(report.car):
        if pos == 0 or c not in cars:
            blocks.append({c})
        else:
            if c < max(blocks[-1]):
                raise ValueError("bars must sit at ascents")
            blocks[-1].add(c)
    return OrderedSetPartition(blocks)


def area(prefs, cars) -> int:
    """Spots passed beyond the preference, discounting spots parked in by the
    decorated considerate cars."""
    report = park_analysis(tuple(prefs))
    if not report.valid:
        raise ValueError("not a parking function")
    cars = frozenset(cars)
    landmark = {report.spot[j - 1] for j in cars}
    total = 0
    for i, f_i in enumerate(tuple(prefs), start=1):
        s_i = report.spot[i - 1]
        passed = set(range(f_i, s_i + 1))
        total += s_i - f_i - len(passed & landmark)
    return total


def wt_alpha(alpha, prefs) -> int:
    """Product of hook entries indexed by the car occupying each desired spot."""
    alpha = tuple(alpha)
    report = park_analysis(tuple(prefs))
    if not report.valid:
        raise ValueError("not a parking function")
    out = 1
    for f_i in prefs:
        out *= alpha[report.car[f_i - 1] - 1]
    return out

