"""Partitions, Young-diagram cell statistics, and covering relations.

Diagrams use French coordinates: a cell is (x, y) with x the column and y the
row, both zero-based, so the coarm is x and the coleg is y.  Everything here
is pure and immutable.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .qt_algebra import ONE, LaurentPolyQT


class CellStats(NamedTuple):
    a: int        # arm: cells strictly to the right
    a_prime: int  # coarm: cells strictly to the left
    l: int        # leg: cells strictly above
    l_prime: int  # coleg: cells strictly below


class PartitionStats(NamedTuple):
    T: LaurentPolyQT   # product of q^coarm t^coleg over all cells (a monomial)
    B: LaurentPolyQT   # sum of q^coarm t^coleg over all cells


class Partition:
    """Weakly decreasing positive integer parts."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        self.parts = parts

    @classmethod
    def parse(cls, text: str) -> "Partition":
        text = text.strip()
        if not text:
            return cls(())
        return cls(int(p) for p in text.split(","))

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def __repr__(self) -> str:
        return f"Partition({self.parts})"

    def cells(self):
        return [(x, y) for y, row in enumerate(self.parts) for x in range(row)]

    def contains_cell(self, cell) -> bool:
        x, y = cell
        return 0 <= y < len(self.parts) and 0 <= x < self.parts[y]

    def cell_stats(self, cell) -> CellStats:
        if not self.contains_cell(cell):
            raise ValueError(f"cell {cell} outside diagram of {self}")
        x, y = cell
        arm = self.parts[y] - 1 - x
        leg = sum(1 for yy in range(y + 1, len(self.parts)) if self.parts[yy] > x)
        return CellStats(arm, x, leg, y)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        cols = [0] * self.parts[0]
        for p in self.parts:
            for x in range(p):
                cols[x] += 1
        return Partition(cols)

    def covers(self):
        """Partitions obtained by adding one cell, with the added cell.

        Ordered by the added cell's row index, ascending.
        """
        out = []
        parts = self.parts
        for y in range(len(parts) + 1):
            if y < len(parts):
                if y > 0 and parts[y - 1] == parts[y]:
                    continue
                bigger = parts[:y] + (parts[y] + 1,) + parts[y + 1:]
                out.append((Partition(bigger), (parts[y], y)))
            else:
                out.append((Partition(parts + (1,)), (0, y)))
        return out

    def cocovers(self):
        """Partitions obtained by removing one corner cell, with the cell."""
        out = []
        parts = self.parts
        for y in range(len(parts)):
            if y + 1 < len(parts) and parts[y + 1] == parts[y]:
                continue
            smaller = parts[:y] + ((parts[y] - 1,) if parts[y] > 1 else ()) + parts[y + 1:]
            out.append((Partition(smaller), (parts[y] - 1, y)))
        return out


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in reverse lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [Partition(p) for p in _partition_tuples(n, n)]


@lru_cache(maxsize=None)
def _partition_tuples(n: int, max_part: int):
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def partition_stats(mu: Partition) -> PartitionStats:
    """T and B of a nonempty partition; its Pi and w stay factored in
    pi_factors and w_factors."""
    if not mu.parts:
        raise ValueError("empty partition has no statistics")
    T = ONE
    B = LaurentPolyQT()
    for cell in mu.cells():
        st = mu.cell_stats(cell)
        mono = LaurentPolyQT.monomial(1, st.a_prime, st.l_prime)
        T = T * mono
        B = B + mono
    return PartitionStats(T, B)


def pi_factors(mu: Partition) -> list:
    """The binomials 1 - q^coarm t^coleg of Pi, one per cell other than (0, 0)."""
    return [LaurentPolyQT({(0, 0): 1, cell: -1}) for cell in mu.cells() if cell != (0, 0)]


def w_cell_factors(st: CellStats):
    """The two w factors of one cell: q^a - t^(l+1) and t^l - q^(a+1)."""
    return (
        LaurentPolyQT({(st.a, 0): 1, (0, st.l + 1): -1}),
        LaurentPolyQT({(0, st.l): 1, (st.a + 1, 0): -1}),
    )


@lru_cache(maxsize=None)
def w_factors(mu: Partition) -> tuple:
    """The 2|mu| binomial factors of w, kept unexpanded for fraction denominators.

    w is the product of (q^a - t^(l+1))(t^l - q^(a+1)) over the cells of mu.
    """
    out = []
    for cell in mu.cells():
        out.extend(w_cell_factors(mu.cell_stats(cell)))
    return tuple(out)


def cover_monomial(nu: Partition, mu: Partition) -> LaurentPolyQT:
    """T_mu / T_nu for a cover mu of nu, always the monomial of the added cell."""
    for bigger, cell in nu.covers():
        if bigger == mu:
            return LaurentPolyQT.monomial(1, cell[0], cell[1])
    raise ValueError(f"{mu} does not cover {nu}")
