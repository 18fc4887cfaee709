import math

import pytest

from teslab.qt_algebra import M, ONE, Q, T, LaurentPolyQT
from teslab.young import (
    CellStats,
    Partition,
    cover_monomial,
    partition_count,
    partition_stats,
    partitions_of,
    pi_factors,
    w_factors,
)


class TestPartitionBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))
        assert Partition(()).parts == ()

    def test_parts_and_str(self):
        p = Partition([2, 2, 1])
        assert p.parts == (2, 2, 1)
        assert str(p) == "2,2,1"

    def test_empty_partition(self):
        empty = Partition()
        assert empty == Partition(()) and empty.n == 0 and str(empty) == ""
        assert empty.conjugate() == empty
        assert repr(Partition([3, 1])) == "Partition((3, 1))"

    def test_conjugate_transposes_the_cells(self):
        for n in range(8):
            for mu in partitions_of(n):
                conj = mu.conjugate()
                assert sorted(conj.cells()) == sorted((y, x) for x, y in mu.cells())
                assert conj.conjugate() == mu

    def test_partitions_of(self):
        assert [p.parts for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]
        assert [p.parts for p in partitions_of(0)] == [()]
        assert len(partitions_of(5)) == 7

    def test_partition_count(self):
        for n in range(14):
            assert partition_count(n) == len(partitions_of(n))
        for count in (partition_count, partitions_of):
            with pytest.raises(ValueError, match="nonnegative"):
                count(-1)


class TestCellStats:
    def test_figure_example(self):
        # (4,3) in French orientation: top-row third column
        assert Partition((4, 3)).cell_stats((2, 1)) == CellStats(0, 0)
        assert Partition((4, 3)).cell_stats((1, 0)) == CellStats(2, 1)

    def test_single_cell(self):
        assert Partition((1,)).cell_stats((0, 0)) == CellStats(0, 0)

    def test_two_by_two_corner(self):
        assert Partition((2, 2)).cell_stats((0, 0)) == CellStats(1, 1)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_a_count_of_the_cells(self, n):
        for mu in partitions_of(n):
            cells = mu.cells()
            for x, y in cells:
                right = sum(1 for cx, cy in cells if cy == y and cx > x)
                above = sum(1 for cx, cy in cells if cx == x and cy > y)
                assert mu.cell_stats((x, y)) == CellStats(right, above), (mu, (x, y))

    def test_outside_cell(self):
        for cell in ((1, 1), (2, 0), (0, 2), (-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                Partition((2, 1)).cell_stats(cell)


def _w(mu):
    return math.prod(w_factors(mu), start=ONE)


def _pi(mu):
    return math.prod(pi_factors(mu), start=ONE)


class TestPartitionStats:
    def test_single_cell(self):
        st = partition_stats(Partition((1,)))
        assert st.T == ONE and st.B == ONE and _pi(Partition((1,))) == ONE
        assert _w(Partition((1,))) == M

    def test_row_of_two(self):
        st = partition_stats(Partition((2,)))
        assert st.T == Q
        assert st.B == ONE + Q
        assert _pi(Partition((2,))) == ONE - Q
        assert _w(Partition((2,))) == (Q - T) * (ONE - Q * Q) * (ONE - T) * (ONE - Q)

    def test_square_B(self):
        assert partition_stats(Partition((2, 2))).B == ONE + Q + T + Q * T

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            partition_stats(Partition(()))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_B_counts_cells(self, n):
        for mu in partitions_of(n):
            assert partition_stats(mu).B.specialize(q=1, t=1) == n

    @pytest.mark.parametrize("n", range(1, 8))
    def test_T_is_product_of_B_monomials(self, n):
        for mu in partitions_of(n):
            st = partition_stats(mu)
            prod = ONE
            for mono, c in st.B.terms.items():
                assert c == 1
                prod = prod * LaurentPolyQT.monomial(1, *mono)
            assert prod == st.T

    @pytest.mark.parametrize("n", range(1, 7))
    def test_conjugation_swaps_q_t(self, n):
        for mu in partitions_of(n):
            st = partition_stats(mu)
            stc = partition_stats(mu.conjugate())
            assert stc.T == st.T.swap_qt()
            assert stc.B == st.B.swap_qt()
            assert _pi(mu.conjugate()) == _pi(mu).swap_qt()
            assert _w(mu.conjugate()) == _w(mu).swap_qt()


class TestCovers:
    def test_covers_of_single_cell(self):
        assert [(m.parts, c) for m, c in Partition((1,)).covers()] == [
            ((2,), (1, 0)),
            ((1, 1), (0, 1)),
        ]

    def test_cocovers(self):
        assert [m.parts for m, _ in Partition((2, 1)).cocovers()] == [(1, 1), (2,)]
        assert Partition(()).cocovers() == []

    def test_cover_monomial_of_a_non_cover(self):
        for mu in (Partition((3, 2)), Partition((2, 1)), Partition((1,))):
            with pytest.raises(ValueError, match="does not cover"):
                cover_monomial(Partition((2, 1)), mu)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_mutually_inverse(self, n):
        for nu in partitions_of(n):
            for mu, _ in nu.covers():
                assert nu in [p for p, _ in mu.cocovers()]
        for mu in partitions_of(n + 1):
            for nu, _ in mu.cocovers():
                assert mu in [p for p, _ in nu.covers()]

    @pytest.mark.parametrize("n", range(0, 7))
    def test_cover_monomials_distinct(self, n):
        for nu in partitions_of(n):
            monos = []
            for mu, cell in nu.covers():
                mono = cover_monomial(nu, mu)
                assert mono == LaurentPolyQT.monomial(1, cell[0], cell[1])
                if nu.parts:
                    ratio = partition_stats(mu).T * partition_stats(nu).T.bar()
                    assert ratio == mono
                monos.append(mono)
            assert len(set(monos)) == len(monos)
