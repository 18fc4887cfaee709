import random
from itertools import product

import pytest

from teslab.qt_algebra import ONE, Q, LaurentPolyQT, q_int, q_factorial
from teslab.specializations import (
    OrderedSetPartition,
    ParkingFunction,
    area,
    car_bars,
    cpf,
    inv_stat,
    levande_map,
    osp_enumerate,
    park_analysis,
    psi,
    q_stirling,
    set_of,
    target_tail,
    tes_11,
    tes_t0,
    tes_t1,
    wt_alpha,
)
from teslab.tesler import TeslerMatrix, enumerate_permutational, enumerate_tesler, tes

OSP = OrderedSetPartition.parse


class TestOrderedSetPartitions:
    def test_parse_print(self):
        pi = OSP("23|4|1")
        assert str(pi) == "23|4|1"
        assert pi.minima() == (2, 4, 1)

    def test_known_membership(self):
        assert OSP("7|236|45|1") in osp_enumerate(7, {1, 2, 4, 7})

    def test_small_enumeration(self):
        got = {str(pi) for pi in osp_enumerate(3, {1, 2})}
        assert got == {"1|23", "23|1", "13|2", "2|13"}

    def test_single_block(self):
        assert [str(pi) for pi in osp_enumerate(3, {1})] == ["123"]

    def test_missing_one_gives_empty(self):
        assert osp_enumerate(3, {2}) == []

    def test_inv_examples(self):
        assert inv_stat(OSP("5|24|13")) == 4
        assert inv_stat(OSP("1|23")) == 0
        assert inv_stat(OSP("23|1")) == 2


class TestQStirling:
    def test_initial(self):
        assert q_stirling(0, 0) == ONE
        assert q_stirling(2, 3).is_zero()
        assert q_stirling(3, -1).is_zero()

    def test_three_two(self):
        assert q_stirling(3, 2) == 2 * ONE + Q

    @pytest.mark.parametrize("n", range(0, 9))
    def test_diagonal(self, n):
        assert q_stirling(n, n) == ONE


class TestT0:
    def test_product_formula(self):
        assert tes_t0((1, 1, 0)) == (ONE + Q) * (ONE + Q)

    def test_factorial(self):
        for n in range(1, 6):
            assert tes_t0((1,) * n) == q_factorial(n)

    def test_zero_start(self):
        assert tes_t0((0, 1, 1)).is_zero()

    def test_rejects_other_entries(self):
        with pytest.raises(ValueError):
            tes_t0((2, 0))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_three_way_equality(self, n):
        for alpha in product((0, 1), repeat=n):
            enum = tes(alpha).specialize(t=0) if alpha[0] else LaurentPolyQT()
            formula = tes_t0(alpha)
            osp_sum = LaurentPolyQT()
            for pi in osp_enumerate(n, set_of(alpha)):
                osp_sum = osp_sum + Q ** inv_stat(pi)
            assert enum == formula == osp_sum


class TestLevande:
    def test_worked_array_and_osp(self):
        U = TeslerMatrix([[0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
        array, pi = levande_map(U)
        assert array == ((1, 4), (4,), (2, 3))
        assert str(pi) == "23|4|1"

    def test_identity_matrix(self):
        U = TeslerMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        _, pi = levande_map(U)
        assert str(pi) == "1|2|3"

    def test_precondition(self):
        with pytest.raises(ValueError):
            levande_map(TeslerMatrix([[2, 0], [0, 2]]))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_fiber_sums(self, n):
        for alpha in product((0, 1), repeat=n):
            fibers = {}
            for U in enumerate_tesler(alpha):
                _, pi = levande_map(U)
                fibers.setdefault(pi, LaurentPolyQT())
                fibers[pi] = fibers[pi] + U.weight().specialize(t=0)
            for pi in osp_enumerate(n, set_of(alpha)):
                assert fibers.get(pi, LaurentPolyQT()) == Q ** inv_stat(pi)
            assert set(fibers) <= set(osp_enumerate(n, set_of(alpha)))


class TestTargetTail:
    def test_worked_target(self):
        _, pi = (None, OSP("3|12|4"))
        target, _ = target_tail((2, 0, 3, 1), pi)
        assert target == (2, 4, 4, 4)

    def test_worked_tail(self):
        _, tail = target_tail((2, 0, 3, 1), OSP("3|12|4"))
        assert tail == (2, 2, 3, 6)

    def test_degenerate_tail(self):
        _, tail = target_tail((2, 0, -3, 1), OSP("3|12|4"))
        assert tail[3] == 0

    def test_minima_mismatch(self):
        with pytest.raises(ValueError, match="minima mismatch"):
            target_tail((1, 1, 0, 0), OSP("3|12|4"))


class TestPsi:
    def test_worked_matrix(self):
        U = psi((2, 0, 3, 1), OSP("3|12|4"))
        assert U.rows == ((0, 2, 0, 0), (0, 0, 0, 2), (0, 0, 0, 3), (0, 0, 0, 6))
        assert U.hooks() == (2, 0, 3, 1)

    def test_superdiagonal(self):
        U = psi((1, 1, 1), OSP("1|2|3"))
        assert U.rows == ((0, 1, 0), (0, 0, 2), (0, 0, 3))

    def test_degenerate(self):
        assert psi((2, 0, -3, 1), OSP("3|12|4")) is None

    @pytest.mark.parametrize("n", range(1, 5))
    def test_bijection_with_weights(self, n):
        rng = random.Random(23)
        candidates = [v for v in product((0, 1, 2), repeat=n) if v[0]]
        vectors = rng.sample(candidates, min(12, len(candidates)))
        for alpha in vectors:
            images = []
            for pi in osp_enumerate(n, set_of(alpha)):
                _, tail = target_tail(alpha, pi)
                U = psi(alpha, pi)
                assert U is not None
                assert U.hooks() == alpha and U.is_permutational()
                expect = ONE
                for v in tail:
                    expect = expect * q_int(v)
                assert U.weight().specialize(t=1) == expect
                images.append(U)
            assert len(set(images)) == len(images)
            assert set(images) == set(enumerate_permutational(alpha))


class TestT1:
    def test_alpha_11(self):
        assert tes_t1((1, 1)) == 2 * ONE + Q

    def test_matches_specialization(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(1, 4)
            alpha = tuple(rng.randint(-2, 2) for _ in range(n))
            assert tes_t1(alpha) == tes(alpha).specialize(t=1)

    def test_contains_worked_term(self):
        # the tail product for 3|12|4 contributes [2][2][3][6]
        term = q_int(2) * q_int(2) * q_int(3) * q_int(6)
        total = tes_t1((2, 0, 3, 1))
        rest = total - term
        assert total == tes((2, 0, 3, 1)).specialize(t=1)
        assert rest + term == total


class TestParking:
    def test_car_spot_example(self):
        report = park_analysis((5, 1, 2, 1, 1, 4, 2))
        assert report.valid
        assert report.car == (2, 3, 4, 5, 1, 6, 7)
        assert report.spot == (5, 1, 2, 3, 4, 6, 7)
        assert {4, 7} <= report.cons

    def test_invalid(self):
        assert not park_analysis((3, 1, 3)).valid
        with pytest.raises(ValueError):
            ParkingFunction((3, 1, 3))

    def test_car_spot_inverse(self):
        for prefs in product((1, 2, 3, 4), repeat=4):
            report = park_analysis(prefs)
            if not report.valid:
                continue
            for i in range(1, 5):
                assert report.car[report.spot[i - 1] - 1] == i

    def test_parse_print(self):
        pf = ParkingFunction.parse("5121142")
        assert str(pf) == "5121142"
        assert ParkingFunction.parse("1,1,2").prefs == (1, 1, 2)


class TestCPF:
    def test_small_decorated_set(self):
        got = {str(d.pf) for d in cpf(3, {2})}
        assert got == {"111", "113", "221"}

    def test_car_bars(self):
        assert str(car_bars((5, 1, 2, 1, 1, 4, 2), {4, 7})) == "2|34|5|1|67"

    def test_area(self):
        assert area((5, 1, 2, 1, 1, 4, 2), {4, 7}) == 8

    def test_area_empty_set_is_classical(self):
        for prefs in product((1, 2, 3), repeat=3):
            report = park_analysis(prefs)
            if not report.valid:
                continue
            classical = sum(s - f for s, f in zip(report.spot, prefs))
            assert area(prefs, frozenset()) == classical

    @pytest.mark.parametrize("n", range(1, 5))
    def test_tail_products_refine_parking(self, n):
        for alpha in product((0, 1), repeat=n):
            if not alpha[0]:
                continue
            S = frozenset(range(1, n + 1)) - set_of(alpha)
            by_pi = {}
            for d in cpf(n, S):
                pi = car_bars(d.pf.prefs, S)
                by_pi.setdefault(pi, LaurentPolyQT())
                by_pi[pi] = by_pi[pi] + Q ** area(d.pf.prefs, S)
            for pi in osp_enumerate(n, set_of(alpha)):
                _, tail = target_tail(alpha, pi)
                expect = ONE
                for v in tail:
                    expect = expect * q_int(v)
                assert by_pi.get(pi, LaurentPolyQT()) == expect


class TestQT11:
    def test_product_values(self):
        assert tes_11((1, 1, 1)) == 16
        assert tes_11((2, 0, 3, 1)) == 308
        assert tes_11((5,)) == 5

    def test_wt_alpha_example(self):
        assert wt_alpha((2, -1, 0, 3), (2, 1, 2, 1)) == 4

    def test_wt_alpha_all_ones(self):
        assert wt_alpha((1, 1, 1), (1, 2, 1)) == 1

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_specialization(self, n):
        rng = random.Random(41)
        for _ in range(12):
            alpha = tuple(rng.randint(-2, 2) for _ in range(n))
            assert tes_11(alpha) == tes(alpha).specialize(q=1, t=1)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_cpf_weight_sum(self, n):
        rng = random.Random(43)
        for _ in range(8):
            alpha = tuple(rng.randint(-2, 2) for _ in range(n))
            S = frozenset(range(1, n + 1)) - set_of(alpha)
            if not S <= set(range(2, n + 1)):
                continue  # car 1 cannot be considerate
            total = sum(wt_alpha(alpha, d.pf.prefs) for d in cpf(n, S))
            assert total == tes_11(alpha)
