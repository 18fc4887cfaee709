import random
from itertools import product

import pytest

from teslab import specializations
from teslab.qt_algebra import ONE, Q, LaurentPolyQT, q_int, q_int_product, q_factorial
from teslab.specializations import (
    CPF_N_MAX,
    OSP_BUDGET,
    OrderedSetPartition,
    ParkingFunction,
    area,
    car_bars,
    cpf,
    inv_stat,
    levande_map,
    osp_count,
    osp_enumerate,
    parking_functions,
    psi,
    q_stirling,
    set_of,
    target_tail,
    tes_11,
    tes_t0,
    tes_t1,
    wt_alpha,
)
from teslab.tesler import TeslerMatrix, enumerate_tesler, tes
from teslab.verify import _parking_sums, _tail_products, _weight_t0

OSP = OrderedSetPartition.parse


def scan_cpf(n, cars):
    """The definition: park each of the n^n preference lists, keep those
    that park with every car of `cars` considerate."""
    out = []
    for prefs in product(range(1, n + 1), repeat=n):
        try:
            pf = ParkingFunction(prefs)
        except ValueError:
            continue
        if cars <= pf.considerate:
            out.append(pf)
    return out


def loop_target_tail(alpha, pi):
    """target_tail as one loop over i, with i's block found by a search and
    each tail summed in place."""
    n = len(alpha)
    blocks = [sorted(b) for b in pi.blocks]
    target = []
    tail = []
    for i in range(1, n + 1):
        for bl, b in enumerate(blocks, start=1):
            if i in b:
                break
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


def loop_tes_t1(alpha):
    """The t=1 tail-product sum, one product per ordered set partition."""
    total = LaurentPolyQT()
    for pi in osp_enumerate(len(alpha), set_of(alpha)):
        _, tail = loop_target_tail(alpha, pi)
        term = ONE
        for v in tail:
            term = term * q_int(v)
        total = total + term
    return total


def loop_inv_stat(pi):
    """inv_stat as a loop over each pair of blocks."""
    total = 0
    for j, b in enumerate(pi.blocks):
        for i in range(j):
            total += sum(1 for a in pi.blocks[i] if a > min(b))
    return total


def set_area(pf, cars):
    """area with the landmark spots in each [f_i, s_i] found by set intersection."""
    landmark = {pf.spot[j - 1] for j in cars}
    return sum(s_i - f_i - len(landmark.intersection(range(f_i, s_i + 1)))
               for f_i, s_i in zip(pf.prefs, pf.spot))


def checked_car_bars(pf, cars):
    """car_bars through the validating OrderedSetPartition constructor."""
    blocks = []
    for pos, c in enumerate(pf.car):
        if pos == 0 or c not in cars:
            blocks.append({c})
        else:
            if c < max(blocks[-1]):
                raise ValueError("bars must sit at ascents")
            blocks[-1].add(c)
    return OrderedSetPartition(blocks)


def polynomial_parking_sums(alpha):
    """_parking_sums with one q^area polynomial per parking function, each
    added to its partition's running sum."""
    n = len(alpha)
    S = frozenset(range(1, n + 1)) - set_of(alpha)
    if 1 in S:
        return {}
    sums = {}
    for pf in scan_cpf(n, S):
        pi = checked_car_bars(pf, S)
        sums[pi] = sums.get(pi, LaurentPolyQT()) + Q ** set_area(pf, S)
    return sums


def target_tail_products(alpha):
    """_tail_products with each partition's tails from target_tail."""
    return {pi: q_int_product(target_tail(alpha, pi)[1])
            for pi in osp_enumerate(len(alpha), set_of(alpha))}


def subsets(items):
    items = list(items)
    return [frozenset(x for x, keep in zip(items, mask) if keep)
            for mask in product((0, 1), repeat=len(items))]


class TestOrderedSetPartitions:
    def test_parse_print(self):
        pi = OSP("23|4|1")
        assert str(pi) == "23|4|1"
        assert pi.minima() == (2, 4, 1)

    def test_blocks_are_increasing_tuples(self):
        pi = OrderedSetPartition([{4, 2}, [5, 1, 3]])
        assert pi.blocks == ((2, 4), (1, 3, 5))
        assert pi == OSP("42|513")
        assert str(pi) == "24|135"

    @pytest.mark.parametrize("blocks", [[[1, 1], [2]], [[1], [2, 1]], [[2], [2]], [[1], []],
                                        [[1], [3]]],
                             ids=["repeat", "repeat-across-blocks", "repeated-block",
                                  "empty-block", "gap"])
    def test_constructor_refuses_a_non_partition(self, blocks):
        with pytest.raises(ValueError):
            OrderedSetPartition(blocks)

    def test_parse_refuses_a_repeated_element(self):
        with pytest.raises(ValueError, match="partition"):
            OSP("11|2")

    def test_known_membership(self):
        assert OSP("7|236|45|1") in osp_enumerate(7, {1, 2, 4, 7})

    def test_small_enumeration(self):
        got = {str(pi) for pi in osp_enumerate(3, {1, 2})}
        assert got == {"1|23", "23|1", "13|2", "2|13"}

    def test_single_block(self):
        assert [str(pi) for pi in osp_enumerate(3, {1})] == ["123"]

    def test_missing_one_gives_empty(self):
        assert osp_enumerate(3, {2}) == []

    def test_result_is_fresh(self):
        first = osp_enumerate(4, {1, 3})
        count = len(first)
        first.clear()
        assert len(osp_enumerate(4, {1, 3})) == count

    @pytest.mark.parametrize("n", range(1, 7))
    def test_generated_records_match_the_validating_constructor(self, n):
        for rest in subsets(range(2, n + 1)):
            for pi in osp_enumerate(n, {1, *rest}):
                checked = OrderedSetPartition(pi.blocks)
                for field in OrderedSetPartition.__slots__:
                    assert getattr(pi, field) == getattr(checked, field)
                    assert type(getattr(pi, field)) is type(getattr(checked, field))
                assert all(type(b) is tuple for b in pi.blocks)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_inv_matches_the_loop_over_block_pairs(self, n):
        for rest in subsets(range(2, n + 1)):
            for pi in osp_enumerate(n, {1, *rest}):
                assert inv_stat(pi) == loop_inv_stat(pi)

    @pytest.mark.parametrize("n", range(8))
    def test_count_is_the_length_of_the_enumeration(self, n):
        for minima in subsets(range(1, n + 1)):
            assert osp_count(n, minima) == len(osp_enumerate(n, minima)), minima

    def test_budget_is_inclusive(self, monkeypatch):
        # {1, 3} of {1..4}: 2! orders, 2 is placed after 1 and 4 after 1 or 3
        assert osp_count(4, {1, 3}) == 4
        monkeypatch.setattr(specializations, "OSP_BUDGET", 4)
        assert len(osp_enumerate(4, {1, 3})) == 4
        monkeypatch.setattr(specializations, "OSP_BUDGET", 3)
        with pytest.raises(ValueError, match="there are 4 ordered set partitions"):
            osp_enumerate(4, {1, 3})

    def test_budget_sits_between_cor_5_1_and_nine_blocks(self):
        assert osp_count(8, set(range(1, 9))) <= OSP_BUDGET < osp_count(9, set(range(1, 10)))

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

    def test_weight_at_t0_from_the_entries(self):
        # lemma-5-2's t = 0 weight against the full (q, t) weight specialized
        count = 0
        for n in range(1, 6):
            for alpha in product((0, 1), repeat=n):
                for U in enumerate_tesler(alpha):
                    assert _weight_t0(U) == U.weight().specialize(t=0), U
                    count += 1
        assert count == 1565  # every matrix of the suite at its default bounds


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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_loop_on_every_partition(self, n):
        # three seeded hook vectors in [-2, 2] per partition, nonzero exactly
        # at its block minima
        rng = random.Random(53 + n)
        for minima in subsets(range(2, n + 1)):
            minima = minima | {1}
            for pi in osp_enumerate(n, minima):
                for _ in range(3):
                    alpha = tuple(rng.choice((-2, -1, 1, 2)) if i in minima else 0
                                  for i in range(1, n + 1))
                    assert target_tail(alpha, pi) == loop_target_tail(alpha, pi)


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
                assert U.hooks() == alpha
                assert all(sum(1 for v in row if v) == 1 for row in U.rows)
                expect = ONE
                for v in tail:
                    expect = expect * q_int(v)
                assert U.weight().specialize(t=1) == expect
                images.append(U)
            assert len(set(images)) == len(images)
            assert set(images) == set(enumerate_tesler(alpha, permutational=True))


class TestT1:
    def test_alpha_11(self):
        assert tes_t1((1, 1)) == 2 * ONE + Q

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_loop_on_every_vector(self, n):
        for alpha in product(range(-2, 3), repeat=n):
            assert tes_t1(alpha) == loop_tes_t1(alpha)

    def test_matches_loop_on_every_minima_set_of_five(self):
        rng = random.Random(59)
        for minima in subsets(range(2, 6)):
            minima = minima | {1}
            for _ in range(3):
                alpha = tuple(rng.choice((-2, -1, 1, 2)) if i in minima else 0
                              for i in range(1, 6))
                assert tes_t1(alpha) == loop_tes_t1(alpha)

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
        report = ParkingFunction((5, 1, 2, 1, 1, 4, 2))
        assert report.car == (2, 3, 4, 5, 1, 6, 7)
        assert report.spot == (5, 1, 2, 3, 4, 6, 7)
        assert {4, 7} <= report.considerate

    def test_invalid(self):
        with pytest.raises(ValueError):
            ParkingFunction((3, 1, 3))

    def test_car_spot_inverse(self):
        for prefs in product((1, 2, 3, 4), repeat=4):
            try:
                report = ParkingFunction(prefs)
            except ValueError:
                continue
            for i in range(1, 5):
                assert report.car[report.spot[i - 1] - 1] == i
            # considerate: the cars whose spot no car prefers
            assert report.considerate == {i for i in range(1, 5)
                                          if report.spot[i - 1] not in prefs}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_generated_records_match_the_validating_constructor(self, n):
        for pf in parking_functions(n):
            checked = ParkingFunction(pf.prefs)
            for field in ParkingFunction.__slots__:
                assert getattr(pf, field) == getattr(checked, field)
                assert type(getattr(pf, field)) is type(getattr(checked, field))

    def test_parse_print(self):
        pf = ParkingFunction.parse("5121142")
        assert str(pf) == "5121142"
        assert ParkingFunction.parse("1,1,2").prefs == (1, 1, 2)


class TestCPF:
    def test_small_decorated_set(self):
        got = {str(d) for d in cpf(3, {2})}
        assert got == {"111", "113", "221"}

    def test_car_bars(self):
        pf = ParkingFunction((5, 1, 2, 1, 1, 4, 2))
        assert str(car_bars(pf, {4, 7})) == "2|34|5|1|67"

    def test_area(self):
        assert area(ParkingFunction((5, 1, 2, 1, 1, 4, 2)), {4, 7}) == 8

    def test_area_empty_set_is_classical(self):
        for prefs in product((1, 2, 3), repeat=3):
            try:
                report = ParkingFunction(prefs)
            except ValueError:
                continue
            classical = sum(s - f for s, f in zip(report.spot, prefs))
            assert area(report, frozenset()) == classical

    @pytest.mark.parametrize("n", range(1, 6))
    def test_undecorated_count(self, n):
        # there are (n+1)^(n-1) parking functions of order n: 1, 3, 16, 125, 1296
        assert len(cpf(n, ())) == (n + 1) ** (n - 1)

    def test_budget_refuses_before_scanning(self, monkeypatch):
        def generate(n):
            raise AssertionError("cpf generated parking functions over its budget")

        monkeypatch.setattr(specializations, "parking_functions", generate)
        with pytest.raises(ValueError, match="\\(n\\+1\\)\\^\\(n-1\\) = 9\\^7 = 4,782,969 "):
            cpf(CPF_N_MAX + 1, ())

    @pytest.mark.parametrize("n", range(0, 6))
    def test_matches_the_scan(self, n):
        for cars in subsets(range(2, n + 1)):
            assert {pf.prefs for pf in cpf(n, cars)} == {pf.prefs for pf in scan_cpf(n, cars)}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_generates_each_parking_function_once(self, n):
        prefs = [pf.prefs for pf in parking_functions(n)]
        assert len(set(prefs)) == len(prefs) == (n + 1) ** (n - 1)
        assert prefs == sorted(prefs)

    def test_result_is_fresh(self):
        first = cpf(4, {2})
        count = len(first)
        first.clear()
        assert len(cpf(4, {2})) == count

    @pytest.mark.parametrize("n", range(1, 5))
    def test_tail_products_refine_parking(self, n):
        for alpha in product((0, 1), repeat=n):
            if not alpha[0]:
                continue
            S = frozenset(range(1, n + 1)) - set_of(alpha)
            by_pi = {}
            for d in cpf(n, S):
                pi = car_bars(d, S)
                by_pi.setdefault(pi, LaurentPolyQT())
                by_pi[pi] = by_pi[pi] + Q ** area(d, S)
            for pi in osp_enumerate(n, set_of(alpha)):
                _, tail = target_tail(alpha, pi)
                expect = ONE
                for v in tail:
                    expect = expect * q_int(v)
                assert by_pi.get(pi, LaurentPolyQT()) == expect


class TestCountedStatistics:
    """The statistics and sums of prop-6-3 against their per-object forms."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_area_and_car_bars_match_their_oracles(self, n):
        for pf in parking_functions(n):
            for S in subsets(range(2, n + 1)):
                assert area(pf, S) == set_area(pf, S)
                try:
                    checked = checked_car_bars(pf, S)
                except ValueError:
                    with pytest.raises(ValueError, match="bars must sit at ascents"):
                        car_bars(pf, S)
                    continue
                pi = car_bars(pf, S)
                for field in OrderedSetPartition.__slots__:
                    assert getattr(pi, field) == getattr(checked, field)
                    assert type(getattr(pi, field)) is type(getattr(checked, field))
                assert all(type(b) is tuple for b in pi.blocks)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_parking_sums_match_the_polynomial_sum(self, n):
        # alpha with alpha_1 = 1 reaches every S in {2..n}
        for alpha in product((0, 1), repeat=n):
            got, expect = _parking_sums(alpha), polynomial_parking_sums(alpha)
            assert got == expect
            assert list(got) == list(expect)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_tail_products_match_target_tail(self, n):
        values = (0, 1) if n == 5 else (-1, 0, 1, 2)
        for alpha in product(values, repeat=n):
            got, expect = _tail_products(alpha), target_tail_products(alpha)
            assert got == expect
            assert list(got) == list(expect)


class TestQT11:
    def test_product_values(self):
        assert tes_11((1, 1, 1)) == 16
        assert tes_11((2, 0, 3, 1)) == 308
        assert tes_11((5,)) == 5

    def test_wt_alpha_example(self):
        assert wt_alpha((2, -1, 0, 3), ParkingFunction((2, 1, 2, 1))) == 4

    def test_wt_alpha_all_ones(self):
        assert wt_alpha((1, 1, 1), ParkingFunction((1, 2, 1))) == 1

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
            total = sum(wt_alpha(alpha, d) for d in cpf(n, S))
            assert total == tes_11(alpha)
