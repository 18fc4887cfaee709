"""Acceptance gate: every criterion at its stated bounds, one test each.

All identities are exact equalities of canonical Laurent polynomials, checked
through at least two independent computational routes.  Each test prints one
pass line; any failure carries the offending inputs in the report.
"""

import math

from teslab.macdonald import virtual_F
from teslab.plethysm import MonomialSymFn
from teslab.specializations import (
    OrderedSetPartition,
    ParkingFunction,
    area,
    car_bars,
    cpf,
    inv_stat,
    psi,
    target_tail,
    wt_alpha,
)
from teslab.tesler import TeslerMatrix, tes
from teslab.verify import Bounds, run_suite
from teslab.young import partition_stats, partitions_of


def _gate(name, report):
    assert report.failures == [], f"{name}: {report.failures[:3]}"
    print(f"ACCEPTANCE {name}: PASS ({report.cases_run} cases, {report.elapsed_ms} ms)")


def test_criterion_01_tesler_function_two_routes():
    _gate("criterion 1 (thm-3-1)", run_suite("thm-3-1", Bounds()))


def test_criterion_02_shifted_hooks_e_route():
    _gate("criterion 2 (cor-3-2)", run_suite("cor-3-2", Bounds()))


def test_criterion_03_pieri_overdetermined():
    _gate("criterion 3 (lemma-3-3)", run_suite("lemma-3-3", Bounds()))


def test_criterion_04_sorted_hook_sums_per_eigenvector():
    _gate("criterion 4 (thm-4-1)", run_suite("thm-4-1", Bounds()))


def test_criterion_05_binomial_closed_forms():
    _gate("criterion 5 (cor-4-4)", run_suite("cor-4-4", Bounds()))


def test_criterion_06_reciprocal_closed_form():
    _gate("criterion 6 (cor-4-5)", run_suite("cor-4-5", Bounds()))


def test_criterion_07_remove_one_and_negation():
    _gate("criterion 7 (lemmas-4-6-4-7)", run_suite("lemmas-4-6-4-7", Bounds()))


def test_criterion_08_t0_three_way_and_q_stirling():
    _gate("criterion 8 (cor-5-1)", run_suite("cor-5-1", Bounds()))


def test_criterion_09_fiber_sums():
    _gate("criterion 9 (lemma-5-2)", run_suite("lemma-5-2", Bounds()))


def test_criterion_10_psi_bijection_and_t1():
    _gate("criterion 10a (prop-6-1)", run_suite("prop-6-1", Bounds()))
    _gate("criterion 10b (prop-6-2)", run_suite("prop-6-2", Bounds()))


def test_criterion_11_parking_refinement():
    _gate("criterion 11 (prop-6-3)", run_suite("prop-6-3", Bounds()))


def test_criterion_12_q_t_one_product_formula():
    _gate("criterion 12 (prop-6-4)", run_suite("prop-6-4", Bounds()))


def test_criterion_13_virtual_series_basics():
    for n in range(1, 7):
        for mu in partitions_of(n):
            value = virtual_F((0,) * (n - 1), mu).to_laurent()
            assert value.specialize(q=1, t=1) == math.factorial(n), mu
    for n in range(1, 6):
        for mu in partitions_of(n):
            base = virtual_F((0,) * (n - 1), mu).to_laurent()
            T_mu = partition_stats(mu).T
            for k in range(-2, 3):
                assert virtual_F((k,) * (n - 1), mu).to_laurent() == T_mu ** k * base
    print("ACCEPTANCE criterion 13: PASS (factorials to n=6, monomial scaling to n=5)")


def test_criterion_14_golden_examples():
    U = TeslerMatrix([[0, 1, 0, 2], [0, -1, -1, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert U.hooks() == (3, -3, 2, -1)

    assert inv_stat(OrderedSetPartition.parse("5|24|13")) == 4

    pi = OrderedSetPartition.parse("3|12|4")
    target, tail = target_tail((2, 0, 3, 1), pi)
    assert target == (2, 4, 4, 4)
    assert tail == (2, 2, 3, 6)

    image = psi((2, 0, 3, 1), pi)
    assert image.rows == ((0, 2, 0, 0), (0, 0, 0, 2), (0, 0, 0, 3), (0, 0, 0, 6))

    assert {str(d) for d in cpf(3, {2})} == {"111", "113", "221"}

    report = ParkingFunction((5, 1, 2, 1, 1, 4, 2))
    assert report.car == (2, 3, 4, 5, 1, 6, 7)
    assert report.spot == (5, 1, 2, 3, 4, 6, 7)
    assert str(car_bars(report, {4, 7})) == "2|34|5|1|67"
    assert area(report, {4, 7}) == 8

    assert wt_alpha((2, -1, 0, 3), ParkingFunction((2, 1, 2, 1))) == 4

    from teslab.macdonald import hilb_delta

    f = MonomialSymFn.parse("s:3,2,1")
    explicit = (
        tes((1, 3, 2)) + tes((1, 2, 3)) + tes((1, 3, 1)) + 2 * tes((1, 2, 2))
        + tes((1, 1, 3)) + tes((1, 2, 1)) + tes((1, 1, 2))
    )
    assert hilb_delta(f, 3, "tesler") == explicit
    assert hilb_delta(f, 3, "eigen") == explicit
    print("ACCEPTANCE criterion 14: PASS (all golden examples)")


def test_criterion_15_observational_integrality_report():
    # Non-fatal by construction: the suites never assert these containments,
    # they only report them.  This test checks the report exists and surfaces it.
    report = run_suite("thm-4-1", Bounds(n_max=3))
    notes = report.notes
    assert notes.get("f_instances", 0) > 0
    print(
        "ACCEPTANCE criterion 15: REPORTED "
        f"({notes['f_instances']} virtual series computed, "
        f"{notes['f_laurent']} Laurent, "
        f"{notes['f_poly_when_entries_nonneg']} polynomial with nonnegative hooks, "
        f"violations: {notes['violations'] or 'none observed'})"
    )
