"""Named verification suites: every identity checked by independent routes.

Each suite builds a list of labelled cases (pure closures returning None on
success or a failure record), runs them in order, and returns a
machine-readable Report.  Case lists are deterministic for a given seed and
bounds, and the notes are computed from the suite's own inputs, so a report
is a function of (suite, bounds) alone, apart from its timings.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import product

from .macdonald import (
    closed_forms,
    hilb_delta,
    hilb_delta_prime,
    hilb_tilde,
    shifted_power_identity_rhs,
    power_identity_rhs,
    pieri_d,
    pieri_power_sum,
    pieri_power_sum_shifted,
    tes_via_theorem,
    virtual_F,
)
from .plethysm import MonomialSymFn, distinct_arrangements, e_plethysm, m_eval
from .qt_algebra import M, ONE, Q, LaurentPolyQT, RatFuncQT, q_factorial, q_int, qt_int
from .specializations import (
    area,
    car_bars,
    cpf,
    inv_stat,
    levande_map,
    osp_enumerate,
    psi,
    q_stirling,
    set_of,
    target_tail,
    tes_11,
    tes_t0,
    tes_t1,
    wt_alpha,
)
from .tesler import enumerate_permutational, enumerate_tesler, tes
from .young import partition_stats, partitions_of


@dataclass
class Bounds:
    n_max: int | None = None
    entry_range: tuple = (-2, 2)
    seed: int = 20260810

    def __post_init__(self):
        # bounds that leave a suite nothing to check must not report a pass
        if self.n_max is not None and self.n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {self.n_max}")
        lo, hi = self.entry_range
        if lo > hi:
            raise ValueError(f"entry range {lo}..{hi} is empty")

    def cap(self, default: int) -> int:
        return default if self.n_max is None else self.n_max


@dataclass
class Report:
    suite: str
    cases_run: int
    failures: list
    elapsed_ms: int
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases_run": self.cases_run,
            "failures": self.failures,
            "elapsed_ms": self.elapsed_ms,
            "notes": self.notes,
        }


def _mismatch(inputs, lhs, rhs):
    return {"inputs": inputs, "lhs": str(lhs), "rhs": str(rhs)}


def _equal_case(inputs, lhs_fn, rhs_fn):
    def check():
        lhs = lhs_fn()
        rhs = rhs_fn()
        if lhs != rhs:
            return _mismatch(inputs, lhs, rhs)
        return None

    return inputs, check


def _run(name: str, cases: list) -> Report:
    if not cases:
        raise ValueError(f"suite {name} builds no case under these bounds")
    start = time.perf_counter()
    results = [check() for _, check in cases]
    failures = [r for r in results if r is not None]
    elapsed = int((time.perf_counter() - start) * 1000)
    return Report(name, len(cases), failures, elapsed)


def _entry_values(bounds: Bounds):
    lo, hi = bounds.entry_range
    return range(lo, hi + 1)


def _two_route_sweep(bounds: Bounds):
    """Full sweep of lengths 1..3 plus 20 seeded random length-4 vectors."""
    values = list(_entry_values(bounds))
    alphas = []
    for n in range(1, min(3, bounds.cap(3)) + 1):
        alphas.extend(product(values, repeat=n))
    if bounds.cap(4) >= 4:
        rng = random.Random(bounds.seed)
        for _ in range(20):
            alphas.append(tuple(rng.choice(values) for _ in range(4)))
    return alphas


def _f_observations(alphas) -> dict:
    """Scan F^alpha_mu over the requested alphas and every mu of |alpha|+1 cells.

    Reports, never asserts.  Run after the cases, every value is a memo hit.
    """
    instances = laurent = poly_when_nonneg = 0
    violations = []
    pairs = ((a, mu) for a in dict.fromkeys(alphas) for mu in partitions_of(len(a) + 1))
    for alpha, mu in pairs:
        value = virtual_F(alpha, mu)
        instances += 1
        if value.is_laurent():
            laurent += 1
            if all(a >= 0 for a in alpha):
                exps = value.to_laurent().terms
                if all(e0 >= 0 and e1 >= 0 for e0, e1 in exps):
                    poly_when_nonneg += 1
                else:
                    violations.append(f"F{alpha}_{mu} not in Z[q,t]")
        else:
            violations.append(f"F{alpha}_{mu} not Laurent")
    return {
        "f_instances": instances,
        "f_laurent": laurent,
        "f_poly_when_entries_nonneg": poly_when_nonneg,
        "violations": violations[:20],
    }


def suite_thm_3_1(bounds: Bounds) -> Report:
    alphas = _two_route_sweep(bounds)
    cases = [
        _equal_case({"alpha": list(a)},
                    (lambda a=a: tes(a)),
                    (lambda a=a: tes_via_theorem(a)))
        for a in alphas
    ]
    report = _run("thm-3-1", cases)
    report.notes.update(_f_observations(alphas))
    return report


def suite_cor_3_2(bounds: Bounds) -> Report:
    cases = [
        _equal_case({"alpha": list(a)},
                    (lambda a=a: hilb_tilde(a, "e").to_laurent()),
                    (lambda a=a: tes((1,) + a)))
        for a in _two_route_sweep(bounds)
    ]
    return _run("cor-3-2", cases)


def suite_lemma_3_3(bounds: Bounds) -> Report:
    cases = []
    for n in range(1, bounds.cap(6) + 1):
        for nu in partitions_of(n):
            m = len(nu.covers())
            for k in range(-2, m + 2):
                cases.append(_equal_case(
                    {"nu": str(nu), "k": k, "identity": "power"},
                    (lambda nu=nu, k=k: pieri_power_sum(pieri_d(nu), k)),
                    (lambda nu=nu, k=k: power_identity_rhs(nu, k))))
                cases.append(_equal_case(
                    {"nu": str(nu), "k": k, "identity": "shifted"},
                    (lambda nu=nu, k=k: pieri_power_sum_shifted(pieri_d(nu), k)),
                    (lambda nu=nu, k=k: shifted_power_identity_rhs(nu, k))))
    for k in range(1, 9):
        sign = 1 if (k - 1) % 2 == 0 else -1
        cases.append(_equal_case(
            {"k": k, "identity": "qt-binomial"},
            (lambda k=k, sign=sign: sign * e_plethysm(k, M)),
            (lambda k=k: qt_int(k) * M)))
    return _run("lemma-3-3", cases)


def _laurent_partitions(bounds: Bounds, max_len: int):
    lo, hi = bounds.entry_range
    values = [v for v in range(hi, lo - 1, -1) if v]
    out = []

    def extend(prefix, start):
        if 0 < len(prefix) <= max_len:
            out.append(tuple(prefix))
        if len(prefix) == max_len:
            return
        for i in range(start, len(values)):
            extend(prefix + [values[i]], i)

    extend([], 0)
    return out


def suite_thm_4_1(bounds: Bounds) -> Report:
    rhos = _laurent_partitions(bounds, 3)
    cases = []
    alphas = []
    for n in range(1, bounds.cap(4) + 1):
        alphas.append((0,) * (n - 1))
        alphas.extend(a for rho in rhos for a in distinct_arrangements(rho, n - 1))
        for mu in partitions_of(n):
            for rho in rhos:
                def check(mu=mu, rho=rho, n=n):
                    total = RatFuncQT.from_laurent(0)
                    for a in distinct_arrangements(rho, n - 1):
                        total = total + virtual_F(a, mu)
                    expect = (virtual_F((0,) * (n - 1), mu)
                              * m_eval(rho, partition_stats(mu).B - 1))
                    if total != expect:
                        return _mismatch({"mu": str(mu), "rho": list(rho)}, total, expect)
                    return None

                cases.append(({"mu": str(mu), "rho": list(rho)}, check))
    report = _run("thm-4-1", cases)
    report.notes.update(_f_observations(alphas))
    return report


def suite_cor_4_4(bounds: Bounds) -> Report:
    cases = []
    e1 = MonomialSymFn.parse("e:1")
    for n in range(1, bounds.cap(6) + 1):
        cases.append(_equal_case({"n": n, "route": "eigen-vs-closed"},
                                 (lambda n=n: hilb_delta(e1, n, "eigen")),
                                 (lambda n=n: closed_forms("e1", n))))
        cases.append(_equal_case({"n": n, "route": "tesler-vs-closed"},
                                 (lambda n=n: hilb_delta(e1, n, "tesler")),
                                 (lambda n=n: closed_forms("e1", n))))
        for route in ("eigen", "tesler"):
            cases.append(_equal_case(
                {"n": n, "route": f"e2-pn-{route}-vs-closed"},
                (lambda n=n, route=route: _delta_e2_pn(n, route)),
                (lambda n=n: closed_forms("e2_pn", n))))
    return _run("cor-4-4", cases)


def _delta_e2_pn(n: int, route: str) -> LaurentPolyQT:
    # Delta_{e_2} = Delta'_{e_2} + Delta'_{e_1} on degree-n symmetric functions
    e2 = MonomialSymFn({(1, 1): 1})
    e1 = MonomialSymFn({(1,): 1})
    return hilb_delta_prime(e2, "p", n, route) + hilb_delta_prime(e1, "p", n, route)


def suite_cor_4_5(bounds: Bounds) -> Report:
    cases = []
    m1 = MonomialSymFn.parse("m:-1")
    for n in range(1, bounds.cap(6) + 1):
        cases.append(_equal_case({"n": n, "route": "eigen-vs-closed"},
                                 (lambda n=n: hilb_delta(m1, n, "eigen")),
                                 (lambda n=n: closed_forms("m_minus1", n))))
        cases.append(_equal_case({"n": n, "route": "tesler-vs-closed"},
                                 (lambda n=n: hilb_delta(m1, n, "tesler")),
                                 (lambda n=n: closed_forms("m_minus1", n))))
    return _run("cor-4-5", cases)


def suite_lemmas_4_6_4_7(bounds: Bounds) -> Report:
    rng = random.Random(bounds.seed)
    values = list(_entry_values(bounds))
    n_max = bounds.cap(5)
    cases = []
    qt_inv = LaurentPolyQT.monomial(-1, -1, -1)
    for _ in range(200):
        n = rng.randint(1, n_max)
        alpha = tuple(rng.choice(values) for _ in range(n))

        def check_remove_one(alpha=alpha):
            lhs = tes((1,) + alpha)
            rhs = tes(alpha)
            for i in range(len(alpha)):
                rhs = rhs + tes(alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:])
            if lhs != rhs:
                return _mismatch({"alpha": list(alpha), "identity": "remove-1"}, lhs, rhs)
            return None

        def check_negative(alpha=alpha, n=n):
            lhs = tes(tuple(-a for a in alpha))
            rhs = qt_inv ** n * tes(alpha).bar()
            if lhs != rhs:
                return _mismatch({"alpha": list(alpha), "identity": "negative-hooks"}, lhs, rhs)
            return None

        cases.append(({"alpha": list(alpha), "identity": "remove-1"}, check_remove_one))
        cases.append(({"alpha": list(alpha), "identity": "negative-hooks"}, check_negative))
    return _run("lemmas-4-6-4-7", cases)


def suite_cor_5_1(bounds: Bounds) -> Report:
    cases = []
    n_max = bounds.cap(7)
    for n in range(1, n_max + 1):
        for alpha in product((0, 1), repeat=n):
            def check(alpha=alpha, n=n):
                formula = tes_t0(alpha)
                enum = tes(alpha).specialize(t=0)
                osp_sum = LaurentPolyQT()
                for pi in osp_enumerate(n, set_of(alpha)):
                    osp_sum = osp_sum + Q ** inv_stat(pi)
                if not (formula == enum == osp_sum):
                    return _mismatch({"alpha": list(alpha)}, enum, formula)
                return None

            cases.append(({"alpha": list(alpha)}, check))
        for k in range(0, n):
            def check_stirling(n=n, k=k):
                total = LaurentPolyQT()
                for alpha in product((0, 1), repeat=n):
                    if sum(alpha) == k + 1:
                        total = total + tes_t0(alpha)
                expect = q_factorial(k + 1) * q_stirling(n, k + 1)
                if total != expect:
                    return _mismatch({"n": n, "k": k, "identity": "q-stirling"},
                                     total, expect)
                ek = MonomialSymFn({(1,) * k: 1})
                via_delta = hilb_delta_prime(ek, "e", n).specialize(t=0)
                if via_delta != expect:
                    return _mismatch({"n": n, "k": k, "identity": "q-stirling-delta"},
                                     via_delta, expect)
                return None

            cases.append(({"n": n, "k": k, "identity": "q-stirling"}, check_stirling))
    return _run("cor-5-1", cases)


def suite_lemma_5_2(bounds: Bounds) -> Report:
    cases = []
    for n in range(1, bounds.cap(5) + 1):
        for alpha in product((0, 1), repeat=n):
            def check(alpha=alpha, n=n):
                fibers: dict = {}
                for U in enumerate_tesler(alpha):
                    _, pi = levande_map(U)
                    fibers[pi] = fibers.get(pi, LaurentPolyQT()) + U.weight().specialize(t=0)
                expected_pis = osp_enumerate(n, set_of(alpha))
                if set(fibers) - set(expected_pis):
                    return _mismatch({"alpha": list(alpha)}, sorted(map(str, fibers)),
                                     "image within the ordered set partitions")
                for pi in expected_pis:
                    got = fibers.get(pi, LaurentPolyQT())
                    expect = Q ** inv_stat(pi)
                    if got != expect:
                        return _mismatch({"alpha": list(alpha), "pi": str(pi)}, got, expect)
                return None

            cases.append(({"alpha": list(alpha)}, check))
    return _run("lemma-5-2", cases)


def suite_prop_6_1(bounds: Bounds) -> Report:
    cases = []
    for n in range(1, bounds.cap(4) + 1):
        for alpha in product((0, 1, 2), repeat=n):
            if not alpha[0]:
                continue

            def check(alpha=alpha, n=n):
                images = []
                for pi in osp_enumerate(n, set_of(alpha)):
                    _, tail = target_tail(alpha, pi)
                    U = psi(alpha, pi)
                    if U is None or U.hooks() != alpha or not U.is_permutational():
                        return _mismatch({"alpha": list(alpha), "pi": str(pi)},
                                         U, "a permutational matrix with these hooks")
                    expect = ONE
                    for v in tail:
                        expect = expect * q_int(v)
                    if U.weight().specialize(t=1) != expect:
                        return _mismatch({"alpha": list(alpha), "pi": str(pi)},
                                         U.weight().specialize(t=1), expect)
                    images.append(U)
                if len(set(images)) != len(images):
                    return _mismatch({"alpha": list(alpha)}, "psi not injective", "")
                if set(images) != set(enumerate_permutational(alpha)):
                    return _mismatch({"alpha": list(alpha)}, "psi not surjective", "")
                return None

            cases.append(({"alpha": list(alpha)}, check))
    return _run("prop-6-1", cases)


def suite_prop_6_2(bounds: Bounds) -> Report:
    values = list(_entry_values(bounds))
    cases = []
    for n in range(1, bounds.cap(4) + 1):
        for alpha in product(values, repeat=n):
            cases.append(_equal_case(
                {"alpha": list(alpha)},
                (lambda a=alpha: tes_t1(a)),
                (lambda a=alpha: tes(a).specialize(t=1))))
    return _run("prop-6-2", cases)


def suite_prop_6_3(bounds: Bounds) -> Report:
    cases = []
    for n in range(1, bounds.cap(5) + 1):
        for alpha in product((0, 1), repeat=n):
            def check(alpha=alpha, n=n):
                pis = osp_enumerate(n, set_of(alpha))
                if not alpha[0]:
                    if pis:
                        return _mismatch({"alpha": list(alpha)}, pis, "no partitions")
                    return None
                S = frozenset(range(1, n + 1)) - set_of(alpha)
                by_pi: dict = {}
                for d in cpf(n, S):
                    pi = car_bars(d.pf.prefs, S)
                    by_pi[pi] = by_pi.get(pi, LaurentPolyQT()) + Q ** area(d.pf.prefs, S)
                for pi in pis:
                    _, tail = target_tail(alpha, pi)
                    expect = ONE
                    for v in tail:
                        expect = expect * q_int(v)
                    if by_pi.get(pi, LaurentPolyQT()) != expect:
                        return _mismatch({"alpha": list(alpha), "pi": str(pi)},
                                         by_pi.get(pi, LaurentPolyQT()), expect)
                if set(by_pi) - set(pis):
                    return _mismatch({"alpha": list(alpha)},
                                     sorted(map(str, by_pi)), "bars land on the partitions")
                return None

            cases.append(({"alpha": list(alpha)}, check))
    return _run("prop-6-3", cases)


def suite_prop_6_4(bounds: Bounds) -> Report:
    values = list(_entry_values(bounds))
    cases = []
    for n in range(1, bounds.cap(4) + 1):
        for alpha in product(values, repeat=n):
            cases.append(_equal_case(
                {"alpha": list(alpha), "identity": "product-formula"},
                (lambda a=alpha: tes_11(a)),
                (lambda a=alpha: tes(a).specialize(q=1, t=1))))
    for n in range(1, bounds.cap(6) + 1):
        cases.append(_equal_case(
            {"n": n, "identity": "parking-count"},
            (lambda n=n: tes_11((1,) * n)),
            (lambda n=n: (n + 1) ** (n - 1))))
        cases.append(_equal_case(
            {"n": n, "identity": "parking-count-enumeration"},
            (lambda n=n: tes((1,) * n).specialize(q=1, t=1)),
            (lambda n=n: (n + 1) ** (n - 1))))
    for n in range(1, min(bounds.cap(4), 4) + 1):
        for alpha in product(values, repeat=n):
            if not alpha[0]:
                continue
            S = frozenset(range(1, n + 1)) - set_of(alpha)

            def check(alpha=alpha, n=n, S=S):
                total = sum(wt_alpha(alpha, d.pf.prefs) for d in cpf(n, S))
                expect = tes_11(alpha)
                if total != expect:
                    return _mismatch({"alpha": list(alpha), "identity": "cpf-weight"},
                                     total, expect)
                return None

            cases.append(({"alpha": list(alpha), "identity": "cpf-weight"}, check))
    return _run("prop-6-4", cases)


SUITES = {
    "thm-3-1": suite_thm_3_1,
    "cor-3-2": suite_cor_3_2,
    "lemma-3-3": suite_lemma_3_3,
    "thm-4-1": suite_thm_4_1,
    "cor-4-4": suite_cor_4_4,
    "cor-4-5": suite_cor_4_5,
    "lemmas-4-6-4-7": suite_lemmas_4_6_4_7,
    "cor-5-1": suite_cor_5_1,
    "lemma-5-2": suite_lemma_5_2,
    "prop-6-1": suite_prop_6_1,
    "prop-6-2": suite_prop_6_2,
    "prop-6-3": suite_prop_6_3,
    "prop-6-4": suite_prop_6_4,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, bounds: Bounds | None = None):
    """Run one named suite (or 'all'); returns a Report or a list of Reports.

    Raises ValueError when a suite builds no case under the given bounds.
    """
    bounds = bounds or Bounds()
    if name == "all":
        return [suite(bounds) for suite in SUITES.values()]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name](bounds)
