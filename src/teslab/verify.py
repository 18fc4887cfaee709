"""Named verification suites: every identity checked by independent routes.

Each suite builds a list of labelled cases, runs them in order, and returns
a machine-readable Report.  _equal_case builds every case: it computes two
or more routes to one value (a polynomial, a number, or a dict or multiset
keyed by ordered set partitions or matrices) and compares each with the
first, so every failure record is {inputs, lhs, rhs}.  A suite over hook
vectors is its vectors plus its routes: _vectors lists every vector of
lengths 1..n_max over a set of entries, and _alpha_cases builds one equal
case per vector from routes that are one-argument functions of it, with
inputs {alpha, **labels}.  Case lists are
deterministic for a given seed and bounds, and the notes are computed from
the suite's own inputs, so a report is a function of (suite, bounds) alone,
apart from elapsed_ms and stats: the slowest cases with their times, and
what the suite did to each teslab lru_cache.
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import combinations_with_replacement, groupby, product
from math import comb

from .macdonald import (
    _check_cap,
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
from .qt_algebra import M, Q, ZERO, LaurentPolyQT, RatFuncQT, q_factorial, q_int_product, qt_int
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
    tail_vectors,
    tes_11,
    tes_t0,
    tes_t1,
    wt_alpha,
)
from .tesler import enumerate_tesler, tes
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
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return asdict(self)


def _equal_case(inputs, first_fn, *other_fns):
    """A case that computes each value in turn and compares it with the first.

    Its failure record is {inputs, lhs: the first value, rhs: the first value
    that differs from it}, the values as strings.
    """
    def compare():
        first = first_fn()
        for fn in other_fns:
            value = fn()
            if value != first:
                return {"inputs": inputs, "lhs": str(first), "rhs": str(value)}
        return None

    return inputs, compare


def _vectors(values, n_max: int) -> list:
    """Every vector of length 1..n_max with entries in values, shortest first."""
    return [alpha for n in range(1, n_max + 1) for alpha in product(values, repeat=n)]


def _alpha_cases(alphas, *routes, **labels) -> list:
    """One _equal_case per hook vector, its inputs {alpha, **labels}, its
    values the routes (one-argument functions) applied to the vector."""
    return [_equal_case({"alpha": list(a), **labels}, *(partial(route, a) for route in routes))
            for a in alphas]


SLOWEST_CASES = 5


def _lru_caches() -> dict:
    """Every lru_cache of a loaded teslab module, by module and name."""
    found = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "teslab" or modname.startswith("teslab."):
            for value in vars(mod).values():
                if hasattr(value, "cache_info"):
                    found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def _cache_counts(caches: dict) -> dict:
    return {name: fn.cache_info() for name, fn in caches.items()}


def _run(name: str, cases: list, observe=None) -> Report:
    """Run the cases in order, then observe() for the notes, if given.

    stats holds the SLOWEST_CASES slowest cases with their inputs and times,
    and, per teslab lru_cache, the hits, misses and entries the suite added.
    """
    if not cases:
        raise ValueError(f"suite {name} builds no case under these bounds")
    caches = _lru_caches()
    before = _cache_counts(caches)
    failures, timed = [], []
    start = time.perf_counter()
    for inputs, check in cases:
        t0 = time.perf_counter()
        result = check()
        timed.append((time.perf_counter() - t0, inputs))
        if result is not None:
            failures.append(result)
    elapsed = int((time.perf_counter() - start) * 1000)
    report = Report(name, len(cases), failures, elapsed)
    if observe is not None:
        report.notes.update(observe())
    after = _cache_counts(caches)
    timed.sort(key=lambda x: -x[0])
    report.stats = {
        "slowest": [{"inputs": inputs, "elapsed_ms": round(dt * 1000, 3)}
                    for dt, inputs in timed[:SLOWEST_CASES]],
        "caches": {key: {"hits": after[key].hits - before[key].hits,
                         "misses": after[key].misses - before[key].misses,
                         "currsize": after[key].currsize - before[key].currsize}
                   for key in sorted(caches)},
    }
    return report


def _entry_values(bounds: Bounds):
    lo, hi = bounds.entry_range
    return range(lo, hi + 1)


def _sweep_length(bounds: Bounds) -> int:
    """The length of the longest vector of _two_route_sweep."""
    return min(bounds.cap(4), 4)


# The cells of the largest partition each suite that runs the Macdonald route
# builds, from its bounds.  The suites take their n_max from here, so the
# check against the partition-size budget before any case sees the
# partitions they build.
MACDONALD_CELLS = {
    "thm-3-1": lambda b: _sweep_length(b) + 1,   # a vector of length n: mu of n + 1
    "cor-3-2": lambda b: _sweep_length(b) + 1,
    "thm-4-1": lambda b: b.cap(4),
    "cor-4-4": lambda b: b.cap(6),
    "cor-4-5": lambda b: b.cap(6),
    "cor-5-1": lambda b: b.cap(7),
}


def _two_route_sweep(bounds: Bounds):
    """Full sweep of lengths 1..3 plus 20 seeded random length-4 vectors."""
    values = list(_entry_values(bounds))
    longest = _sweep_length(bounds)
    alphas = _vectors(values, min(3, longest))
    if longest == 4:
        rng = random.Random(bounds.seed)
        alphas += [tuple(rng.choice(values) for _ in range(4)) for _ in range(20)]
    return alphas


def _f_observations(alphas) -> dict:
    """Scan F^alpha_mu over the requested alphas and every mu of |alpha|+1 cells.

    Reports, never asserts.  Run after the cases, a value is a memo hit,
    or, for a mu lexicographically smaller than mu' that the cases reached
    only through a sum over partitions (which computes mu' alone), a memo
    miss that swaps q and t in the memo entry of mu'.
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
    return _run("thm-3-1", _alpha_cases(alphas, tes, tes_via_theorem),
                lambda: _f_observations(alphas))


def suite_cor_3_2(bounds: Bounds) -> Report:
    cases = _alpha_cases(_two_route_sweep(bounds),
                         lambda a: hilb_tilde(a, "e").to_laurent(), lambda a: tes((1,) + a))
    return _run("cor-3-2", cases)


def suite_lemma_3_3(bounds: Bounds) -> Report:
    # pieri_d is a closed product, not solved from these identities, so every
    # k (including 0..m-1) is an independent check.
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
    """The weakly decreasing tuples of 1..max_len nonzero entries of the range."""
    lo, hi = bounds.entry_range
    values = [v for v in range(hi, lo - 1, -1) if v]
    return [rho for r in range(1, max_len + 1)
            for rho in combinations_with_replacement(values, r)]


def suite_thm_4_1(bounds: Bounds) -> Report:
    rhos = _laurent_partitions(bounds, 3)
    cases = []
    alphas = []
    for n in range(1, MACDONALD_CELLS["thm-4-1"](bounds) + 1):
        alphas.append((0,) * (n - 1))
        alphas.extend(a for rho in rhos for a in distinct_arrangements(rho, n - 1))
        for mu in partitions_of(n):
            for rho in rhos:
                cases.append(_equal_case(
                    {"mu": str(mu), "rho": list(rho)},
                    (lambda mu=mu, rho=rho, n=n: sum(
                        (virtual_F(a, mu) for a in distinct_arrangements(rho, n - 1)),
                        RatFuncQT.from_laurent(0))),
                    (lambda mu=mu, rho=rho, n=n: virtual_F((0,) * (n - 1), mu)
                     * m_eval(rho, partition_stats(mu).B - 1))))
    return _run("thm-4-1", cases, lambda: _f_observations(alphas))


def suite_cor_4_4(bounds: Bounds) -> Report:
    cases = []
    e1 = MonomialSymFn.parse("e:1")
    for n in range(1, MACDONALD_CELLS["cor-4-4"](bounds) + 1):
        for route in ("eigen", "tesler"):
            cases.append(_equal_case({"n": n, "route": f"{route}-vs-closed"},
                                     (lambda n=n, route=route: hilb_delta(e1, n, route)),
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
    for n in range(1, MACDONALD_CELLS["cor-4-5"](bounds) + 1):
        for route in ("eigen", "tesler"):
            cases.append(_equal_case({"n": n, "route": f"{route}-vs-closed"},
                                     (lambda n=n, route=route: hilb_delta(m1, n, route)),
                                     (lambda n=n: closed_forms("m_minus1", n))))
    return _run("cor-4-5", cases)


def suite_lemmas_4_6_4_7(bounds: Bounds) -> Report:
    rng = random.Random(bounds.seed)
    values = list(_entry_values(bounds))
    n_max = bounds.cap(5)
    alphas = [tuple(rng.choice(values) for _ in range(rng.randint(1, n_max)))
              for _ in range(200)]
    qt_inv = LaurentPolyQT.monomial(-1, -1, -1)
    remove_1 = _alpha_cases(
        alphas, lambda a: tes((1,) + a),
        lambda a: sum((tes(a[:i] + (a[i] + 1,) + a[i + 1:]) for i in range(len(a))), tes(a)),
        identity="remove-1")
    negative = _alpha_cases(
        alphas, lambda a: tes(tuple(-v for v in a)), lambda a: qt_inv ** len(a) * tes(a).bar(),
        identity="negative-hooks")
    # per vector: its remove-1 case, then its negative-hooks case
    return _run("lemmas-4-6-4-7", [case for pair in zip(remove_1, negative) for case in pair])


def _inv_sum(alpha) -> LaurentPolyQT:
    """The sum of q^inv(pi) over the ordered set partitions of alpha."""
    return LaurentPolyQT(Counter((inv_stat(pi), 0)
                                 for pi in osp_enumerate(len(alpha), set_of(alpha))))


def suite_cor_5_1(bounds: Bounds) -> Report:
    cases = []
    alphas = _vectors((0, 1), MACDONALD_CELLS["cor-5-1"](bounds))
    for n, of_length_n in groupby(alphas, len):
        cases.extend(_alpha_cases(of_length_n, tes_t0, lambda a: tes(a).specialize(t=0), _inv_sum))
        for k in range(0, n):
            cases.append(_equal_case(
                {"n": n, "k": k, "identity": "q-stirling"},
                # the 0/1 vectors of length n with k + 1 ones
                (lambda n=n, k=k: sum((tes_t0(a) for a in distinct_arrangements((1,) * (k + 1), n)),
                                      LaurentPolyQT())),
                (lambda n=n, k=k: q_factorial(k + 1) * q_stirling(n, k + 1)),
                (lambda n=n, k=k: hilb_delta_prime(MonomialSymFn({(1,) * k: 1}), "e", n)
                 .specialize(t=0))))
    return _run("cor-5-1", cases)


def _tail_products(alpha) -> dict:
    """{pi: the product of [tail_i]_q} over the ordered set partitions of alpha."""
    return {pi: q_int_product(tuple(sorted(tail))) for pi, tail in tail_vectors(alpha)}


def _weight_t0(U) -> LaurentPolyQT:
    """U.weight() at t = 0 for U >= 0, where [a]_{q,t} is q^(a-1) and M is 1 - q."""
    entries = [v for row in U.rows for v in row if v]
    k, low = len(entries) - U.n, sum(entries) - len(entries)
    return LaurentPolyQT({(low + i, 0): comb(k, i) * (-1) ** (k - i) for i in range(k + 1)})


def _fiber_sums(alpha) -> dict:
    """{pi: the sum of the weights at t = 0} over the fiber of levande_map at pi."""
    sums: dict = {}
    for U in enumerate_tesler(alpha):
        pi = levande_map(U)[1]
        sums[pi] = sums.get(pi, ZERO) + _weight_t0(U)
    return sums


def suite_lemma_5_2(bounds: Bounds) -> Report:
    cases = _alpha_cases(
        _vectors((0, 1), bounds.cap(5)), _fiber_sums,
        lambda a: {pi: Q ** inv_stat(pi) for pi in osp_enumerate(len(a), set_of(a))})
    return _run("lemma-5-2", cases)


def _psi_images(alpha) -> tuple:
    """The multiset of psi's images, and {pi: the weight of psi(pi) at t = 1}."""
    images = {pi: psi(alpha, pi) for pi in osp_enumerate(len(alpha), set_of(alpha))}
    # a None image already makes the multisets differ
    return (Counter(images.values()),
            {pi: U.weight().specialize(t=1) for pi, U in images.items() if U is not None})


def suite_prop_6_1(bounds: Bounds) -> Report:
    cases = _alpha_cases(
        [a for a in _vectors((0, 1, 2), bounds.cap(4)) if a[0]], _psi_images,
        lambda a: (Counter(enumerate_tesler(a, permutational=True)), _tail_products(a)))
    return _run("prop-6-1", cases)


def suite_prop_6_2(bounds: Bounds) -> Report:
    cases = _alpha_cases(_vectors(_entry_values(bounds), bounds.cap(4)),
                         tes_t1, lambda a: tes(a).specialize(t=1))
    return _run("prop-6-2", cases)


def _parking_sums(alpha) -> dict:
    """{pi: the sum of q^area} over the parking functions whose considerate
    cars include the zero positions S of alpha, by the partition car_bars
    makes.  That partition depends on the parked order alone, and the order
    can be read back from it, so the (order, area) pairs are counted and
    each partition and its polynomial are built once.  Car 1 is never
    considerate, so there are none when 1 is in S."""
    n = len(alpha)
    S = frozenset(range(1, n + 1)) - set_of(alpha)
    if 1 in S:
        return {}
    pfs = cpf(n, S)
    parked_as = {pf.car: pf for pf in pfs}
    terms: dict = {}
    for (order, a), count in Counter((pf.car, area(pf, S)) for pf in pfs).items():
        terms.setdefault(order, {})[(a, 0)] = count
    return {car_bars(parked_as[order], S): LaurentPolyQT(by_area)
            for order, by_area in terms.items()}


def suite_prop_6_3(bounds: Bounds) -> Report:
    cases = _alpha_cases(_vectors((0, 1), bounds.cap(5)), _parking_sums, _tail_products)
    return _run("prop-6-3", cases)


def _cpf_weight_sum(alpha) -> int:
    """The sum of wt_alpha over the parking functions whose considerate cars
    include the zero positions of alpha."""
    n = len(alpha)
    return sum(wt_alpha(alpha, pf) for pf in cpf(n, frozenset(range(1, n + 1)) - set_of(alpha)))


def suite_prop_6_4(bounds: Bounds) -> Report:
    values = list(_entry_values(bounds))
    cases = _alpha_cases(_vectors(values, bounds.cap(4)),
                         tes_11, lambda a: tes(a).specialize(q=1, t=1),
                         identity="product-formula")
    for n in range(1, bounds.cap(6) + 1):
        cases.append(_equal_case(
            {"n": n, "identity": "parking-count"},
            (lambda n=n: tes_11((1,) * n)),
            (lambda n=n: (n + 1) ** (n - 1))))
        cases.append(_equal_case(
            {"n": n, "identity": "parking-count-enumeration"},
            (lambda n=n: tes((1,) * n).specialize(q=1, t=1)),
            (lambda n=n: (n + 1) ** (n - 1))))
    cases += _alpha_cases([a for a in _vectors(values, min(bounds.cap(4), 4)) if a[0]],
                          _cpf_weight_sum, tes_11, identity="cpf-weight")
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

# The largest n_max of each suite whose work grows with n, checked before
# any case is built.  Each is the largest value timed to finish within a
# minute on one core of a 2-core host (cor-5-1 at 8 takes 24 s, at 9 over
# 60 s; prop-6-3 at 6 takes 1.3 s, at 7 39 s), and none is below its
# suite's default.  thm-3-1 and cor-3-2 do no more work above their defaults.
N_MAX_BUDGETS = {
    "lemma-3-3": 16,
    "thm-4-1": 7,
    "cor-4-4": 10,
    "cor-4-5": 10,
    "lemmas-4-6-4-7": 8,
    "cor-5-1": 8,
    "lemma-5-2": 6,
    "prop-6-1": 6,
    "prop-6-2": 5,
    "prop-6-3": 6,
    "prop-6-4": 6,
}

# The largest max(|lo|, |hi|) of the entry range, timed the same way at each
# suite's default n_max: at 5 the suites that read the range take 1.2 s
# (thm-4-1) to 42 s (prop-6-4), and at 6 prop-6-2 does not finish in 60 s.
ENTRY_RANGE_BUDGET = 5
# The same for --suite all, whose suites that read the range run one after
# another in one process: at 4 they take 27 s together (prop-6-4 10.1 s,
# lemmas-4-6-4-7 5.8 s, prop-6-2 5.1 s, thm-3-1 3.1 s, cor-3-2 2.7 s,
# thm-4-1 0.2 s), at 5 about 94 s.
ALL_ENTRY_RANGE_BUDGET = 4


def _check_budget(name: str, bounds: Bounds) -> None:
    budget = N_MAX_BUDGETS.get(name)
    if budget is not None and bounds.n_max is not None and bounds.n_max > budget:
        raise ValueError(f"suite {name} has an n_max budget of {budget}, got {bounds.n_max}")
    lo, hi = bounds.entry_range
    if max(abs(lo), abs(hi)) > ENTRY_RANGE_BUDGET:
        raise ValueError(f"entry range {lo}..{hi} is over the budget: each end must lie in "
                         f"-{ENTRY_RANGE_BUDGET}..{ENTRY_RANGE_BUDGET}")
    if name in MACDONALD_CELLS:
        _check_cap(MACDONALD_CELLS[name](bounds))


def run_suite(name: str, bounds: Bounds | None = None):
    """Run one named suite (or 'all'); returns a Report or a list of Reports.

    Raises ValueError when a suite builds no case under the given bounds, and,
    before any case is built, when n_max is over a suite's budget, the entry
    range is over ENTRY_RANGE_BUDGET (ALL_ENTRY_RANGE_BUDGET for 'all') or a
    partition a suite would build is over macdonald.PARTITION_SIZE_BUDGET.
    """
    bounds = bounds or Bounds()
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    names = SUITE_NAMES if name == "all" else (name,)
    lo, hi = bounds.entry_range
    if name == "all" and max(abs(lo), abs(hi)) > ALL_ENTRY_RANGE_BUDGET:
        raise ValueError(f"entry range {lo}..{hi} is over the budget of --suite all: each end "
                         f"must lie in -{ALL_ENTRY_RANGE_BUDGET}..{ALL_ENTRY_RANGE_BUDGET}")
    for suite in names:
        _check_budget(suite, bounds)
    reports = [SUITES[suite](bounds) for suite in names]
    return reports if name == "all" else reports[0]
