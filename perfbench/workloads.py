"""Seeded workloads of the teslab benchmark and their correctness checks.

A workload is a list of requests, each one computation call into teslab's
public functions, plus a check of every result by a route that shares no
code with the layer being timed.  Inputs come only from the seed; teslab
receives nothing but the generated hook vectors and arguments.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
TES6_FILE = HERE / "tes6.json"
DIGEST_FILE = HERE / "digests.json"
DEFAULT_SEED = 1

# The length-6 0/1 hook vectors with the shapes of the length-7 ones that
# dominate the cor-5-1 suite.  Each takes 30-140 ms cold; the length-7 ones
# take 1.6-4.4 s, too long to repeat often enough in one run (see README).
HOOKS6 = ((1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 0),
          (1, 1, 1, 1, 0, 1), (1, 1, 1, 0, 1, 1))
# tes6.json holds 14 length-6 vectors in [-2, 2] whose Tesler matrix count
# lies in this band (see regen.py).  The count sets the cost of tes, and the
# band leaves out blow-ups such as (2^6), whose tes took 174 s.
TES6_BAND = (4000, 8000)
TES6_COUNT = 14


def _tvt_shapes(count: int) -> tuple:
    """Absolute values of the tes_via_theorem hooks; each seed picks the signs.

    The cost of a request follows the absolute values and their positions,
    so fixing them keeps every seed's pass at a similar cost.
    """
    rng = random.Random(0)
    return tuple(tuple(abs(rng.randint(-2, 2)) for _ in range(5)) for _ in range(count))


TVT_SHAPES = _tvt_shapes(4)
# n of the hilb_delta and hilb_delta_prime requests, and the k of e:k.
EIGEN_N = 6
HDP_K = (1, 2)
# The verify suites of cli-session: the ones that take well under a second
# here.  thm-3-1, cor-3-2 and prop-6-4 take 1.2-2.8 s each, and the first two
# draw their cases from --seed, so their cost changes with the seed.
CLI_SUITES = ("lemma-3-3", "prop-6-2", "prop-6-3")
CLI_HILB_F = ("e:1", "m:-1", "e:2", "s:2,1")
# With the hilb calls at n = 6 (0.1-0.4 s each) the median latency falls
# on a hilb call that meets the same caches whatever the seed, and that is
# long enough for the calibration to track; with n = 5 alone it fell on
# tes on the seeded hooks or on enumerate.
CLI_HILB_N = (5, 6)
ENUM_HOOKS = (1, 1, 1, 1, 1, 1)


@dataclass
class Workload:
    """One workload instance: the requests of a pass and how to check them.

    requests is a list of (label, thunk); a thunk makes one call into teslab.
    cold says whether every request starts from empty caches, or only the
    first request of a pass.  tail_pct is the latency percentile reported as
    req_tail_ms: it leaves at least ten samples beyond it in a run of this
    workload at the default run length, and falls on the same request of
    the pass whatever the number of passes.  check maps the results
    of a pass, by label, to the reason of each label whose result is wrong;
    render gives the text of a result that its digest covers.
    """

    name: str
    requests: list
    cold: bool
    tail_pct: int
    check: Callable[[dict], dict]
    render: Callable[[str, object], str]

    def digest(self, label: str, result) -> str:
        return hashlib.sha256(self.render(label, result).encode()).hexdigest()[:16]


def _poly_text(label, poly) -> str:
    return json.dumps(poly.json_terms())


def count_tesler(alpha) -> int:
    """Number of Tesler matrices with hook sums alpha, by a row-state count.

    Shares no code with teslab.tesler: row i's total is alpha_i plus the
    column sum above the diagonal, and the count recurses on the column sums
    left for the rows below.
    """
    alpha = tuple(alpha)

    @lru_cache(maxsize=None)
    def rest(i, cols):
        s = alpha[i] + cols[0]
        if s == 0:
            return 0
        if i == len(alpha) - 1:
            return 1
        sign = 1 if s > 0 else -1
        return sum(rest(i + 1, tuple(c + sign * v for c, v in zip(cols[1:], comp[1:])))
                   for comp in _compositions(abs(s), len(alpha) - i))

    return rest(0, (0,) * len(alpha))


@lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> tuple:
    if parts == 1:
        return ((total,),)
    return tuple((first,) + rest for first in range(total + 1)
                 for rest in _compositions(total - first, parts - 1))


def _negate(alpha):
    return tuple(-a for a in alpha)


def _tes_checks(ts, results, hooks_of):
    """tes at q=t=1 against tes_11, and at t=0 against tes_t0 for 0/1 hooks."""
    spec = ts.specializations
    bad = {}
    for label, value in results.items():
        alpha = hooks_of[label]
        if value.specialize(q=1, t=1) != spec.tes_11(alpha):
            bad[label] = "q=t=1 value differs from tes_11"
        elif set(alpha) <= {0, 1} and value.specialize(t=0) != spec.tes_t0(alpha):
            bad[label] = "t=0 value differs from tes_t0"
    return bad


def tes_large(ts, seed: int) -> Workload:
    """Cold tesler.tes on length-6 0/1 hooks and seeded length-6 vectors."""
    rng = random.Random(seed)
    tes6 = [tuple(v) for v in json.loads(TES6_FILE.read_text())["vectors"]]
    # Negation keeps the enumeration tree but not the cost: tes of (-1)^7
    # took 6.2-6.4 s against 4.1-5.2 s for (1^7).  So exactly half the
    # tes6.json vectors are negated, and the 0/1 hooks never are.
    flip = set(rng.sample(range(len(tes6)), len(tes6) // 2))
    vectors = list(HOOKS6) + [_negate(v) if i in flip else v for i, v in enumerate(tes6)]
    rng.shuffle(vectors)
    tesler = ts.tesler
    hooks_of = {f"tes{v}": v for v in vectors}
    requests = [(f"tes{v}", lambda v=v: tesler.tes(v)) for v in vectors]
    return Workload("tes-large", requests, cold=True, tail_pct=70,
                    check=lambda results: _tes_checks(ts, results, hooks_of),
                    render=_poly_text)


def eigen_large(ts, seed: int) -> Workload:
    """Cold Macdonald-route calls: tes_via_theorem at n = 5, hilb at n = 6."""
    rng = random.Random(seed)
    mac = ts.macdonald
    parse = ts.plethysm.MonomialSymFn.parse
    requests = []
    tvt_hooks = {}
    for shape in TVT_SHAPES:
        alpha = tuple(rng.choice((a, -a)) for a in shape)
        label = f"tes_via_theorem{alpha}"
        tvt_hooks[label] = alpha
        requests.append((label, lambda a=alpha: mac.tes_via_theorem(a)))
    closed = {}
    for text, form in (("e:1", "e1"), ("m:-1", "m_minus1")):
        label = f"hilb_delta({text},{EIGEN_N})"
        closed[label] = form
        requests.append((label, lambda f=parse(text): mac.hilb_delta(f, EIGEN_N)))
    stirling = {}
    for k in HDP_K:
        label = f"hilb_delta_prime(e:{k},e,{EIGEN_N})"
        stirling[label] = k
        requests.append((label, lambda f=parse(f"e:{k}"): mac.hilb_delta_prime(f, "e", EIGEN_N)))
    rng.shuffle(requests)

    def check(results):
        bad = _tes_checks(ts, {k: v for k, v in results.items() if k in tvt_hooks}, tvt_hooks)
        for label, form in closed.items():
            if results[label] != mac.closed_forms(form, EIGEN_N):
                bad[label] = f"differs from closed_forms({form!r}, {EIGEN_N})"
        qa, spec = ts.qt_algebra, ts.specializations
        for label, k in stirling.items():
            expect = qa.q_factorial(k + 1) * spec.q_stirling(EIGEN_N, k + 1)
            if results[label].specialize(t=0) != expect:
                bad[label] = f"t=0 value differs from [k+1]_q! S_q({EIGEN_N}, k+1)"
        return bad

    return Workload("eigen-large", requests, cold=True, tail_pct=60,
                    check=check, render=_poly_text)


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_text(label, result) -> str:
    code, text = result
    if label.startswith("verify:"):
        # verify reports carry timings; keep only what the suite computed
        report = json.loads(text)
        text = json.dumps([report["suite"], report["cases_run"], report["failures"]])
    return f"{code}\n{text}"


def _coeff_sum(terms) -> int:
    return sum(int(c) for _, _, c in terms)


def cli_session(ts, seed: int) -> Workload:
    """A fixed sequence of in-process CLI calls sharing warm caches."""
    rng = random.Random(seed)
    hooks = (rng.choice((-2, -1, 1, 2)),) + tuple(rng.randint(-2, 2) for _ in range(3))
    hooks_arg = "--hooks=" + ",".join(map(str, hooks))
    # The calls on the seeded hooks run last, so every other call meets the
    # same warm caches whatever the seed.
    argvs = [(f"hilb({f},{n})", ["hilb", "--f", f, "--n", str(n)]) for n in CLI_HILB_N for f in CLI_HILB_F]
    argvs += [("enumerate", ["enumerate", "--hooks", ",".join(map(str, ENUM_HOOKS))])]
    argvs += [(f"verify:{s}", ["verify", "--suite", s, "--seed", str(seed)]) for s in CLI_SUITES]
    argvs += [
        ("tes-enum", ["tes", hooks_arg, "--route", "enum", "--format", "json"]),
        ("tes-macdonald", ["tes", hooks_arg, "--route", "macdonald", "--format", "json"]),
        ("tes-closed", ["tes", hooks_arg, "--route", "closed", "--spec", "q=t=1"]),
    ]
    cli = ts.cli
    requests = [(label, lambda a=argv: _run_cli(cli, a)) for label, argv in argvs]

    def check(results):
        bad = {label: f"exit code {code}" for label, (code, _) in results.items() if code}
        enum = json.loads(results["tes-enum"][1])["terms"]
        if json.loads(results["tes-macdonald"][1])["terms"] != enum:
            bad["tes-macdonald"] = "Macdonald route differs from the enumeration"
        if int(results["tes-closed"][1]) != _coeff_sum(enum):
            bad["tes-closed"] = "closed form differs from the enumeration at q=t=1"
        lines = results["enumerate"][1].splitlines()
        if len(lines) != count_tesler(ENUM_HOOKS):
            bad["enumerate"] = f"{len(lines)} matrices, expected {count_tesler(ENUM_HOOKS)}"
        for s in CLI_SUITES:
            report = json.loads(results[f"verify:{s}"][1])
            if report["suite"] != s or report["failures"]:
                bad[f"verify:{s}"] = "suite reported failures"
        return bad

    return Workload("cli-session", requests, cold=False, tail_pct=82,
                    check=check, render=_cli_text)


WORKLOADS = {"tes-large": tes_large, "eigen-large": eigen_large, "cli-session": cli_session}


def recorded_digests(name: str, seed: int):
    """Digests of every result recorded for the default seed, or None."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(DIGEST_FILE.read_text()).get(name)
