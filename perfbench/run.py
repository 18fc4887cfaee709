#!/usr/bin/env python3
"""teslab benchmark: cold tes, cold Macdonald route, and a warm CLI session.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tes-large --seed 1 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: each request is one
call into teslab, sent after the previous one returns.  A pass is the
workload's seeded list of requests; the run repeats whole passes while the
next one is expected to end within --seconds (always at least one).  The
cold workloads clear every teslab cache before each request; cli-session
clears them before each pass, so its calls share warm caches.  Every result
is checked outside the timed region.  The last line of stdout is the result
as JSON; lines before it starting with '#' give the details.

Times are reported in reference seconds.  Between requests the run times a
fixed calibration loop that shares no code with teslab; each request's time
is scaled by CALIBRATION_S over the mean time of the loops on either side of
it, and reduced to its median over the passes.  On a shared machine whose
speed swings by 1.7x from one moment to the next, this cancels the swing.

With --trace 1 the run makes a traced pass between two untraced ones and
reports the per-layer metrics of the traced one (see spans.py); every pass
must return the same results.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import workloads  # beside this file, so on sys.path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
# Calibration loops timed between requests and around each set-up.
CALIBRATION_REPEATS = 4
# Time of one calibration loop at the reference speed: its fastest time on
# an unloaded core of the machine the README's figures come from.
CALIBRATION_S = 0.003

# Two fixed sparse polynomials in q and t, as teslab's own are: dicts from
# exponent pairs to integer coefficients.
_CAL_A = {(i, j): (7 * i + 3 * j) % 11 - 5 for i in range(14) for j in range(14) if (i + j) % 3}
_CAL_B = {(i, j): (5 * i + j) % 7 - 3 for i in range(12) for j in range(12) if i * j % 4 != 1}


def calibration_loop() -> dict:
    """Multiply _CAL_A by _CAL_B: dict, tuple and integer work like teslab's."""
    out = {}
    for (a1, a2), x in _CAL_A.items():
        for (b1, b2), y in _CAL_B.items():
            key = (a1 + b1, a2 + b2)
            out[key] = out.get(key, 0) + x * y
    return out


def calibrate(out: dict) -> None:
    """Time CALIBRATION_REPEATS loops, in wall and CPU time, into out."""
    for _ in range(CALIBRATION_REPEATS):
        t0, c0 = time.perf_counter(), time.process_time()
        calibration_loop()
        c1, t1 = time.process_time(), time.perf_counter()
        out["cal"].append(t1 - t0)
        out["cal_cpu"].append(c1 - c0)


def import_teslab() -> SimpleNamespace:
    """Import teslab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "teslab" / "__init__.py").is_file():
        sys.exit(f"error: no teslab sources under {src}")
    sys.path.insert(0, str(src))
    import teslab
    from teslab import cli, macdonald, plethysm, qt_algebra, specializations, tesler, verify, young

    if Path(teslab.__file__).resolve().parent != (src / "teslab").resolve():
        sys.exit(f"error: imported teslab from {teslab.__file__}, not from {src}")
    return SimpleNamespace(cli=cli, macdonald=macdonald, plethysm=plethysm,
                           qt_algebra=qt_algebra, specializations=specializations,
                           tesler=tesler, verify=verify, young=young)


def setup(name: str, seed: int):
    ts = import_teslab()
    return ts, workloads.WORKLOADS[name](ts, seed)


def cache_clearers() -> list:
    """cache_clear of every lru_cache and every clear_caches() in teslab."""
    found = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "teslab" and not modname.startswith("teslab."):
            continue
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                found[id(value)] = clear
        clear = vars(mod).get("clear_caches")
        if callable(clear):
            found[id(clear)] = clear
    return list(found.values())


def clear_caches(clearers, before=None) -> None:
    if before is not None:
        before()
    for clear in clearers:
        clear()


def run_pass(wl, clearers, before_clear=None) -> dict:
    """One pass over the workload's requests; timings exclude cache clearing."""
    out = {"latency": [], "cpu": [], "cal": [], "cal_cpu": [], "results": {}, "errors": {}}
    for i, (label, call) in enumerate(wl.requests):
        if wl.cold or i == 0:
            clear_caches(clearers, before_clear)
        gc.collect()
        calibrate(out)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = call()
        except Exception as exc:  # a failed request is counted, not fatal
            result = None
            out["errors"][label] = f"{type(exc).__name__}: {exc}"
        c1, t1 = time.process_time(), time.perf_counter()
        out["latency"].append(t1 - t0)
        out["cpu"].append(c1 - c0)
        if result is not None:
            out["results"][label] = result
    calibrate(out)  # so the last request, too, has loops on both sides
    out["maxrss"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


def run_timed(wl, clearers, seconds: float) -> list:
    passes = []
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(wl, clearers))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return passes


def measure_setup(name: str, seed: int) -> tuple:
    """Wall times of fresh processes that start, import teslab and make inputs.

    Returns the raw times and the times in reference seconds, each scaled by
    the calibration loops timed just before and after it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        cal = {"cal": [], "cal_cpu": []}
        calibrate(cal)
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        calibrate(cal)
        scaled.append(raw[-1] * CALIBRATION_S / statistics.mean(cal["cal"]))
    return raw, scaled


def grade(wl, seed: int, passes: list) -> dict:
    """Count failed requests: errors, checks, and digest mismatches."""
    results = passes[0]["results"]
    reasons = dict(passes[0]["errors"])
    try:
        reasons.update(wl.check({k: v for k, v in results.items() if k not in reasons}))
    except Exception as exc:  # a check that cannot run fails every request
        reasons.update({label: f"check raised {type(exc).__name__}: {exc}"
                        for label, _ in wl.requests})
    expected = {label: wl.digest(label, value) for label, value in results.items()}
    recorded = workloads.recorded_digests(wl.name, seed)
    if recorded is not None:
        for label, digest in expected.items():
            if recorded.get(label) != digest:
                reasons.setdefault(label, "digest differs from the recorded one")
    attempted = failed = 0
    for p in passes:
        for label, _ in wl.requests:
            attempted += 1
            if label in reasons or label in p["errors"]:
                failed += 1
            elif wl.digest(label, p["results"][label]) != expected[label]:
                failed += 1
                reasons.setdefault(label, "result differs between passes")
    return {"attempted": attempted, "failed": failed, "reasons": reasons}


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "processes": 1,
        "threads": threading.active_count(),
        "verify_jobs": 1,
        "client": "closed loop, one client",
    }


def tail(latencies: list, pct: int):
    value = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    return value, sum(1 for x in latencies if x > value)


def request_scaled(passes: list, key: str, cal_key: str) -> list:
    """Each request's time in reference seconds, in request order.

    The machine's speed swings at a scale of milliseconds, so a request's
    time measures the share of it spent in slow moments as much as the
    program.  The calibration loops timed just before and just after a
    request sample the same stretch of time, so its time is scaled by
    CALIBRATION_S over their mean.  Each request then takes its median over
    the run's passes.
    """
    r = CALIBRATION_REPEATS

    def scaled(p, i):
        return p[key][i] * CALIBRATION_S / statistics.mean(p[cal_key][i * r:(i + 2) * r])

    return [statistics.median(scaled(p, i) for p in passes) for i in range(len(passes[0][key]))]


def end_to_end(wl, passes, setup_times, graded) -> dict:
    setup_raw, setup_scaled = setup_times
    per_request = request_scaled(passes, "latency", "cal")
    latencies = per_request * len(passes)
    tail_value, beyond = tail(latencies, wl.tail_pct)
    print("# samples " + json.dumps({
        "passes": len(passes),
        "requests": len(latencies),
        "req_tail_percentile": wl.tail_pct,
        "req_tail_beyond": beyond,
        "setup_raw_s": [round(x, 4) for x in setup_raw],
        "pass_raw_wall_s": [round(sum(p["latency"]), 3) for p in passes],
        "pass_calibration_ms": [round(statistics.mean(p["cal"]) * 1e3, 3) for p in passes],
        "failed_frac": graded["failed"] / graded["attempted"],
    }))
    print("# request_ms " + json.dumps(
        {label: round(x * 1e3, 2) for (label, _), x in zip(wl.requests, per_request)}))
    print("# first_pass_raw_ms " + json.dumps(
        {label: round(x * 1e3, 1) for (label, _), x in zip(wl.requests, passes[0]["latency"])}))
    return {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "wall_s": (sum(per_request), "s"),
        "cpu_s": (sum(request_scaled(passes, "cpu", "cal_cpu")), "s"),
        "req_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "req_tail_ms": (tail_value * 1e3, "ms"),
        "ok_frac": (1 - graded["failed"] / graded["attempted"], "ratio"),
        "peak_rss_mb": (passes[0]["maxrss"] / 1024, "MiB"),
    }


def traced_run(ts, wl, clearers):
    """A traced pass between two untraced ones; per-layer metrics of the traced.

    The overhead compares the traced pass with the mean of its neighbours,
    which cancels slow drift of the machine and the first pass's extra cost.
    Every time is in reference seconds, each pass scaled by CALIBRATION_S
    over the mean time of all its calibration loops.
    """
    import spans

    before = run_pass(wl, clearers)
    clear_caches(clearers)
    tracer = spans.Tracer(ts)
    tracer.install()
    try:
        traced = run_pass(wl, clearers, before_clear=tracer.harvest)
        tracer.harvest()
    finally:
        restored = tracer.uninstall()
    after = run_pass(wl, clearers)

    def scale(p):
        return CALIBRATION_S / statistics.mean(p["cal"])

    def scaled_wall(p):
        return sum(p["latency"]) * scale(p)

    metrics = {name: value * scale(traced) if name.endswith("_s") else value
               for name, value in tracer.metrics().items()}

    traced_wall = scaled_wall(traced)
    untraced_wall = (scaled_wall(before) + scaled_wall(after)) / 2
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    print("# trace " + json.dumps({"spans": len(tracer.span_name), "names_restored": restored,
                                   "overhead_frac": traced_wall / untraced_wall - 1}))
    metrics = {name: (value, spans.unit(name)) for name, value in metrics.items()}
    return [before, traced, after], metrics, restored


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and make the inputs, then exit (times set-up)")
    args = parser.parse_args(argv)

    ts, wl = setup(args.workload, args.seed)
    if args.setup_only:
        return 0
    clearers = cache_clearers()
    if args.trace:
        passes, metrics, restored = traced_run(ts, wl, clearers)
        graded = grade(wl, args.seed, passes)
    else:
        setup_times = measure_setup(args.workload, args.seed)
        passes = run_timed(wl, clearers, args.seconds)
        graded = grade(wl, args.seed, passes)
        metrics = end_to_end(wl, passes, setup_times, graded)
        restored = True
    env = environment()
    print("# env " + json.dumps(env))
    for label, reason in sorted(graded["reasons"].items()):
        print(f"# failed {label}: {reason}")
    correct = graded["failed"] == 0 and restored and env["threads"] == 1
    print(json.dumps({
        "correct": correct,
        "attempted": graded["attempted"],
        "failed": graded["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
