#!/usr/bin/env python3
"""Regenerate the benchmark's data files.

    python3 perfbench/regen.py

tes6.json: workloads.TES6_COUNT vectors drawn, with a fixed seed, from the
length-6 hook vectors in [-2, 2] with a positive first entry whose Tesler
matrix count lies in workloads.TES6_BAND.  The count comes from
workloads.count_tesler, not from teslab.  A vector with first entry 0 has no
matrices, and a negated vector has the same count; tes-large negates a
seeded half of them.  So the draw keeps only vectors whose cold tes costs
within NEGATION_TOLERANCE of the tes of their negation, timed here: the
median over NEGATION_ROUNDS of back-to-back pairs.  Otherwise the seed's
choice of signs would move the latency percentiles.

digests.json: a digest of every result of every workload at the default
seed, computed by one cold pass.  run.py compares against it.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time
from itertools import product

import run
import workloads


NEGATION_TOLERANCE = 0.08
NEGATION_ROUNDS = 5


def negation_ratio(tes, clearers, v) -> float:
    """Median over back-to-back pairs of cold tes(-v) time over tes(v) time."""
    def cold(alpha):
        run.clear_caches(clearers)
        gc.collect()
        t0 = time.perf_counter()
        tes(alpha)
        return time.perf_counter() - t0

    return statistics.median(cold(workloads._negate(v)) / cold(v) for _ in range(NEGATION_ROUNDS))


def tes6(ts, clearers) -> list:
    lo, hi = workloads.TES6_BAND
    band = [v for v in product(range(-2, 3), repeat=6)
            if v[0] > 0 and lo <= workloads.count_tesler(v) <= hi]
    print(f"{len(band)} vectors in the band")
    kept = []
    for v in random.Random(0).sample(band, len(band)):
        ratio = negation_ratio(ts.tesler.tes, clearers, v)
        print(f"{v}: negation/plain time {ratio:.2f}")
        if abs(ratio - 1) <= NEGATION_TOLERANCE:
            kept.append(list(v))
            if len(kept) == workloads.TES6_COUNT:
                return kept
    raise SystemExit("too few vectors in the band pass the negation test")


def main() -> None:
    ts = run.import_teslab()
    clearers = run.cache_clearers()
    workloads.TES6_FILE.write_text(json.dumps({"band": list(workloads.TES6_BAND),
                                               "vectors": tes6(ts, clearers)}) + "\n")
    digests = {}
    for name, make in workloads.WORKLOADS.items():
        wl = make(ts, workloads.DEFAULT_SEED)
        done = run.run_pass(wl, clearers)
        if done["errors"] or wl.check(done["results"]):
            raise SystemExit(f"{name}: results fail their checks; nothing recorded")
        digests[name] = {label: wl.digest(label, v) for label, v in sorted(done["results"].items())}
        print(f"{name}: {len(digests[name])} digests")
    workloads.DIGEST_FILE.write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
