"""Value pins for the specialization sides: SHA-256 digests of their results.

Run as a script from the root of a checkout,

    PYTHONPATH=src python tests/test_specialization_pins.py

to write the digests of the current code to specialization_pins.json beside
this file.  The test recomputes every value cold and compares digests, so any
change to a coefficient of tes_t0, tes_t1 or tes_11, or of the sums that
cor-5-1, prop-6-1 and prop-6-3 compare, fails it.
"""

import hashlib
import json
import random
import sys
from itertools import product
from pathlib import Path

from cold import clear_teslab_caches
from teslab.qt_algebra import LaurentPolyQT
from teslab.specializations import tes_11, tes_t0, tes_t1
from teslab.verify import _inv_sum, _parking_sums, _tail_products

PINS = Path(__file__).with_name("specialization_pins.json")


def _seeded_vectors() -> list:
    """Six seeded hook vectors in [-2, 2] of each length 1..5, less repeats."""
    rng = random.Random(22)
    return list(dict.fromkeys(tuple(rng.randint(-2, 2) for _ in range(length))
                              for length in range(1, 6) for _ in range(6)))


def _binary_vectors() -> list:
    """Every 0/1 hook vector of length 1..5."""
    return [alpha for n in range(1, 6) for alpha in product((0, 1), repeat=n)]


def _by_partition(sums: dict) -> list:
    return sorted((str(pi), poly.json_terms()) for pi, poly in sums.items())


def _calls() -> list:
    calls = []
    for alpha in _seeded_vectors():
        calls.append((f"tes_t1{alpha}", tes_t1, LaurentPolyQT.json_terms, alpha))
        calls.append((f"tes_11{alpha}", tes_11, int, alpha))
    for alpha in _binary_vectors():
        calls.append((f"tes_t0{alpha}", tes_t0, LaurentPolyQT.json_terms, alpha))
        calls.append((f"_inv_sum{alpha}", _inv_sum, LaurentPolyQT.json_terms, alpha))
        calls.append((f"_tail_products{alpha}", _tail_products, _by_partition, alpha))
        calls.append((f"_parking_sums{alpha}", _parking_sums, _by_partition, alpha))
    return calls


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def digests() -> dict:
    return {label: digest(encode(call(alpha))) for label, call, encode, alpha in _calls()}


def test_specialization_values_are_pinned():
    clear_teslab_caches()
    assert digests() == json.loads(PINS.read_text())


if __name__ == "__main__":
    PINS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}", file=sys.stderr)
