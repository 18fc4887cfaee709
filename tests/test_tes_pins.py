"""Value pins for the Tesler route: SHA-256 digests of tes's exact results.

Run as a script from the root of a checkout,

    PYTHONPATH=src python tests/test_tes_pins.py

to write the digests of the current code to tes_pins.json beside this file.
The test clears every teslab cache and recomputes every value, so any change
to a coefficient of tes on these inputs fails it, whether it comes from the
walk, the packing or the row weights' polynomial products.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from cold import clear_teslab_caches
from teslab.tesler import tes

PINS = Path(__file__).with_name("tes_pins.json")


def _vectors() -> list:
    """Five seeded hook vectors in [-2, 2] of each length 1..6, less repeats,
    then (1^9) and (2^6)."""
    rng = random.Random(24)
    seeded = (tuple(rng.randint(-2, 2) for _ in range(length))
              for length in range(1, 7) for _ in range(5))
    return list(dict.fromkeys([*seeded, (1,) * 9, (2,) * 6]))


def digest(poly) -> str:
    return hashlib.sha256(json.dumps(poly.json_terms()).encode()).hexdigest()


def digests() -> dict:
    return {f"tes{alpha}": digest(tes(alpha)) for alpha in _vectors()}


def test_tes_values_are_pinned():
    clear_teslab_caches()
    assert digests() == json.loads(PINS.read_text())


if __name__ == "__main__":
    PINS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}", file=sys.stderr)
