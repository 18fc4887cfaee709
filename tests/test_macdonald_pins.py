"""Value pins for the Macdonald route: SHA-256 digests of its exact results.

Run as a script from the root of a checkout,

    PYTHONPATH=src python tests/test_macdonald_pins.py

to write the digests of the current code to macdonald_pins.json beside this
file.  The test recomputes every value cold and compares digests, so any
change to a coefficient of tes_via_theorem, hilb_delta or hilb_delta_prime
on these inputs fails it.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from teslab.macdonald import hilb_delta, hilb_delta_prime, tes_via_theorem
from teslab.plethysm import MonomialSymFn

PINS = Path(__file__).with_name("macdonald_pins.json")
FUNCTIONS = ("e:1", "e:2", "e:3", "m:-1", "s:2,1")
# n = 7 reaches the arrangements of plethysm.distinct_arrangements in 6 slots;
# n = 8 would add 1.0-1.6 s cold, and this test keeps within 1 s
SIZES = (1, 2, 3, 4, 5, 6, 7)


def _vectors() -> list:
    """Three seeded hook vectors in [-2, 2] of each length 1..5, less repeats."""
    rng = random.Random(21)
    return list(dict.fromkeys(tuple(rng.randint(-2, 2) for _ in range(length))
                              for length in range(1, 6) for _ in range(3)))


def _long_vectors() -> list:
    """Four seeded hook vectors in [-2, 2] of length 6, each with a nonzero tes."""
    rng = random.Random(29)
    return list(dict.fromkeys(tuple(rng.randint(-2, 2) for _ in range(6)) for _ in range(4)))


def _calls() -> list:
    calls = [(f"tes_via_theorem{alpha}", lambda a=alpha: tes_via_theorem(a))
             for alpha in _vectors() + _long_vectors()]
    for text in FUNCTIONS:
        f = MonomialSymFn.parse(text)
        for n in SIZES:
            calls.append((f"hilb_delta({text},{n})", lambda f=f, n=n: hilb_delta(f, n)))
            for target in ("e", "p"):
                calls.append((f"hilb_delta_prime({text},{target},{n})",
                              lambda f=f, t=target, n=n: hilb_delta_prime(f, t, n)))
    return calls


def digest(poly) -> str:
    return hashlib.sha256(json.dumps(poly.json_terms()).encode()).hexdigest()


def digests() -> dict:
    return {label: digest(call()) for label, call in _calls()}


def test_macdonald_route_values_are_pinned():
    assert digests() == json.loads(PINS.read_text())


if __name__ == "__main__":
    PINS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}", file=sys.stderr)
