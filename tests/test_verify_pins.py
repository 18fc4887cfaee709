"""Report pins for verify: SHA-256 digests of each suite's report.

Run as a script from the root of a checkout,

    PYTHONPATH=src python tests/test_verify_pins.py

to write the digests of the current code to verify_pins.json beside this
file.  A digest covers the report at default bounds without elapsed_ms and
stats, the two parts that depend on the clock and on what ran before: the
suite, its case count, its failures and its notes.  The script runs the
suites in their order of --suite all; the test runs them in the reverse
order, so each suite meets caches warmed by a different predecessor, and a
report that is not a function of (suite, bounds) alone fails it.
"""

import hashlib
import json
import sys
from pathlib import Path

from teslab.verify import SUITE_NAMES, run_suite

PINS = Path(__file__).with_name("verify_pins.json")


def digest(report) -> str:
    body = report.to_json()
    del body["elapsed_ms"], body["stats"]
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def digests(names) -> dict:
    return {name: digest(run_suite(name)) for name in names}


def test_verify_reports_are_pinned():
    assert digests(reversed(SUITE_NAMES)) == json.loads(PINS.read_text())


if __name__ == "__main__":
    PINS.write_text(json.dumps(digests(SUITE_NAMES), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}", file=sys.stderr)
