"""Command-line front end: compute, enumerate, specialize, verify.

Exit codes: 0 success, 1 verification failure, 2 usage error (including
domain errors such as poles or unsupported specializations, and an --out
file that cannot be written), 141 when the reader of stdout closes it early
(128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import lru_cache, partial

from .macdonald import hilb_delta, hilb_delta_prime, tes_via_theorem
from .plethysm import MonomialSymFn
from .qt_algebra import LaurentPolyQT
from .specializations import tes_11, tes_t0, tes_t1
from .tesler import count_tesler, enumerate_tesler, parse_hooks, tes
from .verify import SUITE_NAMES, Bounds, run_suite

USAGE_ERROR = 2
VERIFY_FAILURE = 1
BROKEN_PIPE = 141
# the most matrices JSON enumerate writes (--format count has no cap)
ENUMERATE_JSON_CAP = 1_000_000


def _poly_payload(poly: LaurentPolyQT, as_json: bool):
    return {"terms": poly.json_terms()} if as_json else str(poly)


@contextmanager
def _output(args):
    """The --out file when one is given, else stdout."""
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _check_out(path: str) -> None:
    """Refuse an --out whose directory cannot take the file, before any work
    starts; opening it here would leave an empty file behind on an error."""
    parent = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise ValueError(f"cannot write --out {path}: {parent} is not a writable directory")


def _emit(payload, args) -> None:
    text = json.dumps(payload, indent=2) if not isinstance(payload, str) else payload
    with _output(args) as fh:
        fh.write(text + "\n")


# each --spec: its closed form, and the bindings that specialize the full value
TES_SPECS = {
    "t=0": (tes_t0, {"t": 0}),
    "t=1": (tes_t1, {"t": 1}),
    "q=t=1": (tes_11, {"q": 1, "t": 1}),
}


def cmd_tes(args) -> int:
    alpha = parse_hooks(args.hooks)
    if args.route == "closed":
        if args.spec is None:
            raise ValueError("route 'closed' needs --spec (it is a specialization formula)")
        value = TES_SPECS[args.spec][0](alpha)
    else:
        value = tes(alpha) if args.route == "enum" else tes_via_theorem(alpha)
        if args.spec is not None:
            value = value.specialize(**TES_SPECS[args.spec][1])
    if not isinstance(value, LaurentPolyQT):
        # the closed q=t=1 form is a number
        value = LaurentPolyQT.const(int(value))
    _emit(_poly_payload(value, args.format == "json"), args)
    return 0


class _RowTexts(dict):
    """json.dumps(list(row)) by row, each made once, on first lookup."""

    def __missing__(self, row):
        text = self[row] = json.dumps(list(row))
        return text


def cmd_enumerate(args) -> int:
    alpha = parse_hooks(args.hooks)
    count = count_tesler(alpha, permutational=args.permutational)
    if args.format == "count":
        _emit(str(count), args)
        return 0
    if count > ENUMERATE_JSON_CAP:
        kind = "permutational Tesler" if args.permutational else "Tesler"
        raise ValueError(f"--hooks {args.hooks} has {count:,} {kind} matrices, over the "
                         f"JSON cap of {ENUMERATE_JSON_CAP:,}; use --format count")
    stream = enumerate_tesler(alpha, permutational=args.permutational)
    # one line per matrix as it is produced, the text of json.dumps(U.to_json())
    # put together from the texts of its rows; an empty stream still ends in "\n"
    texts = _RowTexts()
    line = '{"n": %d, "rows": [%%s]}\n' % len(alpha)
    empty = True
    with _output(args) as fh:
        for U in stream:
            fh.write(line % ", ".join(map(texts.__getitem__, U.rows)))
            empty = False
        if empty:
            fh.write("\n")
    return 0


def cmd_hilb(args) -> int:
    f = MonomialSymFn.parse(args.f)
    n = args.n
    target = "e" if args.target == "en" else "p"
    if args.prime:
        by_route = partial(hilb_delta_prime, f, target, n)
    elif target == "p":
        raise ValueError("the p-target is exposed for the primed operator only")
    else:
        by_route = partial(hilb_delta, f, n)
    value = by_route("eigen")
    if n <= 5 and by_route("tesler") != value:
        print("route cross-check failed", file=sys.stderr)
        return VERIFY_FAILURE
    _emit(_poly_payload(value, args.format == "json"), args)
    return 0


def _parse_entry_range(text: str) -> tuple:
    lo, _, hi = text.partition("..")
    try:
        return (int(lo), int(hi))
    except ValueError:
        raise ValueError(f"--entry-range must be LO..HI with integer ends, got {text!r}") from None


def cmd_verify(args) -> int:
    bounds = Bounds(
        n_max=args.n_max,
        entry_range=_parse_entry_range(args.entry_range),
        seed=args.seed,
    )
    result = run_suite(args.suite, bounds)
    reports = result if isinstance(result, list) else [result]
    payload = [r.to_json() for r in reports]
    ok = all(r.ok for r in reports)
    for r in reports:
        status = "ok" if r.ok else f"{len(r.failures)} failures"
        print(f"{r.suite}: {r.cases_run} cases, {status}, {r.elapsed_ms} ms",
              file=sys.stderr)
    _emit(payload if len(payload) > 1 else payload[0], args)
    return 0 if ok else VERIFY_FAILURE


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The teslab parser, built once per process: in-process calls of main
    share it.  Parsing leaves it as it was (each parse_args fills a new
    namespace), and set_defaults(fn=...) binds the handlers here, when it is
    built."""
    parser = argparse.ArgumentParser(
        prog="teslab",
        description="Exact Tesler functions and Macdonald-operator Hilbert series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tes = sub.add_parser("tes", help="compute a Tesler function")
    p_tes.add_argument("--hooks", required=True, help="comma-separated hook sums, e.g. 1,1")
    p_tes.add_argument("--spec", choices=list(TES_SPECS))
    p_tes.add_argument("--route", choices=["enum", "macdonald", "closed"], default="enum")
    p_tes.add_argument("--format", choices=["text", "json"], default="text")
    p_tes.add_argument("--out")
    p_tes.set_defaults(fn=cmd_tes)

    p_enum = sub.add_parser("enumerate", help="stream the matrices with given hooks")
    p_enum.add_argument("--hooks", required=True)
    p_enum.add_argument("--permutational", action="store_true")
    p_enum.add_argument("--format", choices=["json", "count"], default="json")
    p_enum.add_argument("--out")
    p_enum.set_defaults(fn=cmd_enumerate)

    p_hilb = sub.add_parser("hilb", help="Hilbert series of a delta operator")
    p_hilb.add_argument("--f", required=True, help='symmetric function, e.g. "e:1", "m:-1", "s:2,1"')
    p_hilb.add_argument("--n", type=int, required=True)
    p_hilb.add_argument("--prime", action="store_true", help="use the primed operator")
    p_hilb.add_argument("--target", choices=["en", "pn"], default="en")
    p_hilb.add_argument("--format", choices=["text", "json"], default="text")
    p_hilb.add_argument("--out")
    p_hilb.set_defaults(fn=cmd_hilb)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=list(SUITE_NAMES) + ["all"])
    p_verify.add_argument("--n-max", dest="n_max", type=int, default=None)
    p_verify.add_argument("--entry-range", dest="entry_range", default="-2..2")
    p_verify.add_argument("--seed", type=int, default=20260810)
    p_verify.add_argument("--out")
    p_verify.set_defaults(fn=cmd_verify)

    return parser


def _fuse_entry_range(argv):
    # lets "--entry-range -2..2" through argparse (the value starts with a dash)
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--entry-range":
            val = next(it, None)
            out.append(tok if val is None else f"--entry-range={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_fuse_entry_range(list(argv)))
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        code = args.fn(args)
        # a reader that closed stdout early shows here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at devnull so that the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except (ValueError, KeyError, ZeroDivisionError, OSError) as exc:
        # OSError: an --out file that still cannot be opened, say when its directory
        # went away after _check_out (BrokenPipeError is caught above)
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
