"""Span tracing for the traced run, installed from outside teslab.

The tracer rebinds public teslab functions and methods to wrappers that
record one span per call: its name, parent, start and end.  A function is
rebound under every name that refers to it, in every teslab module and on
its class, so calls made through an imported name (tes in macdonald, verify
and cli; exact_div in qt_algebra, where _reduce looks it up; virtual_F in
macdonald, where it recurses) are traced too.  Spans stay in memory; per-layer
metrics come from them after the run, a span's self time being its duration
minus its children's.  Everything runs in one thread, so no span waits.
"""

from __future__ import annotations

import sys
import time
from array import array


def _cases(report) -> int:
    reports = report if isinstance(report, list) else [report]
    return sum(r.cases_run for r in reports)


def _written(stream) -> int:
    getvalue = getattr(stream, "getvalue", None)
    return len(getvalue().encode()) if getvalue else 0


class Tracer:
    """Spans and counters of the wrapped layers, for one traced pass."""

    def __init__(self, ts):
        self.ts = ts
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._saved: list = []
        tesler, mac = ts.tesler, ts.macdonald
        # cache_info() and the memo dict are reset when caches are cleared,
        # so harvest() reads them before every clear
        self._tes_cache = next((f for f in (vars(tesler).get("_tes_cached"), tesler.tes)
                                if hasattr(f, "cache_info")), None)
        memo, virtual_f = vars(mac).get("_F_CACHE"), mac.virtual_F
        if memo is not None:
            self._f_entries = lambda: len(memo)
        elif hasattr(virtual_f, "cache_info"):
            self._f_entries = lambda: virtual_f.cache_info().currsize
        else:
            self._f_entries = lambda: 0

    # -- counters -------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def harvest(self) -> None:
        if self._tes_cache is not None:
            info = self._tes_cache.cache_info()
            self.add("tesler.tes.cache_hits", info.hits)
            self.add("tesler.tes.cache_misses", info.misses)
        self.add("macdonald.virtual_F.memo_entries", self._f_entries())

    # -- wrappers -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, after=None):
        nid = self._name_id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn, count_key: str):
        """One span per item drawn, so the consumer's work stays outside."""
        step = self.wrap(name, next)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                self.add(count_key, 1)
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------

    def _targets(self):
        ts = self.ts
        qa, young, pleth = ts.qt_algebra, ts.young, ts.plethysm
        tesler, mac, spec = ts.tesler, ts.macdonald, ts.specializations
        add = self.add

        def poly_mul(args, result):
            a, b = args
            other = len(b.terms) if isinstance(b, qa.LaurentPolyQT) else 1
            add("qt_algebra.poly_mul.term_products", len(a.terms) * other)

        def exact_div(args, result):
            add("qt_algebra.exact_div.hits", result is not None)

        def cpf(args, result):
            add("specializations.cpf.kept", len(result))
            add("specializations.cpf.scanned", args[0] ** args[0])

        def run_suite(args, result):
            add("verify.run_suite.cases", _cases(result))

        def cli_main(args, result):
            # each request captures stdout in a fresh buffer, still active here
            add("cli.main.out_bytes", _written(sys.stdout))

        L, R = qa.LaurentPolyQT, qa.RatFuncQT
        return [
            ("qt_algebra.poly_mul", L, "__mul__", poly_mul),
            ("qt_algebra.exact_div", qa, "exact_div", exact_div),
            ("qt_algebra.ratfunc_add", R, "__add__", None),
            ("qt_algebra.ratfunc_mul", R, "__mul__", None),
            ("young.partition_stats", young, "partition_stats", None),
            ("young.cover_monomial", young, "cover_monomial", None),
            ("plethysm.e_plethysm", pleth, "e_plethysm", None),
            ("plethysm.eval_bracket", pleth.MonomialSymFn, "eval_bracket", None),
            ("plethysm.m_eval", pleth, "m_eval", None),
            ("tesler.tes", tesler, "tes", None),
            ("macdonald.pieri_d", mac, "pieri_d", None),
            ("macdonald.skew_pieri_c", mac, "skew_pieri_c", None),
            ("macdonald.virtual_F", mac, "virtual_F", None),
            ("macdonald.hilb", mac, "hilb_tilde", None),
            ("macdonald.hilb", mac, "hilb_delta", None),
            ("macdonald.hilb", mac, "hilb_delta_prime", None),
            ("macdonald.hilb", mac, "tes_via_theorem", None),
            ("specializations.closed", spec, "tes_t0", None),
            ("specializations.closed", spec, "tes_t1", None),
            ("specializations.closed", spec, "tes_11", None),
            ("specializations.osp_enumerate", spec, "osp_enumerate", None),
            ("specializations.cpf", spec, "cpf", cpf),
            ("verify.run_suite", ts.verify, "run_suite", run_suite),
            ("cli.main", ts.cli, "main", cli_main),
        ]

    def install(self) -> None:
        """Rebind every traced function under each name that refers to it."""
        places = [m for name, m in sorted(sys.modules.items())
                  if name == "teslab" or name.startswith("teslab.")]
        for name, owner, attr, after in self._targets():
            original = vars(owner)[attr]
            wrapped = self.wrap(name, original, after)
            self._rebind(places + [owner], original, wrapped)
        original = vars(self.ts.tesler)["enumerate_tesler"]
        wrapped = self.wrap_generator("tesler.enumerate", original, "tesler.enumerate.matrices")
        self._rebind(places, original, wrapped)

    def _rebind(self, places, original, wrapped) -> None:
        for place in places:
            for key, value in list(vars(place).items()):
                if value is original:
                    setattr(place, key, wrapped)
                    self._saved.append((place, key, original))

    def uninstall(self) -> bool:
        """Restore every rebound name; True when each holds its original."""
        for place, key, original in reversed(self._saved):
            setattr(place, key, original)
        return all(vars(place)[key] is original for place, key, original in self._saved)

    # -- metrics --------------------------------------------------------

    def metrics(self) -> dict:
        """Calls and self time per span name, plus the counters and ratios."""
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        names, parents = self.span_name, self.span_parent
        for i, (start, end) in enumerate(zip(self.span_start, self.span_end)):
            dur = end - start
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += dur
            parent = parents[i]
            if parent >= 0:
                self_s[names[parent]] -= dur
        out = {f"{name}.calls": calls[nid] for nid, name in enumerate(self.names)}
        out.update({f"{name}.self_s": self_s[nid] for nid, name in enumerate(self.names)})
        # a traced enumeration opens one span per item drawn, not per call
        del out["tesler.enumerate.calls"]
        counters = dict(self.counters)
        kept = counters.pop("specializations.cpf.kept", 0)
        scanned = counters.pop("specializations.cpf.scanned", 0)
        out.update({key: int(value) for key, value in counters.items()})
        for key in COUNTERS:
            out.setdefault(key, 0)
        div_calls = out["qt_algebra.exact_div.calls"]
        out["qt_algebra.exact_div.hit_ratio"] = (
            out["qt_algebra.exact_div.hits"] / div_calls if div_calls else 0.0)
        out["specializations.cpf.yield_ratio"] = kept / scanned if scanned else 0.0
        return out


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("_ratio"):
        return "ratio"
    return "bytes" if stat.endswith("_bytes") else "count"


# counters that a pass may leave untouched but the run always reports
COUNTERS = (
    "qt_algebra.poly_mul.term_products",
    "qt_algebra.exact_div.hits",
    "tesler.tes.cache_hits",
    "tesler.tes.cache_misses",
    "tesler.enumerate.matrices",
    "macdonald.virtual_F.memo_entries",
    "verify.run_suite.cases",
    "cli.main.out_bytes",
)
