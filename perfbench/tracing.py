"""Per-layer tracing by wrapping cmexpand's public functions at run time.

No source file is edited.  `install` replaces each layer's public functions
(plus `PrecisionReal.bracket` and `QuadraticSurd.__pow__`) in every cmexpand
module namespace that binds them, so calls between modules go through the
wrappers too.  A wrapped call records a span (name, start, end, parent span,
op id) in flat arrays; the per-step engine helpers (`term_magnitude`,
`error_bound`, `closed_form_partial`) are only counted, so their time stays
in the caller's self time.  A span's self time is its duration minus the
durations of its child spans, which never overlap in this single-threaded
loop.  Span times are raw seconds and include the benchmark's calibration
ticks (about 1% of the run, see run.SpeedGauge).  `write` dumps the spans
once the run is over: a JSON header line (names, field order, count)
followed by the raw arrays in that order.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import weakref
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "targets", "engine", "realnum", "simulator", "sequences", "identities", "catalog", "numerics")
HELPERS = ("term_magnitude", "error_bound", "closed_form_partial")
METHODS = {"realnum": (("PrecisionReal", "bracket"),), "numerics": (("QuadraticSurd", "__pow__"),)}
SEQUENCE_FUNCTIONS = (
    "jacobsthal", "gen_j", "gen_j_like", "generalized_jacobsthal", "gen_j_recurrence",
    "gen_j_like_recurrence", "lucas_u", "gf_coefficients", "a_number", "j_continuous", "a_continuous",
)


def _octave(value: int, lo: int, hi: int) -> int | None:
    """Nearest power of two, as its exponent, if it falls in lo..hi."""
    k = round(math.log2(value)) if value > 0 else lo - 1
    return k if lo <= k <= hi else None


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_id = array("l")
        self._stack = [-1]
        self.count: Counter = Counter()
        self.sums: defaultdict = defaultdict(float)  # per-bin (seconds, units) totals
        self._widths = weakref.WeakKeyDictionary()
        self.max_bits = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, observe=None, span: bool = True):
        nid = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.count[name] += 1
            if not span:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.op_id.append(tracer.op)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
                if observe:
                    observe(idx, args, kwargs, None, exc)
                raise
            tracer.end[idx] = perf_counter()
            tracer._stack.pop()
            if observe:
                observe(idx, args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    # --- observers: counters measured where the work happens ---------------

    def _on_run(self, idx, args, kwargs, result, exc):
        if result in (1, 2, 3):
            self.count[f"cli.exit_{result}"] += 1

    def _on_expand(self, idx, args, kwargs, result, exc):
        if exc is not None:
            if type(exc).__name__ == "NonConvergent":
                self.count["engine.nonconvergent"] += 1
            return
        self.count["engine.terms"] += len(result.signs)
        target = _arg(args, kwargs, 0, "target")
        kind = "real" if type(target).__name__ == "PrecisionReal" else "rational"
        k = _octave(_arg(args, kwargs, 3, "max_terms", 16), 8, 12)
        if k is not None and result.signs:
            self.sums[f"engine.{kind}.n{k}.s"] += self.duration(idx)
            self.sums[f"engine.{kind}.n{k}.terms"] += len(result.signs)

    def _on_bracket(self, idx, args, kwargs, result, exc):
        if exc is not None:
            return
        value, bits = args[0], _arg(args, kwargs, 1, "bits")
        self.max_bits = max(self.max_bits, bits)
        parent = self.parent[idx]
        if parent >= 0 and self.names[self.name[parent]] == "realnum.real_compare":
            self.count["realnum.brackets_in_compare"] += 1
        width = result[1] - result[0]
        previous = self._widths.get(value)
        if previous is None or width < previous:
            self._widths[value] = width
            self.count["realnum.refinements"] += 1
            k = max(8, min(14, round(math.log2(bits))))
            self.sums[f"realnum.b{k}.s"] += self.duration(idx)
            self.sums[f"realnum.b{k}.calls"] += 1

    def _on_simulate(self, idx, args, kwargs, result, exc):
        if exc is not None:
            return
        steps = len(result.records)
        self.count["simulator.steps"] += steps
        self.count["simulator.clusters_final_max"] = max(
            self.count["simulator.clusters_final_max"], len(result.ledger.clusters()))
        k = _octave(_arg(args, kwargs, 3, "steps"), 6, 9)
        if k is not None and steps:
            self.sums[f"simulator.n{k}.s"] += self.duration(idx)
            self.sums[f"simulator.n{k}.steps"] += steps

    def _on_sweep(self, idx, args, kwargs, result, exc):
        if exc is None:
            self.count["identities.skipped"] += result.skipped

    def _on_verify_entry(self, idx, args, kwargs, result, exc):
        if exc is None:
            self.count["catalog.values_checked"] += result.total

    OBSERVERS = {
        "cli.run": "_on_run",
        "engine.expand": "_on_expand",
        "realnum.PrecisionReal.bracket": "_on_bracket",
        "simulator.simulate": "_on_simulate",
        "identities.identity_sweep": "_on_sweep",
        "catalog.verify_entry": "_on_verify_entry",
    }

    # --- installation ------------------------------------------------------

    def install(self, package: str = "cmexpand") -> None:
        """Wrap every layer's public functions wherever a cmexpand module binds them."""
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        replaced = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{package}.{layer}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                observer = self.OBSERVERS.get(name)
                replaced[id(fn)] = (fn, self.wrap(fn, name, observer and getattr(self, observer),
                                                  span=not (layer == "engine" and attr in HELPERS)))
            for cls_name, method in METHODS.get(layer, ()):
                cls = getattr(module, cls_name, None)
                if cls is not None and method in vars(cls):
                    name = f"{layer}.{cls_name}.{method}"
                    observer = self.OBSERVERS.get(name)
                    setattr(cls, method, self.wrap(vars(cls)[method], name, observer and getattr(self, observer)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and replaced[id(value)][0] is value:
                    setattr(module, attr, replaced[id(value)][1])

    # --- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals: defaultdict = defaultdict(float)
        for i in range(n):
            totals[self.names[self.name[i]]] += self.end[i] - self.start[i] - child[i]
        return totals

    def outer_time(self, names: set[str]) -> float:
        """Inclusive time of the spans named in `names` whose parent span is not."""
        ids = {self._ids[name] for name in names if name in self._ids}

        def hit(i):
            return i >= 0 and self.name[i] in ids

        return sum(self.end[i] - self.start[i] for i in range(len(self.start)) if hit(i) and not hit(self.parent[i]))

    def metrics(self, stdout_bytes: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, by name, as (value, unit)."""
        selfs = self.self_times()
        layer_self = defaultdict(float)
        for name, t in selfs.items():
            layer_self[name.split(".", 1)[0]] += t
        c = self.count
        out: dict[str, tuple[float, str]] = {}

        def per(num: float, den: float, scale: float = 1.0) -> float:
            return num / den * scale if den else 0.0

        out["cli.calls"] = (c["cli.run"], "count")
        out["cli.self_s"] = (layer_self["cli"], "s")
        for code in (1, 2, 3):
            out[f"cli.exit_{code}"] = (c[f"cli.exit_{code}"], "count")
        out["cli.stdout_bytes"] = (stdout_bytes, "bytes")
        out["targets.calls"] = (c["targets.parse_target"], "count")
        out["targets.self_s"] = (layer_self["targets"], "s")
        out["engine.calls"] = (c["engine.expand"] + c["engine.regroup"], "count")
        out["engine.helper_calls"] = (sum(c[f"engine.{h}"] for h in HELPERS), "count")
        out["engine.self_s"] = (layer_self["engine"], "s")
        out["engine.terms"] = (c["engine.terms"], "count")
        out["engine.nonconvergent"] = (c["engine.nonconvergent"], "count")
        for kind in ("rational", "real"):
            for k in range(8, 13):
                out[f"engine.{kind}.us_per_term.n{k}"] = (
                    per(self.sums[f"engine.{kind}.n{k}.s"], self.sums[f"engine.{kind}.n{k}.terms"], 1e6), "us/term")
        compares = c["realnum.real_compare"]
        out["realnum.compares"] = (compares, "count")
        out["realnum.brackets"] = (c["realnum.PrecisionReal.bracket"], "count")
        out["realnum.brackets_per_compare"] = (per(c["realnum.brackets_in_compare"], compares), "ratio")
        out["realnum.refinements"] = (c["realnum.refinements"], "count")
        out["realnum.max_bits"] = (self.max_bits, "bits")
        out["realnum.self_s"] = (layer_self["realnum"], "s")
        for k in range(8, 15):
            out[f"realnum.refine_ms.b{k}"] = (per(self.sums[f"realnum.b{k}.s"], self.sums[f"realnum.b{k}.calls"], 1e3), "ms")
        out["simulator.calls"] = (c["simulator.simulate"], "count")
        out["simulator.steps"] = (c["simulator.steps"], "count")
        out["simulator.self_s"] = (layer_self["simulator"], "s")
        for k in range(6, 10):
            out[f"simulator.us_per_step.n{k}"] = (
                per(self.sums[f"simulator.n{k}.s"], self.sums[f"simulator.n{k}.steps"], 1e6), "us/step")
        out["simulator.clusters_final_max"] = (c["simulator.clusters_final_max"], "count")
        for fn in SEQUENCE_FUNCTIONS:
            out[f"sequences.{fn}.calls"] = (c[f"sequences.{fn}"], "count")
            out[f"sequences.{fn}.self_s"] = (selfs.get(f"sequences.{fn}", 0.0), "s")
        checks = c["identities.identity_check"]
        out["identities.checks"] = (checks, "count")
        out["identities.skipped"] = (c["identities.skipped"], "count")
        identities = {name for name in self.names if name.startswith("identities.")}
        out["identities.us_per_check"] = (per(self.outer_time(identities), checks, 1e6), "us/check")
        out["catalog.entries"] = (c["catalog.verify_entry"], "count")
        out["catalog.values_checked"] = (c["catalog.values_checked"], "count")
        out["catalog.load_s"] = (self.outer_time({"catalog.builtin_catalog", "catalog.load_catalog",
                                                       "catalog.load_bfile"}), "s")
        out["catalog.self_s"] = (layer_self["catalog"], "s")
        out["numerics.surd_pow_calls"] = (c["numerics.QuadraticSurd.__pow__"], "count")
        out["numerics.surd_pow_self_s"] = (
            selfs.get("numerics.QuadraticSurd.__pow__", 0.0) + selfs.get("numerics.surd_pow", 0.0), "s")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "count": len(self.start),
                  "fields": ["name:int32", "start:float64", "end:float64", "parent:int64", "op:int64"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.start, self.end, self.parent, self.op_id):
                column.tofile(handle)
