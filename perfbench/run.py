"""cmexpand benchmark: closed-loop workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload expand|ledger|cli|all --seed N --seconds S --trace 0|1

The package is imported from ./src, so no install or build step is needed.
One caller in one process runs ops back to back until the timed budget is
spent (see workloads.py).  Only the library calls are timed; input
generation and the output checks run between them.

The speed of a shared machine drifts: on a 2-vCPU VM two runs of the same
ops differed by 1.45x overall and by up to 1.9x over a few seconds, with no
steal time recorded.  So every timing is scaled to a calibration loop's
nominal speed (see SpeedGauge): the loop runs every 50 ms, inside timed ops
too, and its own time is taken back out.  Percentiles use the Harrell-Davis
estimator, which averages the remaining per-op noise over neighbouring
ranks.  The raw figures are printed next to the scaled ones.

The last line of stdout is a JSON object with `correct`, `attempted`,
`failed` and `metrics`: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced replay (see tracing.py).  The
lines before it give every metric with its unit and sample count, and the
workload's input properties.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracing import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-trace"
SETUP_SPAWNS = 13
PARITY_OPS = 6
_BIG = (7 ** 4000, 3 ** 5000, 7 ** 8000)
_BIG_FRACTIONS = (Fraction(7 ** 1500 + 1, 3 ** 2500 + 2), Fraction(5 ** 2000 - 1, 11 ** 1250 + 3))


def mixed_work() -> None:
    """Interpreter, small-Fraction and big-integer work in one calibration loop.

    Measured side by side on a busy machine, bytecode and small Fractions
    slowed by 1.3-1.75x, big-integer gcd 1.1-1.4x and multiplication
    1.2-1.8x; this mix slows about as much as `ledger` and `cli` ops do.
    """
    a, b, c = _BIG
    table = {i: str(i) for i in range(400)}
    sum(len(v) for v in table.values())
    acc = Fraction(0)
    for i in range(1, 16):
        acc += Fraction(i, 2 * i + 1)
    math.gcd(a, b)
    c * (c + 1)


def big_fraction_work() -> None:
    """A few additions of 4k-bit Fractions: the gcd and multiplication work of long
    expansions, which a busy machine slows less than bytecode, so `expand` is scaled by it."""
    x, y = _BIG_FRACTIONS
    for i in range(1, 5):
        x = x + y * i


def loop_seconds(work) -> float:
    """Seconds one run of `work` takes, with the cyclic collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedGauge:
    """The machine's speed over a run, sampled by timing a fixed calibration loop.

    While `ticking`, a SIGALRM handler runs the loop every TICK_S, inside
    timed ops too, and adds its own time to `stolen` so callers can take it
    back out.  A timing is scaled by nominal / (median loop time within
    WINDOW_S of it), so a long op is judged by the speed during the op
    itself.  `nominal` is the loop's time on an unloaded 2-vCPU x86-64 VM
    with Python 3.11.7, which keeps scaled figures close to real seconds.
    """

    TICK_S = 0.05
    WINDOW_S = 0.25

    def __init__(self, work=mixed_work, nominal: float = 0.0006):
        self.work, self.nominal = work, nominal
        self.times: list[float] = []
        self.loops: list[float] = []
        self.stolen = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = perf_counter()
            self.loops.append(loop_seconds(self.work))
            self.times.append(t0)
            self.stolen += perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        self.sample()

    @contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float, seconds: float) -> float:
        """`seconds`, measured between start and end, at the loop's nominal speed."""
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        near = self.loops[lo:hi] or self.loops[max(0, lo - 1):lo + 1]
        return seconds * self.nominal / statistics.median(near)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters importing cmexpand and its CLI, raw and scaled.

    The first spawn is discarded: it may still be writing bytecode caches.
    """
    gauge = SpeedGauge()
    spans = []
    for i in range(SETUP_SPAWNS + 1):
        gauge.sample(8)
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import cmexpand, cmexpand.cli"], env=_child_env(),
                       cwd=ROOT, check=True, timeout=120)
        if i:
            spans.append((t0, perf_counter()))
    gauge.sample(8)
    raw = [end - start for start, end in spans]
    return raw, [gauge.scaled(start, end, end - start) for start, end in spans]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Workload:
    """How one workload makes, runs and checks its ops, and what its inputs look like."""

    name = ""
    calibration = (mixed_work, 0.0006)  # (loop body, its nominal seconds), see SpeedGauge

    def __init__(self, rng: random.Random, scratch: Path):
        self.stdout_bytes = 0

    def call(self, op):
        raise NotImplementedError

    def check(self, op, outcome) -> str | None:
        raise NotImplementedError

    def properties(self, op) -> dict:
        raise NotImplementedError

    def finish(self, ops) -> list[str]:
        """Extra checks after the timed loop; returns failure reasons."""
        return []


class ExpandWorkload(Workload):
    name = "expand"
    calibration = (big_fraction_work, 0.0007)

    def __init__(self, rng, scratch):
        super().__init__(rng, scratch)
        self.rounds = workloads.expand_rounds(rng)

    def call(self, op):
        import cmexpand
        text, r, s, n, bits = op
        return cmexpand.expand(cmexpand.parse_target(text, bits), cmexpand.ExpansionRatio(r, s), "larger", n, bits)

    def check(self, op, outcome):
        return checks.check_expand(op, outcome)

    def properties(self, op):
        text, r, s, n, bits = op
        return {"bracketed": "pi" in text, "constant": text, "rs": (r, s), "N": n, "bits": bits}


class LedgerWorkload(Workload):
    name = "ledger"

    def __init__(self, rng, scratch):
        super().__init__(rng, scratch)
        self.rounds = workloads.ledger_rounds(rng)

    def call(self, op):
        import cmexpand
        m0, m1, r, s, steps = op
        return cmexpand.simulate(m0, m1, cmexpand.ExpansionRatio(r, s), steps)

    def check(self, op, outcome):
        import cmexpand
        m0, m1, r, s, steps = op
        engine = cmexpand.expand(Fraction(m1, m0 + m1), cmexpand.ExpansionRatio(r, s), "larger", steps)
        return checks.check_simulate(op, outcome, engine.partial_sums)

    def properties(self, op):
        m0, m1, r, s, steps = op
        return {"bracketed": False, "constant": (m0, m1), "rs": (r, s), "steps": steps}


class CliWorkload(Workload):
    name = "cli"

    def __init__(self, rng, scratch):
        super().__init__(rng, scratch)
        text = (SRC / "cmexpand" / "data" / "builtin_catalog.json").read_text(encoding="utf-8")
        self.files = workloads.CliFiles(rng, scratch, json.loads(text)["entries"])
        self.rounds = workloads.cli_rounds(rng, self.files)

    def call(self, op):
        import cmexpand.cli
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cmexpand.cli.run(list(op.argv))
        return code, out.getvalue(), err.getvalue()

    def check(self, op, outcome):
        if isinstance(outcome, Exception):
            return f"cli.run raised {type(outcome).__name__}: {outcome}"
        self.stdout_bytes += len(outcome[1].encode())
        return checks.check_cli(op.expect, *outcome)

    def properties(self, op):
        argv = dict(zip(op.argv, op.argv[1:]))
        for item in op.argv:
            if item.startswith("--") and "=" in item:
                key, value = item.split("=", 1)
                argv[key] = value
        props = {"bracketed": "pi" in argv.get("--target", ""), "constant": argv.get("--target")}
        if "--ratio" in argv:
            props["rs"] = argv["--ratio"]
        elif "--r" in argv and "--s" in argv:
            props["rs"] = (argv["--r"], argv["--s"])
        if op.argv[0] == "expand" and "--terms" in argv:
            props["N"] = int(argv["--terms"])
            props["bits"] = int(argv.get("--bits", 256))
        if "--steps" in argv:
            props["steps"] = int(argv["--steps"])
        return props

    def finish(self, ops):
        """Whole-process parity: `python -m cmexpand.cli` prints the same bytes and exit code."""
        chosen = [op for op in ops if op.expect[0] != "error"][:PARITY_OPS - 1]
        chosen += [op for op in ops if op.expect[0] == "error"][:1]
        failures = []
        for op in chosen:
            code, out, _ = self.call(op)
            proc = subprocess.run([sys.executable, "-m", "cmexpand.cli", *op.argv], env=_child_env(), cwd=ROOT,
                                  capture_output=True, timeout=120)
            if proc.returncode != code or proc.stdout != out.encode():
                failures.append(f"parity: {' '.join(op.argv[:3])} differs as a process")
        return failures


WORKLOADS = {w.name: w for w in (ExpandWorkload, LedgerWorkload, CliWorkload)}


class Run:
    """Timed closed loop over whole rounds; checks run between ops, untimed."""

    def __init__(self, workload: Workload, tracer: Tracer | None = None):
        self.workload = workload
        self.tracer = tracer
        self.gauge = SpeedGauge(*workload.calibration)
        self.spans: list[tuple[float, float]] = []  # (start, end) of each op
        self.raw: list[float] = []
        self.failures: list[str] = []
        self.ops: list = []
        self.peak_rss_mb = 0.0

    @property
    def timed(self) -> float:
        """Raw timed seconds, which the budget is counted in."""
        return sum(self.raw)

    @property
    def latencies(self) -> list[float]:
        """Op latencies at the calibration loop's nominal speed."""
        return [self.gauge.scaled(start, end, raw) for (start, end), raw in zip(self.spans, self.raw)]

    def run_round(self, ops) -> None:
        for op in ops:
            if self.tracer:
                self.tracer.op = len(self.ops)
                self.tracer.active = True
            stolen = self.gauge.stolen
            t0 = perf_counter()
            try:
                outcome = self.workload.call(op)
            except Exception as exc:  # the check decides whether this exception was expected
                outcome = exc
            t1 = perf_counter()
            stolen = self.gauge.stolen - stolen
            if self.tracer:
                self.tracer.active = False
            self.peak_rss_mb = max(self.peak_rss_mb, _peak_rss_mb())
            reason = self.workload.check(op, outcome)
            del outcome
            self.spans.append((t0, t1))
            self.raw.append(t1 - t0 - stolen)
            self.ops.append(op)
            if reason:
                self.failures.append(reason)

    def run_for(self, seconds: float, rounds) -> list:
        """Whole rounds until `seconds` of raw op time; returns the rounds run."""
        done = []
        with self.gauge.ticking():
            for ops in rounds:
                self.run_round(ops)
                done.append(ops)
                if self.timed >= seconds:
                    break
        return done

    def replay(self, rounds) -> None:
        with self.gauge.ticking():
            for ops in rounds:
                self.run_round(ops)


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b), by its continued fraction (modified Lentz)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _beta_cdf(1.0 - x, b, a)
    log_front = a * math.log(x) + b * math.log1p(-x) - math.log(a) - (
        math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 500):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-14:
            break
    return math.exp(log_front) * f


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    Per-op times on a shared machine carry 10-20% noise even after scaling;
    a single order statistic inherits all of it, while this estimator
    averages it over the ops ranked near p.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    edges = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], ordered))


def property_report(workload: Workload, ops) -> dict:
    """Shares of bracketed ops and of ops reusing a constant or ratio seen earlier; size histograms."""
    seen_constants, seen_rs = set(), set()
    reused_constant = reused_rs = bracketed = 0
    histograms = {"N": {}, "bits": {}, "steps": {}}
    for op in ops:
        props = workload.properties(op)
        bracketed += bool(props.get("bracketed"))
        constant, rs = props.get("constant"), props.get("rs")
        if constant is not None:
            reused_constant += constant in seen_constants
            seen_constants.add(constant)
        if rs is not None:
            reused_rs += rs in seen_rs
            seen_rs.add(rs)
        for key, hist in histograms.items():
            if key in props:
                label = f"2^{round(math.log2(props[key]))}" if props[key] > 0 else "0"
                hist[label] = hist.get(label, 0) + 1
    n = max(len(ops), 1)
    return {
        "ops": len(ops),
        "bracketed_share": round(bracketed / n, 4),
        "reused_constant_share": round(reused_constant / n, 4),
        "reused_ratio_share": round(reused_rs / n, 4),
        "histograms": {k: dict(sorted(v.items(), key=lambda kv: int(kv[0][2:]) if kv[0] != "0" else -1))
                       for k, v in histograms.items() if v},
    }


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<44} {value:>14.6g} {unit:<8} {note}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as scratch:
        workload = WORKLOADS[name](rng, Path(scratch))
        setup_raw, setup = (None, None) if trace else measure_setup()
        base = Run(workload)
        rounds = base.run_for(seconds / 2 if trace else seconds, workload.rounds)
        failures = list(base.failures)
        failures += workload.finish(base.ops)
        print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
        print("properties " + json.dumps(property_report(workload, base.ops)))
        attempted = len(base.ops)
        metrics = {}
        if not trace:
            correct = attempted - len(base.failures)
            latencies = base.latencies
            p50, p90 = quantile(latencies, 0.5), quantile(latencies, 0.9)
            raw50, raw90 = quantile(base.raw, 0.5), quantile(base.raw, 0.9)
            n = len(latencies)
            tail_note = f"n={n}" + ("" if n >= 100 else ", under 10 samples beyond p90")
            scaled_timed = sum(latencies)
            metrics = {
                "setup_s": (quantile(setup, 0.5), "s",
                            f"median of {len(setup)} spawns; raw {quantile(setup_raw, 0.5):.4f}"),
                "ops_per_s": (correct / scaled_timed, "1/s",
                              f"{correct} correct ops in {scaled_timed:.3f} s; raw {correct / base.timed:.4f}"),
                "p50_ms": (p50 * 1e3, "ms", f"n={n}; raw {raw50 * 1e3:.4f}"),
                "p90_ms": (p90 * 1e3, "ms", f"{tail_note}; raw {raw90 * 1e3:.4f}"),
                "peak_rss_mb": (base.peak_rss_mb, "MB", "peak RSS before each op's check"),
            }
            print("end-to-end metrics")
            for key, (value, unit, note) in metrics.items():
                _print_metric(key, value, unit, note)
            _print_metric("failed_ratio", len(failures) / max(attempted, 1), "ratio", f"{len(failures)} of {attempted}")
        else:
            tracer = Tracer()
            tracer.install()
            workload.stdout_bytes = 0
            traced = Run(workload, tracer)
            traced.replay(rounds)
            failures += traced.failures
            attempted += len(traced.ops)
            overhead = sum(traced.latencies) / sum(base.latencies)
            tracer.write(TRACE_DIR / f"{name}.spans")
            per_layer = tracer.metrics(workload.stdout_bytes, overhead)
            print(f"per-layer metrics  ({len(traced.ops)} traced ops, {len(tracer.start)} spans, "
                  f"untraced {base.timed:.3f} s, traced {traced.timed:.3f} s)")
            for key, (value, unit) in per_layer.items():
                _print_metric(key, value, unit)
            metrics = {k: (v, u, "") for k, (v, u) in per_layer.items()}
        for reason in failures[:10]:
            print(f"FAILED: {reason}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and tracing stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, end="")
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cmexpand" / "__init__.py").is_file():
        print(f"error: no cmexpand sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import cmexpand.cli

    if Path(cmexpand.cli.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: imported cmexpand from {cmexpand.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
