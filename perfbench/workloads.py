"""The three workloads: what one op is, how inputs are drawn, and why.

Every workload is a closed loop: one caller in one process, each op waiting
for the one before it.  Ops come in rounds, and the run stops at the first
round boundary after the timed budget.  The sizes in a round are part of the
workload's definition and the same for every seed.  In `expand` and
`ledger` every round holds each kind of op once in each of a few log-spaced
size strata.  In `expand` where in its stratum a size falls walks a
golden-ratio sequence from round to round, so sizes spread evenly without
clustering (a median that falls between two size clusters jumps between
them); `ledger`, with only two or three rounds a run, repeats the stratum
midpoints, which puts its median and 90th percentile inside one kind of op
each.  `cli`, whose rounds are short, walks its tail sizes along
golden-ratio sequences.
The seed draws everything else (targets, masses, parameters, order).  So a
run's size mix, and with it its percentiles, depends neither on the seed
nor much on how many rounds fit.  The library sees only the generated
strings and integers.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import reference as ref

RATIOS = ((1, 2), (2, 3), (7, 8))
_GOLDEN = (math.sqrt(5) - 1) / 2


class Sweep:
    """Points of a golden-ratio sequence on [0, 1), from a fixed or a seeded start."""

    def __init__(self, start: float | random.Random = 0.0):
        self.u = start.random() if isinstance(start, random.Random) else start

    def next(self) -> float:
        self.u = (self.u + _GOLDEN) % 1.0
        return self.u


def log_uniform(u: float, lo: int, hi: int) -> int:
    return round(lo * (hi / lo) ** u)


def strata(u: float, lo: int, hi: int, count: int) -> list[int]:
    """One size in each of `count` equal log-spaced strata of lo..hi, at offset u within each."""
    return [log_uniform((i + u) / count, lo, hi) for i in range(count)]


# --- expand -------------------------------------------------------------
#
# Why: `engine` and `realnum` do almost all the work.  Rational targets take
# the engine's exact comparison path; 1/pi and c*pi take the bracketed path,
# each parsed fresh so every op pays a cold oracle as a CLI run does.  N takes
# five log-spaced values across 256..4096, with bits = 4N, so the run shows
# scaling rather than one point; near 4096 a seed-commit op already takes
# seconds, and a 16k-term op minutes.
# Targets sit in [0.15, 0.85], which every ratio reaches; on top, each round
# has one rational target within 0.03 of 0 or 1 in 2/3 and in 7/8, which the
# ladder cannot reach and which must raise NonConvergent.  A fixed count per
# round matters: these ops fail fast, and a varying share of them would move
# the median.  Judges ROADMAP item 2 (engine step loop) and item 3
# (binary-splitting pi oracle).

EXPAND_N = (256, 4096)
EXPAND_STRATA = 5


def expand_rounds(rng: random.Random):
    """Rounds of 32 ops (target, r, s, N, bits): each ratio with a rational and a
    bracketed target in every N stratum, plus two unreachable targets.  Positions
    walk a seeded golden-ratio sequence per (ratio, kind)."""
    combos = [(ratio, bracketed) for ratio in RATIOS for bracketed in (False, True)]
    offsets = {combo: Sweep(i / len(combos)) for i, combo in enumerate(combos)}
    places = {combo: Sweep(rng) for combo in combos}
    count = {combo: 0 for combo in combos}
    while True:
        ops = []
        sizes = {combo: strata(offsets[combo].next(), *EXPAND_N, EXPAND_STRATA) for combo in combos}
        for combo in combos:
            for n in sizes[combo]:
                (r, s), bracketed = combo
                place = 0.15 + 0.7 * places[combo].next()
                text = expand_target(rng, bracketed, place, bracketed and count[combo] % 4 == 0)
                count[combo] += 1
                ops.append((text, r, s, n, 4 * n))
        for r, s in RATIOS[1:]:
            edge = rng.uniform(0.001, 0.03)
            n = sizes[((r, s), False)][0]
            ops.append((expand_target(rng, False, rng.choice((edge, 1 - edge)), False), r, s, n, 4 * n))
        rng.shuffle(ops)
        yield ops


def expand_target(rng: random.Random, bracketed: bool, place: float, inv_pi: bool) -> str:
    """A target near `place` in (0, 1): p/q with q up to 10**12, 1/pi, or c*pi."""
    if not bracketed:
        q = log_uniform(rng.random(), 10, 10**12)
        return f"{round(place * q)}/{q}"
    if inv_pi:
        return "1/pi"
    b = rng.randint(10, 10_000)
    return f"{max(1, math.floor(place * b / math.pi))}/{b}*pi"


# --- ledger -------------------------------------------------------------
#
# Why: `simulator`'s cluster scan does nearly all the work; `engine` runs only
# through term_magnitude and error_bound, and `realnum` not at all.  It is the
# control for engine and oracle changes, and the home of the ledger rebuild
# (ROADMAP item 2, simulator half).  Masses are small integers whose target
# m1/(m0+m1) the ladder reaches without an exact hit, so every op runs its
# full step count: the midpoints of five log-spaced strata of 64..512.

LEDGER_STEPS = (64, 512)
LEDGER_STRATA = 5


def draw_masses(rng: random.Random, r: int, s: int, steps: int, reachable: bool = True) -> tuple[int, int]:
    """Masses m0, m1 in 1..20 whose target m1/(m0+m1) the ladder reaches in
    exactly `steps` moves with no exact hit, or (reachable=False) cannot reach."""
    while True:
        m0, m1 = rng.randint(1, 20), rng.randint(1, 20)
        ladder = ref.Ladder(ref.RationalTarget(m1, m0 + m1), r, s, "larger", steps)
        full = ladder.status == "ok" and len(ladder.signs) == steps and not ladder.terminated
        if full if reachable else ladder.status == "nonconvergent":
            return m0, m1


def ledger_rounds(rng: random.Random):
    """Rounds of 15 simulate ops (m0, m1, r, s, steps): every ratio at every stratum midpoint."""
    while True:
        ops = []
        for r, s in RATIOS:
            for steps in strata(0.5, *LEDGER_STEPS, LEDGER_STRATA):
                ops.append((*draw_masses(rng, r, s, steps), r, s, steps))
        rng.shuffle(ops)
        yield ops


# --- cli ----------------------------------------------------------------
#
# Why: `cmexpand.cli.run(argv)` in-process over all five subcommands at small
# sizes.  `sequences`, `identities`, `catalog`, `numerics`, `targets` and the
# CLI's own argparse and formatting do most of the work; `engine` and
# `realnum` run only in short, cold calls.  A change that buys asymptotic
# speed with per-call overhead shows here as a loss.  The identity sweeps,
# long Lucas ranges and surd catalogs make up the tail.  Judges ROADMAP item 4
# (one family registry, identity-sweep table) and item 5 (input budgets), and
# guards items 2 and 3 against per-call cost.  Seven of each round's 25 ops
# are bad input that must exit with 1, 2 or 3.


@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    expect: tuple  # (check name, parameters) read by checks.check_cli


class CliFiles:
    """Catalogs and b-files the `verify` ops read, written under a scratch directory."""

    def __init__(self, rng: random.Random, root: Path, builtin: list[dict]):
        self.builtin = builtin  # entries of the packaged catalog, read from its JSON file
        self.catalogs = []
        for i in range(3):
            entries = surd_catalog(rng)
            path = root / f"catalog{i}.json"
            path.write_text(json.dumps({"entries": entries}, indent=2), encoding="utf-8")
            self.catalogs.append((str(path), entries))
        entries = surd_catalog(rng)
        victim = rng.randrange(len(entries))
        index = rng.randrange(len(entries[victim]["values"]))
        true_value = entries[victim]["values"][index]
        entries[victim]["values"][index] = str(Fraction(true_value) + 1)
        path = root / "corrupt.json"
        path.write_text(json.dumps({"entries": entries}, indent=2), encoding="utf-8")
        self.corrupt_catalog = (str(path), entries, victim, index, true_value)
        self.bfiles = []
        for i in range(3):
            r = rng.randint(1, 4)
            s = rng.randint(r + 1, 9)
            lo = -rng.randint(0, 10)
            hi = rng.randint(20, 60)
            values = ref.gen_j_values(r, s, lo, hi)
            path = root / f"b{i}.txt"
            lines = [f"# gen-j r={r} s={s}"] + [f"{n} {values[n]}" for n in range(lo, hi + 1)]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.bfiles.append((str(path), r, s, lo, [values[n] for n in range(lo, hi + 1)]))
        _, r, s, lo, values = self.bfiles[0]
        index = rng.randrange(len(values))
        bad = list(values)
        bad[index] = bad[index] + 1
        path = root / "corrupt_b.txt"
        path.write_text("".join(f"{lo + i} {v}\n" for i, v in enumerate(bad)), encoding="utf-8")
        self.corrupt_bfile = (str(path), r, s, lo, values, index, bad[index])


_SURDS = ((Fraction(1, 2), Fraction(1, 2), 5), (1, 1, 2), (1, 1, 3))
SURD_PREFIX = 100


def surd_catalog(rng: random.Random) -> list[dict]:
    """Entries with long surd-parameter prefixes (Fibonacci, Pell and A002605 type), plus
    a random surd pair, a Lucas range and a gen-j window with negative indices."""
    entries = []
    pairs = list(_SURDS) + [(Fraction(rng.randint(1, 4), 2), Fraction(rng.randint(1, 2), 2), rng.choice((6, 7, 10, 11, 13)))]
    for k, (a, b, d) in enumerate(pairs):
        a, b = Fraction(a), Fraction(b)
        lo, hi = -4, SURD_PREFIX
        values = ref.gen_j_like_values(2 * a, a * a - b * b * d, lo, hi)
        entries.append({
            "id": f"surd{k}-d{d}",
            "family": "gen-jlike",
            "params": {"d": d, "r": {"a": str(a), "b": str(-b)}, "s": {"a": str(a), "b": str(b)}},
            "offset": lo,
            "values": [str(values[n]) for n in range(lo, hi + 1)],
            "provenance": "derived",
        })
    p, q = rng.randint(1, 3), rng.choice((-2, -1, 1, 2))
    hi = SURD_PREFIX
    entries.append({
        "id": "lucas", "family": "lucas", "params": {"p": str(p), "q": str(q)}, "offset": 0,
        "values": [str(v) for v in ref.lucas_values(Fraction(p), Fraction(q), hi)],
        "provenance": "derived",
    })
    r = rng.randint(1, 3)
    s = rng.randint(r + 1, 6)
    values = ref.gen_j_values(r, s, -12, 12)
    entries.append({
        "id": "gen-j-window", "family": "gen-j", "params": {"r": r, "s": s}, "offset": -12,
        "values": [str(values[n]) for n in range(-12, 13)],
        "provenance": "derived",
    })
    return entries


def _ratio(rng):
    r, s = rng.choice(RATIOS)
    return r, s, f"{r}/{s}"


def _reachable_rational(rng, r, s, x0, terms):
    while True:
        q = rng.randint(3, 10**6)
        text = f"{rng.randint(0, q)}/{q}"
        if ref.Ladder(ref.target_from_text(text, 0), r, s, x0, terms).status == "ok":
            return text


def _pi_text(rng):
    if rng.random() < 0.3:
        return "1/pi"
    b = rng.randint(4, 400)
    return f"{rng.randint(1, math.floor(b / math.pi))}/{b}*pi"


def _family_window(rng, lo_min, hi_lo, hi_hi):
    return rng.randint(lo_min, 0), rng.randint(hi_lo, hi_hi)


LUCAS_TO = (100, 300)
SWEEP_NMAX = (6, 12)


def cli_round(rng: random.Random, files: CliFiles, index: int, sizes: dict[str, Sweep]) -> list[CliOp]:
    """One op of every kind; the tail kinds take their size from `sizes`, the rest from the seed."""
    ops = []

    def expand_op(text, r, s, terms, x0, bits, fmt, block):
        argv = ["expand", "--target", text, "--ratio", f"{r}/{s}", "--terms", str(terms),
                "--x0", x0, "--bits", str(bits), "--format", fmt]
        if block:
            argv += ["--regroup", str(block)]
        ops.append(CliOp(tuple(argv), ("expand", text, r, s, terms, x0, bits, fmt, block)))

    for fmt in ("json", "csv", "plain"):
        r, s, _ = _ratio(rng)
        x0 = rng.choice(("zero", "one", "larger"))
        terms = rng.randint(8, 128)
        expand_op(_reachable_rational(rng, r, s, x0, terms), r, s, terms, x0, 256, fmt,
                  rng.choice((None, rng.randint(2, 6))))
    for fmt in ("json", "plain"):
        r, s, _ = _ratio(rng)
        bits = rng.choice((64, 128, 256, 512))
        # stay well inside the precision cap: each term needs log2(s/r) more bits
        top = min(128, int((bits - 40) / math.log2(s / r)))
        expand_op(_pi_text(rng), r, s, rng.randint(8, top), "larger", bits, fmt,
                  rng.choice((None, rng.randint(2, 4))))

    lo, hi = _family_window(rng, -8, 10, 40)
    ops.append(CliOp(("seq", "--family", "jacobsthal", "--from", str(lo), "--to", str(hi)),
                     ("seq", "jacobsthal", {}, lo, hi)))
    for family in ("gen-j", "gen-jlike"):
        r = rng.randint(1, 5)
        s = rng.randint(r + 1, 9)
        lo, hi = _family_window(rng, -10, 10, 40)
        ops.append(CliOp(("seq", "--family", family, "--r", str(r), "--s", str(s), "--from", str(lo), "--to", str(hi)),
                         ("seq", family, {"r": r, "s": s}, lo, hi)))
    p, q = rng.randint(-3, 3), rng.choice((-3, -2, -1, 1, 2, 3))
    hi = log_uniform(sizes["lucas"].next(), *LUCAS_TO)
    ops.append(CliOp(("seq", "--family", "lucas", "--p", str(p), "--q", str(q), "--from", "0", "--to", str(hi)),
                     ("seq", "lucas", {"p": p, "q": q}, 0, hi)))
    a, b, s, t = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
    if s + t == 0:
        t += 1
    hi = rng.randint(10, 30)
    # values that may start with '-' go after '=', or argparse reads them as flags
    ops.append(CliOp(("seq", "--family", "a-num", f"--a={a}", f"--b={b}", f"--s={s}", f"--t={t}",
                      "--from", "0", "--to", str(hi)),
                     ("seq", "a-num", {"a": a, "b": b, "s": s, "t": t}, 0, hi)))
    mu = complex(rng.randint(-3, 3), rng.randint(-3, 3))
    nu = mu + complex(rng.randint(1, 3), rng.randint(-2, 2))
    hi = rng.randint(5, 14)
    ops.append(CliOp(("seq", "--family", "j-complex", f"--mu={_complex_text(mu)}", f"--nu={_complex_text(nu)}",
                      "--from", "0", "--to", str(hi)),
                     ("seq", "j-complex", {"mu": mu, "nu": nu}, 0, hi)))

    which = rng.choice(("catalan", "convolution", "docagne", "all"))
    family = rng.choice(("j", "jlike"))
    r = rng.randint(1, 6)
    s = rng.randint(r + 1, 12)
    n = rng.randint(2, 20)
    m = rng.randint(1, n - 1)
    ops.append(CliOp(("identity", "--which", which, "--family", family, "--r", str(r), "--s", str(s),
                      "--n", str(n), "--m", str(m)),
                     ("identity", which, family, r, s, n, m)))
    r_max, s_max = 2, 4
    n_max = SWEEP_NMAX[0] + int(sizes["sweep"].next() * (SWEEP_NMAX[1] - SWEEP_NMAX[0] + 1))
    family = rng.choice(("j", "jlike"))
    ops.append(CliOp(("identity", "--which", rng.choice(("all", "catalan", "docagne")), "--family", family,
                      "--r", str(r_max), "--s", str(s_max), "--sweep", str(n_max)),
                     ("sweep", family, r_max, s_max, n_max)))

    for trace in (False, True):
        r, s, text = _ratio(rng)
        steps = rng.randint(5, 40)
        m0, m1 = draw_masses(rng, r, s, steps)
        argv = ["simulate", "--m0", str(m0), "--m1", str(m1), "--ratio", text, "--steps", str(steps)]
        ops.append(CliOp(tuple(argv + ["--trace"] * trace), ("simulate", m0, m1, r, s, steps, trace)))

    ops.append(CliOp(("verify",), ("verify-catalog", files.builtin)))
    path, entries = files.catalogs[index % len(files.catalogs)]
    ops.append(CliOp(("verify", "--catalog", path), ("verify-catalog", entries)))
    path, r, s, lo, values = files.bfiles[index % len(files.bfiles)]
    ops.append(CliOp(("verify", "--bfile", path, "--id", "B", "--family", "gen-j",
                      "--params", json.dumps({"r": r, "s": s})),
                     ("verify-bfile", lo, values)))

    # bad input: exit 1 (usage), 2 (mathematical error), 3 (mismatch)
    r, s, text = _ratio(rng)
    usage = [
        ("expand", "--target", f"{rng.randint(5, 9)}/{rng.randint(2, 4)}", "--ratio", text),
        ("expand", "--target", f"{rng.randint(1, 9)}//{rng.randint(2, 9)}", "--ratio", text),
        ("seq", "--family", "gen-j", "--r", str(r), "--from", "0", "--to", "5"),
        ("seq", "--family", "gen-j", "--r", str(r), "--s", str(s), "--from", "5", "--to", "1"),
        ("simulate", "--m0", "1", "--m1", "2", "--ratio", f"{s}/{r}", "--steps", "3"),
        ("identity", "--family", "j", "--r", str(r), "--s", str(s), "--n", "3"),
        ("expand", "--target", "1/3", "--ratio", text, "--bogus", "x"),
    ]
    ops.append(CliOp(rng.choice(usage), ("error", 1)))
    r, s, text = rng.choice(((2, 3, "2/3"), (7, 8, "7/8")))
    q = rng.randint(100, 10**6)
    ops.append(CliOp(("expand", "--target", f"1/{q}", "--ratio", text, "--x0", "zero", "--terms", "32"), ("error", 2)))
    r = rng.randint(1, 6)
    ops.append(CliOp(("seq", "--family", "gen-jlike", "--r", str(r), "--s", str(r), "--from", "0", "--to", "5"), ("error", 2)))
    m0, m1 = draw_masses(rng, 2, 3, 30, reachable=False)
    ops.append(CliOp(("simulate", "--m0", str(m0), "--m1", str(m1), "--ratio", "2/3", "--steps", "30"), ("error", 2)))
    n = rng.randint(1, 8)
    ops.append(CliOp(("identity", "--which", "catalan", "--family", "j", "--r", "1", "--s", "2", "--n", str(n),
                      "--m", str(n + rng.randint(0, 3))), ("error", 2)))
    path, entries, victim, at, true_value = files.corrupt_catalog
    ops.append(CliOp(("verify", "--catalog", path), ("verify-corrupt", entries, victim, at, true_value)))
    path, r, s, lo, values, at, bad_value = files.corrupt_bfile
    ops.append(CliOp(("verify", "--bfile", path, "--id", "B", "--family", "gen-j", "--params", json.dumps({"r": r, "s": s})),
                     ("verify-bfile-corrupt", lo, values, at, bad_value)))
    rng.shuffle(ops)
    return ops


def _complex_text(z: complex) -> str:
    return f"{int(z.real)}{int(z.imag):+d}j"


def cli_rounds(rng: random.Random, files: CliFiles):
    sizes = {"lucas": Sweep(0.0), "sweep": Sweep(0.5)}
    index = 0
    while True:
        yield cli_round(rng, files, index, sizes)
        index += 1
