"""Output checks, run outside the timed region.

Each check returns None when the op's outcome is right and a short reason
when it is not.  Expectations come from `reference`, never from the code
under test, except that `simulate` is held to the engine's partial sums:
agreement of the two routes is the property the ledger exists to show.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import reference as ref


def check_expand(args, outcome) -> str | None:
    """Signs, partial sums, termination and the tail bound against the integer ladder."""
    text, r, s, terms, bits = args
    # |target - X_n| shrinks like (r/s)**n, so 128 bits past that decide every
    # sign the library can decide, at a fraction of the cost of bits + 64
    target = ref.target_from_text(text, min(bits, math.ceil(terms * math.log2(s / r))) + 128)
    mismatch = []

    def visit(n, a, big_s, big_r):
        if mismatch or isinstance(outcome, Exception):
            return
        if n >= len(outcome.partial_sums) or not ref.same_value(outcome.partial_sums[n], a, big_s):
            mismatch.append(f"partial sum {n}")
        elif not target.within(a, big_s, big_r, s - r):
            mismatch.append(f"|target - X_{n}| exceeds error_bound({n})")

    ladder = ref.Ladder(target, r, s, "larger", terms, visit)
    if ladder.status == "nonconvergent":
        return None if _is_error(outcome, "NonConvergent") else f"expected NonConvergent, got {_name(outcome)}"
    if ladder.status == "undecided":
        return None if _is_error(outcome, "PrecisionExhausted") else "reference undecided"
    if isinstance(outcome, Exception):
        return f"unexpected {_name(outcome)}: {outcome}"
    if list(outcome.signs) != ladder.signs:
        return "sign sequence differs"
    if mismatch:
        return mismatch[0]
    if outcome.terminated != ladder.terminated:
        return "terminated flag differs"
    return None


def check_simulate(args, outcome, engine_sums) -> str | None:
    """Estimates equal the engine's partial sums; mass and center of mass are conserved."""
    m0, m1, r, s, steps = args
    if isinstance(outcome, Exception):
        return f"unexpected {_name(outcome)}: {outcome}"
    if list(outcome.estimates) != list(engine_sums[1:]):
        return "estimates differ from the engine's partial sums"
    if len(outcome.estimates) != steps:
        return f"{len(outcome.estimates)} estimates for {steps} steps"
    clusters = outcome.ledger.clusters()
    total = sum((c.mass for c in clusters), Fraction(0))
    if total != m0 + m1:
        return "total mass not conserved"
    if sum((c.position * c.mass for c in clusters), Fraction(0)) != Fraction(m1):
        return "center of mass not conserved"
    if any(c.mass <= 0 for c in clusters):
        return "a cluster lost all its mass"
    return None


def _name(outcome) -> str:
    return type(outcome).__name__ if isinstance(outcome, Exception) else "a result"


def _is_error(outcome, name: str) -> bool:
    return isinstance(outcome, Exception) and type(outcome).__name__ == name


# --- cli ----------------------------------------------------------------


def _dump(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def check_cli(expect: tuple, code: int, out: str, err: str) -> str | None:
    kind, *params = expect
    if kind == "error":
        (want,) = params
        if code != want:
            return f"exit {code}, expected {want}"
        if out or not err.startswith("error: "):
            return "error not reported on stderr alone"
        return None
    expected = _EXPECTED[kind](*params)
    if isinstance(expected, tuple):  # (exit code, text)
        want, text = expected
    else:
        want, text = 0, expected
    if code != want:
        return f"exit {code}, expected {want}: {err.strip()}"
    if callable(text):
        return text(out)
    return None if out == text else f"{kind} output differs"


def _expand_text(text, r, s, terms, x0, bits, fmt, block):
    ladder, sums = ref.ladder_sums(ref.target_from_text(text, bits + 64), r, s, x0, terms)
    if ladder.status != "ok":
        return 2, ""
    n = len(ladder.signs)
    rows = [
        {"n": i, "sign": ladder.signs[i - 1], "magnitude": str(Fraction(r ** (i - 1), s ** i)), "partial_sum": str(sums[i])}
        for i in range(1, n + 1)
    ]
    payload = {
        "target": text,
        "ratio": f"{r}/{s}",
        "x0": str(sums[0]),
        "terms": rows,
        "terminated": ladder.terminated,
        "error_bound_final": str(Fraction(r ** n, s ** n * (s - r))),
    }
    if block:
        full = n // block
        if full == 0:
            return 2, ""
        step = Fraction(r, s) ** block
        payload["regrouped"] = {
            "block": block,
            "coefficients": [str((sums[block * k] - sums[block * (k - 1)]) / step ** k) for k in range(1, full + 1)],
            "partial_sums": [str(sums[block * k]) for k in range(full + 1)],
        }
    if fmt == "json":
        return _dump(payload)
    if fmt == "csv":
        lines = ["n,sign,magnitude,partial_sum", f"0,,,{payload['x0']}"]
        lines += [f"{t['n']},{t['sign']},{t['magnitude']},{t['partial_sum']}" for t in rows]
        return "\n".join(lines) + "\n"
    lines = [
        f"target {text}  ratio {r}/{s}  x0 {payload['x0']}",
        "partial sums: " + ", ".join(str(x) for x in sums),
    ]
    if ladder.terminated:
        lines.append(f"terminated after {n} terms")
    lines.append(f"error bound after {n} terms: {payload['error_bound_final']}")
    if block:
        grouped = payload["regrouped"]
        lines.append(f"regrouped block {block} coefficients: " + ", ".join(grouped["coefficients"]))
        lines.append("regrouped partial sums: " + ", ".join(grouped["partial_sums"]))
    return "\n".join(lines) + "\n"


def _a_number_values(a, b, s, t, hi):
    """a s**n + (-1)**n b t**n over s + t has roots s and -t: x_n = (s - t) x_{n-1} + s t x_{n-2}."""
    x0 = (a + b) / (s + t)
    x1 = (a * s - b * t) / (s + t)
    values = ref.two_term(s - t, s * t, x0, x1, 0, hi)
    return [values[n] for n in range(hi + 1)]


def _gauss_pow(z: tuple[int, int], n: int) -> tuple[int, int]:
    re_, im = 1, 0
    for _ in range(n):
        re_, im = re_ * z[0] - im * z[1], re_ * z[1] + im * z[0]
    return re_, im


def _seq_text(family, params, lo, hi):
    if family == "j-complex":
        return _complex_check(params["mu"], params["nu"], hi)
    if family == "jacobsthal":
        values = ref.gen_j_values(1, 2, lo, hi)
        shown = {}
    elif family == "gen-j":
        values = ref.gen_j_values(params["r"], params["s"], lo, hi)
        shown = params
    elif family == "gen-jlike":
        r, s = params["r"], params["s"]
        values = ref.gen_j_like_values(r + s, r * s, lo, hi)
        shown = params
    elif family == "lucas":
        values = dict(enumerate(ref.lucas_values(Fraction(params["p"]), Fraction(params["q"]), hi)))
        shown = {"p": str(params["p"]), "q": str(params["q"])}
    else:
        values = dict(enumerate(_a_number_values(params["a"], params["b"], params["s"], params["t"], hi)))
        shown = {k: str(v) for k, v in params.items()}
    return _dump({
        "family": family,
        "params": shown,
        "values": [{"n": n, "value": str(values[n])} for n in range(lo, hi + 1)],
    })


def _complex_check(mu: complex, nu: complex, hi: int):
    """Floating output, checked against exact Gaussian-integer powers to 1e-9 relative."""

    def check(out: str) -> str | None:
        doc = json.loads(out)
        if doc["params"] != {"mu": {"re": mu.real, "im": mu.imag}, "nu": {"re": nu.real, "im": nu.imag}}:
            return "j-complex params differ"
        if [v["n"] for v in doc["values"]] != list(range(hi + 1)):
            return "j-complex indices differ"
        g_mu, g_nu = (int(mu.real), int(mu.imag)), (int(nu.real), int(nu.imag))
        for n, item in enumerate(doc["values"]):
            a, b = _gauss_pow(g_nu, n), _gauss_pow(g_mu, n)
            exact = complex(a[0] - b[0], a[1] - b[1]) / (nu - mu)
            got = complex(item["value"]["re"], item["value"]["im"])
            if abs(got - exact) > 1e-9 * max(1.0, abs(exact)):
                return f"j-complex value {n} off by {abs(got - exact):.3g}"
        return None

    return check


def _identity_lhs(which, family, r, s, n, m):
    values = (ref.gen_j_values(r, s, -1, n + m + 1) if family == "j"
              else ref.gen_j_like_values(r + s, r * s, -1, n + m + 1))
    if which == "catalan":
        return values[n - m] * values[n + m] - values[n] ** 2
    if which == "convolution":
        return values[n + m]
    return values[n] * values[m + 1] - values[n + 1] * values[m]


_IDENTITIES = ("catalan", "convolution", "docagne")
_FAMILY = {"j": "gen-j", "jlike": "gen-jlike"}


def _identity_text(which, family, r, s, n, m):
    reports = []
    for name in _IDENTITIES if which == "all" else (which,):
        lhs = str(_identity_lhs(name, family, r, s, n, m))
        reports.append({"identity": name, "family": _FAMILY[family], "r": r, "s": s, "n": n, "m": m,
                        "lhs": lhs, "rhs": lhs, "holds": True})
    return _dump(reports)


def _sweep_text(family, r_max, s_max, n_max):
    pairs = sum(max(0, s_max - r) for r in range(1, r_max + 1))
    checked = 2 * n_max * (n_max + 1)  # n > m twice (Catalan, D'Ocagne); n >= 0, m >= 1 once
    return _dump({
        "family": _FAMILY[family], "r_max": r_max, "s_max": s_max, "n_max": n_max,
        "checked": pairs * checked,
        "skipped": pairs * (3 * (n_max + 1) ** 2 - checked),
        "failures": [],
    })


def _simulate_text(m0, m1, r, s, steps, trace):
    _, sums = ref.ladder_sums(ref.RationalTarget(m1, m0 + m1), r, s, "larger", steps)
    if not trace:
        return _dump({"target": str(Fraction(m1, m0 + m1)), "estimates": [str(x) for x in sums[1:]],
                      "terminated": False})
    return lambda out: _trace_check(out, sums)


_MOVE = re.compile(r"step (\d+): move (\S+)@(\S+) \+ (\S+)@(\S+) -> (\S+) ; estimate=(\S+)$")


def _trace_check(out: str, sums: list[Fraction]) -> str | None:
    """One line per move; each lands at the ladder estimate, at the drawn masses' center."""
    lines = out.splitlines()
    if len(lines) != len(sums) - 1:
        return f"{len(lines)} trace lines for {len(sums) - 1} steps"
    for n, line in enumerate(lines, 1):
        match = _MOVE.match(line)
        if not match or int(match[1]) != n:
            return f"bad trace line {n}"
        ma, pa, mb, pb, dest, est = (Fraction(x) for x in match.groups()[1:])
        if dest != sums[n] or est != sums[n] or pb != sums[n - 1]:
            return f"trace step {n} off the ladder"
        if ma <= 0 or mb < 0 or (ma * pa + mb * pb) / (ma + mb) != dest:
            return f"trace step {n} does not land at the moved masses' center"
    return None


def _report(entry_id, total):
    return {"id": entry_id, "matched": total, "total": total, "first_mismatch": None}


def _verify_catalog_text(entries):
    """Both the builtin catalog and the generated ones must verify entry by entry."""
    return _dump({"reports": [_report(e["id"], len(e["values"])) for e in entries], "ok": True})


def _verify_corrupt_text(entries, victim, at, true_value):
    reports = [_report(e["id"], len(e["values"])) for e in entries]
    entry = entries[victim]
    reports[victim] = {"id": entry["id"], "matched": at, "total": len(entry["values"]), "first_mismatch": {
        "index": entry["offset"] + at, "expected": entry["values"][at], "computed": true_value}}
    return 3, _dump({"reports": reports, "ok": False})


def _verify_bfile_text(lo, values):
    return _dump({"reports": [_report("B", len(values))], "ok": True})


def _verify_bfile_corrupt_text(lo, values, at, bad_value):
    return 3, _dump({"reports": [{"id": "B", "matched": at, "total": len(values), "first_mismatch": {
        "index": lo + at, "expected": str(bad_value), "computed": str(values[at])}}], "ok": False})


_EXPECTED = {
    "expand": _expand_text,
    "seq": _seq_text,
    "identity": _identity_text,
    "sweep": _sweep_text,
    "simulate": _simulate_text,
        "verify-catalog": _verify_catalog_text,
    "verify-corrupt": _verify_corrupt_text,
    "verify-bfile": _verify_bfile_text,
    "verify-bfile-corrupt": _verify_bfile_corrupt_text,
}

