"""Command-line front end.

Subcommands: expand, seq, identity, simulate, verify.  Rationals are printed
as "num/den" strings everywhere; JSON output uses a fixed key order so that
parsing and re-serializing a document is byte-identical.

Exit codes: 0 success, 1 usage or parse error, 2 mathematical error
(non-convergent expansion, degenerate parameters, exhausted precision),
3 verification or identity mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import catalog as cat
from . import identities, sequences, simulator
from .engine import ExpansionRatio, Expansion, check_budget, expand, regroup, term_magnitude
from .errors import (
    BFileError,
    BudgetExceeded,
    CmexpandError,
    MalformedCatalog,
    RangeError,
    TargetSyntaxError,
    UnknownFamily,
)
from .targets import parse_target

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2
EXIT_MISMATCH = 3

_USAGE_ERRORS = (
    TargetSyntaxError, RangeError, BFileError, UnknownFamily, MalformedCatalog, BudgetExceeded, ValueError,
    TypeError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so run() owns the exit code."""

    def error(self, message):
        raise _UsageError(message)


def _json_dump(payload) -> str:
    return json.dumps(payload, indent=2)


def _rat(value: Fraction) -> str:
    return str(value)


def _num(value) -> dict | str:
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return _rat(value)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad rational {text!r}: {exc}") from None


def _expansion_payload(run: Expansion, target_text: str, block: int | None) -> dict:
    terms = [
        {
            "n": i + 1,
            "sign": run.signs[i],
            "magnitude": _rat(term_magnitude(run.ratio, i + 1)),
            "partial_sum": _rat(run.partial_sums[i + 1]),
        }
        for i in range(len(run.signs))
    ]
    payload = {
        "target": target_text,
        "ratio": str(run.ratio),
        "x0": _rat(run.x0),
        "terms": terms,
        "terminated": run.terminated,
        "error_bound_final": _rat(run.final_error_bound),
    }
    if block is not None:
        grouped = regroup(run, block)
        payload["regrouped"] = {
            "block": block,
            "coefficients": [_rat(c) for c in grouped.coefficients],
            "partial_sums": [_rat(x) for x in grouped.partial_sums],
        }
    return payload


def _print_expansion_plain(payload: dict):
    print(f"target {payload['target']}  ratio {payload['ratio']}  x0 {payload['x0']}")
    sums = [payload["x0"]] + [t["partial_sum"] for t in payload["terms"]]
    print("partial sums: " + ", ".join(sums))
    if payload["terminated"]:
        print(f"terminated after {len(payload['terms'])} terms")
    print(f"error bound after {len(payload['terms'])} terms: {payload['error_bound_final']}")
    if "regrouped" in payload:
        grouped = payload["regrouped"]
        print(f"regrouped block {grouped['block']} coefficients: " + ", ".join(grouped["coefficients"]))
        print("regrouped partial sums: " + ", ".join(grouped["partial_sums"]))


def _print_expansion_csv(payload: dict):
    print("n,sign,magnitude,partial_sum")
    print(f"0,,,{payload['x0']}")
    for t in payload["terms"]:
        print(f"{t['n']},{t['sign']},{t['magnitude']},{t['partial_sum']}")


def _cmd_expand(args) -> int:
    check_budget(args.terms, args.bits)
    target = parse_target(args.target, args.bits)
    ratio = ExpansionRatio.from_text(args.ratio)
    run = expand(target, ratio, args.x0, max_terms=args.terms, max_bits=args.bits)
    payload = _expansion_payload(run, args.target, args.regroup)
    if args.format == "json":
        print(_json_dump(payload))
    elif args.format == "csv":
        _print_expansion_csv(payload)
    else:
        _print_expansion_plain(payload)
    return EXIT_OK


def _seq_values(args) -> tuple[dict, list]:
    lo, hi = args.from_index, args.to_index
    if hi < lo:
        raise _UsageError("--to must be at least --from")
    family = sequences.FAMILIES[sequences.SEQ_SPELLINGS[args.family]]
    _require(args, *family.params)
    arguments = family.arguments(vars(args))
    params = {name: v if isinstance(v, int) else _num(v) for name, v in zip(family.params, arguments)}
    if family.complex_index and args.lambda_ is not None:
        return params, [("lambda", family.value(*arguments, family.convert(args.lambda_, "lambda")))]
    return params, [(n, family.value(*arguments, n)) for n in range(lo, hi + 1)]


def _require(args, *names):
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise _UsageError(f"family {args.family} needs {flags}")


def _cmd_seq(args) -> int:
    params, values = _seq_values(args)
    payload = {
        "family": args.family,
        "params": params,
        "values": [{"n": n, "value": _num(v)} for n, v in values],
    }
    print(_json_dump(payload))
    return EXIT_OK


def _report_payload(report: identities.IdentityReport) -> dict:
    return {
        "identity": report.identity,
        "family": report.family,
        "r": report.r,
        "s": report.s,
        "n": report.n,
        "m": report.m,
        "lhs": _rat(report.lhs),
        "rhs": _rat(report.rhs),
        "holds": report.holds,
    }


def _cmd_identity(args) -> int:
    family = sequences.IDENTITY_SPELLINGS[args.family]
    which = identities.IDENTITIES if args.which == "all" else (args.which,)
    if args.sweep is not None:
        summary = identities.identity_sweep(family, args.r, args.s, args.sweep)
        failures = [f for f in summary.failures if f.identity in which]
        payload = {
            "family": family,
            "r_max": args.r,
            "s_max": args.s,
            "n_max": args.sweep,
            "checked": summary.checked,
            "skipped": summary.skipped,
            "failures": [_report_payload(f) for f in failures],
        }
        print(_json_dump(payload))
        return EXIT_OK if not failures else EXIT_MISMATCH
    if args.n is None or args.m is None:
        raise _UsageError("single check needs --n and --m (or use --sweep)")
    reports = [identities.identity_check(name, family, args.r, args.s, args.n, args.m) for name in which]
    print(_json_dump([_report_payload(r) for r in reports]))
    return EXIT_OK if all(r.holds for r in reports) else EXIT_MISMATCH


def _cmd_simulate(args) -> int:
    ratio = ExpansionRatio.from_text(args.ratio)
    m0, m1 = _parse_rational(args.m0), _parse_rational(args.m1)
    result = simulator.simulate(m0, m1, ratio, args.steps)
    if args.trace:
        for rec in result.records:
            print(
                f"step {rec.index}: move {rec.bracket_mass}@{rec.bracket_position}"
                f" + {rec.estimate_mass}@{rec.estimate_position}"
                f" -> {rec.destination} ; estimate={rec.destination}"
            )
        if result.terminated:
            print("terminated: estimate equals the target exactly")
        return EXIT_OK
    payload = {
        "target": _rat(result.ledger.target_cm),
        "estimates": [_rat(e) for e in result.estimates],
        "terminated": result.terminated,
    }
    print(_json_dump(payload))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.bfile is not None:
        if args.id is None or args.family is None:
            raise _UsageError("--bfile needs --id and --family")
        offset, values = cat.load_bfile(args.bfile)
        params = json.loads(args.params) if args.params else {}
        entries = [
            cat.CatalogEntry(
                id=args.id,
                family=args.family,
                params=params,
                offset=offset,
                values=tuple(values),
                provenance=cat.PROVENANCE_BFILE,
            )
        ]
    elif args.catalog is not None:
        entries = cat.load_catalog(args.catalog)
    else:
        entries = cat.builtin_catalog()
    reports = cat.verify_all(entries)
    payload = {
        "reports": [
            {
                "id": rep.entry_id,
                "matched": rep.matched_count,
                "total": rep.total,
                "first_mismatch": None
                if rep.first_mismatch is None
                else {
                    "index": rep.first_mismatch[0],
                    "expected": _rat(rep.first_mismatch[1]),
                    "computed": None if rep.first_mismatch[2] is None else _rat(rep.first_mismatch[2]),
                },
            }
            for rep in reports
        ],
        "ok": all(rep.fully_matched for rep in reports),
    }
    print(_json_dump(payload))
    return EXIT_OK if payload["ok"] else EXIT_MISMATCH


def _build_parser() -> _Parser:
    parser = _Parser(prog="cmexpand", description="Signed r/s expansions and their sequence families.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand a target in powers of r/s")
    p.add_argument("--target", required=True, help="rational, 'c*pi', or '1/pi'")
    p.add_argument("--ratio", required=True, help="ratio r/s with s > r >= 1")
    p.add_argument("--x0", choices=["zero", "one", "larger"], default="larger")
    p.add_argument("--terms", type=int, default=16)
    p.add_argument("--bits", type=int, default=256)
    p.add_argument("--regroup", type=int, default=None, metavar="K")
    p.add_argument("--format", choices=["json", "csv", "plain"], default="json")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("seq", help="evaluate a sequence family over an index range")
    p.add_argument("--family", required=True, choices=list(sequences.SEQ_SPELLINGS))
    users = {}  # parameter name -> the seq families that take it
    for spelling, name in sequences.SEQ_SPELLINGS.items():
        for param in sequences.FAMILIES[name].params:
            users.setdefault(param, []).append(spelling)
    for param, spellings in users.items():
        p.add_argument(f"--{param}", help="for " + ", ".join(spellings))
    p.add_argument("--lambda", dest="lambda_", help="single complex index, for families that take one")
    p.add_argument("--from", dest="from_index", type=int, default=0)
    p.add_argument("--to", dest="to_index", type=int, default=10)
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("identity", help="check the Catalan/convolution/D'Ocagne identities")
    p.add_argument("--which", choices=["catalan", "convolution", "docagne", "all"], default="all")
    p.add_argument("--family", choices=list(sequences.IDENTITY_SPELLINGS), required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--sweep", type=int, default=None, metavar="NMAX")
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("simulate", help="run the mass-ledger simulation")
    p.add_argument("--m0", required=True, help="mass at x=0")
    p.add_argument("--m1", required=True, help="mass at x=1")
    p.add_argument("--ratio", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="verify catalog entries against recomputation")
    p.add_argument("--catalog", default=None, help="catalog JSON path (default: builtin)")
    p.add_argument("--bfile", default=None, help="verify one b-file instead")
    p.add_argument("--id", default=None)
    p.add_argument("--family", default=None)
    p.add_argument("--params", default=None, help="family params as a JSON object")
    p.set_defaults(func=_cmd_verify)
    return parser


def run(argv=None) -> int:
    """Dispatch a command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CmexpandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
