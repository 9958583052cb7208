"""Ground-truth sequence fixtures and cross-verification against the library.

The builtin catalog freezes every sequence prefix the project treats as
ground truth (reference listings plus closed-form derivations).  Each entry
records a family and its parameters, so `verify_entry` can recompute every
value through the sequences or engine modules and compare exactly.  Entries
round-trip through a JSON document and through OEIS-style b-files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .engine import ExpansionRatio, check_budget, expand
from .errors import BudgetExceeded, MalformedCatalog, NonConsecutiveIndex, ParseError, UnknownFamily
from .sequences import CATALOG_SPELLINGS, FAMILIES
from .targets import parse_target

# The catalog's own families; the sequence families come from the registry.
FAMILY_ENGINE = "engine-partial-sums"
FAMILY_CUSTOM = "custom"

PROVENANCE_LISTING = "reference-listing"
PROVENANCE_BFILE = "bfile"
PROVENANCE_DERIVED = "derived"

_DATA_FILE = "builtin_catalog.json"


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    family: str
    params: dict
    offset: int
    values: tuple[Fraction, ...]
    provenance: str
    note: str = ""

    def __post_init__(self):
        if not self.values:
            raise ValueError(f"entry {self.id} has no values")


@dataclass(frozen=True)
class VerificationReport:
    entry_id: str
    matched_count: int
    total: int
    first_mismatch: tuple[int, Fraction, Fraction | None] | None = None

    @property
    def fully_matched(self) -> bool:
        return self.first_mismatch is None and self.matched_count == self.total


def entry_to_dict(entry: CatalogEntry) -> dict:
    record = {
        "id": entry.id,
        "family": entry.family,
        "params": entry.params,
        "offset": entry.offset,
        "values": [str(v) for v in entry.values],
        "provenance": entry.provenance,
    }
    if entry.note:
        record["note"] = entry.note
    return record


def _require_fields(record, fields, where: str) -> None:
    missing = [field for field in fields if field not in record]
    if missing:
        raise MalformedCatalog(f"{where} lacks {', '.join(map(repr, missing))}")


def entry_from_dict(record: dict) -> CatalogEntry:
    where = f"catalog entry {record['id']!r}" if "id" in record else "catalog entry"
    _require_fields(record, ("id", "family", "values"), where)
    return CatalogEntry(
        id=record["id"],
        family=record["family"],
        params=dict(record.get("params", {})),
        offset=int(record.get("offset", 0)),
        values=tuple(Fraction(v) for v in record["values"]),
        provenance=record.get("provenance", PROVENANCE_LISTING),
        note=record.get("note", ""),
    )


def _entries(document) -> list[CatalogEntry]:
    _require_fields(document, ("entries",), "catalog document")
    return [entry_from_dict(record) for record in document["entries"]]


def load_catalog(path) -> list[CatalogEntry]:
    with open(path, encoding="utf-8") as handle:
        return _entries(json.load(handle))


def dump_catalog(entries, path) -> None:
    document = {"entries": [entry_to_dict(entry) for entry in entries]}
    Path(path).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def builtin_catalog() -> list[CatalogEntry]:
    """The packaged fixtures: every sequence prefix treated as ground truth."""
    text = resources.files(__package__).joinpath("data", _DATA_FILE).read_text("utf-8")
    return _entries(json.loads(text))


def load_bfile(path) -> tuple[int, list[Fraction]]:
    """Parse 'index value' lines; '#' comments and blanks are skipped.

    Returns (offset, values).  Indices must be consecutive.
    """
    offset = None
    expected = None
    values: list[Fraction] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'index value', got {line!r}")
            try:
                index = int(parts[0])
                value = Fraction(parts[1])
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            if expected is None:
                offset = index
            elif index != expected:
                raise NonConsecutiveIndex(f"line {lineno}: expected index {expected}, got {index}")
            expected = index + 1
            values.append(value)
    if offset is None:
        raise ParseError("no data lines in b-file")
    return offset, values


def write_bfile(entry: CatalogEntry, path) -> None:
    lines = [f"{entry.offset + i} {value}" for i, value in enumerate(entry.values)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _engine_values(params, offset: int, count: int) -> list[Fraction]:
    ratio = ExpansionRatio.from_text(params["ratio"])
    stride = int(params.get("stride", 1))
    phase = int(params.get("phase", 0))
    base = Fraction(params.get("scale_base", 1))
    mult = Fraction(params.get("scale_mult", 1))
    bits = int(params.get("bits", 256))
    top_index = stride * (offset + count - 1) + phase
    check_budget(top_index, bits)
    target = parse_target(params["target"], bits)
    run = expand(target, ratio, params.get("x0", "larger"), max_terms=top_index, max_bits=bits)
    out = []
    for i in range(count):
        n = offset + i
        out.append(run.partial_sums[stride * n + phase] * mult * base ** n)
    return out


def computed_values(entry: CatalogEntry) -> list[Fraction]:
    """Recompute the entry's values through the library routes."""
    count = len(entry.values)
    if entry.family == FAMILY_ENGINE:
        return _engine_values(entry.params, entry.offset, count)
    if entry.family == FAMILY_CUSTOM:
        return list(entry.values)
    if entry.family not in CATALOG_SPELLINGS:
        raise UnknownFamily(f"entry {entry.id}: family {entry.family!r}")
    family = FAMILIES[CATALOG_SPELLINGS[entry.family]]
    arguments = family.arguments(entry.params)
    return [family.value(*arguments, n) for n in range(entry.offset, entry.offset + count)]


def verify_entry(entry: CatalogEntry) -> VerificationReport:
    """Recompute every value exactly; report the first mismatch, if any.

    An unknown family or an engine entry over the input limits raises
    instead of counting as a mismatch.
    """
    try:
        recomputed = computed_values(entry)
    except (UnknownFamily, BudgetExceeded):
        raise
    except Exception:
        return VerificationReport(entry.id, 0, len(entry.values), (entry.offset, entry.values[0], None))
    matched = 0
    for i, (expected, computed) in enumerate(zip(entry.values, recomputed)):
        if expected != computed:
            return VerificationReport(entry.id, matched, len(entry.values), (entry.offset + i, expected, computed))
        matched += 1
    return VerificationReport(entry.id, matched, len(entry.values))


def verify_all(entries) -> list[VerificationReport]:
    return [verify_entry(entry) for entry in entries]
