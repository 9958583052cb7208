import json
from fractions import Fraction as F

import pytest

from cmexpand.catalog import (
    FAMILY_CUSTOM,
    FAMILY_ENGINE,
    PROVENANCE_DERIVED,
    CatalogEntry,
    builtin_catalog,
    dump_catalog,
    entry_from_dict,
    entry_to_dict,
    load_bfile,
    load_catalog,
    verify_all,
    verify_entry,
    write_bfile,
)
from cmexpand.errors import BudgetExceeded, MalformedCatalog, NonConsecutiveIndex, ParseError, UnknownFamily
from cmexpand.sequences import CATALOG_SPELLINGS, GEN_J


def entry_by_id(entries, entry_id):
    return next(e for e in entries if e.id == entry_id)


class TestBuiltinCatalog:
    def test_every_entry_verifies(self):
        reports = verify_all(builtin_catalog())
        bad = [r for r in reports if not r.fully_matched]
        assert bad == []

    def test_expected_entries_present(self):
        ids = {e.id for e in builtin_catalog()}
        required = {
            "A001045", "A015518", "A015521", "A015441", "A053404", "A023001",
            "A003462", "A000129", "A000045", "A001047", "A002605", "A131865",
            "A102900", "A001045_neg", "A003462_neg",
        }
        assert required <= ids

    def test_negative_listing_values(self):
        entry = entry_by_id(builtin_catalog(), "A001045_neg")
        assert entry.offset == -7
        assert entry.values[:7] == (
            F(43, 128), F(-21, 64), F(11, 32), F(-5, 16), F(3, 8), F(-1, 4), F(1, 2),
        )

    def test_every_family_resolves_through_the_registry(self):
        families = {e.family for e in builtin_catalog()}
        assert families <= set(CATALOG_SPELLINGS) | {FAMILY_ENGINE, FAMILY_CUSTOM}
        assert set(CATALOG_SPELLINGS) <= families

    def test_cli_spelling_is_not_a_catalog_family(self):
        entry = CatalogEntry("X", "a-num", {"a": 1, "b": 1, "s": 2, "t": 1}, 0, (F(1),), PROVENANCE_DERIVED)
        with pytest.raises(UnknownFamily):
            verify_entry(entry)

    def test_a131865_values(self):
        entry = entry_by_id(builtin_catalog(), "A131865")
        assert entry.offset == 1
        assert entry.values[:5] == (1, 17, 273, 4369, 69905)


class TestVerifyEntry:
    def test_corrupted_entry_reports_first_mismatch(self):
        entry = entry_by_id(builtin_catalog(), "A015518")
        mutated_values = list(entry.values)
        mutated_values[4] += 1
        mutated = CatalogEntry(
            id=entry.id, family=entry.family, params=entry.params,
            offset=entry.offset, values=tuple(mutated_values),
            provenance=entry.provenance,
        )
        report = verify_entry(mutated)
        assert not report.fully_matched
        assert report.matched_count == 4
        assert report.first_mismatch == (4, F(21), F(20))

    def test_unknown_family(self):
        entry = CatalogEntry("X", "mystery", {}, 0, (F(1),), PROVENANCE_DERIVED)
        with pytest.raises(UnknownFamily):
            verify_entry(entry)

    def test_over_budget_engine_entry_raises(self):
        # top_index = stride * (offset + count - 1) + phase = 16385, one past the cap
        entry = CatalogEntry("big", FAMILY_ENGINE, {"ratio": "1/2", "target": "1/3", "stride": 5, "phase": 5},
                             3276, (F(0),), PROVENANCE_DERIVED)
        with pytest.raises(BudgetExceeded, match="16385 terms"):
            verify_entry(entry)

    def test_custom_family_passes_trivially(self):
        entry = CatalogEntry("notes", FAMILY_CUSTOM, {}, 0, (F(1), F(2)), PROVENANCE_DERIVED)
        assert verify_entry(entry).fully_matched

    def test_broken_params_count_as_mismatch(self):
        entry = CatalogEntry("bad", FAMILY_ENGINE, {"target": "1/3"}, 0, (F(0),), PROVENANCE_DERIVED)
        report = verify_entry(entry)
        assert not report.fully_matched

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            CatalogEntry("empty", GEN_J, {"r": 1, "s": 2}, 0, (), PROVENANCE_DERIVED)


class TestMalformedCatalog:
    @pytest.mark.parametrize("document", [{}, {"items": []}])
    def test_document_without_entries(self, tmp_path, document):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(document))
        with pytest.raises(MalformedCatalog, match="'entries'"):
            load_catalog(path)

    @pytest.mark.parametrize("key", ["id", "family", "values"])
    def test_entry_without_required_key(self, tmp_path, key):
        record = {"id": "A001045", "family": "gen-j", "params": {"r": 1, "s": 2}, "values": ["0", "1"]}
        del record[key]
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"entries": [record]}))
        with pytest.raises(MalformedCatalog, match=repr(key)):
            load_catalog(path)


class TestJsonRoundTrip:
    def test_entry_dict_round_trip(self):
        for entry in builtin_catalog():
            assert entry_from_dict(entry_to_dict(entry)) == entry

    def test_catalog_file_round_trip(self, tmp_path):
        entries = builtin_catalog()
        path = tmp_path / "catalog.json"
        dump_catalog(entries, path)
        assert load_catalog(path) == entries


class TestBFiles:
    def test_parse_basic(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 0\n1 1\n2 1\n3 3\n")
        assert load_bfile(path) == (0, [0, 1, 1, 3])

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("# header\n\n5 11\n6 21\n")
        assert load_bfile(path) == (5, [11, 21])

    def test_non_consecutive(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 0\n2 1\n")
        with pytest.raises(NonConsecutiveIndex):
            load_bfile(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 0\n1 one two\n")
        with pytest.raises(ParseError) as err:
            load_bfile(path)
        assert "line 2" in str(err.value)

    def test_unparsable_value(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 zero\n")
        with pytest.raises(ParseError):
            load_bfile(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ParseError):
            load_bfile(path)

    def test_write_read_round_trip(self, tmp_path):
        # includes an entry with fractional values and a negative offset
        for entry_id in ("A001045", "A001045_neg"):
            entry = entry_by_id(builtin_catalog(), entry_id)
            path = tmp_path / f"{entry_id}.txt"
            write_bfile(entry, path)
            offset, values = load_bfile(path)
            assert offset == entry.offset
            assert tuple(values) == entry.values
