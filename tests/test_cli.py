import json
from fractions import Fraction as F

import pytest

from cmexpand import catalog as cat
from cmexpand import cli
from cmexpand.catalog import builtin_catalog, dump_catalog, entry_to_dict, write_bfile
from cmexpand.cli import run
from cmexpand.engine import BITS_LIMIT, TERMS_LIMIT, check_budget
from cmexpand.sequences import FAMILIES, IDENTITY_SPELLINGS, SEQ_SPELLINGS


def refuse(*args, **kwargs):
    raise AssertionError("work started before the budget check")


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpandCommand:
    def test_plain_partial_sums(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--target", "1/3", "--ratio", "1/2", "--terms", "5", "--format", "plain"
        )
        assert code == 0
        assert "0, 1/2, 1/4, 3/8, 5/16, 11/32" in out

    def test_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--target", "1/7", "--ratio", "1/2", "--terms", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["x0"] == "0"
        assert [t["partial_sum"] for t in doc["terms"]] == ["1/2", "1/4", "1/8", "3/16", "5/32", "9/64"]
        assert doc["terms"][0] == {"n": 1, "sign": 1, "magnitude": "1/2", "partial_sum": "1/2"}
        assert doc["terminated"] is False

    def test_json_reserialization_is_byte_identical(self, capsys):
        _, out, _ = run_cli(capsys, "expand", "--target", "1/5", "--ratio", "1/2", "--regroup", "2")
        assert json.dumps(json.loads(out), indent=2) == out.strip()

    def test_regroup_matches_strided_sums(self, capsys):
        _, out, _ = run_cli(capsys, "expand", "--target", "1/7", "--ratio", "1/2", "--terms", "12", "--regroup", "3")
        doc = json.loads(out)
        sums = [doc["x0"]] + [t["partial_sum"] for t in doc["terms"]]
        assert doc["regrouped"]["partial_sums"] == sums[::3]

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--target", "1/3", "--ratio", "1/2", "--terms", "3", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "n,sign,magnitude,partial_sum"
        assert out.splitlines()[2] == "1,1,1/2,1/2"

    def test_pi_target(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--target", "1/4*pi", "--ratio", "1/2", "--terms", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["x0"] == "1"
        assert [t["partial_sum"] for t in doc["terms"]] == ["1/2", "3/4", "7/8", "13/16", "25/32"]

    def test_default_x0_is_larger_group(self, capsys):
        _, out, _ = run_cli(capsys, "expand", "--target", "3/4", "--ratio", "1/2", "--terms", "2")
        assert json.loads(out)["x0"] == "1"

    def test_parse_error_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--target", "1//3", "--ratio", "1/2")
        assert code == 1 and "error" in err

    def test_range_error_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--target", "5/3", "--ratio", "1/2")
        assert code == 1
        code, _, err = run_cli(capsys, "expand", "--target", "pi", "--ratio", "1/2")
        assert code == 1

    def test_nonconvergent_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "expand", "--target", "3/4", "--ratio", "1/3", "--x0", "zero"
        )
        assert code == 2 and "error" in err

    def test_unknown_flag_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "expand", "--target", "1/3", "--bogus", "x")
        assert code == 1


class TestExpandBudget:
    @pytest.fixture
    def no_work(self, monkeypatch):
        monkeypatch.setattr(cli, "parse_target", refuse)
        monkeypatch.setattr(cli, "expand", refuse)

    @pytest.mark.parametrize("flag, value, message", [
        ("--terms", "16385", "16385 terms exceeds the limit of 16384"),
        ("--bits", "65537", "65537 bits exceeds the limit of 65536"),
    ])
    def test_just_above_the_cap_exits_1_before_any_work(self, capsys, no_work, flag, value, message):
        code, out, err = run_cli(capsys, "expand", "--target", "1/pi", "--ratio", "1/2", flag, value)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_caps_themselves_are_allowed(self):
        check_budget(TERMS_LIMIT, BITS_LIMIT)
        assert (TERMS_LIMIT, BITS_LIMIT) == (16384, 65536)


class TestSeqCommand:
    def test_gen_j_with_negative_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "--family", "gen-j", "--r", "1", "--s", "3", "--from", "-2", "--to", "5"
        )
        assert code == 0
        doc = json.loads(out)
        values = {item["n"]: item["value"] for item in doc["values"]}
        assert values[-2] == "-2/9"  # reflection: -(-1/3)**2 * J_2
        assert [values[n] for n in range(6)] == ["0", "1", "2", "7", "20", "61"]

    def test_jacobsthal(self, capsys):
        _, out, _ = run_cli(capsys, "seq", "--family", "jacobsthal", "--from", "0", "--to", "9")
        doc = json.loads(out)
        assert [item["value"] for item in doc["values"]] == ["0", "1", "1", "3", "5", "11", "21", "43", "85", "171"]

    def test_lucas(self, capsys):
        _, out, _ = run_cli(
            capsys, "seq", "--family", "lucas", "--p", "2", "--q", "-1", "--from", "0", "--to", "6"
        )
        doc = json.loads(out)
        assert [item["value"] for item in doc["values"]] == ["0", "1", "2", "5", "12", "29", "70"]

    def test_a_num(self, capsys):
        _, out, _ = run_cli(
            capsys, "seq", "--family", "a-num",
            "--a", "2", "--b", "3", "--s", "4", "--t", "1", "--from", "0", "--to", "4",
        )
        doc = json.loads(out)
        assert [item["value"] for item in doc["values"]] == ["1", "1", "7", "25", "103"]

    def test_j_complex_values(self, capsys):
        _, out, _ = run_cli(
            capsys, "seq", "--family", "j-complex", "--mu", "2", "--nu", "3", "--from", "0", "--to", "5"
        )
        doc = json.loads(out)
        for item, want in zip(doc["values"], [0, 1, 5, 19, 65, 211]):
            assert abs(item["value"]["re"] - want) < 1e-9
            assert abs(item["value"]["im"]) < 1e-9

    def test_j_complex_single_lambda(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "--family", "j-complex", "--mu", "2", "--nu", "3", "--lambda", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["values"][0]["value"]["re"] == 1.0

    def test_missing_family_params_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "seq", "--family", "gen-j", "--from", "0", "--to", "3")
        assert code == 1 and "--r" in err

    def test_every_family_choice_resolves_through_the_registry(self, capsys):
        sample = {"r": "1", "s": "3", "p": "1", "q": "-1", "a": "1", "b": "1", "t": "1", "mu": "1", "nu": "2"}
        for spelling, name in SEQ_SPELLINGS.items():
            names = FAMILIES[name].params
            flags = [f"--{param}={sample[param]}" for param in names]
            code, out, err = run_cli(capsys, "seq", "--family", spelling, *flags, "--from", "0", "--to", "3")
            assert code == 0, err
            doc = json.loads(out)
            assert doc["family"] == spelling and list(doc["params"]) == list(names)
            assert len(doc["values"]) == 4

    def test_spellings_outside_the_registry_rejected(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--family", "a-number", "--from", "0", "--to", "3")
        assert code == 1 and out == ""
        code, out, _ = run_cli(capsys, "identity", "--family", "gen-j", "--r", "1", "--s", "2", "--n", "3", "--m", "1")
        assert code == 1 and out == ""
        for spelling in IDENTITY_SPELLINGS:
            code, _, _ = run_cli(capsys, "identity", "--family", spelling, "--r", "1", "--s", "2", "--n", "3", "--m", "1")
            assert code == 0

    def test_gen_j_and_gen_jlike_parameter_errors(self, capsys):
        # gen-j needs s > r >= 1 (usage error); gen-jlike only needs r != s
        assert run_cli(capsys, "seq", "--family", "gen-j", "--r", "2", "--s", "2")[0] == 1
        assert run_cli(capsys, "seq", "--family", "gen-jlike", "--r", "2", "--s", "2")[0] == 2
        assert run_cli(capsys, "seq", "--family", "gen-jlike", "--r", "3", "--s", "2")[0] == 0
        assert run_cli(capsys, "seq", "--family", "lucas", "--p", "1", "--q", "1", "--from", "-1")[0] == 1

    def test_degenerate_params_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "seq", "--family", "a-num",
            "--a", "1", "--b", "1", "--s", "2", "--t", "-2", "--from", "0", "--to", "3",
        )
        assert code == 2

    def test_zero_parameter_at_negative_index_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "seq", "--family", "gen-jlike", "--r", "0", "--s", "2", "--from", "-2", "--to", "2")
        assert (code, out) == (2, "")
        assert err == "error: r and s must be nonzero at negative indices\n"


class TestIdentityCommand:
    def test_single_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "identity", "--which", "convolution", "--family", "j",
            "--r", "1", "--s", "2", "--n", "2", "--m", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == [{
            "identity": "convolution", "family": "gen-j",
            "r": 1, "s": 2, "n": 2, "m": 2, "lhs": "5", "rhs": "5", "holds": True,
        }]

    def test_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "identity", "--which", "all", "--family", "jlike",
            "--r", "2", "--s", "3", "--sweep", "6",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == [] and doc["checked"] > 0

    def test_invalid_indices_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "identity", "--which", "catalan", "--family", "j",
            "--r", "1", "--s", "2", "--n", "1", "--m", "1",
        )
        assert code == 2

    def test_missing_indices_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "identity", "--family", "j", "--r", "1", "--s", "2")
        assert code == 1


class TestSimulateCommand:
    def test_json_estimates(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--m0", "2", "--m1", "1", "--ratio", "1/2", "--steps", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["target"] == "1/3"
        assert doc["estimates"] == ["1/2", "1/4", "3/8", "5/16"]
        assert doc["terminated"] is False

    def test_trace_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--m0", "2", "--m1", "1", "--ratio", "1/2", "--steps", "2", "--trace"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step 1: move 1/2@1 + 1/2@0 -> 1/2 ; estimate=1/2"
        assert lines[1].startswith("step 2: move ")

    def test_termination_reported(self, capsys):
        _, out, _ = run_cli(capsys, "simulate", "--m0", "3", "--m1", "1", "--ratio", "1/2", "--steps", "5")
        doc = json.loads(out)
        assert doc["estimates"] == ["1/2", "1/4"] and doc["terminated"] is True

    def test_nonconvergent_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--m0", "6", "--m1", "1", "--ratio", "1/3", "--steps", "5")
        assert code == 2


class TestVerifyCommand:
    def test_builtin_catalog_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert all(rep["first_mismatch"] is None for rep in doc["reports"])

    def test_mutated_catalog_exits_3(self, capsys, tmp_path):
        entries = [entry_to_dict(entry) for entry in builtin_catalog()]
        entries[0]["values"][3] = "999"
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"entries": entries}))
        code, out, _ = run_cli(capsys, "verify", "--catalog", str(path))
        assert code == 3
        doc = json.loads(out)
        report = next(rep for rep in doc["reports"] if rep["id"] == entries[0]["id"])
        assert report["first_mismatch"] == {"index": 3, "expected": "999", "computed": "3"}

    def test_bfile_route(self, capsys, tmp_path):
        entry = next(e for e in builtin_catalog() if e.id == "A015518")
        path = tmp_path / "b015518.txt"
        write_bfile(entry, path)
        code, out, _ = run_cli(
            capsys, "verify", "--bfile", str(path), "--id", "A015518",
            "--family", "gen-j", "--params", '{"r": 1, "s": 3}',
        )
        assert code == 0 and json.loads(out)["ok"] is True

    def test_bfile_mismatch_exits_3(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 0\n1 1\n2 5\n")
        code, out, _ = run_cli(
            capsys, "verify", "--bfile", str(path), "--id", "X",
            "--family", "gen-j", "--params", '{"r": 1, "s": 3}',
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["reports"][0]["first_mismatch"]["index"] == 2

    def test_bfile_without_id_exit_1(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("0 0\n")
        code, _, _ = run_cli(capsys, "verify", "--bfile", str(path))
        assert code == 1

    def test_catalog_without_entries_exit_1(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text("{}")
        code, out, err = run_cli(capsys, "verify", "--catalog", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "'entries'" in err

    def test_entry_without_values_exit_1(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"entries": [{"id": "A001045", "family": "gen-j", "params": {"r": 1, "s": 2}}]}))
        code, out, err = run_cli(capsys, "verify", "--catalog", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "'values'" in err

    @pytest.mark.parametrize("params, offset", [
        ({"ratio": "1/2", "target": "1/pi", "stride": 16385}, 1),  # top_index 16385
        ({"ratio": "1/2", "target": "1/pi", "bits": 65537}, 0),
    ])
    def test_engine_entry_over_budget_exit_1(self, capsys, tmp_path, monkeypatch, params, offset):
        monkeypatch.setattr(cat, "parse_target", refuse)
        monkeypatch.setattr(cat, "expand", refuse)
        record = {"id": "big", "family": "engine-partial-sums", "params": params, "offset": offset, "values": ["0"]}
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"entries": [record]}))
        code, out, err = run_cli(capsys, "verify", "--catalog", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "exceeds the limit" in err

    def test_missing_catalog_file_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--catalog", "/nonexistent/cat.json")
        assert code == 1
