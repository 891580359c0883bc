import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from arcdesign import (
    AugmentedDesign,
    ConfigError,
    SearchConfig,
    augment,
    full_report,
    random_contraction,
    read_design,
    search_contraction,
)
import arcdesign
from arcdesign import designs
from arcdesign.cli import main
from arcdesign.reference import REFERENCE_ROWS, load_reference_design
from arcdesign.textio import format_design, parse_design, write_design


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def ex1_files(tmp_path):
    paths = {}
    for name in ("contraction_12x8_k3", "augmented_12x8_k3", "contraction_24x16_k5"):
        p = tmp_path / f"{name}.txt"
        write_design(load_reference_design(name), p)
        paths[name] = p
    return paths


class TestPlanCommand:
    def test_proportion_plan(self, runner):
        result = runner.invoke(main, ["plan", "--checks", "4", "--prop", "0.20",
                                      "--test-lines", "173", "--format", "json"])
        assert result.exit_code == 0
        d = json.loads(result.output)
        assert (d["v"], d["s"], d["surplus"]) == (20, 11, 3)

    def test_grid_plan(self, runner):
        result = runner.invoke(main, ["plan", "--grid", "8x12", "--checks", "3",
                                      "--format", "json"])
        assert result.exit_code == 0
        d = json.loads(result.output)
        assert (d["v"], d["s"], d["testLineCapacity"]) == (12, 8, 72)

    def test_infeasible_exits_2(self, runner):
        result = runner.invoke(main, ["plan", "--checks", "2", "--prop", "0.5",
                                      "--test-lines", "4"])
        assert result.exit_code == 2
        assert "degrees of freedom" in result.output

    @pytest.mark.parametrize("args, v", [
        (["--checks", "250", "--prop", "0.5", "--test-lines", "10"], 500),
        (["--checks", "3", "--prop", "0.001", "--test-lines", "10"], 3000),
    ])
    def test_ideal_v_beyond_200_exits_2(self, runner, args, v):
        result = runner.invoke(main, ["plan", *args])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert f"(v={v}," in result.output
        assert "Traceback" not in result.output

    def test_grid_takes_upper_case_x(self, runner):
        result = runner.invoke(main, ["plan", "--grid", "8X12", "--checks", "3",
                                      "--format", "json"])
        assert result.exit_code == 0
        d = json.loads(result.output)
        assert (d["v"], d["s"]) == (12, 8)

    # int() would take digit-group underscores, non-ASCII digits, a sign and spaces.
    @pytest.mark.parametrize("grid", ["1_6x2_4", "\uff11\uff16x\uff12\uff14", "+8x12", " 8x12",
                                      "8x12x2", "8\uff5812", "x12"])
    def test_grid_takes_ascii_digits_only(self, runner, grid):
        result = runner.invoke(main, ["plan", "--grid", grid, "--checks", "3"])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert f"expected RxC, e.g. 8x12; got {grid!r}" in result.output

    def test_missing_value_is_an_empty_csv_field(self, runner):
        result = runner.invoke(main, ["plan", "--grid", "8x12", "--checks", "3",
                                      "--format", "csv"])
        assert result.exit_code == 0
        header, row = result.output.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["requestedTestLines"] == ""

    def test_orientation_override(self, runner):
        result = runner.invoke(main, ["plan", "--grid", "16x24", "--checks", "3",
                                      "--orient", "rows", "--format", "json"])
        assert result.exit_code == 0
        d = json.loads(result.output)
        assert (d["v"], d["s"], d["testLineCapacity"]) == (16, 24, 312)


class TestEvaluateCommand:
    def test_contraction_report(self, runner, ex1_files):
        result = runner.invoke(main, ["evaluate", str(ex1_files["contraction_12x8_k3"]),
                                      "--format", "json"])
        assert result.exit_code == 0
        d = json.loads(result.output)
        assert d["cBarV"] == pytest.approx(0.5739, abs=5e-5)
        assert d["cBarS"] == pytest.approx(0.4828, abs=5e-5)
        assert d["eAugFormula"] == pytest.approx(0.3881, abs=5e-5)

    def test_contraction_csv_without_direct(self, runner, ex1_files):
        result = runner.invoke(main, ["evaluate", str(ex1_files["contraction_12x8_k3"]),
                                      "--format", "csv"])
        assert result.exit_code == 0
        header, row = result.output.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert (cells["eAugDirect"], cells["cefsAugmented"]) == ("", "")
        assert "None" not in result.output

    def test_augmented_direct(self, runner, ex1_files):
        result = runner.invoke(main, ["evaluate", str(ex1_files["augmented_12x8_k3"]),
                                      "--format", "json"])
        assert result.exit_code == 0
        d = json.loads(result.output)
        assert d["eAugDirect"] == pytest.approx(0.3881, abs=5e-5)

    def test_augmented_24x16_direct(self, runner, tmp_path):
        path = tmp_path / "aug24.txt"
        write_design(load_reference_design("augmented_24x16_k5"), path)
        result = runner.invoke(main, ["evaluate", str(path), "--format", "json"])
        assert result.exit_code == 0
        d = json.loads(result.output)
        assert d["eAugDirect"] == pytest.approx(0.6031, abs=5e-5)
        assert d["vStar"] == 309

    def test_augmented_file_validated_once(self, runner, ex1_files, monkeypatch):
        calls, validate = [], designs.validate_augmented
        monkeypatch.setattr(designs, "validate_augmented",
                            lambda a: calls.append(a) or validate(a))
        result = runner.invoke(main, ["evaluate", str(ex1_files["augmented_12x8_k3"])])
        assert result.exit_code == 0
        assert len(calls) == 1

    def test_one_row_augmented_file_exits_2(self, runner, tmp_path):
        path = tmp_path / "one-row.txt"
        path.write_text("# augmented v=1 s=1 k=1\n1\n")
        result = runner.invoke(main, ["evaluate", str(path)])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.output == (
            f"error: {path}: header: needs at least 2 pseudo-treatments (v=1) (line 1)\n")

    def test_check_repeated_in_a_row_exits_2_naming_it(self, runner, ex1_augmented, tmp_path):
        cells = ex1_augmented.cells.copy()
        cells[[2, 6], 0] = cells[[6, 2], 0]  # checks 73 and 75 trade rows in column 1
        bad = tmp_path / "row-repeat.txt"
        write_design(AugmentedDesign(k=3, cells=cells), bad)
        result = runner.invoke(main, ["evaluate", str(bad)])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.output == (
            f"error: {bad}: invalid augmented design: "
            "check 73 occurs 2 times in row 7 (columns 1, 2)\n")

    def test_infeasible_augmented_header_exits_2(self, runner, tmp_path):
        # check 5 twice in row 1, at a size no contraction has: the header is refused first
        path = tmp_path / "row-repeat-4x2.txt"
        path.write_text("# augmented v=4 s=2 k=2\n5,5\n6,1\n2,6\n3,4\n")
        result = runner.invoke(main, ["evaluate", str(path)])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.output == (f"error: {path}: header: (v=4, s=2, k=2) leaves -2 residual "
                                 "degrees of freedom; need >= 0 (line 1)\n")

    def test_corrupted_file_exits_2_naming_column(self, runner, ex1_files, tmp_path):
        design = load_reference_design("augmented_12x8_k3")
        cells = design.cells.copy()
        cells[2, 0] = cells[6, 0]  # duplicate check 75 in column 1, drop 73
        bad = tmp_path / "bad.txt"
        write_design(AugmentedDesign(k=3, cells=cells), bad)
        result = runner.invoke(main, ["evaluate", str(bad)])
        assert result.exit_code == 2
        assert "column 1" in result.output
        # one line, naming the file, each violation once
        assert result.output == (
            f"error: {bad}: invalid augmented design: column 1 has check 73 0 times "
            "(expected once); column 1 has check 75 2 times (expected once)\n")

    def test_huge_header_v_exits_2(self, runner, tmp_path):
        bad = tmp_path / "huge.txt"
        bad.write_text("# contraction v=100000000000 s=2 k=1\n1,2\n")
        result = runner.invoke(main, ["evaluate", str(bad)])
        assert result.exit_code == 2
        assert "residual degrees of freedom" in result.output
        assert not isinstance(result.exception, MemoryError)

    @pytest.mark.parametrize("name, message", [
        ("negative-label", "label -1 at (2,5) outside 1..12"),
        ("label-beyond-int64", "line 3, column 5"),
        ("augmented-k-beyond-v", "line 1"),
    ])
    def test_malformed_file_exits_2(self, runner, tmp_path, malformed_files, name, message):
        bad = tmp_path / f"{name}.txt"
        bad.write_text(malformed_files[name])
        result = runner.invoke(main, ["evaluate", str(bad)])
        assert result.exit_code == 2
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and message in errors[0]

    def test_parse_error_exits_2(self, runner, tmp_path):
        bad = tmp_path / "broken.txt"
        bad.write_text("# contraction v=3 s=3 k=2\n1,oops,3\n2,3,1\n")
        result = runner.invoke(main, ["evaluate", str(bad)])
        assert result.exit_code == 2
        assert "line 2" in result.output

    @pytest.mark.parametrize("command", ["evaluate", "augment"])
    def test_non_utf8_file_exits_2(self, runner, tmp_path, command):
        bad = tmp_path / "binary.txt"
        bad.write_bytes(b"\xff\xfe\n")
        result = runner.invoke(main, [command, str(bad)])
        assert result.exit_code == 2
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "binary.txt is not UTF-8 text" in errors[0]
        assert errors[0].count(str(bad)) == 1  # a message that names the file is not prefixed


class TestGenerateCommand:
    def test_end_to_end_report_consistency(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "generate", "--v", "12", "--s", "8", "--k", "3", "--seed", "7",
            "--restarts", "6", "--direct", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert abs(report["eAugFormula"] - report["eAugDirect"]) <= 1e-8
        contraction = read_design(out / "contraction.txt")
        augmented = read_design(out / "augmented.txt")
        from arcdesign import augment

        assert np.array_equal(augment(contraction).cells, augmented.cells)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 7
        assert set(manifest["outputs"]) == {"contraction.txt", "augmented.txt", "report.json"}

    def test_plan_file_input(self, runner, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_result = runner.invoke(main, ["plan", "--grid", "8x12", "--checks", "3",
                                           "--format", "json"])
        plan_path.write_text(plan_result.output)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "generate", "--plan", str(plan_path), "--seed", "1", "--restarts", "3",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        contraction = read_design(out / "contraction.txt")
        assert (contraction.v, contraction.s, contraction.k) == (12, 8, 3)

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = ["generate", "--v", "10", "--s", "5", "--k", "4", "--seed", "3",
                "--restarts", "4"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        for name in ("contraction.txt", "augmented.txt", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_tabu_strategy_on_large_grid(self, runner, tmp_path):
        out = tmp_path / "tabu"
        result = runner.invoke(main, [
            "generate", "--v", "24", "--s", "16", "--k", "5", "--seed", "7",
            "--strategy", "tabu", "--restarts", "1", "--iters", "15000",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert "objective" in result.output
        contraction = read_design(out / "contraction.txt")
        assert (contraction.v, contraction.s, contraction.k) == (24, 16, 5)
        report = json.loads((out / "report.json").read_text())
        assert 0.0 < report["eAugFormula"] <= 1.0

    def test_missing_dimensions_is_usage_error(self, runner):
        result = runner.invoke(main, ["generate", "--v", "12"])
        assert result.exit_code == 2

    def test_infeasible_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["generate", "--v", "10", "--s", "3", "--k", "2",
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    # The library names the SearchConfig field; the CLI names the flag instead.
    @pytest.mark.parametrize("option, value, library_message", [
        ("--restarts", "0", "restarts must be >= 1"),
        ("--iters", "0", "max_iters must be >= 1"),
        ("--seed", "-1", "seed must fit in 64 unsigned bits"),
        ("--workers", "0", "workers must be >= 1"),
    ])
    def test_out_of_range_search_option_exits_2(self, runner, tmp_path, option, value,
                                                 library_message):
        field, _, problem = library_message.partition(" ")
        with pytest.raises(ConfigError) as raised:
            SearchConfig(**{field: int(value)})
        assert str(raised.value) == library_message
        result = runner.invoke(main, ["generate", "--v", "12", "--s", "8", "--k", "3",
                                      option, value, "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert result.output == f"error: {option} {problem}\n"
        assert not (tmp_path / "x").exists()

    def test_plan_missing_key_exits_2(self, runner, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"v": 12, "s": 8}))
        result = runner.invoke(main, ["generate", "--plan", str(plan_path),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert result.output.startswith("error: ") and result.output.count("\n") == 1
        assert "'k'" in result.output

    def test_plan_invalid_json_exits_2(self, runner, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text("{v: 12")
        result = runner.invoke(main, ["generate", "--plan", str(plan_path),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert result.output.startswith("error: ") and result.output.count("\n") == 1
        assert "not a plan JSON" in result.output

    def test_plan_nested_too_deeply_exits_2(self, runner, tmp_path):
        # json.loads raises RecursionError here, not a ValueError
        plan_path = tmp_path / "plan.json"
        plan_path.write_text("[" * 100_000)
        result = runner.invoke(main, ["generate", "--plan", str(plan_path),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert result.output.startswith("error: ") and result.output.count("\n") == 1
        assert "not a plan JSON" in result.output


@pytest.mark.parametrize("dims, message", [
    ((1, 1, 1), "needs at least 2 pseudo-treatments (v=1)"),
    ((8, 12, 3), "needs at least as many pseudo-treatments as columns (v=8 < s=12)"),
    ((10, 3, 2), "(v=10, s=3, k=2) leaves -7 residual degrees of freedom; need >= 0"),
])
class TestSizeRuleExits2:
    @pytest.mark.parametrize("command", ["generate", "search"])
    def test_search_commands(self, runner, tmp_path, dims, message, command):
        v, s, k = dims
        result = runner.invoke(main, [command, "--v", str(v), "--s", str(s), "--k", str(k),
                                      "--restarts", "1", "--out", str(tmp_path / "x")])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.output == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_evaluate(self, runner, tmp_path, dims, message):
        v, s, k = dims
        path = tmp_path / "bad.txt"
        path.write_text(f"# contraction v={v} s={s} k={k}\n"
                        + "".join(",".join(["1"] * s) + "\n" for _ in range(k)))
        result = runner.invoke(main, ["evaluate", str(path)])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.output == f"error: {path}: header: {message} (line 1)\n"


class TestSearchOptionsFromConfig:
    """Each search flag takes its default from ``SearchConfig`` and its manifest key from its flag."""

    @pytest.mark.parametrize("command, fields", [
        ("search", [f.name for f in dataclasses.fields(SearchConfig)]),
        ("generate", [f.name for f in dataclasses.fields(SearchConfig)]),
        ("reproduce-table1", ["seed", "restarts", "max_iters"]),
    ])
    def test_flag_defaults_are_config_defaults(self, command, fields):
        params = {p.name: p for p in main.commands[command].params}
        for name in fields:
            assert params[name].default == getattr(SearchConfig(), name), name

    def test_search_manifest_parameters(self, runner, tmp_path):
        out = tmp_path / "s"
        result = runner.invoke(main, ["search", "--v", "6", "--s", "4", "--k", "3",
                                      "--seed", "3", "--restarts", "2", "--out", str(out)])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["parameters"].items()) == [
            ("v", 6), ("s", 4), ("k", 3), ("strategy", "hillclimb"), ("restarts", 2),
            ("iters", 20000), ("timeBudget", None), ("workers", 1), ("objective", "e_con")]
        assert manifest["seed"] == 3

    def test_generate_manifest_parameters(self, runner, tmp_path):
        out = tmp_path / "g"
        result = runner.invoke(main, ["generate", "--v", "6", "--s", "4", "--k", "3",
                                      "--restarts", "2", "--direct", "--time-budget", "5",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["parameters"].items()) == [
            ("v", 6), ("s", 4), ("k", 3), ("strategy", "hillclimb"), ("restarts", 2),
            ("iters", 20000), ("timeBudget", 5.0), ("workers", 1), ("objective", "e_con"),
            ("direct", True), ("planFile", None)]
        assert manifest["seed"] == 0


class TestSearchAndAugmentCommands:
    def test_budget_that_leaves_every_restart_disconnected_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["generate", "--v", "12", "--s", "8", "--k", "3",
                                      "--strategy", "tabu", "--restarts", "1", "--iters", "50",
                                      "--time-budget", "30", "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert result.output == ("error: --iters 50 and --time-budget 30 left every restart "
                                 "at a disconnected design; raise the budget\n")
        assert not (tmp_path / "x").exists()

    def test_search_writes_artifacts(self, runner, tmp_path):
        out = tmp_path / "s"
        result = runner.invoke(main, ["search", "--v", "12", "--s", "8", "--k", "3",
                                      "--seed", "2", "--restarts", "3", "--out", str(out)])
        assert result.exit_code == 0
        search_data = json.loads((out / "search.json").read_text())
        assert "elapsed" not in search_data
        assert list(search_data) == ["design", "objective", "trace", "restartOfBest", "timedOut"]
        assert search_data["objective"] > 0.5
        design = read_design(out / "contraction.txt")
        assert (design.v, design.s, design.k) == (12, 8, 3)

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
    def test_time_budget_must_be_finite_and_positive(self, runner, value):
        with pytest.raises(ConfigError, match="^time_budget must be a finite number > 0$"):
            SearchConfig(time_budget=float(value))
        result = runner.invoke(main, ["search", "--v", "6", "--s", "4", "--k", "3",
                                      "--time-budget", value])
        assert result.exit_code == 2
        assert result.output == "error: --time-budget must be a finite number > 0\n"

    @pytest.mark.parametrize("command", ["generate", "search"])
    def test_e_aug_objective_needs_anneal_exits_2(self, runner, tmp_path, command):
        result = runner.invoke(main, [command, "--v", "12", "--s", "8", "--k", "3",
                                      "--objective", "e_aug", "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert result.output == ("error: --objective e_aug needs --strategy 'anneal', "
                                 "got 'hillclimb'\n")
        assert not (tmp_path / "x").exists()

    def test_search_stdout(self, runner):
        result = runner.invoke(main, ["search", "--v", "6", "--s", "4", "--k", "3",
                                      "--seed", "0", "--restarts", "2"])
        assert result.exit_code == 0
        assert result.output.startswith("# contraction v=6 s=4 k=3")

    def test_augment_round_trips_via_cli(self, runner, ex1_files, tmp_path):
        out = tmp_path / "aug"
        result = runner.invoke(main, ["augment", str(ex1_files["contraction_12x8_k3"]),
                                      "--out", str(out)])
        assert result.exit_code == 0
        augmented = read_design(out / "augmented.txt")
        reference = load_reference_design("augmented_12x8_k3")
        assert augmented == reference

    def test_augment_rejects_augmented_input(self, runner, ex1_files):
        result = runner.invoke(main, ["augment", str(ex1_files["augmented_12x8_k3"])])
        assert result.exit_code == 2


class TestRunRecord:
    """``manifest.json`` names exactly the files a run wrote, with the sha256 of their bytes."""

    @pytest.mark.parametrize("command, files", [
        ("search", ["contraction.txt", "search.json"]),
        ("augment", ["augmented.txt"]),
        ("generate", ["contraction.txt", "augmented.txt", "report.json"]),
        ("generate --plan", ["contraction.txt", "augmented.txt", "report.json"]),
    ])
    def test_manifest_digests_inputs_and_outputs(self, runner, ex1_files, tmp_path, command,
                                                  files):
        out, plan_path = tmp_path / "run", tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"v": 12, "s": 8, "k": 3}))
        search = ["--v", "12", "--s", "8", "--k", "3", "--restarts", "2", "--iters", "500"]
        args, inputs = {
            "search": (["search", *search], []),
            "augment": (["augment", str(ex1_files["contraction_12x8_k3"])],
                        [ex1_files["contraction_12x8_k3"]]),
            "generate": (["generate", *search], []),
            "generate --plan": (["generate", "--plan", str(plan_path), "--restarts", "2",
                                 "--iters", "500"], [plan_path]),
        }[command]
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output.startswith(f"wrote {', '.join(files)} to {out}")

        def sha256(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest) == ["command", "parameters", "seed", "version", "inputs",
                                  "outputs", "wallClockSeconds"]
        assert manifest["command"] == command.split()[0]
        assert sorted(p.name for p in out.iterdir()) == sorted([*files, "manifest.json"])
        assert manifest["outputs"] == {name: sha256(out / name) for name in files}
        assert list(manifest["outputs"]) == files
        assert manifest["inputs"] == {str(path): sha256(path) for path in inputs}


class TestReadOnlyCommandsLoadNoHashlib:
    """``hashlib`` loads OpenSSL; only a command that writes a run record needs it."""

    #: Exits 3 if numpy or click already loaded hashlib, 4 if the command did.
    _FRESH = (
        "import sys\n"
        "import click, numpy\n"
        "if 'hashlib' in sys.modules:\n"
        "    sys.exit(3)\n"
        "from arcdesign.cli import main\n"
        "main(sys.argv[1:], standalone_mode=False)\n"
        "sys.exit(4 if 'hashlib' in sys.modules else 0)\n"
    )

    @pytest.mark.parametrize("args", [
        ["evaluate", "reference_contraction_24x16_k5.txt", "--direct", "--format", "json"],
        ["evaluate", "reference_contraction_12x8_k3.txt"],
        ["plan", "--grid", "8x12", "--checks", "3"],
    ])
    def test_in_a_fresh_interpreter(self, args):
        package = Path(arcdesign.__file__).parent
        args = [str(package / "data" / a) if a.endswith(".txt") else a for a in args]
        env = {**os.environ, "PYTHONPATH": str(package.parent)}
        run = subprocess.run([sys.executable, "-c", self._FRESH, *args], env=env,
                             capture_output=True, text=True, timeout=120)
        if run.returncode == 3:
            pytest.skip("importing numpy and click loads hashlib in this environment")
        assert run.returncode == 0, run.stderr


class TestReproduceCommand:
    def test_formula_only_all_rows_pass(self, runner):
        result = runner.invoke(main, ["reproduce-table1", "--formula-only"])
        assert result.exit_code == 0
        assert "21/21 rows pass" in result.output

    def test_formula_only_json(self, runner):
        result = runner.invoke(main, ["reproduce-table1", "--formula-only",
                                      "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.stdout)
        assert len(rows) == 21
        assert all(row["formulaCheck"] == "pass" for row in rows)
        assert result.stderr == "# formula check: 21/21 rows pass\n"

    @pytest.mark.parametrize("mode", [["--formula-only"], []])
    def test_search_flags_checked_in_every_mode(self, runner, mode):
        result = runner.invoke(main, ["reproduce-table1", *mode, "--restarts", "0"])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.output == "error: --restarts must be >= 1\n"

    def test_with_search_on_subset_budget(self, runner):
        result = runner.invoke(main, ["reproduce-table1", "--restarts", "1",
                                      "--iters", "300", "--format", "csv"])
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 22  # header + 21 rows
        assert "eConFound" in lines[0]

    def test_found_columns_are_the_full_report(self, runner):
        result = runner.invoke(main, ["reproduce-table1", "--restarts", "2", "--iters", "500",
                                      "--format", "json"])
        assert result.exit_code == 0
        row, ref = json.loads(result.stdout)[0], REFERENCE_ROWS[0]
        best = search_contraction(ref.v, ref.s, ref.k, SearchConfig(restarts=2, max_iters=500)).best
        report = full_report(best)
        expected = {
            "eConFound": round(report.e_con, 4),
            "cBarSFound": round(report.c_bar_s, 4),
            "eDualFound": round(report.e_dual, 4),
            "generallyBalanced": report.generally_balanced,
            "eAugFound": round(report.e_aug_formula, 6),
        }
        assert {name: row[name] for name in expected} == expected


#: Sizes of the designs the fuzzed files start from; bodies stay at v <= 12.
_FUZZ_SIZES = [(3, 3, 2), (4, 4, 2), (6, 4, 3), (7, 5, 3), (10, 6, 3), (12, 8, 3)]
#: Replacement fields: zero, negative, not a number, not an integer, beyond 64 bits.
_BAD_FIELDS = ["0", "-1", "x", "3.0", "9" * 25]


@st.composite
def _design_text(draw):
    """A seeded valid contraction or its augmented design, as (design, text)."""
    v, s, k = draw(st.sampled_from(_FUZZ_SIZES))
    design = random_contraction(v, s, k, seed=draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        design = augment(design)
    return design, format_design(design)


@st.composite
def _mutated_design_text(draw):
    """A valid design file after one to three mutations of its fields, rows or header."""
    _, text = draw(_design_text())
    header, *rows = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["field", "drop", "duplicate", "lengthen", "size", "kind"]))
        n = draw(st.integers(0, max(len(rows) - 1, 0)))
        if kind == "size":
            name = draw(st.sampled_from("vsk"))
            fields = dict(field.split("=") for field in header.split()[2:])
            fields[name] = str(draw(st.integers(0, 99)))
            header = " ".join(header.split()[:2] + [f"{key}={fields[key]}" for key in "vsk"])
        elif kind == "kind":
            header = (header.replace("contraction", "augmented") if "contraction" in header
                      else header.replace("augmented", "contraction"))
        elif not rows:
            continue
        elif kind == "drop":
            del rows[n]
        elif kind == "duplicate":
            rows.insert(n, rows[n])
        else:
            fields = rows[n].split(",")
            value = draw(st.sampled_from(_BAD_FIELDS + ["1"]))
            if kind == "lengthen":
                fields.append(value)
            else:
                fields[draw(st.integers(0, len(fields) - 1))] = value
            rows[n] = ",".join(fields)
    return "\n".join([header, *rows]) + "\n"


def _assert_exit_0_or_2(result, args, given):
    assert result.exit_code in (0, 2), (args, given, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (args, given)
    assert "Traceback" not in result.output


#: JSON values for plan files: scalars, lists and objects keyed partly by v, s and k.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["v", "s", "k", "x"]), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def _plan_text(draw):
    """A plan file: fuzzed JSON, a plan of sizes <= 12, a cut of one or deep nesting."""
    kind = draw(st.sampled_from(["json", "plan", "cut", "nested"]))
    if kind == "nested":
        opener = draw(st.sampled_from(["[", '{"v": ', '[{"v": [']))
        return opener * draw(st.integers(1, 100_000))
    if kind == "json":
        return json.dumps(draw(_JSON))
    dims = draw(st.sampled_from(_FUZZ_SIZES) | st.tuples(*[st.integers(-1, 12)] * 3))
    plan = dict(zip("vsk", dims), **draw(st.dictionaries(st.sampled_from(["x", "prop"]), _JSON)))
    text = json.dumps(plan)
    return text[: draw(st.integers(0, len(text)))] if kind == "cut" else text


class TestFuzzedPlanFiles:
    # Every search a plan reaches is tiny: sizes <= 12, one restart of 50 evaluations.
    @given(text=_plan_text())
    @settings(max_examples=60, deadline=None)
    def test_generate_plan_exits_0_or_2(self, text):
        runner = CliRunner()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "plan.json"
            path.write_text(text)
            args = ["generate", "--plan", str(path), "--restarts", "1", "--iters", "50",
                    "--out", str(Path(tmp) / "out")]
            _assert_exit_0_or_2(runner.invoke(main, args), "generate --plan", text[:200])


class TestFuzzedDesignFiles:
    @given(text=_mutated_design_text())
    @settings(max_examples=80, deadline=None)
    def test_every_command_exits_0_or_2(self, text):
        runner = CliRunner()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "design.txt"
            path.write_text(text)
            for args in (["evaluate"], ["evaluate", "--direct"], ["augment"]):
                result = runner.invoke(main, [*args, str(path)])
                _assert_exit_0_or_2(result, args, text)
                if result.exit_code == 2:
                    errors = [line for line in result.output.splitlines()
                              if line.startswith("error:")]
                    assert len(errors) == 1, (args, text, result.output)

    @given(data=st.one_of(
        st.binary(max_size=200),
        st.text(max_size=200).map(str.encode),
        # a header of at most 12 labels over a body of fuzzed text
        st.builds("# {} v={} s={} k={}\n{}".format, st.sampled_from(["contraction", "augmented"]),
                  *[st.integers(0, 12)] * 3, st.text(alphabet="0123456789,-\n \t#x", max_size=120)
                  ).map(str.encode),
    ))
    @settings(max_examples=80, deadline=None)
    def test_fuzzed_text_exits_0_or_2(self, data):
        runner = CliRunner()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "design.txt"
            path.write_bytes(data)
            for args in (["evaluate"], ["augment"]):
                _assert_exit_0_or_2(runner.invoke(main, [*args, str(path)]), args, data)

    @given(design_text=_design_text())
    @settings(max_examples=40, deadline=None)
    def test_valid_designs_round_trip(self, design_text):
        design, text = design_text
        parsed = parse_design(text)
        assert type(parsed) is type(design) and parsed.k == design.k
        assert np.array_equal(parsed.cells, design.cells)
        assert format_design(parsed) == text
