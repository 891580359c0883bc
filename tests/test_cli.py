import json

import numpy as np
import pytest
from click.testing import CliRunner

from arcdesign import ConfigError, SearchConfig, read_design
from arcdesign.cli import main
from arcdesign.reference import load_reference_design
from arcdesign.textio import write_design


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

    def test_corrupted_file_exits_2_naming_column(self, runner, ex1_files, tmp_path):
        design = load_reference_design("augmented_12x8_k3")
        cells = design.cells.copy()
        cells[2, 0] = cells[6, 0]  # duplicate check 75 in column 1, drop 73
        bad = tmp_path / "bad.txt"
        from arcdesign import AugmentedDesign

        write_design(AugmentedDesign(k=3, cells=cells), bad)
        result = runner.invoke(main, ["evaluate", str(bad)])
        assert result.exit_code == 2
        assert "column 1" in result.output

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

    def test_column_first_strategy_on_large_grid(self, runner, tmp_path):
        out = tmp_path / "cf"
        result = runner.invoke(main, [
            "generate", "--v", "24", "--s", "16", "--k", "5", "--seed", "7",
            "--strategy", "column-first", "--restarts", "1", "--iters", "1500",
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


class TestSearchAndAugmentCommands:
    def test_search_writes_artifacts(self, runner, tmp_path):
        out = tmp_path / "s"
        result = runner.invoke(main, ["search", "--v", "12", "--s", "8", "--k", "3",
                                      "--seed", "2", "--restarts", "3", "--out", str(out)])
        assert result.exit_code == 0
        search_data = json.loads((out / "search.json").read_text())
        assert "elapsed" not in search_data
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


class TestReproduceCommand:
    def test_formula_only_all_rows_pass(self, runner):
        result = runner.invoke(main, ["reproduce-table1", "--formula-only"])
        assert result.exit_code == 0
        assert "21/21 rows pass" in result.output

    def test_formula_only_json(self, runner):
        result = runner.invoke(main, ["reproduce-table1", "--formula-only",
                                      "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.output[: result.output.rindex("]") + 1])
        assert len(rows) == 21
        assert all(row["formulaCheck"] == "pass" for row in rows)

    def test_with_search_on_subset_budget(self, runner):
        result = runner.invoke(main, ["reproduce-table1", "--restarts", "1",
                                      "--iters", "300", "--format", "csv"])
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 22  # header + 21 rows
        assert "eConFound" in lines[0]
