"""End-to-end and contract tests for the command-line pipeline."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fruitmap
from fruitmap.cli import main

SIM_CONFIG = {
    "simulate": {
        "cluster_count": 2,
        "occluder_count": 0,
        "rng_seed": 11,
    }
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run simulate -> map x2 -> align -> eval -> report once, share the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    config = root / "config.json"
    config.write_text(json.dumps(SIM_CONFIG))
    ds = root / "ds"
    paths = {
        "root": root,
        "config": config,
        "dataset": ds,
        "map_a": root / "a.json",
        "map_b": root / "b.json",
        "merged": root / "merged.json",
        "report": root / "report.json",
        "table": root / "table.csv",
        "scatter": root / "sizes.csv",
    }
    steps = [
        ["simulate", "--config", str(config), "--out", str(ds)],
        ["map", "--dataset", str(ds), "--side", "A", "--out", str(paths["map_a"])],
        ["map", "--dataset", str(ds), "--side", "B", "--out", str(paths["map_b"])],
        ["align", "--map-a", str(paths["map_a"]), "--map-b", str(paths["map_b"]),
         "--dataset", str(ds), "--out", str(paths["merged"])],
        ["eval", "--map", str(paths["merged"]),
         "--truth", str(ds / "ground_truth.json"), "--out", str(paths["report"])],
        ["report", "--eval", str(paths["report"]), "--format", "csv",
         "--out", str(paths["table"]), "--scatter", str(paths["scatter"])],
    ]
    for argv in steps:
        code = main(argv)
        assert code == 0, f"step {argv[0]} exited {code}"
    return paths


class TestPipeline:
    def test_all_products_exist(self, pipeline):
        for key in ("map_a", "map_b", "merged", "report", "table", "scatter"):
            assert pipeline[key].is_file(), key
        assert (pipeline["dataset"] / "manifest.json").is_file()

    def test_dataset_manifest_carries_provenance(self, pipeline):
        manifest = json.loads((pipeline["dataset"] / "manifest.json").read_text())
        prov = manifest["provenance"]
        assert prov["seed"] == 11
        assert prov["tool_version"]
        assert len(prov["config_digest"]) == 64

    def test_side_maps_carry_provenance_and_tracks(self, pipeline):
        doc = json.loads(pipeline["map_a"].read_text())
        assert doc["frame_label"] == "A"
        assert doc["tracks"], "side A mapped nothing"
        assert doc["provenance"]["tool_version"]
        assert "config_digest" in doc["provenance"]

    def test_merged_map_is_labeled_and_populated(self, pipeline):
        doc = json.loads(pipeline["merged"].read_text())
        assert doc["frame_label"] == "merged"
        n_a = len(json.loads(pipeline["map_a"].read_text())["tracks"])
        assert len(doc["tracks"]) >= n_a

    def test_eval_report_consistency(self, pipeline):
        doc = json.loads(pipeline["report"].read_text())
        merged = json.loads(pipeline["merged"].read_text())
        truth = json.loads((pipeline["dataset"] / "ground_truth.json").read_text())
        assert doc["tp"] + doc["fp"] == len(merged["tracks"])
        assert doc["tp"] + doc["fn"] == len(truth["fruitlets"])
        assert doc["provenance"]["tool_version"]

    def test_csv_table_shape(self, pipeline):
        lines = pipeline["table"].read_text().strip().splitlines()
        assert lines[0] == "ground_truth,calculated,accuracy,precision,recall,f1"
        assert len(lines) == 2

    def test_scatter_rows_match_report(self, pipeline):
        doc = json.loads(pipeline["report"].read_text())
        lines = pipeline["scatter"].read_text().strip().splitlines()
        assert len(lines) == 1 + len(doc["size_pairs"])

    def test_map_rerun_is_byte_identical(self, pipeline, tmp_path):
        out = tmp_path / "a2.json"
        assert main(["map", "--dataset", str(pipeline["dataset"]), "--side", "A",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == pipeline["map_a"].read_bytes()


class TestExitCodes:
    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        code = main(["map", "--dataset", str(tmp_path / "missing"), "--side", "A",
                     "--out", str(tmp_path / "a.json")])
        assert code == 2
        assert "missing" in capsys.readouterr().err

    def test_missing_truth_is_io_error(self, pipeline, tmp_path):
        code = main(["eval", "--map", str(pipeline["map_a"]),
                     "--truth", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["simulate", "--frobnicate", "--out", "x"]) == 1
        capsys.readouterr()

    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "fruitmap" in capsys.readouterr().out

    def test_unknown_side_is_validation_error(self, pipeline, tmp_path, capsys):
        code = main(["map", "--dataset", str(pipeline["dataset"]), "--side", "C",
                     "--out", str(tmp_path / "c.json")])
        assert code == 1
        assert "C" in capsys.readouterr().err

    def test_malformed_config_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "ds")])
        assert code == 1
        capsys.readouterr()

    def test_unknown_config_section_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"simulator": {}}))
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "ds")])
        assert code == 1
        assert "simulator" in capsys.readouterr().err

    def test_unknown_fit_option_rejected(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"fit": {"iterations": 5}}))
        code = main(["map", "--config", str(bad), "--dataset", str(pipeline["dataset"]),
                     "--side", "A", "--out", str(tmp_path / "a.json")])
        assert code == 1
        assert "iterations" in capsys.readouterr().err

    def test_invalid_spec_value_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"simulate": {"cluster_count": 0}}))
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "ds")])
        assert code == 1
        capsys.readouterr()


def run_cli(argv):
    """Run the CLI in a fresh interpreter, so an escaped exception shows as a traceback."""
    src = str(Path(fruitmap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-m", "fruitmap", *argv], capture_output=True,
                          text=True, env=env, timeout=120)


def assert_one_line_validation_error(proc, *needles):
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    for needle in needles:
        assert needle in proc.stderr


class TestMalformedInputs:
    @pytest.mark.parametrize("missing", ["id", "center", "diameter"])
    def test_truth_entry_missing_field(self, pipeline, tmp_path, missing):
        truth = json.loads((pipeline["dataset"] / "ground_truth.json").read_text())
        del truth["fruitlets"][1][missing]
        bad = tmp_path / "truth.json"
        bad.write_text(json.dumps(truth))
        proc = run_cli(["eval", "--map", str(pipeline["map_a"]), "--truth", str(bad),
                        "--out", str(tmp_path / "r.json")])
        assert_one_line_validation_error(proc, str(bad), "entry 1", missing)

    @pytest.mark.parametrize(
        "section",
        [{"max_points": "abc"}, {"rng_seed": 1.5}, {"inlier_tolerance": float("nan")}],
        ids=["string-int", "float-int", "nan-float"],
    )
    def test_mistyped_fit_option(self, pipeline, tmp_path, section):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"fit": section}))  # json writes NaN as a bare token
        proc = run_cli(["map", "--config", str(bad), "--dataset", str(pipeline["dataset"]),
                        "--side", "A", "--out", str(tmp_path / "a.json")])
        assert_one_line_validation_error(proc, *section)


class TestPrecedence:
    def test_cli_seed_beats_config_seed(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(SIM_CONFIG))
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", str(config), "--seed", "5",
                     "--out", str(ds)]) == 0
        manifest = json.loads((ds / "manifest.json").read_text())
        assert manifest["provenance"]["seed"] == 5

    def test_map_seed_lands_in_provenance(self, pipeline, tmp_path):
        out = tmp_path / "a7.json"
        assert main(["map", "--dataset", str(pipeline["dataset"]), "--side", "A",
                     "--seed", "7", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["provenance"]["seed"] == 7

    def test_eval_tolerance_flag_beats_config(self, pipeline, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"eval": {"tolerance": 1e-9}}))
        out_strict = tmp_path / "strict.json"
        assert main(["eval", "--map", str(pipeline["merged"]),
                     "--truth", str(pipeline["dataset"] / "ground_truth.json"),
                     "--config", str(config), "--out", str(out_strict)]) == 0
        strict = json.loads(out_strict.read_text())
        assert strict["tp"] == 0  # nanometer tolerance matches nothing
        out_loose = tmp_path / "loose.json"
        assert main(["eval", "--map", str(pipeline["merged"]),
                     "--truth", str(pipeline["dataset"] / "ground_truth.json"),
                     "--config", str(config), "--tolerance", "0.025",
                     "--out", str(out_loose)]) == 0
        loose = json.loads(out_loose.read_text())
        assert loose["tp"] > 0
