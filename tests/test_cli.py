"""End-to-end and contract tests for the command-line pipeline."""

import ast
import dataclasses
import importlib
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fruitmap
from fruitmap import _pool, cli, simulator, spherefit
from fruitmap import dataset as dataset_module
from fruitmap import mapping
from fruitmap.cli import main
from fruitmap._checks import config_digest, json_digest
from fruitmap.dataset import read_mask_raster
from fruitmap.records import EvalConfig, FitConfig, MergeConfig, OrchardSpec, load_config


def exit_at_once(*args):
    """A per-frame task whose process dies, as one killed by the OS would."""
    os._exit(3)


SIM_CONFIG = {
    "simulate": {
        "cluster_count": 2,
        "occluder_count": 0,
        "rng_seed": 11,
    }
}

# A config holding all four sections, each at its defaults.
FULL_CONFIG = {
    section: dataclasses.asdict(record())
    for section, record in (("simulate", OrchardSpec), ("fit", FitConfig),
                            ("merge", MergeConfig), ("eval", EvalConfig))
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
        # the hash of {"tolerance": 0.025}, the default
        assert doc["provenance"]["config_digest"] == (
            "6342732652380feb69eec51eab15a864b23210f0a43289bd265f6b7b8626b2b2"
        )

    def test_provenance_names_no_seed_where_none_is_drawn(self, pipeline, tmp_path):
        # align, eval and report draw no random numbers, and report's
        # rendering has no settings, so each stamps only what can vary.
        merged = json.loads(pipeline["merged"].read_text())["provenance"]
        assert list(merged) == ["dataset_id", "config_digest", "tool_version"]
        report = json.loads(pipeline["report"].read_text())["provenance"]
        assert sorted(report) == ["config_digest", "tool_version"]
        out = tmp_path / "report.json"
        assert main(["report", "--eval", str(pipeline["report"]), "--format", "json",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["provenance"] == {"tool_version": fruitmap.__version__}

    def test_csv_table_shape(self, pipeline):
        lines = pipeline["table"].read_text().strip().splitlines()
        assert lines[0] == "ground_truth,calculated,accuracy,precision,recall,f1"
        assert len(lines) == 2

    def test_scatter_rows_match_report(self, pipeline):
        doc = json.loads(pipeline["report"].read_text())
        lines = pipeline["scatter"].read_text().strip().splitlines()
        assert len(lines) == 1 + len(doc["size_pairs"])

    def test_map_rerun_is_byte_identical(self, pipeline, tmp_path, monkeypatch):
        # map reads only its own side's rasters, each frame's once. The
        # processes that fit the frames read them, so reads are logged to a
        # file that every process appends to.
        log = tmp_path / "reads.txt"

        def recording_read(path):
            with log.open("a") as f:
                f.write("/".join(path.relative_to(pipeline["dataset"]).parts[:2]) + "\n")
            return read_mask_raster(path)

        monkeypatch.setattr(dataset_module, "read_mask_raster", recording_read)
        out = tmp_path / "a2.json"
        assert main(["map", "--dataset", str(pipeline["dataset"]), "--side", "A",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == pipeline["map_a"].read_bytes()
        read = log.read_text().splitlines()
        assert len(read) == 40 and set(read) == {"sides/A"}

    def test_align_reads_no_raster(self, pipeline, tmp_path, monkeypatch):
        def no_read(*args):
            raise AssertionError("align read a raster")

        monkeypatch.setattr(dataset_module, "read_mask_raster", no_read)
        monkeypatch.setattr(dataset_module, "read_depth_raster", no_read)
        out = tmp_path / "merged.json"
        assert main(["align", "--map-a", str(pipeline["map_a"]),
                     "--map-b", str(pipeline["map_b"]), "--dataset", str(pipeline["dataset"]),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == pipeline["merged"].read_bytes()


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

    @pytest.mark.parametrize("text, code", [(None, 2), ("{not json", 1)],
                             ids=["missing", "malformed"])
    def test_report_reads_its_config(self, pipeline, tmp_path, capsys, text, code):
        config = tmp_path / "config.json"
        if text is not None:
            config.write_text(text)
        out = tmp_path / "table.csv"
        assert main(["report", "--config", str(config), "--eval", str(pipeline["report"]),
                     "--format", "csv", "--out", str(out)]) == code
        assert str(config) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("align", ["--seed", "3"]),
            ("eval", ["--seed", "3"]),
            ("report", ["--seed", "3"]),
            ("eval", ["--tolerance", "0.02"]),
            ("eval", ["--size-mode", "relative"]),
        ],
        ids=["align-seed", "eval-seed", "report-seed", "eval-tolerance", "eval-size-mode"],
    )
    def test_removed_flag_is_usage_error(self, pipeline, tmp_path, capsys, command, flags):
        # Only simulate and map draw random numbers, and eval's settings come
        # from its config section alone.
        out = tmp_path / "out.json"
        argv = {
            "align": ["--map-a", str(pipeline["map_a"]), "--map-b", str(pipeline["map_b"]),
                      "--dataset", str(pipeline["dataset"])],
            "eval": ["--map", str(pipeline["merged"]),
                     "--truth", str(pipeline["dataset"] / "ground_truth.json")],
            "report": ["--eval", str(pipeline["report"]), "--format", "json"],
        }[command]
        assert main([command, *argv, *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and f"unrecognized arguments: {flags[0]}" in err, err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "fruitmap" in capsys.readouterr().out

    @pytest.mark.parametrize("level", [None, "info"], ids=["default", "info"])
    def test_log_level_sets_what_stderr_shows(self, pipeline, tmp_path, level):
        # A stage that succeeds prints nothing at the default level, and its
        # one summary line at info; data products never go to stdout.
        out = tmp_path / "a.json"
        flags = [] if level is None else ["--log-level", level]
        proc = run_cli(["map", "--dataset", str(pipeline["dataset"]), "--side", "A",
                        "--out", str(out), *flags])
        assert proc.returncode == 0 and proc.stdout == "", proc.stderr
        tracks = len(json.loads(out.read_text())["tracks"])
        summary = f"INFO fruitmap.cli: side A: {tracks} tracks -> {out}\n"
        assert proc.stderr == ("" if level is None else summary)

    def test_unknown_log_level_is_usage_error(self, pipeline, tmp_path, capsys):
        out = tmp_path / "a.json"
        assert main(["map", "--dataset", str(pipeline["dataset"]), "--side", "A",
                     "--out", str(out), "--log-level", "verbose"]) == 1
        assert "--log-level: invalid choice: 'verbose'" in capsys.readouterr().err
        assert not out.exists()

    def test_dead_fit_worker_is_io_error(self, pipeline, tmp_path, capfd, monkeypatch):
        # A killed worker must neither hang the pool nor print a traceback,
        # and must leave no process running. capfd also sees the workers' stderr.
        monkeypatch.setattr(_pool, "worker_count", lambda n_tasks: 2)
        monkeypatch.setattr(mapping, "_fit_frame", exit_at_once)
        out = tmp_path / "a.json"
        code = main(["map", "--dataset", str(pipeline["dataset"]), "--side", "A",
                     "--out", str(out)])
        assert code == 2
        err = capfd.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: side 'A': ")
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2, 1], ids=["pooled", "one-cpu"])
    def test_out_of_memory_is_one_line_and_1(self, pipeline, tmp_path, capfd, monkeypatch,
                                             workers):
        # A fit that cannot allocate its minimal samples (a huge
        # fit.ransac_iterations) ends map with one line, exit 1 and no map,
        # whether a pool worker or the calling process ran out.
        def no_memory(*args):
            raise MemoryError("Unable to allocate 522. GiB for an array")

        monkeypatch.setattr(_pool, "worker_count", lambda n_tasks: workers)
        monkeypatch.setattr(spherefit, "_draw_quads", no_memory)
        out = tmp_path / "a.json"
        code = main(["map", "--dataset", str(pipeline["dataset"]), "--side", "A",
                     "--out", str(out)])
        assert code == 1
        assert capfd.readouterr().err == (
            "error: out of memory: Unable to allocate 522. GiB for an array\n"
        )
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_dead_render_worker_is_io_error(self, pipeline, tmp_path, capfd, monkeypatch):
        # As for map: one line, exit 2, no process left running. A stale
        # manifest goes first, so the half-written scan does not load.
        monkeypatch.setattr(_pool, "worker_count", lambda n_tasks: 2)
        monkeypatch.setattr(simulator, "_render_record", exit_at_once)
        out = tmp_path / "scan"
        out.mkdir()
        shutil.copy(pipeline["dataset"] / "manifest.json", out / "manifest.json")
        code = main(["simulate", "--config", str(pipeline["config"]), "--out", str(out)])
        assert code == 2
        err = capfd.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: a rendering process died: ")
        assert not (out / "manifest.json").exists()
        assert multiprocessing.active_children() == []

    def test_interrupt_is_one_line_and_130(self, monkeypatch, capsys):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_report", interrupted)
        code = main(["report", "--eval", "r.json", "--format", "csv", "--out", "r.csv"])
        assert code == 130
        assert capsys.readouterr().err == "error: interrupted\n"  # one line, no traceback

    def test_align_of_one_side_twice_is_validation_error(self, pipeline, tmp_path, capsys):
        out = tmp_path / "merged.json"
        code = main(["align", "--map-a", str(pipeline["map_a"]),
                     "--map-b", str(pipeline["map_a"]), "--dataset", str(pipeline["dataset"]),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "side 'A'" in err, err
        assert not out.exists()

    def test_align_of_swapped_sides_is_validation_error(self, pipeline, tmp_path, capsys):
        # A merge in side B's frame would be scored against truth in side A's.
        out = tmp_path / "merged.json"
        code = main(["align", "--map-a", str(pipeline["map_b"]),
                     "--map-b", str(pipeline["map_a"]), "--dataset", str(pipeline["dataset"]),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert "side 'B'" in err and "side 'A'" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--map-a", "--map-b"])
    def test_align_of_another_scans_map_is_validation_error(self, pipeline, tmp_path, capsys,
                                                            flag):
        # A map's provenance names the scan it was made from; merging it with
        # another scan's fiducials would place its tracks wrongly.
        maps = {"--map-a": pipeline["map_a"], "--map-b": pipeline["map_b"]}
        doc = json.loads(maps[flag].read_text())
        own_id = doc["provenance"]["dataset_id"]
        doc["provenance"]["dataset_id"] = other_id = "0" * len(own_id)
        maps[flag] = tmp_path / "other.json"
        maps[flag].write_text(json.dumps(doc))
        out = tmp_path / "merged.json"
        code = main(["align", "--map-a", str(maps["--map-a"]), "--map-b", str(maps["--map-b"]),
                     "--dataset", str(pipeline["dataset"]), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert str(maps[flag]) in err and own_id in err and other_id in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "map", "map-config",
                                         "simulate-config-seed", "map-config-seed"])
    def test_negative_seed_is_validation_error(self, tmp_path, capsys, command):
        # The seed is checked before any input is read, so a missing dataset
        # does not hide it, and a configured seed is checked before --seed
        # replaces it, so the flag does not hide it either.
        section = "simulate" if command.startswith("simulate") else "fit"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({section: {"rng_seed": -5}}))
        out = tmp_path / "out"
        map_argv = ["map", "--dataset", str(tmp_path / "missing"), "--side", "A"]
        argv = {
            "simulate": ["simulate", "--seed", "-1"],
            "map": [*map_argv, "--seed", "-1"],
            "map-config": [*map_argv, "--config", str(config)],
            "simulate-config-seed": ["simulate", "--config", str(config), "--seed", "5"],
            "map-config-seed": [*map_argv, "--config", str(config), "--seed", "5"],
        }[command]
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        configured = "-config" in command
        where = f"config {config}: {section}: " if configured else ""
        value = "-5" if configured else "-1"
        assert err == f"error: {where}rng_seed must be an integer >= 0, got {value}\n", err
        assert not out.exists()

    def test_every_out_of_range_key_is_named_in_one_line(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"simulate": {"branch_length": -1, "occluder_size": 0, "rng_seed": -2}}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: config {config}: simulate: "
            "branch_length must be a finite number > 0, got -1; "
            "occluder_size must be a finite number > 0, got 0; "
            "rng_seed must be an integer >= 0, got -2\n"
        )
        assert not out.exists()

    def test_only_eval_reads_ground_truth(self, pipeline, tmp_path, capsys):
        ds = tmp_path / "ds"
        for path in pipeline["dataset"].rglob("*"):
            link = ds / path.relative_to(pipeline["dataset"])
            link.parent.mkdir(parents=True, exist_ok=True)
            if path.is_file() and path.name != "ground_truth.json":
                link.symlink_to(path)
        truth = ds / "ground_truth.json"
        truth.write_text(json.dumps({"fruitlets": 5}))
        map_a, merged = tmp_path / "a.json", tmp_path / "merged.json"
        assert main(["map", "--dataset", str(ds), "--side", "A", "--out", str(map_a)]) == 0
        assert map_a.read_bytes() == pipeline["map_a"].read_bytes()
        assert main(["align", "--map-a", str(map_a), "--map-b", str(pipeline["map_b"]),
                     "--dataset", str(ds), "--out", str(merged)]) == 0
        assert merged.read_bytes() == pipeline["merged"].read_bytes()
        capsys.readouterr()
        assert main(["eval", "--map", str(merged), "--truth", str(truth),
                     "--out", str(tmp_path / "r.json")]) == 1
        assert f"{truth}: missing 'fruitlets' list" in capsys.readouterr().err

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


# One out-of-range key of each config section, in the sections' order, with
# the message that names it: (section, key, value, message).
OUT_OF_RANGE = [
    ("simulate", "branch_length", -1,
     "simulate: branch_length must be a finite number > 0, got -1"),
    ("fit", "rng_seed", -3, "fit: rng_seed must be an integer >= 0, got -3"),
    ("merge", "cross_radius", -1, "merge: cross_radius must be a finite number > 0, got -1"),
    ("eval", "tolerance", 0, "eval: tolerance must be a finite number > 0, got 0"),
]


def stage_argv(pipeline, tmp_path, command):
    """command's arguments after --config, reading the pipeline's products.

    Every stage writes tmp_path / "out.json", but simulate, which writes the
    dataset tmp_path / "ds".
    """
    out = str(tmp_path / "out.json")
    return {
        "simulate": ["--out", str(tmp_path / "ds")],
        "map": ["--dataset", str(pipeline["dataset"]), "--side", "A", "--out", out],
        "align": ["--map-a", str(pipeline["map_a"]), "--map-b", str(pipeline["map_b"]),
                  "--dataset", str(pipeline["dataset"]), "--out", out],
        "eval": ["--map", str(pipeline["merged"]),
                 "--truth", str(pipeline["dataset"] / "ground_truth.json"), "--out", out],
        "report": ["--eval", str(pipeline["report"]), "--format", "json", "--out", out],
    }[command]


def copy_dataset_json(pipeline, ds):
    """The dataset's JSON files, with side A's frame 0 only, copied to ds.

    A map of ds fails on a malformed JSON file before any raster is read.
    """
    for kept in ("manifest.json", "sides/A/fiducial.json", "sides/B/fiducial.json",
                 "sides/A/frames/0.json"):
        (ds / kept).parent.mkdir(parents=True, exist_ok=True)
        (ds / kept).write_bytes((pipeline["dataset"] / kept).read_bytes())
    return ds


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
        "patch, needles",
        [
            ({"id": 1.7}, ("id", "1.7")),
            ({"center": ["0.1", 0, True]}, ("center", "'0.1'")),
            ({"diameter": "0.01"}, ("diameter", "'0.01'")),
        ],
        ids=["float-id", "mixed-center", "string-diameter"],
    )
    def test_truth_entry_mistyped_field(self, pipeline, tmp_path, patch, needles):
        truth = json.loads((pipeline["dataset"] / "ground_truth.json").read_text())
        truth["fruitlets"][1].update(patch)
        bad = tmp_path / "truth.json"
        bad.write_text(json.dumps(truth))
        proc = run_cli(["eval", "--map", str(pipeline["map_a"]), "--truth", str(bad),
                        "--out", str(tmp_path / "r.json")])
        assert_one_line_validation_error(proc, str(bad), "entry 1", *needles)

    @pytest.mark.parametrize("other_id", ["0" * 12, 5], ids=["another-scan", "mistyped"])
    def test_truth_of_another_scan_is_validation_error(self, pipeline, tmp_path, other_id):
        # The truth names the scan it was written with: a map scored against
        # another scan's fruitlets would get a meaningless F1.
        truth = json.loads((pipeline["dataset"] / "ground_truth.json").read_text())
        own_id = truth["dataset_id"]
        truth["dataset_id"] = other_id
        bad, out = tmp_path / "truth.json", tmp_path / "r.json"
        bad.write_text(json.dumps(truth))
        proc = run_cli(["eval", "--map", str(pipeline["merged"]), "--truth", str(bad),
                        "--out", str(out)])
        needles = ((str(pipeline["merged"]), own_id, repr(other_id)) if isinstance(other_id, str)
                   else ("dataset_id must be a string, got 5",))
        assert_one_line_validation_error(proc, str(bad), *needles)
        assert not out.exists()

    def test_map_in_another_frame_than_the_truth_is_validation_error(self, pipeline, tmp_path):
        # Side B's centers are in side B's frame and the truth's in side A's,
        # so scoring one against the other would give a meaningless F1.
        truth, out = pipeline["dataset"] / "ground_truth.json", tmp_path / "r.json"
        proc = run_cli(["eval", "--map", str(pipeline["map_b"]), "--truth", str(truth),
                        "--out", str(out)])
        assert_one_line_validation_error(proc, f"{pipeline['map_b']} is a map in frame 'B'",
                                         f"{truth} is in frame 'A'")
        assert not out.exists()

    @pytest.mark.parametrize("label", [None, 5], ids=["absent", "mistyped"])
    def test_truth_frame_label_may_be_absent_not_mistyped(self, pipeline, tmp_path, label):
        # A truth that does not name its frame scores a map of any frame.
        truth = json.loads((pipeline["dataset"] / "ground_truth.json").read_text())
        del truth["frame_label"]
        if label is not None:
            truth["frame_label"] = label
        other, out = tmp_path / "truth.json", tmp_path / "r.json"
        other.write_text(json.dumps(truth))
        proc = run_cli(["eval", "--map", str(pipeline["map_b"]), "--truth", str(other),
                        "--out", str(out)])
        if label is None:
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        else:
            assert_one_line_validation_error(proc, str(other), "frame_label must be a string, got 5")
            assert not out.exists()

    def test_truth_without_fruitlets(self, pipeline, tmp_path):
        # Count accuracy divides by the number of true fruitlets.
        bad = tmp_path / "truth.json"
        bad.write_text(json.dumps({"fruitlets": []}))
        out = tmp_path / "r.json"
        proc = run_cli(["eval", "--map", str(pipeline["map_a"]), "--truth", str(bad),
                        "--out", str(out)])
        assert_one_line_validation_error(proc, str(bad), "count accuracy is undefined")
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, patch, needles",
        [
            ("manifest.json", None, ("manifest.json", "JSON object")),
            ("manifest.json", {"dataset_id": 5}, ("manifest.json", "dataset_id", "5")),
            ("sides/A/frames/0.json", {"frame_index": 0.5}, ("frame_index", "0.5")),
            ("sides/A/frames/0.json", {"intrinsics": {"fx": "362"}},
             ("intrinsics", "fx", "'362'")),
            ("sides/A/frames/0.json", {"intrinsics": {"width": 616.9}},
             ("intrinsics", "width", "616.9")),
        ],
        ids=["list-manifest", "int-dataset-id", "float-frame-index", "string-fx", "float-width"],
    )
    def test_malformed_dataset_json(self, pipeline, tmp_path, name, patch, needles):
        ds = copy_dataset_json(pipeline, tmp_path / "ds")
        doc = []
        if patch is not None:
            doc = json.loads((ds / name).read_text())
            for key, value in patch.items():
                doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
        (ds / name).write_text(json.dumps(doc))
        out = tmp_path / "a.json"
        proc = run_cli(["map", "--dataset", str(ds), "--side", "A", "--out", str(out)])
        assert_one_line_validation_error(proc, str(ds / name), *needles)
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "command, config, needles",
        [
            ("map", {"merge": {"within_radius": None}}, ("within_radius", "None")),
            ("map", {"merge": {"within_radius": True}}, ("within_radius", "True")),
            ("align", {"merge": {"cross_radius": [0.02]}}, ("cross_radius", "0.02")),
            ("align", {"merge": {"cross_radius": "0.02"}}, ("cross_radius", "'0.02'")),
            ("eval", {"eval": {"tolerance": None}}, ("tolerance", "None")),
            ("eval", {"eval": {"tolerance": {}}}, ("tolerance", "{}")),
            ("eval", {"eval": {"tolerance": float("nan")}}, ("tolerance", "nan")),
            ("eval", {"eval": {"tolerance": True}}, ("tolerance", "True")),
            # size error has one metric, so the key that picked one is gone
            ("eval", {"eval": {"size_mode": "relative"}}, ("unknown eval option", "size_mode")),
            ("simulate", {"eval": {"tolerances": 0.02}}, ("eval", "tolerances")),
            # track fusion has one rule, so the key that picked one is gone
            ("map", {"merge": {"averaging": "pairwise"}}, ("merge", "averaging")),
            ("align", {"merge": {"averaging": "pairwise"}}, ("merge", "averaging")),
            ("eval", {"merge": {"averaging": "pairwise"}}, ("merge", "averaging")),
            # a value is shown as the file wrote it, a list as a list
            ("simulate", {"simulate": {"fruitlets_per_cluster": [1, 2, 3]}},
             ("simulate: fruitlets_per_cluster", "got [1, 2, 3]")),
            ("map", {"fit": {"z_rule": [1]}}, ("fit: unknown z_rule [1]",)),
        ],
        ids=["null-within", "bool-within", "list-cross", "string-cross", "null-tolerance",
             "object-tolerance", "nan-tolerance", "bool-tolerance", "bogus-size-mode",
             "unknown-key-other-stage", "averaging-map", "averaging-align", "averaging-eval",
             "list-pair", "list-z-rule"],
    )
    def test_mistyped_stage_option(self, pipeline, tmp_path, command, config, needles):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))  # json writes NaN as a bare token
        proc = run_cli([command, "--config", str(bad), *stage_argv(pipeline, tmp_path, command)])
        assert_one_line_validation_error(proc, *needles)
        assert not (tmp_path / "out.json").exists()
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("section", ["simulate", "fit"])
    @pytest.mark.parametrize("command", ["simulate", "map", "align", "eval", "report"])
    def test_every_stage_checks_record_sections(self, pipeline, tmp_path, capsys, command,
                                                section):
        # The simulate and fit keys are fields of records that only simulate
        # and map build, yet every stage rejects an unknown one.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: {"rng_seed": 1, "bogus": 1, "also_bogus": 2}}))
        argv = [command, "--config", str(bad), *stage_argv(pipeline, tmp_path, command)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: config {bad}: unknown {section} option(s): also_bogus, bogus\n"
        )
        assert not (tmp_path / "out.json").exists()
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("cases", [[case] for case in OUT_OF_RANGE] + [OUT_OF_RANGE],
                             ids=[case[0] for case in OUT_OF_RANGE] + ["all"])
    @pytest.mark.parametrize("command", ["simulate", "map", "align", "eval", "report"])
    def test_every_stage_checks_every_section_range(self, pipeline, tmp_path, capsys, command,
                                                    cases):
        # The config file is read into all four records whichever stage runs,
        # so a stage rejects an out-of-range value of a section it does not
        # use. One line names every such key as the file does, after its section.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: {key: value} for section, key, value, _ in cases}))
        argv = [command, "--config", str(bad), *stage_argv(pipeline, tmp_path, command)]
        assert main(argv) == 1
        named = "; ".join(message for *_, message in cases)
        assert capsys.readouterr().err == f"error: config {bad}: {named}\n"
        assert not (tmp_path / "out.json").exists()
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("text", [b"{not json", b'{"eval": {"tolerance": 0.02}}\xff'],
                             ids=["syntax", "not-utf8"])
    def test_malformed_config_names_the_file(self, pipeline, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        out = tmp_path / "r.json"
        proc = run_cli(["eval", "--config", str(bad), "--map", str(pipeline["merged"]),
                        "--truth", str(pipeline["dataset"] / "ground_truth.json"),
                        "--out", str(out)])
        assert_one_line_validation_error(proc, f"{bad}: malformed JSON")
        assert not out.exists()

    @pytest.mark.parametrize(
        "patch, needles",
        [
            ({"id": 1.7}, ("id", "1.7")),
            ({"id": True}, ("id", "True")),
            ({"observations": 2.9}, ("observations", "2.9")),
            ({"center": ["0.1", 0, True]}, ("center", "'0.1'")),
            ({"center": [0.1, 0.0]}, ("center", "3 coordinates")),
            ({"center": [0.1, 0.0, float("nan")]}, ("center", "nan")),
            ({"diameter": "0.01"}, ("diameter", "'0.01'")),
            ({"sides": "AB"}, ("sides", "'AB'")),
            ({"sides": [1]}, ("sides", "[1]")),
            ({"observations": None}, ("observations", "None")),
            ({"frame_label": ""}, ("frame_label", "''")),
            ({"frame_label": 3}, ("frame_label", "3")),
        ],
        ids=["float-id", "bool-id", "float-observations", "mixed-center", "short-center",
             "nan-center", "string-diameter", "string-sides", "int-sides",
             "null-observations", "empty-label", "int-label"],
    )
    @pytest.mark.parametrize("command", ["align", "eval"])
    def test_malformed_branch_map(self, pipeline, tmp_path, command, patch, needles):
        doc = json.loads(pipeline["map_b"].read_text())
        if "frame_label" in patch:
            doc.update(patch)
        else:
            doc["tracks"][0].update(patch)
            needles = ("track 0", *needles)
        bad = tmp_path / "map.json"
        bad.write_text(json.dumps(doc))  # json writes NaN as a bare token
        out = tmp_path / "out.json"
        argv = {
            "align": ["--map-a", str(pipeline["map_a"]), "--map-b", str(bad),
                      "--dataset", str(pipeline["dataset"])],
            "eval": ["--map", str(bad), "--truth", str(pipeline["dataset"] / "ground_truth.json")],
        }[command]
        proc = run_cli([command, *argv, "--out", str(out)])
        assert_one_line_validation_error(proc, str(bad), *needles)
        assert not out.exists()

    def test_unknown_side(self, pipeline, tmp_path):
        out = tmp_path / "c.json"
        proc = run_cli(["map", "--dataset", str(pipeline["dataset"]), "--side", "C",
                        "--out", str(out)])
        assert_one_line_validation_error(proc, "'C'", "not in dataset", "['A', 'B']")
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind", ["config", "manifest", "fiducial", "frame", "truth", "map", "report"]
    )
    def test_too_deeply_nested_json_names_the_file(self, pipeline, tmp_path, kind):
        # RFC 8259 section 9 lets a parser limit nesting depth, so JSON nested
        # past the parser's limit is malformed input, in every document kind.
        ds = copy_dataset_json(pipeline, tmp_path / "ds")
        deep = {"manifest": ds / "manifest.json", "fiducial": ds / "sides/A/fiducial.json",
                "frame": ds / "sides/A/frames/0.json"}.get(kind, tmp_path / f"{kind}.json")
        deep.write_text("[" * 100000)
        truth = pipeline["dataset"] / "ground_truth.json"
        out = tmp_path / "out.json"
        argv = {
            "config": ["eval", "--config", deep, "--map", pipeline["merged"], "--truth", truth],
            "truth": ["eval", "--map", pipeline["merged"], "--truth", deep],
            "map": ["eval", "--map", deep, "--truth", truth],
            "report": ["report", "--eval", deep, "--format", "json"],
        }.get(kind, ["map", "--dataset", ds, "--side", "A"])
        proc = run_cli([*map(str, argv), "--out", str(out)])
        assert_one_line_validation_error(proc, f"{deep}: malformed JSON")
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, needles",
        [
            ('{"tp": 1}', ("missing", "fp", "size_rmse_pct")),
            ("[1, 2]", ("JSON object",)),
        ],
        ids=["missing-fields", "not-an-object"],
    )
    def test_malformed_report(self, tmp_path, text, needles):
        bad = tmp_path / "r.json"
        bad.write_text(text)
        proc = run_cli(["report", "--eval", str(bad), "--format", "csv",
                        "--out", str(tmp_path / "t.csv")])
        assert_one_line_validation_error(proc, *needles)

    @pytest.mark.parametrize(
        "pose, message",
        [
            ([1, 1e-8, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1],
             "invalid pose: rotation is not orthonormal within 1e-9"),
            ([1, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1],
             "invalid pose: rotation has negative determinant (reflection, not a rotation)"),
            ([1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1e-9, 1],
             "invalid pose: bottom row must be [0, 0, 0, 1], got [0.0, 0.0, 1e-09, 1.0]"),
            ([1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0],
             "invalid pose: expected 16 values, got (15,)"),
            ([1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, float("nan"), 0, 0, 0, 1],
             "pose must be a list of finite numbers"),
        ],
        ids=["skewed", "reflection", "bottom-row", "15-values", "nan"],
    )
    @pytest.mark.parametrize("command", ["map", "align"])
    def test_bad_fiducial_is_one_line_in_map_and_align(self, pipeline, tmp_path, pose,
                                                       message, command):
        # map and align read the fiducials through one reader and check them
        # by one rule, so each names the file with the same message.
        ds = copy_dataset_json(pipeline, tmp_path / "ds")
        fiducial = ds / "sides" / "A" / "fiducial.json"
        fiducial.write_text(json.dumps({"pose": pose}))
        out = tmp_path / "out.json"
        argv = {"map": ["map", "--dataset", str(ds), "--side", "A"],
                "align": ["align", "--map-a", str(pipeline["map_a"]),
                          "--map-b", str(pipeline["map_b"]), "--dataset", str(ds)]}[command]
        proc = run_cli([*argv, "--out", str(out)])
        assert_one_line_validation_error(proc)
        assert proc.stderr == f"error: {fiducial}: {message}\n"
        assert not out.exists()

    def test_nan_spec_value(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"simulate": {"depth_noise_sigma": NaN}}')
        proc = run_cli(["simulate", "--config", str(bad), "--out", str(tmp_path / "ds")])
        assert_one_line_validation_error(proc, "depth_noise_sigma")
        assert not (tmp_path / "ds").exists()


def test_import_leaves_scipy_unloaded(tmp_path):
    # scipy is a test dependency only: importing it costs every CLI call
    # ~0.5 s. A simulate that dilates masks and a map (fit polish included)
    # must run without loading any scipy module.
    src = str(Path(fruitmap.__file__).resolve().parents[1])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"simulate": {"cluster_count": 3, "mask_dilate_px": 2}}))
    ds, out = tmp_path / "ds", tmp_path / "a.json"
    code = (
        "import sys, fruitmap, fruitmap.cli\n"
        "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(scipy())\n"
        f"assert fruitmap.cli.main(['simulate', '--config', {str(config)!r}, "
        f"'--out', {str(ds)!r}]) == 0\n"
        f"assert fruitmap.cli.main(['map', '--dataset', {str(ds)!r}, '--side', 'B', "
        f"'--out', {str(out)!r}]) == 0\n"
        "print(scipy())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]
    assert json.loads(out.read_text())["tracks"]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB and CPU affinity is settable on Linux")
@pytest.mark.parametrize("cpus", ["all", "one"])
def test_simulate_holds_one_frame_per_process(tmp_path, cpus):
    # Each frame is rendered and written by the process that renders it, so
    # neither simulate nor a worker of its pool (whose peak os.wait4 also
    # reports) holds the scan: its peak RSS stays under half the bytes it
    # writes (80 frames of ~1.9 MB). Holding the scan took ~206 MiB for 152 MB.
    # A child's ru_maxrss counts the memory of the process it was started
    # from, so a small interpreter, not this test process, starts simulate.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"simulate": {"cluster_count": 3}}))
    out = tmp_path / "scan"
    pin = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" if cpus == "one" else ""
    simulate = (
        "import os, sys\n"
        f"{pin}"
        "from fruitmap import cli\n"
        f"sys.exit(cli.main(['simulate', '--config', {str(config)!r}, '--out', {str(out)!r}]))\n"
    )
    measure = (
        "import os, subprocess, sys\n"
        f"proc = subprocess.Popen([sys.executable, '-c', {simulate!r}])\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    src = str(Path(fruitmap.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", measure], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, maxrss_kib = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    written = sum(path.stat().st_size for path in out.rglob("*") if path.is_file())
    assert written > 150e6
    assert maxrss_kib * 1024 < written / 2, (maxrss_kib, written)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB and CPU affinity is settable on Linux")
@pytest.mark.parametrize("cpus", ["all", "one"])
def test_map_holds_one_frame_per_process(pipeline, tmp_path, cpus):
    # Each frame's rasters are read by the process that fits it, so neither
    # map nor a worker of its pool holds the side: its peak RSS stays under
    # the raster bytes of the side it maps (40 frames of ~1.9 MB). Loading
    # the side before fitting it took ~109 MiB for 76 MB. As for simulate, a
    # small interpreter starts map.
    dataset, out = pipeline["dataset"], tmp_path / "a.json"
    pin = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" if cpus == "one" else ""
    run_map = (
        "import os, sys\n"
        f"{pin}"
        "from fruitmap import cli\n"
        f"sys.exit(cli.main(['map', '--dataset', {str(dataset)!r}, '--side', 'A', "
        f"'--out', {str(out)!r}]))\n"
    )
    measure = (
        "import os, subprocess, sys\n"
        f"proc = subprocess.Popen([sys.executable, '-c', {run_map!r}])\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    src = str(Path(fruitmap.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", measure], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, maxrss_kib = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    assert out.read_bytes() == pipeline["map_a"].read_bytes()
    side = dataset / "sides" / "A"
    rasters = sum(path.stat().st_size for path in [*side.glob("depth/*"), *side.glob("masks/*")])
    assert rasters > 75e6
    assert maxrss_kib * 1024 < rasters, (maxrss_kib, rasters)


def first_frames(pipeline, ds, count):
    """The dataset with side A's first count frames alone, copied to ds."""
    for kept in ("manifest.json", "sides/A/fiducial.json", "sides/B/fiducial.json"):
        (ds / kept).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(pipeline["dataset"] / kept, ds / kept)
    for sub, suffix in (("frames", "json"), ("depth", "f32"), ("masks", "pgm")):
        (ds / "sides" / "A" / sub).mkdir()
        for index in range(count):
            name = f"sides/A/{sub}/{index}.{suffix}"
            shutil.copyfile(pipeline["dataset"] / name, ds / name)
    return ds


@pytest.mark.parametrize("workers", [2, 1], ids=["pooled", "in-process"])
@pytest.mark.parametrize("raster", ["depth/2.f32", "masks/2.pgm"])
@pytest.mark.parametrize("damage, exit_code", [("truncate", 1), ("delete", 2)])
def test_raster_damaged_after_loading_is_one_line(pipeline, tmp_path, capfd, pool_workers,
                                                  workers, raster, damage, exit_code):
    # Loading opens no raster; each is read and checked when its frame is
    # fitted, in the process that fits it. A raster cut short or removed ends
    # map with the documented exit code and one line naming the file, with no
    # traceback (capfd also sees the workers' stderr) and no worker left
    # running.
    ds = first_frames(pipeline, tmp_path / "ds", 4)
    path = ds / "sides" / "A" / raster
    if damage == "truncate":
        path.write_bytes(path.read_bytes()[:-2])
    else:
        path.unlink()
    pools = pool_workers(workers)
    out = tmp_path / "a.json"
    code = main(["map", "--dataset", str(ds), "--side", "A", "--out", str(out)])
    err = capfd.readouterr().err
    assert code == exit_code, err
    assert err.count("\n") == 1 and err.startswith("error: ") and str(path) in err, err
    assert len(pools) == (1 if workers == 2 else 0)
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_import_leaves_process_pools_unloaded():
    # Only map and simulate run worker processes, and they load the pool
    # modules themselves. Importing them costs ~36 ms, which every other
    # stage would pay at startup.
    src = str(Path(fruitmap.__file__).resolve().parents[1])
    code = (
        "import sys, fruitmap.cli\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


# Modules that neither `fruitmap --version`, align, eval nor report needs;
# importing them was most of each stage's start-up.
UNUSED_BY_JSON_STAGES = ("numpy", "fruitmap.simulator", "fruitmap.spherefit", "fruitmap.mapping",
                         "fruitmap.dataset", "fruitmap.geometry", "fruitmap._pool")


@pytest.mark.parametrize("stage", ["version", "report", "eval", "align", "report-config",
                                   "eval-config", "align-config"])
def test_version_and_report_start_without_numpy(tmp_path, stage):
    # Each stage imports only the modules it runs, and checks a config
    # holding every section without numpy. Run as `python -m fruitmap` in a
    # fresh interpreter, which then lists what it loaded.
    config = tmp_path / "full.json"
    config.write_text(json.dumps(FULL_CONFIG))
    report = tmp_path / "report.json"
    report.write_text(json.dumps({
        "tp": 2, "fp": 1, "fn": 0, "precision": 2 / 3, "recall": 1.0, "f1": 0.8,
        "count_accuracy_pct": 50.0, "size_rmse_pct": 4.5,
        "size_pairs": [[0.02, 0.019], [0.015, 0.0158]],
    }))
    branch_map, truth = tmp_path / "map.json", tmp_path / "truth.json"
    branch_map.write_text(json.dumps({"frame_label": "merged", "provenance": {}, "tracks": [
        {"id": 0, "center": [0.0, 0.0, 0.4], "diameter": 0.019, "observations": 3,
         "sides": ["A", "B"]},
        {"id": 1, "center": [0.1, 0.0, 0.4], "diameter": 0.02, "observations": 1,
         "sides": ["B"]},
    ]}))
    truth.write_text(json.dumps({"fruitlets": [
        {"id": 5, "center": [0.003, 0.0, 0.4], "diameter": 0.02},
    ]}))
    # A scan of two sides, whose fiducial poses differ by a half-turn about
    # x and 0.8 m along z, and one map of each side.
    scan = tmp_path / "scan"
    (scan / "sides" / "A").mkdir(parents=True)
    (scan / "sides" / "B").mkdir()
    (scan / "manifest.json").write_text(json.dumps(
        {"format_version": "1", "units": "meters", "sides": ["A", "B"], "dataset_id": "s"}))
    (scan / "sides" / "A" / "fiducial.json").write_text(json.dumps(
        {"pose": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]}))
    (scan / "sides" / "B" / "fiducial.json").write_text(json.dumps(
        {"pose": [1, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1, 0.8, 0, 0, 0, 1]}))
    side_maps = {side: tmp_path / f"map_{side}.json" for side in "AB"}
    for side, x in (("A", 0.0), ("B", 0.004)):
        side_maps[side].write_text(json.dumps({
            "frame_label": side, "provenance": {"dataset_id": "s"}, "tracks": [
                {"id": 0, "center": [x, 0.0, 0.4], "diameter": 0.02, "observations": 1,
                 "sides": [side]}]}))
    table, sizes, scored = tmp_path / "t.csv", tmp_path / "s.csv", tmp_path / "e.json"
    merged = tmp_path / "merged.json"
    argv = {
        "version": ["--version"],
        "report": ["report", "--eval", str(report), "--format", "csv", "--out", str(table),
                   "--scatter", str(sizes)],
        "eval": ["eval", "--map", str(branch_map), "--truth", str(truth), "--out", str(scored)],
        "align": ["align", "--map-a", str(side_maps["A"]), "--map-b", str(side_maps["B"]),
                  "--dataset", str(scan), "--out", str(merged)],
    }[stage.removesuffix("-config")]
    unused = UNUSED_BY_JSON_STAGES
    if stage.endswith("-config"):
        argv = [*argv, "--config", str(config)]
    elif stage in ("version", "report"):
        # neither uses a record: records loads only to check a --config
        unused = (*unused, "fruitmap.records")
    code = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('fruitmap', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code)\n"
        f"print(sorted(set({unused!r}) & set(sys.modules)))\n"
    )
    src = str(Path(fruitmap.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["exit 0", "[]"], proc.stdout + proc.stderr
    if stage.startswith("report"):
        assert table.read_text().splitlines()[1] == "2,3,50.00,0.67,1.00,0.80"
        assert sizes.read_text().splitlines()[1:] == ["0.02,0.019", "0.015,0.0158"]
    if stage.startswith("eval"):
        doc = json.loads(scored.read_text())
        assert (doc["tp"], doc["fp"], doc["fn"], doc["count_accuracy_pct"]) == (1, 1, 0, 0.0)
        assert doc["size_pairs"] == [[0.02, 0.019]]
        assert doc["size_rmse_pct"] == 100.0 * (abs(0.019 - 0.02) / 0.02)
    if stage.startswith("align"):
        # side B's (0.004, 0, 0.4) lands on (0.004, 0, 0.4) in side A's frame
        # and merges with side A's track, which it pulls halfway there
        (track,) = json.loads(merged.read_text())["tracks"]
        assert (track["center"], track["observations"], track["sides"]) == (
            [0.002, 0.0, 0.4], 2, ["A", "B"])


# The fruitmap modules each stage loads besides fruitmap, fruitmap.cli and
# fruitmap._checks: the modules it runs and the ones they import.
STAGE_MODULES = {
    "simulate": {"simulator", "dataset", "records", "geometry", "spherefit", "_pool"},
    "map": {"mapping", "tracks", "dataset", "records", "geometry", "spherefit", "_pool"},
    "align": {"tracks", "records"},
    "eval": {"evaluation", "records"},
}


@pytest.mark.parametrize(
    "stage, configured",
    [(stage, configured) for configured in (False, True) for stage in STAGE_MODULES],
    ids=[stage + suffix for suffix in ("", "-full-config") for stage in STAGE_MODULES],
)
def test_stage_loads_only_its_modules(pipeline, tmp_path, stage, configured):
    # Run as `python -m fruitmap` in a fresh interpreter, which then lists
    # the fruitmap modules it loaded. simulate loads no mapping. A config
    # holding every section changes nothing: its keys are checked against
    # the records, not the modules that use them.
    out = tmp_path / "out"
    config = tmp_path / "full.json"
    config.write_text(json.dumps(FULL_CONFIG))
    argv = {
        "simulate": ["simulate", "--seed", "17"],
        "map": ["map", "--dataset", str(pipeline["dataset"]), "--side", "A"],
        "align": ["align", "--map-a", str(pipeline["map_a"]), "--map-b", str(pipeline["map_b"]),
                  "--dataset", str(pipeline["dataset"])],
        "eval": ["eval", "--map", str(pipeline["merged"]),
                 "--truth", str(pipeline["dataset"] / "ground_truth.json")],
    }[stage]
    if configured:
        argv = [*argv, "--config", str(config)]
    code = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('fruitmap', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code)\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'fruitmap'))\n"
    )
    src = str(Path(fruitmap.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(out)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    exit_line, loaded = proc.stdout.splitlines()[-2:]
    assert exit_line == "exit 0", proc.stdout + proc.stderr
    expected = {"fruitmap", "fruitmap.cli", "fruitmap._checks",
                *(f"fruitmap.{module}" for module in STAGE_MODULES[stage])}
    assert set(loaded.split()) == expected


def test_no_name_is_public_in_two_pipeline_modules():
    # A stage binds every __all__ name of the modules it runs onto
    # fruitmap.cli. Each name has one home, so the order of binding cannot
    # matter. cli._MODULES lists every pipeline module.
    package = Path(fruitmap.__file__).resolve().parent
    assert set(cli._MODULES) == {path.stem for path in package.glob("*.py")
                                 if not path.stem.startswith("_")} - {"cli"}
    homes = {}
    for module in cli._MODULES:
        for name in importlib.import_module(f"fruitmap.{module}").__all__:
            homes.setdefault(name, []).append(module)
    assert {name: found for name, found in homes.items() if len(found) > 1} == {}


# The fruitmap.cli names that bench/launch.py's LAYER_CALLS replaces to time
# the stages' layer calls; keep in step with that table.
BENCH_CLI_NAMES = ("generate_scene", "plan_trajectory", "load_dataset", "build_side_map",
                   "merge_maps", "evaluate_map", "report_from_json", "emit_report",
                   "write_scatter")


def test_stages_call_replaced_cli_names(pipeline, tmp_path):
    # A fresh fruitmap.cli imports a stage's modules when the stage runs, but
    # getattr still finds each name the bench replaces, and a stage calls the
    # replacement set before main runs, as bench/launch.py sets it.
    report, table, sizes = tmp_path / "r.json", tmp_path / "t.csv", tmp_path / "s.csv"
    stages = [
        ["eval", "--map", str(pipeline["merged"]),
         "--truth", str(pipeline["dataset"] / "ground_truth.json"), "--out", str(report)],
        ["report", "--eval", str(report), "--format", "csv", "--out", str(table),
         "--scatter", str(sizes)],
    ]
    code = (
        "import importlib, sys\n"
        "from fruitmap import cli\n"
        "called = []\n"
        "def replacement(name, fn):\n"
        "    def replaced(*args, **kwargs):\n"
        "        called.append(name)\n"
        "        return fn(*args, **kwargs)\n"
        "    return replaced\n"
        f"for name in {BENCH_CLI_NAMES!r}:\n"
        "    fn = getattr(cli, name)\n"
        "    assert getattr(importlib.import_module(fn.__module__), name) is fn, name\n"
        "    setattr(cli, name, replacement(name, fn))\n"
        f"for argv in {stages!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(*called)\n"
    )
    src = str(Path(fruitmap.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["evaluate_map", "report_from_json", "emit_report",
                                   "write_scatter"]
    for ours, theirs in ((report, "report"), (table, "table"), (sizes, "scatter")):
        assert ours.read_bytes() == pipeline[theirs].read_bytes(), theirs


def test_names_resolve_on_first_use():
    # PEP 562: the package and the CLI import a name from its module on
    # first use; a name neither defines is still an error.
    assert set(fruitmap.__all__) <= set(dir(fruitmap))
    assert fruitmap.OrchardSpec is OrchardSpec
    with pytest.raises(AttributeError, match="'nope'"):
        fruitmap.nope
    with pytest.raises(ImportError, match="'nope'"):
        from fruitmap import nope  # noqa: F401
    assert cli.FitConfig is FitConfig
    with pytest.raises(AttributeError, match="'nope'"):
        cli.nope


def test_runtime_sources_do_not_import_scipy():
    # The runtime needs numpy alone; scipy is in the test extra only.
    package = Path(fruitmap.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 5
    offenders = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} imports {name}"
                          for name in names if name.split(".")[0] == "scipy"]
    assert offenders == []


def test_only_checks_module_touches_json():
    # _checks.read_json and _checks.write_json are the one JSON boundary: no
    # other module parses, serializes, or reads or writes a text file.
    package = Path(fruitmap.__file__).resolve().parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "_checks.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            func = node.func if isinstance(node, ast.Call) else None
            if not isinstance(func, ast.Attribute):
                continue
            if (isinstance(func.value, ast.Name) and func.value.id == "json"
                    or func.attr in ("read_text", "write_text")):
                offenders.append(f"{path.name}:{node.lineno} calls {ast.unparse(func)}")
    assert offenders == []


def test_public_api_is_the_readme_import():
    # The README's "Library use" import is the whole top-level API.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"from fruitmap import \((.*?)\)", readme, re.S)
    assert block is not None, "README lost its 'from fruitmap import (...)' block"
    names = {name.strip() for name in block.group(1).split(",") if name.strip()}
    assert names == set(fruitmap.__all__) - {"__version__"}
    for name in fruitmap.__all__:
        assert getattr(fruitmap, name) is not None, name


def test_readme_library_example_runs():
    # The README's "Library use" block, run verbatim, prints what it says.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library use\n.*?^```python\n(.*?)^```", readme, re.S | re.M)
    assert block is not None, "README lost its 'Library use' python block"
    src = str(Path(fruitmap.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", block.group(1)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    tp, count_accuracy, size_rmse = proc.stdout.split()
    assert (tp, count_accuracy, round(float(size_rmse), 2)) == ("14", "100.0", 5.64)


def test_readme_config_block_shows_the_defaults(pipeline, tmp_path):
    # The README's "Configuration" block passes every command's section and
    # key checks, and shows each setting at its default.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Configuration\n.*?^```json\n(.*?)^```", readme, re.S | re.M)
    assert block is not None, "README lost its 'Configuration' json block"
    config = tmp_path / "config.json"
    config.write_text(block.group(1))
    assert main(["report", "--config", str(config), "--eval", str(pipeline["report"]),
                 "--format", "json", "--out", str(tmp_path / "r.json")]) == 0
    assert json.loads(block.group(1)) == json.loads(json.dumps(FULL_CONFIG))  # tuples as lists
    # the file's lists become the records' tuples: the default records, hashes and digest
    records, defaults = load_config(config), load_config(None)
    assert records == defaults
    assert list(map(hash, records.values())) == list(map(hash, defaults.values()))
    assert config_digest(*records.values()) == config_digest(*defaults.values())


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

    @pytest.mark.parametrize("tolerance, matched", [(1e-9, False), (0.025, True)],
                             ids=["strict", "loose"])
    def test_eval_tolerance_from_config(self, pipeline, tmp_path, tolerance, matched):
        # The config's eval section is the one way to set the match radius.
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"eval": {"tolerance": tolerance}}))
        out = tmp_path / "r.json"
        assert main(["eval", "--map", str(pipeline["merged"]),
                     "--truth", str(pipeline["dataset"] / "ground_truth.json"),
                     "--config", str(config), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["tp"] > 0) is matched  # a nanometer tolerance matches nothing
        assert doc["provenance"]["config_digest"] == json_digest({"tolerance": tolerance})
