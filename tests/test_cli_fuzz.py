"""Fuzzed CLI inputs: every malformed file ends in a documented exit code.

Each example writes one malformed input (a config, a dataset manifest,
fiducial, frame, depth or mask raster or ground truth, a branch map or an
evaluation report) and runs a command that reads it through `main`, in
process. An exception escaping `main` fails the test: from a shell it would
be a traceback. The exit code must be 0, 1 (validation) or 2 (I/O), and
nothing written to stderr may be a traceback.
"""

import contextlib
import copy
import io
import json
import multiprocessing
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fruitmap.cli import main

SIM_CONFIG = {"simulate": {"cluster_count": 2, "occluder_count": 0, "rng_seed": 11}}
KEPT_FRAMES = (0, 13, 26, 39)  # a few frames per side keep each map run short
VALID_CONFIG = {
    "fit": {"max_points": 200, "ransac_iterations": 50, "inlier_tolerance": 0.002,
            "min_inlier_fraction": 0.3, "d_min": 0.004, "d_max": 0.04,
            "z_rule": "literal", "rng_seed": 3},
    "merge": {"within_radius": 0.01, "cross_radius": 0.02},
    "eval": {"tolerance": 0.02},
}
FUZZ = settings(max_examples=40, derandomize=True, database=None, deadline=None)


def json_values(integers):
    leaves = st.none() | st.booleans() | integers | st.floats() | st.text(max_size=4)
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )


ANY_JSON = json_values(st.integers())
# Config integers stay small: ransac_iterations x max_points sets how much
# a fit allocates, and that memory is not bounded yet.
CONFIG_JSON = json_values(st.integers(-3, 600))


@st.composite
def malformed(draw, doc, values=ANY_JSON):
    """Bytes for a file meant to hold doc: doc with one value replaced or one
    entry deleted, any JSON value, or any bytes."""
    kind = draw(st.sampled_from(["edit", "edit", "edit", "json", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=24))
    if kind == "json":
        return json.dumps(draw(values)).encode()
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(values)
        return json.dumps(doc).encode()


@st.composite
def malformed_raster(draw, data):
    """Bytes for a file meant to hold the raster data: data cut short or
    extended, its leading bytes (a mask's P5 header) replaced, or any bytes."""
    kind = draw(st.sampled_from(["truncate", "extend", "header", "bytes"]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "extend":
        return data + draw(st.binary(min_size=1, max_size=8))
    if kind == "header":
        fields = st.integers(0, 2**17) | st.text("0123456789 -+.xe", max_size=6)
        head = draw(st.binary(max_size=16) | st.builds(
            "{} {} {} {}\n".format, st.sampled_from(["P5", "P2", "P6", "P5 "]),
            fields, fields, fields).map(str.encode))
        return head + data[draw(st.integers(0, 24)):]
    return draw(st.binary(max_size=24))


def run(argv):
    """Exit code and stderr of one in-process CLI run."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([str(arg) for arg in argv])
    return code, stderr.getvalue()


def assert_clean_exit(argv):
    code, stderr = run(argv)
    assert code in (0, 1, 2), (code, stderr)
    assert "Traceback" not in stderr, stderr


@pytest.fixture(scope="module")
def scan(tmp_path_factory):
    """A small dataset with a few frames per side, its maps and its report."""
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "config.json"
    config.write_text(json.dumps(SIM_CONFIG))
    full = root / "full"
    assert run(["simulate", "--config", config, "--out", full])[0] == 0
    ds = root / "ds"
    for name in ("manifest.json", "ground_truth.json", "sides/A/fiducial.json",
                 "sides/B/fiducial.json"):
        (ds / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(full / name, ds / name)
    for side in ("A", "B"):
        src, dst = full / "sides" / side, ds / "sides" / side
        for sub in ("frames", "depth", "masks"):
            (dst / sub).mkdir(parents=True)
        # Frame indices must run from 0 without gaps, so kept frames are renumbered.
        for j, i in enumerate(KEPT_FRAMES):
            frame = json.loads((src / "frames" / f"{i}.json").read_text())
            frame.update(frame_index=j, depth=f"depth/{j}.f32", masks=f"masks/{j}.pgm")
            (dst / "frames" / f"{j}.json").write_text(json.dumps(frame))
            shutil.copyfile(src / "depth" / f"{i}.f32", dst / frame["depth"])
            shutil.copyfile(src / "masks" / f"{i}.pgm", dst / frame["masks"])
    shutil.rmtree(full)
    paths = {"root": root, "dataset": ds}
    for side in ("A", "B"):
        paths[side] = root / f"{side}.json"
        assert run(["map", "--dataset", ds, "--side", side, "--out", paths[side]])[0] == 0
    paths["merged"] = root / "merged.json"
    assert run(["align", "--map-a", paths["A"], "--map-b", paths["B"], "--dataset", ds,
                "--out", paths["merged"]])[0] == 0
    paths["report"] = root / "report.json"
    assert run(["eval", "--map", paths["merged"], "--truth", ds / "ground_truth.json",
                "--out", paths["report"]])[0] == 0
    return paths


def dataset_with(scan, tmp, name, text):
    """The scan's dataset under tmp, with the file at name holding text.

    Every other file is a link to the scan's own, shared read-only.
    """
    ds = tmp / "ds"
    ds.mkdir()
    for path in scan["dataset"].rglob("*"):
        link = ds / path.relative_to(scan["dataset"])
        if path.is_dir():
            link.mkdir()
        elif path != scan["dataset"] / name:
            link.symlink_to(path)
    (ds / name).write_bytes(text)
    return ds


def argv_for(command, scan, out, *, dataset=None, map_b=None, merged=None, report=None):
    dataset = dataset or scan["dataset"]
    return {
        "map": ["map", "--dataset", dataset, "--side", "A", "--out", out],
        "align": ["align", "--map-a", scan["A"], "--map-b", map_b or scan["B"],
                  "--dataset", dataset, "--out", out],
        "eval": ["eval", "--map", merged or scan["merged"],
                 "--truth", dataset / "ground_truth.json", "--out", out],
        "report": ["report", "--eval", report or scan["report"], "--format", "csv",
                   "--out", out, "--scatter", Path(out).with_suffix(".sizes.csv")],
    }[command]


def test_unfuzzed_inputs_run(scan, tmp_path):
    for command in ("map", "align", "eval", "report"):
        assert run(argv_for(command, scan, tmp_path / "out"))[0] == 0


@FUZZ
@given(command=st.sampled_from(["map", "align", "eval", "report"]),
       text=malformed(VALID_CONFIG, CONFIG_JSON))
def test_malformed_config(scan, command, text):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_bytes(text)
        assert_clean_exit([*argv_for(command, scan, Path(tmp) / "out"), "--config", config])


@pytest.mark.parametrize(
    "name, commands",
    [
        ("manifest.json", ["map", "align"]),
        ("sides/B/fiducial.json", ["map", "align"]),
        ("sides/A/frames/1.json", ["map"]),
        ("ground_truth.json", ["eval"]),
    ],
    ids=["manifest", "fiducial", "frame", "truth"],
)
@FUZZ
@given(data=st.data())
def test_malformed_dataset_file(scan, name, commands, data):
    text = data.draw(malformed(json.loads((scan["dataset"] / name).read_text())))
    command = data.draw(st.sampled_from(commands))
    with tempfile.TemporaryDirectory() as tmp:
        ds = dataset_with(scan, Path(tmp), name, text)
        assert_clean_exit(argv_for(command, scan, Path(tmp) / "out", dataset=ds))


@FUZZ
@given(command=st.sampled_from(["align", "eval"]), data=st.data())
def test_malformed_branch_map(scan, command, data):
    branch_map = json.loads(scan["B"].read_text())
    text = data.draw(malformed(branch_map))
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "map.json"
        bad.write_bytes(text)
        assert_clean_exit(argv_for(command, scan, Path(tmp) / "out", map_b=bad, merged=bad))


@FUZZ
@given(data=st.data())
def test_malformed_report(scan, data):
    report = json.loads(scan["report"].read_text())
    text = data.draw(malformed(report))
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "report.json"
        bad.write_bytes(text)
        assert_clean_exit(argv_for("report", scan, Path(tmp) / "out.csv", report=bad))


@pytest.mark.parametrize("name", ["sides/A/depth/1.f32", "sides/A/masks/1.pgm"],
                         ids=["depth", "mask"])
@settings(FUZZ, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_raster(scan, capfd, name, data):
    # Rasters are read in the processes that fit their frames, so capfd,
    # which also sees those processes' stderr, looks for tracebacks.
    text = data.draw(malformed_raster((scan["dataset"] / name).read_bytes()))
    capfd.readouterr()
    with tempfile.TemporaryDirectory() as tmp:
        ds = dataset_with(scan, Path(tmp), name, text)
        code = main([str(arg) for arg in argv_for("map", scan, Path(tmp) / "out", dataset=ds)])
    err = capfd.readouterr().err
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err, err
    assert multiprocessing.active_children() == []
