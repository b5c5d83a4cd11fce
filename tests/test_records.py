"""Every record checks its own fields, through its constructor and from_doc.

The cases are generated from each record's dataclass fields: a field whose
annotation has no entry in WRONG fails test_every_field_has_wrong_values, so
a new field cannot skip its check, and a record that calls check_types but
has no entry in VALID fails test_every_checked_record_is_in_the_table.
"""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fruitmap
from fruitmap._checks import from_doc, is_finite_point
from fruitmap.evaluation import EvalReport
from fruitmap.geometry import CameraIntrinsics, StereoRig
from fruitmap.mapping import MergeConfig
from fruitmap.records import BranchMap, FruitletTrack, GroundTruth, GroundTruthFruitlet
from fruitmap.simulator import OrchardSpec
from fruitmap.spherefit import FitConfig

VALID = {
    FruitletTrack: {"id": 0, "center": [0.0, 0.0, 0.4], "diameter": 0.01, "observations": 1,
                    "sides": ["A"]},
    BranchMap: {"frame_label": "A", "tracks": [], "provenance": {"seed": 0}},
    GroundTruthFruitlet: {"id": 0, "center": [0.0, 0.0, 0.4], "diameter": 0.01},
    EvalReport: {"tp": 1, "fp": 0, "fn": 0, "precision": 1.0, "recall": 1.0, "f1": 1.0,
                 "count_accuracy_pct": 100.0, "size_rmse_pct": 0.0,
                 "size_pairs": [[0.01, 0.01]]},
    CameraIntrinsics: {"fx": 40.0, "fy": 40.0, "cx": 16.0, "cy": 12.0, "width": 32,
                       "height": 24},
    FitConfig: dataclasses.asdict(FitConfig()),
    OrchardSpec: dataclasses.asdict(OrchardSpec()),
    MergeConfig: {"merge_radius": 0.01},
}
VALID[StereoRig] = {"intrinsics": CameraIntrinsics(**VALID[CameraIntrinsics]), "baseline": 0.1}
VALID[GroundTruth] = {"fruitlets": [GroundTruthFruitlet(**VALID[GroundTruthFruitlet])],
                      "visibility": {"A": {0: 1}}, "dataset_id": "scan", "frame_label": "A"}

NAN = float("nan")
HUGE = 10 ** 400  # a JSON integer too large for a float
WRONG = {
    "int": [True, 1.5, "1"],
    "float": ["0.5", NAN, None, HUGE, True, float("inf")],
    "float | None": ["0.5", NAN, HUGE],
    "tuple[float, float, float]": [[0.1, 0.2], ["0.1", 0.0, 0.4], [0.0, NAN, 0.4],
                                   [0.0, HUGE, 0.4]],
    "str": [5, None],
    "frozenset[str]": ["AB", [1]],
    "tuple[FruitletTrack, ...]": [7, [VALID[FruitletTrack]]],
    "Mapping[str, object]": [[], "seed"],
    "tuple[tuple[float, float], ...]": [[[0.01]], {"a": 1}, [[0.01, "0.01"]]],
    "CameraIntrinsics": [VALID[CameraIntrinsics], None],
    "tuple[int, int]": [[1], [1, 1.5], "13", [True, 3]],
    "tuple[float, float]": [[0.01], [0.01, NAN], (0.01, "0.02"), 0.01],
    "str | None": [5, ["A"]],
    "tuple[GroundTruthFruitlet, ...]": [[VALID[GroundTruthFruitlet]], None, 7],
    "dict[str, dict[int, int]]": [{"A": [1]}, [1], None],
}

FIELDS = [(cls, f) for cls in VALID for f in dataclasses.fields(cls)]
WRONG_CASES = [(cls, f.name, value) for cls, f in FIELDS for value in WRONG.get(f.type, [])]
REQUIRED = [
    (cls, f.name)
    for cls, f in FIELDS
    if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
]


def case_id(case):
    value = f"={case[2]!r:.24}" if len(case) > 2 else ""
    return f"{case[0].__name__}.{case[1]}{value}"


def test_every_field_has_wrong_values():
    unlisted = [f"{cls.__name__}.{f.name}: {f.type}" for cls, f in FIELDS if f.type not in WRONG]
    assert not unlisted


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
def test_valid_doc_builds_the_record(cls):
    doc = VALID[cls]
    record = cls(**doc)
    assert from_doc(cls, {**doc, "unknown": [1]}) == record
    lists = [f.name for f in dataclasses.fields(cls) if isinstance(getattr(record, f.name), list)]
    assert lists == []


@pytest.mark.parametrize("cls, name, value", WRONG_CASES, ids=list(map(case_id, WRONG_CASES)))
def test_wrong_value_is_rejected_and_named(cls, name, value):
    doc = {**VALID[cls], name: value}
    with pytest.raises(ValueError, match=name):
        cls(**doc)
    with pytest.raises(ValueError, match=name):
        from_doc(cls, doc)


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
def test_every_wrong_field_is_named_at_once(cls):
    doc = {f.name: WRONG[f.type][0] for f in dataclasses.fields(cls)}
    for build in (lambda: cls(**doc), lambda: from_doc(cls, doc)):
        with pytest.raises(ValueError) as info:
            build()
        assert [name for name in doc if name not in str(info.value)] == []


def calls_check_types(cls):
    post_init = cls.__dict__.get("__post_init__")
    return post_init is not None and "check_types" in post_init.__code__.co_names


def test_every_checked_record_is_in_the_table():
    # The cases above are generated from VALID, so a record whose
    # __post_init__ calls check_types cannot be left out of it.
    modules = [importlib.import_module(f"fruitmap.{info.name}")
               for info in pkgutil.iter_modules(fruitmap.__path__)]
    checked = {
        cls
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and calls_check_types(cls)
    }
    assert sorted(cls.__name__ for cls in checked) == sorted(cls.__name__ for cls in VALID)


@pytest.mark.parametrize("cls", [FruitletTrack, GroundTruthFruitlet], ids=lambda cls: cls.__name__)
def test_array_center_is_a_point(cls):
    doc = VALID[cls]
    assert cls(**{**doc, "center": np.array(doc["center"])}) == cls(**doc)
    with pytest.raises(ValueError, match="center"):
        cls(**{**doc, "center": np.zeros((3, 1))})


def test_finite_point_arrays():
    # _checks finds numpy's ndarray through sys.modules, so records still
    # take a 3-element finite array and name every other array as before.
    assert is_finite_point(np.array([0.0, 0.0, 0.4]))
    doc = VALID[GroundTruthFruitlet]
    for center, shown in (
        (np.array([0.0, 0.0]), "array([0., 0.])"),
        (np.array([0.0, NAN, 0.4]), "array([0. , nan, 0.4])"),
        (np.array([True, False, True]), "array([ True, False,  True])"),
    ):
        assert not is_finite_point(center)
        with pytest.raises(ValueError) as info:
            GroundTruthFruitlet(**{**doc, "center": center})
        assert str(info.value) == f"center must be 3 coordinates, each a finite number, got {shown}"


def test_checks_module_loads_no_numpy():
    # The record checks and the JSON boundary serve report and --version,
    # which run without numpy.
    src = str(Path(fruitmap.__file__).resolve().parents[1])
    code = "import sys, fruitmap._checks\nprint('numpy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize("cls, name", REQUIRED, ids=list(map(case_id, REQUIRED)))
def test_dropped_required_field_is_named(cls, name):
    doc = {key: value for key, value in VALID[cls].items() if key != name}
    with pytest.raises(ValueError, match=f"missing '{name}'"):
        from_doc(cls, doc)


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("doc", [[], 3, "x", None], ids=["list", "int", "string", "null"])
def test_non_object_is_rejected(cls, doc):
    with pytest.raises(ValueError, match="expected an object"):
        from_doc(cls, doc)
