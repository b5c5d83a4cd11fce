"""Every JSON record checks its own fields, through its constructor and from_doc.

The cases are generated from each record's dataclass fields: a field whose
annotation has no entry in WRONG fails test_every_field_has_wrong_values, so
a new field cannot skip its check.
"""

import dataclasses

import numpy as np
import pytest

from fruitmap._checks import from_doc
from fruitmap.dataset import GroundTruthFruitlet
from fruitmap.evaluation import EvalReport
from fruitmap.geometry import CameraIntrinsics
from fruitmap.mapping import BranchMap, FruitletTrack

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
}

NAN = float("nan")
HUGE = 10 ** 400  # a JSON integer too large for a float
WRONG = {
    "int": [True, 1.5, "1"],
    "float": ["0.5", NAN, None, HUGE],
    "float | None": ["0.5", NAN, HUGE],
    "tuple[float, float, float]": [[0.1, 0.2], ["0.1", 0.0, 0.4], [0.0, NAN, 0.4],
                                   [0.0, HUGE, 0.4]],
    "str": [5, None],
    "frozenset[str]": ["AB", [1]],
    "tuple[FruitletTrack, ...]": [7, [VALID[FruitletTrack]]],
    "Mapping[str, object]": [[], "seed"],
    "tuple[tuple[float, float], ...]": [[[0.01]], {"a": 1}, [[0.01, "0.01"]]],
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
    assert from_doc(cls, {**doc, "unknown": [1]}) == cls(**doc)


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


@pytest.mark.parametrize("cls", [FruitletTrack, GroundTruthFruitlet], ids=lambda cls: cls.__name__)
def test_array_center_is_a_point(cls):
    doc = VALID[cls]
    assert cls(**{**doc, "center": np.array(doc["center"])}) == cls(**doc)
    with pytest.raises(ValueError, match="center"):
        cls(**{**doc, "center": np.zeros((3, 1))})


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
