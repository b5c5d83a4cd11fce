"""The records eval reads: branch maps and ground truth, with their JSON forms.

A branch map is the output of map and align, and ground truth comes with
every simulated scan; eval scores the one against the other. Both are frozen
records that check their own fields, built from JSON by from_doc, so the same
checks and messages hold for a record read from disk and one built in memory.

This module imports no numpy, so eval starts without it. mapping builds
branch maps through its track store, and the simulator builds ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from ._checks import DatasetError, check_types, from_doc, is_int, read_json, write_json

__all__ = [
    "FruitletTrack",
    "BranchMap",
    "map_to_json",
    "map_from_json",
    "save_branch_map",
    "load_branch_map",
    "GroundTruthFruitlet",
    "GroundTruth",
    "load_ground_truth",
]


@dataclass(frozen=True)
class FruitletTrack:
    """One fruitlet hypothesis: running center/diameter plus bookkeeping.

    ids are assigned in first-seen order and stay stable through merges
    (the earlier-seen track's id survives a collapse).
    """

    id: int
    center: tuple[float, float, float]
    diameter: float
    observations: int
    sides: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        check_types(self)
        if self.id < 0:
            raise ValueError("track id must be non-negative")
        if self.observations < 1:
            raise ValueError("a track represents at least one observation")
        if self.diameter <= 0:
            raise ValueError(f"diameter must be positive, got {self.diameter}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "diameter", float(self.diameter))
        object.__setattr__(self, "sides", frozenset(self.sides))


@dataclass(frozen=True)
class BranchMap:
    """Ordered track collection for one coordinate frame.

    frame_label names the frame the centers live in: a side label for
    single-side maps, "merged" for a combined map (expressed in side A's
    frame by merge_maps).
    """

    frame_label: str
    tracks: tuple[FruitletTrack, ...] = ()
    provenance: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        wrong = []
        if not (isinstance(self.frame_label, str) and self.frame_label):
            wrong.append(f"frame_label must be a non-empty string, got {self.frame_label!r}")
        if not (
            isinstance(self.tracks, (list, tuple))
            and all(isinstance(t, FruitletTrack) for t in self.tracks)
        ):
            wrong.append("tracks must be a list of FruitletTrack records")
        if not isinstance(self.provenance, Mapping):
            wrong.append(f"provenance must be an object, got {self.provenance!r}")
        check_types(self, also=wrong)
        object.__setattr__(self, "tracks", tuple(self.tracks))
        ids = [t.id for t in self.tracks]
        if len(set(ids)) != len(ids):
            raise ValueError("track ids must be unique within a map")


def map_to_json(branch_map: BranchMap) -> dict:
    """Plain-JSON form; floats keep full precision via repr round-tripping."""
    return {
        "frame_label": branch_map.frame_label,
        "provenance": dict(branch_map.provenance),
        "tracks": [
            {
                "id": t.id,
                "center": list(t.center),
                "diameter": t.diameter,
                "observations": t.observations,
                "sides": sorted(t.sides),
            }
            for t in branch_map.tracks
        ],
    }


def map_from_json(doc: object) -> BranchMap:
    """The BranchMap a map_to_json document describes; DatasetError if malformed.

    Values are checked, not coerced: each track and the map check their own
    fields, and a track's error names its index.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("tracks"), list):
        raise DatasetError(
            "malformed branch map document: expected an object with a 'tracks' list"
        )
    tracks = []
    for index, item in enumerate(doc["tracks"]):
        try:
            tracks.append(from_doc(FruitletTrack, item))
        except ValueError as exc:
            raise DatasetError(f"malformed branch map document: track {index}: {exc}") from exc
    try:
        return from_doc(BranchMap, {**doc, "tracks": tracks})
    except ValueError as exc:
        raise DatasetError(f"malformed branch map document: {exc}") from exc


def save_branch_map(path: Path | str, branch_map: BranchMap) -> None:
    write_json(path, map_to_json(branch_map))


def load_branch_map(path: Path | str) -> BranchMap:
    doc = read_json(path)
    try:
        return map_from_json(doc)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class GroundTruthFruitlet:
    id: int
    center: tuple[float, float, float]   # scene frame == side A frame
    diameter: float

    def __post_init__(self) -> None:
        check_types(self)
        if self.diameter <= 0:
            raise ValueError(f"diameter must be positive, got {self.diameter}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "diameter", float(self.diameter))


@dataclass(frozen=True)
class GroundTruth:
    """Fruitlets with distinct ids, and per side how many frames saw each one.

    Visibility counts are integers >= 0, each keyed by a listed fruitlet's id.
    dataset_id names the scan the fruitlets belong to, and frame_label the
    side whose frame the centers are in; each is None when unknown.
    """

    fruitlets: tuple[GroundTruthFruitlet, ...]
    visibility: dict[str, dict[int, int]] = field(default_factory=dict)
    dataset_id: str | None = None
    frame_label: str | None = None

    def __post_init__(self) -> None:
        wrong = []
        if not (
            isinstance(self.fruitlets, (list, tuple))
            and all(isinstance(f, GroundTruthFruitlet) for f in self.fruitlets)
        ):
            wrong.append("fruitlets must be a list of GroundTruthFruitlet records")
        if not (
            isinstance(self.visibility, dict)
            and all(isinstance(counts, dict) for counts in self.visibility.values())
        ):
            wrong.append("visibility must be an object of count objects")
        check_types(self, also=wrong)
        object.__setattr__(self, "fruitlets", tuple(self.fruitlets))
        ids: set[int] = set()
        for index, fruitlet in enumerate(self.fruitlets):
            if fruitlet.id in ids:
                raise ValueError(f"fruitlet entry {index}: duplicate id {fruitlet.id}")
            ids.add(fruitlet.id)
        for side, counts in self.visibility.items():
            where = f"invalid 'visibility': side {side}:"
            for key, count in counts.items():
                if not (is_int(count) and count >= 0):
                    raise ValueError(f"{where} count must be an integer >= 0, got {count!r}")
                if not (is_int(key) and key in ids):
                    raise ValueError(f"{where} {key!r} is not a listed fruitlet id")


def load_ground_truth(path: Path | str) -> GroundTruth:
    """Ground truth from its JSON file; values are checked, not coerced.

    Each fruitlet and the GroundTruth check their own fields, and every
    message names path. Visibility is an object of count objects per side,
    keyed by str(id) of a listed fruitlet, since JSON object keys are strings.
    dataset_id, the id of the scan the file was written with, and frame_label
    may be absent.
    """
    doc = read_json(path)
    if not isinstance(doc.get("fruitlets"), list):
        raise DatasetError(f"{path}: missing 'fruitlets' list")
    fruitlets = []
    for index, entry in enumerate(doc["fruitlets"]):
        try:
            fruitlets.append(from_doc(GroundTruthFruitlet, entry))
        except ValueError as exc:
            raise DatasetError(f"{path}: fruitlet entry {index}: {exc}") from exc
    visibility = doc.get("visibility", {})
    if not (isinstance(visibility, dict) and all(isinstance(c, dict) for c in visibility.values())):
        raise DatasetError(f"{path}: invalid 'visibility': expected an object of count objects")
    # a key that is not str(id) of a listed fruitlet stays a string, which GroundTruth rejects
    ids = {str(fruitlet.id): fruitlet.id for fruitlet in fruitlets}
    try:
        return GroundTruth(
            fruitlets=tuple(fruitlets),
            visibility={
                side: {ids.get(key, key): count for key, count in counts.items()}
                for side, counts in visibility.items()
            },
            dataset_id=doc.get("dataset_id"),
            frame_label=doc.get("frame_label"),
        )
    except ValueError as exc:
        raise DatasetError(f"{path}: {exc}") from exc
