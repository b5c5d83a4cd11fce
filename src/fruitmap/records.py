"""The pipeline's records: its configs, branch maps and ground truth.

The config file's sections simulate, fit, merge and eval are the records
OrchardSpec, FitConfig, MergeConfig and EvalConfig, whose fields hold each
setting's one default. load_config builds all four, so every stage checks
every key. A branch map is the output of map and align, and ground truth
comes with every simulated scan; eval scores the one against the other. All
are frozen records that check their own fields, built from JSON by from_doc,
so the same checks and messages hold for a record read from disk and one
built in memory.

load_scan_header reads what a scan says of itself, its manifest and each
side's fiducial pose, for dataset.load_dataset and for align, which needs no
frame of the scan.

This module imports no numpy: every stage checks its config, and eval and
align start, without it. mapping and tracks build branch maps, and the
simulator ground truth.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from ._checks import (
    DatasetError, NonNegativeFloat, NonNegativeInt, PositiveFloat, PositiveInt, check_pose,
    check_types, from_doc, is_finite_real, is_int, read_json, write_json,
)

__all__ = [
    "OrchardSpec",
    "FitConfig",
    "MergeConfig",
    "EvalConfig",
    "load_config",
    "FruitletTrack",
    "BranchMap",
    "map_to_json",
    "map_from_json",
    "save_branch_map",
    "load_branch_map",
    "GroundTruthFruitlet",
    "GroundTruth",
    "save_ground_truth",
    "load_ground_truth",
    "load_scan_header",
]


@dataclass(frozen=True)
class OrchardSpec:
    """Parameters of one synthetic branch scene."""

    branch_length: PositiveFloat = 0.9
    cluster_count: PositiveInt = 8
    fruitlets_per_cluster: tuple[int, int] = (1, 3)
    diameter_range: tuple[float, float] = (0.008, 0.025)
    cluster_spread: NonNegativeFloat = 0.035
    occluder_count: NonNegativeInt = 6
    occluder_size: PositiveFloat = 0.06
    depth_noise_sigma: NonNegativeFloat = 0.0011
    rng_seed: NonNegativeInt = 0
    min_separation: PositiveFloat = 0.024
    mask_dilate_px: NonNegativeInt = 0

    def __post_init__(self) -> None:
        check_types(self)
        object.__setattr__(self, "fruitlets_per_cluster", tuple(self.fruitlets_per_cluster))
        object.__setattr__(self, "diameter_range", tuple(self.diameter_range))
        lo, hi = self.fruitlets_per_cluster
        if not (1 <= lo <= hi):
            raise ValueError(f"bad fruitlets_per_cluster range ({lo}, {hi})")
        d_lo, d_hi = self.diameter_range
        band = FitConfig()
        if not (band.d_min <= d_lo <= d_hi <= band.d_max):
            raise ValueError(
                f"diameter_range [{d_lo}, {d_hi}] outside the plausible "
                f"fit band [{band.d_min}, {band.d_max}]"
            )


@dataclass(frozen=True)
class FitConfig:
    max_points: int = 500          # cloud threshold before fitting
    ransac_iterations: PositiveInt = 200
    inlier_tolerance: PositiveFloat = 0.002  # allowed surface deviation, m
    min_inlier_fraction: float = 0.3     # acceptance floor
    d_min: PositiveFloat = 0.004         # plausible diameter band, m
    d_max: float = 0.040
    z_rule: str = "background_reject"    # or "literal"
    rng_seed: NonNegativeInt = 0

    def __post_init__(self) -> None:
        wrong = []
        if is_int(self.max_points) and self.max_points < 4:
            wrong.append(f"max_points must be at least 4, got {self.max_points!r}")
        if is_finite_real(self.min_inlier_fraction) and not 0 < self.min_inlier_fraction <= 1:
            wrong.append(f"min_inlier_fraction must be in (0, 1], got {self.min_inlier_fraction!r}")
        if self.z_rule not in ("literal", "background_reject"):
            wrong.append(f"unknown z_rule {self.z_rule!r}")
        check_types(self, also=wrong)
        if not self.d_min < self.d_max:
            raise ValueError(f"need 0 < d_min < d_max, got [{self.d_min}, {self.d_max}]")


@dataclass(frozen=True)
class MergeConfig:
    """Association radii, m: of a fit to a track in map, and of two sides' tracks in align."""

    within_radius: PositiveFloat = 0.010
    cross_radius: PositiveFloat = 0.020

    def __post_init__(self) -> None:
        check_types(self)


@dataclass(frozen=True)
class EvalConfig:
    """eval's center-to-center match tolerance, m."""

    tolerance: PositiveFloat = 0.025

    def __post_init__(self) -> None:
        check_types(self)


# The config file's sections, each with the record whose fields are its keys.
_SECTIONS = {"simulate": OrchardSpec, "fit": FitConfig, "merge": MergeConfig, "eval": EvalConfig}


def load_config(path: Path | str | None) -> dict[str, Any]:
    """Each section's config record, by section name; defaults where path leaves it out.

    Each record checks the values as the file wrote them, so a message shows a
    list as a list, and one ValueError names every wrong key, each after its
    section. A record holds a valid list as a tuple.
    """
    doc = {} if path is None else read_json(path)
    for name, section in doc.items():
        if name not in _SECTIONS:
            raise ValueError(
                f"config {path}: unknown section {name!r} "
                f"(expected one of {', '.join(_SECTIONS)})"
            )
        if not isinstance(section, dict):
            raise ValueError(f"config {path}: section {name!r} must be an object")
        unknown = sorted(set(section) - {f.name for f in fields(_SECTIONS[name])})
        if unknown:
            raise ValueError(f"config {path}: unknown {name} option(s): {', '.join(unknown)}")
    records, wrong = {}, []
    for name, record in _SECTIONS.items():
        try:
            records[name] = record(**doc.get(name, {}))
        except ValueError as exc:
            wrong.append(f"{name}: {exc}")
    if wrong:
        raise ValueError(f"config {path}: {'; '.join(wrong)}")
    return records


@dataclass(frozen=True)
class FruitletTrack:
    """One fruitlet hypothesis: running center/diameter plus bookkeeping.

    ids are assigned in first-seen order and stay stable through merges
    (the earlier-seen track's id survives a collapse).
    """

    id: NonNegativeInt
    center: tuple[float, float, float]
    diameter: PositiveFloat
    observations: PositiveInt
    sides: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        check_types(self)
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
        "tracks": [{**asdict(t), "sides": sorted(t.sides)} for t in branch_map.tracks],
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
    diameter: PositiveFloat

    def __post_init__(self) -> None:
        check_types(self)
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


def save_ground_truth(path: Path | str, truth: GroundTruth) -> None:
    """Write truth as load_ground_truth reads it, sides and ids in ascending order."""
    write_json(
        path,
        {
            "dataset_id": truth.dataset_id,
            "frame_label": truth.frame_label,
            "fruitlets": [asdict(f) for f in truth.fruitlets],
            "visibility": {
                side: {str(k): v for k, v in sorted(counts.items())}
                for side, counts in sorted(truth.visibility.items())
            },
        },
    )


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


FORMAT_VERSION = "1"  # of a scan's layout, which dataset documents and writes


def load_scan_header(
    root: Path | str,
) -> tuple[str, tuple[str, ...], dict[str, tuple[float, ...]]]:
    """The dataset id, side labels and fiducial poses of the scan at root.

    The manifest must name this format version, meters as its units, and a
    non-empty list of distinct side labels, each a directory name; its
    dataset_id, when present, must be a string. Every side's fiducial.json
    must hold a pose that passes _checks.check_pose, kept as its 16
    row-major floats. Each DatasetError names the file at fault; a file that
    cannot be opened raises the OSError from opening it.
    """
    root = Path(root)
    manifest_path = root / "manifest.json"
    manifest = read_json(manifest_path)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise DatasetError(
            f"{manifest_path}: format_version {manifest.get('format_version')!r}, "
            f"expected {FORMAT_VERSION!r}"
        )
    if manifest.get("units") != "meters":
        raise DatasetError(f"{manifest_path}: units must be 'meters'")
    sides = manifest.get("sides")
    if not (isinstance(sides, list) and all(isinstance(side, str) for side in sides)):
        raise DatasetError(f"{manifest_path}: sides must be a list of strings, got {sides!r}")
    if not sides:
        raise DatasetError(f"{manifest_path}: empty side list")
    labels: set[str] = set()
    for side in sides:
        # each label names its own directory under sides/
        if side in ("", ".", "..") or any(c in side for c in "/\\\0"):
            raise DatasetError(f"{manifest_path}: side label {side!r} is not a directory name")
        if side in labels:
            raise DatasetError(f"{manifest_path}: side label {side!r} is repeated")
        labels.add(side)
    dataset_id = manifest.get("dataset_id", "")
    if not isinstance(dataset_id, str):
        raise DatasetError(f"{manifest_path}: dataset_id must be a string, got {dataset_id!r}")
    fiducials = {}
    for side in sides:
        path = root / "sides" / side / "fiducial.json"
        doc = read_json(path)
        if "pose" not in doc:
            raise DatasetError(f"{path}: missing 'pose'")
        try:
            fiducials[side] = check_pose(doc["pose"])
        except ValueError as exc:
            raise DatasetError(f"{path}: {exc}") from exc
    return dataset_id, tuple(sides), fiducials
