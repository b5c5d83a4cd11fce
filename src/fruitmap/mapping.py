"""Per-side fruitlet map assembly.

A BranchMap accumulates accepted sphere fits across the frames of one scan
side. Association is greedy: each observation merges into the nearest existing
track when the center distance is at or below the merge radius, otherwise it
opens a new track. A merge sets the track's center and diameter to the
observation-count-weighted means of its current values and the observation:
every sighting counts the same whenever it arrives, and one stray fit moves a
track seen many times only a little.

A merge can drag a track center to within the merge radius of a neighbouring
track. Greedy association alone does not prevent that (a merge moves a center
toward the observation, by up to the radius), so after every merge the map
collapses any track pair left closer than the radius, keeping the
earlier-seen track's id. The separation invariant, no two track centers
within the merge radius, therefore holds for every map this module produces.

Tracks under construction live in a TrackStore, which integrate_observation
updates in place; the store builds the frozen, validated BranchMap once, at
the end, and BranchMap values stay immutable. The cross-side merge in
alignment.py goes through the same store. Building is deterministic for a
fixed dataset, config, and base seed because every observation's fit is
seeded from (base seed, frame index, instance id) rather than from shared
generator state.

build_side_map fits a side's frames in parallel, in one forked process per
usable CPU, and integrates the fits in frame order in the calling process. So
the map is byte-identical whatever the number of processes, and a side
restricted to one CPU (taskset -c 0) is fitted in-process. Each task reads
its own frame (a loaded dataset reads a frame's rasters when it is accessed),
so no process holds more than one frame's pixels.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from ._checks import check_types, from_doc
from ._pool import ordered_map
from .dataset import (
    DatasetError,
    FrameRecord,
    ScanDataset,
    extract_instance_clouds,
    json_digest,
    read_json,
    write_json,
)
from .spherefit import (
    DegenerateSampleError,
    FitConfig,
    FitReport,
    InsufficientPointsError,
    derive_seed,
    downsample_points,
    ransac_sphere_fit,
)

__all__ = [
    "WITHIN_SIDE_RADIUS",
    "CROSS_SIDE_RADIUS",
    "MergeConfig",
    "FruitletTrack",
    "BranchMap",
    "TrackStore",
    "config_digest",
    "integrate_observation",
    "build_side_map",
    "map_to_json",
    "map_from_json",
    "save_branch_map",
    "load_branch_map",
]

logger = logging.getLogger(__name__)

WITHIN_SIDE_RADIUS = 0.010
CROSS_SIDE_RADIUS = 0.020


@dataclass(frozen=True)
class MergeConfig:
    """Association radius for track integration."""

    merge_radius: float = WITHIN_SIDE_RADIUS

    def __post_init__(self) -> None:
        check_types(self, integers=(), reals=("merge_radius",))
        if self.merge_radius <= 0:
            raise ValueError(f"merge_radius must be positive, got {self.merge_radius}")


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
        named = isinstance(self.sides, (list, tuple, set, frozenset)) and all(
            isinstance(side, str) for side in self.sides
        )
        check_types(self, integers=("id", "observations"), reals=("diameter",),
                    points=("center",),
                    also=() if named else (f"sides must be a list of strings, got {self.sides!r}",))
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
    frame by the alignment stage).
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


def config_digest(*configs: object) -> str:
    """sha256 over the sorted-key JSON of the given config dataclasses."""
    return json_digest([asdict(cfg) for cfg in configs])  # type: ignore[call-overload]


class TrackStore:
    """The tracks of one map under construction, one row per track.

    Rows are in first-seen order: ids, a (T, 3) center array, and lists of
    diameters, observation counts and side sets. integrate_observation
    updates them in place; build() turns them into a validated BranchMap.
    """

    def __init__(self, tracks: tuple[FruitletTrack, ...] = ()) -> None:
        self.ids = [t.id for t in tracks]
        self.centers = np.array([t.center for t in tracks], dtype=float).reshape(-1, 3)
        self.diameters = [t.diameter for t in tracks]
        self.counts = [t.observations for t in tracks]
        self.sides = [t.sides for t in tracks]

    def build(self, frame_label: str, provenance: Mapping[str, object]) -> BranchMap:
        rows = zip(self.ids, self.centers.tolist(), self.diameters, self.counts, self.sides)
        return BranchMap(
            frame_label=frame_label,
            tracks=tuple(FruitletTrack(*row) for row in rows),
            provenance=dict(provenance),
        )

    def _blend(
        self,
        row: int,
        center: np.ndarray,
        diameter: float,
        weight: int,
        sides: frozenset[str],
    ) -> None:
        count = self.counts[row]
        total = count + weight
        self.centers[row] = (count * self.centers[row] + weight * center) / total
        self.diameters[row] = (count * self.diameters[row] + weight * diameter) / total
        self.counts[row] = total
        self.sides[row] = self.sides[row] | sides

    def _collapse(self, moved: int, cfg: MergeConfig) -> None:
        # A merge may have dragged row `moved` inside the radius of a
        # neighbour. Collapse such pairs (earlier-seen track survives) until
        # separation holds; each collapse removes a track, so this terminates.
        while len(self.ids) > 1:
            dist = np.linalg.norm(self.centers - self.centers[moved], axis=1)
            dist[moved] = np.inf
            nearest = int(np.argmin(dist))
            if dist[nearest] > cfg.merge_radius:
                break
            keep, drop = sorted((moved, nearest))
            self._blend(
                keep,
                self.centers[drop],
                self.diameters[drop],
                self.counts[drop],
                self.sides[drop],
            )
            self.centers = np.delete(self.centers, drop, axis=0)
            for column in (self.ids, self.diameters, self.counts, self.sides):
                del column[drop]
            moved = keep


def integrate_observation(
    store: TrackStore,
    center: Iterable[float],
    diameter: float,
    cfg: MergeConfig,
    *,
    sides: Iterable[str] = (),
    weight: int = 1,
) -> None:
    """Merge one accepted sphere fit into the store, or open a new track.

    The observation joins the nearest track when the center distance is at or
    below cfg.merge_radius; ties resolve to the earliest-seen track. weight > 1
    lets a whole track from another map count as its observation tally (the
    alignment stage uses this); plain fits use the default 1.
    """
    if weight < 1:
        raise ValueError("weight must be a positive observation count")
    center = np.asarray(center, dtype=float)
    diameter, sides = float(diameter), frozenset(sides)
    if store.ids:
        dist = np.linalg.norm(store.centers - center, axis=1)
        nearest = int(np.argmin(dist))
        if dist[nearest] <= cfg.merge_radius:
            store._blend(nearest, center, diameter, weight, sides)
            store._collapse(nearest, cfg)
            return
    store.ids.append(max(store.ids, default=-1) + 1)
    store.centers = np.vstack([store.centers, center])
    store.diameters.append(diameter)
    store.counts.append(weight)
    store.sides.append(sides)


def _fit_frame(frame: FrameRecord, fit_cfg: FitConfig) -> list[tuple[int, FitReport | ValueError]]:
    """Each masked instance's fit in one frame, ascending instance id.

    A cloud too degenerate or too small to fit gives its DegenerateSampleError
    or InsufficientPointsError in place of a report, for the caller to log.
    """
    fits: list[tuple[int, FitReport | ValueError]] = []
    for instance_id, cloud in extract_instance_clouds(frame):
        seed = derive_seed(fit_cfg.rng_seed, frame.frame_index, instance_id)
        obs_cfg = replace(fit_cfg, rng_seed=seed)
        try:
            thinned = downsample_points(cloud, obs_cfg.max_points, seed)
            fits.append((instance_id, ransac_sphere_fit(thinned, obs_cfg)))
        except (DegenerateSampleError, InsufficientPointsError) as exc:
            fits.append((instance_id, exc))
    return fits


# The layer functions _fit_frame calls, as this module imported them.
_LAYERS = (extract_instance_clouds, downsample_points, ransac_sphere_fit)


def _layers_replaced() -> bool:
    """Whether a caller has replaced one of _LAYERS in this module.

    A replacement (a test double, a profiler's wrapper) records its calls in
    the process that makes them, so that caller's frames are fitted in-process.
    """
    return (extract_instance_clouds, downsample_points, ransac_sphere_fit) != _LAYERS


def build_side_map(
    dataset: ScanDataset,
    side: str,
    fit_cfg: FitConfig | None = None,
    merge_cfg: MergeConfig | None = None,
) -> BranchMap:
    """Fit every masked instance in every frame of one side and integrate.

    Frames are fitted by _pool.ordered_map, one forked process per usable CPU
    and at most one per frame, or in this process when a layer function has
    been replaced (_layers_replaced). They are integrated in frame_index
    order, instances in ascending id order. Each observation's RANSAC is
    seeded from (base seed, frame index, instance id), so the map is
    byte-identical whatever the number of processes. Degenerate or
    under-populated clouds are logged and skipped; fits that fail the
    acceptance gate are skipped silently.

    Each task reads its frame, so the process that fits a frame reads and
    checks its rasters: a raster that fails its checks raises that
    DatasetError or OSError, whichever process read it. A fitting process
    that dies raises ChildProcessError naming the side.
    """
    fit_cfg = fit_cfg if fit_cfg is not None else FitConfig()
    merge_cfg = merge_cfg if merge_cfg is not None else MergeConfig()
    if side not in dataset.frames:
        raise DatasetError(
            f"side {side!r} not in dataset (has {sorted(dataset.frames)})"
        )
    frames = dataset.frames[side]

    def fit_at(position: int) -> tuple[int, list[tuple[int, FitReport | ValueError]]]:
        frame = frames[position]
        return frame.frame_index, _fit_frame(frame, fit_cfg)

    store = TrackStore()
    for frame_index, fits in ordered_map(
        fit_at, len(frames), f"side {side!r}: a fitting process", in_process=_layers_replaced()
    ):
        for instance_id, fit in fits:
            if not isinstance(fit, FitReport):
                logger.warning(
                    "sphere fit failed, frame %d instance %d: %s",
                    frame_index,
                    instance_id,
                    fit,
                )
            elif not fit.accepted:
                logger.debug(
                    "fit rejected, frame %d instance %d: inliers=%d diameter=%.4f",
                    frame_index,
                    instance_id,
                    fit.inlier_count,
                    fit.model.diameter,
                )
            else:
                integrate_observation(
                    store, fit.model.center, fit.model.diameter, merge_cfg, sides=(side,)
                )
    return store.build(
        side,
        {
            "dataset_id": dataset.dataset_id,
            "config_digest": config_digest(fit_cfg, merge_cfg),
            "seed": fit_cfg.rng_seed,
        },
    )


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
