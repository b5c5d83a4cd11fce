"""Fruitlet map assembly: each side's track map, then the two sides' merge.

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
updates in place; the store builds the frozen, validated BranchMap (a record
of the records module, beside its JSON form) once, at the end, and BranchMap
values stay immutable. Only this module reads or writes a store's rows.
Building is deterministic for a fixed dataset, config, and base seed because
every observation's fit is seeded from (base seed, frame index, instance id)
rather than from shared generator state.

build_side_map fits a side's frames in parallel, in one forked process per
usable CPU, and integrates the fits in frame order in the calling process. So
the map is byte-identical whatever the number of processes, and a side
restricted to one CPU (taskset -c 0) is fitted in-process. Each task reads
its own frame (a loaded dataset reads a frame's rasters when it is accessed),
so no process holds more than one frame's pixels.

The two sides' maps fuse through the same store. Both sides record a pose of
one physical fiducial, so a point expressed relative to it lands on identical
side-A coordinates through either side's chain: the fiducial alone registers
side B to side A. The merge is fixed as B-into-A, and the direction is part of
the contract: side A's tracks come first, so they keep the low ids and survive
the collapses a merge triggers, and the order in which side-B tracks arrive
decides which of them collapse. A side-B track weighs its tally, so a sighting
counts the same whichever side made it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from ._checks import DatasetError, check_types, config_digest
from ._pool import ordered_map
from .dataset import FrameRecord, ScanDataset, extract_instance_clouds
from .geometry import RigidTransform
from .records import BranchMap, FruitletTrack
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
    "TrackStore",
    "integrate_observation",
    "build_side_map",
    "cross_side_transform",
    "transform_map",
    "merge_maps",
]

logger = logging.getLogger(__name__)

WITHIN_SIDE_RADIUS = 0.010
CROSS_SIDE_RADIUS = 0.020


@dataclass(frozen=True)
class MergeConfig:
    """Association radius for track integration."""

    merge_radius: float = WITHIN_SIDE_RADIUS

    def __post_init__(self) -> None:
        check_types(self)
        if self.merge_radius <= 0:
            raise ValueError(f"merge_radius must be positive, got {self.merge_radius}")


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
    lets a whole track from another map count as its observation tally
    (merge_maps uses this); plain fits use the default 1.
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


def cross_side_transform(pose_a: RigidTransform, pose_b: RigidTransform) -> RigidTransform:
    """Rigid transform taking side-B coordinates to side-A coordinates.

    Both poses are fiducial-to-side poses of the same physical fiducial; the
    result is pose_a composed with the inverse of pose_b.
    """
    return pose_a.compose(pose_b.inverse())


def transform_map(
    branch_map: BranchMap, transform: RigidTransform, frame_label: str
) -> BranchMap:
    """Re-express every track center in a new frame; diameters are unchanged."""
    store = TrackStore(branch_map.tracks)
    store.centers = transform.apply(store.centers)
    return store.build(frame_label, branch_map.provenance)


def merge_maps(
    map_a: BranchMap, map_b_in_a: BranchMap, cfg: MergeConfig | None = None
) -> BranchMap:
    """Fold side-B tracks into side A's map; both inputs share one frame.

    Side-B tracks are integrated in their stored order, each weighted by its
    observation count, under the cross-side merge radius. Track ids are then
    reassigned densely in first-seen order. Raises ValueError when the inputs
    carry different frame labels (one of them was not re-expressed).
    """
    if map_a.frame_label != map_b_in_a.frame_label:
        raise ValueError(
            "frame label mismatch: "
            f"{map_a.frame_label!r} vs {map_b_in_a.frame_label!r}"
        )
    cfg = cfg if cfg is not None else MergeConfig(merge_radius=CROSS_SIDE_RADIUS)
    store = TrackStore(map_a.tracks)
    for track in map_b_in_a.tracks:
        integrate_observation(
            store, track.center, track.diameter, cfg, sides=track.sides, weight=track.observations
        )
    store.ids = list(range(len(store.ids)))
    return store.build(
        "merged",
        {
            "dataset_id": map_a.provenance.get("dataset_id", ""),
            "config_digest": config_digest(cfg),
        },
    )
