"""Track maps in plain Python: the track store, and the two sides' merge.

A TrackStore holds the tracks of one map under construction, a side's
(mapping.build_side_map) or the merged one. Association is greedy: each
observation merges into the nearest existing track when the center distance
is at or below the merge radius, otherwise it opens a new track. A merge sets
the track's center and diameter to the observation-count-weighted means of
its current values and the observation: every sighting counts the same
whenever it arrives, and one stray fit moves a track seen many times only a
little.

A merge can drag a track center to within the merge radius of a neighbouring
track. Greedy association alone does not prevent that (a merge moves a center
toward the observation, by up to the radius), so after every merge the store
collapses any track pair left closer than the radius, keeping the
earlier-seen track's id. The separation invariant, no two track centers
within the merge radius, therefore holds for every map a store builds.

integrate_observation updates a store in place; the store builds the frozen,
validated BranchMap (a record of the records module, beside its JSON form)
once, at the end, and BranchMap values stay immutable. Only this module reads
or writes a store's rows.

The two sides' maps fuse through the same store. Both sides record a pose of
one physical fiducial, so a point expressed relative to it lands on identical
side-A coordinates through either side's chain: the fiducial alone registers
side B to side A. The merge is fixed as B-into-A, and the direction is part
of the contract: side A's tracks come first, so they keep the low ids and
survive the collapses a merge triggers, and the order in which side-B tracks
arrive decides which of them collapse. A side-B track weighs its tally, so a
sighting counts the same whichever side made it.

A pose is its on-disk encoding, 16 row-major floats (records.load_scan_header
reads them), and cross_side_transform and transform_map work on it in plain
Python. Each sum runs in the order geometry.RigidTransform writes it: a
rotated point is ((r0 * x + r1 * y) + r2 * z) + t. A BLAS kernel may fuse a
multiply and an add, so on an arbitrary rotation a coordinate may differ
from numpy's in its last bits; on the simulator's rig, whose fiducial
rotations hold only 0, +-1 and +-1.2e-16, the merged map is byte-identical
to numpy's.

This module imports no numpy, so align starts without it.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Iterable, Mapping

from ._checks import config_digest
from .records import BranchMap, FruitletTrack, MergeConfig

__all__ = [
    "TrackStore",
    "integrate_observation",
    "cross_side_transform",
    "transform_map",
    "merge_maps",
]


class TrackStore:
    """The tracks of one map under construction, in plain Python.

    rows holds one list per track, in first-seen order, whose five items are
    the track's fields in FruitletTrack's order: id, center (a tuple of three
    floats), diameter, observation count and side set. integrate_observation
    updates the rows in place; build() turns them into a validated BranchMap.
    """

    def __init__(self, tracks: tuple[FruitletTrack, ...] = ()) -> None:
        self.rows = [[t.id, t.center, t.diameter, t.observations, t.sides] for t in tracks]

    def build(self, frame_label: str, provenance: Mapping[str, object]) -> BranchMap:
        return BranchMap(
            frame_label=frame_label,
            tracks=tuple(FruitletTrack(*row) for row in self.rows),
            provenance=dict(provenance),
        )

    def _nearest(self, center: tuple[float, ...], skip: int | None = None) -> tuple[int, float]:
        """The row nearest center but for row skip, and its distance; first wins a tie."""
        x, y, z = center
        dists = []
        for row in self.rows:
            cx, cy, cz = row[1]
            dx, dy, dz = cx - x, cy - y, cz - z
            # (dx^2 + dy^2) + dz^2, the order np.linalg.norm(..., axis=1) sums in
            dists.append(math.sqrt((dx * dx + dy * dy) + dz * dz))
        if skip is not None:
            dists[skip] = math.inf
        nearest = dists.index(min(dists))
        return nearest, dists[nearest]

    def _blend(self, index: int, center: tuple[float, ...], diameter: float,
               weight: int, sides: frozenset[str]) -> None:
        row = self.rows[index]
        _, old, old_diameter, count, old_sides = row
        total = count + weight
        row[1:] = (tuple((count * a + weight * b) / total for a, b in zip(old, center)),
                   (count * old_diameter + weight * diameter) / total, total, old_sides | sides)

    def _collapse(self, moved: int, radius: float) -> None:
        # A merge may have dragged row `moved` inside the radius of a
        # neighbour. Collapse such pairs (earlier-seen track survives) until
        # separation holds; each collapse removes a track, so this terminates.
        while len(self.rows) > 1:
            nearest, dist = self._nearest(self.rows[moved][1], skip=moved)
            if dist > radius:
                break
            keep, drop = sorted((moved, nearest))
            _, center, diameter, count, sides = self.rows.pop(drop)
            self._blend(keep, center, diameter, count, sides)
            moved = keep


def integrate_observation(
    store: TrackStore,
    center: Iterable[float],
    diameter: float,
    radius: float,
    *,
    sides: Iterable[str] = (),
    weight: int = 1,
) -> None:
    """Merge one accepted sphere fit into the store, or open a new track.

    The observation joins the nearest track when the center distance is at or
    below radius, the merge radius; ties resolve to the earliest-seen track.
    weight > 1 lets a whole track from another map count as its observation
    tally (merge_maps uses this); plain fits use the default 1.
    """
    if weight < 1:
        raise ValueError("weight must be a positive observation count")
    center = tuple(map(float, center))
    diameter, sides = float(diameter), frozenset(sides)
    if store.rows:
        nearest, dist = store._nearest(center)
        if dist <= radius:
            store._blend(nearest, center, diameter, weight, sides)
            store._collapse(nearest, radius)
            return
    next_id = max((row[0] for row in store.rows), default=-1) + 1
    store.rows.append([next_id, center, diameter, weight, sides])


def _inverse(pose: tuple[float, ...]) -> tuple[float, ...]:
    """The inverse of a rigid pose: R^T, and -(R^T t), summed as RigidTransform.inverse does."""
    t = pose[3:12:4]
    rows = []
    for j in range(3):
        r = pose[j:12:4]  # column j of R, row j of R^T
        rows += [*r, -((r[0] * t[0] + r[1] * t[1]) + r[2] * t[2])]
    return (*rows, 0.0, 0.0, 0.0, 1.0)


def _compose(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    """a after b: R_a R_b, and R_a t_b + t_a, summed as RigidTransform.compose does."""
    rows = []
    for i in range(0, 12, 4):
        r0, r1, r2, t = a[i:i + 4]
        rows += [(r0 * b[j] + r1 * b[j + 4]) + r2 * b[j + 8] for j in range(4)]
        rows[-1] += t
    return (*rows, 0.0, 0.0, 0.0, 1.0)


def cross_side_transform(
    pose_a: tuple[float, ...], pose_b: tuple[float, ...]
) -> tuple[float, ...]:
    """Rigid transform taking side-B coordinates to side-A coordinates.

    Both poses are fiducial-to-side poses of the same physical fiducial, each
    16 row-major floats; the result, in the same form, is pose_a composed
    with the inverse of pose_b.
    """
    return _compose(pose_a, _inverse(pose_b))


def _apply(pose: tuple[float, ...], point: tuple[float, ...]) -> tuple[float, ...]:
    """point moved by a rigid pose: ((r0 * x + r1 * y) + r2 * z) + t per row of the pose."""
    x, y, z = point
    return tuple(((r0 * x + r1 * y) + r2 * z) + t
                 for r0, r1, r2, t in (pose[0:4], pose[4:8], pose[8:12]))


def transform_map(
    branch_map: BranchMap, transform: tuple[float, ...], frame_label: str
) -> BranchMap:
    """Re-express every track center in a new frame; diameters are unchanged.

    transform is a rigid pose as 16 row-major floats, such as
    cross_side_transform returns.
    """
    tracks = tuple(replace(t, center=_apply(transform, t.center)) for t in branch_map.tracks)
    return BranchMap(frame_label, tracks, dict(branch_map.provenance))


def merge_maps(
    map_a: BranchMap, map_b_in_a: BranchMap, cfg: MergeConfig | None = None
) -> BranchMap:
    """Fold side-B tracks into side A's map; both inputs share one frame.

    Side-B tracks are integrated in their stored order, each weighted by its
    observation count, under cfg.cross_radius. Track ids are then
    reassigned densely in first-seen order. Raises ValueError when the inputs
    carry different frame labels (one of them was not re-expressed).
    """
    if map_a.frame_label != map_b_in_a.frame_label:
        raise ValueError(
            "frame label mismatch: "
            f"{map_a.frame_label!r} vs {map_b_in_a.frame_label!r}"
        )
    cfg = cfg if cfg is not None else MergeConfig()
    store = TrackStore(map_a.tracks)
    for track in map_b_in_a.tracks:
        integrate_observation(store, track.center, track.diameter, cfg.cross_radius,
                              sides=track.sides, weight=track.observations)
    for new_id, row in enumerate(store.rows):
        row[0] = new_id
    return store.build(
        "merged",
        {
            "dataset_id": map_a.provenance.get("dataset_id", ""),
            "config_digest": config_digest(cfg),
        },
    )
