"""Cross-side registration through a shared fiducial, then map merging.

Each scan side records one pose of the same physical fiducial in its own
frame. Composing side A's fiducial pose with the inverse of side B's yields
the rigid transform taking side-B coordinates into side A: any point expressed
relative to the fiducial lands on identical side-A coordinates through either
chain.

Merging is fixed as B-into-A: the merged map starts from side A's tracks and
integrates each side-B track as a single observation whose weight is that
track's observation tally. Under pairwise averaging this order matters (the
B value gets half weight against the whole A history), which is why the
direction is part of the contract rather than a free choice. The merged map
keeps side A's coordinates and is labeled "merged".
"""

from __future__ import annotations

import numpy as np

from .dataset import FiducialObservation
from .geometry import RigidTransform
from .mapping import (
    CROSS_SIDE_RADIUS,
    BranchMap,
    FruitletTrack,
    MergeConfig,
    config_digest,
    integrate_observation,
)
from .spherefit import SphereModel

__all__ = ["cross_side_transform", "transform_map", "merge_maps"]


def cross_side_transform(
    fid_a: FiducialObservation, fid_b: FiducialObservation
) -> RigidTransform:
    """Rigid transform taking side-B coordinates to side-A coordinates.

    Both observations must be of the same physical fiducial; the result is
    pose_a composed with the inverse of pose_b.
    """
    return fid_a.pose.compose(fid_b.pose.inverse())


def transform_map(
    branch_map: BranchMap, transform: RigidTransform, frame_label: str
) -> BranchMap:
    """Re-express every track center in a new frame; diameters are unchanged."""
    centers = np.array([t.center for t in branch_map.tracks]).reshape(-1, 3)
    moved = transform.apply(centers)
    tracks = tuple(
        FruitletTrack(
            id=t.id,
            center=tuple(moved[i]),
            diameter=t.diameter,
            observations=t.observations,
            sides=t.sides,
        )
        for i, t in enumerate(branch_map.tracks)
    )
    return BranchMap(
        frame_label=frame_label, tracks=tracks, provenance=dict(branch_map.provenance)
    )


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
    merged = BranchMap(
        frame_label=map_a.frame_label,
        tracks=map_a.tracks,
        provenance={
            "dataset_id": map_a.provenance.get("dataset_id", ""),
            "config_digest": config_digest(cfg),
        },
    )
    for track in map_b_in_a.tracks:
        merged = integrate_observation(
            merged,
            SphereModel(center=track.center, diameter=track.diameter),
            cfg,
            sides=track.sides,
            weight=track.observations,
        )
    renumbered = tuple(
        FruitletTrack(
            id=index,
            center=t.center,
            diameter=t.diameter,
            observations=t.observations,
            sides=t.sides,
        )
        for index, t in enumerate(merged.tracks)
    )
    return BranchMap(
        frame_label="merged", tracks=renumbered, provenance=merged.provenance
    )
