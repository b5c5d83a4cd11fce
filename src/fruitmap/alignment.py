"""Cross-side registration through a shared fiducial, then map merging.

Each scan side records one pose of the same physical fiducial in its own
frame. Composing side A's fiducial pose with the inverse of side B's yields
the rigid transform taking side-B coordinates into side A: any point expressed
relative to the fiducial lands on identical side-A coordinates through either
chain.

Merging is fixed as B-into-A: a mapping.TrackStore starts from side A's
tracks, and each side-B track is integrated into it as a single observation
whose weight is that track's observation tally, so a track's sightings
count the same whichever side made them. The direction is still part of the
contract rather than a free choice: side A's tracks come first, so they keep
the low ids and survive the collapses that a merge triggers, and the order
in which side-B tracks arrive decides which of them collapse. The ids are
renumbered before the store builds the merged map, which keeps side A's
coordinates and is labeled "merged". transform_map moves a map's centers
through the same store.
"""

from __future__ import annotations

from .geometry import RigidTransform
from .mapping import (
    CROSS_SIDE_RADIUS,
    BranchMap,
    MergeConfig,
    TrackStore,
    config_digest,
    integrate_observation,
)

__all__ = ["cross_side_transform", "transform_map", "merge_maps"]


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
            store,
            track.center,
            track.diameter,
            cfg,
            sides=track.sides,
            weight=track.observations,
        )
    store.ids = list(range(len(store.ids)))
    return store.build(
        "merged",
        {
            "dataset_id": map_a.provenance.get("dataset_id", ""),
            "config_digest": config_digest(cfg),
        },
    )
