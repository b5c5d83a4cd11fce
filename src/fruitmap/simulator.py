"""Synthetic branch-scan oracle: scene generation, trajectory, depth rendering.

Scene frame conventions (shared with the exported dataset):

- x runs along the branch, from 0 to branch_length; y points down (fruitlets
  hang at y > 0); the canopy plane is z = 0.
- Side A's coordinate frame is the scene frame. Side B gets an independent
  frame (a half-turn about x plus a fixed offset), standing in for a second
  tracking origin; in both side frames +z points from that side's cameras
  into the canopy.
- Cameras on side A sit at z < 0 looking toward +z; side B poses are the
  mirror image through the canopy plane, with the handedness fixed by
  flipping the camera x axis.
- One fiducial sits near the branch base, below the branch origin. Its pose
  is exported per side, which is all the alignment stage needs.

Rendering is an exact ray cast against spheres (fruitlets) and thin opaque
rectangles (leaf stand-ins): nearest hit wins, fruitlet hits label the mask
with ground-truth id + 1 (0 is background), occluder hits leave depth but no
label, misses store NaN. Gaussian depth noise is added per frame from an
explicit seed. Depth math runs in float64; datasets store float32, so a
quantization of order 1e-8 m appears only at export.

Rays are cast from row and column terms: each dot product of a ray with a
fixed vector is a per-column plus a per-row term, with no per-pixel direction
array. Against a per-pixel cast (kept in the tests as the reference) the
float64 depth moves by about 1e-12 relative; the stored float32 depth does not.

Mask labels come from geometry, standing in for a perfect detector. The
optional mask dilation grows each label into unclaimed valid-depth pixels to
emulate sloppy segmentation boundaries that drag background depth into a
fruitlet's cloud.

export_dataset streams a scan to disk: each frame is rendered and written by
one task, and the tasks run in the same pool of forked processes that map
fits frames with, so no process holds more than one frame. simulate_dataset
renders the same frames in memory, in-process.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from ._checks import json_digest
from ._pool import ordered_map
from .dataset import (
    DEFAULT_MIN_POINTS,
    FrameRecord,
    ScanDataset,
    clear_scan,
    write_dataset,
    write_frame,
)
from .geometry import CameraIntrinsics, RigidTransform, project, rotation_about_axis
from .records import GroundTruth, GroundTruthFruitlet, OrchardSpec
from .spherefit import derive_seed

__all__ = [
    "DEFAULT_INTRINSICS",
    "SceneGenerationError",
    "LeafOccluder",
    "Scene",
    "generate_scene",
    "plan_trajectory",
    "render_frame",
    "simulate_dataset",
    "export_dataset",
]

DEFAULT_INTRINSICS = CameraIntrinsics(
    fx=362.0, fy=362.0, cx=308.0, cy=257.0, width=616, height=514
)

SIDES = ("A", "B")

ARC_COUNT = 4
POSES_PER_ARC = 10
ARC_SPACING = 0.015          # m along the branch axis
STANDOFF_RANGE = (0.31, 0.39)  # arc radii, inside the 0.30-0.40 m band
SWEEP_HALF_ANGLE = np.pi / 4
AIM_DROP = 0.03              # aim point hangs this far below the branch line
NEAR_PLANE = 0.05

_PLACEMENT_HALF_WINDOW = 0.20  # cluster anchors stay this close to branch center
_PLACEMENT_RETRIES = 200
_CLUSTER_RETRIES = 50
_NOISE_STREAM_TAG = 7741  # keeps frame-noise seeds apart from fit-seed streams

# The rig: each side's frame relative to the scene frame, and the fiducial's pose.
SIDE_FROM_SCENE = {
    "A": RigidTransform.identity(),
    "B": RigidTransform(rotation_about_axis([1.0, 0.0, 0.0], np.pi), (0.02, -0.03, 0.05)),
}
FIDUCIAL_TO_SCENE = RigidTransform(np.eye(3), (0.0, 0.09, 0.0))


class SceneGenerationError(ValueError):
    """Raised when a spec cannot be placed without overlaps within the retry budget."""


@dataclass(frozen=True)
class LeafOccluder:
    """Thin opaque square: center plus two orthonormal in-plane axes."""

    center: tuple[float, float, float]
    axis_u: tuple[float, float, float]
    axis_v: tuple[float, float, float]
    half_size: float                     # half the side of the square


@dataclass(frozen=True)
class Scene:
    """Placed geometry plus the sensor facts needed to render and export it.

    render_frame adds depth noise of depth_noise_sigma and grows masks by
    mask_dilate_px; the rig (SIDE_FROM_SCENE, FIDUCIAL_TO_SCENE) is the same
    for every scene.
    """

    fruitlets: tuple[GroundTruthFruitlet, ...]
    occluders: tuple[LeafOccluder, ...]
    depth_noise_sigma: float
    mask_dilate_px: int
    rng_seed: int
    dataset_id: str


def _draw_occluder(child_seed: np.random.SeedSequence, spec: OrchardSpec) -> LeafOccluder:
    rng = np.random.default_rng(child_seed)
    mid = spec.branch_length / 2.0
    side_sign = 1.0 if rng.random() < 0.5 else -1.0
    center = (
        mid + rng.uniform(-0.24, 0.24),
        rng.uniform(-0.02, 0.08),
        side_sign * rng.uniform(0.045, 0.085),
    )
    # leaves lie roughly in the canopy plane: normal near +/-z with a tilt
    normal = np.array([rng.normal(0, 0.25), rng.normal(0, 0.25), 1.0])
    normal /= np.linalg.norm(normal)
    axis_u = np.cross([0.0, 1.0, 0.0], normal)
    axis_u /= np.linalg.norm(axis_u)
    axis_v = np.cross(normal, axis_u)
    return LeafOccluder(
        center=center,
        axis_u=tuple(axis_u),
        axis_v=tuple(axis_v),
        half_size=spec.occluder_size / 2.0,
    )


def generate_scene(spec: OrchardSpec) -> Scene:
    """Place clustered fruitlets and leaf occluders, deterministically per seed.

    Fruitlet centers keep a pairwise separation of at least
    max(spec.min_separation, sum of the two radii), retried per fruitlet up
    to a fixed budget; exhausting it raises SceneGenerationError. Occluder i
    is drawn from the i-th spawned child of the occluder seed stream, so
    extending occluder_count leaves existing occluders in place.
    """
    ss = np.random.SeedSequence(spec.rng_seed)
    fruit_ss, occluder_ss = ss.spawn(2)
    rng = np.random.default_rng(fruit_ss)

    mid = spec.branch_length / 2.0
    lo, hi = spec.fruitlets_per_cluster
    half_spread = spec.cluster_spread / 2.0
    placed: list[tuple[np.ndarray, float]] = []

    def try_cluster() -> list[tuple[np.ndarray, float]] | None:
        anchor = np.array(
            [
                mid + rng.uniform(-_PLACEMENT_HALF_WINDOW, _PLACEMENT_HALF_WINDOW),
                rng.uniform(0.015, 0.055),
                rng.uniform(-0.008, 0.008),
            ]
        )
        members: list[tuple[np.ndarray, float]] = []
        for _ in range(int(rng.integers(lo, hi + 1))):
            for _ in range(_PLACEMENT_RETRIES):
                center = anchor + rng.uniform(-half_spread, half_spread, size=3)
                diameter = rng.uniform(*spec.diameter_range)
                ok = all(
                    np.linalg.norm(center - other) >= max(
                        spec.min_separation, (diameter + other_d) / 2.0
                    )
                    for other, other_d in placed + members
                )
                if ok:
                    members.append((center, diameter))
                    break
            else:
                return None
        return members

    for _ in range(spec.cluster_count):
        for attempt in range(_CLUSTER_RETRIES + 1):
            if attempt == _CLUSTER_RETRIES:
                raise SceneGenerationError(
                    f"cluster placement failed after {_CLUSTER_RETRIES} anchor "
                    f"redraws of {_PLACEMENT_RETRIES} tries each; spec too dense"
                )
            members = try_cluster()
            if members is not None:
                placed.extend(members)
                break

    fruitlets = tuple(
        GroundTruthFruitlet(id=i, center=tuple(center), diameter=float(diameter))
        for i, (center, diameter) in enumerate(placed)
    )
    occluders = tuple(
        _draw_occluder(child, spec)
        for child in occluder_ss.spawn(spec.occluder_count)
    )
    return Scene(
        fruitlets=fruitlets,
        occluders=occluders,
        depth_noise_sigma=spec.depth_noise_sigma,
        mask_dilate_px=spec.mask_dilate_px,
        rng_seed=spec.rng_seed,
        dataset_id=json_digest(asdict(spec))[:12],
    )


def _look_at(position: np.ndarray, target: np.ndarray) -> RigidTransform:
    forward = target - position
    forward = forward / np.linalg.norm(forward)
    # camera y tracks scene +y (down); forward always has a z component here
    right = np.cross([0.0, 1.0, 0.0], forward)
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    rotation = np.column_stack([right, down, forward])
    return RigidTransform(rotation, position)


def _mirror_pose(pose: RigidTransform) -> RigidTransform:
    # reflect through z=0, then flip the camera x axis to restore handedness
    flip_z = np.diag([1.0, 1.0, -1.0])
    flip_x = np.diag([-1.0, 1.0, 1.0])
    return RigidTransform(flip_z @ pose.rotation @ flip_x, flip_z @ pose.translation)


def plan_trajectory(spec: OrchardSpec) -> dict[str, tuple[RigidTransform, ...]]:
    """Camera-to-scene poses per side: 4 transverse arcs of 10 poses each.

    Arc planes are perpendicular to the branch axis, centered on it, spaced
    15 mm apart around the branch midpoint; radii span the standoff band, so
    every position is 0.31-0.39 m from the axis. Each pose aims at a point
    just below the branch in its arc plane. Side B is the mirror image of
    side A through the canopy plane.
    """
    mid = spec.branch_length / 2.0
    radii = np.linspace(*STANDOFF_RANGE, ARC_COUNT)
    sweep = np.linspace(-SWEEP_HALF_ANGLE, SWEEP_HALF_ANGLE, POSES_PER_ARC)
    poses_a = []
    for arc, radius in enumerate(radii):
        x_arc = mid + (arc - (ARC_COUNT - 1) / 2.0) * ARC_SPACING
        target = np.array([x_arc, AIM_DROP, 0.0])
        for angle in sweep:
            position = np.array(
                [x_arc, radius * np.sin(angle), -radius * np.cos(angle)]
            )
            poses_a.append(_look_at(position, target))
    poses_b = [_mirror_pose(p) for p in poses_a]
    return {"A": tuple(poses_a), "B": tuple(poses_b)}


def _roi_from_points(
    cam_points: np.ndarray, intrinsics: CameraIntrinsics
) -> tuple[int, int, int, int] | None:
    """Clipped pixel bbox covering the projected convex hull, or full image.

    None means the object is entirely behind the near plane. Falls back to
    the full image when any corner is too close to project reliably.
    """
    if np.all(cam_points[:, 2] <= NEAR_PLANE):
        return None
    if np.any(cam_points[:, 2] <= NEAR_PLANE):
        return 0, intrinsics.width, 0, intrinsics.height
    u, v = project(intrinsics, cam_points)
    u0 = max(int(np.floor(u.min())) - 1, 0)
    u1 = min(int(np.ceil(u.max())) + 2, intrinsics.width)
    v0 = max(int(np.floor(v.min())) - 1, 0)
    v1 = min(int(np.ceil(v.max())) + 2, intrinsics.height)
    if u0 >= u1 or v0 >= v1:
        return None
    return u0, u1, v0, v1


_AABB_CORNERS = np.array(
    [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float
)


def _ray_terms(box: tuple[int, int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """x (shape (w,)) and y (shape (h, 1)) of the box's ray directions (x, y, 1)."""
    u0, u1, v0, v1 = box
    x = (np.arange(u0, u1, dtype=float) - DEFAULT_INTRINSICS.cx) / DEFAULT_INTRINSICS.fx
    y = (np.arange(v0, v1, dtype=float) - DEFAULT_INTRINSICS.cy) / DEFAULT_INTRINSICS.fy
    return x, y[:, None]


def _dot_rays(x: np.ndarray, y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Dot product of a with each ray (x, y, 1): a column plus a row term."""
    return x * a[0] + (y * a[1] + a[2])


def render_frame(
    scene: Scene, pose: RigidTransform, rng_seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ray cast of the scene from one camera-to-scene pose.

    Returns (depth, masks): float64 depth in meters with NaN where no surface
    was hit, and a uint16 label image where fruitlet pixels carry ground-truth
    id + 1 and occluder pixels stay 0. Gaussian noise of the scene's
    depth_noise_sigma is added to every valid depth, seeded by rng_seed alone,
    and labels then grow by the scene's mask_dilate_px (_dilate_labels).
    """
    to_camera = pose.inverse()
    shape = (DEFAULT_INTRINSICS.height, DEFAULT_INTRINSICS.width)
    depth = np.full(shape, np.inf)
    masks = np.zeros(shape, dtype=np.uint16)

    def keep_nearest(box, hit, s, label):
        u0, u1, v0, v1 = box
        window_depth = depth[v0:v1, u0:u1]
        closer = hit & (s < window_depth)
        window_depth[closer] = s[closer]
        masks[v0:v1, u0:u1][closer] = label

    for fruit in scene.fruitlets:
        radius = fruit.diameter / 2.0
        center = to_camera.apply(np.asarray(fruit.center))
        corners = center + radius * _AABB_CORNERS
        box = _roi_from_points(corners, DEFAULT_INTRINSICS)
        if box is None:
            continue
        x, y = _ray_terms(box)
        dd = x * x + (y * y + 1.0)
        b = _dot_rays(x, y, center)
        disc = b * b - dd * (center @ center - radius * radius)
        with np.errstate(invalid="ignore"):
            s = (b - np.sqrt(disc)) / dd
        keep_nearest(box, (disc >= 0) & (s > NEAR_PLANE), s, fruit.id + 1)

    for leaf in scene.occluders:
        center = to_camera.apply(np.asarray(leaf.center))
        axis_u = to_camera.rotation @ np.asarray(leaf.axis_u)
        axis_v = to_camera.rotation @ np.asarray(leaf.axis_v)
        corners = center + leaf.half_size * np.array(
            [su * axis_u + sv * axis_v for su in (-1, 1) for sv in (-1, 1)]
        )
        box = _roi_from_points(corners, DEFAULT_INTRINSICS)
        if box is None:
            continue
        x, y = _ray_terms(box)
        normal = np.cross(axis_u, axis_v)
        denom = _dot_rays(x, y, normal)
        # (s d - c) . a = s (d . a) - c . a; s is +-inf or NaN where denom is 0
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (center @ normal) / denom
            hit = (
                (np.abs(denom) > 1e-12)
                & (s > NEAR_PLANE)
                & (np.abs(s * _dot_rays(x, y, axis_u) - center @ axis_u) <= leaf.half_size)
                & (np.abs(s * _dot_rays(x, y, axis_v) - center @ axis_v) <= leaf.half_size)
            )
        keep_nearest(box, hit, s, 0)

    valid = np.isfinite(depth)
    if scene.depth_noise_sigma > 0:
        rng = np.random.default_rng(rng_seed)
        depth[valid] += rng.normal(0.0, scene.depth_noise_sigma, size=int(valid.sum()))
    depth[~valid] = np.nan

    if scene.mask_dilate_px > 0:
        _dilate_labels(masks, valid & (masks == 0), scene.mask_dilate_px)
    return depth, masks


def _dilate_labels(masks: np.ndarray, claimable: np.ndarray, dilate_px: int) -> None:
    """Grow each label, in ascending id order, into claimable pixels, in place.

    A label takes the claimable pixels within L1 (4-neighbour) distance
    dilate_px of its own pixels that no smaller id took first: the result of
    scipy.ndimage.binary_dilation(masks == id, iterations=dilate_px) (cross
    structure, border 0), since that dilation is not confined to a mask and
    so reaches exactly the pixels within that distance. The distance is
    computed once per label, on the label's bounding box padded by dilate_px
    and clipped to the frame, as two 1-D min-plus sweeps along each axis, so
    the cost does not grow with dilate_px beyond the window's size.
    """
    height, width = masks.shape
    rows, cols = np.nonzero(masks)
    labels = masks[rows, cols]
    order = np.argsort(labels, kind="stable")
    ids, starts = np.unique(labels[order], return_index=True)
    for instance_id, part in zip(ids, np.split(order, starts[1:])):
        r0 = max(int(rows[part[0]]) - dilate_px, 0)  # rows ascend within a label
        r1 = min(int(rows[part[-1]]) + dilate_px + 1, height)
        c0 = max(int(cols[part].min()) - dilate_px, 0)
        c1 = min(int(cols[part].max()) + dilate_px + 1, width)
        window = masks[r0:r1, c0:c1]
        dist = np.where(window == instance_id, 0.0, np.inf)
        for _ in range(2):  # along each row, then (transposed) each column
            # min over k of dist[k] + |i - k|: the k <= i half, then the k >= i half
            i = np.arange(dist.shape[1], dtype=float)
            ahead = np.minimum.accumulate(dist - i, axis=1) + i
            behind = np.minimum.accumulate((dist + i)[:, ::-1], axis=1)[:, ::-1] - i
            dist = np.minimum(ahead, behind).T
        take = (dist <= dilate_px) & claimable[r0:r1, c0:c1]
        window[take] = instance_id
        claimable[r0:r1, c0:c1] &= ~take


# The renderer as this module defined it; see export_dataset.
_RENDER_FRAME = render_frame


def _frame_tasks(
    trajectory: Mapping[str, tuple[RigidTransform, ...]]
) -> list[tuple[str, int, RigidTransform]]:
    """(side, frame index, camera-to-scene pose) of every frame, in order."""
    return [
        (side, frame_index, pose)
        for side in SIDES
        for frame_index, pose in enumerate(trajectory[side])
    ]


def _render_record(
    scene: Scene, side: str, frame_index: int, pose_scene: RigidTransform
) -> FrameRecord:
    """One frame as a dataset stores it: camera-to-side pose, float32 depth."""
    depth, masks = render_frame(
        scene,
        pose_scene,
        rng_seed=derive_seed(scene.rng_seed, _NOISE_STREAM_TAG, SIDES.index(side), frame_index),
    )
    return FrameRecord(
        frame_index=frame_index,
        pose=SIDE_FROM_SCENE[side].compose(pose_scene),
        intrinsics=DEFAULT_INTRINSICS,
        depth=depth.astype(np.float32),
        masks=masks,
    )


def _seen_ids(record: FrameRecord) -> list[int]:
    """Ids of the fruitlets with at least DEFAULT_MIN_POINTS mask pixels in a frame."""
    labels, pixels = np.unique(record.masks[record.masks > 0], return_counts=True)
    return [int(label) - 1 for label in labels[pixels >= DEFAULT_MIN_POINTS]]


def _dataset(
    scene: Scene,
    tasks: list[tuple[str, int, RigidTransform]],
    seen: list[list[int]],
    frames: dict[str, tuple[FrameRecord, ...]],
) -> ScanDataset:
    """The dataset of the scene, with visibility summed from each task's seen ids."""
    visibility = {side: {fruit.id: 0 for fruit in scene.fruitlets} for side in SIDES}
    for (side, _, _), ids in zip(tasks, seen):
        for fruit_id in ids:
            visibility[side][fruit_id] += 1
    return ScanDataset(
        dataset_id=scene.dataset_id,
        sides=SIDES,
        frames=frames,
        fiducials={
            side: SIDE_FROM_SCENE[side].compose(FIDUCIAL_TO_SCENE).flat16() for side in SIDES
        },
        ground_truth=GroundTruth(
            scene.fruitlets, visibility, dataset_id=scene.dataset_id, frame_label=SIDES[0]
        ),
    )


def simulate_dataset(spec: OrchardSpec) -> ScanDataset:
    """Generate, plan, and render a full two-side dataset in memory, in this process."""
    scene = generate_scene(spec)
    tasks = _frame_tasks(plan_trajectory(spec))
    records = [_render_record(scene, *task) for task in tasks]
    frames = {
        side: tuple(rec for (rec_side, _, _), rec in zip(tasks, records) if rec_side == side)
        for side in SIDES
    }
    return _dataset(scene, tasks, [_seen_ids(rec) for rec in records], frames)


def export_dataset(
    scene: Scene,
    trajectory: Mapping[str, tuple[RigidTransform, ...]],
    root: Path | str,
    provenance: dict | None = None,
) -> ScanDataset:
    """Render the scene along the trajectory and write the dataset layout.

    Each frame is one task that renders it, writes its rasters and frame JSON
    (write_frame) and returns the ids of the fruitlets it saw, so no process
    holds more than one frame. The tasks run in a pool of forked processes,
    one per usable CPU (_pool.ordered_map), or in this process when
    render_frame has been replaced. The fiducials, ground truth and, last,
    the manifest follow (write_dataset). An old scan's manifest, ground truth
    and frames under root are removed first (clear_scan), so an export that
    fails part way leaves no dataset that loads, and a shorter scan leaves
    no old frame behind.

    Returns the dataset written, without its frames: frames is empty.
    """
    root = Path(root)
    clear_scan(root, SIDES)
    tasks = _frame_tasks(trajectory)

    def write_frame_at(position: int) -> list[int]:
        side, frame_index, pose = tasks[position]
        record = _render_record(scene, side, frame_index, pose)
        write_frame(root, side, record)
        return _seen_ids(record)

    seen = ordered_map(
        write_frame_at,
        len(tasks),
        "a rendering process",
        in_process=render_frame is not _RENDER_FRAME,
    )
    dataset = _dataset(scene, tasks, seen, frames={})
    write_dataset(dataset, root, provenance)
    return dataset
