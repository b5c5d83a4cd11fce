"""Tests for the synthetic scan simulator: scenes, trajectories, rendering."""

import hashlib
import multiprocessing
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from fruitmap import simulator
from fruitmap.dataset import extract_instance_clouds, load_dataset
from fruitmap.geometry import CameraIntrinsics, RigidTransform, backproject
from fruitmap.records import GroundTruthFruitlet, load_ground_truth
from fruitmap.simulator import (
    ARC_COUNT,
    ARC_SPACING,
    DEFAULT_INTRINSICS,
    NEAR_PLANE,
    POSES_PER_ARC,
    SIDE_FROM_SCENE,
    LeafOccluder,
    OrchardSpec,
    Scene,
    SceneGenerationError,
    generate_scene,
    export_dataset,
    plan_trajectory,
    render_frame,
    simulate_dataset,
)
from fruitmap.simulator import _dilate_labels, _roi_from_points

SMALL_SPEC = OrchardSpec(cluster_count=3, occluder_count=0, rng_seed=5)


@pytest.fixture(scope="module")
def small_dataset():
    return simulate_dataset(SMALL_SPEC)


def one_fruit_scene(center=(0.45, 0.03, 0.0), diameter=0.020, occluders=()):
    """Hand-built scene: a single fruitlet, no noise, no mask dilation."""
    return Scene(
        fruitlets=(GroundTruthFruitlet(id=0, center=center, diameter=diameter),),
        occluders=tuple(occluders),
        depth_noise_sigma=0.0,
        mask_dilate_px=0,
        rng_seed=0,
        dataset_id="hand",
    )


def head_on_pose(center, distance):
    """Camera looking straight down +z at the fruit center."""
    position = np.asarray(center, dtype=float) - [0.0, 0.0, distance]
    return RigidTransform(np.eye(3), position)


# ------------------------------------------------------------------ trajectory

class TestTrajectory:
    def test_forty_poses_per_side(self):
        traj = plan_trajectory(OrchardSpec())
        assert set(traj) == {"A", "B"}
        assert len(traj["A"]) == ARC_COUNT * POSES_PER_ARC == 40
        assert len(traj["B"]) == 40

    def test_four_arcs_of_ten_spaced_15mm(self):
        traj = plan_trajectory(OrchardSpec())
        xs = np.array([p.translation[0] for p in traj["A"]])
        arcs = np.unique(np.round(xs, 9))
        assert len(arcs) == 4
        assert np.allclose(np.diff(arcs), ARC_SPACING)
        for x in arcs:
            assert np.sum(np.isclose(xs, x)) == POSES_PER_ARC
        # arcs straddle the branch midpoint
        assert np.isclose(arcs.mean(), 0.45)

    def test_standoff_inside_band(self):
        for side, poses in plan_trajectory(OrchardSpec()).items():
            for pose in poses:
                dist_to_axis = float(np.hypot(pose.translation[1], pose.translation[2]))
                assert 0.30 <= dist_to_axis <= 0.40, (side, dist_to_axis)

    def test_cameras_face_the_canopy(self):
        # +z camera axis must aim back toward the canopy plane z=0
        traj = plan_trajectory(OrchardSpec())
        for side, sign in (("A", 1.0), ("B", -1.0)):
            for pose in traj[side]:
                forward = pose.rotation[:, 2]
                assert forward[2] * sign > 0.5

    def test_side_b_is_the_mirror_of_side_a(self):
        traj = plan_trajectory(OrchardSpec())
        flip_z = np.diag([1.0, 1.0, -1.0])
        flip_x = np.diag([-1.0, 1.0, 1.0])
        for pa, pb in zip(traj["A"], traj["B"]):
            assert np.allclose(pb.rotation, flip_z @ pa.rotation @ flip_x, atol=1e-12)
            assert np.allclose(pb.translation, flip_z @ pa.translation, atol=1e-12)

    def test_trajectory_follows_branch_length(self):
        xs = [p.translation[0] for p in plan_trajectory(OrchardSpec(branch_length=1.2))["A"]]
        assert np.isclose(np.mean(xs), 0.6)

    def test_deterministic(self):
        a = plan_trajectory(OrchardSpec())
        b = plan_trajectory(OrchardSpec())
        for pa, pb in zip(a["A"] + a["B"], b["A"] + b["B"]):
            assert np.array_equal(pa.matrix4(), pb.matrix4())


# ----------------------------------------------------------------- scene gen

class TestGenerateScene:
    def test_deterministic_per_seed(self):
        s1 = generate_scene(OrchardSpec(rng_seed=3))
        s2 = generate_scene(OrchardSpec(rng_seed=3))
        assert s1.fruitlets == s2.fruitlets
        assert s1.occluders == s2.occluders
        s3 = generate_scene(OrchardSpec(rng_seed=4))
        assert s3.fruitlets != s1.fruitlets

    def test_respects_separation_floor(self):
        spec = OrchardSpec(rng_seed=9, cluster_count=10, fruitlets_per_cluster=(2, 3))
        scene = generate_scene(spec)
        centers = np.array([f.center for f in scene.fruitlets])
        diams = np.array([f.diameter for f in scene.fruitlets])
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                gap = np.linalg.norm(centers[i] - centers[j])
                floor = max(spec.min_separation, (diams[i] + diams[j]) / 2)
                assert gap >= floor

    def test_fruit_count_within_cluster_budget(self):
        spec = OrchardSpec(rng_seed=1, cluster_count=5, fruitlets_per_cluster=(2, 3))
        scene = generate_scene(spec)
        assert 10 <= len(scene.fruitlets) <= 15
        assert [f.id for f in scene.fruitlets] == list(range(len(scene.fruitlets)))

    def test_occluder_prefix_stability(self):
        few = generate_scene(OrchardSpec(rng_seed=2, occluder_count=3))
        more = generate_scene(OrchardSpec(rng_seed=2, occluder_count=6))
        assert more.occluders[:3] == few.occluders
        # and the fruit layout is untouched by the occluder knob
        assert more.fruitlets == few.fruitlets

    def test_impossible_density_raises(self):
        spec = OrchardSpec(rng_seed=0, cluster_spread=0.0, fruitlets_per_cluster=(2, 2))
        with pytest.raises(SceneGenerationError):
            generate_scene(spec)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"branch_length": 0.0},
            {"cluster_count": 0},
            {"fruitlets_per_cluster": (0, 2)},
            {"fruitlets_per_cluster": (3, 2)},
            {"diameter_range": (0.001, 0.02)},   # below plausible fit band
            {"diameter_range": (0.01, 0.050)},   # above plausible fit band
            {"cluster_spread": -0.01},
            {"occluder_count": -1},
            {"occluder_size": 0.0},
            {"depth_noise_sigma": -1e-4},
            {"min_separation": 0.0},
            {"mask_dilate_px": -1},
            # NaN and bool pass every range comparison, so types are checked first
            {"depth_noise_sigma": float("nan")},
            {"branch_length": float("inf")},
            {"cluster_count": True},
            {"occluder_count": 2.0},
            {"rng_seed": "5"},
            {"rng_seed": -1},     # numpy seeds only from non-negative integers
            {"fruitlets_per_cluster": 3},
            {"fruitlets_per_cluster": (1, 2.5)},
            {"diameter_range": (0.01, float("nan"))},
            {"diameter_range": (0.01, 0.02, 0.03)},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            OrchardSpec(**kwargs)


# ----------------------------------------------------------------- rendering

class TestRenderFrame:
    def test_disc_footprint_and_center_depth(self):
        center, diameter, dist = (0.45, 0.03, 0.0), 0.020, 0.35
        scene = one_fruit_scene(center, diameter)
        pose = head_on_pose(center, dist)
        depth, masks = render_frame(scene, pose)
        r = diameter / 2
        n_px = int(np.sum(masks == 1))
        assert n_px > 0 and set(np.unique(masks)) == {0, 1}
        measured = np.sqrt(n_px / np.pi)
        fx = DEFAULT_INTRINSICS.fx
        assert fx * r / dist - 1 <= measured <= fx * r / (dist - r) + 1
        # the ray through the principal point hits the front pole
        cy, cx = int(DEFAULT_INTRINSICS.cy), int(DEFAULT_INTRINSICS.cx)
        assert masks[cy, cx] == 1
        assert abs(depth[cy, cx] - (dist - r)) < 1e-12

    def test_labeled_pixels_always_carry_depth(self, small_dataset):
        frame = small_dataset.frames["A"][0]
        labeled = frame.masks > 0
        assert labeled.any()
        assert np.isfinite(frame.depth[labeled]).all()

    def test_miss_pixels_are_nan(self):
        scene = one_fruit_scene()
        depth, masks = render_frame(scene, head_on_pose(scene.fruitlets[0].center, 0.35))
        assert np.isnan(depth[masks == 0]).all()

    def test_backprojected_surface_lies_on_the_sphere(self):
        center, diameter, dist = (0.45, 0.03, 0.0), 0.022, 0.33
        scene = one_fruit_scene(center, diameter)
        pose = head_on_pose(center, dist)
        depth, masks = render_frame(scene, pose)
        vs, us = np.nonzero(masks == 1)
        pts = backproject(DEFAULT_INTRINSICS, us, vs, depth[vs, us])
        dist_to_center = np.linalg.norm(
            pose.apply(pts) - np.asarray(center), axis=1
        )
        assert np.max(np.abs(dist_to_center - diameter / 2)) < 1e-9

    def test_occluder_blocks_and_leaves_no_label(self):
        center = (0.45, 0.03, 0.0)
        scene_plain = one_fruit_scene(center, 0.020)
        leaf = LeafOccluder(
            center=(0.45, 0.03, -0.1),
            axis_u=(1.0, 0.0, 0.0),
            axis_v=(0.0, 1.0, 0.0),
            half_size=0.05,
        )
        scene_blocked = one_fruit_scene(center, 0.020, occluders=(leaf,))
        pose = head_on_pose(center, 0.35)
        _, masks_plain = render_frame(scene_plain, pose)
        depth_blk, masks_blk = render_frame(scene_blocked, pose)
        assert np.sum(masks_blk == 1) == 0          # leaf fully covers the fruit
        assert np.sum(masks_plain == 1) > 0
        cy, cx = int(DEFAULT_INTRINSICS.cy), int(DEFAULT_INTRINSICS.cx)
        assert masks_blk[cy, cx] == 0
        assert abs(depth_blk[cy, cx] - 0.25) < 1e-9  # leaf plane, not the fruit

    def test_nearest_hit_wins_between_fruitlets(self):
        near = GroundTruthFruitlet(id=0, center=(0.45, 0.03, -0.05), diameter=0.02)
        far = GroundTruthFruitlet(id=1, center=(0.45, 0.03, 0.05), diameter=0.02)
        scene = Scene(
            fruitlets=(near, far),
            occluders=(),
            depth_noise_sigma=0.0,
            mask_dilate_px=0,
            rng_seed=0,
            dataset_id="hand",
        )
        pose = head_on_pose((0.45, 0.03, 0.0), 0.40)
        _, masks = render_frame(scene, pose)
        cy, cx = int(DEFAULT_INTRINSICS.cy), int(DEFAULT_INTRINSICS.cx)
        assert masks[cy, cx] == 1  # id 0 + 1, the nearer sphere

    def test_noise_is_seeded_and_reproducible(self):
        scene = one_fruit_scene()
        pose = head_on_pose(scene.fruitlets[0].center, 0.35)
        noisy = replace(scene, depth_noise_sigma=0.0011)
        d0, _ = render_frame(scene, pose)
        d1, m1 = render_frame(noisy, pose, rng_seed=10)
        d2, m2 = render_frame(noisy, pose, rng_seed=10)
        d3, _ = render_frame(noisy, pose, rng_seed=11)
        valid = np.isfinite(d0)
        assert np.array_equal(d1, d2, equal_nan=True)
        assert np.array_equal(m1, m2)
        assert not np.allclose(d1[valid], d0[valid])
        assert not np.array_equal(d1, d3, equal_nan=True)
        # noise never invents or destroys surface pixels
        assert np.array_equal(np.isfinite(d1), valid)

    def test_mask_dilation_claims_only_valid_unlabeled_pixels(self):
        center = (0.45, 0.03, 0.0)
        backdrop = LeafOccluder(
            center=(0.45, 0.03, 0.06),
            axis_u=(1.0, 0.0, 0.0),
            axis_v=(0.0, 1.0, 0.0),
            half_size=0.2,
        )
        scene = one_fruit_scene(center, 0.020, occluders=(backdrop,))
        pose = head_on_pose(center, 0.35)
        depth0, masks0 = render_frame(scene, pose)
        depth1, masks1 = render_frame(replace(scene, mask_dilate_px=2), pose)
        assert np.array_equal(depth0, depth1, equal_nan=True)
        grown = (masks1 == 1) & (masks0 == 0)
        assert grown.any()
        assert np.isfinite(depth1[grown]).all()
        assert (masks0[grown] == 0).all()
        # grown pixels sit on the backdrop, far behind the fruit surface
        assert np.min(depth1[grown]) > np.max(depth1[masks0 == 1])


def reference_render(scene, pose, rng_seed=0):
    """render_frame's ray cast done per pixel, with an (h, w, 3) direction array.

    Noise is added as render_frame adds it; masks are not dilated, so the
    scenes compared against it have mask_dilate_px 0.
    """
    to_camera = pose.inverse()
    shape = (DEFAULT_INTRINSICS.height, DEFAULT_INTRINSICS.width)
    depth = np.full(shape, np.inf)
    masks = np.zeros(shape, dtype=np.uint16)

    def ray_dirs(box):
        u0, u1, v0, v1 = box
        grid_u, grid_v = np.meshgrid(np.arange(u0, u1, dtype=float),
                                     np.arange(v0, v1, dtype=float))
        return np.stack([(grid_u - DEFAULT_INTRINSICS.cx) / DEFAULT_INTRINSICS.fx,
                         (grid_v - DEFAULT_INTRINSICS.cy) / DEFAULT_INTRINSICS.fy,
                         np.ones_like(grid_u)], axis=-1)

    def keep_nearest(box, hit, s, label):
        u0, u1, v0, v1 = box
        window_depth = depth[v0:v1, u0:u1]
        closer = hit & (s < window_depth)
        window_depth[closer] = s[closer]
        masks[v0:v1, u0:u1][closer] = label

    corner_signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    for fruit in scene.fruitlets:
        radius = fruit.diameter / 2.0
        center = to_camera.apply(np.asarray(fruit.center))
        box = _roi_from_points(center + radius * corner_signs, DEFAULT_INTRINSICS)
        if box is None:
            continue
        dirs = ray_dirs(box)
        dd = np.einsum("...k,...k->...", dirs, dirs)
        b = dirs @ center
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
        dirs = ray_dirs(box)
        normal = np.cross(axis_u, axis_v)
        denom = dirs @ normal
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (center @ normal) / denom
            points = s[..., None] * dirs - center
        hit = (
            (np.abs(denom) > 1e-12)
            & (s > NEAR_PLANE)
            & (np.abs(points @ axis_u) <= leaf.half_size)
            & (np.abs(points @ axis_v) <= leaf.half_size)
        )
        keep_nearest(box, hit, s, 0)

    valid = np.isfinite(depth)
    if scene.depth_noise_sigma > 0:
        rng = np.random.default_rng(rng_seed)
        depth[valid] += rng.normal(0.0, scene.depth_noise_sigma, size=int(valid.sum()))
    depth[~valid] = np.nan
    return depth, masks


OCCLUDED_SPEC = OrchardSpec(occluder_count=12, occluder_size=0.16, rng_seed=201)


class TestRenderOracle:
    @staticmethod
    def assert_same_render(scene, pose, rng_seed):
        depth, masks = render_frame(scene, pose, rng_seed)
        want_depth, want_masks = reference_render(scene, pose, rng_seed)
        assert masks.tobytes() == want_masks.tobytes()
        assert depth.astype(np.float32).tobytes() == want_depth.astype(np.float32).tobytes()
        np.testing.assert_allclose(depth, want_depth, rtol=1e-10, atol=0)
        return masks

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_occluded_scene(self, side):
        scene = generate_scene(OCCLUDED_SPEC)
        assert scene.mask_dilate_px == 0
        labelled = 0
        for index, pose in enumerate(plan_trajectory(OCCLUDED_SPEC)[side][::4]):
            labelled += int(np.count_nonzero(self.assert_same_render(scene, pose, index)))
        assert labelled > 0

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_leaf_straddling_the_near_plane(self, side):
        # The leaf lies in the camera-frame plane x = 0.01 and spans depths
        # 0.03-0.09 m, so its box falls back to the whole image, the near
        # plane cuts it, and the rays of column cx run parallel to it.
        pose = plan_trajectory(OCCLUDED_SPEC)[side][0]
        center, axis_u, axis_v = np.array([0.01, 0.0, 0.06]), np.eye(3)[2], np.eye(3)[1]
        corners = center + 0.03 * np.array(
            [su * axis_u + sv * axis_v for su in (-1, 1) for sv in (-1, 1)]
        )
        full = (0, DEFAULT_INTRINSICS.width, 0, DEFAULT_INTRINSICS.height)
        assert _roi_from_points(corners, DEFAULT_INTRINSICS) == full
        leaf = LeafOccluder(
            center=tuple(pose.apply(center)),
            axis_u=tuple(pose.rotation @ axis_u),
            axis_v=tuple(pose.rotation @ axis_v),
            half_size=0.03,
        )
        scene = generate_scene(OCCLUDED_SPEC)
        scene = replace(scene, occluders=scene.occluders + (leaf,))
        self.assert_same_render(scene, pose, 3)
        depth, _ = render_frame(scene, pose, 3)
        near = depth < 0.1
        assert near.any() and np.all(depth[near] > NEAR_PLANE - 0.01)


def reference_dilation(masks, valid, dilate_px):
    """The scipy.ndimage mask dilation: each id in turn, cross structure, border 0."""
    masks = masks.copy()
    claimable = valid & (masks == 0)
    for instance_id in np.unique(masks[masks > 0]):
        grown = ndimage.binary_dilation(masks == instance_id, iterations=dilate_px)
        take = grown & claimable
        masks[take] = instance_id
        claimable &= ~take
    return masks


class TestDilationOracle:
    @pytest.mark.parametrize("dilate_px", [1, 2, 3])
    def test_hand_built_labels(self, dilate_px):
        masks = np.zeros((12, 16), dtype=np.uint16)
        masks[0, 0] = 3                  # a frame corner
        masks[5:7, 14:16] = 5            # the right frame edge
        masks[4:8, 2:4] = 1              # 1 and 2 compete for the column between them
        masks[5:7, 5:7] = 2
        masks[11, 6:9] = 4               # the bottom edge
        valid = np.ones(masks.shape, dtype=bool)
        valid[3, :] = False              # a row nothing may claim
        valid[9:, 12:] = False
        want = reference_dilation(masks, valid, dilate_px)
        got = masks.copy()
        _dilate_labels(got, valid & (masks == 0), dilate_px)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.uint16
        # the contested column goes to the smaller id, which grows first
        assert got[5, 4] == got[6, 4] == 1

    def test_huge_dilate_px_stops_when_growth_stops(self):
        # Every pixel is within height + width steps of each label, so a
        # million passes must give, and cost, no more than that many.
        masks = np.zeros((12, 16), dtype=np.uint16)
        masks[4:8, 2:4] = 1
        masks[5:7, 5:7] = 2
        valid = np.ones(masks.shape, dtype=bool)
        valid[3, :] = False
        capped = masks.copy()
        _dilate_labels(capped, valid & (masks == 0), sum(masks.shape))
        got = masks.copy()
        start = time.perf_counter()
        _dilate_labels(got, valid & (masks == 0), 1_000_000)
        assert time.perf_counter() - start < 1.0
        np.testing.assert_array_equal(got, capped)
        np.testing.assert_array_equal(got, reference_dilation(masks, valid, 1_000_000))

    @pytest.mark.parametrize("dilate_px", [1, 2, 3])
    def test_rendered_frames(self, dilate_px):
        # Side B sees the leaves behind the fruit, so masks grow onto them.
        spec = OrchardSpec(cluster_count=3, occluder_count=12, occluder_size=0.16, rng_seed=5)
        scene = generate_scene(spec)
        dilated = replace(scene, mask_dilate_px=dilate_px)
        poses = plan_trajectory(spec)["B"][::4]
        grew = 0
        for pose in poses:
            depth, masks = render_frame(scene, pose)
            _, got = render_frame(dilated, pose)
            want = reference_dilation(masks, np.isfinite(depth), dilate_px)
            assert got.tobytes() == want.tobytes()
            grew += int((got != masks).sum())
        assert grew > 0


def test_huge_dilation_of_a_full_rendered_frame():
    # At a million pixels every label spans the frame; the cost must stay
    # that of one distance computation per label, near scipy's own.
    scene = generate_scene(OCCLUDED_SPEC)
    depth, masks = render_frame(scene, plan_trajectory(OCCLUDED_SPEC)["B"][0])
    assert masks.shape == (514, 616) and len(np.unique(masks)) > 3
    valid = np.isfinite(depth)
    start = time.perf_counter()
    want = reference_dilation(masks, valid, 1_000_000)
    reference_s = time.perf_counter() - start
    got = masks.copy()
    start = time.perf_counter()
    _dilate_labels(got, valid & (masks == 0), 1_000_000)
    assert time.perf_counter() - start < 5 * reference_s + 0.05
    assert got.tobytes() == want.tobytes()


# ------------------------------------------------------------- full datasets

class TestSimulateDataset:
    def test_shape_and_metadata(self, small_dataset):
        ds = small_dataset
        assert ds.sides == ("A", "B")
        assert len(ds.frames["A"]) == 40 and len(ds.frames["B"]) == 40
        frame = ds.frames["A"][0]
        assert frame.depth.dtype == np.float32
        assert frame.masks.dtype == np.uint16
        assert frame.intrinsics == DEFAULT_INTRINSICS
        assert ds.ground_truth is not None

    def test_every_fruitlet_visible_per_side_without_occluders(self, small_dataset):
        truth = small_dataset.ground_truth
        for side in ("A", "B"):
            counts = truth.visibility[side]
            assert set(counts) == {f.id for f in truth.fruitlets}
            assert all(c >= 1 for c in counts.values()), (side, counts)

    def test_occlusion_only_reduces_visibility(self):
        base = OrchardSpec(cluster_count=3, occluder_count=0, rng_seed=6)
        ds_clear = simulate_dataset(base)
        ds_leafy = simulate_dataset(replace(base, occluder_count=8))
        for side in ("A", "B"):
            clear = ds_clear.ground_truth.visibility[side]
            leafy = ds_leafy.ground_truth.visibility[side]
            assert set(clear) == set(leafy)
            assert all(leafy[i] <= clear[i] for i in clear)

    def test_bitwise_deterministic(self):
        a = simulate_dataset(SMALL_SPEC)
        b = simulate_dataset(SMALL_SPEC)
        for side in ("A", "B"):
            for fa, fb in zip(a.frames[side], b.frames[side]):
                assert fa.depth.tobytes() == fb.depth.tobytes()
                assert np.array_equal(fa.masks, fb.masks)
        assert a.dataset_id == b.dataset_id
        assert a.ground_truth.visibility == b.ground_truth.visibility

    def test_per_frame_noise_streams_differ(self, small_dataset):
        d0 = small_dataset.frames["A"][0].depth
        d1 = small_dataset.frames["A"][1].depth
        # different frames share no noise stream even where both see surface
        both = np.isfinite(d0) & np.isfinite(d1)
        if both.any():
            assert not np.array_equal(d0[both], d1[both])

    def test_fiducial_encodes_the_cross_side_relation(self, small_dataset):
        fid_a = RigidTransform.from_flat16(small_dataset.fiducials["A"])
        fid_b = RigidTransform.from_flat16(small_dataset.fiducials["B"])
        b_to_a = fid_a.compose(fid_b.inverse())
        to_b = SIDE_FROM_SCENE["B"]
        for fruit in small_dataset.ground_truth.fruitlets:
            c_scene = np.asarray(fruit.center)
            c_b = to_b.apply(c_scene)
            assert np.allclose(b_to_a.apply(c_b), c_scene, atol=1e-9)

    def test_extracted_clouds_sit_on_true_spheres(self, small_dataset):
        scene = generate_scene(SMALL_SPEC)
        by_id = {f.id: f for f in scene.fruitlets}
        checked = 0
        for side in ("A", "B"):
            to_side = SIDE_FROM_SCENE[side]
            frame = small_dataset.frames[side][5]
            for instance_id, cloud in extract_instance_clouds(frame):
                fruit = by_id[instance_id - 1]
                center_side = to_side.apply(np.asarray(fruit.center))
                dist = np.linalg.norm(cloud - center_side, axis=1)
                # sigma-quantized float32 depth, default noise 1.1 mm: 5 sigma
                assert np.all(np.abs(dist - fruit.diameter / 2) < 0.0056)
                checked += 1
        assert checked >= 2

    def test_noiseless_extraction_is_exact_to_float32(self):
        ds = simulate_dataset(replace(SMALL_SPEC, depth_noise_sigma=0.0))
        scene = generate_scene(replace(SMALL_SPEC, depth_noise_sigma=0.0))
        by_id = {f.id: f for f in scene.fruitlets}
        frame = ds.frames["A"][0]
        clouds = extract_instance_clouds(frame)
        assert clouds
        for instance_id, cloud in clouds:
            fruit = by_id[instance_id - 1]
            dist = np.linalg.norm(cloud - np.asarray(fruit.center), axis=1)
            assert np.max(np.abs(dist - fruit.diameter / 2)) < 1e-6


class TestExportDataset:
    def test_export_then_load_round_trips(self, tmp_path, small_dataset):
        scene = generate_scene(SMALL_SPEC)
        traj = plan_trajectory(SMALL_SPEC)
        ds = export_dataset(scene, traj, tmp_path / "scan")
        assert ds.frames == {}  # written frame by frame, never returned
        loaded = load_dataset(tmp_path / "scan")
        assert loaded.dataset_id == ds.dataset_id == small_dataset.dataset_id
        assert loaded.sides == ds.sides
        for side in ds.sides:
            assert len(loaded.frames[side]) == len(small_dataset.frames[side]) == 40
            for fa, fb in zip(small_dataset.frames[side], loaded.frames[side]):
                assert fa.depth.tobytes() == fb.depth.tobytes()
                assert np.array_equal(fa.masks, fb.masks)
                assert np.allclose(fa.pose.matrix4(), fb.pose.matrix4(), atol=0)
            assert loaded.fiducials[side] == ds.fiducials[side]
        truth = load_ground_truth(tmp_path / "scan" / "ground_truth.json")
        assert truth == ds.ground_truth == small_dataset.ground_truth

    def test_exported_tree_has_expected_layout(self, tmp_path):
        scene = generate_scene(SMALL_SPEC)
        traj = plan_trajectory(SMALL_SPEC)
        root = tmp_path / "scan"
        export_dataset(scene, traj, root)
        assert (root / "manifest.json").is_file()
        assert (root / "ground_truth.json").is_file()
        for side in ("A", "B"):
            base = root / "sides" / side
            assert (base / "fiducial.json").is_file()
            assert len(list((base / "frames").glob("*.json"))) == 40
            assert len(list((base / "depth").glob("*.f32"))) == 40
            assert len(list((base / "masks").glob("*.pgm"))) == 40


# Pinned to the installed numpy, like the map digests in test_mapping.py: every
# byte export_dataset writes (manifest with provenance, fiducials, frame JSON,
# depth and mask rasters, ground truth with its visibility counts) for a scene
# with depth noise, occluders and mask dilation. A change that alters dataset
# output on purpose updates it and says so in CHANGES.md.
GOLDEN_DATASET_DIGEST = "87a87f363372ec7ca15b642046ac476d7e6866a8ac3a47c11d62d176dc510450"


GOLDEN_SPEC = OrchardSpec(cluster_count=3, occluder_count=4, occluder_size=0.16,
                          mask_dilate_px=1, rng_seed=29)


def _export_golden_digest(root):
    """Export the golden scan (every 5th pose, 8 frames a side) to root; its digest."""
    trajectory = {side: poses[::5] for side, poses in plan_trajectory(GOLDEN_SPEC).items()}
    provenance = {"config_digest": "0" * 64, "seed": 29, "tool_version": "0.1.0"}
    export_dataset(generate_scene(GOLDEN_SPEC), trajectory, root, provenance)
    digest = hashlib.sha256()
    files = sorted(path for path in root.rglob("*") if path.is_file())
    for path in files:
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    assert len(files) == 4 + 2 * 3 * 8  # manifest, truth, fiducials; 8 frames per side
    return digest.hexdigest()


def test_golden_dataset_digest(tmp_path):
    assert _export_golden_digest(tmp_path / "scan") == GOLDEN_DATASET_DIGEST


@pytest.mark.parametrize("workers", [2, 1])
def test_golden_dataset_digest_whatever_the_process_count(tmp_path, pool_workers, workers):
    # Frames are rendered and written by forked workers, or in-process with one.
    pools = pool_workers(workers)
    assert _export_golden_digest(tmp_path / "scan") == GOLDEN_DATASET_DIGEST
    assert len(pools) == (1 if workers == 2 else 0)
    assert multiprocessing.active_children() == []


def test_export_over_a_longer_scan_removes_its_frames(tmp_path):
    # An 8-frame-per-side export into a directory holding a 40-frame scan
    # leaves no frame of the old scan behind: it loads as 8 frames per side,
    # with the bytes of a fresh export.
    root = tmp_path / "scan"
    export_dataset(generate_scene(SMALL_SPEC), plan_trajectory(SMALL_SPEC), root)
    assert len(load_dataset(root).frames["A"]) == 40
    assert _export_golden_digest(root) == GOLDEN_DATASET_DIGEST
    loaded = load_dataset(root)
    assert {side: len(frames) for side, frames in loaded.frames.items()} == {"A": 8, "B": 8}


def test_replaced_render_frame_sees_every_frame(tmp_path, pool_workers, monkeypatch):
    # A wrapper put in place of simulator.render_frame (a test double, a
    # profiler) records in its own process, so frames are rendered there.
    pools = pool_workers(2)
    render, calls = simulator.render_frame, []
    monkeypatch.setattr(simulator, "render_frame",
                        lambda scene, pose, rng_seed: (calls.append(rng_seed),
                                                       render(scene, pose, rng_seed))[1])
    assert _export_golden_digest(tmp_path / "scan") == GOLDEN_DATASET_DIGEST
    assert pools == []
    assert len(calls) == len(set(calls)) == 2 * 8
