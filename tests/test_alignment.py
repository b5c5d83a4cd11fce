"""Fiducial-based cross-side registration and map merging."""

import numpy as np
import pytest

from fruitmap.alignment import cross_side_transform, merge_maps, transform_map
from fruitmap.geometry import RigidTransform, rotation_about_axis
from fruitmap.mapping import (
    CROSS_SIDE_RADIUS,
    BranchMap,
    FruitletTrack,
    MergeConfig,
    TrackStore,
    integrate_observation,
)


def track(i, center, d=0.01, n=1, sides=("A",)):
    return FruitletTrack(i, center, d, observations=n, sides=frozenset(sides))


class TestCrossSideTransform:
    def test_identity_pair(self):
        t = cross_side_transform(RigidTransform.identity(), RigidTransform.identity())
        np.testing.assert_allclose(t.matrix4(), np.eye(4), atol=1e-15)

    def test_pure_translation(self):
        # fiducial at (0,0,0.5) in B, at origin in A: B origin lands at (0,0,-0.5)
        pose_b = RigidTransform(np.eye(3), [0.0, 0.0, 0.5])
        t = cross_side_transform(RigidTransform.identity(), pose_b)
        np.testing.assert_allclose(t.apply(np.zeros(3)), [0.0, 0.0, -0.5], atol=1e-15)

    def test_fiducial_point_consistency(self):
        # a point given in the fiducial frame reaches identical side-A
        # coordinates directly or via side B plus the cross transform
        rng = np.random.default_rng(5)
        for _ in range(50):
            rot_a = rotation_about_axis(rng.normal(size=3), rng.uniform(-3, 3))
            rot_b = rotation_about_axis(rng.normal(size=3), rng.uniform(-3, 3))
            pose_a = RigidTransform(rot_a, rng.uniform(-1, 1, 3))
            pose_b = RigidTransform(rot_b, rng.uniform(-1, 1, 3))
            t = cross_side_transform(pose_a, pose_b)
            p_fid = rng.uniform(-0.5, 0.5, 3)
            via_a = pose_a.apply(p_fid)
            via_b = t.apply(pose_b.apply(p_fid))
            np.testing.assert_allclose(via_b, via_a, atol=1e-9)


class TestTransformMap:
    def test_centers_move_diameters_do_not(self):
        m = BranchMap("B", tracks=(track(0, (0.0, 0.0, 0.4), d=0.013, sides=("B",)),))
        t = RigidTransform(rotation_about_axis([0, 0, 1], np.pi / 2), [1.0, 0.0, 0.0])
        out = transform_map(m, t, frame_label="A")
        assert out.frame_label == "A"
        np.testing.assert_allclose(out.tracks[0].center, (1.0, 0.0, 0.4), atol=1e-12)
        assert out.tracks[0].diameter == 0.013
        assert out.tracks[0].observations == 1
        assert out.tracks[0].sides == frozenset({"B"})

    def test_empty_map(self):
        out = transform_map(BranchMap("B", provenance={"seed": 3}),
                            RigidTransform.identity(), "A")
        assert out == BranchMap("A", provenance={"seed": 3})


class TestMergeMaps:
    def make_a(self, centers):
        store = TrackStore()
        for c in centers:
            integrate_observation(store, c, 0.01, MergeConfig(), sides=("A",))
        return store.build("A", {})

    def make_b_in_a(self, centers, n=1):
        tracks = tuple(track(i, c, n=n, sides=("B",)) for i, c in enumerate(centers))
        return BranchMap("A", tracks=tracks)

    def test_empty_b_is_identity_on_tracks(self):
        a = self.make_a([(0.0, 0.0, 0.4), (0.1, 0.0, 0.4)])
        out = merge_maps(a, BranchMap("A"))
        assert out.frame_label == "merged"
        assert out.tracks == a.tracks

    def test_same_fruitlets_union_sides(self):
        # five true fruitlets seen by both sides within 5mm: five tracks, A+B
        centers = [(0.05 * i, 0.0, 0.4) for i in range(5)]
        a = self.make_a(centers)
        b = self.make_b_in_a([(x, 0.004, z) for x, _, z in centers], n=3)
        out = merge_maps(a, b)
        assert len(out.tracks) == 5
        for t in out.tracks:
            assert t.sides == frozenset({"A", "B"})
            assert t.observations == 4

    def test_misaligned_b_duplicates(self):
        # 30mm offset exceeds the 20mm cross radius: every B track duplicates
        centers = [(0.08 * i, 0.0, 0.4) for i in range(5)]
        a = self.make_a(centers)
        b = self.make_b_in_a([(x, 0.030, z) for x, _, z in centers])
        out = merge_maps(a, b)
        assert len(out.tracks) == 10

    def test_frame_label_mismatch(self):
        a = self.make_a([(0.0, 0.0, 0.4)])
        b = BranchMap("B", tracks=(track(0, (0.0, 0.0, 0.4), sides=("B",)),))
        with pytest.raises(ValueError, match="frame label"):
            merge_maps(a, b)

    def test_ids_reassigned_densely(self):
        a = self.make_a([(0.0, 0.0, 0.4)])
        b = self.make_b_in_a([(0.2, 0.0, 0.4), (0.4, 0.0, 0.4)])
        out = merge_maps(a, b)
        assert [t.id for t in out.tracks] == [0, 1, 2]

    def test_weighted_merge_uses_counts(self):
        a = self.make_a([(0.0, 0.0, 0.4)])
        b = self.make_b_in_a([(0.010, 0.0, 0.4)], n=9)
        out = merge_maps(a, b)
        assert out.tracks[0].center[0] == pytest.approx(0.009)
        assert out.tracks[0].observations == 10

    def test_stray_fit_seen_once_barely_moves_a_heavy_track(self):
        # A side-A track seen 40 times at 10 mm meets a side-B track seen once
        # at 37.7 mm inside the cross-side radius: B counts as one sighting of 41.
        a = BranchMap("A", tracks=(track(0, (0.0, 0.0, 0.4), d=0.010, n=40),))
        b = BranchMap("A", tracks=(track(0, (0.015, 0.0, 0.4), d=0.0377, sides=("B",)),))
        assert 0.015 <= CROSS_SIDE_RADIUS
        (merged,) = merge_maps(a, b).tracks
        assert merged.diameter == pytest.approx((40 * 0.010 + 0.0377) / 41, abs=1e-15)
        assert merged.center[0] == pytest.approx(0.015 / 41, abs=1e-15)
        assert merged.observations == 41
        assert merged.sides == frozenset({"A", "B"})

    def test_count_bounds(self):
        rng = np.random.default_rng(2)
        a = self.make_a([tuple(p) for p in rng.uniform(-0.1, 0.1, size=(8, 3))])
        b_centers = [tuple(p) for p in rng.uniform(-0.1, 0.1, size=(6, 3))]
        b = self.make_b_in_a(b_centers)
        out = merge_maps(a, b)
        assert len(out.tracks) <= len(a.tracks) + len(b.tracks)
        assert sum(t.observations for t in out.tracks) == (
            sum(t.observations for t in a.tracks)
            + sum(t.observations for t in b.tracks)
        )
