"""Randomized invariant suites: transforms, projection, merging, matching.

Each suite runs a fixed number of seeded cases so the whole file is
deterministic. The runner functions are plain asserting loops, shared with
the acceptance checklist, which re-runs them at the required case counts.
"""

import numpy as np

from fruitmap.evaluation import match_fruitlets, precision_recall_f1
from fruitmap.geometry import (
    CameraIntrinsics,
    RigidTransform,
    backproject,
    project,
    rotation_about_axis,
)
from fruitmap.records import BranchMap, FruitletTrack, GroundTruth, GroundTruthFruitlet
from fruitmap.tracks import TrackStore, integrate_observation

CASES = 1000


def random_transform(rng: np.random.Generator) -> RigidTransform:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    rotation = rotation_about_axis(axis, rng.uniform(-np.pi, np.pi))
    return RigidTransform(rotation, rng.uniform(-2.0, 2.0, size=3))


def run_transform_round_trips(cases: int = CASES, seed: int = 1234) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        transform = random_transform(rng)
        points = rng.uniform(-3.0, 3.0, size=(5, 3))
        restored = transform.inverse().apply(transform.apply(points))
        assert np.allclose(restored, points, atol=1e-9)

        should_be_identity = transform.compose(transform.inverse()).matrix4()
        assert np.allclose(should_be_identity, np.eye(4), atol=1e-9)

        via_flat = RigidTransform.from_flat16(transform.flat16())
        assert np.array_equal(via_flat.matrix4(), transform.matrix4())
        via_matrix = RigidTransform.from_matrix4(transform.matrix4())
        assert np.array_equal(via_matrix.matrix4(), transform.matrix4())


def run_projection_round_trips(cases: int = CASES, seed: int = 5678) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        intr = CameraIntrinsics(
            fx=rng.uniform(200.0, 1500.0),
            fy=rng.uniform(200.0, 1500.0),
            cx=rng.uniform(100.0, 540.0),
            cy=rng.uniform(100.0, 380.0),
            width=640,
            height=480,
        )
        points = np.stack(
            [
                rng.uniform(-0.5, 0.5, size=8),
                rng.uniform(-0.5, 0.5, size=8),
                rng.uniform(0.1, 2.0, size=8),
            ],
            axis=1,
        )
        u, v = project(intr, points)
        restored = backproject(intr, u, v, points[:, 2])
        assert np.allclose(restored, points, atol=1e-9)


def run_merge_idempotence(cases: int = CASES, seed: int = 91011) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        radius = 0.010
        store = TrackStore()
        for _ in range(int(rng.integers(1, 8))):
            center = rng.uniform(0.0, 0.5, size=3)
            integrate_observation(store, center, rng.uniform(0.008, 0.025), radius)
        branch_map = store.build("A", {})
        victim = branch_map.tracks[int(rng.integers(0, len(branch_map.tracks)))]
        integrate_observation(store, victim.center, victim.diameter, radius)
        merged = store.build("A", {})
        # replaying a track's own state must not move it or spawn a twin
        assert len(merged.tracks) == len(branch_map.tracks)
        survivor = next(t for t in merged.tracks if t.id == victim.id)
        assert np.allclose(survivor.center, victim.center, atol=1e-12)
        assert abs(survivor.diameter - victim.diameter) < 1e-12
        assert survivor.observations == victim.observations + 1
        total_before = sum(t.observations for t in branch_map.tracks)
        assert sum(t.observations for t in merged.tracks) == total_before + 1


def run_matching_conservation(cases: int = CASES, seed: int = 121314) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n_tracks = int(rng.integers(0, 15))
        n_truth = int(rng.integers(0, 15))
        tolerance = float(rng.uniform(0.005, 0.1))
        tracks = tuple(
            FruitletTrack(
                id=i,
                center=tuple(rng.uniform(0.0, 0.4, size=3)),
                diameter=0.015,
                observations=1,
                sides=frozenset({"A"}),
            )
            for i in range(n_tracks)
        )
        truth = GroundTruth(
            fruitlets=tuple(
                GroundTruthFruitlet(
                    id=i, center=tuple(rng.uniform(0.0, 0.4, size=3)), diameter=0.015
                )
                for i in range(n_truth)
            ),
            visibility={},
        )
        result = match_fruitlets(BranchMap(frame_label="A", tracks=tracks), truth, tolerance)
        tp = len(result.pairs)
        fp = len(result.unmatched_tracks)
        fn = len(result.unmatched_truth)
        assert tp + fp == n_tracks
        assert tp + fn == n_truth
        assert all(d <= tolerance for _, _, d in result.pairs)
        precision, recall, f1 = precision_recall_f1(tp, fp, fn)
        if precision + recall > 0:
            assert abs(f1 - 2 * precision * recall / (precision + recall)) < 1e-12
        else:
            assert f1 == 0.0


def test_transform_round_trips():
    run_transform_round_trips()


def test_projection_round_trips():
    run_projection_round_trips()


def test_merge_idempotence():
    run_merge_idempotence()


def test_matching_conservation():
    run_matching_conservation()
