"""Stereo depth relations, projection round trips, and rigid transform algebra."""

import copy
import pickle

import numpy as np
import pytest

from fruitmap._checks import check_pose, from_doc
from fruitmap.geometry import (
    CameraIntrinsics,
    RigidTransform,
    StereoRig,
    backproject,
    depth_resolution,
    project,
    rotation_about_axis,
)


def reference_rig() -> StereoRig:
    # Full-resolution survey camera: fx back-computed from z=0.4 m at 362 px
    # disparity over a 0.1 m baseline (362 * 0.4 / 0.1 = 1448).
    intr = CameraIntrinsics(fx=1448.0, fy=1448.0, cx=1232.0, cy=1028.0, width=2464, height=2056)
    return StereoRig(intrinsics=intr, baseline=0.1)


class TestStereoDepth:
    def test_resolution_at_working_distance(self):
        # 0.4^2 / (1448*0.1) = 0.16/144.8 = 1.1050 mm
        res = depth_resolution(reference_rig(), 0.4)
        assert res == pytest.approx(0.0011050, abs=1e-7)

    def test_resolution_far_end(self):
        # 0.6^2 / 144.8 = 2.4862 mm
        res = depth_resolution(reference_rig(), 0.6)
        assert res == pytest.approx(0.0024862, abs=1e-7)

    def test_resolution_identity(self):
        # depth_resolution * fx * b == z^2 by definition
        rig = reference_rig()
        z = np.linspace(0.3, 0.6, 64)
        res = depth_resolution(rig, z)
        np.testing.assert_allclose(res * rig.intrinsics.fx * rig.baseline, z * z, rtol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            depth_resolution(reference_rig(), -0.1)


class TestProjection:
    def test_backproject_hand_value(self):
        # u offset of 144.8 px at z=0.4: x = 144.8*0.4/1448 = 0.04
        intr = reference_rig().intrinsics
        p = backproject(intr, 1376.8, 1028.0, 0.4)
        np.testing.assert_allclose(p, [0.04, 0.0, 0.4], atol=1e-12)

    def test_principal_point_maps_to_axis(self):
        intr = reference_rig().intrinsics
        p = backproject(intr, intr.cx, intr.cy, 1.0)
        np.testing.assert_allclose(p, [0.0, 0.0, 1.0], atol=0)

    def test_round_trip_random_pixels(self):
        intr = reference_rig().intrinsics
        rng = np.random.default_rng(7)
        n = 2000
        u = rng.uniform(0, intr.width, n)
        v = rng.uniform(0, intr.height, n)
        z = rng.uniform(0.3, 0.6, n)
        pts = backproject(intr, u, v, z)
        u2, v2 = project(intr, pts)
        np.testing.assert_allclose(u2, u, atol=1e-9)
        np.testing.assert_allclose(v2, v, atol=1e-9)

    def test_project_rejects_nonpositive_depth(self):
        intr = reference_rig().intrinsics
        with pytest.raises(ValueError):
            project(intr, np.array([0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            project(intr, np.array([0.0, 0.0, -0.2]))

    def test_backproject_rejects_invalid_depth(self):
        intr = reference_rig().intrinsics
        with pytest.raises(ValueError):
            backproject(intr, 10.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            backproject(intr, 10.0, 10.0, np.nan)

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=-1.0, fy=1.0, cx=0.0, cy=0.0, width=10, height=10)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=1.0, fy=1.0, cx=99.0, cy=0.0, width=10, height=10)
        good = {"fx": 362.0, "fy": 362.0, "cx": 308.0, "cy": 257.0, "width": 616, "height": 514}
        assert from_doc(CameraIntrinsics, good) == CameraIntrinsics(**good)
        for edit, name in [({"fx": "362"}, "fx"), ({"cy": float("nan")}, "cy"),
                           ({"width": 616.9}, "width"), ({"height": True}, "height")]:
            with pytest.raises(ValueError, match=name):
                from_doc(CameraIntrinsics, {**good, **edit})
        with pytest.raises(ValueError, match="object"):
            from_doc(CameraIntrinsics, [362.0] * 6)


class TestRigidTransform:
    def test_apply_hand_value(self):
        # 90 degrees about z sends (1,0,0) to (0,1,0); translation adds (1,0,0).
        T = RigidTransform(rotation_about_axis([0, 0, 1], np.pi / 2), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(T.apply([1.0, 0.0, 0.0]), [1.0, 1.0, 0.0], atol=1e-12)

    def test_compose_then_apply(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            R1 = rotation_about_axis(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
            R2 = rotation_about_axis(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
            T1 = RigidTransform(R1, rng.normal(size=3))
            T2 = RigidTransform(R2, rng.normal(size=3))
            p = rng.normal(size=(8, 3))
            np.testing.assert_allclose(
                T1.compose(T2).apply(p), T1.apply(T2.apply(p)), atol=1e-12
            )

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            T = RigidTransform(
                rotation_about_axis(rng.normal(size=3), rng.uniform(-np.pi, np.pi)),
                rng.normal(size=3),
            )
            ident = T.compose(T.inverse())
            np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-9)
            np.testing.assert_allclose(ident.translation, np.zeros(3), atol=1e-9)

    def test_distances_preserved(self):
        rng = np.random.default_rng(9)
        T = RigidTransform(rotation_about_axis([1, 2, 3], 0.7), [0.2, -0.1, 0.4])
        a = rng.normal(size=(100, 3))
        b = rng.normal(size=(100, 3))
        d0 = np.linalg.norm(a - b, axis=1)
        d1 = np.linalg.norm(T.apply(a) - T.apply(b), axis=1)
        np.testing.assert_allclose(d1, d0, atol=1e-9)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_check_pose_is_the_numpy_rule(self):
        # check_pose, in plain Python, accepts exactly the poses that numpy's
        # np.allclose tests accept: random rotations with every entry moved
        # by noise of each scale around the 1e-12 and 1e-9 bounds and the
        # 1e-5 relative one, and reflections among them.
        def numpy_rule(m):
            R = m[:3, :3]
            return bool(np.allclose(m[3], [0.0, 0.0, 0.0, 1.0], atol=1e-12)
                        and np.allclose(R.T @ R, np.eye(3), atol=1e-9)
                        and np.linalg.det(R) >= 0)

        def rule(m):
            try:
                check_pose(m.reshape(16).tolist())
            except ValueError:
                return False
            return True

        rng = np.random.default_rng(8)
        verdicts = []
        for scale in (1e-14, 1e-12, 1e-11, 1e-10, 1e-9, 3e-9, 1e-8, 1e-6, 3e-6, 1e-5, 1e-4):
            for case in range(60):
                m = RigidTransform(rotation_about_axis(rng.normal(size=3), rng.uniform(-3, 3)),
                                   rng.uniform(-1, 1, 3)).matrix4()
                if case % 5 == 0:
                    m[:3, 0] *= -1  # a reflection
                if case % 3 == 0:  # every entry
                    m += rng.normal(scale=scale, size=(4, 4)) * (rng.uniform(size=(4, 4)) < 0.5)
                elif case % 3 == 1:  # a column of R stretched: R^T R's diagonal moves
                    m[:3, rng.integers(3)] *= 1 + rng.normal(scale=scale)
                else:  # the bottom row
                    m[3] += rng.normal(scale=scale, size=4)
                assert rule(m) == numpy_rule(m), (scale, m.tolist())
                verdicts.append(rule(m))
        assert 0.2 < np.mean(verdicts) < 0.8

    def test_matrix4_round_trip(self):
        T = RigidTransform(rotation_about_axis([0, 1, 0], 0.3), [1.0, 2.0, 3.0])
        T2 = RigidTransform.from_flat16(T.flat16())
        np.testing.assert_allclose(T2.rotation, T.rotation, atol=1e-15)
        np.testing.assert_allclose(T2.translation, T.translation, atol=1e-15)

    def test_immutability(self):
        T = RigidTransform.identity()
        with pytest.raises(AttributeError):
            T.translation = np.ones(3)
        with pytest.raises((ValueError, RuntimeError)):
            T.rotation[0, 0] = 5.0

    @pytest.mark.parametrize(
        "clone",
        [lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_copy_and_pickle_round_trip(self, clone):
        T = RigidTransform(rotation_about_axis([1, 2, 3], 0.7), [0.1, -0.2, 0.3])
        T2 = clone(T)
        assert type(T2) is RigidTransform
        assert np.array_equal(T2.rotation, T.rotation)
        assert np.array_equal(T2.translation, T.translation)
        with pytest.raises(AttributeError):
            T2.translation = np.ones(3)
        with pytest.raises((ValueError, RuntimeError)):
            T2.rotation[0, 0] = 5.0
