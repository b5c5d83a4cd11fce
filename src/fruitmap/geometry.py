"""Camera models, stereo depth relations, and rigid transforms.

Conventions used across the package:

  * Camera frame: +z forward (optical axis), +x right, +y down. A pixel (u, v)
    at depth z backprojects to ((u - cx) * z / fx, (v - cy) * z / fy, z).
  * Poses are camera-to-world: applying a frame's pose to a camera-frame point
    yields the point in that side's world frame.
  * All lengths are meters, all pixel coordinates are floats, points are numpy
    arrays with the last axis of size 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_types

__all__ = [
    "CameraIntrinsics",
    "StereoRig",
    "RigidTransform",
    "depth_resolution",
    "project",
    "backproject",
    "rotation_about_axis",
]

_ORTHONORMAL_TOL = 1e-9


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        check_types(self)
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image size must be positive, got {self.width}x{self.height}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside image {self.width}x{self.height}"
            )


@dataclass(frozen=True)
class StereoRig:
    """A rectified stereo pair: shared intrinsics plus baseline in meters."""

    intrinsics: CameraIntrinsics
    baseline: float

    def __post_init__(self) -> None:
        wrong = ([] if isinstance(self.intrinsics, CameraIntrinsics)
                 else [f"intrinsics must be CameraIntrinsics, got {self.intrinsics!r}"])
        check_types(self, also=wrong)
        if self.baseline <= 0:
            raise ValueError(f"baseline must be positive, got {self.baseline}")


def depth_resolution(rig: StereoRig, depth: float | np.ndarray) -> float | np.ndarray:
    """Depth change per one-pixel disparity step at the given depth.

    dz/dd = -fx*b/d^2 and d = fx*b/z, so a one-pixel step spans z^2 / (fx * b).
    """
    depth = np.asarray(depth, dtype=float)
    if np.any(depth <= 0):
        raise ValueError("depth must be positive")
    out = depth * depth / (rig.intrinsics.fx * rig.baseline)
    return float(out) if out.ndim == 0 else out


def backproject(
    intrinsics: CameraIntrinsics,
    u: np.ndarray | float,
    v: np.ndarray | float,
    depth: np.ndarray | float,
) -> np.ndarray:
    """Pixels plus depth to camera-frame points, shape (..., 3)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    z = np.asarray(depth, dtype=float)
    if np.any(z <= 0) or not np.all(np.isfinite(z)):
        raise ValueError("depth must be finite and positive")
    x = (u - intrinsics.cx) * z / intrinsics.fx
    y = (v - intrinsics.cy) * z / intrinsics.fy
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def project(intrinsics: CameraIntrinsics, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Camera-frame points to pixel coordinates (u, v). Requires z > 0."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != 3:
        raise ValueError(f"points must have a trailing axis of 3, got shape {pts.shape}")
    z = pts[..., 2]
    if np.any(z <= 0):
        raise ValueError("cannot project points at or behind the camera plane (z <= 0)")
    u = intrinsics.fx * pts[..., 0] / z + intrinsics.cx
    v = intrinsics.fy * pts[..., 1] / z + intrinsics.cy
    return u, v


class RigidTransform:
    """Proper rigid motion: rotation (orthonormal, det +1) plus translation."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: np.ndarray, translation: np.ndarray):
        R = np.array(rotation, dtype=float)
        t = np.array(translation, dtype=float).reshape(3)
        if R.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got shape {R.shape}")
        if not np.allclose(R.T @ R, np.eye(3), atol=_ORTHONORMAL_TOL):
            raise ValueError("rotation is not orthonormal within 1e-9")
        if np.linalg.det(R) < 0:
            raise ValueError("rotation has negative determinant (reflection, not a rotation)")
        R.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    def __setattr__(self, name, value):  # immutable by construction
        raise AttributeError("RigidTransform is immutable")

    def __reduce__(self):
        # The default reduce sets slots through the blocked __setattr__; rebuild
        # through __init__ instead, which also re-runs the rotation checks.
        return (type(self), (self.rotation, self.translation))

    def __repr__(self) -> str:
        return f"RigidTransform(rotation={self.rotation.tolist()}, translation={self.translation.tolist()})"

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform points of shape (..., 3)."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != 3:
            raise ValueError(f"points must have a trailing axis of 3, got shape {pts.shape}")
        return pts @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: (self.compose(other)).apply(p) == self.apply(other.apply(p))."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        Rt = self.rotation.T
        return RigidTransform(Rt, -(Rt @ self.translation))

    def matrix4(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def flat16(self) -> list[float]:
        """Row-major 16-element list, the on-disk pose encoding."""
        return [float(x) for x in self.matrix4().reshape(16)]

    @classmethod
    def from_matrix4(cls, m: np.ndarray) -> "RigidTransform":
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.allclose(m[3], [0.0, 0.0, 0.0, 1.0], atol=1e-12):
            raise ValueError(f"bottom row must be [0, 0, 0, 1], got {m[3].tolist()}")
        return cls(m[:3, :3], m[:3, 3])

    @classmethod
    def from_flat16(cls, values) -> "RigidTransform":
        arr = np.asarray(list(values), dtype=float)
        if arr.shape != (16,):
            raise ValueError(f"expected 16 values, got {arr.shape}")
        return cls.from_matrix4(arr.reshape(4, 4))


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation matrix for a right-handed rotation of `angle` radians about `axis`."""
    a = np.asarray(axis, dtype=float).reshape(3)
    norm = np.linalg.norm(a)
    if norm == 0:
        raise ValueError("rotation axis must be nonzero")
    x, y, z = a / norm
    c, s = np.cos(angle), np.sin(angle)
    C = 1.0 - c
    return np.array(
        [
            [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
            [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
            [z * x * C - y * s, z * y * C + x * s, c + z * z * C],
        ]
    )
