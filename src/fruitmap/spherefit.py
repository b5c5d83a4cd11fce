"""Robust sphere fitting for single-fruitlet point clouds.

The fit runs in two stages. A coarse seed comes from the cloud itself (centroid
plus twice the mean center distance). RANSAC then draws 4-point minimal samples,
solves each exactly through the linearized sphere equation, and scores inliers
with a three-clause predicate:

  1. surface band:   | ||p - c|| - r | <= inlier_tolerance
  2. not outside:    ||p - c|| <= r + inlier_tolerance
  3. depth window:   p.z <= min_cloud_z + min(2r, d_max)   (background_reject)
                     p.z >= min_cloud_z                    (literal, vacuous)

`_inlier_mask` is the predicate's one implementation: it scores all hypotheses
in one batch, and the refined sphere as a batch of one.

Clause 3 exists because instance masks bleed onto whatever sits behind the
fruitlet; those pixels land a leaf-or-trunk distance deeper than the fruit
surface and would otherwise drag the fit backwards. The window is capped at the
plausibility bound d_max so that an inflated hypothesis cannot vote its own
background points in. The best hypothesis is refined once by linear least
squares over its inliers, then polished by an orthogonal-distance fit on the
same inliers, and inliers are re-evaluated once against the refined sphere.

The orthogonal-distance stage matters: the linearized solve minimizes an
algebraic residual that shrinks the radius on partial caps under depth noise
(several percent at fruitlet scale), while the geometric minimum is unbiased
to first order. The linear solution only serves as its starting point.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

__all__ = [
    "SphereModel",
    "FitConfig",
    "FitReport",
    "DegenerateSampleError",
    "InsufficientPointsError",
    "downsample_points",
    "initial_estimate",
    "fit_sphere_exact",
    "ransac_sphere_fit",
    "derive_observation_seed",
]

log = logging.getLogger(__name__)


class DegenerateSampleError(ValueError):
    """Raised when a minimal sample does not determine a sphere (coplanar or coincident)."""


class InsufficientPointsError(ValueError):
    """Raised when a cloud has too few points for the requested operation."""


@dataclass(frozen=True)
class SphereModel:
    """A fitted sphere: center in the cloud's frame (meters) and diameter (meters)."""

    center: tuple[float, float, float]
    diameter: float

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.center)) or not np.isfinite(self.diameter):
            raise ValueError("sphere parameters must be finite")
        if self.diameter <= 0:
            raise ValueError(f"diameter must be positive, got {self.diameter}")

    @property
    def radius(self) -> float:
        return self.diameter / 2.0

    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)


@dataclass(frozen=True)
class FitConfig:
    max_points: int = 500          # cloud threshold before fitting
    ransac_iterations: int = 200
    inlier_tolerance: float = 0.002      # allowed surface deviation, m
    min_inlier_fraction: float = 0.3     # acceptance floor
    d_min: float = 0.004                 # plausible diameter band, m
    d_max: float = 0.040
    z_rule: str = "background_reject"    # or "literal"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_points", "ransac_iterations", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("inlier_tolerance", "min_inlier_fraction", "d_min", "d_max"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
            ):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.max_points < 4:
            raise ValueError("max_points must be at least 4")
        if self.ransac_iterations < 1:
            raise ValueError("ransac_iterations must be positive")
        if self.inlier_tolerance <= 0:
            raise ValueError("inlier_tolerance must be positive")
        if not (0 < self.min_inlier_fraction <= 1):
            raise ValueError("min_inlier_fraction must be in (0, 1]")
        if not (0 < self.d_min < self.d_max):
            raise ValueError(f"need 0 < d_min < d_max, got [{self.d_min}, {self.d_max}]")
        if self.z_rule not in ("literal", "background_reject"):
            raise ValueError(f"unknown z_rule {self.z_rule!r}")


@dataclass(frozen=True)
class FitReport:
    model: SphereModel
    inlier_count: int
    iterations_used: int
    accepted: bool
    mean_abs_residual: float = field(default=float("nan"))


def _as_cloud(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"cloud must have shape (n, 3), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("cloud contains non-finite coordinates")
    return pts


def downsample_points(points: np.ndarray, max_points: int, rng_seed: int) -> np.ndarray:
    """Uniform sample without replacement, original ordering kept. No-op if small enough."""
    pts = _as_cloud(points)
    if max_points < 1:
        raise ValueError("max_points must be positive")
    if len(pts) <= max_points:
        return pts
    rng = np.random.default_rng(rng_seed)
    idx = np.sort(rng.choice(len(pts), size=max_points, replace=False))
    return pts[idx]


def initial_estimate(points: np.ndarray) -> SphereModel:
    """Coarse seed: centroid center, diameter twice the mean distance to it.

    On a full sphere surface the mean center distance is exactly r, so the
    estimate is unbiased there; on a partial cap it underestimates, which is
    why this only seeds the search.
    """
    pts = _as_cloud(points)
    if len(pts) < 4:
        raise InsufficientPointsError(f"need at least 4 points, got {len(pts)}")
    center = pts.mean(axis=0)
    mean_dist = float(np.linalg.norm(pts - center, axis=1).mean())
    if mean_dist < 1e-12:  # below any physical spread; summation residue otherwise
        raise DegenerateSampleError("all points coincide; sphere is undefined")
    return SphereModel(center=tuple(center), diameter=2.0 * mean_dist)


def _solve_sphere(pts: np.ndarray, exact: bool) -> tuple[np.ndarray, float]:
    """Sphere through points via |p|^2 = 2 c.p + (r^2 - |c|^2), exact or least squares."""
    A = np.concatenate([2.0 * pts, np.ones((len(pts), 1))], axis=1)
    b = np.sum(pts * pts, axis=1)
    if exact:
        try:
            sol = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise DegenerateSampleError(f"minimal sample is degenerate: {exc}") from exc
    else:
        sol, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        if rank < 4:
            raise DegenerateSampleError("point set is rank deficient; sphere is undetermined")
    center = sol[:3]
    r_sq = sol[3] + center @ center
    if not np.isfinite(r_sq) or r_sq <= 0 or not np.all(np.isfinite(center)):
        raise DegenerateSampleError("solution does not describe a real sphere")
    return center, float(np.sqrt(r_sq))


def fit_sphere_exact(points: np.ndarray) -> SphereModel:
    """Sphere through exactly 4 points. Raises DegenerateSampleError if coplanar."""
    pts = _as_cloud(points)
    if len(pts) != 4:
        raise ValueError(f"exact fit takes exactly 4 points, got {len(pts)}")
    center, r = _solve_sphere(pts, exact=True)
    # Guard against numerically absurd spheres from near-coplanar samples.
    if not np.isfinite(r) or r > 1e6:
        raise DegenerateSampleError("near-coplanar sample produced an unbounded sphere")
    return SphereModel(center=tuple(center), diameter=2.0 * r)


def _geometric_refine(
    pts: np.ndarray, center: np.ndarray, radius: float
) -> tuple[np.ndarray, float]:
    """Minimize the true surface distances sum(||p - c|| - r)^2 from a linear start."""

    def residuals(x: np.ndarray) -> np.ndarray:
        return np.linalg.norm(pts - x[:3], axis=1) - x[3]

    def jacobian(x: np.ndarray) -> np.ndarray:
        diff = pts - x[:3]
        dist = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
        out = np.empty((len(pts), 4))
        out[:, :3] = -diff / dist[:, None]
        out[:, 3] = -1.0
        return out

    result = least_squares(
        residuals,
        np.array([*center, radius], dtype=float),
        jac=jacobian,
        method="lm",
        xtol=1e-12,
        ftol=1e-12,
        gtol=1e-12,
        max_nfev=100,
    )
    refined_center = result.x[:3]
    refined_radius = float(result.x[3])
    if not (
        np.all(np.isfinite(refined_center))
        and np.isfinite(refined_radius)
        and refined_radius > 0
    ):
        raise DegenerateSampleError("orthogonal-distance refinement diverged")
    return refined_center, refined_radius


def _inlier_mask(
    pts: np.ndarray,
    centers: np.ndarray,
    radii: np.ndarray,
    min_cloud_z: float,
    cfg: FitConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """The three-clause inlier predicate for k hypotheses at once.

    pts is (n, 3), centers (k, 3) and radii (k,). Returns the (k, n) inlier
    mask and the (k, n) absolute surface residuals.
    """
    dx, dy, dz = (pts[:, j] - centers[:, j, None] for j in range(3))
    # Summed as (x^2 + y^2) + z^2, the order np.linalg.norm(..., axis=-1) uses,
    # so distances are bit-equal to it; x^2 + (y^2 + z^2) would not be.
    dist = np.sqrt((dx * dx + dy * dy) + dz * dz)
    r = radii[:, None]
    resid = np.abs(dist - r)
    mask = resid <= cfg.inlier_tolerance
    mask &= dist <= r + cfg.inlier_tolerance
    if cfg.z_rule == "background_reject":
        mask &= pts[:, 2] <= min_cloud_z + np.minimum(2.0 * r, cfg.d_max)
    else:  # literal reading: nothing sits below the cloud minimum, so this keeps all
        mask &= pts[:, 2] >= min_cloud_z
    return mask, resid


def ransac_sphere_fit(points: np.ndarray, config: FitConfig) -> FitReport:
    """Seeded, deterministic RANSAC sphere fit over an already-thresholded cloud.

    Callers are expected to have applied downsample_points; the cloud given here
    is scored in full. The report's model is the refined best hypothesis (linear
    solve, then orthogonal-distance polish, over its inliers), and `accepted`
    reflects the inlier-fraction floor and the plausible-diameter band.
    """
    pts = _as_cloud(points)
    n = len(pts)
    if n < 4:
        raise InsufficientPointsError(f"need at least 4 points after thresholding, got {n}")
    rng = np.random.default_rng(config.rng_seed)
    min_cloud_z = float(pts[:, 2].min())

    centers = [np.full(3, np.nan)]
    radii = [np.nan]
    try:
        seed = initial_estimate(pts)
        centers[0] = seed.center_array()
        radii[0] = seed.radius
    except (DegenerateSampleError, InsufficientPointsError):
        pass

    # Minimal samples are drawn one by one (the draw order is part of the
    # determinism contract) but solved and scored as one batch.
    samples = np.stack(
        [rng.choice(n, size=4, replace=False) for _ in range(config.ransac_iterations)]
    )
    quads = pts[samples]
    lhs = np.concatenate(
        [2.0 * quads, np.ones((len(samples), 4, 1))], axis=2
    )
    rhs = np.sum(quads * quads, axis=2)[..., None]
    try:
        solutions = np.linalg.solve(lhs, rhs)[..., 0]
    except np.linalg.LinAlgError:
        solutions = np.full((len(samples), 4), np.nan)
        for k in range(len(samples)):
            try:
                solutions[k] = np.linalg.solve(lhs[k], rhs[k])[..., 0]
            except np.linalg.LinAlgError:
                pass  # stays NaN and is dropped below
    sample_centers = solutions[:, :3]
    r_sq = solutions[:, 3] + np.einsum("ij,ij->i", sample_centers, sample_centers)
    with np.errstate(invalid="ignore"):
        sample_radii = np.sqrt(r_sq)
    usable = (
        np.all(np.isfinite(sample_centers), axis=1)
        & np.isfinite(sample_radii)
        & (r_sq > 0)
        & (sample_radii <= 1e6)  # same near-coplanar guard as fit_sphere_exact
    )
    degenerate = int(len(samples) - usable.sum())

    cand_centers = np.concatenate([np.asarray(centers), sample_centers[usable]])
    cand_radii = np.concatenate([np.asarray(radii), sample_radii[usable]])
    finite = np.isfinite(cand_radii)
    cand_centers, cand_radii = cand_centers[finite], cand_radii[finite]
    if len(cand_radii) == 0:
        raise DegenerateSampleError(
            f"no usable hypothesis: {degenerate}/{config.ransac_iterations} samples degenerate"
        )

    mask, resid = _inlier_mask(pts, cand_centers, cand_radii, min_cloud_z, config)
    counts = mask.sum(axis=1)
    resid_sums = np.where(mask, resid, 0.0).sum(axis=1)
    # Most inliers wins, then the lowest mean residual, then the earliest index
    # (lexsort is stable); hypotheses without inliers never win.
    live = np.flatnonzero(counts)
    if len(live) == 0:
        raise DegenerateSampleError(
            f"no usable hypothesis: {degenerate}/{config.ransac_iterations} samples degenerate"
        )
    best_idx = live[np.lexsort((resid_sums[live] / counts[live], -counts[live]))[0]]

    center, radius = cand_centers[best_idx], float(cand_radii[best_idx])
    (mask,), _ = _inlier_mask(pts, center[None], np.array([radius]), min_cloud_z, config)
    if int(mask.sum()) >= 4:
        try:
            center, radius = _solve_sphere(pts[mask], exact=False)
        except DegenerateSampleError:
            log.warning("least-squares refinement failed; keeping the raw best hypothesis")
        else:
            try:
                center, radius = _geometric_refine(pts[mask], center, radius)
            except DegenerateSampleError:
                log.warning("orthogonal refinement failed; keeping the linear fit")
    (mask,), (resid,) = _inlier_mask(pts, center[None], np.array([radius]), min_cloud_z, config)
    count = int(mask.sum())
    mean_resid = float(resid[mask].mean()) if count else float("inf")

    model = SphereModel(center=tuple(center), diameter=2.0 * radius)
    accepted = (
        count / n >= config.min_inlier_fraction
        and config.d_min <= model.diameter <= config.d_max
    )
    return FitReport(
        model=model,
        inlier_count=count,
        iterations_used=config.ransac_iterations,
        accepted=accepted,
        mean_abs_residual=mean_resid,
    )


def derive_observation_seed(base_seed: int, frame_index: int, instance_id: int) -> int:
    """Stable per-observation seed so fits do not depend on processing order."""
    ss = np.random.SeedSequence([int(base_seed), int(frame_index), int(instance_id)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
