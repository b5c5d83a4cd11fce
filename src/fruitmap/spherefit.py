"""Robust sphere fitting for single-fruitlet point clouds.

RANSAC draws 4-point minimal samples, solves each exactly through the
linearized sphere equation, and scores inliers with a two-clause predicate:

  1. surface band:   | ||p - c|| - r | <= inlier_tolerance
  2. depth window:   p.z <= min_cloud_z + min(2r, d_max)   (background_reject)
                     none                                  (literal)

`_inlier_mask` is the predicate's one implementation: it scores blocks of
hypotheses against blocks of points, and the refined sphere as a batch of one.
Hypotheses come only from minimal samples (Fischler & Bolles 1981), so a cloud
whose every sample is degenerate, such as an exactly planar one, has no fit.

The winner has the most inliers, then the lowest mean residual, then the
lowest index. `_best_hypothesis` stops scoring hypotheses that cannot win, an
exact form of Capel's bail-out test (2005, "An effective bail-out test for
RANSAC consensus scoring"). The hypothesis with the most inliers among the
first 64 points is scored in full, and its count L is a lower bound on the
winner's. Points are then scored 64 at a time, and a hypothesis whose count so
far plus the points left is below L is dropped: even if every point left were
its inlier it could not reach L, so it can neither win nor tie. Ties with L are
kept for the tie rules. Each entry of the predicate depends on one point and
one hypothesis, so counts read block by block equal counts read on whole rows,
and the hypotheses tied at the top count get their residual sums from whole
rows in the original point order, the same elementwise arithmetic and row sums
as one (k, n) batch. The pick, and so every output bit, is that of scoring
every hypothesis against every point; the first pass holds k x 64 values, not
k x n.

Clause 2 exists because instance masks bleed onto whatever sits behind the
fruitlet; those pixels land a leaf-or-trunk distance deeper than the fruit
surface and would otherwise drag the fit backwards. The window is capped at the
plausibility bound d_max so that an inflated hypothesis cannot vote its own
background points in. The literal reading, p.z >= min_cloud_z, holds for every
point of the cloud, so it adds no clause. The best hypothesis is refined once
by linear least squares over its inliers, then polished by an
orthogonal-distance fit on the same inliers, and inliers are re-evaluated once
against the refined sphere.

The orthogonal-distance stage matters: the linearized solve minimizes an
algebraic residual that shrinks the radius on partial caps under depth noise
(several percent at fruitlet scale), while the geometric minimum is unbiased
to first order. The linear solution only serves as its starting point. The
polish (`_geometric_refine`) is a numpy Levenberg-Marquardt loop over the
four parameters (c, r) that solves a 4x4 normal system per step; it reaches
MINPACK's minimum cost to within rounding. Partial caps have flat cost
valleys, so the diameter it stops at can differ from MINPACK's by up to
~1e-6 relative at equal cost.

All minimal samples are drawn in one batch (`_draw_quads`) whose indices equal
those of one `Generator.choice(n, 4, replace=False)` call per sample, drawn
with the generator's own bounded integers, so a fit's result is a function of
the cloud and `rng_seed` alone; oracle tests pin the batch to
`Generator.choice` of the installed numpy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._checks import check_types

__all__ = [
    "SphereModel",
    "FitConfig",
    "FitReport",
    "DegenerateSampleError",
    "InsufficientPointsError",
    "downsample_points",
    "ransac_sphere_fit",
    "derive_seed",
]

log = logging.getLogger(__name__)

# Points per block of bail-out scoring. A constant, not a FitConfig field:
# it cannot change a fit's result, and FitConfig is digested into every map.
_SCORE_BLOCK = 64


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
        rules = ("literal", "background_reject")
        check_types(self, also=() if self.z_rule in rules else (f"unknown z_rule {self.z_rule!r}",))
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
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")


@dataclass(frozen=True)
class FitReport:
    model: SphereModel
    inlier_count: int
    accepted: bool


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


def _solve_sphere(pts: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares sphere through points via |p|^2 = 2 c.p + (r^2 - |c|^2)."""
    A = np.concatenate([2.0 * pts, np.ones((len(pts), 1))], axis=1)
    b = np.sum(pts * pts, axis=1)
    sol, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < 4:
        raise DegenerateSampleError("point set is rank deficient; sphere is undetermined")
    center = sol[:3]
    r_sq = sol[3] + center @ center
    if not np.isfinite(r_sq) or r_sq <= 0 or not np.all(np.isfinite(center)):
        raise DegenerateSampleError("solution does not describe a real sphere")
    return center, float(np.sqrt(r_sq))


def _solve_batch(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a (k, 4, 4) batch; a singular matrix's row is NaN.

    A batch that raises is solved again without the matrices whose LU
    factorization has an exact zero pivot (slogdet sign 0), the condition on
    which solve raises, so it costs two batched solves. Each matrix is solved
    on its own inside a batched call, so the rows are bit-equal to
    per-matrix solves.
    """
    try:
        return np.linalg.solve(lhs, rhs)[..., 0]
    except np.linalg.LinAlgError:
        solvable = np.linalg.slogdet(lhs)[0] != 0
        out = np.full((len(lhs), 4), np.nan)
        out[solvable] = np.linalg.solve(lhs[solvable], rhs[solvable])[..., 0]
        return out


def _solve_quads(quads: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact spheres through k 4-point samples, (k, 4, 3), solved as one batch.

    Returns (k, 3) centers, (k,) radii and a (k,) mask of usable solutions. A
    coplanar or coincident sample, or a near-coplanar one whose radius exceeds
    1e6, is not usable.
    """
    k = len(quads)
    lhs = np.concatenate([2.0 * quads, np.ones((k, 4, 1))], axis=2)
    rhs = np.sum(quads * quads, axis=2)[..., None]
    solutions = _solve_batch(lhs, rhs)
    centers = solutions[:, :3]
    r_sq = solutions[:, 3] + np.einsum("ij,ij->i", centers, centers)
    with np.errstate(invalid="ignore"):
        radii = np.sqrt(r_sq)
    usable = (
        np.all(np.isfinite(centers), axis=1)
        & np.isfinite(radii)
        & (r_sq > 0)
        & (radii <= 1e6)  # near-coplanar samples give unbounded spheres
    )
    return centers, radii, usable


def _surface_residuals(
    pts: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p - c, ||p - c||, ||p - c|| - r) for x = (c, r)."""
    diff = pts - x[:3]
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return diff, dist, dist - x[3]


def _geometric_refine(
    pts: np.ndarray, center: np.ndarray, radius: float
) -> tuple[np.ndarray, float]:
    """Minimize the true surface distances sum(||p - c|| - r)^2 from a linear start.

    Levenberg-Marquardt over x = (c, r) (Marquardt 1963). A residual's
    gradient row is [-u, -1], u the unit vector from c to p, so the 4x4 normal
    matrix [u, 1].T @ [u, 1] is [[u.T @ u, u.sum(0)], [u.sum(0), n]]. Its
    diagonal is scaled by 1 + lam: lam starts at 0, a Gauss-Newton step,
    falls tenfold after a step that lowers the cost and rises tenfold, to at
    least 1e-6, after one that does not. The loop stops at a relative step or
    a relative cost drop of at most 1e-12, after 100 residual evaluations, or
    when the damped matrix is singular.
    """
    x = np.array([*center, radius], dtype=float)
    diff, dist, resid = _surface_residuals(pts, x)
    cost = resid @ resid
    lam = 0.0
    rows = np.ones((len(pts), 4))  # [u, 1], the negated Jacobian
    for _ in range(99):  # each trial step costs one of the 100 evaluations
        np.divide(diff, np.maximum(dist, 1e-12)[:, None], out=rows[:, :3])
        damped = rows.T @ rows
        damped.flat[::5] *= 1.0 + lam
        try:
            step = np.linalg.solve(damped, rows.T @ resid)
        except np.linalg.LinAlgError:
            if lam > 0:
                break  # damping cannot help: [u, 1] has a zero column
            lam = 1e-6
            continue
        trial = x + step
        trial_diff, trial_dist, trial_resid = _surface_residuals(pts, trial)
        trial_cost = trial_resid @ trial_resid
        small_step = np.linalg.norm(step) <= 1e-12 * np.linalg.norm(trial)
        if trial_cost < cost:
            small_drop = cost - trial_cost <= 1e-12 * cost
            x, diff, dist, resid, cost = trial, trial_diff, trial_dist, trial_resid, trial_cost
            lam *= 0.1
            if small_step or small_drop:
                break
        else:
            lam = max(10.0 * lam, 1e-6)
            if small_step:
                break
    refined_center = x[:3]
    refined_radius = float(x[3])
    if not (
        np.all(np.isfinite(refined_center))
        and np.isfinite(refined_radius)
        and refined_radius > 0
    ):
        raise DegenerateSampleError("orthogonal-distance refinement diverged")
    return refined_center, refined_radius


def _draw_quads(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k minimal samples, equal to k successive rng.choice(n, 4, replace=False) rows.

    `Generator.choice(n, 4, replace=False)` runs Floyd's algorithm: for
    j = n-4, ..., n-1 it draws v in [0, j] and keeps v, or j itself if v was
    already picked. It then shuffles the four picks in place (Fisher-Yates,
    swap i with a draw in [0, i] for i = 3, 2, 1). Those seven bounded draws
    per sample are taken here as one `rng.integers` call over a (k, 7) grid,
    in the order the per-sample calls take them, so the generator ends where
    k `choice` calls leave it and two batches of a and b samples equal one
    batch of a + b.
    """
    bounds = np.array([n - 4, n - 3, n - 2, n - 1, 3, 2, 1])
    draws = rng.integers(0, bounds, size=(k, len(bounds)), endpoint=True)
    picks = draws[:, :4].copy()
    for t in range(1, 4):
        repeat = (picks[:, :t] == picks[:, t, None]).any(axis=1)
        picks[:, t] = np.where(repeat, n - 4 + t, picks[:, t])
    rows = np.arange(k)
    for i, j in zip((3, 2, 1), draws[:, 4:].T):
        swapped = picks[rows, j]
        picks[rows, j] = picks[:, i]
        picks[:, i] = swapped
    return picks


def _inlier_mask(
    pts: np.ndarray,
    centers: np.ndarray,
    radii: np.ndarray,
    min_cloud_z: float,
    cfg: FitConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """The two-clause inlier predicate for k hypotheses at once.

    pts is (n, 3), centers (k, 3) and radii (k,). Returns the (k, n) inlier
    mask and the (k, n) absolute surface residuals. Every entry depends on
    its own point and hypothesis alone, so scoring a slice of the cloud, or a
    subset of the hypotheses, gives bit-equal entries; min_cloud_z is the
    whole cloud's, whatever slice is scored.
    """
    # Summed as (x^2 + y^2) + z^2, the order np.linalg.norm(..., axis=-1) uses,
    # so distances are bit-equal to it; x^2 + (y^2 + z^2) would not be.
    resid = np.subtract(pts[:, 0], centers[:, 0, None])
    resid *= resid
    buf = np.subtract(pts[:, 1], centers[:, 1, None])
    buf *= buf
    resid += buf
    np.subtract(pts[:, 2], centers[:, 2, None], out=buf)
    buf *= buf
    resid += buf
    np.sqrt(resid, out=resid)
    r = radii[:, None]
    resid -= r
    np.abs(resid, out=resid)
    mask = resid <= cfg.inlier_tolerance
    if cfg.z_rule == "background_reject":
        mask &= pts[:, 2] <= min_cloud_z + np.minimum(2.0 * r, cfg.d_max)
    return mask, resid


def _best_hypothesis(
    pts: np.ndarray,
    centers: np.ndarray,
    radii: np.ndarray,
    min_cloud_z: float,
    cfg: FitConfig,
) -> tuple[int, np.ndarray] | None:
    """Index and inlier mask of the winning hypothesis, or None if none has an inlier.

    Most inliers wins, then the lowest mean residual, then the lowest index.
    The bound is the full count of the hypothesis that leads on the first
    block; after each later block, a hypothesis that cannot reach it even with
    every point left is dropped (see the module docstring).
    """
    n = len(pts)
    if len(centers) == 0:
        return None
    masks, _ = _inlier_mask(pts[:_SCORE_BLOCK], centers, radii, min_cloud_z, cfg)
    counts = np.count_nonzero(masks, axis=1)
    lead = int(np.argmax(counts))
    lead_rest, _ = _inlier_mask(pts[_SCORE_BLOCK:], centers[lead, None], radii[lead, None],
                                min_cloud_z, cfg)
    bound = counts[lead] + np.count_nonzero(lead_rest)
    alive = np.arange(len(centers))
    for start in range(_SCORE_BLOCK, n, _SCORE_BLOCK):
        keep = counts + (n - start) >= bound
        alive, counts = alive[keep], counts[keep]
        masks, _ = _inlier_mask(pts[start:start + _SCORE_BLOCK], centers[alive], radii[alive],
                                min_cloud_z, cfg)
        counts += np.count_nonzero(masks, axis=1)
    top = counts.max()
    if top == 0:
        return None
    tied = alive[counts == top]
    masks, resid = _inlier_mask(pts, centers[tied], radii[tied], min_cloud_z, cfg)
    np.copyto(resid, 0.0, where=~masks)
    # argmin keeps the first of equal means, the lowest index.
    pick = int(np.argmin(resid.sum(axis=1) / top))
    return int(tied[pick]), masks[pick]


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

    # The samples are exactly those of one rng.choice(n, 4, replace=False) call
    # per iteration, in order; they are solved as one batch.
    samples = _draw_quads(rng, n, config.ransac_iterations)
    sample_centers, sample_radii, usable = _solve_quads(pts[samples])
    cand_centers, cand_radii = sample_centers[usable], sample_radii[usable]

    best = _best_hypothesis(pts, cand_centers, cand_radii, min_cloud_z, config)
    if best is None:
        degenerate = int(len(samples) - usable.sum())
        raise DegenerateSampleError(
            f"no usable hypothesis: {degenerate}/{config.ransac_iterations} samples degenerate"
        )
    best_idx, mask = best
    center, radius = cand_centers[best_idx], float(cand_radii[best_idx])
    if int(mask.sum()) >= 4:
        try:
            center, radius = _solve_sphere(pts[mask])
        except DegenerateSampleError:
            log.warning("least-squares refinement failed; keeping the raw best hypothesis")
        else:
            try:
                center, radius = _geometric_refine(pts[mask], center, radius)
            except DegenerateSampleError:
                log.warning("orthogonal refinement failed; keeping the linear fit")
    (mask,), _ = _inlier_mask(pts, center[None], np.array([radius]), min_cloud_z, config)
    count = int(mask.sum())

    model = SphereModel(center=tuple(center), diameter=2.0 * radius)
    accepted = (
        count / n >= config.min_inlier_fraction
        and config.d_min <= model.diameter <= config.d_max
    )
    return FitReport(model=model, inlier_count=count, accepted=accepted)


def derive_seed(*keys: int) -> int:
    """A stable 64-bit seed from integer keys, so no stream depends on processing order.

    A fit is seeded from (base seed, frame index, instance id); a frame's
    depth noise leads its keys with the scene seed and a stream tag.
    """
    ss = np.random.SeedSequence([int(key) for key in keys])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
