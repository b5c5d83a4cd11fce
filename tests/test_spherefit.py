"""Sphere fitting: seed estimate, minimal solver, and the RANSAC loop."""

import dataclasses

import numpy as np
import pytest

from cloudgen import add_depth_noise, cap_cloud, contaminated_cap_cloud, sphere_cloud
from fruitmap.spherefit import (
    DegenerateSampleError,
    FitConfig,
    FitReport,
    InsufficientPointsError,
    SphereModel,
    derive_observation_seed,
    downsample_points,
    fit_sphere_exact,
    initial_estimate,
    ransac_sphere_fit,
)
from fruitmap.spherefit import _geometric_refine, _solve_sphere


class TestDownsample:
    def test_noop_below_threshold(self):
        pts = np.arange(30.0).reshape(10, 3)
        out = downsample_points(pts, 10, rng_seed=0)
        np.testing.assert_array_equal(out, pts)

    def test_subset_and_order(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(1000, 3))
        out = downsample_points(pts, 100, rng_seed=5)
        assert out.shape == (100, 3)
        # every sampled row exists in the source, and original ordering is kept
        src_rows = {tuple(r) for r in pts}
        assert all(tuple(r) in src_rows for r in out)
        idx = [np.flatnonzero((pts == r).all(axis=1))[0] for r in out]
        assert idx == sorted(idx)
        assert len(set(idx)) == len(idx)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(500, 3))
        a = downsample_points(pts, 64, rng_seed=42)
        b = downsample_points(pts, 64, rng_seed=42)
        np.testing.assert_array_equal(a, b)
        c = downsample_points(pts, 64, rng_seed=43)
        assert not np.array_equal(a, c)


class TestInitialEstimate:
    def test_full_sphere_unbiased(self):
        # On a full sphere every sample sits exactly r from the true center, so
        # with the centroid converging to the center the mean distance is r.
        rng = np.random.default_rng(2)
        cloud = sphere_cloud([0.01, -0.02, 0.40], 0.012, 10_000, rng)
        est = initial_estimate(cloud)
        np.testing.assert_allclose(est.center_array(), [0.01, -0.02, 0.40], atol=1e-3)
        assert abs(est.diameter - 0.024) / 0.024 < 0.02

    def test_partial_cap_underestimates_monotonically(self):
        # Dense caps: error stays strictly negative and shrinks as more of the
        # sphere becomes visible (probed values: -36%, -22%, -12%, -5%, -1.4%).
        rng = np.random.default_rng(99)
        r = 0.01
        errs = []
        for f in (0.25, 0.4, 0.55, 0.7, 0.85, 0.95):
            cloud = cap_cloud([0, 0, 0.4], r, 40_000, rng, visible_fraction=f)
            errs.append(initial_estimate(cloud).diameter - 2 * r)
        assert all(e < 0 for e in errs)
        mags = [abs(e) for e in errs]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_too_few_points(self):
        with pytest.raises(InsufficientPointsError):
            initial_estimate(np.zeros((3, 3)))

    def test_coincident_points(self):
        with pytest.raises(DegenerateSampleError):
            initial_estimate(np.ones((8, 3)))


class TestExactSolver:
    def test_unit_sphere_hand_case(self):
        pts = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        m = fit_sphere_exact(pts)
        np.testing.assert_allclose(m.center_array(), [0, 0, 0], atol=1e-12)
        assert m.diameter == pytest.approx(2.0, abs=1e-12)

    def test_random_spheres_recovered(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            c = rng.uniform(-0.1, 0.1, 3)
            r = rng.uniform(0.004, 0.03)
            pts = sphere_cloud(c, r, 4, rng)
            # reject nearly-coplanar draws so the tolerance claim is meaningful
            if abs(np.linalg.det(pts[1:] - pts[0])) < 1e-9:
                continue
            m = fit_sphere_exact(pts)
            assert np.linalg.norm(m.center_array() - c) < 1e-9 * max(1.0, r)
            assert abs(m.radius - r) < 1e-9 * r

    def test_coplanar_raises(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        with pytest.raises(DegenerateSampleError):
            fit_sphere_exact(pts)

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            fit_sphere_exact(np.zeros((5, 3)))


class TestRansac:
    def test_noiseless_full_sphere_recovery(self):
        rng = np.random.default_rng(4)
        cloud = sphere_cloud([0.0, 0.01, 0.35], 0.011, 400, rng)
        rep = ransac_sphere_fit(cloud, FitConfig(rng_seed=7))
        assert rep.accepted
        assert rep.iterations_used == 200
        assert abs(rep.model.diameter - 0.022) / 0.022 < 1e-9
        np.testing.assert_allclose(rep.model.center_array(), [0.0, 0.01, 0.35], atol=1e-11)

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(5)
        cloud = add_depth_noise(cap_cloud([0, 0, 0.4], 0.009, 300, rng), 0.0011,
                                np.random.default_rng(6))
        cfg = FitConfig(rng_seed=21)
        a = ransac_sphere_fit(cloud, cfg)
        b = ransac_sphere_fit(cloud, cfg)
        assert a == b  # dataclass equality over identical floats, bit for bit

    def test_inlier_set_satisfies_predicate(self):
        rng = np.random.default_rng(8)
        cloud = add_depth_noise(cap_cloud([0, 0, 0.4], 0.010, 350, rng), 0.0011,
                                np.random.default_rng(9))
        cfg = FitConfig(rng_seed=3)
        rep = ransac_sphere_fit(cloud, cfg)
        c = rep.model.center_array()
        r = rep.model.radius
        dist = np.linalg.norm(cloud - c, axis=1)
        mask = np.abs(dist - r) <= cfg.inlier_tolerance
        mask &= dist <= r + cfg.inlier_tolerance
        mask &= cloud[:, 2] <= cloud[:, 2].min() + min(2 * r, cfg.d_max)
        assert int(mask.sum()) == rep.inlier_count

    def test_tolerance_monotonicity(self):
        rng = np.random.default_rng(10)
        cloud = add_depth_noise(cap_cloud([0, 0, 0.4], 0.012, 400, rng), 0.0011,
                                np.random.default_rng(11))
        counts = []
        for tol in (0.0005, 0.001, 0.002, 0.004, 0.008):
            rep = ransac_sphere_fit(cloud, FitConfig(inlier_tolerance=tol, rng_seed=77))
            counts.append(rep.inlier_count)
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_background_contamination_rejected(self):
        rng = np.random.default_rng(12)
        r = 0.010
        cloud = contaminated_cap_cloud([0, 0, 0.35], r, 500, rng)
        rep = ransac_sphere_fit(cloud, FitConfig(rng_seed=13))
        assert rep.accepted
        assert abs(rep.model.diameter - 2 * r) / (2 * r) < 0.05
        # none of the admitted inliers may sit in the background patch
        c = rep.model.center_array()
        dist = np.linalg.norm(cloud - c, axis=1)
        inl = np.abs(dist - rep.model.radius) <= 0.002
        inl &= dist <= rep.model.radius + 0.002
        inl &= cloud[:, 2] <= cloud[:, 2].min() + min(rep.model.diameter, 0.040)
        assert cloud[inl, 2].max() < 0.35 - r + 0.050

    def test_acceptance_band(self):
        rng = np.random.default_rng(14)
        big = sphere_cloud([0, 0, 0.4], 0.035, 300, rng)  # 70 mm diameter, implausible
        rep = ransac_sphere_fit(big, FitConfig(rng_seed=15))
        assert not rep.accepted
        assert abs(rep.model.diameter - 0.070) < 1e-6  # still reported faithfully

    def test_min_inlier_fraction_gate(self):
        # literal z-rule isolates the fraction gate; the depth window would
        # already discard a fruit sitting far behind this much front scatter
        rng = np.random.default_rng(16)
        cloud = sphere_cloud([0, 0, 0.4], 0.010, 100, rng)
        scatter = rng.uniform(-0.2, 0.2, size=(300, 3)) + [0, 0, 0.4]
        mixed = np.concatenate([cloud, scatter])
        # at 25% support a 4-point sample lands on the sphere ~0.4% of draws,
        # so discovery needs well over the default 200 iterations
        cfg = FitConfig(rng_seed=17, z_rule="literal", ransac_iterations=3000)
        rep = ransac_sphere_fit(mixed, cfg)
        assert abs(rep.model.diameter - 0.020) / 0.020 < 0.02
        assert not rep.accepted

    def test_too_few_points(self):
        with pytest.raises(InsufficientPointsError):
            ransac_sphere_fit(np.zeros((3, 3)), FitConfig())

    def test_all_degenerate_raises(self):
        # identical points defeat both the seed estimate and every minimal sample
        with pytest.raises(DegenerateSampleError):
            ransac_sphere_fit(np.full((10, 3), 0.2), FitConfig(rng_seed=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(inlier_tolerance=0.0)
        with pytest.raises(ValueError):
            FitConfig(d_min=0.05, d_max=0.04)
        with pytest.raises(ValueError):
            FitConfig(z_rule="sideways")

    @pytest.mark.parametrize("field_name", ["max_points", "ransac_iterations", "rng_seed"])
    @pytest.mark.parametrize("value", ["abc", 500.0, True, None])
    def test_config_requires_integers(self, field_name, value):
        with pytest.raises(ValueError, match=field_name):
            FitConfig(**{field_name: value})

    @pytest.mark.parametrize(
        "field_name", ["inlier_tolerance", "min_inlier_fraction", "d_min", "d_max"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "0.002", True])
    def test_config_requires_finite_reals(self, field_name, value):
        with pytest.raises(ValueError, match=field_name):
            FitConfig(**{field_name: value})

    def test_config_accepts_numpy_and_int_values(self):
        cfg = FitConfig(max_points=np.int64(64), rng_seed=np.uint64(2**63),
                        d_min=np.float64(0.005), inlier_tolerance=1)
        assert cfg.max_points == 64

    def test_z_rule_modes_agree_on_clean_clouds(self):
        rng = np.random.default_rng(18)
        cloud = add_depth_noise(cap_cloud([0, 0, 0.4], 0.011, 400, rng), 0.0011,
                                np.random.default_rng(19))
        cfg = FitConfig(rng_seed=20)
        a = ransac_sphere_fit(cloud, cfg)
        b = ransac_sphere_fit(cloud, dataclasses.replace(cfg, z_rule="literal"))
        assert a.model == b.model


class TestSphereModelValidation:
    def test_rejects_nonpositive_diameter(self):
        with pytest.raises(ValueError):
            SphereModel(center=(0, 0, 0), diameter=0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SphereModel(center=(0, np.nan, 0), diameter=0.01)


class TestObservationSeeds:
    def test_stable_and_distinct(self):
        s1 = derive_observation_seed(42, 3, 7)
        s2 = derive_observation_seed(42, 3, 7)
        assert s1 == s2
        others = {derive_observation_seed(42, f, i) for f in range(10) for i in range(10)}
        assert len(others) == 100
        assert derive_observation_seed(43, 3, 7) != s1


# ------------------------------------------------------------------ oracle

def reference_inliers(pts, center, radius, min_cloud_z, cfg):
    dist = np.linalg.norm(pts - center, axis=1)
    resid = np.abs(dist - radius)
    mask = resid <= cfg.inlier_tolerance
    mask &= dist <= radius + cfg.inlier_tolerance
    if cfg.z_rule == "background_reject":
        mask &= pts[:, 2] <= min_cloud_z + min(2.0 * radius, cfg.d_max)
    else:
        mask &= pts[:, 2] >= min_cloud_z
    return mask, resid


def reference_fit(points, config):
    """Norm-based scoring and a Python-loop pick: the fit must match it bit for bit.

    Returns the report and every hypothesis's inlier count.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    rng = np.random.default_rng(config.rng_seed)
    min_cloud_z = float(pts[:, 2].min())
    seed = initial_estimate(pts)
    samples = np.stack(
        [rng.choice(n, size=4, replace=False) for _ in range(config.ransac_iterations)]
    )
    quads = pts[samples]
    lhs = np.concatenate([2.0 * quads, np.ones((len(samples), 4, 1))], axis=2)
    rhs = np.sum(quads * quads, axis=2)[..., None]
    solutions = np.linalg.solve(lhs, rhs)[..., 0]
    sample_centers = solutions[:, :3]
    r_sq = solutions[:, 3] + np.einsum("ij,ij->i", sample_centers, sample_centers)
    with np.errstate(invalid="ignore"):
        sample_radii = np.sqrt(r_sq)
    usable = (
        np.all(np.isfinite(sample_centers), axis=1)
        & np.isfinite(sample_radii) & (r_sq > 0) & (sample_radii <= 1e6)
    )
    cand_centers = np.concatenate([[seed.center_array()], sample_centers[usable]])
    cand_radii = np.concatenate([[seed.radius], sample_radii[usable]])

    best_idx, best_count, best_resid = -1, 0, float("inf")
    counts = []
    for k in range(len(cand_radii)):
        mask, resid = reference_inliers(pts, cand_centers[k], cand_radii[k], min_cloud_z,
                                        config)
        count = int(mask.sum())
        counts.append(count)
        if count == 0:
            continue
        mean_resid = float(np.where(mask, resid, 0.0).sum()) / count
        if count > best_count or (count == best_count and mean_resid < best_resid):
            best_idx, best_count, best_resid = k, count, mean_resid

    center, radius = cand_centers[best_idx], float(cand_radii[best_idx])
    mask, _ = reference_inliers(pts, center, radius, min_cloud_z, config)
    center, radius = _solve_sphere(pts[mask], exact=False)
    center, radius = _geometric_refine(pts[mask], center, radius)
    mask, resid = reference_inliers(pts, center, radius, min_cloud_z, config)
    count = int(mask.sum())
    model = SphereModel(center=tuple(center), diameter=2.0 * radius)
    report = FitReport(
        model=model,
        inlier_count=count,
        iterations_used=config.ransac_iterations,
        accepted=(count / n >= config.min_inlier_fraction
                  and config.d_min <= model.diameter <= config.d_max),
        mean_abs_residual=float(resid[mask].mean()),
    )
    return report, counts


class TestFitOracle:
    @pytest.mark.parametrize("z_rule", ["background_reject", "literal"])
    def test_seeded_clouds_match_reference(self, z_rule):
        rng = np.random.default_rng(30)
        clouds = [
            sphere_cloud([0.0, 0.01, 0.35], 0.011, 400, rng),
            add_depth_noise(cap_cloud([0, 0, 0.4], 0.009, 300, rng), 0.0011, rng),
            add_depth_noise(cap_cloud([0.02, 0, 0.3], 0.006, 120, rng, 0.3), 0.0011, rng),
            contaminated_cap_cloud([0, 0, 0.35], 0.010, 500, rng),
            sphere_cloud([0, 0, 0.4], 0.035, 300, rng),  # outside the diameter band
        ]
        for i, cloud in enumerate(clouds):
            cfg = FitConfig(rng_seed=derive_observation_seed(3, i, 1), z_rule=z_rule)
            report, counts = reference_fit(cloud, cfg)
            assert ransac_sphere_fit(cloud, cfg) == report
            if i == 0:
                # noiseless: many hypotheses hold every point, so the pick
                # falls to the mean-residual and index tie rules
                assert counts.count(len(cloud)) > 1
