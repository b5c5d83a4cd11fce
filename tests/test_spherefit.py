"""Sphere fitting: minimal solver, RANSAC loop, polish and their oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from cloudgen import add_depth_noise, cap_cloud, contaminated_cap_cloud, sphere_cloud
from fruitmap.spherefit import (
    DegenerateSampleError,
    FitConfig,
    FitReport,
    InsufficientPointsError,
    SphereModel,
    derive_seed,
    downsample_points,
    ransac_sphere_fit,
)
from fruitmap import spherefit
from fruitmap.spherefit import (
    _SCORE_BLOCK as SCORE_BLOCK,
    _best_hypothesis,
    _draw_quads,
    _geometric_refine,
    _inlier_mask,
    _solve_quads,
    _solve_sphere,
)


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


class TestExactSolver:
    """_solve_quads: the batched 4-point solve every RANSAC hypothesis comes from."""

    def test_unit_sphere_hand_case(self):
        pts = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        (center,), (radius,), (usable,) = _solve_quads(pts[None])
        assert usable
        np.testing.assert_allclose(center, [0, 0, 0], atol=1e-12)
        assert 2.0 * radius == pytest.approx(2.0, abs=1e-12)

    def test_random_spheres_recovered(self):
        rng = np.random.default_rng(3)
        quads, centers, radii = [], [], []
        for _ in range(300):
            c = rng.uniform(-0.1, 0.1, 3)
            r = rng.uniform(0.004, 0.03)
            pts = sphere_cloud(c, r, 4, rng)
            # reject nearly-coplanar draws so the tolerance claim is meaningful
            if abs(np.linalg.det(pts[1:] - pts[0])) < 1e-9:
                continue
            quads.append(pts)
            centers.append(c)
            radii.append(r)
        got_centers, got_radii, usable = _solve_quads(np.array(quads))
        radii = np.array(radii)
        assert usable.all()
        center_err = np.linalg.norm(got_centers - np.array(centers), axis=1)
        assert np.all(center_err < 1e-9 * np.maximum(1.0, radii))
        assert np.all(np.abs(got_radii - radii) < 1e-9 * radii)

    def test_coplanar_unusable(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        _, _, (usable,) = _solve_quads(pts[None])
        assert not usable

    def test_near_coplanar_radius_guard(self):
        # Solvable, but the sphere through these is ~2e8 m across.
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.4, 1e-9]], dtype=float)
        _, (radius,), (usable,) = _solve_quads(pts[None])
        assert radius > 1e6
        assert not usable

    def test_singular_batch_falls_back_per_matrix(self, monkeypatch):
        # Coplanar quads first, last and side by side make the batched solve
        # raise; the fallback must drop only them, solve the rest
        # bit-identically to a per-matrix loop, and not solve one at a time.
        rng = np.random.default_rng(8)
        quads = np.stack([sphere_cloud(rng.uniform(-0.1, 0.1, 3), 0.01, 4, rng)
                          for _ in range(200)])
        singular = [0, 97, 98, 199]
        quads[singular] = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
        lhs = np.concatenate([2.0 * quads, np.ones((200, 4, 1))], axis=2)
        rhs = np.sum(quads * quads, axis=2)[..., None]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(lhs, rhs)
        ref = np.full((200, 4), np.nan)
        for i in range(200):
            try:
                ref[i] = np.linalg.solve(lhs[i], rhs[i])[..., 0]
            except np.linalg.LinAlgError:
                pass
        assert np.isnan(ref).all(axis=1).sum() == len(singular)

        solve = np.linalg.solve
        calls = []

        def counting_solve(a, b):
            calls.append(len(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        centers, radii, usable = _solve_quads(quads)
        monkeypatch.undo()

        assert not usable[singular].any() and usable.sum() == 200 - len(singular)
        np.testing.assert_array_equal(centers[usable], ref[usable, :3])
        ref_radii = np.sqrt(ref[:, 3] + np.einsum("ij,ij->i", ref[:, :3], ref[:, :3]))
        np.testing.assert_array_equal(radii[usable], ref_radii[usable])
        clean_centers, clean_radii, _ = _solve_quads(quads[usable])
        np.testing.assert_array_equal(centers[usable], clean_centers)
        np.testing.assert_array_equal(radii[usable], clean_radii)
        # Two batched solves: the one that raises, then the solvable rest.
        assert calls == [200, 200 - len(singular)]


class TestRansac:
    def test_noiseless_full_sphere_recovery(self):
        rng = np.random.default_rng(4)
        cloud = sphere_cloud([0.0, 0.01, 0.35], 0.011, 400, rng)
        rep = ransac_sphere_fit(cloud, FitConfig(rng_seed=7))
        assert rep.accepted
        assert abs(rep.model.diameter - 0.022) / 0.022 < 1e-9
        np.testing.assert_allclose(np.asarray(rep.model.center), [0.0, 0.01, 0.35], atol=1e-11)

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
        c = np.asarray(rep.model.center)
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
        c = np.asarray(rep.model.center)
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
        # Identical points, and an exactly planar disc, make every minimal
        # sample degenerate; no hypothesis is left to fit.
        clouds = [np.full((10, 3), 0.2)]
        rng = np.random.default_rng(22)
        for radius in (0.005, 0.008, 0.012):
            rho = radius * np.sqrt(rng.uniform(0.0, 1.0, 300))
            phi = rng.uniform(0.0, 2.0 * np.pi, 300)
            clouds.append(np.stack([rho * np.cos(phi), rho * np.sin(phi),
                                    np.full(300, 0.4)], axis=1))
        for cloud in clouds:
            with pytest.raises(DegenerateSampleError, match="no usable hypothesis"):
                ransac_sphere_fit(cloud, FitConfig(rng_seed=1))

    def test_scoring_work_is_pruned(self, monkeypatch):
        # Bail-out scoring: hypotheses that cannot win stop being scored, so
        # the predicate sees well under half of the hypothesis-point pairs a
        # full batch would; the last call scores the refined sphere alone.
        calls = []

        def counting_mask(pts, centers, radii, min_cloud_z, cfg):
            calls.append((len(centers), len(pts)))
            return _inlier_mask(pts, centers, radii, min_cloud_z, cfg)

        monkeypatch.setattr(spherefit, "_inlier_mask", counting_mask)
        rng = np.random.default_rng(23)
        cloud = add_depth_noise(cap_cloud([0, 0, 0.4], 0.009, 300, rng), 0.0011, rng)
        cfg = FitConfig(rng_seed=24)
        assert ransac_sphere_fit(cloud, cfg).accepted
        scored = sum(k * n for k, n in calls[:-1])
        assert scored < cfg.ransac_iterations * len(cloud) / 2
        assert calls[-1] == (1, len(cloud))

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

    @pytest.mark.parametrize("value", [-1, -(2**63)])
    def test_config_rejects_negative_seed(self, value):
        # numpy seeds only from non-negative integers
        with pytest.raises(ValueError, match=rf"rng_seed must be non-negative, got {value}"):
            FitConfig(rng_seed=value)

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
        s1 = derive_seed(42, 3, 7)
        s2 = derive_seed(42, 3, 7)
        assert s1 == s2
        others = {derive_seed(42, f, i) for f in range(10) for i in range(10)}
        assert len(others) == 100
        assert derive_seed(43, 3, 7) != s1


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


def reference_refine(pts, center, radius):
    """The orthogonal-distance polish through least_squares' MINPACK wrapper."""

    def residuals(x):
        return np.linalg.norm(pts - x[:3], axis=1) - x[3]

    def jacobian(x):
        diff = pts - x[:3]
        dist = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
        out = np.empty((len(pts), 4))
        out[:, :3] = -diff / dist[:, None]
        out[:, 3] = -1.0
        return out

    # x_scale="jac" (MINPACK's diag=None) is the "lm" default from scipy 1.16;
    # it is spelled out so that older scipy builds the same reference.
    result = least_squares(residuals, np.array([*center, radius], dtype=float), jac=jacobian,
                           method="lm", x_scale="jac", xtol=1e-12, ftol=1e-12, gtol=1e-12,
                           max_nfev=100)
    return result.x[:3], float(result.x[3])


def reference_quads(seed, n, k):
    rng = np.random.default_rng(seed)
    return np.stack([rng.choice(n, size=4, replace=False) for _ in range(k)])


def polish_cost(pts, center, radius):
    resid = np.linalg.norm(pts - center, axis=1) - radius
    return float(resid @ resid)


def assert_polish_agrees(pts, got, ref, d_min=FitConfig.d_min, d_max=FitConfig.d_max):
    """The polish against the MINPACK oracle, judged on cost.

    Partial caps have flat cost valleys: two minimizers can stop ~1e-7 apart
    in diameter at equal cost, so bit equality is not the contract. The cost
    must be no higher than the oracle's beyond rounding, and the diameter
    must agree to 1e-6 wherever the oracle's lies in the plausible band.
    """
    (got_center, got_radius), (ref_center, ref_radius) = got, ref
    ref_cost = polish_cost(pts, ref_center, ref_radius)
    assert polish_cost(pts, got_center, got_radius) <= ref_cost * (1 + 1e-9) + 1e-24
    if d_min <= 2.0 * ref_radius <= d_max:
        assert abs(got_radius - ref_radius) <= 1e-6 * ref_radius


def reference_fit(points, config):
    """Per-sample draws, norm-based scoring, a Python-loop pick and the
    least_squares polish.

    Returns the report, every hypothesis's (inlier count, mean residual), the
    picked hypothesis's (index among the usable samples, center, radius), and
    the polish's inputs and result: everything up to the polish must match
    the fit bit for bit, the polish itself by assert_polish_agrees.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    min_cloud_z = float(pts[:, 2].min())
    # A centroid hypothesis (radius the mean distance to the centroid) ahead
    # of the samples. The fit scores no such hypothesis; matching it here
    # shows that the centroid never wins on these clouds.
    seed_center = pts.mean(axis=0)
    seed_radius = float(np.linalg.norm(pts - seed_center, axis=1).mean())
    samples = reference_quads(config.rng_seed, n, config.ransac_iterations)
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
    cand_centers = np.concatenate([[seed_center], sample_centers[usable]])
    cand_radii = np.concatenate([[seed_radius], sample_radii[usable]])

    best_idx, best_count, best_resid = -1, 0, float("inf")
    scores = []
    for k in range(len(cand_radii)):
        mask, resid = reference_inliers(pts, cand_centers[k], cand_radii[k], min_cloud_z,
                                        config)
        count = int(mask.sum())
        mean_resid = float(np.where(mask, resid, 0.0).sum()) / count if count else float("inf")
        scores.append((count, mean_resid))
        if count == 0:
            continue
        if count > best_count or (count == best_count and mean_resid < best_resid):
            best_idx, best_count, best_resid = k, count, mean_resid

    center, radius = cand_centers[best_idx], float(cand_radii[best_idx])
    picked = (best_idx - 1, center, radius)  # the centroid is index 0 here
    mask, _ = reference_inliers(pts, center, radius, min_cloud_z, config)
    center, radius = _solve_sphere(pts[mask])
    polish_in = (pts[mask], center, radius)
    center, radius = reference_refine(*polish_in)
    mask, _ = reference_inliers(pts, center, radius, min_cloud_z, config)
    count = int(mask.sum())
    model = SphereModel(center=tuple(center), diameter=2.0 * radius)
    report = FitReport(
        model=model,
        inlier_count=count,
        accepted=(count / n >= config.min_inlier_fraction
                  and config.d_min <= model.diameter <= config.d_max),
    )
    return report, scores, picked, polish_in, (center, radius)


def oracle_clouds():
    """Seeded clouds for the fit oracle, each with what it exercises."""
    rng = np.random.default_rng(30)
    clouds = [
        sphere_cloud([0.0, 0.01, 0.35], 0.011, 400, rng),  # noiseless: ties at n inliers
        add_depth_noise(cap_cloud([0, 0, 0.4], 0.009, 300, rng), 0.0011, rng),
        add_depth_noise(cap_cloud([0.02, 0, 0.3], 0.006, 120, rng, 0.3), 0.0011, rng),
        contaminated_cap_cloud([0, 0, 0.35], 0.010, 500, rng),
        sphere_cloud([0, 0, 0.4], 0.035, 300, rng),  # outside the diameter band
    ]
    # Bail-out block edges: 4 points, less than, exactly and one over a block.
    for n in (4, SCORE_BLOCK // 2, SCORE_BLOCK, SCORE_BLOCK + 1):
        clouds.append(add_depth_noise(cap_cloud([0.01, 0, 0.38], 0.008, n, rng), 0.0008, rng))
    # Noiseless cap: many hypotheses hold every point.
    clouds.append(cap_cloud([0, 0.01, 0.36], 0.012, 200, rng, 0.4))
    # A first block of scatter off the sphere, so the first bound is weak.
    scatter = rng.uniform([-0.04, -0.04, 0.39], [0.04, 0.04, 0.46], size=(4 * SCORE_BLOCK, 3))
    scatter = scatter[np.linalg.norm(scatter - [0, 0, 0.4], axis=1) > 0.016][:SCORE_BLOCK]
    cap = add_depth_noise(cap_cloud([0, 0, 0.4], 0.010, 250, rng), 0.0011, rng)
    clouds.append(np.concatenate([scatter, cap]))
    return clouds


def full_batch_pick(pts, centers, radii, min_cloud_z, cfg):
    """The winning hypothesis from one (k, n) scoring batch with no bail-out.

    Most inliers, then the lowest mean residual, then the lowest index
    (lexsort is stable); hypotheses without inliers never win.
    """
    masks, resid = _inlier_mask(pts, centers, radii, min_cloud_z, cfg)
    counts = masks.sum(axis=1)
    np.copyto(resid, 0.0, where=~masks)
    resid_sums = resid.sum(axis=1)
    live = np.flatnonzero(counts)
    if len(live) == 0:
        return None
    best = live[np.lexsort((resid_sums[live] / counts[live], -counts[live]))[0]]
    return int(best), masks[best]


class TestFitOracle:
    @pytest.mark.parametrize("z_rule", ["background_reject", "literal"])
    def test_seeded_clouds_match_reference(self, z_rule, monkeypatch):
        clouds = oracle_clouds()
        polishes, picks = [], []

        def capture(pts, center, radius):
            polishes.append((pts, center, radius))
            return _geometric_refine(pts, center, radius)

        def capture_pick(pts, centers, radii, min_cloud_z, cfg):
            best = _best_hypothesis(pts, centers, radii, min_cloud_z, cfg)
            picks.append((best[0], centers[best[0]], radii[best[0]]))
            return best

        monkeypatch.setattr(spherefit, "_geometric_refine", capture)
        monkeypatch.setattr(spherefit, "_best_hypothesis", capture_pick)
        for i, cloud in enumerate(clouds):
            cfg = FitConfig(rng_seed=derive_seed(3, i, 1), z_rule=z_rule)
            report, scores, ref_pick, ref_in, ref_out = reference_fit(cloud, cfg)
            polishes.clear()
            picks.clear()
            got = ransac_sphere_fit(cloud, cfg)
            # Draws, scoring, pick, inlier mask and linear solve: bit for bit.
            ((pick, pick_center, pick_radius),) = picks
            assert pick == ref_pick[0]
            np.testing.assert_array_equal(pick_center, ref_pick[1])
            assert pick_radius == ref_pick[2]
            ((pts, center, radius),) = polishes
            np.testing.assert_array_equal(pts, ref_in[0])
            np.testing.assert_array_equal(center, ref_in[1])
            assert radius == ref_in[2]
            assert_polish_agrees(pts, (np.asarray(got.model.center), got.model.radius), ref_out)
            assert got.inlier_count == report.inlier_count
            assert got.accepted == report.accepted
            counts = [count for count, _ in scores]
            if i in (0, 9):
                # noiseless: many hypotheses hold every point, so the pick
                # falls to the mean-residual rule
                assert counts.count(len(cloud)) > 1
            if i == 5:
                # 4 points: every sample is a permutation of the cloud, and
                # repeated permutations tie on mean residual too, so the
                # pick falls to the index rule
                top = min(mean for count, mean in scores if count == 4)
                assert [mean for count, mean in scores if count == 4].count(top) > 1

    def test_generator_state_after_the_draws_is_unused(self, monkeypatch):
        # The fit reads nothing from the generator after the draws, so moving it
        # on afterwards changes no output bit.
        def draw_then_scramble(rng, n, k):
            samples = _draw_quads(rng, n, k)
            rng.bit_generator.advance(12345)
            return samples

        rng = np.random.default_rng(31)
        cloud = add_depth_noise(cap_cloud([0, 0, 0.4], 0.009, 300, rng), 0.0011, rng)
        cfg = FitConfig(rng_seed=derive_seed(3, 0, 2))
        expected = ransac_sphere_fit(cloud, cfg)
        monkeypatch.setattr(spherefit, "_draw_quads", draw_then_scramble)
        assert ransac_sphere_fit(cloud, cfg) == expected


def fit_or_error(cloud, cfg):
    try:
        return ransac_sphere_fit(cloud, cfg)
    except DegenerateSampleError as exc:
        return repr(exc)


class TestBailOutMatchesFullBatch:
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 300),
        sigma=st.one_of(st.just(0.0), st.floats(0.0, 0.003)),
        outlier_share=st.floats(0.0, 0.7),
        z_rule=st.sampled_from(["background_reject", "literal"]),
        iterations=st.integers(1, 200),
    )
    def test_fit_equals_full_batch_pick(self, seed, n, sigma, outlier_share, z_rule,
                                        iterations):
        rng = np.random.default_rng(seed)
        n_out = round(outlier_share * n)
        cap = cap_cloud([0, 0, 0.4], rng.uniform(0.004, 0.02), n - n_out, rng,
                        rng.uniform(0.2, 1.0))
        scatter = rng.uniform([-0.04, -0.04, 0.37], [0.04, 0.04, 0.46], size=(n_out, 3))
        cloud = rng.permutation(np.concatenate([add_depth_noise(cap, sigma, rng), scatter]))
        cfg = FitConfig(rng_seed=seed, z_rule=z_rule, ransac_iterations=iterations)

        # The pick, index and mask, on the hypotheses the fit draws.
        samples = _draw_quads(np.random.default_rng(seed), n, iterations)
        centers, radii, usable = _solve_quads(cloud[samples])
        scoring = (cloud, centers[usable], radii[usable], float(cloud[:, 2].min()), cfg)
        got, ref = _best_hypothesis(*scoring), full_batch_pick(*scoring)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert got[0] == ref[0]
            np.testing.assert_array_equal(got[1], ref[1])

        # The whole fit, bit for bit.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spherefit, "_best_hypothesis", full_batch_pick)
            expected = fit_or_error(cloud, cfg)
        assert fit_or_error(cloud, cfg) == expected


def assert_draw_matches_choice(seed, n, k):
    """The batch equals k choice calls, and leaves the generator where they do."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _draw_quads(rng, n, k)
    want = np.stack([ref.choice(n, size=4, replace=False) for _ in range(k)])
    np.testing.assert_array_equal(got, want)
    assert got.dtype == np.int64 and got.shape == (k, 4)
    assert rng.bit_generator.state == ref.bit_generator.state


class TestDrawOracle:
    @pytest.mark.parametrize("n", [4, 5, 6, 137, 500])
    def test_matches_per_sample_choice(self, n):
        meta = np.random.default_rng(n)
        for _ in range(60):
            assert_draw_matches_choice(int(meta.integers(2**63)), n, int(meta.integers(1, 260)))

    def test_matches_choice_on_a_rejected_word(self):
        # Seed 8521's 1400 words for n=500, k=200 include one that the bounded
        # draw rejects and replaces.
        assert_draw_matches_choice(8521, 500, 200)

    def test_chunks_equal_one_batch(self):
        # 7 samples read an odd number of 32-bit words; the next chunk must
        # still continue exactly where one batch of 193 would.
        for seed in range(200):
            rng = np.random.default_rng(seed)
            chunked = np.concatenate([_draw_quads(rng, 500, 7), _draw_quads(rng, 500, 186)])
            np.testing.assert_array_equal(
                chunked, _draw_quads(np.random.default_rng(seed), 500, 193)
            )


class TestPolishOracle:
    def test_matches_least_squares_lm(self):
        # Perturbed starts on noisy caps of varied coverage, 4 to 299 points.
        for case in range(60):
            rng = np.random.default_rng(case)
            cap = cap_cloud([0, 0, 0.4], 0.01, int(rng.integers(4, 300)), rng,
                            float(rng.uniform(0.2, 0.9)))
            pts = add_depth_noise(cap, float(rng.uniform(0.0, 0.003)), rng)
            center = np.array([0.0, 0.0, 0.4]) + rng.normal(0.0, 0.003, 3)
            radius = abs(0.01 + rng.normal(0.0, 0.002))
            assert_polish_agrees(pts, _geometric_refine(pts, center, radius),
                                 reference_refine(pts, center, radius))


    def test_singular_normal_matrix_keeps_the_start(self, monkeypatch):
        # Points on a circle in the plane x = c_x make every unit vector's x
        # zero, so the normal matrix is singular with or without damping.
        t = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        pts = np.stack([np.zeros_like(t), 0.01 * np.cos(t), 0.01 * np.sin(t)], axis=1)
        solve, calls = np.linalg.solve, []

        def counting_solve(a, b):
            calls.append(1)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        center, radius = _geometric_refine(pts, np.zeros(3), 0.012)
        np.testing.assert_array_equal(center, np.zeros(3))
        assert radius == 0.012
        assert len(calls) == 2  # undamped, then damped once


class TestInlierMaskOracle:
    @pytest.mark.parametrize("z_rule", ["background_reject", "literal"])
    @pytest.mark.parametrize("k", [1, 201])
    def test_matches_per_hypothesis_norm(self, k, z_rule):
        rng = np.random.default_rng(k)
        pts = contaminated_cap_cloud([0, 0, 0.35], 0.010, 500, rng)
        centers = pts[rng.integers(0, len(pts), k)] + rng.normal(0.0, 0.004, (k, 3))
        radii = rng.uniform(0.002, 0.03, k)
        cfg = FitConfig(z_rule=z_rule)
        min_cloud_z = float(pts[:, 2].min())
        mask, resid = _inlier_mask(pts, centers, radii, min_cloud_z, cfg)
        for j in range(k):
            ref_mask, ref_resid = reference_inliers(pts, centers[j], radii[j], min_cloud_z, cfg)
            np.testing.assert_array_equal(mask[j], ref_mask)
            np.testing.assert_array_equal(resid[j], ref_resid)
        assert 0 < mask.sum() < mask.size
