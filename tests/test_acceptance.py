"""Acceptance checklist: the verifiable end-to-end claims this package upholds.

Each criterion prints one pass/fail line (run pytest with -s to see them all)
and asserts the same condition, so the suite both documents and enforces the
contract. Constructions and tolerances are frozen; the randomized parts are
fully seeded.
"""

import json
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from fruitmap.cli import main
from fruitmap.evaluation import count_accuracy, evaluate_map, precision_recall_f1
from fruitmap.geometry import CameraIntrinsics, StereoRig, depth_resolution
from fruitmap.mapping import build_side_map
from fruitmap.simulator import OrchardSpec, plan_trajectory, simulate_dataset
from fruitmap.spherefit import FitConfig, ransac_sphere_fit
from fruitmap.tracks import cross_side_transform, merge_maps, transform_map

from cloudgen import cap_cloud, add_depth_noise, contaminated_cap_cloud, sphere_cloud
from reference_rows import iter_arms
from test_properties import (
    run_matching_conservation,
    run_merge_idempotence,
    run_projection_round_trips,
    run_transform_round_trips,
)


RESULTS: list[str] = []  # replayed after the run by conftest.pytest_terminal_summary


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)


def _two_sided_run(spec: OrchardSpec):
    """Both side maps, the merged map, and their reports against truth."""
    dataset = simulate_dataset(spec)
    truth = dataset.ground_truth
    map_a = build_side_map(dataset, "A")
    map_b = build_side_map(dataset, "B")
    b_to_a = cross_side_transform(dataset.fiducials["A"], dataset.fiducials["B"])
    map_b_in_a = transform_map(map_b, b_to_a, map_a.frame_label)
    merged = merge_maps(map_a, map_b_in_a)
    return (
        evaluate_map(map_a, truth),
        evaluate_map(map_b_in_a, truth),
        evaluate_map(merged, truth),
    )


# --------------------------------------------------------------- criterion 1

def test_criterion_1_depth_resolution():
    rig = StereoRig(
        intrinsics=CameraIntrinsics(fx=1448.0, fy=1448.0, cx=616.0, cy=514.0,
                                    width=1232, height=1028),
        baseline=0.1,
    )
    mm = depth_resolution(rig, 0.4) * 1000.0
    ok = abs(mm - 1.10) <= 0.01
    _report(1, ok, f"one-pixel depth step at 0.4 m = {mm:.3f} mm (need 1.10 +- 0.01)")
    assert ok


# --------------------------------------------------------------- criterion 2

def test_criterion_2_count_table_fidelity():
    acc_bad = []
    f1_bad = []
    for ground_truth, calc, acc_ref, p_ref, r_ref, f1_ref in iter_arms():
        acc = round(count_accuracy(calc, ground_truth), 2)
        if abs(acc - acc_ref) > 0.01 + 1e-9:
            acc_bad.append((ground_truth, calc, acc_ref, acc))
        tp = round(p_ref * calc)
        fn = round(tp / r_ref) - tp
        _, _, f1 = precision_recall_f1(tp, calc - tp, fn)
        if abs(f1 - f1_ref) > 0.001 + 1e-9:
            f1_bad.append((ground_truth, calc, f1_ref, round(f1, 4)))
    ok = not acc_bad and not f1_bad
    _report(2, ok, f"30/30 accuracy cells within 0.01, 30/30 F1 cells within 0.001"
                   f"{'' if ok else f'; bad: {acc_bad + f1_bad}'}")
    assert ok, (acc_bad, f1_bad)


# --------------------------------------------------------------- criterion 3

def test_criterion_3_sphere_fit_oracle():
    wide_band = FitConfig(d_max=0.060)

    rng = np.random.default_rng(42)
    worst = 0.0
    exact_ok = True
    for i in range(200):
        r = rng.uniform(0.004, 0.025)
        center = rng.uniform(-0.1, 0.1, 3) + [0.0, 0.0, 0.4]
        cloud = sphere_cloud(center, r, 400, rng)
        fit = ransac_sphere_fit(cloud, replace(wide_band, rng_seed=i))
        if not fit.accepted:
            exact_ok = False
            break
        worst = max(worst, abs(fit.model.diameter - 2 * r) / (2 * r))
    exact_ok = exact_ok and worst <= 1e-6

    rng = np.random.default_rng(7)
    within = 0
    for i in range(200):
        r = rng.uniform(0.004, 0.025)
        center = rng.uniform(-0.05, 0.05, 3) + [0.0, 0.0, 0.4]
        cloud = add_depth_noise(cap_cloud(center, r, 400, rng), 0.0011, rng)
        fit = ransac_sphere_fit(cloud, replace(wide_band, rng_seed=1000 + i))
        err = abs(fit.model.diameter - 2 * r) / (2 * r) if fit.accepted else 1.0
        within += err <= 0.05
    noisy_ok = within >= 190  # 95% of 200

    ok = exact_ok and noisy_ok
    _report(3, ok, f"noiseless worst error {worst:.1e} (need <= 1e-6); "
                   f"noisy hemispheres within 5%: {within}/200 (need >= 190)")
    assert ok


# --------------------------------------------------------------- criterion 4

def test_criterion_4_mask_bleed_rejection():
    def errors(z_rule: str) -> list[float]:
        rng = np.random.default_rng(11)
        out = []
        for i in range(20):
            r = rng.uniform(0.008, 0.012)
            center = rng.uniform(-0.05, 0.05, 3) + [0.0, 0.0, 0.4]
            cloud = contaminated_cap_cloud(center, r, 500, rng)
            cfg = FitConfig(inlier_tolerance=0.005, z_rule=z_rule, rng_seed=2000 + i)
            fit = ransac_sphere_fit(cloud, cfg)
            err = abs(fit.model.diameter - 2 * r) / (2 * r)
            if z_rule == "background_reject" and not fit.accepted:
                err = 1.0  # the good arm must also be accepted
            out.append(err)
        return out

    reject_errs = errors("background_reject")
    literal_errs = errors("literal")
    reject_ok = all(e <= 0.05 for e in reject_errs)
    literal_ok = all(e > 0.10 for e in literal_errs)
    ok = reject_ok and literal_ok
    _report(4, ok, f"background_reject max error {max(reject_errs)*100:.1f}% "
                   f"(need <= 5%); literal min error {min(literal_errs)*100:.0f}% "
                   f"(need > 10%) on the same 20 seeds")
    assert ok


# --------------------------------------------------------------- criterion 5

def test_criterion_5_two_sided_benefit():
    started = time.monotonic()
    recalls = []
    accuracy_wins = 0
    recall_dominates = True
    for seed in range(201, 221):
        spec = OrchardSpec(rng_seed=seed, occluder_count=12, occluder_size=0.16)
        rep_a, rep_b, rep_m = _two_sided_run(spec)
        recalls += [rep_a.recall, rep_b.recall]
        one_sided = (rep_a.count_accuracy_pct + rep_b.count_accuracy_pct) / 2.0
        accuracy_wins += rep_m.count_accuracy_pct > one_sided
        recall_dominates &= rep_m.recall >= max(rep_a.recall, rep_b.recall)
    elapsed = time.monotonic() - started
    mean_recall = float(np.mean(recalls))
    ok = (
        mean_recall <= 0.85
        and accuracy_wins >= 16
        and recall_dominates
        and elapsed < 300.0
    )
    _report(5, ok, f"mean one-sided recall {mean_recall:.3f} (<= 0.85); merged "
                   f"count accuracy wins {accuracy_wins}/20 (>= 16); merged recall "
                   f">= one-sided on all scenes: {recall_dominates}; {elapsed:.0f}s")
    assert ok


def test_readme_scene_merge_no_worse_than_better_side():
    # The README walkthrough's scene: fusing side B into side A must not cost
    # size accuracy, so a side-B fit seen once cannot drag a well-seen track.
    rep_a, rep_b, rep_m = _two_sided_run(OrchardSpec(rng_seed=17))
    assert rep_m.size_rmse_pct <= 6.0
    assert rep_m.size_rmse_pct <= min(rep_a.size_rmse_pct, rep_b.size_rmse_pct)


# --------------------------------------------------------------- criterion 6

def test_criterion_6_size_rmse():
    started = time.monotonic()
    pairs = []
    for seed in (101, 102, 103, 104):
        spec = OrchardSpec(
            rng_seed=seed,
            occluder_count=0,
            cluster_count=11,
            fruitlets_per_cluster=(2, 3),
            diameter_range=(0.012, 0.025),
        )
        _, _, rep_m = _two_sided_run(spec)
        pairs += list(rep_m.size_pairs)
    elapsed = time.monotonic() - started
    arr = np.asarray(pairs)
    rmse = float(100.0 * np.sqrt(np.mean(((arr[:, 1] - arr[:, 0]) / arr[:, 0]) ** 2)))
    ok = len(pairs) >= 100 and rmse <= 6.0 and elapsed < 120.0
    _report(6, ok, f"size RMSE {rmse:.2f}% over {len(pairs)} matched fruitlets "
                   f"(need <= 6% over >= 100); {elapsed:.0f}s")
    assert ok


# --------------------------------------------------------------- criterion 7

def test_criterion_7_trajectory_fidelity():
    trajectory = plan_trajectory(OrchardSpec())
    problems = []
    for side, poses in trajectory.items():
        if len(poses) != 40:
            problems.append(f"{side}: {len(poses)} poses")
            continue
        xs = np.array([p.translation[0] for p in poses])
        arcs = np.unique(np.round(xs, 9))
        if len(arcs) != 4 or not np.allclose(np.diff(arcs), 0.015):
            problems.append(f"{side}: arcs at {arcs}")
        if any(np.sum(np.isclose(xs, x)) != 10 for x in arcs):
            problems.append(f"{side}: uneven arc sizes")
        standoff = [float(np.hypot(p.translation[1], p.translation[2])) for p in poses]
        if min(standoff) < 0.30 or max(standoff) > 0.40:
            problems.append(f"{side}: standoff [{min(standoff):.3f}, {max(standoff):.3f}]")
    ok = not problems
    _report(7, ok, "40 poses/side, 4 arcs x 10, 15 mm spacing, standoff in [0.30, 0.40] m"
                   + ("" if ok else f"; {problems}"))
    assert ok, problems


# --------------------------------------------------------------- criterion 8

def _golden_pipeline(root: Path, config: Path) -> None:
    dataset = root / "ds"
    steps = [
        ["simulate", "--config", str(config), "--out", str(dataset)],
        ["map", "--dataset", str(dataset), "--side", "A", "--out", str(root / "a.json")],
        ["map", "--dataset", str(dataset), "--side", "B", "--out", str(root / "b.json")],
        ["align", "--map-a", str(root / "a.json"), "--map-b", str(root / "b.json"),
         "--dataset", str(dataset), "--out", str(root / "merged.json")],
        ["eval", "--map", str(root / "merged.json"),
         "--truth", str(dataset / "ground_truth.json"), "--out", str(root / "report.json")],
    ]
    for argv in steps:
        code = main(argv)
        assert code == 0, f"{argv[0]} exited {code}"


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_8_pipeline_determinism():
    started = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"simulate": {"cluster_count": 3, "rng_seed": 17}}))
        runs = (tmp_path / "run1", tmp_path / "run2")
        for run_root in runs:
            run_root.mkdir()
            _golden_pipeline(run_root, config)
        first, second = (_tree_bytes(r) for r in runs)
    elapsed = time.monotonic() - started
    same_files = set(first) == set(second)
    diffs = [k for k in first if same_files and first[k] != second[k]]
    ok = same_files and not diffs and elapsed < 120.0
    _report(8, ok, f"two pipeline runs: {len(first)} artifacts byte-identical"
                   + ("" if ok else f"; differing: {diffs[:5]}") + f"; {elapsed:.0f}s")
    assert ok, diffs


# --------------------------------------------------------------- criterion 9

def test_criterion_9_invariant_suites():
    started = time.monotonic()
    run_merge_idempotence(1000)
    run_matching_conservation(1000)
    run_transform_round_trips(1000)
    run_projection_round_trips(1000)
    elapsed = time.monotonic() - started
    ok = elapsed < 60.0
    _report(9, ok, f"merge idempotence, matching conservation, transform and "
                   f"projection round trips: 1000 seeded cases each; {elapsed:.0f}s")
    assert ok
