"""Tests for matching, count/size metrics, and report emission."""

import dataclasses
import json
import re

import numpy as np
import pytest

from fruitmap._checks import DatasetError, read_json, write_json
from fruitmap.evaluation import (
    EvalReport,
    _sum,
    MatchResult,
    count_accuracy,
    emit_report,
    evaluate_map,
    match_fruitlets,
    precision_recall_f1,
    report_from_json,
    report_to_json,
    size_rmse_percent,
    write_scatter,
)
from fruitmap.records import (
    BranchMap, EvalConfig, FruitletTrack, GroundTruth, GroundTruthFruitlet,
)

from reference_rows import iter_arms


def track(tid, center, diameter=0.012, observations=1, sides=("A",)):
    return FruitletTrack(
        id=tid,
        center=tuple(center),
        diameter=diameter,
        observations=observations,
        sides=frozenset(sides),
    )


def truth_of(centers, diameters=None):
    diameters = diameters or [0.012] * len(centers)
    return GroundTruth(
        fruitlets=tuple(
            GroundTruthFruitlet(id=i, center=tuple(c), diameter=d)
            for i, (c, d) in enumerate(zip(centers, diameters))
        ),
        visibility={},
    )


TOLERANCE = EvalConfig().tolerance


def map_of(tracks):
    return BranchMap(frame_label="A", tracks=tuple(tracks))


# ------------------------------------------------------------------- matching

class TestMatchFruitlets:
    def test_identical_layout_matches_everything_at_zero(self):
        centers = [(0.1, 0.0, 0.4), (0.2, 0.01, 0.4), (0.35, -0.01, 0.38)]
        result = match_fruitlets(map_of([track(i, c) for i, c in enumerate(centers)]),
                                 truth_of(centers), TOLERANCE)
        assert len(result.pairs) == 3
        assert result.unmatched_tracks == () and result.unmatched_truth == ()
        assert all(d == 0.0 for _, _, d in result.pairs)

    def test_extra_track_stays_unmatched(self):
        centers = [(0.1, 0.0, 0.4), (0.2, 0.0, 0.4)]
        tracks = [track(0, (0.1, 0.0, 0.401)), track(1, (0.2, 0.0, 0.399)),
                  track(2, (0.15, 0.0, 0.4))]
        result = match_fruitlets(map_of(tracks), truth_of(centers), TOLERANCE)
        assert len(result.pairs) == 2
        assert result.unmatched_tracks == (2,)
        assert result.unmatched_truth == ()

    def test_tolerance_is_a_hard_gate(self):
        result = match_fruitlets(
            map_of([track(0, (0.1, 0.0, 0.4))]),
            truth_of([(0.1, 0.0, 0.43)]),
            tolerance=0.025,
        )
        assert result.pairs == ()
        assert result.unmatched_tracks == (0,)
        assert result.unmatched_truth == (0,)

    def test_equidistant_tie_goes_to_smaller_track_id(self):
        truth = truth_of([(0.0, 0.0, 0.4)])
        tracks = [track(7, (0.01, 0.0, 0.4)), track(3, (-0.01, 0.0, 0.4))]
        result = match_fruitlets(map_of(tracks), truth, TOLERANCE)
        assert result.pairs == ((3, 0, pytest.approx(0.01)),)
        assert result.unmatched_tracks == (7,)

    def test_equidistant_tie_on_truth_goes_to_smaller_truth_id(self):
        truth = truth_of([(0.01, 0.0, 0.4), (-0.01, 0.0, 0.4)])
        result = match_fruitlets(map_of([track(0, (0.0, 0.0, 0.4))]), truth, TOLERANCE)
        assert result.pairs == ((0, 0, pytest.approx(0.01)),)
        assert result.unmatched_truth == (1,)

    def test_greedy_prefers_globally_nearest_first(self):
        # track 0 is near truth 1, track 1 near truth 0; ascending-distance
        # greedy must not cross-assign
        tracks = [track(0, (0.100, 0.0, 0.4)), track(1, (0.121, 0.0, 0.4))]
        truth = truth_of([(0.120, 0.0, 0.4), (0.102, 0.0, 0.4)])
        result = match_fruitlets(map_of(tracks), truth, TOLERANCE)
        by_track = {t: g for t, g, _ in result.pairs}
        assert by_track == {1: 0, 0: 1}

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        centers = rng.uniform(0, 0.5, size=(12, 3))
        tracks = [track(i, c + rng.normal(0, 0.002, 3)) for i, c in enumerate(centers)]
        truth = truth_of(centers)
        base = match_fruitlets(map_of(tracks), truth, TOLERANCE)
        shuffled = match_fruitlets(map_of(list(reversed(tracks))), truth, TOLERANCE)
        assert set(base.pairs) == set(shuffled.pairs)

    def test_pairs_never_exceed_tolerance(self):
        rng = np.random.default_rng(1)
        tracks = [track(i, c) for i, c in enumerate(rng.uniform(0, 0.3, (20, 3)))]
        truth = truth_of(rng.uniform(0, 0.3, (15, 3)))
        result = match_fruitlets(map_of(tracks), truth, tolerance=0.05)
        assert all(d <= 0.05 for _, _, d in result.pairs)

    def test_empty_inputs(self):
        result = match_fruitlets(map_of([]), truth_of([(0.1, 0.0, 0.4)]), TOLERANCE)
        assert result.pairs == () and result.unmatched_truth == (0,)

    def test_bad_tolerance_rejected(self):
        # A NaN tolerance would match nothing, and inf everything in reach.
        for tolerance in (0.0, float("nan"), float("inf"), True, "0.02"):
            with pytest.raises(ValueError, match=re.escape(
                    f"tolerance must be a finite number > 0, got {tolerance!r}")):
                match_fruitlets(map_of([]), truth_of([]), tolerance=tolerance)

    def test_one_to_one_enforced_by_type(self):
        with pytest.raises(ValueError):
            MatchResult(pairs=((0, 0, 0.0), (0, 1, 0.0)),
                        unmatched_tracks=(), unmatched_truth=())


# -------------------------------------------------------------------- metrics

class TestPrecisionRecallF1:
    def test_reference_f1_cells(self):
        for ground_truth, calc, _, p_ref, r_ref, f1_ref in iter_arms():
            tp = round(p_ref * calc)
            fp = calc - tp
            fn = round(tp / r_ref) - tp
            p, r, f1 = precision_recall_f1(tp, fp, fn)
            assert abs(f1 - f1_ref) <= 0.001 + 1e-9, (ground_truth, calc)
            assert round(p, 3) == pytest.approx(p_ref)
            assert round(r, 3) == pytest.approx(r_ref)

    def test_degenerate_counts_give_zero(self):
        assert precision_recall_f1(0, 0, 5) == (0.0, 0.0, 0.0)
        assert precision_recall_f1(0, 3, 0) == (0.0, 0.0, 0.0)
        assert precision_recall_f1(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_perfect_counts(self):
        assert precision_recall_f1(7, 0, 0) == (1.0, 1.0, 1.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            precision_recall_f1(-1, 0, 0)


class TestCountAccuracy:
    @pytest.mark.parametrize(
        "calc,truth,expected",
        [(63, 52, 78.85), (60, 53, 86.79), (57, 40, 57.50), (59, 61, 96.72)],
    )
    def test_reference_cells(self, calc, truth, expected):
        assert round(count_accuracy(calc, truth), 2) == pytest.approx(expected, abs=0.011)

    def test_exact_count_is_100(self):
        assert count_accuracy(41, 41) == 100.0

    def test_unclamped_below_zero(self):
        assert count_accuracy(110, 50) == pytest.approx(-20.0)

    def test_symmetric_about_truth(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            g = int(rng.integers(1, 120))
            c = int(rng.integers(0, 2 * g + 1))
            assert count_accuracy(c, g) == pytest.approx(count_accuracy(2 * g - c, g))

    def test_nonpositive_truth_rejected(self):
        with pytest.raises(ValueError):
            count_accuracy(10, 0)


class TestSizeRmse:
    def test_perfect_sizes_give_zero(self):
        assert size_rmse_percent([(0.01, 0.01), (0.02, 0.02)]) == 0.0

    def test_single_pair_closed_form(self):
        assert size_rmse_percent([(0.010, 0.01059)]) == pytest.approx(5.9)

    def test_two_pair_hand_arithmetic(self):
        assert size_rmse_percent([(10.0, 9.0), (20.0, 22.0)]) == pytest.approx(10.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            size_rmse_percent([])

    def test_nonpositive_truth_rejected(self):
        with pytest.raises(ValueError):
            size_rmse_percent([(0.0, 0.01)])

    @pytest.mark.parametrize("pair", [
        (0.01,),                   # too short
        (0.01, 0.02, 0.03),        # too long
        ("0.01", 0.02),            # a string
        (float("nan"), 0.01),      # not finite
        (0.01, float("inf")),
        (True, 0.01),              # bool is not a number
        0.01,                      # not a pair
    ])
    def test_malformed_pair_rejected_by_index(self, pair):
        with pytest.raises(ValueError, match=r"^size pair 1 must be two finite numbers, got "):
            size_rmse_percent([(0.01, 0.011), pair])

    def test_nonpositive_truth_named_by_index(self):
        with pytest.raises(ValueError, match=r"^size pair 2: truth diameter must be positive, got -"):
            size_rmse_percent([(0.01, 0.011), (0.02, 0.02), (-0.01, 0.01)])


# Pinned to the installed numpy, like _draw_quads to Generator.choice: the
# plain-Python arithmetic must equal the numpy expressions it replaced bit for
# bit, so that eval's report bytes do not move.

def test_sum_is_numpy_pairwise_sum():
    rng = np.random.default_rng(11)
    for n in range(1, 301):
        for values in (rng.random(n), rng.normal(0.0, 1e3, n) ** 3):
            assert _sum(values.tolist()) == np.add.reduce(values), n


def test_size_rmse_equals_numpy_expression():
    rng = np.random.default_rng(12)
    for n in [*range(1, 40), 127, 128, 129, 255, 256, 257, 1000]:
        truth = rng.uniform(0.005, 0.03, n)
        est = truth * rng.normal(1.0, 0.1, n)
        arr = np.column_stack([truth, est])
        expected = float(100.0 * np.sqrt(np.mean(((arr[:, 1] - arr[:, 0]) / arr[:, 0]) ** 2)))
        assert size_rmse_percent(arr.tolist()) == expected, n


def test_matching_equals_numpy_distances():
    rng = np.random.default_rng(13)
    for _ in range(200):
        t_centers = rng.uniform(-0.1, 0.1, (int(rng.integers(0, 30)), 3)) + (0.0, 0.0, 0.4)
        g_centers = rng.uniform(-0.1, 0.1, (int(rng.integers(0, 30)), 3)) + (0.0, 0.0, 0.4)
        tracks = [track(int(i), c) for i, c in zip(rng.permutation(100), t_centers)]
        truth = truth_of(g_centers.tolist())
        expected = []
        if len(t_centers) and len(g_centers):
            dists = np.linalg.norm(t_centers[:, None, :] - g_centers[None, :, :], axis=2)
            expected = sorted(
                (float(dists[ti, gi]), tracks[ti].id, int(gi))
                for ti, gi in zip(*np.nonzero(dists <= TOLERANCE))
            )
        result = match_fruitlets(map_of(tracks), truth, TOLERANCE)
        used_t, used_g, pairs = set(), set(), []
        for dist, t, g in expected:
            if t not in used_t and g not in used_g:
                used_t.add(t), used_g.add(g), pairs.append((t, g, dist))
        assert result.pairs == tuple(pairs)


# ---------------------------------------------------------------- evaluate_map

class TestEvaluateMap:
    def build(self):
        truth = truth_of(
            [(0.1, 0.0, 0.4), (0.2, 0.0, 0.4), (0.3, 0.0, 0.4)],
            diameters=[0.010, 0.020, 0.015],
        )
        tracks = [
            track(0, (0.101, 0.0, 0.4), diameter=0.011),
            track(1, (0.199, 0.0, 0.4), diameter=0.019),
            track(2, (0.7, 0.0, 0.4), diameter=0.012),  # spurious
        ]
        return map_of(tracks), truth

    def test_counts_and_conservation(self):
        branch_map, truth = self.build()
        report = evaluate_map(branch_map, truth)
        assert (report.tp, report.fp, report.fn) == (2, 1, 1)
        assert report.tp + report.fp == len(branch_map.tracks)
        assert report.tp + report.fn == len(truth.fruitlets)
        assert report.count_accuracy_pct == pytest.approx(100.0)  # 3 vs 3

    def test_size_pairs_are_truth_then_estimate(self):
        branch_map, truth = self.build()
        report = evaluate_map(branch_map, truth)
        assert sorted(report.size_pairs) == [(0.010, 0.011), (0.020, 0.019)]
        expected = 100 * np.sqrt(((0.001 / 0.010) ** 2 + (0.001 / 0.020) ** 2) / 2)
        assert report.size_rmse_pct == pytest.approx(expected)

    def test_no_matches_means_no_size_rmse(self):
        report = evaluate_map(map_of([track(0, (0.9, 0.0, 0.4))]),
                              truth_of([(0.1, 0.0, 0.4)]))
        assert report.size_rmse_pct is None
        assert report.size_pairs == ()
        assert (report.tp, report.fp, report.fn) == (0, 1, 1)
        assert report.f1 == 0.0

    @pytest.mark.parametrize(
        "options, needle",
        [
            ({"tolerance": None}, "tolerance"),
            ({"tolerance": {}}, "tolerance"),
            ({"tolerance": True}, "tolerance"),
            ({"tolerance": "0.025"}, "tolerance"),
            ({"tolerance": float("nan")}, "tolerance"),
            ({"tolerance": 0.0}, "tolerance"),
        ],
        ids=["null", "object", "bool", "string", "nan", "zero"],
    )
    def test_options_checked_before_matching(self, options, needle):
        branch_map, truth = self.build()
        with pytest.raises(ValueError, match=needle):
            evaluate_map(branch_map, truth, EvalConfig(**options))


# ------------------------------------------------------------------ reporting

def sample_report():
    return EvalReport(
        tp=48, fp=15, fn=4,
        precision=48 / 63, recall=48 / 52, f1=2 * (48/63) * (48/52) / (48/63 + 48/52),
        count_accuracy_pct=count_accuracy(63, 52),
        size_rmse_pct=5.9,
        size_pairs=((0.010, 0.01059), (0.02, 0.019)),
    )


class TestReporting:
    def test_json_round_trip(self, tmp_path):
        report = sample_report()
        write_json(tmp_path / "report.json", report_to_json(report), sort_keys=True)
        assert report_from_json(read_json(tmp_path / "report.json")) == report

    def test_json_ignores_foreign_keys(self):
        doc = report_to_json(sample_report())
        doc["provenance"] = {"seed": 0}
        assert report_from_json(doc) == sample_report()

    def test_json_accepts_unsized_report(self, tmp_path):
        report = dataclasses.replace(sample_report(), size_rmse_pct=None, size_pairs=())
        write_json(tmp_path / "report.json", report_to_json(report), sort_keys=True)
        assert report_from_json(read_json(tmp_path / "report.json")) == report

    @pytest.mark.parametrize(
        "drop, edit, needles",
        [
            (("fp", "size_rmse_pct"), {}, ("missing", "fp", "size_rmse_pct")),
            ((), {"tp": "48"}, ("must be", "tp")),
            ((), {"fn": True}, ("must be", "fn")),
            ((), {"f1": float("nan"), "recall": None}, ("must be", "recall", "f1")),
            ((), {"size_rmse_pct": "5.9"}, ("must be", "size_rmse_pct")),
            ((), {"size_pairs": [[0.01]]}, ("must be", "size_pairs")),
            ((), {"size_pairs": {"a": 1}}, ("must be", "size_pairs")),
            ((), {"tp": "48", "size_pairs": [[0.01]]}, ("must be", "tp", "size_pairs")),
            ((), {"tp": -5, "fn": -3}, ("tp must be an integer >= 0, got -5",
                                        "fn must be an integer >= 0, got -3")),
        ],
    )
    def test_json_rejects_missing_or_mistyped_fields(self, drop, edit, needles):
        doc = report_to_json(sample_report())
        for name in drop:
            del doc[name]
        doc.update(edit)
        with pytest.raises(DatasetError) as info:
            report_from_json(doc)
        for needle in needles:
            assert needle in str(info.value)

    @pytest.mark.parametrize("text", ["[]", "3", '"report"', "null"])
    def test_json_rejects_non_objects(self, text):
        with pytest.raises(DatasetError, match="expected an object"):
            report_from_json(json.loads(text))

    def test_csv_carries_reference_accuracy_cell(self, tmp_path):
        path = emit_report(sample_report(), tmp_path / "table.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "ground_truth,calculated,accuracy,precision,recall,f1"
        row = lines[1].split(",")
        assert row[0] == "52" and row[1] == "63"
        assert row[2] == "78.85"

    def test_scatter_rows_match_size_pairs(self, tmp_path):
        report = sample_report()
        path = write_scatter(report, tmp_path / "sizes.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(report.size_pairs)
        first = lines[1].split(",")
        assert float(first[0]) == 0.010 and float(first[1]) == 0.01059
