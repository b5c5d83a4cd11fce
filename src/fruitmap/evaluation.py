"""Map-versus-truth evaluation: matching, count metrics, size error, reports.

Matching is greedy by ascending center distance with a (track id, truth id)
tie-break, which gives a total order and therefore input-order invariance.
At realistic fruitlet spacings (well above the match tolerance) it agrees
with optimal assignment; optimality is a non-goal.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._checks import check_types, from_doc, is_finite_real
from .dataset import DatasetError, GroundTruth
from .mapping import BranchMap

__all__ = [
    "MATCH_TOLERANCE",
    "MatchResult",
    "EvalReport",
    "match_fruitlets",
    "precision_recall_f1",
    "count_accuracy",
    "size_rmse_percent",
    "evaluate_map",
    "report_to_json",
    "report_from_json",
    "emit_report",
    "write_scatter",
]

MATCH_TOLERANCE = 0.025  # m, center-to-center


@dataclass(frozen=True)
class MatchResult:
    """One-to-one assignment between map tracks and ground-truth fruitlets."""

    pairs: tuple[tuple[int, int, float], ...]  # (track_id, truth_id, distance m)
    unmatched_tracks: tuple[int, ...]
    unmatched_truth: tuple[int, ...]

    def __post_init__(self) -> None:
        track_ids = [t for t, _, _ in self.pairs]
        truth_ids = [g for _, g, _ in self.pairs]
        if len(set(track_ids)) != len(track_ids) or len(set(truth_ids)) != len(truth_ids):
            raise ValueError("matching must be one-to-one")


@dataclass(frozen=True)
class EvalReport:
    """Every scalar the reporting surface needs for one map-versus-truth run."""

    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    count_accuracy_pct: float
    size_rmse_pct: float | None
    size_pairs: tuple[tuple[float, float], ...] = field(default=())
    # (truth_diameter, estimated_diameter) per matched pair, meters

    def __post_init__(self) -> None:
        sized = () if self.size_rmse_pct is None else ("size_rmse_pct",)
        pairs = self.size_pairs
        paired = isinstance(pairs, (list, tuple)) and all(
            isinstance(p, (list, tuple)) and len(p) == 2 and all(map(is_finite_real, p))
            for p in pairs
        )
        check_types(
            self,
            integers=("tp", "fp", "fn"),
            reals=("precision", "recall", "f1", "count_accuracy_pct", *sized),
            also=() if paired else ("size_pairs must be a list of pairs of finite numbers",),
        )
        negative = [f"{name} must be non-negative, got {getattr(self, name)}"
                    for name in ("tp", "fp", "fn") if getattr(self, name) < 0]
        if negative:
            raise ValueError("; ".join(negative))
        object.__setattr__(self, "size_pairs", tuple(tuple(p) for p in pairs))


def match_fruitlets(
    branch_map: BranchMap, truth: GroundTruth, tolerance: float = MATCH_TOLERANCE
) -> MatchResult:
    """Greedy one-to-one matching by ascending center distance.

    Candidate (track, truth) pairs farther apart than the tolerance are never
    matched. Ties on distance fall to the smaller track id, then truth id.
    Both inputs must be expressed in the same coordinate frame.
    """
    if not (is_finite_real(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be a finite number > 0, got {tolerance!r}")
    tracks = branch_map.tracks
    fruit = truth.fruitlets
    candidates: list[tuple[float, int, int]] = []
    if tracks and fruit:
        t_centers = np.array([t.center for t in tracks])
        g_centers = np.array([f.center for f in fruit])
        dists = np.linalg.norm(t_centers[:, None, :] - g_centers[None, :, :], axis=2)
        for ti, gi in zip(*np.nonzero(dists <= tolerance)):
            candidates.append((float(dists[ti, gi]), tracks[ti].id, fruit[gi].id))
    candidates.sort()
    used_tracks: set[int] = set()
    used_truth: set[int] = set()
    pairs: list[tuple[int, int, float]] = []
    for dist, track_id, truth_id in candidates:
        if track_id in used_tracks or truth_id in used_truth:
            continue
        used_tracks.add(track_id)
        used_truth.add(truth_id)
        pairs.append((track_id, truth_id, dist))
    return MatchResult(
        pairs=tuple(pairs),
        unmatched_tracks=tuple(t.id for t in tracks if t.id not in used_tracks),
        unmatched_truth=tuple(f.id for f in fruit if f.id not in used_truth),
    )


def precision_recall_f1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall, and their harmonic mean; zero denominators give 0."""
    if min(tp, fp, fn) < 0:
        raise ValueError("counts must be non-negative")
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return precision, recall, f1


def count_accuracy(calculated: int, ground_truth: int) -> float:
    """(1 - |calculated - truth| / truth) * 100, unclamped.

    Symmetric about the truth count, so overcounting is penalized exactly
    like undercounting and the result goes negative past double the truth.
    """
    if ground_truth <= 0:
        raise ValueError("ground_truth must be positive")
    return (1.0 - abs(calculated - ground_truth) / ground_truth) * 100.0


def size_rmse_percent(pairs: Iterable[tuple[float, float]]) -> float:
    """RMSE of per-fruit relative size errors, in percent.

    Taken over matched (truth_diameter, estimated_diameter) pairs: the
    paper's "within 5.9% RMSE of their true size".
    """
    arr = np.asarray(list(pairs), dtype=float)
    if arr.size == 0:
        raise ValueError("size_rmse_percent needs at least one pair")
    truth, est = arr[:, 0], arr[:, 1]
    if np.any(truth <= 0):
        raise ValueError("truth diameters must be positive")
    return float(100.0 * np.sqrt(np.mean(((est - truth) / truth) ** 2)))


def evaluate_map(
    branch_map: BranchMap,
    truth: GroundTruth,
    tolerance: float = MATCH_TOLERANCE,
) -> EvalReport:
    """Match and roll every metric into one report.

    match_fruitlets checks the tolerance. tp + fp always equals the map's
    track count and tp + fn the truth count. size_rmse_pct, the per-fruit
    relative error of size_rmse_percent, is None when nothing matched.
    """
    result = match_fruitlets(branch_map, truth, tolerance)
    tp = len(result.pairs)
    fp = len(result.unmatched_tracks)
    fn = len(result.unmatched_truth)
    precision, recall, f1 = precision_recall_f1(tp, fp, fn)
    diameters = {t.id: t.diameter for t in branch_map.tracks}
    truth_diameters = {f.id: f.diameter for f in truth.fruitlets}
    size_pairs = tuple(
        (truth_diameters[truth_id], diameters[track_id])
        for track_id, truth_id, _ in result.pairs
    )
    return EvalReport(
        tp=tp,
        fp=fp,
        fn=fn,
        precision=precision,
        recall=recall,
        f1=f1,
        count_accuracy_pct=count_accuracy(len(branch_map.tracks), len(truth.fruitlets)),
        size_rmse_pct=size_rmse_percent(size_pairs) if size_pairs else None,
        size_pairs=size_pairs,
    )


# ------------------------------------------------------------------ reporting

def report_to_json(report: EvalReport) -> dict:
    """Plain-JSON form; written with sorted keys, floats keep full precision."""
    doc = asdict(report)
    doc["size_pairs"] = [list(p) for p in report.size_pairs]
    return doc


def report_from_json(doc: object) -> EvalReport:
    """The EvalReport a report_to_json document describes; DatasetError if malformed.

    Keys that are not report fields, such as provenance, are ignored.
    """
    try:
        return from_doc(EvalReport, doc)
    except ValueError as exc:
        raise DatasetError(f"malformed evaluation report: {exc}") from exc


_CSV_COLUMNS = ("ground_truth", "calculated", "accuracy", "precision", "recall", "f1")


def _csv_row(report: EvalReport) -> list[str]:
    return [
        str(report.tp + report.fn),
        str(report.tp + report.fp),
        f"{report.count_accuracy_pct:.2f}",
        f"{report.precision:.2f}",
        f"{report.recall:.2f}",
        f"{report.f1:.2f}",
    ]


def emit_report(report: EvalReport | Sequence[EvalReport], path: Path | str) -> Path:
    """Write the CSV count table: one row per report, values rounded to 2 places.

    Report JSON comes from report_to_json, which keeps full precision.
    """
    path = Path(path)
    reports = [report] if isinstance(report, EvalReport) else list(report)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_COLUMNS)
        for rep in reports:
            writer.writerow(_csv_row(rep))
    return path


def write_scatter(report: EvalReport, path: Path | str) -> Path:
    """Matched (truth, estimated) diameters as a two-column CSV, full precision."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("truth_diameter_m", "estimated_diameter_m"))
        for truth_d, est_d in report.size_pairs:
            writer.writerow((repr(float(truth_d)), repr(float(est_d))))
    return path
