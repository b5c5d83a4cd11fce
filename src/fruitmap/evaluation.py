"""Map-versus-truth evaluation: matching, count metrics, size error, reports.

Matching is greedy by ascending center distance with a (track id, truth id)
tie-break, which gives a total order and therefore input-order invariance.
At realistic fruitlet spacings (well above the match tolerance) it agrees
with optimal assignment; optimality is a non-goal.

The arithmetic is plain Python, so eval and report start without numpy. It
adds in numpy's order (a distance's squares as np.linalg.norm sums them, a
mean as np.mean's pairwise sum), so every metric equals the numpy
expression it replaced bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from ._checks import DatasetError, check_types, from_doc, is_finite_pair, is_finite_real

if TYPE_CHECKING:  # annotations only: report needs no records
    from .records import BranchMap, GroundTruth

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
        check_types(self)
        negative = [f"{name} must be non-negative, got {getattr(self, name)}"
                    for name in ("tp", "fp", "fn") if getattr(self, name) < 0]
        if negative:
            raise ValueError("; ".join(negative))
        object.__setattr__(self, "size_pairs", tuple(tuple(p) for p in self.size_pairs))


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
    candidates: list[tuple[float, int, int]] = []
    for track in branch_map.tracks:
        tx, ty, tz = track.center
        for fruitlet in truth.fruitlets:
            gx, gy, gz = fruitlet.center
            dx, dy, dz = tx - gx, ty - gy, tz - gz
            # (dx^2 + dy^2) + dz^2, the order np.linalg.norm(..., axis=-1) sums in
            dist = math.sqrt((dx * dx + dy * dy) + dz * dz)
            if dist <= tolerance:
                candidates.append((dist, track.id, fruitlet.id))
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
        unmatched_tracks=tuple(t.id for t in branch_map.tracks if t.id not in used_tracks),
        unmatched_truth=tuple(f.id for f in truth.fruitlets if f.id not in used_truth),
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


def _sum(values: list[float]) -> float:
    """np.add.reduce of a float64 array, bit for bit: numpy's pairwise sum.

    A plain loop below 8 values, eight running lanes up to 128, and above that
    the sums of two halves split at a multiple of 8. Python's sum() rounds
    differently (compensated from 3.12), and so does math.fsum.
    """
    n = len(values)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _sum(values[:half]) + _sum(values[half:])
    total, rest = 0.0, values
    if n >= 8:
        stop = n - n % 8
        lanes = values[:8]
        for start in range(8, stop, 8):
            lanes = [lane + value for lane, value in zip(lanes, values[start:start + 8])]
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        )
        rest = values[stop:]
    for value in rest:
        total += value
    return total


def size_rmse_percent(pairs: Iterable[tuple[float, float]]) -> float:
    """RMSE of per-fruit relative size errors, in percent.

    Taken over matched (truth_diameter, estimated_diameter) pairs: the
    paper's "within 5.9% RMSE of their true size". Each pair must be two
    finite numbers with a positive truth diameter; ValueError names the
    first pair that is not.
    """
    squares = []
    for index, pair in enumerate(pairs):
        if not is_finite_pair(pair):
            raise ValueError(f"size pair {index} must be two finite numbers, got {pair!r}")
        truth, est = float(pair[0]), float(pair[1])
        if truth <= 0:
            raise ValueError(
                f"size pair {index}: truth diameter must be positive, got {pair[0]!r}"
            )
        q = (est - truth) / truth
        squares.append(q * q)
    if not squares:
        raise ValueError("size_rmse_percent needs at least one pair")
    return 100.0 * math.sqrt(_sum(squares) / len(squares))


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


def emit_report(report: EvalReport, path: Path | str) -> Path:
    """Write the CSV count table: a header and report's row, values rounded to 2 places.

    Report JSON comes from report_to_json, which keeps full precision.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("ground_truth", "calculated", "accuracy", "precision", "recall", "f1"))
        writer.writerow((
            str(report.tp + report.fn),
            str(report.tp + report.fp),
            f"{report.count_accuracy_pct:.2f}",
            f"{report.precision:.2f}",
            f"{report.recall:.2f}",
            f"{report.f1:.2f}",
        ))
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
