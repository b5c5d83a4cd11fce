"""On-disk scan layout, raster formats, and per-instance cloud extraction.

A scan dataset is a directory:

    <root>/manifest.json
    <root>/sides/<SIDE>/fiducial.json          {"pose": [16 row-major reals]}
    <root>/sides/<SIDE>/frames/<idx>.json
    <root>/sides/<SIDE>/depth/<idx>.f32        headerless little-endian float32, row-major
    <root>/sides/<SIDE>/masks/<idx>.pgm        binary P5, maxval 65535, 16-bit instance ids
    <root>/ground_truth.json                   optional

Frame JSON carries the camera-to-side pose (row-major 4x4), pinhole intrinsics,
and relative paths to its two rasters. Invalid depth pixels are non-finite or
non-positive. Mask value 0 is background; any positive value is an instance id.
Everything is validated eagerly at load time with diagnostics naming the
offending file.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .geometry import CameraIntrinsics, RigidTransform, backproject

__all__ = [
    "DatasetError",
    "FrameRecord",
    "FiducialObservation",
    "ScanDataset",
    "GroundTruthFruitlet",
    "GroundTruth",
    "read_depth_raster",
    "write_depth_raster",
    "read_mask_raster",
    "write_mask_raster",
    "load_dataset",
    "load_ground_truth",
    "write_dataset",
    "write_ground_truth",
    "extract_instance_clouds",
    "DEFAULT_MIN_POINTS",
]

log = logging.getLogger(__name__)

DEFAULT_MIN_POINTS = 30
FORMAT_VERSION = "1"


class DatasetError(ValueError):
    """A scan dataset failed validation."""


@dataclass(frozen=True)
class FrameRecord:
    frame_index: int
    pose: RigidTransform                 # camera-to-side
    intrinsics: CameraIntrinsics
    depth: np.ndarray                    # float32 (height, width), invalid = NaN or <= 0
    masks: np.ndarray                    # uint16 (height, width), 0 = background

    def __post_init__(self) -> None:
        h, w = self.intrinsics.height, self.intrinsics.width
        if self.depth.shape != (h, w):
            raise DatasetError(
                f"frame {self.frame_index}: depth raster {self.depth.shape} does not match "
                f"intrinsics {h}x{w}"
            )
        if self.masks.shape != self.depth.shape:
            raise DatasetError(
                f"frame {self.frame_index}: mask raster {self.masks.shape} does not match "
                f"depth raster {self.depth.shape}"
            )


@dataclass(frozen=True)
class FiducialObservation:
    side: str
    pose: RigidTransform                 # fiducial-to-side


@dataclass(frozen=True)
class GroundTruthFruitlet:
    id: int
    center: tuple[float, float, float]   # scene frame == side A frame
    diameter: float


@dataclass(frozen=True)
class GroundTruth:
    fruitlets: tuple[GroundTruthFruitlet, ...]
    visibility: dict[str, dict[int, int]] = field(default_factory=dict)

    def centers(self) -> np.ndarray:
        return np.array([f.center for f in self.fruitlets], dtype=float).reshape(-1, 3)


@dataclass(frozen=True)
class ScanDataset:
    root: Path | None
    dataset_id: str
    sides: tuple[str, ...]
    frames: dict[str, tuple[FrameRecord, ...]]
    fiducials: dict[str, FiducialObservation]
    ground_truth: GroundTruth | None = None


# ---------------------------------------------------------------- raster I/O

def write_depth_raster(path: Path, depth: np.ndarray) -> None:
    arr = np.asarray(depth, dtype="<f4")
    path.write_bytes(arr.tobytes(order="C"))


def read_depth_raster(path: Path, width: int, height: int) -> np.ndarray:
    data = path.read_bytes()
    expected = width * height * 4
    if len(data) != expected:
        raise DatasetError(
            f"{path}: depth raster holds {len(data)} bytes, expected {expected} "
            f"for {width}x{height} float32"
        )
    return np.frombuffer(data, dtype="<f4").reshape(height, width).copy()


def write_mask_raster(path: Path, masks: np.ndarray) -> None:
    arr = np.asarray(masks)
    if arr.dtype != np.uint16:
        if np.any(arr < 0) or np.any(arr > 65535):
            raise ValueError("mask ids must fit in uint16")
        arr = arr.astype(np.uint16)
    h, w = arr.shape
    header = f"P5\n{w} {h}\n65535\n".encode("ascii")
    path.write_bytes(header + arr.astype(">u2").tobytes(order="C"))


def read_mask_raster(path: Path) -> np.ndarray:
    data = path.read_bytes()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if not m:
        raise DatasetError(f"{path}: not a binary PGM (P5) file")
    w, h, maxval = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if maxval != 65535:
        raise DatasetError(f"{path}: mask PGM maxval must be 65535, got {maxval}")
    pixels = data[m.end():]
    expected = w * h * 2
    if len(pixels) != expected:
        raise DatasetError(
            f"{path}: mask raster holds {len(pixels)} sample bytes, expected {expected}"
        )
    return np.frombuffer(pixels, dtype=">u2").reshape(h, w).astype(np.uint16)


# ---------------------------------------------------------------- loading

def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path}: malformed JSON: {exc}") from exc


def _load_pose(values, where: str) -> RigidTransform:
    try:
        return RigidTransform.from_flat16(values)
    except ValueError as exc:
        raise DatasetError(f"{where}: invalid pose: {exc}") from exc


def load_ground_truth(path: Path) -> GroundTruth:
    doc = _read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("fruitlets"), list):
        raise DatasetError(f"{path}: missing 'fruitlets' list")
    fruitlets = []
    for index, entry in enumerate(doc["fruitlets"]):
        try:
            center = tuple(float(x) for x in entry["center"])
            if len(center) != 3:
                raise ValueError(f"center needs 3 coordinates, got {len(center)}")
            fruitlets.append(
                GroundTruthFruitlet(
                    id=int(entry["id"]), center=center, diameter=float(entry["diameter"])
                )
            )
        except KeyError as exc:
            raise DatasetError(f"{path}: fruitlet entry {index}: missing {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"{path}: fruitlet entry {index}: {exc}") from exc
    visibility: dict[str, dict[int, int]] = {}
    try:
        for side, counts in doc.get("visibility", {}).items():
            visibility[side] = {int(k): int(v) for k, v in counts.items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise DatasetError(f"{path}: invalid 'visibility': {exc}") from exc
    return GroundTruth(fruitlets=tuple(fruitlets), visibility=visibility)


def load_dataset(root: Path | str) -> ScanDataset:
    """Load and eagerly validate a scan dataset directory."""
    root = Path(root)
    if not root.exists():
        raise FileNotFoundError(f"dataset root {root} does not exist")
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"manifest missing: {manifest_path}")
    manifest = _read_json(manifest_path)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise DatasetError(
            f"{manifest_path}: format_version {manifest.get('format_version')!r}, "
            f"expected {FORMAT_VERSION!r}"
        )
    if manifest.get("units") != "meters":
        raise DatasetError(f"{manifest_path}: units must be 'meters'")
    sides = tuple(manifest.get("sides", []))
    if not sides:
        raise DatasetError(f"{manifest_path}: empty side list")

    frames: dict[str, tuple[FrameRecord, ...]] = {}
    fiducials: dict[str, FiducialObservation] = {}
    for side in sides:
        side_dir = root / "sides" / side
        fid_path = side_dir / "fiducial.json"
        if not fid_path.exists():
            raise DatasetError(f"fiducial missing for side {side}: {fid_path}")
        fid_doc = _read_json(fid_path)
        if "pose" not in fid_doc:
            raise DatasetError(f"{fid_path}: missing 'pose'")
        fiducials[side] = FiducialObservation(
            side=side, pose=_load_pose(fid_doc["pose"], str(fid_path))
        )

        frames_dir = side_dir / "frames"
        if not frames_dir.is_dir():
            raise FileNotFoundError(f"frames directory missing for side {side}: {frames_dir}")
        records = []
        seen: set[int] = set()
        for frame_path in sorted(frames_dir.glob("*.json")):
            doc = _read_json(frame_path)
            for key in ("frame_index", "pose", "intrinsics", "depth", "masks"):
                if key not in doc:
                    raise DatasetError(f"{frame_path}: missing '{key}'")
            idx = int(doc["frame_index"])
            if idx in seen:
                raise DatasetError(f"{frame_path}: duplicate frame_index {idx} on side {side}")
            seen.add(idx)
            try:
                intr = CameraIntrinsics.from_dict(doc["intrinsics"])
            except (KeyError, ValueError) as exc:
                raise DatasetError(f"{frame_path}: invalid intrinsics: {exc}") from exc
            pose = _load_pose(doc["pose"], str(frame_path))
            depth_path = side_dir / doc["depth"]
            mask_path = side_dir / doc["masks"]
            if not depth_path.exists():
                raise FileNotFoundError(f"depth raster missing: {depth_path}")
            if not mask_path.exists():
                raise FileNotFoundError(f"mask raster missing: {mask_path}")
            depth = read_depth_raster(depth_path, intr.width, intr.height)
            masks = read_mask_raster(mask_path)
            if masks.shape != depth.shape:
                raise DatasetError(
                    f"dimension mismatch: {mask_path} is {masks.shape[1]}x{masks.shape[0]} "
                    f"but {depth_path} is {intr.width}x{intr.height}"
                )
            try:
                records.append(
                    FrameRecord(frame_index=idx, pose=pose, intrinsics=intr,
                                depth=depth, masks=masks)
                )
            except DatasetError as exc:
                raise DatasetError(f"{frame_path}: {exc}") from exc
        records.sort(key=lambda r: r.frame_index)
        indices = [r.frame_index for r in records]
        if indices != list(range(len(records))):
            raise DatasetError(
                f"side {side}: frame indices {indices} are not gap-free from 0"
            )
        frames[side] = tuple(records)

    gt_path = root / "ground_truth.json"
    ground_truth = load_ground_truth(gt_path) if gt_path.exists() else None
    return ScanDataset(
        root=root,
        dataset_id=str(manifest.get("dataset_id", "")),
        sides=sides,
        frames=frames,
        fiducials=fiducials,
        ground_truth=ground_truth,
    )


# ---------------------------------------------------------------- writing

AXIS_CONVENTION = "camera: +z forward, +x right, +y down; poses camera-to-side, row-major 4x4"


def _dump_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")


def write_ground_truth(path: Path, truth: GroundTruth) -> None:
    doc = {
        "fruitlets": [
            {"id": f.id, "center": list(f.center), "diameter": f.diameter}
            for f in truth.fruitlets
        ],
        "visibility": {
            side: {str(k): v for k, v in sorted(counts.items())}
            for side, counts in sorted(truth.visibility.items())
        },
    }
    _dump_json(path, doc)


def write_dataset(
    dataset: ScanDataset,
    root: Path | str,
    extra_manifest: Mapping[str, object] | None = None,
) -> Path:
    """Write a dataset directory in the documented layout. Deterministic bytes.

    extra_manifest entries are merged into manifest.json; they must not
    shadow the layout's own keys.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, object] = {
        "format_version": FORMAT_VERSION,
        "dataset_id": dataset.dataset_id,
        "units": "meters",
        "axis_convention": AXIS_CONVENTION,
        "sides": list(dataset.sides),
    }
    for key, value in (extra_manifest or {}).items():
        if key in manifest:
            raise ValueError(f"extra_manifest must not override manifest key {key!r}")
        manifest[key] = value
    _dump_json(root / "manifest.json", manifest)
    for side in dataset.sides:
        side_dir = root / "sides" / side
        for sub in ("frames", "depth", "masks"):
            (side_dir / sub).mkdir(parents=True, exist_ok=True)
        _dump_json(side_dir / "fiducial.json", {"pose": dataset.fiducials[side].pose.flat16()})
        for rec in dataset.frames[side]:
            idx = rec.frame_index
            write_depth_raster(side_dir / "depth" / f"{idx}.f32", rec.depth)
            write_mask_raster(side_dir / "masks" / f"{idx}.pgm", rec.masks)
            _dump_json(
                side_dir / "frames" / f"{idx}.json",
                {
                    "frame_index": idx,
                    "pose": rec.pose.flat16(),
                    "intrinsics": rec.intrinsics.as_dict(),
                    "depth": f"depth/{idx}.f32",
                    "masks": f"masks/{idx}.pgm",
                },
            )
    if dataset.ground_truth is not None:
        write_ground_truth(root / "ground_truth.json", dataset.ground_truth)
    return root


# ---------------------------------------------------------------- extraction

def extract_instance_clouds(
    frame: FrameRecord, min_points: int = DEFAULT_MIN_POINTS
) -> list[tuple[int, np.ndarray]]:
    """Per-instance point clouds in the side frame, ascending instance id.

    A pixel contributes when its mask id is positive and its depth is finite
    and positive. Instances with fewer contributing pixels than min_points are
    dropped.

    One pass finds every contributing pixel; a stable sort on instance id then
    groups them, so each instance's pixels keep their row-major order.
    """
    depth = frame.depth
    rows, cols = np.nonzero(np.isfinite(depth) & (depth > 0) & (frame.masks > 0))
    ids = frame.masks[rows, cols]
    order = np.argsort(ids, kind="stable")
    rows, cols, ids = rows[order], cols[order], ids[order]
    instance_ids, starts = np.unique(ids, return_index=True)
    out: list[tuple[int, np.ndarray]] = []
    for instance_id, start, stop in zip(instance_ids, starts, [*starts[1:], len(ids)]):
        if stop - start < min_points:
            continue
        r, c = rows[start:stop], cols[start:stop]
        cam_pts = backproject(
            frame.intrinsics, c.astype(float), r.astype(float), depth[r, c].astype(float)
        )
        out.append((int(instance_id), frame.pose.apply(cam_pts)))
    return out
