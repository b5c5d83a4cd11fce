"""On-disk scan layout, raster formats, and per-instance cloud extraction.

A scan dataset is a directory:

    <root>/manifest.json
    <root>/sides/<SIDE>/fiducial.json          {"pose": [16 row-major reals]}
    <root>/sides/<SIDE>/frames/<idx>.json
    <root>/sides/<SIDE>/depth/<idx>.f32        headerless little-endian float32, row-major
    <root>/sides/<SIDE>/masks/<idx>.pgm        binary P5, maxval 65535, 16-bit instance ids
    <root>/ground_truth.json                   optional; read by records.load_ground_truth alone

Frame JSON carries the camera-to-side pose (row-major 4x4), pinhole intrinsics,
and relative paths to its two rasters. Invalid depth pixels are non-finite or
non-positive. Mask value 0 is background; any positive value is an instance id.
The ground truth JSON carries dataset_id, frame_label (the first side, whose
frame its centers are in), the fruitlets and their per-side visibility counts;
its record, GroundTruth, and its writer and reader live in records, which eval
loads without numpy.

A fiducial pose, like every pose, must pass _checks.check_pose. A dataset
holds each side's fiducial as its on-disk encoding, a tuple of 16 row-major
floats, which tracks.cross_side_transform takes as it is.

load_dataset validates the JSON documents, the frame indices and the raster
paths, with diagnostics naming the offending file, and opens no raster. The
manifest and the fiducials are read by records.load_scan_header, which align
calls alone, without numpy. A loaded side's frames are a sequence that reads
and checks a frame's two rasters each time that frame is accessed: the depth
byte count, the mask's P5 header and sample byte count, and that the two
rasters' dimensions match. So a raster is checked in the process that reads
it, and a process fitting frames one at a time holds one frame's pixels.

write_dataset and simulator.export_dataset first clear an old scan at root
(clear_scan) and write the manifest last, so a write that stops part way
leaves no dataset that loads.
"""

from __future__ import annotations

import os
import re
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# DatasetError lives in _checks, which imports no numpy, so that report runs
# without it; __all__ re-exports it, since this module's loaders raise it.
from ._checks import (
    DatasetError,
    from_doc,
    is_int,
    read_json,
    write_json,
)
from .geometry import CameraIntrinsics, RigidTransform, backproject
from .records import FORMAT_VERSION, GroundTruth, load_scan_header, save_ground_truth

__all__ = [
    "DatasetError",
    "FrameRecord",
    "ScanDataset",
    "read_depth_raster",
    "write_depth_raster",
    "read_mask_raster",
    "write_mask_raster",
    "load_dataset",
    "write_dataset",
    "write_frame",
    "clear_scan",
    "extract_instance_clouds",
    "DEFAULT_MIN_POINTS",
]

DEFAULT_MIN_POINTS = 30


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
class ScanDataset:
    dataset_id: str
    sides: tuple[str, ...]
    frames: dict[str, Sequence[FrameRecord]]    # the sides whose frames were loaded
    fiducials: dict[str, tuple[float, ...]]     # fiducial-to-side pose per side, flat16
    ground_truth: GroundTruth | None = None


# ---------------------------------------------------------------- raster I/O

def write_depth_raster(path: Path, depth: np.ndarray) -> None:
    arr = np.asarray(depth, dtype="<f4")
    path.write_bytes(arr.tobytes(order="C"))


def _check_depth_bytes(path: Path, size: int, width: int, height: int) -> None:
    expected = width * height * 4
    if size != expected:
        raise DatasetError(
            f"{path}: depth raster holds {size} bytes, expected {expected} "
            f"for {width}x{height} float32"
        )


def read_depth_raster(path: Path, width: int, height: int) -> np.ndarray:
    """The depth raster at path, read straight into the array returned."""
    with path.open("rb") as f:
        _check_depth_bytes(path, os.fstat(f.fileno()).st_size, width, height)
        depth = np.empty((height, width), dtype="<f4")
        _check_depth_bytes(path, f.readinto(depth), width, height)  # the file may shrink meanwhile
    return depth


def write_mask_raster(path: Path, masks: np.ndarray) -> None:
    arr = np.asarray(masks)
    if arr.dtype != np.uint16:
        if np.any(arr < 0) or np.any(arr > 65535):
            raise ValueError("mask ids must fit in uint16")
        arr = arr.astype(np.uint16)
    h, w = arr.shape
    header = f"P5\n{w} {h}\n65535\n".encode("ascii")
    path.write_bytes(header + arr.astype(">u2").tobytes(order="C"))


_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def read_mask_raster(path: Path) -> np.ndarray:
    data = path.read_bytes()
    m = _PGM_HEADER.match(data)
    if not m:
        raise DatasetError(f"{path}: not a binary PGM (P5) file")
    w, h, maxval = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if maxval != 65535:
        raise DatasetError(f"{path}: mask PGM maxval must be 65535, got {maxval}")
    samples, expected = len(data) - m.end(), w * h * 2
    if samples != expected:
        raise DatasetError(
            f"{path}: mask raster holds {samples} sample bytes, expected {expected}"
        )
    return np.frombuffer(data, dtype=">u2", offset=m.end()).reshape(h, w).astype(np.uint16)


# ---------------------------------------------------------------- loading

@dataclass(frozen=True)
class _FrameFiles:
    """What load_dataset keeps of a frame: all but its pixels."""

    frame_index: int
    pose: RigidTransform
    intrinsics: CameraIntrinsics
    depth: Path
    masks: Path


class _LoadedFrames(Sequence[FrameRecord]):
    """One side's frames from disk; indexing reads and checks the frame's rasters then."""

    def __init__(self, files: tuple[_FrameFiles, ...]) -> None:
        self._files = files

    def __len__(self) -> int:
        return len(self._files)

    def __getitem__(self, index: int) -> FrameRecord:  # type: ignore[override]
        files = self._files[index]
        intr = files.intrinsics
        depth = read_depth_raster(files.depth, intr.width, intr.height)
        masks = read_mask_raster(files.masks)
        if masks.shape != depth.shape:
            raise DatasetError(
                f"dimension mismatch: {files.masks} is {masks.shape[1]}x{masks.shape[0]} "
                f"but {files.depth} is {intr.width}x{intr.height}"
            )
        return FrameRecord(files.frame_index, files.pose, intr, depth, masks)


def load_dataset(root: Path | str, sides: Iterable[str] | None = None) -> ScanDataset:
    """Load and validate a scan dataset directory, every pixel excepted.

    Every side's fiducial is read. Frames are loaded only for the named
    sides, or for every side when sides is None. A named side the manifest
    does not list raises DatasetError.

    Each frame's JSON, index and raster paths are checked here, and a frame
    keeps its pose, intrinsics and raster paths; no raster is opened. Its
    rasters are read and checked, by read_depth_raster and read_mask_raster
    and then against each other, each time the frame is accessed:
    frames[side][i] reads frame i alone, and a missing or malformed raster
    raises there.

    Ground truth is not read: the result's ground_truth is None, and
    records.load_ground_truth reads ground_truth.json for evaluation. The field is set
    only on in-memory datasets, such as simulated ones, for write_dataset.
    """
    root = Path(root)
    dataset_id, all_sides, fiducials = load_scan_header(root)
    framed = all_sides if sides is None else tuple(sides)
    for side in framed:
        if side not in all_sides:
            raise DatasetError(f"side {side!r} not in dataset (has {sorted(all_sides)})")

    frames: dict[str, Sequence[FrameRecord]] = {}
    for side in all_sides:
        if side not in framed:
            continue
        side_dir = root / "sides" / side
        frames_dir = side_dir / "frames"
        if not frames_dir.is_dir():
            raise FileNotFoundError(f"frames directory missing for side {side}: {frames_dir}")
        records = []
        seen: set[int] = set()
        for frame_path in sorted(frames_dir.glob("*.json")):
            doc = read_json(frame_path)
            for key in ("frame_index", "pose", "intrinsics", "depth", "masks"):
                if key not in doc:
                    raise DatasetError(f"{frame_path}: missing '{key}'")
            idx = doc["frame_index"]
            if not is_int(idx):
                raise DatasetError(f"{frame_path}: frame_index must be an integer, got {idx!r}")
            rasters = []
            for key in ("depth", "masks"):
                name = doc[key]
                if not isinstance(name, str):
                    raise DatasetError(f"{frame_path}: {key} must be a string, got {name!r}")
                # checked as written, so rasters that are symlinks still load
                if "\0" in name or Path(name).is_absolute() or ".." in Path(name).parts:
                    raise DatasetError(f"{frame_path}: {key} path {name!r} is not inside {side_dir}")
                rasters.append(side_dir / name)
            if idx in seen:
                raise DatasetError(f"{frame_path}: duplicate frame_index {idx} on side {side}")
            seen.add(idx)
            try:
                intr = from_doc(CameraIntrinsics, doc["intrinsics"])
            except ValueError as exc:
                raise DatasetError(f"{frame_path}: invalid intrinsics: {exc}") from exc
            try:
                pose = RigidTransform.from_flat16(doc["pose"])
            except ValueError as exc:
                raise DatasetError(f"{frame_path}: {exc}") from exc
            records.append(_FrameFiles(idx, pose, intr, *rasters))
        records.sort(key=lambda r: r.frame_index)
        indices = [r.frame_index for r in records]
        if indices != list(range(len(records))):
            raise DatasetError(
                f"side {side}: frame indices {indices} are not gap-free from 0"
            )
        frames[side] = _LoadedFrames(tuple(records))

    return ScanDataset(
        dataset_id=dataset_id, sides=all_sides, frames=frames, fiducials=fiducials
    )


# ---------------------------------------------------------------- writing

AXIS_CONVENTION = "camera: +z forward, +x right, +y down; poses camera-to-side, row-major 4x4"


def write_frame(root: Path | str, side: str, rec: FrameRecord) -> None:
    """Write one frame's rasters and frame JSON into the directories clear_scan made."""
    side_dir = Path(root) / "sides" / side
    idx = rec.frame_index
    write_depth_raster(side_dir / "depth" / f"{idx}.f32", rec.depth)
    write_mask_raster(side_dir / "masks" / f"{idx}.pgm", rec.masks)
    write_json(
        side_dir / "frames" / f"{idx}.json",
        {
            "frame_index": idx,
            "pose": rec.pose.flat16(),
            "intrinsics": asdict(rec.intrinsics),
            "depth": f"depth/{idx}.f32",
            "masks": f"masks/{idx}.pgm",
        },
    )


def clear_scan(root: Path | str, sides: Iterable[str]) -> None:
    """Remove root's manifest, then its ground truth and the named sides' frame files.

    Each named side's frame directories are left empty, and made if missing.
    """
    root = Path(root)
    (root / "manifest.json").unlink(missing_ok=True)
    (root / "ground_truth.json").unlink(missing_ok=True)
    for side in sides:
        for sub, pattern in (("frames", "*.json"), ("depth", "*.f32"), ("masks", "*.pgm")):
            directory = root / "sides" / side / sub
            directory.mkdir(parents=True, exist_ok=True)
            for path in directory.glob(pattern):
                path.unlink()


def write_dataset(dataset: ScanDataset, root: Path | str, provenance: dict | None = None) -> Path:
    """Write a dataset directory in the documented layout. Deterministic bytes.

    clear_scan first removes an old scan's manifest, ground truth and, for
    the sides in dataset.frames, frames, so a shorter scan written over a
    longer one loads as itself. A dataset loaded from root is read from the
    files this removes: write it elsewhere. Frames are written by
    write_frame; a dataset whose frames were already written one by one is
    finished by passing it with no frames. The manifest, whose last key is
    the provenance block when one is given, is written last: a write that
    fails part way leaves no dataset that loads.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    clear_scan(root, dataset.frames)
    for side in dataset.sides:
        side_dir = root / "sides" / side
        side_dir.mkdir(parents=True, exist_ok=True)
        write_json(side_dir / "fiducial.json", {"pose": dataset.fiducials[side]})
    for side, records in dataset.frames.items():
        for rec in records:
            write_frame(root, side, rec)
    if dataset.ground_truth is not None:
        save_ground_truth(
            root / "ground_truth.json",
            replace(dataset.ground_truth, dataset_id=dataset.dataset_id,
                    frame_label=dataset.sides[0]),
        )
    manifest: dict[str, object] = {
        "format_version": FORMAT_VERSION,
        "dataset_id": dataset.dataset_id,
        "units": "meters",
        "axis_convention": AXIS_CONVENTION,
        "sides": list(dataset.sides),
    }
    if provenance is not None:
        manifest["provenance"] = provenance
    write_json(root / "manifest.json", manifest)
    return root


# ---------------------------------------------------------------- extraction

def extract_instance_clouds(frame: FrameRecord) -> list[tuple[int, np.ndarray]]:
    """Per-instance point clouds in the side frame, ascending instance id.

    A pixel contributes when its mask id is positive and its depth is finite
    and positive. Instances with fewer contributing pixels than
    DEFAULT_MIN_POINTS are dropped.

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
        if stop - start < DEFAULT_MIN_POINTS:
            continue
        r, c = rows[start:stop], cols[start:stop]
        cam_pts = backproject(
            frame.intrinsics, c.astype(float), r.astype(float), depth[r, c].astype(float)
        )
        out.append((int(instance_id), frame.pose.apply(cam_pts)))
    return out
