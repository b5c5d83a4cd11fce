"""Dataset layout round trips, raster formats, validation, and cloud extraction."""

import json

import numpy as np
import pytest

from fruitmap.dataset import (
    DEFAULT_MIN_POINTS,
    DatasetError,
    FiducialObservation,
    FrameRecord,
    GroundTruth,
    GroundTruthFruitlet,
    ScanDataset,
    extract_instance_clouds,
    load_dataset,
    load_ground_truth,
    read_depth_raster,
    read_mask_raster,
    write_dataset,
    write_depth_raster,
    write_mask_raster,
)
from fruitmap.geometry import CameraIntrinsics, RigidTransform, backproject, rotation_about_axis
from fruitmap.simulator import OrchardSpec, simulate_dataset


def small_intrinsics(width=32, height=24) -> CameraIntrinsics:
    return CameraIntrinsics(fx=40.0, fy=40.0, cx=width / 2, cy=height / 2,
                            width=width, height=height)


def make_frame(idx=0, pose=None, width=32, height=24, depth_value=0.4):
    intr = small_intrinsics(width, height)
    depth = np.full((height, width), np.nan, dtype=np.float32)
    masks = np.zeros((height, width), dtype=np.uint16)
    depth[5:15, 10:20] = depth_value
    masks[5:15, 10:20] = 3
    return FrameRecord(
        frame_index=idx,
        pose=pose or RigidTransform.identity(),
        intrinsics=intr,
        depth=depth,
        masks=masks,
    )


def make_dataset(tmp_path=None, with_truth=True):
    pose_a = RigidTransform.identity()
    pose_b = RigidTransform(rotation_about_axis([1, 0, 0], np.pi), [0.02, -0.03, 0.05])
    truth = GroundTruth(
        fruitlets=(GroundTruthFruitlet(id=0, center=(0.0, 0.01, 0.02), diameter=0.012),),
        visibility={"A": {0: 2}, "B": {0: 1}},
    )
    return ScanDataset(
        root=None,
        dataset_id="abc123",
        sides=("A", "B"),
        frames={
            "A": (make_frame(0), make_frame(1, depth_value=0.35)),
            "B": (make_frame(0, pose=pose_b),),
        },
        fiducials={
            "A": FiducialObservation(side="A", pose=pose_a),
            "B": FiducialObservation(side="B", pose=pose_b),
        },
        ground_truth=truth if with_truth else None,
    )


class TestRasterFormats:
    def test_depth_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        depth = rng.uniform(0.2, 0.7, size=(24, 32)).astype(np.float32)
        depth[0, :5] = np.nan
        depth[1, :5] = -1.0
        p = tmp_path / "d.f32"
        write_depth_raster(p, depth)
        back = read_depth_raster(p, 32, 24)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back.view(np.uint32), depth.view(np.uint32))

    def test_depth_size_check(self, tmp_path):
        p = tmp_path / "d.f32"
        p.write_bytes(b"\x00" * 100)
        with pytest.raises(DatasetError, match="d.f32"):
            read_depth_raster(p, 32, 24)

    def test_mask_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        masks = rng.integers(0, 40000, size=(24, 32)).astype(np.uint16)
        p = tmp_path / "m.pgm"
        write_mask_raster(p, masks)
        back = read_mask_raster(p)
        np.testing.assert_array_equal(back, masks)

    def test_mask_header(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_mask_raster(p, np.zeros((2, 3), dtype=np.uint16))
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n3 2\n65535\n")
        assert len(raw) == len(b"P5\n3 2\n65535\n") + 12

    def test_mask_samples_big_endian(self, tmp_path):
        p = tmp_path / "m.pgm"
        write_mask_raster(p, np.array([[0x0102]], dtype=np.uint16))
        assert p.read_bytes().endswith(b"\x01\x02")

    def test_mask_rejects_wrong_maxval(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(DatasetError, match="maxval"):
            read_mask_raster(p)


class TestDatasetRoundTrip:
    def test_lossless(self, tmp_path):
        ds = make_dataset()
        write_dataset(ds, tmp_path / "scan")
        back = load_dataset(tmp_path / "scan")
        assert back.sides == ("A", "B")
        assert back.dataset_id == "abc123"
        for side in ("A", "B"):
            assert len(back.frames[side]) == len(ds.frames[side])
            for orig, rt in zip(ds.frames[side], back.frames[side]):
                np.testing.assert_allclose(rt.pose.matrix4(), orig.pose.matrix4(), atol=1e-12)
                assert rt.intrinsics == orig.intrinsics
                np.testing.assert_array_equal(
                    rt.depth.view(np.uint32), orig.depth.view(np.uint32)
                )
                np.testing.assert_array_equal(rt.masks, orig.masks)
            np.testing.assert_allclose(
                back.fiducials[side].pose.matrix4(), ds.fiducials[side].pose.matrix4(),
                atol=1e-12,
            )
        assert back.ground_truth is not None
        assert back.ground_truth.fruitlets == ds.ground_truth.fruitlets
        assert back.ground_truth.visibility == ds.ground_truth.visibility

    def test_write_is_deterministic(self, tmp_path):
        ds = make_dataset()
        write_dataset(ds, tmp_path / "one")
        write_dataset(ds, tmp_path / "two")
        files_one = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*") if p.is_file())
        files_two = sorted(p.relative_to(tmp_path / "two") for p in (tmp_path / "two").rglob("*") if p.is_file())
        assert files_one == files_two
        for rel in files_one:
            assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "two" / rel).read_bytes()

    def test_ground_truth_optional(self, tmp_path):
        write_dataset(make_dataset(with_truth=False), tmp_path / "scan")
        back = load_dataset(tmp_path / "scan")
        assert back.ground_truth is None


class TestValidation:
    def test_missing_root(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope")

    def test_missing_fiducial_names_side(self, tmp_path):
        root = write_dataset(make_dataset(), tmp_path / "scan")
        (root / "sides" / "B" / "fiducial.json").unlink()
        with pytest.raises(DatasetError, match="fiducial missing for side B"):
            load_dataset(root)

    def test_dimension_mismatch_names_both_files(self, tmp_path):
        root = write_dataset(make_dataset(), tmp_path / "scan")
        # shrink one mask raster so it no longer matches its depth raster
        write_mask_raster(root / "sides" / "A" / "masks" / "0.pgm",
                          np.zeros((10, 10), dtype=np.uint16))
        with pytest.raises(DatasetError) as err:
            load_dataset(root)
        assert "masks/0.pgm" in str(err.value).replace("\\", "/")
        assert "depth/0.f32" in str(err.value).replace("\\", "/") or "0.f32" in str(err.value)

    def test_frame_gap_detected(self, tmp_path):
        root = write_dataset(make_dataset(), tmp_path / "scan")
        frames_dir = root / "sides" / "A" / "frames"
        doc = json.loads((frames_dir / "1.json").read_text())
        doc["frame_index"] = 5
        (frames_dir / "1.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="gap-free"):
            load_dataset(root)

    def test_duplicate_frame_index(self, tmp_path):
        root = write_dataset(make_dataset(), tmp_path / "scan")
        frames_dir = root / "sides" / "A" / "frames"
        doc = json.loads((frames_dir / "1.json").read_text())
        doc["frame_index"] = 0
        (frames_dir / "1.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(root)

    def test_missing_depth_file(self, tmp_path):
        root = write_dataset(make_dataset(), tmp_path / "scan")
        (root / "sides" / "A" / "depth" / "0.f32").unlink()
        with pytest.raises(FileNotFoundError, match="0.f32"):
            load_dataset(root)

    def test_bad_pose_rejected(self, tmp_path):
        root = write_dataset(make_dataset(), tmp_path / "scan")
        fid = root / "sides" / "A" / "fiducial.json"
        doc = json.loads(fid.read_text())
        doc["pose"][0] = 2.0  # breaks orthonormality
        fid.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="pose"):
            load_dataset(root)

    def test_wrong_format_version(self, tmp_path):
        root = write_dataset(make_dataset(), tmp_path / "scan")
        manifest = root / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["format_version"] = "2"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="format_version"):
            load_dataset(root)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "'fruitlets' list"),
            ({"fruitlets": {"id": 0}}, "'fruitlets' list"),
            ({"fruitlets": ["x"]}, "entry 0"),
            ({"fruitlets": [{"id": 0, "center": [0, 0], "diameter": 0.01}]}, "3 coordinates"),
            ({"fruitlets": [{"id": 0, "center": [0, 0, 0], "diameter": "big"}]}, "entry 0"),
            ({"fruitlets": [], "visibility": {"A": [1, 2]}}, "visibility"),
        ],
    )
    def test_malformed_ground_truth(self, tmp_path, doc, message):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match=message):
            load_ground_truth(path)


class TestExtraction:
    def test_constant_depth_patch(self):
        # 10x10 patch at constant 0.4 m: one cloud of 100 points, z exactly the
        # stored float32 depth (no extra arithmetic on the z channel)
        frame = make_frame()
        clouds = extract_instance_clouds(frame, min_points=30)
        assert len(clouds) == 1
        iid, pts = clouds[0]
        assert iid == 3
        assert pts.shape == (100, 3)
        np.testing.assert_array_equal(pts[:, 2], np.float32(0.4))

    def test_pose_applied(self):
        pose = RigidTransform(rotation_about_axis([0, 0, 1], np.pi / 2), [1.0, 0.0, 0.0])
        plain = extract_instance_clouds(make_frame())[0][1]
        moved = extract_instance_clouds(make_frame(pose=pose))[0][1]
        np.testing.assert_allclose(moved, pose.apply(plain), atol=1e-12)

    def test_min_points_threshold(self):
        frame = make_frame()
        assert extract_instance_clouds(frame, min_points=100) != []
        assert extract_instance_clouds(frame, min_points=101) == []

    def test_invalid_depth_pixels_dropped(self):
        frame = make_frame()
        depth = frame.depth.copy()
        depth[5, 10:20] = np.nan       # kill one mask row
        depth[6, 10:20] = -0.1         # and another via non-positive depth
        frame2 = FrameRecord(frame.frame_index, frame.pose, frame.intrinsics,
                             depth, frame.masks)
        clouds = extract_instance_clouds(frame2, min_points=1)
        assert clouds[0][1].shape == (80, 3)

    def test_multiple_instances_ascending(self):
        frame = make_frame()
        masks = frame.masks.copy()
        depth = frame.depth.copy()
        masks[20:24, 0:10] = 2
        depth[20:24, 0:10] = 0.3
        frame2 = FrameRecord(frame.frame_index, frame.pose, frame.intrinsics, depth, masks)
        clouds = extract_instance_clouds(frame2, min_points=10)
        assert [iid for iid, _ in clouds] == [2, 3]

    def test_background_zero_never_extracted(self):
        frame = make_frame()
        clouds = extract_instance_clouds(frame, min_points=1)
        assert all(iid != 0 for iid, _ in clouds)

    def test_frame_shape_validation(self):
        intr = small_intrinsics()
        with pytest.raises(DatasetError, match="does not match"):
            FrameRecord(
                frame_index=0,
                pose=RigidTransform.identity(),
                intrinsics=intr,
                depth=np.zeros((10, 10), dtype=np.float32),
                masks=np.zeros((10, 10), dtype=np.uint16),
            )


def reference_extract(frame, min_points):
    """The per-instance full-frame implementation extraction must reproduce."""
    depth = frame.depth.astype(float)
    valid = np.isfinite(depth) & (depth > 0) & (frame.masks > 0)
    out = []
    for instance_id in np.unique(frame.masks[valid]):
        rows, cols = np.nonzero(valid & (frame.masks == instance_id))
        if len(rows) < min_points:
            continue
        cam_pts = backproject(
            frame.intrinsics, cols.astype(float), rows.astype(float), depth[rows, cols]
        )
        out.append((int(instance_id), frame.pose.apply(cam_pts)))
    return out


def assert_same_clouds(got, want):
    assert [iid for iid, _ in got] == [iid for iid, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert type(a) is type(b) and a.dtype == b.dtype
        assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def simulated_frames():
    # occluders cut instances apart; dilation bleeds masks onto what lies behind
    spec = OrchardSpec(cluster_count=3, occluder_count=4, mask_dilate_px=2, rng_seed=5)
    dataset = simulate_dataset(spec)
    return [f for side in dataset.sides for f in dataset.frames[side][::9]]


class TestExtractionOracle:
    def test_simulated_frames_match_reference(self, simulated_frames):
        clouds = 0
        for frame in simulated_frames:
            got = extract_instance_clouds(frame)
            assert_same_clouds(got, reference_extract(frame, DEFAULT_MIN_POINTS))
            clouds += len(got)
        assert clouds > 0

    def test_min_points_boundary(self, simulated_frames):
        frame = max(simulated_frames, key=lambda f: len(np.unique(f.masks)))
        valid = np.isfinite(frame.depth) & (frame.depth > 0) & (frame.masks > 0)
        _, sizes = np.unique(frame.masks[valid], return_counts=True)
        for min_points in (1, *sizes, *(sizes + 1)):
            assert_same_clouds(
                extract_instance_clouds(frame, min_points=int(min_points)),
                reference_extract(frame, int(min_points)),
            )

    def test_masked_pixels_with_invalid_depth(self, simulated_frames):
        frame = simulated_frames[0]
        depth = frame.depth.copy()
        masked = np.flatnonzero(frame.masks > 0)
        depth.flat[masked[::3]] = np.nan
        depth.flat[masked[1::5]] = -0.2
        depth.flat[masked[2::7]] = 0.0
        frame2 = FrameRecord(frame.frame_index, frame.pose, frame.intrinsics, depth, frame.masks)
        for min_points in (1, DEFAULT_MIN_POINTS):
            assert_same_clouds(
                extract_instance_clouds(frame2, min_points=min_points),
                reference_extract(frame2, min_points),
            )

    def test_all_background_frame(self, simulated_frames):
        frame = simulated_frames[0]
        blank = FrameRecord(frame.frame_index, frame.pose, frame.intrinsics, frame.depth,
                            np.zeros_like(frame.masks))
        for min_points in (0, 1):
            assert extract_instance_clouds(blank, min_points=min_points) == []
            assert reference_extract(blank, min_points) == []
