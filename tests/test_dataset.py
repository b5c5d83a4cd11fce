"""Dataset layout round trips, raster formats, validation, and cloud extraction."""

import json
import re

import numpy as np
import pytest

from fruitmap import dataset as dataset_module
from fruitmap.dataset import (
    DEFAULT_MIN_POINTS,
    DatasetError,
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
        dataset_id="abc123",
        sides=("A", "B"),
        frames={
            "A": (make_frame(0), make_frame(1, depth_value=0.35)),
            "B": (make_frame(0, pose=pose_b),),
        },
        fiducials={
            "A": pose_a,
            "B": pose_b,
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
                back.fiducials[side].matrix4(), ds.fiducials[side].matrix4(),
                atol=1e-12,
            )
        truth = load_ground_truth(tmp_path / "scan" / "ground_truth.json")
        assert truth.fruitlets == ds.ground_truth.fruitlets
        assert truth.visibility == ds.ground_truth.visibility

    def test_write_is_deterministic(self, tmp_path):
        ds = make_dataset()
        write_dataset(ds, tmp_path / "one")
        write_dataset(ds, tmp_path / "two")
        files_one = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*") if p.is_file())
        files_two = sorted(p.relative_to(tmp_path / "two") for p in (tmp_path / "two").rglob("*") if p.is_file())
        assert files_one == files_two
        for rel in files_one:
            assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "two" / rel).read_bytes()

    def test_side_filter_reads_only_named_frames(self, tmp_path):
        ds = make_dataset()
        root = write_dataset(ds, tmp_path / "scan")
        for raster in [*root.glob("sides/B/depth/*"), *root.glob("sides/B/masks/*")]:
            raster.unlink()  # side B's frames can no longer be read
        only_a = load_dataset(root, sides=("A",))
        assert only_a.sides == ("A", "B") and set(only_a.frames) == {"A"}
        assert set(only_a.fiducials) == {"A", "B"}
        for got, want in zip(only_a.frames["A"], ds.frames["A"], strict=True):
            np.testing.assert_array_equal(got.masks, want.masks)
        no_frames = load_dataset(root, sides=())
        assert no_frames.frames == {} and set(no_frames.fiducials) == {"A", "B"}
        assert load_ground_truth(root / "ground_truth.json") == ds.ground_truth
        every_side = load_dataset(root)
        with pytest.raises(FileNotFoundError):
            every_side.frames["B"][0]

    def test_load_reads_pixels_per_frame_on_access(self, tmp_path, monkeypatch):
        # Loading reads no raster; each access to a frame reads its two
        # rasters, and that frame's alone.
        ds = make_dataset()
        root = write_dataset(ds, tmp_path / "scan")
        reads = []
        for name in ("read_depth_raster", "read_mask_raster"):
            read = getattr(dataset_module, name)
            monkeypatch.setattr(dataset_module, name,
                                lambda path, *shape, read=read: (reads.append(path.name),
                                                                 read(path, *shape))[1])
        back = load_dataset(root)
        assert reads == []
        assert len(back.frames["A"]) == 2 and len(back.frames["A"][1:]) == 1
        assert reads == []
        frame = back.frames["A"][1]
        assert reads == ["1.f32", "1.pgm"]
        want = ds.frames["A"][1]
        assert frame.frame_index == 1 and frame.intrinsics == want.intrinsics
        np.testing.assert_array_equal(frame.depth.view(np.uint32), want.depth.view(np.uint32))
        np.testing.assert_array_equal(frame.masks, want.masks)
        assert frame.depth.flags.writeable and frame.masks.flags.writeable

    @pytest.mark.parametrize("damage", ["truncate", "delete"])
    @pytest.mark.parametrize("raster", ["depth", "masks"])
    def test_load_opens_no_raster(self, tmp_path, raster, damage):
        # Loading checks each frame's JSON and raster paths alone, so a side
        # whose rasters are cut short or gone still loads; reading each frame
        # then raises the raster's own message.
        root = write_dataset(make_dataset(), tmp_path / "scan")
        for path in (root / "sides" / "A" / raster).iterdir():
            if damage == "truncate":
                path.write_bytes(path.read_bytes()[:-2])
            else:
                path.unlink()
        frames = load_dataset(root).frames["A"]
        assert len(frames) == 2
        for index in range(2):
            if damage == "delete":
                error, message = FileNotFoundError, rf"{index}\.(f32|pgm)"
            elif raster == "depth":
                error, message = DatasetError, (rf"{index}\.f32: depth raster holds 3070 bytes, "
                                                r"expected 3072 for 32x24 float32")
            else:
                error, message = DatasetError, (rf"{index}\.pgm: mask raster holds 1534 sample "
                                                r"bytes, expected 1536")
            with pytest.raises(error, match=message):
                frames[index]

    def test_raster_damaged_after_loading_raises_on_access(self, tmp_path):
        # A frame's rasters are checked when it is read, not when it is loaded.
        root = write_dataset(make_dataset(), tmp_path / "scan")
        back = load_dataset(root)
        depth = root / "sides" / "A" / "depth" / "1.f32"
        depth.write_bytes(depth.read_bytes()[:-4])
        with pytest.raises(DatasetError, match=r"1\.f32: depth raster holds 3068 bytes, "
                                               r"expected 3072 for 32x24 float32"):
            back.frames["A"][1]
        write_mask_raster(root / "sides" / "A" / "masks" / "0.pgm",
                          np.zeros((10, 10), dtype=np.uint16))
        with pytest.raises(DatasetError, match=r"dimension mismatch: .*0\.pgm is 10x10 "
                                               r"but .*0\.f32 is 32x24"):
            back.frames["A"][0]
        (root / "sides" / "B" / "masks" / "0.pgm").unlink()
        with pytest.raises(FileNotFoundError, match=r"0\.pgm"):
            back.frames["B"][0]

    def test_write_over_a_longer_scan_removes_its_frames(self, tmp_path):
        # A scan with fewer frames written over one with more loads as itself.
        root = write_dataset(make_dataset(), tmp_path / "scan")
        (root / "sides" / "A" / "depth" / "7.f32").write_bytes(b"stale")
        short = ScanDataset(dataset_id="short", sides=("A", "B"),
                            frames={"A": (make_frame(0),), "B": (make_frame(0),)},
                            fiducials={"A": RigidTransform.identity(),
                                       "B": RigidTransform.identity()})
        write_dataset(short, root)
        back = load_dataset(root)
        assert back.dataset_id == "short"
        assert {side: len(frames) for side, frames in back.frames.items()} == {"A": 1, "B": 1}
        for side in ("A", "B"):
            files = sorted(p.relative_to(root / "sides" / side).as_posix()
                           for p in (root / "sides" / side).rglob("*") if p.is_file())
            assert files == ["depth/0.f32", "fiducial.json", "frames/0.json", "masks/0.pgm"]

    def test_write_that_fails_part_way_over_a_scan_leaves_none_that_loads(
            self, tmp_path, monkeypatch):
        # The old manifest goes before the first new frame is written, so the
        # old id cannot load over a mix of new and old frames.
        def scan(dataset_id):
            return ScanDataset(dataset_id=dataset_id, sides=("A", "B"),
                               frames={side: tuple(map(make_frame, range(12)))
                                       for side in ("A", "B")},
                               fiducials={"A": RigidTransform.identity(),
                                          "B": RigidTransform.identity()})

        root = write_dataset(scan("old"), tmp_path / "scan")
        write_frame = dataset_module.write_frame
        written = []

        def write_ten_frames(*args):
            if len(written) == 10:
                raise OSError("no space left on device")
            written.append(args)
            write_frame(*args)

        monkeypatch.setattr(dataset_module, "write_frame", write_ten_frames)
        with pytest.raises(OSError, match="no space left"):
            write_dataset(scan("new"), root)
        with pytest.raises(FileNotFoundError, match=r"manifest\.json"):
            load_dataset(root)

    def test_write_without_truth_over_a_scan_removes_its_truth(self, tmp_path):
        root = write_dataset(make_dataset(), tmp_path / "scan")
        write_dataset(make_dataset(with_truth=False), root)
        assert not (root / "ground_truth.json").exists()

    def test_side_filter_rejects_unknown_side(self, tmp_path):
        write_dataset(make_dataset(), tmp_path / "scan")
        with pytest.raises(DatasetError, match=r"side 'C' not in dataset \(has \['A', 'B'\]\)"):
            load_dataset(tmp_path / "scan", sides=("A", "C"))

    def test_ground_truth_optional(self, tmp_path):
        root = write_dataset(make_dataset(with_truth=False), tmp_path / "scan")
        assert not (root / "ground_truth.json").exists()
        assert load_dataset(root).ground_truth is None
        with pytest.raises(FileNotFoundError):
            load_ground_truth(root / "ground_truth.json")


# A valid truth entry whose id visibility keys may name.
FRUITLET_1 = {"id": 1, "center": [0, 0, 0], "diameter": 0.01}


class TestValidation:
    def test_missing_root(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope")

    def test_missing_fiducial_names_side(self, tmp_path):
        root = write_dataset(make_dataset(), tmp_path / "scan")
        (root / "sides" / "B" / "fiducial.json").unlink()
        # a missing fiducial is an I/O error like every other missing file
        with pytest.raises(FileNotFoundError, match=r"sides[/\\]B[/\\]fiducial\.json"):
            load_dataset(root)

    def test_dimension_mismatch_names_both_files(self, tmp_path):
        root = write_dataset(make_dataset(), tmp_path / "scan")
        # shrink one mask raster so it no longer matches its depth raster
        write_mask_raster(root / "sides" / "A" / "masks" / "0.pgm",
                          np.zeros((10, 10), dtype=np.uint16))
        frames = load_dataset(root).frames["A"]
        with pytest.raises(DatasetError) as err:
            frames[0]
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
        frames = load_dataset(root).frames["A"]
        with pytest.raises(FileNotFoundError, match="0.f32"):
            frames[0]

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
            ([], "JSON object, got list"),
            ({"fruitlets": {"id": 0}}, "'fruitlets' list"),
            ({"fruitlets": ["x"]}, "entry 0"),
            ({"fruitlets": [{"id": 0, "center": [0, 0], "diameter": 0.01}]}, "3 coordinates"),
            ({"fruitlets": [{"id": 0, "center": [0, 0, 0], "diameter": "big"}]}, "entry 0"),
            ({"fruitlets": [], "visibility": {"A": [1, 2]}}, "visibility"),
            ({"fruitlets": [{"id": 1.7, "center": [0, 0, 0], "diameter": 0.01}]}, "id"),
            ({"fruitlets": [{"id": True, "center": [0, 0, 0], "diameter": 0.01}]}, "id"),
            ({"fruitlets": [{"id": 0, "center": ["0.1", 0, True], "diameter": 0.01}]},
             "center"),
            ({"fruitlets": [{"id": 0, "center": [0, 0, float("nan")], "diameter": 0.01}]},
             "center"),
            ({"fruitlets": [{"id": 0, "center": [0, 0, 0], "diameter": "0.01"}]}, "diameter"),
            ({"fruitlets": [], "visibility": {"A": {"1": 2.9}}}, "visibility.*2.9"),
            ({"fruitlets": [], "visibility": {"A": {"1": False}}}, "visibility.*False"),
            ({"fruitlets": [], "visibility": {"A": {"one": 2}}}, "visibility"),
            ({"fruitlets": [{"id": 1, "center": [0, 0, 0], "diameter": 0.01},
                            {"id": 1, "center": [0.1, 0, 0], "diameter": 0.02}]},
             "entry 1: duplicate id 1"),
            ({"fruitlets": [{"id": 0, "center": [0, 0, 0], "diameter": 0}]},
             r"truth\.json: fruitlet entry 0: diameter must be positive, got 0"),
            # visibility keys are str(id) of a listed fruitlet, counts >= 0
            ({"fruitlets": [FRUITLET_1], "visibility": {"A": {"01": 7}}}, "visibility.*'01'"),
            ({"fruitlets": [FRUITLET_1], "visibility": {"A": {" 1": 7}}}, "visibility.*' 1'"),
            ({"fruitlets": [FRUITLET_1], "visibility": {"A": {"1_0": 3}}},
             "visibility.*'1_0'"),
            ({"fruitlets": [FRUITLET_1], "visibility": {"A": {"1": 5, "01": 7}}},
             "visibility.*'01'"),
            ({"fruitlets": [FRUITLET_1], "visibility": {"A": {"-1": 2}}}, "visibility.*'-1'"),
            ({"fruitlets": [FRUITLET_1], "visibility": {"A": {"2": 2}}}, "visibility.*'2'"),
            ({"fruitlets": [FRUITLET_1], "visibility": {"A": {"1": -1}}}, "visibility.*-1"),
        ],
    )
    def test_malformed_ground_truth(self, tmp_path, doc, message):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(doc))  # json writes NaN as a bare token
        with pytest.raises(DatasetError, match=message):
            load_ground_truth(path)

    @pytest.mark.parametrize(
        "fruitlet_ids, visibility, message",
        [
            ((1, 1), {}, "entry 1: duplicate id 1"),
            ((1,), {"A": {1: -2}}, "side A: count must be an integer >= 0, got -2"),
            ((1,), {"A": {1: 2.0}}, "count must be an integer >= 0, got 2.0"),
            ((1,), {"A": {1: True}}, "count must be an integer >= 0, got True"),
            ((1,), {"A": {7: 2}}, "side A: 7 is not a listed fruitlet id"),
            ((1,), {"A": {"1": 2}}, "'1' is not a listed fruitlet id"),
            ((1,), {"B": {True: 2}}, "side B: True is not a listed fruitlet id"),
        ],
    )
    def test_ground_truth_checks_its_own_fields(self, fruitlet_ids, visibility, message):
        # In memory as from JSON: evaluate_map and write_dataset get checked truth.
        fruitlets = tuple(GroundTruthFruitlet(i, (0.01 * n, 0.0, 0.0), 0.01)
                          for n, i in enumerate(fruitlet_ids))
        with pytest.raises(ValueError, match=re.escape(message)):
            GroundTruth(fruitlets, visibility)

    def test_integer_past_the_parser_limit_names_the_file(self, tmp_path):
        path = tmp_path / "truth.json"
        path.write_text('{"fruitlets": [], "digits": ' + "1" * 5000 + "}")
        with pytest.raises(DatasetError, match="truth.json: malformed JSON"):
            load_ground_truth(path)

    def test_ground_truth_integral_numbers_load_as_floats(self, tmp_path):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps({"fruitlets": [{"id": 4, "center": [0, 1, 0], "diameter": 1}],
                                    "visibility": {"A": {"4": 2}}}))
        truth = load_ground_truth(path)
        assert truth == GroundTruth((GroundTruthFruitlet(4, (0.0, 1.0, 0.0), 1.0),), {"A": {4: 2}})
        (fruitlet,) = truth.fruitlets
        assert all(type(c) is float for c in fruitlet.center) and type(fruitlet.diameter) is float

    @pytest.mark.parametrize(
        "file, edit, message",
        [
            ("manifest.json", [], "expected a JSON object, got list"),
            ("manifest.json", {"sides": "AB"}, "sides must be a list of strings"),
            ("manifest.json", {"sides": 5}, "sides must be a list of strings"),
            ("manifest.json", {"dataset_id": 5}, "dataset_id must be a string, got 5"),
            ("sides/A/fiducial.json", ["pose"], "expected a JSON object"),
            ("sides/A/fiducial.json", {"pose": ["1"] * 16}, "pose must be a list"),
            ("sides/A/frames/0.json", {"frame_index": 0.5}, "frame_index must be an integer"),
            ("sides/A/frames/0.json", {"frame_index": False}, "frame_index must be an integer"),
            ("sides/A/frames/0.json", {"depth": 5}, "depth must be a string"),
            ("sides/A/frames/0.json", {"intrinsics": {"fx": "40"}}, "intrinsics: fx"),
            ("sides/A/frames/0.json", {"intrinsics": {"width": 32.5}}, "intrinsics: width"),
            ("sides/A/frames/0.json", {"intrinsics": []}, "intrinsics: expected an object"),
            ("manifest.json", {"sides": ["A", "../../evil"]},
             r"manifest\.json: side label '\.\./\.\./evil' is not a directory name"),
            ("manifest.json", {"sides": ["A", "A"]}, r"manifest\.json: side label 'A' is repeated"),
            ("manifest.json", {"sides": ["A", ""]}, r"manifest\.json: side label '' is not"),
            ("manifest.json", {"sides": ["A", "."]}, r"manifest\.json: side label '\.' is not"),
            ("manifest.json", {"sides": ["A", ".."]}, r"manifest\.json: side label '\.\.' is not"),
            ("manifest.json", {"sides": ["A", "B/C"]}, r"manifest\.json: side label 'B/C' is not"),
            ("manifest.json", {"sides": ["A", "B\\C"]},
             r"manifest\.json: side label 'B\\\\C' is not"),
            ("manifest.json", {"sides": ["A", "B\0"]}, r"manifest\.json: side label 'B\\x00' is not"),
            ("sides/A/frames/0.json", {"depth": "/depth/0.f32"},
             r"0\.json: depth path '/depth/0\.f32' is not inside"),
            ("sides/A/frames/0.json", {"masks": "../B/masks/0.pgm"},
             r"0\.json: masks path '\.\./B/masks/0\.pgm' is not inside"),
            ("sides/A/frames/0.json", {"depth": "depth/../../B/depth/0.f32"},
             r"0\.json: depth path 'depth/\.\./\.\./B/depth/0\.f32' is not inside"),
            ("sides/A/frames/0.json", {"masks": "masks/0\0.pgm"},
             r"0\.json: masks path 'masks/0\\x00\.pgm' is not inside"),
        ],
        ids=["list-manifest", "string-sides", "int-sides", "int-dataset-id", "list-fiducial",
             "string-pose", "float-frame-index", "bool-frame-index", "int-depth-path",
             "string-fx", "float-width", "list-intrinsics", "escaping-side", "repeated-side",
             "empty-side", "dot-side", "dotdot-side", "slash-side", "backslash-side",
             "nul-side", "absolute-depth-path", "escaping-masks-path",
             "escaping-inner-depth-path", "nul-masks-path"],
    )
    def test_dataset_json_is_checked_not_coerced(self, tmp_path, file, edit, message):
        root = write_dataset(make_dataset(), tmp_path / "scan")
        path = root / file
        if isinstance(edit, dict):
            doc = json.loads(path.read_text())
            for key, value in edit.items():
                doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
            edit = doc
        path.write_text(json.dumps(edit))
        with pytest.raises(DatasetError, match=message):
            load_dataset(root)


    def test_symlinked_rasters_load(self, tmp_path):
        # raster paths are checked as written, so a raster may link to a file elsewhere
        ds = make_dataset()
        root = write_dataset(ds, tmp_path / "scan")
        store = tmp_path / "store"
        store.mkdir()
        rasters = [*root.glob("sides/*/depth/*"), *root.glob("sides/*/masks/*")]
        for raster in rasters:
            target = store / "-".join(raster.parts[-3:])
            raster.rename(target)
            raster.symlink_to(target)
        assert rasters and all(raster.is_symlink() for raster in rasters)
        back = load_dataset(root)
        for side in ds.sides:
            for got, want in zip(back.frames[side], ds.frames[side], strict=True):
                np.testing.assert_array_equal(got.depth, want.depth)
                np.testing.assert_array_equal(got.masks, want.masks)


def extract_with_floor(frame, min_points):
    """extract_instance_clouds with the module's point floor set to min_points."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset_module, "DEFAULT_MIN_POINTS", min_points)
        return extract_instance_clouds(frame)


class TestExtraction:
    def test_constant_depth_patch(self):
        # 10x10 patch at constant 0.4 m: one cloud of 100 points, z exactly the
        # stored float32 depth (no extra arithmetic on the z channel)
        frame = make_frame()
        clouds = extract_instance_clouds(frame)
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
        assert extract_with_floor(frame, 100) != []
        assert extract_with_floor(frame, 101) == []

    def test_invalid_depth_pixels_dropped(self):
        frame = make_frame()
        depth = frame.depth.copy()
        depth[5, 10:20] = np.nan       # kill one mask row
        depth[6, 10:20] = -0.1         # and another via non-positive depth
        frame2 = FrameRecord(frame.frame_index, frame.pose, frame.intrinsics,
                             depth, frame.masks)
        clouds = extract_with_floor(frame2, 1)
        assert clouds[0][1].shape == (80, 3)

    def test_multiple_instances_ascending(self):
        frame = make_frame()
        masks = frame.masks.copy()
        depth = frame.depth.copy()
        masks[20:24, 0:10] = 2
        depth[20:24, 0:10] = 0.3
        frame2 = FrameRecord(frame.frame_index, frame.pose, frame.intrinsics, depth, masks)
        clouds = extract_with_floor(frame2, 10)
        assert [iid for iid, _ in clouds] == [2, 3]

    def test_background_zero_never_extracted(self):
        frame = make_frame()
        clouds = extract_with_floor(frame, 1)
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
                extract_with_floor(frame, int(min_points)),
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
                extract_with_floor(frame2, min_points),
                reference_extract(frame2, min_points),
            )

    def test_all_background_frame(self, simulated_frames):
        frame = simulated_frames[0]
        blank = FrameRecord(frame.frame_index, frame.pose, frame.intrinsics, frame.depth,
                            np.zeros_like(frame.masks))
        for min_points in (0, 1):
            assert extract_with_floor(blank, min_points) == []
            assert reference_extract(blank, min_points) == []
