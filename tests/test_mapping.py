"""Track integration, duplicate suppression, and map serialization."""

import contextlib
import json
import logging
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fruitmap import _pool, mapping, spherefit
from fruitmap.alignment import cross_side_transform, merge_maps, transform_map
from fruitmap.dataset import DatasetError, extract_instance_clouds, json_digest
from fruitmap.evaluation import MATCH_TOLERANCE
from fruitmap.mapping import (
    CROSS_SIDE_RADIUS,
    BranchMap,
    FruitletTrack,
    MergeConfig,
    TrackStore,
    build_side_map,
    config_digest,
    integrate_observation,
    load_branch_map,
    map_from_json,
    map_to_json,
    save_branch_map,
)
from fruitmap.simulator import OrchardSpec, generate_scene, simulate_dataset
from fruitmap.spherefit import (
    DegenerateSampleError,
    FitConfig,
    InsufficientPointsError,
    derive_seed,
)


def integrate(branch_map, center, diameter, cfg, **kwargs):
    """One integrate_observation into a store of branch_map's tracks; the map it builds."""
    store = TrackStore(branch_map.tracks)
    integrate_observation(store, center, diameter, cfg, **kwargs)
    return store.build(branch_map.frame_label, branch_map.provenance)


def one_track_map(center=(0.0, 0.0, 0.4), d=0.010, label="A"):
    return integrate(BranchMap(frame_label=label), center, d, MergeConfig(), sides=("A",))


class TestIntegrate:
    def test_empty_map_opens_track(self):
        m = integrate(BranchMap("A"), (0, 0, 0.4), 0.01, MergeConfig())
        assert len(m.tracks) == 1
        t = m.tracks[0]
        assert t.id == 0
        assert t.observations == 1
        assert t.center == (0.0, 0.0, 0.4)

    def test_beyond_radius_opens_duplicate(self):
        m = one_track_map()
        m = integrate(m, (0.015, 0, 0.4), 0.01, MergeConfig())
        assert len(m.tracks) == 2
        assert [t.id for t in m.tracks] == [0, 1]

    def test_radius_boundary_inclusive(self):
        m = one_track_map()
        m = integrate(m, (0.010, 0, 0.4), 0.01, MergeConfig())
        assert len(m.tracks) == 1

    def test_identical_observation_idempotent(self):
        m = one_track_map()
        m = integrate(m, (0.0, 0.0, 0.4), 0.010, MergeConfig())
        assert len(m.tracks) == 1
        assert m.tracks[0].observations == 2
        assert m.tracks[0].center == (0.0, 0.0, 0.4)
        assert m.tracks[0].diameter == 0.010

    def test_weighted_average(self):
        cfg = MergeConfig()
        m = one_track_map()
        m = integrate(m, (0.0, 0.0, 0.4), 0.010, cfg)  # obs now 2
        m = integrate(m, (0.006, 0.0, 0.4), 0.016, cfg)
        t = m.tracks[0]
        assert t.observations == 3
        np.testing.assert_allclose(t.center, (0.002, 0.0, 0.4), atol=1e-15)
        assert t.diameter == pytest.approx(0.012, abs=1e-15)

    def test_weight_parameter_feeds_tally_and_weighted_mean(self):
        cfg = MergeConfig()
        m = one_track_map()  # 1 observation at x=0
        m = integrate(m, (0.004, 0, 0.4), 0.01, cfg, weight=3)
        t = m.tracks[0]
        assert t.observations == 4
        assert t.center[0] == pytest.approx(0.003, abs=1e-15)

    def test_sides_union(self):
        m = one_track_map()
        m = integrate(m, (0.001, 0, 0.4), 0.01, MergeConfig(), sides=("B",))
        assert m.tracks[0].sides == frozenset({"A", "B"})

    def test_nearest_track_wins(self):
        m = one_track_map((0.0, 0.0, 0.4))
        m = integrate(m, (0.030, 0, 0.4), 0.01, MergeConfig())
        m = integrate(m, (0.026, 0, 0.4), 0.012, MergeConfig())
        assert len(m.tracks) == 2
        assert m.tracks[0].observations == 1
        assert m.tracks[1].observations == 2

    def test_track_count_bounded_by_observations(self):
        rng = np.random.default_rng(7)
        m = BranchMap("A")
        n = 60
        for _ in range(n):
            p = rng.uniform(-0.05, 0.05, size=3)
            m = integrate(m, p, 0.01, MergeConfig())
        assert len(m.tracks) <= n
        assert sum(t.observations for t in m.tracks) == n

    def test_weight_validation(self):
        store = TrackStore()
        with pytest.raises(ValueError, match="weight"):
            integrate_observation(store, (0, 0, 0.4), 0.01, MergeConfig(), weight=0)
        assert store.build("A", {}) == BranchMap("A")


class TestDuplicateSuppression:
    def test_drift_collapse(self):
        # tracks 11mm apart stay separate until a merge drags one inside the
        # radius of the other; the pair must then collapse (earlier id wins)
        cfg = MergeConfig()  # radius 10mm
        m = one_track_map((0.0, 0.0, 0.4))
        m = integrate(m, (0.011, 0, 0.4), 0.01, cfg)
        assert len(m.tracks) == 2
        m = integrate(m, (0.0055, 0, 0.4), 0.01, cfg)
        assert len(m.tracks) == 1
        assert m.tracks[0].id == 0
        assert m.tracks[0].observations == 3

    def test_separation_invariant_random_stream(self):
        rng = np.random.default_rng(3)
        cfg = MergeConfig()
        m = BranchMap("A")
        for _ in range(300):
            p = rng.uniform(-0.04, 0.04, size=3)
            m = integrate(m, p, 0.01, cfg)
        centers = np.array([t.center for t in m.tracks])
        diff = centers[:, None, :] - centers[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() > cfg.merge_radius

    def test_ids_stay_unique_and_first_seen_ordered(self):
        rng = np.random.default_rng(11)
        m = BranchMap("A")
        for _ in range(200):
            p = rng.uniform(-0.03, 0.03, size=3)
            m = integrate(m, p, 0.01, MergeConfig())
        ids = [t.id for t in m.tracks]
        assert len(set(ids)) == len(ids)
        assert ids == sorted(ids)


# The immutable integration TrackStore replaced, kept as the reference it must
# match bit for bit: every observation rebuilds the tuple of validated tracks.
def reference_blend(track, center, diameter, weight, sides):
    old = np.asarray(track.center, dtype=float)
    total = track.observations + weight
    new_center = (track.observations * old + weight * center) / total
    new_diameter = (track.observations * track.diameter + weight * diameter) / total
    return FruitletTrack(track.id, tuple(new_center), float(new_diameter),
                         track.observations + weight, track.sides | sides)


def reference_suppress(tracks, moved, cfg):
    while len(tracks) > 1:
        centers = np.array([t.center for t in tracks])
        dist = np.linalg.norm(centers - centers[moved], axis=1)
        dist[moved] = np.inf
        nearest = int(np.argmin(dist))
        if dist[nearest] > cfg.merge_radius:
            break
        keep, drop = (moved, nearest) if moved < nearest else (nearest, moved)
        absorbed = tracks[drop]
        tracks[keep] = reference_blend(tracks[keep], np.asarray(absorbed.center, dtype=float),
                                       absorbed.diameter, absorbed.observations,
                                       absorbed.sides)
        del tracks[drop]
        moved = keep
    return tracks


def reference_integrate(branch_map, center, diameter, cfg, *, sides=(), weight=1):
    sides = frozenset(sides)
    tracks = list(branch_map.tracks)
    if not tracks:
        first = FruitletTrack(0, center, diameter, weight, sides)
        return BranchMap(branch_map.frame_label, (first,), branch_map.provenance)
    centers = np.array([t.center for t in tracks])
    point = np.asarray(center, dtype=float)
    dist = np.linalg.norm(centers - point, axis=1)
    nearest = int(np.argmin(dist))
    if dist[nearest] <= cfg.merge_radius:
        tracks[nearest] = reference_blend(tracks[nearest], point, diameter, weight, sides)
        tracks = reference_suppress(tracks, nearest, cfg)
    else:
        next_id = max(t.id for t in tracks) + 1
        tracks.append(FruitletTrack(next_id, center, diameter, weight, sides))
    return BranchMap(branch_map.frame_label, tuple(tracks), branch_map.provenance)


def random_stream(seed, n=120, weighted=True):
    """(center, diameter, sides, weight) draws around a lattice spaced just over
    the radius, so merges often drag tracks onto their neighbours. Unweighted
    streams carry single sightings only, as side mapping feeds the store."""
    rng = np.random.default_rng(seed)
    lattice = 0.0105 * np.stack(np.meshgrid(*[np.arange(3)] * 3), axis=-1).reshape(-1, 3)
    side_sets = [("A",), ("B",), ("A", "B"), ()]
    stream = [(tuple(p), 0.012, ("A",), 1) for p in lattice]
    for _ in range(n):
        center = tuple(rng.uniform(-0.005, 0.026, size=3))
        diameter = float(rng.uniform(0.006, 0.03))
        sides = side_sets[int(rng.integers(len(side_sets)))]
        weight = int(rng.integers(1, 6)) if rng.random() < 0.5 else 1
        if not weighted:
            weight = 1
        stream.append((center, diameter, sides, weight))
    return stream


class TestStoreOracle:
    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    def test_matches_immutable_reference_bit_for_bit(self, weighted):
        cfg = MergeConfig()
        chained = 0
        for seed in range(12):
            store, reference = TrackStore(), BranchMap("A")
            for center, diameter, sides, weight in random_stream(seed, weighted=weighted):
                before = len(reference.tracks)
                integrate_observation(store, center, diameter, cfg, sides=sides, weight=weight)
                reference = reference_integrate(reference, center, diameter, cfg,
                                                sides=sides, weight=weight)
                built = store.build("A", {})
                assert built == reference
                assert json_digest(map_to_json(built)) == json_digest(map_to_json(reference))
                chained += before - len(reference.tracks) >= 2
        # the streams must exercise collapses that chain through several tracks
        assert chained >= 5

    def test_store_starts_from_existing_tracks(self):
        # merge_maps seeds the store from a map whose ids need not be dense
        cfg = MergeConfig(merge_radius=CROSS_SIDE_RADIUS)
        start = BranchMap("A", tracks=(FruitletTrack(2, (0.0, 0.0, 0.4), 0.01, 3, {"A"}),
                                       FruitletTrack(7, (0.05, 0.0, 0.4), 0.02, 1, {"A"})))
        store, reference = TrackStore(start.tracks), start
        for center, diameter, sides, weight in random_stream(99, n=40):
            integrate_observation(store, center, diameter, cfg, sides=sides, weight=weight)
            reference = reference_integrate(reference, center, diameter, cfg,
                                            sides=sides, weight=weight)
            assert store.build("A", {}) == reference


class TestTypes:
    def test_track_validation(self):
        with pytest.raises(ValueError):
            FruitletTrack(0, (0, 0, 0.4), 0.01, observations=0)
        with pytest.raises(ValueError):
            FruitletTrack(0, (0, 0, 0.4), -0.01, observations=1)
        with pytest.raises(ValueError):
            FruitletTrack(-1, (0, 0, 0.4), 0.01, observations=1)
        with pytest.raises(ValueError):
            FruitletTrack(0, (np.nan, 0, 0.4), 0.01, observations=1)

    def test_map_rejects_duplicate_ids(self):
        t = FruitletTrack(0, (0, 0, 0.4), 0.01, observations=1)
        u = FruitletTrack(0, (0.1, 0, 0.4), 0.01, observations=1)
        with pytest.raises(ValueError, match="unique"):
            BranchMap("A", tracks=(t, u))

    def test_merge_config_validation(self):
        with pytest.raises(ValueError):
            MergeConfig(merge_radius=0.0)

    @pytest.mark.parametrize(
        "value",
        [None, True, "0.02", (0.02,), float("nan"), float("inf")],
        ids=["null", "bool", "string", "list", "nan", "inf"],
    )
    def test_merge_radius_must_be_a_finite_number(self, value):
        with pytest.raises(ValueError, match="merge_radius"):
            MergeConfig(merge_radius=value)

    def test_provenance_digests_golden(self):
        # Every provenance hash in the artifacts, pinned to its released value:
        # a change to a hashed payload or to the hashing moves one of these.
        assert config_digest(FitConfig(), MergeConfig()) == (
            "dbcf52fdab4622bed90def887d03b01ad3281cbc91467293fbf4ba0dcdd5c496"
        )
        assert config_digest(MergeConfig(merge_radius=CROSS_SIDE_RADIUS)) == (
            "aafa50bb8ad216e8bc4cb29b8c1c16aea8fd1d8b06f5549dd55179eebcfc5f79"
        )
        assert config_digest(OrchardSpec(rng_seed=17)) == (
            "8f83cf2f760ad7746dc25022ded5d734d319db3bfd0b4663e1b89ea02654bd89"
        )
        assert generate_scene(OrchardSpec(rng_seed=17)).dataset_id == "3a0dd38f777f"
        assert json_digest({"tolerance": MATCH_TOLERANCE}) == (
            "6342732652380feb69eec51eab15a864b23210f0a43289bd265f6b7b8626b2b2"
        )
        # ...and still sensitive to every field
        assert config_digest(FitConfig(rng_seed=1), MergeConfig()) != config_digest(
            FitConfig(), MergeConfig()
        )


class TestSerialization:
    def test_round_trip(self, tmp_path):
        m = one_track_map()
        m = integrate(m, (0.03, 0.01, 0.42), 0.0137, MergeConfig(), sides=("B",))
        p = tmp_path / "map.json"
        save_branch_map(p, m)
        back = load_branch_map(p)
        assert back == m

    def test_json_shape(self):
        doc = map_to_json(one_track_map())
        assert set(doc) == {"frame_label", "provenance", "tracks"}
        assert set(doc["tracks"][0]) == {"id", "center", "diameter",
                                         "observations", "sides"}
        assert doc["tracks"][0]["sides"] == ["A"]

    def test_float_precision_survives(self, tmp_path):
        center = (0.1234567890123456, -0.9876543210987654, 0.4)
        m = BranchMap("A", tracks=(FruitletTrack(0, center, 0.0123456789012345, 1),))
        p = tmp_path / "map.json"
        save_branch_map(p, m)
        back = load_branch_map(p)
        assert back.tracks[0].center == m.tracks[0].center
        assert back.tracks[0].diameter == m.tracks[0].diameter

    def test_malformed_doc(self):
        with pytest.raises(DatasetError, match="malformed"):
            map_from_json({"frame_label": "A"})

    @pytest.mark.parametrize(
        "doc, needle",
        [
            ([], "'tracks' list"),
            ({"frame_label": "A", "tracks": {}}, "'tracks' list"),
            ({"frame_label": "A", "tracks": [], "provenance": []}, "provenance"),
            ({"frame_label": None, "tracks": []}, "frame_label"),
            ({"frame_label": "A", "tracks": [{"id": 0, "center": [0, 0, 0.4],
                                              "diameter": 0.01, "observations": 1}, 7]},
             "track 1: expected an object"),
            ({"frame_label": "A", "tracks": [{"id": 1.7, "center": ["0.1", 0, True],
                                              "diameter": "0.01", "observations": 2.9,
                                              "sides": "AB"}]},
             "track 0: id must be an integer, got 1.7"),
            ({"frame_label": "A", "tracks": [{"id": 0, "center": [0, 0, 0.4],
                                              "observations": 1}]},
             "track 0: missing 'diameter'"),
            ({"frame_label": "A", "tracks": [{"id": -1, "center": [0, 0, 0.4],
                                              "diameter": 0.01, "observations": 1}]},
             "track 0: track id must be non-negative"),
        ],
        ids=["list-doc", "object-tracks", "list-provenance", "null-label", "int-track",
             "coercible-fields", "missing-diameter", "negative-id"],
    )
    def test_fields_are_checked_not_coerced(self, doc, needle):
        with pytest.raises(DatasetError, match=re.escape(needle)):
            map_from_json(doc)

    def test_integral_json_numbers_load_as_floats(self):
        doc = {"frame_label": "A", "tracks": [{"id": 0, "center": [0, 1, 0], "diameter": 1,
                                               "observations": 2, "sides": ["A", "B"]}]}
        (track,) = map_from_json(doc).tracks
        assert track == FruitletTrack(0, (0.0, 1.0, 0.0), 1.0, 2, frozenset("AB"))
        assert all(type(c) is float for c in track.center) and type(track.diameter) is float

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_branch_map(tmp_path / "nope.json")

    def test_save_is_deterministic(self, tmp_path):
        m = one_track_map()
        save_branch_map(tmp_path / "a.json", m)
        save_branch_map(tmp_path / "b.json", m)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


# Pinned to the installed numpy: its random streams and floating-point kernels
# make these bytes. A change that alters map output on purpose updates them and
# says so in CHANGES.md.
GOLDEN_MAP_DIGESTS = {
    "A": "2795bf451a16d7b53d4e0bfed38a35a315fdb9713f45f0bf79ec1b6f49c66977",
    "B": "2da7af9cff5db1fc5723899bb7a58ac82b3e692156ba2d2101d175274bbeb411",
    "merged": "0132d6d8fc548ec0ac5877fa37149925704954adc662a4f0bedac5aaea098c3f",
}


@pytest.fixture(scope="module")
def golden_dataset():
    return simulate_dataset(OrchardSpec(cluster_count=3, rng_seed=17))


def _assert_golden_map_digests(dataset):
    map_a = build_side_map(dataset, "A")
    map_b = build_side_map(dataset, "B")
    b_to_a = cross_side_transform(dataset.fiducials["A"], dataset.fiducials["B"])
    merged = merge_maps(map_a, transform_map(map_b, b_to_a, "A"))
    digests = {label: json_digest(map_to_json(m))
               for label, m in (("A", map_a), ("B", map_b), ("merged", merged))}
    assert digests == GOLDEN_MAP_DIGESTS
    assert multiprocessing.active_children() == []


def test_golden_map_digests(golden_dataset, pool_workers):
    pools = pool_workers(2)
    _assert_golden_map_digests(golden_dataset)
    assert len(pools) == 2


def test_golden_map_digests_in_process(golden_dataset, pool_workers):
    pools = pool_workers(1)
    _assert_golden_map_digests(golden_dataset)
    assert pools == []


def test_skipped_fits_log_the_same_lines_pooled_or_not(golden_dataset, pool_workers,
                                                        monkeypatch, caplog):
    # Clouds of instances 2 and 5 fail to fit in every frame, inside the
    # fitting process. The parent logs one warning per failure and one debug
    # line per rejected fit, in frame and instance order, however many
    # processes fit the frames.
    pick, seed = spherefit._best_hypothesis, FitConfig().rng_seed
    frames = golden_dataset.frames["A"]
    forced = {derive_seed(seed, frame.frame_index, instance_id): error
              for frame in frames
              for instance_id, error in ((2, DegenerateSampleError("forced degenerate")),
                                         (5, InsufficientPointsError("forced too few")))}

    def failing_pick(pts, centers, radii, min_cloud_z, config):
        if config.rng_seed in forced:
            raise forced[config.rng_seed]
        return pick(pts, centers, radii, min_cloud_z, config)

    monkeypatch.setattr(spherefit, "_best_hypothesis", failing_pick)
    caplog.set_level(logging.DEBUG, logger="fruitmap.mapping")
    logged = {}
    for workers in (2, 1):
        pools = pool_workers(workers)
        caplog.clear()
        build_side_map(golden_dataset, "A")
        logged[workers] = [(r.levelname, r.getMessage())
                           for r in caplog.records if r.name == "fruitmap.mapping"]
    assert len(pools) == 1
    assert logged[2] == logged[1]
    expected = [
        ("WARNING", f"sphere fit failed, frame {frame.frame_index} instance {instance_id}: "
                    + ("forced degenerate" if instance_id == 2 else "forced too few"))
        for frame in frames
        for instance_id, _ in extract_instance_clouds(frame)
        if instance_id in (2, 5)
    ]
    assert [line for line in logged[1] if line[0] == "WARNING"] == expected
    assert len(expected) > 10
    assert any(level == "DEBUG" for level, _ in logged[1])


def test_replaced_layer_function_sees_every_fit(golden_dataset, pool_workers, monkeypatch):
    # A wrapper put in place of mapping.ransac_sphere_fit (a test double, a
    # profiler) records in its own process, so frames are fitted there.
    pools = pool_workers(2)
    fit, calls = mapping.ransac_sphere_fit, []
    monkeypatch.setattr(mapping, "ransac_sphere_fit",
                        lambda points, config: (calls.append(config.rng_seed), fit(points, config))[1])
    branch_map = build_side_map(golden_dataset, "A")
    assert pools == []
    frames = golden_dataset.frames["A"]
    assert len(calls) == sum(len(extract_instance_clouds(frame)) for frame in frames)
    assert json_digest(map_to_json(branch_map)) == GOLDEN_MAP_DIGESTS["A"]


def test_one_usable_cpu_fits_in_process(golden_dataset, pools, monkeypatch):
    # taskset -c 0 leaves map one CPU: one process, and no pool to start.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _pool.worker_count(40) == 1
    build_side_map(golden_dataset, "A")
    assert pools == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert (_pool.worker_count(40), _pool.worker_count(2)) == (3, 2)


def _running(pid):
    """Whether pid is a live process (a zombie awaiting its reaper is not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@contextlib.contextmanager
def _two_worker_map(busy_s, run):
    """A subprocess mapping a two-frame side with two workers; yields (proc, worker pids).

    Frame 0 keeps its worker busy for busy_s; the worker that fitted frame 1
    then idles. run is the line that starts the map. Every process is killed
    on exit.
    """
    # Each worker reports its pid in one write(), so the two lines never
    # interleave, even under PYTHONUNBUFFERED.
    code = (
        "import os, sys, time, types\n"
        "from fruitmap import _pool, cli, mapping\n"
        "def fit(frame, fit_cfg):\n"
        "    os.write(1, b'%d\\n' % os.getpid())\n"
        f"    time.sleep({busy_s} if frame.frame_index == 0 else 0)\n"
        "    return []\n"
        "_pool.worker_count = lambda n_tasks: 2\n"
        "mapping._fit_frame = fit\n"
        "frames = tuple(types.SimpleNamespace(frame_index=i) for i in (0, 1))\n"
        "side = types.SimpleNamespace(frames={'A': frames}, dataset_id='x')\n"
        f"{run}\n"
    )
    src = str(Path(mapping.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True,
                            env={**os.environ, "PYTHONPATH": src})
    workers = []
    try:
        workers = [int(proc.stdout.readline()) for _ in range(2)]
        yield proc, workers
    finally:
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def _assert_workers_gone(workers):
    deadline = time.monotonic() + 10
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, workers))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="workers die with their parent on Linux only")
@pytest.mark.parametrize("stop", ["kill-parent", "interrupt-group"])
def test_stopped_map_leaves_no_worker(stop):
    # One worker is busy with frame 0, the other idle after frame 1. A parent
    # killed outright takes both with it. Ctrl-C, which reaches the whole
    # process group, ends the map with the parent's traceback alone.
    busy_s = 60 if stop == "kill-parent" else 1
    with _two_worker_map(busy_s, "mapping.build_side_map(side, 'A')") as (proc, workers):
        if stop == "kill-parent":
            proc.kill()
        else:
            os.killpg(proc.pid, signal.SIGINT)
        proc.wait(timeout=30)
        _assert_workers_gone(workers)
        if stop == "interrupt-group":
            err = proc.stderr.read()
            assert err.count("Traceback") == 1 and err.rstrip().endswith("KeyboardInterrupt")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="workers die with their parent on Linux only")
def test_interrupted_map_command_exits_130(tmp_path):
    # Ctrl-C to a running `fruitmap map`: one line, exit 130, no worker left.
    out = tmp_path / "a.json"
    run = (
        "cli.load_dataset = lambda root, sides: side\n"
        f"sys.exit(cli.main(['map', '--dataset', 'x', '--side', 'A', '--out', {str(out)!r}]))"
    )
    with _two_worker_map(1, run) as (proc, workers):
        os.killpg(proc.pid, signal.SIGINT)
        assert proc.wait(timeout=30) == 130
        _assert_workers_gone(workers)
        assert proc.stderr.read() == "error: interrupted\n"
        assert not out.exists()


def test_side_map_builds_each_track_once(golden_dataset, monkeypatch):
    # Tracks live in the store while the side is integrated; the validated
    # FruitletTracks are built once, at the end.
    built = []
    validate = FruitletTrack.__post_init__
    monkeypatch.setattr(FruitletTrack, "__post_init__",
                        lambda track: (built.append(track.id), validate(track))[1])
    branch_map = build_side_map(golden_dataset, "A")
    assert len(built) == len(branch_map.tracks) > 0
