"""Track integration, duplicate suppression, and map serialization."""

import json
import math
import re

import numpy as np
import pytest

from fruitmap.alignment import cross_side_transform, merge_maps, transform_map
from fruitmap.dataset import DatasetError, json_digest
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
from fruitmap.spherefit import FitConfig


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
        assert generate_scene(OrchardSpec(rng_seed=17))[0].dataset_id == "3a0dd38f777f"
        assert json_digest({"tolerance": MATCH_TOLERANCE, "size_mode": "relative"}) == (
            "d1e5156902ebdfb72432f597d402e0cf9a972efd1e67d5a5829ba27e6b0d75ac"
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


def test_golden_map_digests(golden_dataset):
    dataset = golden_dataset
    map_a = build_side_map(dataset, "A")
    map_b = build_side_map(dataset, "B")
    b_to_a = cross_side_transform(dataset.fiducials["A"], dataset.fiducials["B"])
    merged = merge_maps(map_a, transform_map(map_b, b_to_a, "A"))
    digests = {label: json_digest(map_to_json(m))
               for label, m in (("A", map_a), ("B", map_b), ("merged", merged))}
    assert digests == GOLDEN_MAP_DIGESTS


def test_side_map_builds_each_track_once(golden_dataset, monkeypatch):
    # Tracks live in the store while the side is integrated; the validated
    # FruitletTracks are built once, at the end.
    built = []
    validate = FruitletTrack.__post_init__
    monkeypatch.setattr(FruitletTrack, "__post_init__",
                        lambda track: (built.append(track.id), validate(track))[1])
    branch_map = build_side_map(golden_dataset, "A")
    assert len(built) == len(branch_map.tracks) > 0
