"""Benchmark: the README walkthrough through the fruitmap CLI on pinned scenes.

Run from the repository root:

    python3 bench/run.py --workload readme --seed 1 --seconds 55 --trace 0

A walkthrough is the README run: ``--version``, ``simulate --config``,
``map`` A, ``map`` B, ``align``, ``eval`` and ``report --format csv
--scatter``. Every stage runs in its own interpreter, one at a time, as a
user would run it. ``--trace 0`` runs the walkthrough, then re-runs its
stages until ``--seconds`` have passed, so that samples of every stage are
spread over the run, and reports the median of each stage as the end-to-end
metrics in BENCHMARK.json. ``--trace 1`` runs the walkthrough once untraced
and once under bench/launch.py, which records spans around each layer's
calls, and reports the per-layer metrics.
``--workload all`` runs readme, dense and occluded in turn.

Each workload pins its scene so that timings and answer quality compare
across runs. ``--seed`` only varies the layout of the generated config file
(key order and indentation), which must not change a single output byte;
``--scene-seed`` re-runs a workload on a held-out scene to re-check a claim.

Every stage must exit 0 and write its outputs, the evaluation must agree
with the merged map and the ground truth, and repeated runs of the same
code must give byte-identical artifacts (compared within the run and with
earlier runs in the same checkout). Each failed check counts in ``failed``.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LAUNCHER = ROOT / "bench" / "launch.py"
WORK = ROOT / ".bench_work"
DIGESTS = WORK / "digests.json"

# name -> (scene seed, simulate config section)
WORKLOADS = {
    # The README run users make: mapping-heavy, carries the merge defect.
    "readme": (17, {}),
    # Criterion-6 spec: no occluders, many fruitlets, so fitting dominates.
    # Runnable, but not in BENCHMARK.json: a third workload does not fit the
    # run time the benchmark needs to be steady on a two-core machine.
    "dense": (101, {
        "occluder_count": 0,
        "cluster_count": 11,
        "fruitlets_per_cluster": [2, 3],
        "diameter_range": [0.012, 0.025],
    }),
    # Criterion-5 spec: rendering, imports and dataset I/O dominate, and
    # it is the only scene with imperfect recall.
    "occluded": (201, {"occluder_count": 12, "occluder_size": 0.16}),
    # Criterion-8 config: the self-test's small scene.
    "tiny": (17, {"cluster_count": 3}),
}
MAIN_WORKLOADS = ("readme", "dense", "occluded")

STAGES = ("simulate", "map", "align", "eval", "report")
SETUP_SAMPLES = 3       # fewest `fruitmap --version` runs behind setup_s

# One stage at a time and one BLAS thread per child, so children never ask
# for more cores than the machine has and runs stay comparable.
CHILD_THREADS = "1"


class Checks:
    """Counts attempted and failed checks; keeps a message per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = CHILD_THREADS
    return env


def invoke(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run one child to the end: exit code, wall seconds, its own peak RSS in MiB.

    The RSS comes from os.wait4 on this child alone, not RUSAGE_CHILDREN,
    which would keep the largest of all children so far.
    """
    with log.open("wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def last_line(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file())


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in tree_files(SRC / "fruitmap"):
        if path.suffix == ".py":
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def write_config(path: Path, simulate: dict, layout_seed: int) -> None:
    """The scene config, laid out (key order, indentation) by layout_seed."""
    rng = random.Random(layout_seed)
    items = list(simulate.items())
    rng.shuffle(items)
    indent = rng.choice((None, 1, 2, 4))
    path.write_text(json.dumps({"simulate": dict(items)}, indent=indent) + "\n", encoding="utf-8")


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding path, from /proc/self/mounts."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1].replace("\\040", " ")
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, kind = mount, fields[2]
    return kind


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def package_version(name: str) -> str:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "child_openblas_threads": CHILD_THREADS,
        "work_filesystem": fs_type(WORK),
        "loadavg_start": loadavg(),
    }


# ------------------------------------------------------------------ one walkthrough

class Walkthrough:
    """One README walkthrough in its own directory, traced or not."""

    def __init__(self, wdir: Path, config: Path, checks: Checks, traced: bool, run_id: str,
                 break_stage: str | None = None):
        self.wdir = wdir
        self.checks = checks
        self.traced = traced
        self.run_id = run_id
        self.walls: dict[str, list[float]] = {}
        self.rss: dict[str, float] = {}
        self.trace_docs: list[dict] = []
        self.first_digests: dict[str, dict[str, str]] = {}
        (wdir / "logs").mkdir(parents=True)
        if traced:
            (wdir / "spans").mkdir()
        scan = self.path("scan")
        map_a, map_b = self.path("map_a.json"), self.path("map_b.json")
        merged, report = self.path("merged.json"), self.path("report.json")
        table, sizes = self.path("report.csv"), self.path("sizes.csv")
        # label -> (CLI arguments, files it must write), in walkthrough order
        self.plan = {
            "version": (["--version"], []),
            "simulate": (["simulate", "--config", config, "--out", scan],
                         [scan / "manifest.json", scan / "ground_truth.json"]),
            "map_a": (["map", "--dataset", scan, "--side", "A", "--out", map_a], [map_a]),
            "map_b": (["map", "--dataset", scan, "--side", "B", "--out", map_b], [map_b]),
            "align": (["align", "--map-a", map_a, "--map-b", map_b, "--dataset", scan,
                       "--out", merged], [merged]),
            "eval": (["eval", "--map", merged, "--truth", scan / "ground_truth.json",
                      "--out", report], [report]),
            "report": (["report", "--eval", report, "--format", "csv", "--out", table,
                        "--scatter", sizes], [table, sizes]),
        }
        if break_stage is not None:
            args, outputs = self.plan[break_stage]
            self.plan[break_stage] = ([*args, "--no-such-flag"], outputs)

    def path(self, name: str) -> Path:
        return self.wdir / name

    def stage(self, label: str) -> None:
        """Run one stage once; check its exit code, its outputs and that a
        repeat writes the same bytes as the stage's first run."""
        args, outputs = self.plan[label]
        rep = len(self.walls.get(label, ()))
        log = self.path(f"logs/{label}.{rep}.log")
        cli_args = [str(a) for a in args]
        if self.traced:
            spans = self.path(f"spans/{label}.{rep}.json")
            argv = [sys.executable, str(LAUNCHER), str(spans), self.run_id, "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "fruitmap", *cli_args]
        code, wall, rss = invoke(argv, log)
        self.walls.setdefault(label, []).append(wall)
        self.rss[label] = max(self.rss.get(label, 0.0), rss)
        if label == "version":
            written = last_line(log).startswith("fruitmap ")
        else:
            written = all(p.is_file() and p.stat().st_size > 0 for p in outputs)
        self.checks.check(
            code == 0 and written,
            f"{label}: exit {code}, outputs {'written' if written else 'missing'}: {last_line(log)}",
        )
        if self.traced and spans.is_file():
            self.trace_docs.append(json.loads(spans.read_text(encoding="utf-8")))
        if not written:
            return
        hashed = tree_files(self.path("scan")) if label == "simulate" else outputs
        digests = {str(p.relative_to(self.wdir)): file_digest(p) for p in hashed}
        first = self.first_digests.setdefault(label, digests)
        if rep > 0:
            self.checks.check(digests == first, f"{label}: repeat {rep} wrote different bytes")

    def run(self) -> None:
        """The walkthrough itself: every stage once, in order."""
        for label in self.plan:
            self.stage(label)

    def fill(self, deadline: float) -> None:
        """Re-run stages until the deadline, each time the one with the least
        weighted sampled time among those whose last wall still fits.

        Short stages so get many samples spread over the run, and each
        stage's median averages over a stretch of the machine's varying
        speed. The map stages get twice the time of the others, because
        they dominate pipeline_s and map_s.
        """
        def sampled(label: str) -> float:
            return sum(self.walls[label]) / (2.0 if label in ("map_a", "map_b") else 1.0)

        while True:
            fits = [label for label in self.plan
                    if time.perf_counter() + self.walls[label][-1] <= deadline]
            if not fits:
                return
            self.stage(min(fits, key=sampled))

    def artifacts(self) -> dict[str, str]:
        """sha256 of every file the walkthrough wrote: dataset, maps and reports."""
        files = set(tree_files(self.path("scan")))
        files.update(p for _, outputs in self.plan.values() for p in outputs if p.is_file())
        return {str(p.relative_to(self.wdir)): file_digest(p) for p in sorted(files)}

    def dataset_bytes(self) -> int:
        return sum(p.stat().st_size for p in tree_files(self.path("scan")))

    def stage_walls(self) -> dict[str, float]:
        """Median wall per pipeline stage; map is side A plus side B."""
        med = {label: statistics.median(walls) for label, walls in self.walls.items()}
        walls = {s: med[s] for s in STAGES if s in med}
        if "map_a" in med and "map_b" in med:
            walls["map"] = med["map_a"] + med["map_b"]
        return walls

    def verify_outputs(self) -> dict[str, float]:
        """Cross-check report, map and truth; return the quality metrics."""
        try:
            rep = json.loads(self.path("report.json").read_text(encoding="utf-8"))
            tracks = len(json.loads(self.path("merged.json").read_text(encoding="utf-8"))["tracks"])
            truth = len(json.loads(
                self.path("scan/ground_truth.json").read_text(encoding="utf-8"))["fruitlets"])
            tp, fp, fn = rep["tp"], rep["fp"], rep["fn"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.checks.check(False, f"report: unreadable outputs: {exc}")
            return {}
        self.checks.check(
            tp + fp == tracks and tp + fn == truth,
            f"report: tp+fp={tp + fp} vs {tracks} merged tracks, tp+fn={tp + fn} vs {truth} truth",
        )
        try:
            with self.path("report.csv").open(newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            with self.path("sizes.csv").open(newline="", encoding="utf-8") as handle:
                scatter = list(csv.reader(handle))
        except OSError as exc:
            self.checks.check(False, f"report: unreadable CSV: {exc}")
            return {}
        self.checks.check(
            len(rows) == 2 and rows[1][:2] == [str(tp + fn), str(tp + fp)],
            f"report: CSV rows {rows} disagree with tp={tp} fp={fp} fn={fn}",
        )
        self.checks.check(len(scatter) == tp + 1, f"report: scatter has {len(scatter) - 1} rows, tp={tp}")
        quality = {"f1": rep.get("f1"), "count_accuracy_pct": rep.get("count_accuracy_pct"),
                   "size_rmse_pct": rep.get("size_rmse_pct")}
        return {k: float(v) for k, v in quality.items() if isinstance(v, (int, float))}


# ------------------------------------------------------------------ per-layer metrics

def layer_metrics(walk: Walkthrough, untraced: Walkthrough) -> tuple[dict, list[str]]:
    """Per-layer metrics from one traced walkthrough and its untraced twin.

    Returns the metrics and the names that could not be computed because a
    wrapped function no longer exists or its stage failed.
    """
    missing_calls = {name for doc in walk.trace_docs for name in doc["missing"]}
    spans = []
    for doc in walk.trace_docs:
        child_time: dict[int, float] = {}
        for s in doc["spans"]:
            s["dur"] = s["end"] - s["start"]
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["dur"]
        for s in doc["spans"]:
            s["self"] = s["dur"] - child_time.get(s["id"], 0.0)
        spans += doc["spans"]

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def total(*names: str) -> float:
        return sum(s["dur"] for name in names for s in named(name))

    def ms_p50(name: str) -> float:
        return 1000.0 * statistics.median(s["dur"] for s in named(name))

    dataset_bytes = walk.dataset_bytes()
    tracks = {}
    for side in ("map_a", "map_b", "merged"):
        try:
            tracks[side] = len(json.loads(walk.path(f"{side}.json").read_text(encoding="utf-8"))["tracks"])
        except (OSError, ValueError, KeyError):
            pass
    fits = named("spherefit.ransac_sphere_fit")
    untraced_walls, traced_walls = untraced.stage_walls(), walk.stage_walls()

    # metric -> (value function, wrapped names it needs)
    table = {
        "cli.import_s": (lambda: statistics.median(d["import_s"] for d in walk.trace_docs), ()),
        "cli.simulate_rss_mb": (lambda: untraced.rss["simulate"], ()),
        "cli.map_rss_mb": (lambda: max(untraced.rss["map_a"], untraced.rss["map_b"]), ()),
        "cli.align_rss_mb": (lambda: untraced.rss["align"], ()),
        "simulator.scene_s": (lambda: total("simulator.generate_scene", "simulator.plan_trajectory"),
                              ("fruitmap.cli.generate_scene", "fruitmap.cli.plan_trajectory")),
        "simulator.render_s": (lambda: total("simulator.render_frame"), ("fruitmap.simulator.render_frame",)),
        "simulator.frames": (lambda: len(named("simulator.render_frame")), ("fruitmap.simulator.render_frame",)),
        "simulator.render_ms_p50": (lambda: ms_p50("simulator.render_frame"), ("fruitmap.simulator.render_frame",)),
        "dataset.write_s": (lambda: total("dataset.write_dataset"), ("fruitmap.simulator.write_dataset",)),
        "dataset.bytes_written": (lambda: dataset_bytes, ()),
        "dataset.load_s": (lambda: total("dataset.load_dataset"), ("fruitmap.cli.load_dataset",)),
        "dataset.loads": (lambda: len(named("dataset.load_dataset")), ("fruitmap.cli.load_dataset",)),
        "dataset.bytes_read": (lambda: len(named("dataset.load_dataset")) * dataset_bytes,
                               ("fruitmap.cli.load_dataset",)),
        "dataset.extract_s": (lambda: total("dataset.extract_instance_clouds"),
                              ("fruitmap.mapping.extract_instance_clouds",)),
        "dataset.extract_ms_p50": (lambda: ms_p50("dataset.extract_instance_clouds"),
                                   ("fruitmap.mapping.extract_instance_clouds",)),
        "dataset.clouds": (lambda: sum(s["clouds"] for s in named("dataset.extract_instance_clouds")),
                           ("fruitmap.mapping.extract_instance_clouds",)),
        "dataset.points": (lambda: sum(s["points"] for s in named("dataset.extract_instance_clouds")),
                           ("fruitmap.mapping.extract_instance_clouds",)),
        "spherefit.fits": (lambda: len(fits), ("fruitmap.mapping.ransac_sphere_fit",)),
        "spherefit.fit_s": (lambda: total("spherefit.ransac_sphere_fit"), ("fruitmap.mapping.ransac_sphere_fit",)),
        "spherefit.fit_ms_p50": (lambda: ms_p50("spherefit.ransac_sphere_fit"),
                                 ("fruitmap.mapping.ransac_sphere_fit",)),
        "spherefit.fit_ms_p95": (lambda: 1000.0 * statistics.quantiles(
            [s["dur"] for s in fits], n=20, method="inclusive")[-1],
                                 ("fruitmap.mapping.ransac_sphere_fit",)),
        "spherefit.points_per_fit": (lambda: statistics.mean(s["points"] for s in fits),
                                     ("fruitmap.mapping.ransac_sphere_fit",)),
        "spherefit.downsample_s": (lambda: total("spherefit.downsample_points"),
                                   ("fruitmap.mapping.downsample_points",)),
        "spherefit.accept_ratio": (lambda: sum(s.get("accepted", 0) for s in fits) / len(fits),
                                   ("fruitmap.mapping.ransac_sphere_fit",)),
        "spherefit.errors": (lambda: sum(
            s.get("error") in ("DegenerateSampleError", "InsufficientPointsError")
            for name in ("spherefit.ransac_sphere_fit", "spherefit.downsample_points")
            for s in named(name)),
            ("fruitmap.mapping.ransac_sphere_fit", "fruitmap.mapping.downsample_points")),
        "mapping.build_s": (lambda: total("mapping.build_side_map"), ("fruitmap.cli.build_side_map",)),
        "mapping.self_s": (lambda: sum(s["self"] for s in named("mapping.build_side_map")),
                           ("fruitmap.cli.build_side_map",)),
        "mapping.integrate_s": (lambda: total("mapping.integrate_observation"),
                                ("fruitmap.mapping.integrate_observation",)),
        "mapping.observations": (lambda: len(named("mapping.integrate_observation")),
                                 ("fruitmap.mapping.integrate_observation",)),
        "mapping.tracks": (lambda: tracks["map_a"] + tracks["map_b"], ()),
        "alignment.merge_s": (lambda: total("alignment.merge_maps"), ("fruitmap.cli.merge_maps",)),
        "alignment.cross_merges": (lambda: tracks["map_a"] + tracks["map_b"] - tracks["merged"], ()),
        "evaluation.eval_s": (lambda: total("evaluation.evaluate_map"), ("fruitmap.cli.evaluate_map",)),
        "evaluation.report_s": (lambda: total("evaluation.report_from_json", "evaluation.emit_report",
                                              "evaluation.write_scatter"),
                                ("fruitmap.cli.report_from_json", "fruitmap.cli.emit_report",
                                 "fruitmap.cli.write_scatter")),
        "trace.overhead_pct": (lambda: 100.0 * (
            sum(traced_walls[s] for s in STAGES) / sum(untraced_walls[s] for s in STAGES) - 1.0), ()),
    }
    for stage in STAGES:
        table[f"trace.{stage}_overhead_pct"] = (
            lambda stage=stage: 100.0 * (traced_walls[stage] / untraced_walls[stage] - 1.0), ())

    metrics, missing = {}, []
    for name, (value, needs) in table.items():
        if missing_calls.intersection(needs):
            missing.append(name)
            continue
        try:
            metrics[name] = float(value())
        except (KeyError, ValueError, ZeroDivisionError, statistics.StatisticsError):
            missing.append(name)
    return metrics, missing


# ------------------------------------------------------------------ one workload

def walk_digest(walk: Walkthrough) -> tuple[str, dict[str, str]]:
    artifacts = walk.artifacts()
    return hashlib.sha256(json.dumps(artifacts, sort_keys=True).encode()).hexdigest(), artifacts


def check_stored_digest(checks: Checks, key: str, digest: str, store: bool) -> None:
    """Every run of the same code and workload in this checkout must agree."""
    try:
        known = json.loads(DIGESTS.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    if key in known:
        checks.check(known[key] == digest, f"digest: {key} differs from an earlier run")
    elif store:
        known[key] = digest
        tmp = DIGESTS.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        tmp.replace(DIGESTS)


def end_to_end_metrics(walk: Walkthrough, quality: dict[str, float]) -> dict[str, float]:
    walls = walk.stage_walls()
    metrics = {f"{stage}_s": wall for stage, wall in walls.items()}
    if "version" in walk.walls:
        metrics["setup_s"] = statistics.median(walk.walls["version"])
    if all(stage in walls for stage in STAGES):
        metrics["pipeline_s"] = sum(walls[stage] for stage in STAGES)
    if walk.rss:
        metrics["peak_rss_mb"] = max(walk.rss.values())
    return {**metrics, **quality}


def measure(workload: str, scene_seed: int | None, layout_seed: int, seconds: float,
            trace: bool, break_stage: str | None = None) -> tuple[dict, dict]:
    """Run one workload; return (result line, full record).

    Untraced (trace False): one walkthrough, then stages re-run until
    `seconds` have passed since it started; each stage reports its median.
    Traced: one untraced walkthrough, then one under the span launcher.
    """
    default_seed, simulate = WORKLOADS[workload]
    scene_seed = default_seed if scene_seed is None else scene_seed
    checks = Checks()
    for stale in WORK.glob("*/"):  # left by a run that was killed; runs never overlap
        shutil.rmtree(stale, ignore_errors=True)
    run_dir = WORK / f"{workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    run_id = f"{workload}-{scene_seed}-{os.getpid()}"
    record = {"workload": workload, "scene_seed": scene_seed, "layout_seed": layout_seed,
              "trace": int(trace), "facts": machine_facts()}
    missing: list[str] = []
    try:
        config = run_dir / "config.json"
        write_config(config, {**simulate, "rng_seed": scene_seed}, layout_seed)

        # Warm-up: checks where fruitmap is imported from and writes its
        # bytecode caches, which users pay once, not on every run.
        probe = run_dir / "probe.log"
        code, _, _ = invoke([sys.executable, "-c", "import fruitmap.cli; print(fruitmap.cli.__file__)"], probe)
        origin = last_line(probe)
        if code != 0 or not Path(origin).resolve().is_relative_to(SRC):
            raise SystemExit(f"error: cannot import fruitmap from {SRC}: {origin}")

        deadline = time.perf_counter() + seconds
        plain = Walkthrough(run_dir / "walk", config, checks, False, run_id, break_stage)
        plain.run()
        if trace:
            plain.verify_outputs()
            traced = Walkthrough(run_dir / "traced", config, checks, True, run_id, break_stage)
            traced.run()
            metrics, missing = layer_metrics(traced, plain)
            checks.check(walk_digest(traced)[0] == walk_digest(plain)[0],
                         "digest: traced walkthrough wrote different bytes")
            record["traced_walls"] = traced.walls
        else:
            plain.fill(deadline)
            while len(plain.walls["version"]) < SETUP_SAMPLES:
                plain.stage("version")
            metrics = end_to_end_metrics(plain, plain.verify_outputs())
        digest, artifacts = walk_digest(plain)
        source_key = f"{workload}:{scene_seed}:{source_digest()}"
        check_stored_digest(checks, source_key, digest, store=not checks.failures)
        record.update(walls=plain.walls, rss_mb=plain.rss, artifact_digest=digest, artifacts=artifacts)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record["facts"]["loadavg_end"] = loadavg()
    failed = len(checks.failures)
    record.update(attempted=checks.attempted, failed=failed, failures=checks.failures,
                  failure_ratio=failed / checks.attempted, missing=missing)
    units = metric_units("per_layer" if trace else "end_to_end")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics},
    }
    record["metrics"] = result["metrics"]
    return result, record


def metric_units(section: str) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[section]}


def summarize(record: dict) -> None:
    facts = record["facts"]
    print(f"workload {record['workload']} (scene seed {record['scene_seed']}, "
          f"layout seed {record['layout_seed']}, trace {record['trace']}), "
          f"samples per stage {json.dumps({k: len(v) for k, v in record['walls'].items()})}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for name, metric in record["metrics"].items():
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    for name in record["missing"]:
        print(f"  {name:<32} {'missing':>14}")
    print(f"  failure_ratio {record['failed']}/{record['attempted']} = {record['failure_ratio']:.4g}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(f"  artifact digest {record['artifact_digest']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True, help="layout seed of the generated config")
    parser.add_argument("--seconds", type=float, required=True, help="untraced runs re-run stages until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scene-seed", type=int, default=None, help="held-out scene instead of the pinned one")
    parser.add_argument("--record", type=Path, default=None, help="write the full run record here")
    args = parser.parse_args(argv)

    if not (SRC / "fruitmap" / "cli.py").is_file():
        print(f"error: no fruitmap sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workloads = MAIN_WORKLOADS if args.workload == "all" else (args.workload,)
    results, records = [], []
    for workload in workloads:
        result, record = measure(workload, args.scene_seed, args.seed, args.seconds, bool(args.trace))
        summarize(record)
        results.append(result)
        records.append(record)
    if args.record is not None:
        args.record.write_text(json.dumps(records if len(records) > 1 else records[0], indent=1) + "\n",
                               encoding="utf-8")
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{n}": m for w, r in zip(workloads, results) for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
