"""Command-line pipeline: simulate, map, align, eval, report.

One executable wires the whole pipeline so a scan can be turned into an
evaluated branch map without touching Python. Every subcommand reads an
optional JSON config file, whose values beat the built-in defaults. The two
stages that draw random numbers, simulate and map, also take --seed, which
beats the configured seed. Outputs are deterministic functions of (input
bytes, config, seed), and every JSON product embeds a provenance block that
names the tool version and, where the product has them, its config digest
and seed.

Exit codes: 0 success, 1 validation or usage error, 2 I/O error, 130
interrupted (Ctrl-C). All diagnostics go to standard error; data products
only ever go to files.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from typing import Mapping, Sequence

from . import __version__
from .alignment import cross_side_transform, merge_maps, transform_map
from .dataset import (
    DatasetError,
    json_digest,
    load_dataset,
    load_ground_truth,
    read_json,
    write_json,
)
from .evaluation import (
    MATCH_TOLERANCE,
    emit_report,
    evaluate_map,
    report_from_json,
    report_to_json,
    write_scatter,
)
from .mapping import (
    CROSS_SIDE_RADIUS,
    WITHIN_SIDE_RADIUS,
    MergeConfig,
    build_side_map,
    config_digest,
    load_branch_map,
    save_branch_map,
)
from .simulator import OrchardSpec, export_dataset, generate_scene, plan_trajectory
from .spherefit import FitConfig

__all__ = ["main"]

logger = logging.getLogger("fruitmap.cli")

# The one table of config sections and the keys each one allows.
_CONFIG_KEYS = {
    "simulate": tuple(f.name for f in dataclasses.fields(OrchardSpec)),
    "fit": tuple(f.name for f in dataclasses.fields(FitConfig)),
    "merge": ("within_radius", "cross_radius"),
    "eval": ("tolerance",),
}


def _load_config(path: str | None) -> dict[str, dict]:
    """Every section of the config file, checked against _CONFIG_KEYS.

    Absent sections come back empty, and JSON lists become tuples. Values are
    not coerced: the constructors that receive them check their types.
    """
    doc = {} if path is None else read_json(path)
    for key, section in doc.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(
                f"config {path}: unknown section {key!r} "
                f"(expected one of {', '.join(_CONFIG_KEYS)})"
            )
        if not isinstance(section, dict):
            raise ValueError(f"config {path}: section {key!r} must be an object")
        unknown = sorted(set(section) - set(_CONFIG_KEYS[key]))
        if unknown:
            raise ValueError(f"config {path}: unknown {key} option(s): {', '.join(unknown)}")
    return {
        name: {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in doc.get(name, {}).items()
        }
        for name in _CONFIG_KEYS
    }


def _stamped(provenance: Mapping[str, object]) -> dict:
    """provenance with the tool version appended as its last key."""
    return {**provenance, "tool_version": __version__}


# --------------------------------------------------------------- subcommands

def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    kwargs = config["simulate"]
    if args.seed is not None:
        kwargs["rng_seed"] = args.seed
    spec = OrchardSpec(**kwargs)
    scene = generate_scene(spec)
    trajectory = plan_trajectory(spec)
    dataset = export_dataset(
        scene, trajectory, args.out,
        _stamped({"config_digest": config_digest(spec), "seed": spec.rng_seed}),
    )
    n_frames = sum(len(poses) for poses in trajectory.values())
    logger.info("wrote dataset %s (%d frames) to %s", dataset.dataset_id, n_frames, args.out)
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    fit_kwargs = config["fit"]
    if args.seed is not None:
        fit_kwargs["rng_seed"] = args.seed
    fit_cfg = FitConfig(**fit_kwargs)
    merge = config["merge"]
    merge_cfg = MergeConfig(merge_radius=merge.get("within_radius", WITHIN_SIDE_RADIUS))
    dataset = load_dataset(args.dataset, sides=(args.side,))
    branch_map = build_side_map(dataset, args.side, fit_cfg, merge_cfg)
    save_branch_map(
        args.out, dataclasses.replace(branch_map, provenance=_stamped(branch_map.provenance))
    )
    logger.info("side %s: %d tracks -> %s", args.side, len(branch_map.tracks), args.out)
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    merge = config["merge"]
    merge_cfg = MergeConfig(merge_radius=merge.get("cross_radius", CROSS_SIDE_RADIUS))
    map_a = load_branch_map(args.map_a)
    map_b = load_branch_map(args.map_b)
    if map_a.frame_label == map_b.frame_label:
        raise ValueError(
            f"--map-a and --map-b are both maps of side {map_a.frame_label!r}; "
            "align needs one map per side"
        )
    dataset = load_dataset(args.dataset, sides=())
    for path, branch_map in ((args.map_a, map_a), (args.map_b, map_b)):
        map_id = branch_map.provenance.get("dataset_id", "")
        if map_id != dataset.dataset_id:
            raise ValueError(
                f"{path} is a map of dataset {map_id!r}, but {args.dataset} "
                f"is dataset {dataset.dataset_id!r}"
            )
    for label in (map_a.frame_label, map_b.frame_label):
        if label not in dataset.fiducials:
            raise DatasetError(
                f"no fiducial for side {label!r} in dataset {args.dataset}"
            )
    if map_a.frame_label != dataset.sides[0]:
        raise ValueError(
            f"--map-a is a map of side {map_a.frame_label!r}; align needs the map of side "
            f"{dataset.sides[0]!r}, whose frame the ground truth uses, as --map-a"
        )
    b_to_a = cross_side_transform(
        dataset.fiducials[map_a.frame_label], dataset.fiducials[map_b.frame_label]
    )
    merged = merge_maps(map_a, transform_map(map_b, b_to_a, map_a.frame_label), merge_cfg)
    save_branch_map(args.out, dataclasses.replace(merged, provenance=_stamped(merged.provenance)))
    logger.info(
        "merged %d + %d tracks into %d -> %s",
        len(map_a.tracks), len(map_b.tracks), len(merged.tracks), args.out,
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    settings = {"tolerance": MATCH_TOLERANCE, **_load_config(args.config)["eval"]}
    branch_map = load_branch_map(args.map)
    truth = load_ground_truth(args.truth)
    if not truth.fruitlets:
        raise ValueError(f"{args.truth}: no fruitlets, so count accuracy is undefined")
    report = evaluate_map(branch_map, truth, **settings)
    doc = report_to_json(report)
    doc["provenance"] = _stamped({"config_digest": json_digest(settings)})
    write_json(args.out, doc, sort_keys=True)
    logger.info(
        "tp=%d fp=%d fn=%d f1=%.3f -> %s", report.tp, report.fp, report.fn,
        report.f1, args.out,
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    _load_config(args.config)
    doc = read_json(args.eval)
    try:
        report = report_from_json(doc)
    except DatasetError as exc:
        raise DatasetError(f"{args.eval}: {exc}") from exc
    if args.format == "csv":
        emit_report(report, args.out)
    else:
        doc = report_to_json(report)
        doc["provenance"] = _stamped({})
        write_json(args.out, doc, sort_keys=True)
    if args.scatter is not None:
        write_scatter(report, args.scatter)
        logger.info("scatter (%d rows) -> %s", len(report.size_pairs), args.scatter)
    logger.info("report (%s) -> %s", args.format, args.out)
    return 0


# -------------------------------------------------------------------- wiring

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fruitmap",
        description="Map, size, and evaluate fruitlets along a scanned branch.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file", default=None)
    common.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="warning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="override the configured RNG seed")

    p = sub.add_parser(
        "simulate", parents=[common, seeded], help="render a synthetic scan dataset"
    )
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("map", parents=[common, seeded], help="build one side's branch map")
    p.add_argument("--dataset", required=True, help="scan dataset directory")
    p.add_argument("--side", required=True, help="side label, e.g. A")
    p.add_argument("--out", required=True, help="branch map JSON to write")
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("align", parents=[common], help="merge two side maps into one frame")
    p.add_argument("--map-a", required=True, help="reference-side branch map JSON")
    p.add_argument("--map-b", required=True, help="branch map JSON to fold in")
    p.add_argument("--dataset", required=True, help="dataset holding the fiducial records")
    p.add_argument("--out", required=True, help="merged branch map JSON to write")
    p.set_defaults(handler=_cmd_align)

    p = sub.add_parser("eval", parents=[common], help="score a branch map against ground truth")
    p.add_argument("--map", required=True, help="branch map JSON")
    p.add_argument("--truth", required=True, help="ground truth JSON")
    p.add_argument("--out", required=True, help="evaluation report JSON to write")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("report", parents=[common], help="render an evaluation report")
    p.add_argument("--eval", required=True, help="evaluation report JSON")
    p.add_argument("--format", choices=("json", "csv"), required=True)
    p.add_argument("--out", required=True, help="file to write")
    p.add_argument("--scatter", default=None, help="optional matched-sizes CSV")
    p.set_defaults(handler=_cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints its own diagnostics; usage errors are validation errors
        return 0 if exc.code == 0 else 1
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports it


if __name__ == "__main__":
    sys.exit(main())
