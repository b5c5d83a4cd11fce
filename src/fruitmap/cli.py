"""Command-line pipeline: simulate, map, align, eval, report.

One executable wires the whole pipeline so a scan can be turned into an
evaluated branch map without touching Python. Every subcommand reads an
optional JSON config file into its four records (records.load_config), whose
values beat the defaults. The two stages that draw random numbers, simulate
and map, also take --seed, which beats the configured seed once that is
checked. Outputs are deterministic functions of (input bytes, config, seed),
and every JSON product embeds a provenance block that names the tool version
and, where the product has them, its config digest and seed.

Each stage imports only the modules it runs: a subcommand binds the public
names (the __all__) of the pipeline modules it runs when it starts (_bind),
and the package itself resolves its seven names on first use. So `--version`,
align, eval and report start without numpy whatever their config (records,
tracks and evaluation load none; align reads the scan's manifest and
fiducials with records.load_scan_header and merges with tracks), report loads
records only to check a config it is given, and the other stages load only
their own modules.

Exit codes: 0 success, 1 validation or usage error or out of memory, 2 I/O
error, 130 interrupted (Ctrl-C). All diagnostics go to standard error; data
products only ever go to files.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from types import ModuleType
from typing import Mapping, Sequence

from . import __version__
from ._checks import DatasetError, config_digest, json_digest, read_json, write_json

__all__ = ["main"]

logger = logging.getLogger("fruitmap.cli")

# The pipeline's modules, in the order __getattr__ searches them: records,
# evaluation and tracks, which load no numpy, then the rest leaves first. No
# name is in the __all__ of two of them, so the order a stage binds its modules
# in cannot matter.
_MODULES = ("records", "evaluation", "tracks", "geometry", "spherefit", "dataset", "mapping",
            "simulator")


def _module(name: str) -> ModuleType:
    """The pipeline module fruitmap.<name>, imported as an import statement would.

    importlib.import_module bypasses the timing that `python -X importtime`
    reports; __import__ does not, so that report lists every module a stage loads.
    """
    return __import__(f"{__package__}.{name}", fromlist=["__all__"])


def _bind(*modules: str) -> None:
    """Import modules and set each name in their __all__ here, unless it is set already.

    A function's global lookup never calls the module __getattr__, so each
    subcommand binds the modules it runs before it uses their names. A name
    already set here wins, so a caller may replace one before main runs, as
    bench/launch.py does to time the stages' layer calls.
    """
    for module in modules:
        imported = _module(module)
        for name in imported.__all__:
            globals().setdefault(name, getattr(imported, name))


def __getattr__(name: str) -> object:
    """A public name of the first of _MODULES that has it, bound here (PEP 562).

    Dunder names are not searched: the import system probes for __path__ and
    the like, and must not import every module to learn they are absent.
    """
    for module in () if name.startswith("__") else _MODULES:
        _bind(module)
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _stamped(provenance: Mapping[str, object]) -> dict:
    """provenance with the tool version appended as its last key."""
    return {**provenance, "tool_version": __version__}


# --------------------------------------------------------------- subcommands

def _cmd_simulate(args: argparse.Namespace) -> int:
    _bind("records", "simulator")
    spec = load_config(args.config)["simulate"]
    if args.seed is not None:
        spec = dataclasses.replace(spec, rng_seed=args.seed)
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
    _bind("records", "spherefit", "dataset", "mapping")
    config = load_config(args.config)
    fit_cfg = config["fit"]
    if args.seed is not None:
        fit_cfg = dataclasses.replace(fit_cfg, rng_seed=args.seed)
    dataset = load_dataset(args.dataset, sides=(args.side,))
    branch_map = build_side_map(dataset, args.side, fit_cfg, config["merge"])
    save_branch_map(
        args.out, dataclasses.replace(branch_map, provenance=_stamped(branch_map.provenance))
    )
    logger.info("side %s: %d tracks -> %s", args.side, len(branch_map.tracks), args.out)
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    _bind("records", "tracks")
    merge_cfg = load_config(args.config)["merge"]
    map_a = load_branch_map(args.map_a)
    map_b = load_branch_map(args.map_b)
    if map_a.frame_label == map_b.frame_label:
        raise ValueError(
            f"--map-a and --map-b are both maps of side {map_a.frame_label!r}; "
            "align needs one map per side"
        )
    dataset_id, sides, fiducials = load_scan_header(args.dataset)
    for path, branch_map in ((args.map_a, map_a), (args.map_b, map_b)):
        map_id = branch_map.provenance.get("dataset_id", "")
        if map_id != dataset_id:
            raise ValueError(
                f"{path} is a map of dataset {map_id!r}, but {args.dataset} "
                f"is dataset {dataset_id!r}"
            )
    for label in (map_a.frame_label, map_b.frame_label):
        if label not in fiducials:
            raise DatasetError(
                f"no fiducial for side {label!r} in dataset {args.dataset}"
            )
    if map_a.frame_label != sides[0]:
        raise ValueError(
            f"--map-a is a map of side {map_a.frame_label!r}; align needs the map of side "
            f"{sides[0]!r}, whose frame the ground truth uses, as --map-a"
        )
    b_to_a = cross_side_transform(fiducials[map_a.frame_label], fiducials[map_b.frame_label])
    merged = merge_maps(map_a, transform_map(map_b, b_to_a, map_a.frame_label), merge_cfg)
    save_branch_map(args.out, dataclasses.replace(merged, provenance=_stamped(merged.provenance)))
    logger.info(
        "merged %d + %d tracks into %d -> %s",
        len(map_a.tracks), len(map_b.tracks), len(merged.tracks), args.out,
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    _bind("records", "evaluation")
    eval_cfg = load_config(args.config)["eval"]
    branch_map = load_branch_map(args.map)
    truth = load_ground_truth(args.truth)
    if not truth.fruitlets:
        raise ValueError(f"{args.truth}: no fruitlets, so count accuracy is undefined")
    map_id = branch_map.provenance.get("dataset_id", "")
    if truth.dataset_id is not None and truth.dataset_id != map_id:
        raise ValueError(
            f"{args.map} is a map of dataset {map_id!r}, but {args.truth} "
            f"is the ground truth of dataset {truth.dataset_id!r}"
        )
    if truth.frame_label is not None and branch_map.frame_label not in (truth.frame_label, "merged"):
        raise ValueError(
            f"{args.map} is a map in frame {branch_map.frame_label!r}, but {args.truth} "
            f"is in frame {truth.frame_label!r}"
        )
    report = evaluate_map(branch_map, truth, eval_cfg)
    doc = report_to_json(report)
    doc["provenance"] = _stamped({"config_digest": json_digest(dataclasses.asdict(eval_cfg))})
    write_json(args.out, doc, sort_keys=True)
    logger.info(
        "tp=%d fp=%d fn=%d f1=%.3f -> %s", report.tp, report.fp, report.fn,
        report.f1, args.out,
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    _bind("evaluation")
    if args.config is not None:  # report uses no section, but checks the file all the same
        _module("records").load_config(args.config)
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
    except (ValueError, MemoryError) as exc:  # a worker's MemoryError reaches here too
        reason = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {reason}{exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports it


if __name__ == "__main__":
    sys.exit(main())
