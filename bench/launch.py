"""Run one fruitmap CLI stage with a span around each layer call.

    python3 bench/launch.py SPANS_JSON RUN_ID -- <fruitmap arguments>

Layer functions are wrapped where their callers look them up (for example
``fruitmap.mapping.ransac_sphere_fit`` and ``fruitmap.simulator.render_frame``),
so nothing in the package changes. Spans stay in memory and are written to
SPANS_JSON when the stage ends: name, start, end, parent span id and run id,
plus the per-call counts some layers report. A wrapped name that no longer
exists is listed under "missing" instead of failing the stage.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _cloud_counts(args, kwargs, result):
    return {"clouds": len(result), "points": sum(len(cloud) for _, cloud in result)}


def _fit_counts(args, kwargs, result):
    return {"points": len(args[0]), "accepted": int(bool(result.accepted))}


# (module, attribute, span name, counts from (args, kwargs, result) or None).
# Each name is patched in the module that calls it, not where it is defined.
LAYER_CALLS = (
    ("fruitmap.cli", "generate_scene", "simulator.generate_scene", None),
    ("fruitmap.cli", "plan_trajectory", "simulator.plan_trajectory", None),
    ("fruitmap.simulator", "render_frame", "simulator.render_frame", None),
    ("fruitmap.simulator", "write_dataset", "dataset.write_dataset", None),
    ("fruitmap.cli", "load_dataset", "dataset.load_dataset", None),
    ("fruitmap.mapping", "extract_instance_clouds", "dataset.extract_instance_clouds", _cloud_counts),
    ("fruitmap.mapping", "downsample_points", "spherefit.downsample_points", None),
    ("fruitmap.mapping", "ransac_sphere_fit", "spherefit.ransac_sphere_fit", _fit_counts),
    ("fruitmap.mapping", "integrate_observation", "mapping.integrate_observation", None),
    ("fruitmap.cli", "build_side_map", "mapping.build_side_map", None),
    ("fruitmap.cli", "merge_maps", "alignment.merge_maps", None),
    ("fruitmap.cli", "evaluate_map", "evaluation.evaluate_map", None),
    ("fruitmap.cli", "report_from_json", "evaluation.report_from_json", None),
    ("fruitmap.cli", "emit_report", "evaluation.emit_report", None),
    ("fruitmap.cli", "write_scatter", "evaluation.write_scatter", None),
)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "run": self.run_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, counts):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self.close(span)
            if counts is not None:
                try:
                    span.update(counts(args, kwargs, result))
                except (AttributeError, TypeError, ValueError, IndexError):
                    span["counts_unreadable"] = True
            return result

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every LAYER_CALLS name that exists; return the ones that do not."""
    import importlib

    missing = []
    for module_name, attr, span_name, counts in LAYER_CALLS:
        try:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(fn, span_name, counts))
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    spans_path, run_id, cli_args = Path(argv[0]), argv[1], argv[3:]
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import fruitmap.cli

    import_s = time.perf_counter() - started
    if not Path(fruitmap.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: fruitmap imported from {fruitmap.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = Tracer(run_id)
    missing = install(tracer)
    command = cli_args[0] if cli_args and not cli_args[0].startswith("-") else "version"
    root = tracer.open(f"cli.{command}")
    try:
        return fruitmap.cli.main(cli_args)
    finally:
        tracer.close(root)
        doc = {"import_s": import_s, "missing": missing, "spans": tracer.spans}
        spans_path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
