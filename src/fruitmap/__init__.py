"""3D fruitlet mapping: count and size immature apples along a scanned branch.

The pipeline turns multi-view depth scans of both canopy sides into one
branch map of fruitlet positions and diameters: per-frame instance clouds
are fitted with a robust sphere estimator, fits are merged into per-side
track maps, the two sides are aligned through a shared fiducial, and the
merged map is scored against ground truth. A deterministic scan simulator
provides synthetic datasets with exact ground truth for verification.

Importing the package loads none of its modules: each exported name is
imported from its module on first use (PEP 562), so `fruitmap --version`
and the stages that need no numpy start without it.
"""

__version__ = "0.1.0"

# Exactly the names the README's "Library use" section imports, each with the
# module that defines it; everything else is reached through its module
# (fruitmap.spherefit, fruitmap.dataset, ...).
_MODULES = {
    "OrchardSpec": "records",
    "simulate_dataset": "simulator",
    "build_side_map": "mapping",
    "cross_side_transform": "tracks",
    "transform_map": "tracks",
    "merge_maps": "tracks",
    "evaluate_map": "evaluation",
}

__all__ = ["__version__", *_MODULES]


def __getattr__(name: str) -> object:
    """Import an exported name from its module, once: it is cached here."""
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{_MODULES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
