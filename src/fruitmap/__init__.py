"""3D fruitlet mapping: count and size immature apples along a scanned branch.

The pipeline turns multi-view depth scans of both canopy sides into one
branch map of fruitlet positions and diameters: per-frame instance clouds
are fitted with a robust sphere estimator, fits are merged into per-side
track maps, the two sides are aligned through a shared fiducial, and the
merged map is scored against ground truth. A deterministic scan simulator
provides synthetic datasets with exact ground truth for verification.
"""

from .alignment import cross_side_transform, merge_maps, transform_map
from .evaluation import evaluate_map
from .mapping import build_side_map
from .simulator import OrchardSpec, simulate_dataset

__version__ = "0.1.0"

# Exactly the names the README's "Library use" section imports; everything
# else is reached through its module (fruitmap.spherefit, fruitmap.dataset, ...).
__all__ = [
    "__version__",
    "OrchardSpec",
    "simulate_dataset",
    "build_side_map",
    "cross_side_transform",
    "transform_map",
    "merge_maps",
    "evaluate_map",
]
