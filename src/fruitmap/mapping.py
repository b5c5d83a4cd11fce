"""Side mapping: fit each frame's fruitlets and integrate the fits into tracks.

build_side_map fits every masked instance of one scan side with the robust
sphere estimator and integrates the accepted fits into a TrackStore
(tracks.py, which holds the association rule and the two sides' merge).
Building is deterministic for a fixed dataset, config, and base seed because
every observation's fit is seeded from (base seed, frame index, instance id)
rather than from shared generator state.

build_side_map fits a side's frames in parallel, in one forked process per
usable CPU, and integrates the fits in frame order in the calling process. So
the map is byte-identical whatever the number of processes, and a side
restricted to one CPU (taskset -c 0) is fitted in-process. Each task reads
its own frame (a loaded dataset reads a frame's rasters when it is accessed),
so no process holds more than one frame's pixels.

integrate_observation is looked up in this module when build_side_map runs,
so a replacement set here (a test double, a tracer) sees every fit a side
map integrates.
"""

from __future__ import annotations

import logging
from dataclasses import replace

from ._checks import DatasetError, config_digest
from ._pool import ordered_map
from .dataset import FrameRecord, ScanDataset, extract_instance_clouds
from .records import BranchMap, FitConfig, MergeConfig
from .spherefit import (
    DegenerateSampleError,
    FitReport,
    InsufficientPointsError,
    derive_seed,
    downsample_points,
    ransac_sphere_fit,
)
from .tracks import TrackStore, integrate_observation

__all__ = ["build_side_map"]

logger = logging.getLogger(__name__)


def _fit_frame(frame: FrameRecord, fit_cfg: FitConfig) -> list[tuple[int, FitReport | ValueError]]:
    """Each masked instance's fit in one frame, ascending instance id.

    A cloud too degenerate or too small to fit gives its DegenerateSampleError
    or InsufficientPointsError in place of a report, for the caller to log.
    """
    fits: list[tuple[int, FitReport | ValueError]] = []
    for instance_id, cloud in extract_instance_clouds(frame):
        seed = derive_seed(fit_cfg.rng_seed, frame.frame_index, instance_id)
        obs_cfg = replace(fit_cfg, rng_seed=seed)
        try:
            thinned = downsample_points(cloud, obs_cfg.max_points, seed)
            fits.append((instance_id, ransac_sphere_fit(thinned, obs_cfg)))
        except (DegenerateSampleError, InsufficientPointsError) as exc:
            fits.append((instance_id, exc))
    return fits


# The layer functions _fit_frame calls, as this module imported them.
_LAYERS = (extract_instance_clouds, downsample_points, ransac_sphere_fit)


def _layers_replaced() -> bool:
    """Whether a caller has replaced one of _LAYERS in this module.

    A replacement (a test double, a profiler's wrapper) records its calls in
    the process that makes them, so that caller's frames are fitted in-process.
    """
    return (extract_instance_clouds, downsample_points, ransac_sphere_fit) != _LAYERS


def build_side_map(
    dataset: ScanDataset,
    side: str,
    fit_cfg: FitConfig | None = None,
    merge_cfg: MergeConfig | None = None,
) -> BranchMap:
    """Fit every masked instance in every frame of one side and integrate.

    Frames are fitted by _pool.ordered_map, one forked process per usable CPU
    and at most one per frame, or in this process when a layer function has
    been replaced (_layers_replaced). They are integrated in frame_index
    order, instances in ascending id order. Each observation's RANSAC is
    seeded from (base seed, frame index, instance id), so the map is
    byte-identical whatever the number of processes. Degenerate or
    under-populated clouds are logged and skipped; fits that fail the
    acceptance gate are skipped silently.

    Each task reads its frame, so the process that fits a frame reads and
    checks its rasters: a raster that fails its checks raises that
    DatasetError or OSError, whichever process read it. A fitting process
    that dies raises ChildProcessError naming the side.
    """
    fit_cfg = fit_cfg if fit_cfg is not None else FitConfig()
    merge_cfg = merge_cfg if merge_cfg is not None else MergeConfig()
    if side not in dataset.frames:
        raise DatasetError(
            f"side {side!r} not in dataset (has {sorted(dataset.frames)})"
        )
    frames = dataset.frames[side]

    def fit_at(position: int) -> tuple[int, list[tuple[int, FitReport | ValueError]]]:
        frame = frames[position]
        return frame.frame_index, _fit_frame(frame, fit_cfg)

    store = TrackStore()
    for frame_index, fits in ordered_map(
        fit_at, len(frames), f"side {side!r}: a fitting process", in_process=_layers_replaced()
    ):
        for instance_id, fit in fits:
            if not isinstance(fit, FitReport):
                logger.warning(
                    "sphere fit failed, frame %d instance %d: %s",
                    frame_index,
                    instance_id,
                    fit,
                )
            elif not fit.accepted:
                logger.debug(
                    "fit rejected, frame %d instance %d: inliers=%d diameter=%.4f",
                    frame_index,
                    instance_id,
                    fit.inlier_count,
                    fit.model.diameter,
                )
            else:
                integrate_observation(store, fit.model.center, fit.model.diameter,
                                      merge_cfg.within_radius, sides=(side,))
    return store.build(
        side,
        {
            "dataset_id": dataset.dataset_id,
            "config_digest": config_digest(fit_cfg, merge_cfg),
            "seed": fit_cfg.rng_seed,
        },
    )
