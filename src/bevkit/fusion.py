"""Detection-head feature fusion and the associated losses.

Sums the camera and radar class-logit BEV grids cell by cell (the head's
1x1 conv is already folded into each source), gates radar proposal cells
with the heatmap prior, and computes the composite detection loss
(heatmap binary cross-entropy plus box L1) and the depth-distribution BCE
against a rasterized ground-truth depth map.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import DepthMap
from .nnprims import DepthBinSpec, as_tensor
from .voxelpool import BEVGridConfig

logger = logging.getLogger(__name__)

BCE_CLAMP = 1e-7


@dataclass
class Heatmap:
    """Per-class cell scores in [0, 1] over a BEV grid."""

    scores: np.ndarray
    config: BEVGridConfig

    def __post_init__(self):
        self.scores = as_tensor(self.scores)
        if self.scores.ndim != 3:
            raise ValueError("heatmap must be (n_classes, ny, nx)")
        if self.scores.shape[1:] != (self.config.ny, self.config.nx):
            raise ValueError("heatmap shape does not match its grid config")
        if self.scores.min() < 0 or self.scores.max() > 1:
            raise ValueError("heatmap scores must lie in [0, 1]")


@dataclass
class DetectionBox:
    """3-D box in ego coordinates with class, score, and attribute."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]  # (w, l, h); w spans x, l spans y in BEV
    yaw: float
    velocity: tuple[float, float]
    class_id: int
    score: float = 0.0
    attribute_id: int = 0

    def __post_init__(self):
        if min(self.size) <= 0:
            raise ValueError("box sizes must be positive")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must lie in [0, 1]")

    def param_vector(self) -> np.ndarray:
        """9-D regression target: center, size, yaw, velocity."""
        return np.array([*self.center, *self.size, self.yaw, *self.velocity])


def fuse_bev_features(f_cam: np.ndarray, f_radar: np.ndarray) -> np.ndarray:
    """Cellwise sum of the camera and the radar (C, ny, nx) grid."""
    f_cam, f_radar = as_tensor(f_cam), as_tensor(f_radar)
    if f_cam.shape != f_radar.shape:
        raise ValueError(f"grids must share a shape: {f_cam.shape}, {f_radar.shape}")
    return f_cam + f_radar


def match_radar_to_heatmap(radar_cells: np.ndarray, heatmap: Heatmap,
                           score_thresh: float) -> np.ndarray:
    """Radar proposal cells whose best class score reaches score_thresh.

    Proposals are flat cell ids iy*nx + ix of radar-occupied cells of the
    heatmap's grid. A proposal and a confident cell are both one grid cell,
    so a proposal overlaps no confident cell but its own: the prior is one
    mask lookup. Matches keep the proposals' order.
    """
    if not 0.0 <= score_thresh <= 1.0:
        raise ValueError("score_thresh must lie in [0, 1]")
    cells = np.asarray(radar_cells, dtype=np.int64)
    confident = heatmap.scores.max(axis=0).ravel() >= score_thresh
    if cells.size and not (0 <= cells.min() and cells.max() < confident.size):
        raise ValueError("radar cells must be flat ids of the heatmap's grid")
    return cells[confident[cells]]


def _bce(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    p = np.clip(pred, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return -(target * np.log(p) + (1.0 - target) * np.log1p(-p))


def detection_loss(heatmap_pred: np.ndarray, heatmap_gt: np.ndarray,
                   boxes_pred: list[DetectionBox], boxes_gt: list[DetectionBox]
                   ) -> tuple[float, float, float]:
    """(L_det, L_heatmap, L_bbox): mean BCE over cells plus mean box L1.

    boxes_pred and boxes_gt are matched pairs, aligned by index. With no
    matched pairs the box term is zero by definition (flagged in the log).
    """
    heatmap_pred, heatmap_gt = as_tensor(heatmap_pred), as_tensor(heatmap_gt)
    if heatmap_pred.shape != heatmap_gt.shape:
        raise ValueError("heatmap shapes must match")
    if len(boxes_pred) != len(boxes_gt):
        raise ValueError("box lists must be matched pairs of equal length")
    l_heatmap = float(_bce(heatmap_pred, heatmap_gt).mean())
    if boxes_pred:
        diffs = [np.abs(p.param_vector() - g.param_vector()).mean()
                 for p, g in zip(boxes_pred, boxes_gt)]
        l_bbox = float(np.mean(diffs))
    else:
        logger.warning("detection_loss: no matched box pairs, L_bbox = 0 by definition")
        l_bbox = 0.0
    return l_heatmap + l_bbox, l_heatmap, l_bbox


def depth_bce_loss(p_depth: np.ndarray, depth_gt: DepthMap, bins: DepthBinSpec) -> float:
    """Mean per-pixel BCE between the depth distribution and one-hot truth.

    Ground-truth depths are discretized to their nearest bin; sentinel
    pixels are excluded. Per pixel the loss averages the BCE of all bins
    against the one-hot target.
    """
    p_depth = as_tensor(p_depth)
    if p_depth.ndim != 3 or p_depth.shape[0] != bins.n_bins:
        raise ValueError("depth distribution must be (n_bins, H, W)")
    if p_depth.shape[1:] != depth_gt.values.shape:
        raise ValueError(
            f"spatial mismatch: distribution {p_depth.shape[1:]} vs map {depth_gt.values.shape}"
        )
    covered = depth_gt.coverage_mask()
    n_pix = int(np.count_nonzero(covered))
    if n_pix == 0:
        raise ValueError("no supervised pixels in the depth map")
    idx = bins.index_of(depth_gt.values[covered])
    probs = p_depth[:, covered]  # (n_bins, n_pix)
    target = np.zeros_like(probs)
    target[idx, np.arange(n_pix)] = 1.0
    return float(_bce(probs, target).mean(axis=0).mean())
