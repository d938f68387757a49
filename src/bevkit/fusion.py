"""Detection-head feature fusion and the associated losses.

Combines the camera BEV grid, the projected radar pseudo image, and the
depth-path grid by cellwise summation, filters radar box proposals against
heatmap priors with axis-aligned BEV IOU, and computes the composite
detection loss (heatmap binary cross-entropy plus box L1) and the
depth-distribution BCE against a rasterized ground-truth depth map.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

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


@dataclass
class FusedBEV:
    data: np.ndarray


@dataclass
class RadarMatch:
    """One radar box accepted by the heatmap prior."""

    box: DetectionBox
    cell: tuple[int, int]  # (iy, ix)
    iou: float
    q_row: np.ndarray = field(repr=False)  # (x, y, vx, vy)


def fuse_bev_features(f_bev: np.ndarray, f_radar: np.ndarray,
                      f_depth: np.ndarray) -> FusedBEV:
    """Cellwise sum of the three aligned (C, ny, nx) grids.

    The radar pseudo image must already be projected to the shared channel
    count (conv_pointwise) before it gets here.
    """
    f_bev, f_radar, f_depth = as_tensor(f_bev), as_tensor(f_radar), as_tensor(f_depth)
    if not (f_bev.shape == f_radar.shape == f_depth.shape):
        raise ValueError(
            f"grids must share a shape: {f_bev.shape}, {f_radar.shape}, {f_depth.shape}"
        )
    return FusedBEV(f_bev + f_radar + f_depth)


def _footprint(box: DetectionBox) -> tuple[float, float, float, float]:
    """(x_lo, x_hi, y_lo, y_hi) of the axis-aligned BEV footprint."""
    cx, cy, _ = box.center
    w, length, _ = box.size
    return cx - w / 2, cx + w / 2, cy - length / 2, cy + length / 2


def iou_bev(a: DetectionBox, b: DetectionBox) -> float:
    """Axis-aligned BEV IOU over (x, y, w, l) footprints, ignoring yaw."""
    ax0, ax1, ay0, ay1 = _footprint(a)
    bx0, bx1, by0, by1 = _footprint(b)
    ix = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    iy = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = ix * iy
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union if union > 0 else 0.0


def match_radar_to_heatmap(radar_boxes: list[DetectionBox], heatmap: Heatmap,
                           score_thresh: float, iou_thresh: float) -> list[RadarMatch]:
    """Keep radar boxes that overlap a confident heatmap cell.

    Cells whose best class score reaches score_thresh become one-cell valid
    regions; each radar box matches its highest-IOU valid cell provided the
    IOU reaches iou_thresh, ties resolved toward the lower flat cell index.
    Matched boxes emit (x, y, vx, vy) rows for feature concatenation.
    """
    if not 0.0 <= score_thresh <= 1.0 or not 0.0 <= iou_thresh <= 1.0:
        raise ValueError("thresholds must lie in [0, 1]")
    cfg = heatmap.config
    valid = heatmap.scores.max(axis=0) >= score_thresh
    flat_ids = np.flatnonzero(valid.ravel())
    if flat_ids.size == 0 or not radar_boxes:
        return []
    iy, ix = np.divmod(flat_ids, cfg.nx)
    centers = cfg.cell_center(ix, iy)
    dx, dy = cfg.cell_size
    cell_x0, cell_x1 = centers[:, 0] - dx / 2, centers[:, 0] + dx / 2
    cell_y0, cell_y1 = centers[:, 1] - dy / 2, centers[:, 1] + dy / 2
    cell_area = dx * dy

    matches = []
    for box in radar_boxes:
        bx0, bx1, by0, by1 = _footprint(box)
        ov_x = np.maximum(0.0, np.minimum(bx1, cell_x1) - np.maximum(bx0, cell_x0))
        ov_y = np.maximum(0.0, np.minimum(by1, cell_y1) - np.maximum(by0, cell_y0))
        inter = ov_x * ov_y
        union = (bx1 - bx0) * (by1 - by0) + cell_area - inter
        ious = np.where(union > 0, inter / union, 0.0)
        best = int(np.argmax(ious))  # first maximum = lowest flat cell id
        if ious[best] >= iou_thresh:
            q = np.array([box.center[0], box.center[1], *box.velocity])
            matches.append(RadarMatch(box, (int(iy[best]), int(ix[best])),
                                      float(ious[best]), q))
    return matches


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
