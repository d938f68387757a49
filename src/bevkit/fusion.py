"""Detection-head feature fusion and the associated losses.

Sums the camera and radar class-logit BEV grids cell by cell (the head's
1x1 conv is already folded into each source), gates radar proposal cells
with the heatmap prior, and computes the composite detection loss
(heatmap binary cross-entropy plus box L1) and the depth-distribution BCE
against a rasterized ground-truth depth map. It also defines the box types:
BoxSet, boxes as columns, the one type that boxes files load into and that
runs and evaluation take, and DetectionBox, the view of one box.
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


# the names a box's class_id and attribute_id index
DETECTION_CLASSES = (
    "car", "truck", "bus", "trailer", "construction_vehicle",
    "pedestrian", "motorcycle", "bicycle", "traffic_cone", "barrier",
)

ATTRIBUTES = (
    "", "vehicle.moving", "vehicle.parked", "vehicle.stopped",
    "cycle.with_rider", "cycle.without_rider",
    "pedestrian.moving", "pedestrian.standing", "pedestrian.sitting_lying_down",
)


@dataclass
class DetectionBox:
    """One 3-D box in ego coordinates: the per-box view of a BoxSet row."""

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


# BoxSet column -> shape of one row
_BOX_COLUMNS = {"center": (3,), "size": (3,), "yaw": (), "velocity": (2,),
                "class_id": (), "score": (), "attribute_id": ()}
_ID_LIMITS = {"class_id": len(DETECTION_CLASSES), "attribute_id": len(ATTRIBUTES)}


@dataclass(eq=False)
class BoxSet:
    """N boxes as columns: one array per DetectionBox field, row i being box i.

    Ids are int64, the rest float64. Construction checks all rows at once,
    at least as strictly as DetectionBox (equal lengths, finite values, known
    ids too), and names the failing column. Iterating yields DetectionBoxes.
    """

    center: np.ndarray
    size: np.ndarray
    yaw: np.ndarray
    velocity: np.ndarray
    class_id: np.ndarray
    score: np.ndarray
    attribute_id: np.ndarray

    def __post_init__(self):
        n = len(self.center) if np.ndim(self.center) else 0
        for name, row in _BOX_COLUMNS.items():
            col = np.asarray(getattr(self, name))
            if name in _ID_LIMITS:
                if col.size and col.dtype.kind not in "iu":
                    raise ValueError(f"BoxSet.{name} must hold integers, got {col.dtype}")
                col = col.astype(np.int64)
                if col.size and not (0 <= col.min() and col.max() < _ID_LIMITS[name]):
                    raise ValueError(f"BoxSet.{name} must lie in [0, {_ID_LIMITS[name]})")
            else:
                col = col.astype(np.float64, copy=False)
                if not np.isfinite(col).all():
                    raise ValueError(f"BoxSet.{name} must be finite")
            if col.shape != (n, *row):
                raise ValueError(f"BoxSet.{name} must have shape {(n, *row)} "
                                 f"(one row per center), got {col.shape}")
            setattr(self, name, col)
        if not (self.size > 0).all():
            raise ValueError("BoxSet.size must be positive")
        if not ((0.0 <= self.score) & (self.score <= 1.0)).all():
            raise ValueError("BoxSet.score must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.score)

    def __iter__(self):
        for c, s, y, v, k, p, a in zip(*(getattr(self, f).tolist() for f in _BOX_COLUMNS)):
            yield DetectionBox(tuple(c), tuple(s), y, tuple(v), k, p, a)

    def take(self, idx) -> "BoxSet":
        """The rows idx (an index array or a mask), in that order."""
        return BoxSet(*(getattr(self, f)[idx] for f in _BOX_COLUMNS))

    def params(self) -> np.ndarray:
        """(N, 9) regression targets: center, size, yaw, velocity."""
        return np.column_stack([self.center, self.size, self.yaw, self.velocity])

    @staticmethod
    def from_boxes(boxes) -> "BoxSet":
        boxes = list(boxes)
        floats = np.array([(*b.center, *b.size, b.yaw, *b.velocity, b.score) for b in boxes],
                          dtype=np.float64).reshape(-1, 10)
        ids = np.array([(b.class_id, b.attribute_id) for b in boxes],
                       dtype=np.int64).reshape(-1, 2)
        return BoxSet(floats[:, :3], floats[:, 3:6], floats[:, 6], floats[:, 7:9], ids[:, 0],
                      floats[:, 9], ids[:, 1])

    @staticmethod
    def concat(sets) -> "BoxSet":
        """Rows of every set in turn; no sets give an empty set."""
        sets = list(sets) or [BoxSet.from_boxes([])]
        return BoxSet(*(np.concatenate([getattr(s, f) for s in sets]) for f in _BOX_COLUMNS))


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
                   boxes_pred: BoxSet, boxes_gt: BoxSet) -> tuple[float, float, float]:
    """(L_det, L_heatmap, L_bbox): mean BCE over cells plus mean box L1.

    boxes_pred and boxes_gt are matched pairs, aligned by row. L_bbox
    averages each pair's mean absolute difference of params(). With no
    matched pairs the box term is zero by definition (flagged in the log).
    """
    heatmap_pred, heatmap_gt = as_tensor(heatmap_pred), as_tensor(heatmap_gt)
    if heatmap_pred.shape != heatmap_gt.shape:
        raise ValueError("heatmap shapes must match")
    if len(boxes_pred) != len(boxes_gt):
        raise ValueError("box sets must be matched pairs of equal length")
    l_heatmap = float(_bce(heatmap_pred, heatmap_gt).mean())
    if len(boxes_pred):
        l_bbox = float(np.abs(boxes_pred.params() - boxes_gt.params()).mean(axis=1).mean())
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
