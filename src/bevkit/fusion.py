"""Detection-head feature fusion and the associated losses.

Sums the camera and radar class-logit BEV grids cell by cell (the head's
1x1 conv is already folded into each source), gates radar proposal cells
with the heatmap prior, the sigmoid of the fused logits at those cells
only, and computes the composite detection loss (heatmap binary
cross-entropy plus box L1) and the depth-distribution BCE against a
rasterized ground-truth depth map. It also defines the box types:
BoxSet, boxes as columns, the one type that boxes files load into and that
runs and evaluation take, and DetectionBox, the view of one box.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import DepthMap
from .kan import sigmoid
from .nnprims import DepthBinSpec, as_tensor

logger = logging.getLogger(__name__)

BCE_CLAMP = 1e-7


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


# The box schema, in DetectionBox field order: BoxSet column -> (boxes-file key, numbers
# per row, 0 for a bare number, or the names an id indexes; file default, None if required)
BOX_COLUMNS = {"center": ("translation", 3, None), "size": ("size", 3, None),
               "yaw": ("yaw", 0, None), "velocity": ("velocity", 2, None),
               "class_id": ("detection_name", DETECTION_CLASSES, None),
               "score": ("detection_score", 0, 0.0),
               "attribute_id": ("attribute_name", ATTRIBUTES, "")}


@dataclass(eq=False)
class BoxSet:
    """N boxes as columns: one array per DetectionBox field, row i being box i.

    Ids are int64, the rest float64. Construction checks all rows at once,
    at least as strictly as DetectionBox (equal lengths, finite values, known
    ids too), and names the failing column; take and concat, which cut
    checked columns, skip it. Iterating yields DetectionBoxes.
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
        for name, (_, kind, _) in BOX_COLUMNS.items():
            col, row = np.asarray(getattr(self, name)), ()
            if isinstance(kind, tuple):
                if col.size and col.dtype.kind not in "iu":
                    raise ValueError(f"BoxSet.{name} must hold integers, got {col.dtype}")
                col = col.astype(np.int64)
                if col.size and not (0 <= col.min() and col.max() < len(kind)):
                    raise ValueError(f"BoxSet.{name} must lie in [0, {len(kind)})")
            else:
                try:
                    col = col.astype(np.float64, copy=False)
                except (TypeError, ValueError) as err:
                    raise ValueError(f"BoxSet.{name} must hold numbers: {err}") from err
                row = (kind,) if kind else ()
                if not np.isfinite(col).all():
                    raise ValueError(f"BoxSet.{name} must be finite")
            if not col.size:  # no boxes: any empty array is the empty column
                col = col.reshape(-1, *row)
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
        cols = (getattr(self, f) for f in BOX_COLUMNS)  # in DetectionBox field order
        for row in zip(*(map(tuple, c.tolist()) if c.ndim > 1 else c.tolist() for c in cols)):
            yield DetectionBox(*row)

    @staticmethod
    def _unchecked(columns) -> "BoxSet":
        """A BoxSet of columns cut from checked sets, so the rows need no second check."""
        out = object.__new__(BoxSet)
        out.__dict__.update(zip(BOX_COLUMNS, columns))
        return out

    def take(self, idx) -> "BoxSet":
        """The rows idx (an index array, a slice or a mask), in that order."""
        return BoxSet._unchecked(getattr(self, f)[idx] for f in BOX_COLUMNS)

    def params(self) -> np.ndarray:
        """(N, 9) regression targets: center, size, yaw, velocity."""
        return np.column_stack([self.center, self.size, self.yaw, self.velocity])

    @staticmethod
    def from_boxes(boxes) -> "BoxSet":
        """DetectionBoxes as columns, one array per field, checked as any BoxSet."""
        boxes, columns = list(boxes), []
        for f in BOX_COLUMNS:
            try:
                columns.append(np.array([getattr(b, f) for b in boxes]))
            except ValueError as err:  # rows of differing lengths
                raise ValueError(f"BoxSet.{f} rows must be of one shape: {err}") from err
        return BoxSet(*columns)

    @staticmethod
    def concat(sets) -> "BoxSet":
        """Rows of every set in turn; no sets give an empty set."""
        sets = list(sets) or [BoxSet.from_boxes([])]
        return BoxSet._unchecked(np.concatenate([getattr(s, f) for s in sets])
                                 for f in BOX_COLUMNS)


def fuse_bev_features(f_cam: np.ndarray, f_radar: np.ndarray) -> np.ndarray:
    """Cellwise sum of the camera and the radar (C, ny, nx) grid."""
    f_cam, f_radar = as_tensor(f_cam), as_tensor(f_radar)
    if f_cam.shape != f_radar.shape:
        raise ValueError(f"grids must share a shape: {f_cam.shape}, {f_radar.shape}")
    return f_cam + f_radar


def match_radar_to_heatmap(radar_cells: np.ndarray, logits: np.ndarray,
                           score_thresh: float) -> np.ndarray:
    """Radar proposal cells whose best class score reaches score_thresh.

    logits are the (n_classes, cells) flat fused logits, proposals flat cell
    ids iy*nx + ix of radar-occupied cells. A proposal and a confident cell
    are both one grid cell, so the prior is the sigmoid at the proposals
    alone, each score bit for bit the full-grid heatmap's. Matches keep the
    proposals' order.
    """
    if not 0.0 <= score_thresh <= 1.0:
        raise ValueError("score_thresh must lie in [0, 1]")
    cells = np.asarray(radar_cells, dtype=np.int64)
    if cells.size and not (0 <= cells.min() and cells.max() < logits.shape[1]):
        raise ValueError("radar cells must be flat ids of the logits' grid")
    return cells[sigmoid(logits.take(cells, axis=1)).max(axis=0) >= score_thresh]


def _bce(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    out, hot = np.clip(pred, BCE_CLAMP, 1.0 - BCE_CLAMP), target != 0
    p, t = out[hot], target[hot]
    # -log1p(-p) in place: the BCE, bit for bit, where the target is 0
    np.negative(np.log1p(np.negative(out, out=out), out=out), out=out)
    out[hot] = -(t * np.log(p) + (1.0 - t) * np.log1p(-p))
    return out


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
