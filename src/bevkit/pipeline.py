"""End-to-end pipeline: pillars -> depth net -> lift -> pooling -> fusion.

Runs a scene bundle through every stage with seeded, untrained weights,
records per-stage checksums and wall-clock, computes the losses, decodes
box predictions from the fused heatmap, and evaluates them against the
bundle's ground truth.

Stage wiring, where the configuration leaves the sensors on:

    radar cloud -> pillars -> VFE -> pseudo image -> 1x1 conv -> f_radar
    camera features + rig -> gates -> depth logits + context
    radar projections -> depth-logit hints (camera+radar only)
    per camera: softmax -> depth weights p; p refined one kernel column
      at a time -> column taps; frustum -> BEV cells; p summed into
      (cell, pixel) slots @ context -> plain grid; taps likewise -> refined
      grid (no (C, D, H, W) lift is built)
    f_bev, f_depth = sums over cameras of the plain and refined grids
    f_bev + f_radar + f_depth -> heatmap prior -> radar box matching
    matched q rows -> q grid -> final heatmap -> peak decoding

The depth supervision target is always rasterized from the lidar and radar
clouds together, so camera-only and camera+radar runs report BCE against
the same target and stay comparable.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fusion as fu
from . import geometry as geo
from . import kan
from . import metrics as me
from . import pillars as pi
from . import voxelpool as vp
from .nnprims import DepthBinSpec, conv_pointwise, refine_taps, softmax_over_depth
# The pipeline no longer lifts or refines the lift, but perfbench/tracing.py
# patches these names here.
from .nnprims import depth_refine, lift_outer_product  # noqa: F401
from .scene import CLASS_SIZES, CLASS_ATTRIBUTES, SceneBundle, load_scene

POOL_IMPLS = ("reference", "cumsum", "concurrent")
MODALITIES = ("camera", "camera+radar")
N_CLASSES = len(me.DETECTION_CLASSES)


@dataclass
class PipelineConfig:
    """Single stage-keyed configuration for a pipeline run.

    Defaults are the desk-scale constants; none of them comes from a
    published table.
    """

    # depth discretization and head widths
    d_min: float = 2.0
    d_max: float = 58.0
    n_depth_bins: int = 112
    n_context: int = 80
    kan_hidden: tuple[int, ...] = (64,)
    # BEV grid (shared by pillars and pooling)
    bev_range: float = 51.2
    bev_cells: int = 128
    # pillar stream
    pillar_max_points: int = 20
    pillar_max_pillars: int = 4096
    radar_channels: int = 32
    # fusion and head
    heatmap_score_thresh: float = 0.55
    match_iou_thresh: float = 0.01
    peak_threshold: float = 0.6
    # moderate prior weight: a hard boost would backfire at pixels where
    # lidar sees a nearer surface than the radar return
    radar_hint_strength: float = 2.0
    # execution
    weight_seed: int = 7
    pooling: str = "reference"
    workers: int = 4
    modality: str = "camera+radar"
    sequential: bool = False

    def __post_init__(self):
        if isinstance(self.kan_hidden, list):
            self.kan_hidden = tuple(self.kan_hidden)
        for name, (ok, what) in _RULES.items():
            if not ok(getattr(self, name)):
                raise ValueError(f"{name} must be {what}, got {getattr(self, name)!r}")
        if self.d_max <= self.d_min:
            raise ValueError("d_max must exceed d_min")

    @property
    def depth_bins(self) -> DepthBinSpec:
        return DepthBinSpec(self.d_min, self.d_max, self.n_depth_bins)

    @property
    def bev_grid(self) -> vp.BEVGridConfig:
        r = self.bev_range
        return vp.BEVGridConfig((-r, r), (-r, r), self.bev_cells, self.bev_cells)

    @property
    def pillar_grid(self) -> pi.PillarGridConfig:
        r = self.bev_range
        return pi.PillarGridConfig((-r, r), (-r, r),
                                   (self.bev_cells, self.bev_cells),
                                   self.pillar_max_points, self.pillar_max_pillars)

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def to_dict(self) -> dict:
        out: dict = {}
        for name, (section, key) in CONFIG_KEYS.items():
            value = getattr(self, name)
            out.setdefault(section, {})[key] = list(value) if name == "kan_hidden" else value
        return out

    @staticmethod
    def from_dict(d: dict) -> "PipelineConfig":
        """Inverse of to_dict; absent keys keep their defaults, unknown ones raise."""
        if not isinstance(d, dict):
            raise ValueError("config must be a JSON object")
        fields = {}
        for section, values in d.items():
            if section not in _SECTIONS:
                raise ValueError(f"unknown config section {section!r}")
            if not isinstance(values, dict):
                raise ValueError(f"config section {section!r} must be an object")
            for key, value in values.items():
                if (section, key) in RETIRED_KEYS:
                    only = RETIRED_KEYS[section, key]
                    # compare types too: False == 0 and 10 == 10.0 in Python
                    if type(value) is not type(only) or value != only:
                        raise ValueError(f"config key {section}.{key} is retired; "
                                         f"only {json.dumps(only)} is accepted")
                    continue
                if (section, key) not in _FIELD_OF:
                    raise ValueError(f"unknown config key {section}.{key}")
                fields[_FIELD_OF[section, key]] = value
        return PipelineConfig(**fields)

    @staticmethod
    def from_json(path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return PipelineConfig.from_dict(json.load(fh))


# field -> (section, key) in the JSON layout written by PipelineConfig.to_json
CONFIG_KEYS = {
    "d_min": ("depth", "d_min"),
    "d_max": ("depth", "d_max"),
    "n_depth_bins": ("depth", "n_bins"),
    "n_context": ("depth", "n_context"),
    "kan_hidden": ("depth", "kan_hidden"),
    "bev_range": ("bev", "range"),
    "bev_cells": ("bev", "cells"),
    "pillar_max_points": ("pillars", "max_points"),
    "pillar_max_pillars": ("pillars", "max_pillars"),
    "radar_channels": ("pillars", "channels"),
    "heatmap_score_thresh": ("fusion", "heatmap_score_thresh"),
    "match_iou_thresh": ("fusion", "match_iou_thresh"),
    "peak_threshold": ("fusion", "peak_threshold"),
    "radar_hint_strength": ("fusion", "radar_hint_strength"),
    "weight_seed": ("run", "weight_seed"),
    "pooling": ("run", "pooling"),
    "workers": ("run", "workers"),
    "modality": ("run", "modality"),
    "sequential": ("run", "sequential"),
}
_FIELD_OF = {where: name for name, where in CONFIG_KEYS.items()}
_SECTIONS = {section for section, _ in CONFIG_KEYS.values()}

# keys that older versions wrote -> the only value that still loads
RETIRED_KEYS = {
    ("run", "average_pool"): False,
    ("fusion", "n_classes"): N_CLASSES,
}


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return _is_int(v) or (isinstance(v, (float, np.floating)) and math.isfinite(v))


def _at_least(low: int):
    return (lambda v: _is_int(v) and v >= low), f"an integer >= {low}"


_POSITIVE = (lambda v: _is_real(v) and v > 0), "a positive number"
_UNIT = (lambda v: _is_real(v) and 0 <= v <= 1), "a number in [0, 1]"

# field -> (predicate, what the value must be); checked by PipelineConfig.__post_init__
_RULES = {
    "d_min": _POSITIVE,
    "d_max": _POSITIVE,
    "n_depth_bins": _at_least(3),  # depth_refine's 3x3 kernel spans three bins
    "n_context": _at_least(1),
    "kan_hidden": ((lambda v: isinstance(v, tuple) and all(_is_int(h) and h >= 1 for h in v)),
                   "a list of integers >= 1"),
    "bev_range": _POSITIVE,
    "bev_cells": _at_least(1),
    "pillar_max_points": _at_least(1),
    "pillar_max_pillars": _at_least(1),
    "radar_channels": _at_least(1),
    "heatmap_score_thresh": _UNIT,
    "match_iou_thresh": _UNIT,
    "peak_threshold": _UNIT,
    "radar_hint_strength": ((lambda v: _is_real(v) and v >= 0), "a number >= 0"),
    "weight_seed": _at_least(0),
    "pooling": ((lambda v: v in POOL_IMPLS), f"one of {POOL_IMPLS}"),
    "workers": _at_least(1),
    "modality": ((lambda v: v in MODALITIES), f"one of {MODALITIES}"),
    "sequential": ((lambda v: isinstance(v, bool)), "true or false"),
}


@dataclass
class PipelineWeights:
    """All seeded, injectable parameters of one run."""

    vfe: pi.VfeWeights
    depthnet: kan.DepthNetParams
    radar_proj_kernel: np.ndarray
    radar_proj_bias: np.ndarray
    head_kernel: np.ndarray
    head_bias: np.ndarray
    q_kernel: np.ndarray
    q_bias: np.ndarray
    refine_kernel: np.ndarray

    @staticmethod
    def create(cfg: PipelineConfig, n_features: int) -> "PipelineWeights":
        rng = np.random.default_rng(cfg.weight_seed)
        c_ctx = cfg.n_context
        return PipelineWeights(
            vfe=pi.VfeWeights.random(rng, cfg.radar_channels),
            depthnet=kan.DepthNetParams.random(
                rng, n_features, cfg.n_depth_bins, c_ctx, hidden=cfg.kan_hidden),
            radar_proj_kernel=rng.normal(0.0, 0.2, (c_ctx, cfg.radar_channels)),
            radar_proj_bias=np.zeros(c_ctx),
            head_kernel=rng.normal(0.0, 0.3, (N_CLASSES, c_ctx)),
            head_bias=rng.normal(0.0, 0.1, N_CLASSES),
            q_kernel=rng.normal(0.0, 0.2, (c_ctx, 4)),
            q_bias=np.zeros(c_ctx),
            refine_kernel=np.array([[0.0, 0.1, 0.0],
                                    [0.1, 0.6, 0.1],
                                    [0.0, 0.1, 0.0]]),
        )


@dataclass
class RunReport:
    """Checksums, losses, fusion stats, evaluation, and per-stage timing."""

    checksums: dict[str, str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    losses: dict[str, float] = field(default_factory=dict)
    fusion_stats: dict[str, float] = field(default_factory=dict)
    matches: list[dict] = field(default_factory=list)
    dropped_points: dict[str, int] = field(default_factory=dict)
    eval_summary: me.EvalSummary | None = None

    def to_dict(self) -> dict:
        out = {
            "checksums": self.checksums,
            "timings": self.timings,
            "losses": self.losses,
            "fusion_stats": self.fusion_stats,
            "matches": self.matches,
            "dropped_points": self.dropped_points,
        }
        if self.eval_summary is not None:
            self.eval_summary.check()
            out["eval"] = self.eval_summary.to_dict()
        return out


def checksum(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()


class _StageTimer:
    def __init__(self, report: RunReport, name: str):
        self.report, self.name = report, name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        # a stage entered more than once (once per camera) reports its total
        elapsed = time.perf_counter() - self.t0
        self.report.timings[self.name] = self.report.timings.get(self.name, 0.0) + elapsed
        return False


def _stage_error(stage: str, err: Exception) -> Exception:
    # keep the I/O-vs-validation distinction so the CLI exit code survives
    kind = OSError if isinstance(err, OSError) else RuntimeError
    return kind(f"pipeline stage '{stage}' failed: {err}")


def _feature_rig(rig: geo.CameraRig, feature_hw: tuple[int, int]) -> geo.CameraRig:
    h, w = rig.image_size
    fh, fw = feature_hw
    return rig.scaled(fh / h, fw / w)


def _depth_hints(radar_xyz: np.ndarray, rig: geo.CameraRig,
                 feature_hw: tuple[int, int]) -> np.ndarray | None:
    """Per-pixel nearest radar depth at feature resolution, NaN when unseen."""
    frig = _feature_rig(rig, feature_hw)
    dm, _ = geo.depth_map_from_points(radar_xyz, frig, feature_hw)
    vals = dm.values
    if not dm.coverage_mask().any():
        return None
    return vals


def _apply_depth_hints(logits: np.ndarray, hints: np.ndarray,
                       bins: DepthBinSpec, strength: float) -> np.ndarray:
    out = logits.copy()
    covered = hints > 0
    if not covered.any():
        return out
    rows, cols = np.nonzero(covered)
    bin_idx = bins.index_of(hints[covered])
    out[bin_idx, rows, cols] += strength
    return out


def _id_sum(cfg: PipelineConfig):
    """The configured pooling kernel's id-level sum, (ids, values, n) -> (n, C)."""
    if cfg.pooling == "reference":
        return vp.sum_reference
    if cfg.pooling == "cumsum":
        return vp.sum_cumsum
    workers = 1 if cfg.sequential else cfg.workers
    return lambda ids, values, n: vp.sum_concurrent(ids, values, n, workers)


def _radar_bev_boxes(radar_xyz: np.ndarray, grid: vp.BEVGridConfig) -> list[fu.DetectionBox]:
    """One-cell footprint proposals at radar-occupied BEV cells."""
    pts = vp.FeaturedPoints(radar_xyz, np.ones((radar_xyz.shape[0], 1)))
    inside, ids = vp.cell_ids(pts, grid)
    if not ids.size:
        return []
    counts = np.bincount(ids, minlength=grid.nx * grid.ny)
    occupied = np.flatnonzero(counts)
    top = counts.max()
    dx, dy = grid.cell_size
    boxes = []
    for cell in occupied:
        iy, ix = divmod(int(cell), grid.nx)
        cx, cy = grid.cell_center(ix, iy)
        boxes.append(fu.DetectionBox(
            center=(float(cx), float(cy), 0.5), size=(dx, dy, 1.0), yaw=0.0,
            velocity=(0.0, 0.0), class_id=0, score=float(counts[cell] / top)))
    return boxes


def _gt_heatmap(boxes: list[fu.DetectionBox], grid: vp.BEVGridConfig) -> np.ndarray:
    hm = np.zeros((N_CLASSES, grid.ny, grid.nx))
    dx, dy = grid.cell_size
    for b in boxes:
        ix = int(np.floor((b.center[0] - grid.x_range[0]) / dx))
        iy = int(np.floor((b.center[1] - grid.y_range[0]) / dy))
        if 0 <= ix < grid.nx and 0 <= iy < grid.ny:
            hm[b.class_id, iy, ix] = 1.0
    return hm


def _decode_peaks(heatmap: np.ndarray, grid: vp.BEVGridConfig, threshold: float,
                  radar_velocity: dict[tuple[int, int], tuple[float, float]],
                  ) -> list[fu.DetectionBox]:
    """3x3 local maxima above threshold become boxes with nominal sizes."""
    n_classes, ny, nx = heatmap.shape
    padded = np.full((n_classes, ny + 2, nx + 2), -np.inf)
    padded[:, 1:-1, 1:-1] = heatmap
    neigh = np.full(heatmap.shape, -np.inf)
    for dj in range(3):
        for dk in range(3):
            if dj == 1 and dk == 1:
                continue
            neigh = np.maximum(neigh, padded[:, dj : dj + ny, dk : dk + nx])
    is_peak = (heatmap >= neigh) & (heatmap >= threshold)
    boxes = []
    for ci, iy, ix in zip(*np.nonzero(is_peak)):
        name = me.DETECTION_CLASSES[ci]
        w, length, h = CLASS_SIZES[name]
        cx, cy = grid.cell_center(int(ix), int(iy))
        vel = radar_velocity.get((int(iy), int(ix)), (0.0, 0.0))
        boxes.append(fu.DetectionBox(
            center=(float(cx), float(cy), h / 2.0), size=(w, length, h), yaw=0.0,
            velocity=vel, class_id=int(ci), score=float(heatmap[ci, iy, ix]),
            attribute_id=me.ATTRIBUTES.index(CLASS_ATTRIBUTES[name])))
    boxes.sort(key=lambda b: -b.score)
    return boxes


def run_pipeline(scene_dir, cfg: PipelineConfig,
                 weights: PipelineWeights | None = None
                 ) -> tuple[RunReport, dict[str, list[fu.DetectionBox]]]:
    """Execute every stage on a bundle; returns the report and predictions."""
    report = RunReport()
    with _StageTimer(report, "load"):
        try:
            bundle: SceneBundle = load_scene(scene_dir)
        except (OSError, KeyError, ValueError) as err:
            raise _stage_error("load", err) from err
    token = bundle.manifest["sample_token"]
    use_radar = cfg.modality == "camera+radar"
    n_feat = bundle.features[0].shape[0]
    weights = weights or PipelineWeights.create(cfg, n_feat)
    bins = cfg.depth_bins
    feature_hw = bundle.features[0].shape[1:]
    for i, f in enumerate(bundle.features):
        report.checksums[f"image_features_cam{i}"] = checksum(f)

    # Supervision target: lidar + radar union, rasterized at feature scale.
    with _StageTimer(report, "supervision"):
        supervision = np.vstack([bundle.lidar[:, :3], bundle.radar[:, :3]])
        gt_maps = []
        for i, rig in enumerate(bundle.cameras):
            frig = _feature_rig(rig, feature_hw)
            dm, dropped = geo.depth_map_from_points(supervision, frig, feature_hw)
            gt_maps.append(dm)
            report.dropped_points[f"supervision_cam{i}"] = dropped

    # Radar pillar stream.
    radar_bev = np.zeros((cfg.n_context, cfg.bev_cells, cfg.bev_cells))
    if use_radar:
        with _StageTimer(report, "pillars"):
            try:
                cloud = pi.RadarPointCloud(bundle.radar)
                tensor = pi.build_pillars(cloud, cfg.pillar_grid, seed=bundle.manifest["seed"])
                encoded = pi.vfe_forward(tensor, weights.vfe)
                pseudo = pi.scatter_to_pseudo_image(encoded, tensor.pillar_coords,
                                                    cfg.pillar_grid)
            except ValueError as err:
                raise _stage_error("pillars", err) from err
            radar_bev = conv_pointwise(pseudo.data, weights.radar_proj_kernel,
                                       weights.radar_proj_bias)
            report.checksums["radar_pseudo_image"] = checksum(pseudo.data)
            report.checksums["radar_bev"] = checksum(radar_bev)

    # Camera-aware depth estimation.
    with _StageTimer(report, "depthnet"):
        try:
            outputs = kan.depthnet_forward(bundle.features, bundle.cameras,
                                           weights.depthnet)
        except ValueError as err:
            raise _stage_error("depthnet", err) from err
        depth_logits = outputs.depth_logits
        if use_radar:
            hinted = []
            for logits, rig in zip(depth_logits, bundle.cameras):
                hints = _depth_hints(bundle.radar[:, :3], rig, feature_hw)
                hinted.append(logits if hints is None else _apply_depth_hints(
                    logits, hints, bins, cfg.radar_hint_strength))
            depth_logits = hinted
        p_depth = [softmax_over_depth(lg) for lg in depth_logits]
        for i in range(len(bundle.cameras)):
            report.checksums[f"gates_cam{i}"] = checksum(outputs.gates[i])
            report.checksums[f"context_cam{i}"] = checksum(outputs.context[i])
            report.checksums[f"depth_logits_cam{i}"] = checksum(depth_logits[i])

    with _StageTimer(report, "depth_loss"):
        bce = [fu.depth_bce_loss(pd, dm, bins)
               for pd, dm in zip(p_depth, gt_maps) if dm.coverage_mask().any()]
        report.losses["depth_bce"] = float(np.mean(bce)) if bce else float("nan")

    # Lift-splat one camera at a time through depth weights; cell sums add
    # across cameras. "lift" builds the weights, "voxelpool" places and pools them.
    frustum = geo.FrustumGrid.regular(feature_hw, bins.centers())
    f_bev = np.zeros((cfg.n_context, cfg.bev_cells, cfg.bev_cells))
    f_depth = np.zeros_like(f_bev)
    id_sum = _id_sum(cfg)
    for i, (rig, ctx, pd) in enumerate(zip(bundle.cameras, outputs.context, p_depth)):
        with _StageTimer(report, "lift"):
            taps = refine_taps(pd, weights.refine_kernel)
        with _StageTimer(report, "voxelpool"):
            pts = geo.unproject_frustum(_feature_rig(rig, feature_hw), frustum)
            report.dropped_points[f"frustum_cam{i}"] = vp.splat(
                pts, ctx, ([(0, pd)], taps), cfg.bev_grid, id_sum, [f_bev, f_depth])
    report.checksums["f_bev"] = checksum(f_bev)
    report.checksums["f_depth"] = checksum(f_depth)

    # Fusion, heatmap prior, radar matching, final heatmap.
    with _StageTimer(report, "fusion"):
        try:
            fused = fu.fuse_bev_features(f_bev, radar_bev, f_depth)
        except ValueError as err:
            raise _stage_error("fusion", err) from err
        prior_scores = kan.sigmoid(conv_pointwise(fused.data, weights.head_kernel,
                                                  weights.head_bias))
        prior = fu.Heatmap(prior_scores, cfg.bev_grid)
        matches: list[fu.RadarMatch] = []
        proposals: list[fu.DetectionBox] = []
        if use_radar:
            proposals = _radar_bev_boxes(bundle.radar[:, :3], cfg.bev_grid)
            matches = fu.match_radar_to_heatmap(proposals, prior,
                                                cfg.heatmap_score_thresh,
                                                cfg.match_iou_thresh)
            q_grid = np.zeros((4, cfg.bev_cells, cfg.bev_cells))
            for m in matches:
                q_grid[:, m.cell[0], m.cell[1]] = m.q_row
            fused = fu.FusedBEV(fused.data + conv_pointwise(
                q_grid, weights.q_kernel, weights.q_bias))
        final_scores = kan.sigmoid(conv_pointwise(fused.data, weights.head_kernel,
                                                  weights.head_bias))
        report.checksums["fused_bev"] = checksum(fused.data)
        report.checksums["heatmap"] = checksum(final_scores)
        report.fusion_stats = {
            "n_radar_boxes": float(len(proposals)),
            "n_matches": float(len(matches)),
        }
        report.matches = [{"cell": list(m.cell), "iou": m.iou,
                           "q": m.q_row.tolist()} for m in matches]

    # Decode, losses, evaluation.
    with _StageTimer(report, "head"):
        radar_vel = {m.cell: (float(m.q_row[2]), float(m.q_row[3])) for m in matches}
        preds = _decode_peaks(final_scores, cfg.bev_grid, cfg.peak_threshold, radar_vel)
        gt_boxes = bundle.gt_boxes[token]
        gt_hm = _gt_heatmap(gt_boxes, cfg.bev_grid)
        pairs_p, pairs_g = [], []
        for ci in range(N_CLASSES):
            cls_p = [b for b in preds if b.class_id == ci]
            cls_g = [b for b in gt_boxes if b.class_id == ci]
            match = me.match_center_distance(cls_p, cls_g, me.TP_THRESHOLD)
            for pidx, gidx in zip(match.ranked_pred, match.ranked_gt):
                if gidx >= 0:
                    pairs_p.append(cls_p[int(pidx)])
                    pairs_g.append(cls_g[int(gidx)])
        l_det, l_heatmap, l_bbox = fu.detection_loss(final_scores, gt_hm, pairs_p, pairs_g)
        report.losses.update({"l_det": l_det, "l_heatmap": l_heatmap, "l_bbox": l_bbox})

    with _StageTimer(report, "evaluate"):
        t0 = time.perf_counter()
        summary = me.evaluate_detections({token: preds}, bundle.gt_boxes)
        summary.eval_time = time.perf_counter() - t0
        report.eval_summary = summary

    return report, {token: preds}


def save_run_outputs(out_dir, report: RunReport,
                     predictions: dict[str, list[fu.DetectionBox]]) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pred_path = out / "predictions.json"
    me.save_boxes(pred_path, predictions)
    report_path = out / "report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report_path, pred_path
