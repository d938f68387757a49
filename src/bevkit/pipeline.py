"""End-to-end pipeline: pillars -> depth net -> lift -> pooling -> fusion.

Runs a scene bundle through every stage with seeded, untrained weights,
records per-stage checksums and wall-clock, decodes box predictions from
the fused heatmap, evaluates them against the bundle's ground truth, and
computes the losses.

Stage wiring, where the configuration leaves the sensors on. The head's
1x1 conv K_h is applied to each source, so every BEV grid holds class
logits and no array is n_context channels wide:

    radar cloud -> pillars -> VFE -> 1x1 conv by K_h @ radar projection at
      the occupied cells, its bias elsewhere -> logits_radar
    camera by camera, in one loop that hands on only the BEV sum and a BCE term:
      lidar, radar -> one depth map each -> their nearest depth, the depth target;
        features + rig -> gates -> split conv with K_h folded into its context
        rows -> depth logits + class logits
      radar depth map -> depth-logit hints added in place (camera+radar)
      softmax -> depth weights p -> BCE against the target; cells of row 0
        (a level rig: one group of all H rows) or of every row (H groups of
        one) -> per group, class logits x p summed over its rows, a (C, D, W)
        class lift, refined by refine_kernel plus a one-hot centre (the plain
        lift) on its thinner side: once after the row sum (C <= 3 rows), else
        on p's column taps before it -> one bincount per class at the groups'
        cells, 3H/C groups per pass, added into logits_camera (no
        (C, D, H, W) lift)
    logits_camera + logits_radar + head bias -> fused logits; camera+radar:
      the heatmap prior is their sigmoid at the radar-occupied cells only ->
      gated cells, those the prior accepts -> q rows (x, y, 0, 0) at their
      centers -> 1x1 conv by K_h @ q kernel there, its bias elsewhere, added
      into the logits -> the one full-grid sigmoid, the final heatmap -> peak
      decoding -> evaluation, whose 2 m class-wise matches are the L_bbox pairs
    GT centers -> BEV cells by BEVGridConfig.cell_ids, the one cell rule
      (the pillar grid is the BEV grid) -> GT heatmap -> L_heatmap

Radar carries no velocity here (PC4D rows are x, y, z, reflectivity), so
the q rows' vx, vy channels and every decoded box's velocity are zero.
The zero channels stay so the q kernel keeps its shape and its seeded
draw.

The depth supervision target always takes both clouds, so camera-only and
camera+radar runs report BCE against the same target and stay comparable.
Each cloud is projected and rasterized once per camera; the per-pixel min of
the two maps is, bit for bit, the map of the stacked clouds.

Every stage runs inside _stage, which names it in the errors it raises and
sums its wall time into timings: timings.{supervision,depthnet,depth_loss,
lift,voxelpool} are sums over cameras, and lift and voxelpool also over
passes of row groups. timings.checksums sums every digest, each in its own
entry after the stage that made the array; README says what is hashed.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import fusion as fu
from . import geometry as geo
from . import kan
from . import metrics as me
from . import pillars as pi
from . import voxelpool as vp
from .nnprims import (DepthBinSpec, conv_pointwise, depth_refine, is_int, is_number, known_keys,
                      read_json, softmax_over_depth, write_json)
# The pipeline never builds the full lift, but perfbench/tracing.py patches this name here.
from .nnprims import lift_outer_product  # noqa: F401
from .scene import CLASS_SIZES, CLASS_ATTRIBUTES, SceneBundle, load_scene

MODALITIES = ("camera", "camera+radar")
N_CLASSES = len(me.DETECTION_CLASSES)


def _at_least(low: int):
    return (lambda v: is_int(v) and v >= low), f"an integer >= {low}"


_POSITIVE = (lambda v: is_number(v) and v > 0), "a positive number"
_UNIT = (lambda v: is_number(v) and 0 <= v <= 1), "a number in [0, 1]"


def _setting(default, section: str, key: str, rule):
    """A config field: its default, its (section, key) in the JSON file and its
    (predicate, what the value must be) rule, checked by __post_init__."""
    return field(default=default, metadata={"key": (section, key), "rule": rule})


@dataclass
class PipelineConfig:
    """Single stage-keyed configuration for a pipeline run.

    Each field's default, JSON (section, key) and rule sit on its one
    declaration. Defaults are the desk-scale constants; none of them comes
    from a published table.
    """

    # depth discretization and head widths
    d_min: float = _setting(2.0, "depth", "d_min", _POSITIVE)
    d_max: float = _setting(58.0, "depth", "d_max", _POSITIVE)
    # depth_refine's 3x3 kernel spans three bins
    n_depth_bins: int = _setting(112, "depth", "n_bins", _at_least(3))
    n_context: int = _setting(80, "depth", "n_context", _at_least(1))
    kan_hidden: tuple[int, ...] = _setting(
        (64,), "depth", "kan_hidden",
        ((lambda v: isinstance(v, tuple) and all(is_int(h) and h >= 1 for h in v)),
         "a list of integers >= 1"))
    # BEV grid (shared by pillars and pooling)
    bev_range: float = _setting(51.2, "bev", "range", _POSITIVE)
    bev_cells: int = _setting(128, "bev", "cells", _at_least(1))
    # pillar stream
    pillar_max_points: int = _setting(20, "pillars", "max_points", _at_least(1))
    pillar_max_pillars: int = _setting(4096, "pillars", "max_pillars", _at_least(1))
    radar_channels: int = _setting(32, "pillars", "channels", _at_least(1))
    # fusion and head
    heatmap_score_thresh: float = _setting(0.55, "fusion", "heatmap_score_thresh", _UNIT)
    peak_threshold: float = _setting(0.6, "fusion", "peak_threshold", _UNIT)
    # moderate prior weight: a hard boost would backfire at pixels where
    # lidar sees a nearer surface than the radar return
    radar_hint_strength: float = _setting(2.0, "fusion", "radar_hint_strength", (
        (lambda v: is_number(v) and v >= 0), "a number >= 0"))
    # execution. splat sums each class in sample order, so every run is
    # sequential and deterministic: pooling accepts only "reference" and
    # sequential changes nothing. Both stay for their callers: acceptance
    # tests c09 and c10 pass sequential, perfbench/workloads.py passes both.
    # ROADMAP item 7 retires run.pooling after item 1 changes the benchmark.
    weight_seed: int = _setting(7, "run", "weight_seed", _at_least(0))
    pooling: str = _setting("reference", "run", "pooling",
                            ((lambda v: v == "reference"), '"reference"'))
    modality: str = _setting("camera+radar", "run", "modality",
                             ((lambda v: v in MODALITIES), f"one of {MODALITIES}"))
    sequential: bool = _setting(False, "run", "sequential",
                                ((lambda v: isinstance(v, bool)), "true or false"))

    def __post_init__(self):
        if isinstance(self.kan_hidden, list):
            self.kan_hidden = tuple(self.kan_hidden)
        for f in fields(self):
            ok, what = f.metadata["rule"]
            if not ok(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be {what}, got {getattr(self, f.name)!r}")
        self.depth_bins  # DepthBinSpec raises unless d_max > d_min
        try:
            self.bev_grid
        except ValueError as err:
            raise ValueError(f"bev_range {self.bev_range!r} over {self.bev_cells} cells "
                             f"gives no grid: {err}") from err

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
        write_json(path, self.to_dict())

    def to_dict(self) -> dict:
        out: dict = {}
        for name, (section, key) in CONFIG_KEYS.items():
            value = getattr(self, name)
            out.setdefault(section, {})[key] = list(value) if name == "kan_hidden" else value
        return out

    @staticmethod
    def from_dict(d: dict) -> "PipelineConfig":
        """Inverse of to_dict; absent keys keep their defaults, unknown ones raise."""
        kwargs = {}
        for section, values in known_keys(d, _SECTIONS, "config").items():
            for key, value in known_keys(values, _SECTIONS[section],
                                         f"config section {section!r}").items():
                kwargs[_FIELD_OF[section, key]] = value
        return PipelineConfig(**kwargs)

    @staticmethod
    def from_json(path) -> "PipelineConfig":
        return PipelineConfig.from_dict(read_json(path, "config"))


# field -> (section, key) in the JSON layout written by PipelineConfig.to_json
CONFIG_KEYS = {f.name: f.metadata["key"] for f in fields(PipelineConfig)}
_FIELD_OF = {where: name for name, where in CONFIG_KEYS.items()}
_SECTIONS = {section: {k for s, k in _FIELD_OF if s == section} for section, _ in _FIELD_OF}


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
    gated_cells: list[int] = field(default_factory=list)  # flat ids iy*nx + ix, gate order
    dropped_points: dict[str, int] = field(default_factory=dict)
    pillars: dict[str, int] = field(default_factory=dict)
    eval_summary: me.EvalSummary | None = None

    def to_dict(self) -> dict:
        out = {
            "checksums": self.checksums,
            "timings": self.timings,
            "losses": self.losses,
            "fusion_stats": self.fusion_stats,
            "gated_cells": self.gated_cells,
            "dropped_points": self.dropped_points,
        }
        if self.pillars:
            out["pillars"] = self.pillars
        if self.eval_summary is not None:
            self.eval_summary.check()
            out["eval"] = self.eval_summary.to_dict()
        return out


def checksum(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64)).hexdigest()


@contextlib.contextmanager
def _stage(report: RunReport, name: str):
    """Sum the stage's wall time into report.timings[name], also when it raises. Its OSError
    (CLI exit 2) and KeyError or ValueError (RuntimeError, exit 1) are re-raised naming it."""
    t0 = time.perf_counter()
    try:
        yield
    except (OSError, KeyError, ValueError) as err:
        kind = OSError if isinstance(err, OSError) else RuntimeError
        raise kind(f"pipeline stage '{name}' failed: {err}") from err
    finally:
        report.timings[name] = report.timings.get(name, 0.0) + time.perf_counter() - t0


def _feature_rig(rig: geo.CameraRig, feature_hw: tuple[int, int]) -> geo.CameraRig:
    h, w = rig.image_size
    fh, fw = feature_hw
    return rig.scaled(fh / h, fw / w)


def _hint_depth_logits(logits: np.ndarray, dm: geo.DepthMap, bins: DepthBinSpec,
                       strength: float) -> None:
    """Add strength, in place, at each pixel that the radar depth map dm covers, in its bin."""
    covered = dm.coverage_mask()
    rows, cols = np.nonzero(covered)
    logits[bins.index_of(dm.values[covered]), rows, cols] += strength


def _gt_heatmap(boxes: fu.BoxSet, grid: vp.BEVGridConfig) -> np.ndarray:
    """1 at each GT center's cell in its class's channel; centers off the grid are dropped."""
    hm = np.zeros((N_CLASSES, grid.ny * grid.nx))
    inside, cells = grid.cell_ids(boxes.center)
    hm[boxes.class_id[inside], cells] = 1.0
    return hm.reshape(N_CLASSES, grid.ny, grid.nx)


# per class id: nominal (w, l, h) and default attribute id of a decoded box
_CLASS_SIZE_TABLE = np.array([CLASS_SIZES[n] for n in me.DETECTION_CLASSES])
_CLASS_ATTRIBUTE_IDS = np.array([me.ATTRIBUTES.index(CLASS_ATTRIBUTES[n])
                                 for n in me.DETECTION_CLASSES])


def _decode_peaks(heatmap: np.ndarray, grid: vp.BEVGridConfig,
                  threshold: float) -> fu.BoxSet:
    """3x3 local maxima above threshold become boxes with nominal sizes.

    Peaks are found on the whole (classes, ny, nx) heatmap at once and
    ranked by one stable argsort of descending score, so equal scores keep
    (class, row, column) order. Each box column is one array lookup.
    """
    # x >= its 3x3 max: vmax, the max over rows y-1..y+1, in place in one copy (max never
    # rounds); x >= vmax at columns x-1, x and x+1 holds exactly when x >= their max
    vmax = heatmap.copy()
    np.maximum(vmax[:, 1:], heatmap[:, :-1], out=vmax[:, 1:])
    np.maximum(vmax[:, :-1], heatmap[:, 1:], out=vmax[:, :-1])
    peak = (heatmap >= vmax) & (heatmap >= threshold)
    peak[:, :, 1:] &= heatmap[:, :, 1:] >= vmax[:, :, :-1]
    peak[:, :, :-1] &= heatmap[:, :, :-1] >= vmax[:, :, 1:]
    ci, iy, ix = np.nonzero(peak)
    scores = heatmap[ci, iy, ix]
    order = np.argsort(-scores, kind="stable")
    ci, iy, ix = ci[order], iy[order], ix[order]
    sizes = _CLASS_SIZE_TABLE.take(ci, axis=0)
    return fu.BoxSet(center=np.column_stack([grid.cell_center(ix, iy), sizes[:, 2] / 2.0]),
                     size=sizes, yaw=np.zeros(len(ci)), velocity=np.zeros((len(ci), 2)),
                     class_id=ci, score=scores[order], attribute_id=_CLASS_ATTRIBUTE_IDS[ci])


def _head_first_depthnet(net: kan.DepthNetParams, head: np.ndarray) -> kan.DepthNetParams:
    """net with the head's 1x1 conv K_h folded into the split's context rows, which then
    emit N_CLASSES class logits: K_h (S x + b) = (K_h S) x + K_h b. Exact only while the
    head is one 1x1 conv before the sigmoid; with n_context < N_CLASSES the split grows."""
    d, kernel, bias = net.n_depth_bins, net.split_kernel, net.split_bias
    return replace(net, split_kernel=np.vstack([kernel[:d], head @ kernel[d:]]),
                   split_bias=np.concatenate([bias[:d], head @ bias[d:]]), n_context=N_CLASSES)


def _add_conv_at_cells(flat, rows, cells, kernel, bias) -> None:
    """Add, into the (C_out, cells) grid flat in place, the 1x1 conv of a grid that is
    zero but for rows (P, C_in) at the flat cells: the bias elsewhere, there the conv of
    the rows as one contiguous (C_in, 1, P) input, which gives the full-grid sums."""
    at = flat.take(cells, axis=1) + conv_pointwise(np.ascontiguousarray(rows.T)[:, None, :],
                                                   kernel, bias)[:, 0]
    flat += bias[:, None]
    flat[:, cells] = at


def _summed_lift(context: np.ndarray, p_depth: np.ndarray, kernel: np.ndarray,
                 g: int) -> np.ndarray:
    """depth_refine of the lift of (C, k*g, W) context by (D, k*g, W) depth weights, summed
    over each run of g rows, as a (C, D, k, W) array. The refine filters each row's (depth,
    column) plane alone, so it runs on the thinner side of the row sums. With C <= 3g, on
    the sums: one (C, g) @ (g, D) product per run and column, then one refine. Else on the
    depth weights, once per kernel column b: that tap, read beside the context at column
    w + b - 1, makes one (C, 3g) @ (3g, D) product per run and column sum the rows and the
    three taps."""
    c, rows, w = context.shape
    d, k = len(p_depth), rows // g
    if c <= 3 * g:
        lift = np.matmul(context.reshape(c, k, g, w).transpose(3, 1, 0, 2),
                         p_depth.reshape(d, k, g, w).transpose(3, 1, 2, 0))
        return depth_refine(lift.transpose(2, 3, 1, 0), kernel)
    p_pad, c_pad = np.zeros((w + 2, rows, d + 2)), np.zeros((c, rows, w + 2))
    p_pad[1:-1, :, 1:-1] = p_depth.transpose(2, 1, 0)
    c_pad[:, :, 1:-1] = context
    shifted, taps = np.empty((w, k, c, 3, g)), np.zeros((w, k, 3, g, d))
    for b in range(3):
        shifted[:, :, :, b] = c_pad[:, :, b:b + w].reshape(c, k, g, w).transpose(3, 1, 0, 2)
        for a in np.flatnonzero(kernel[:, b]):
            taps[:, :, b] += kernel[a, b] * p_pad[b:b + w, :, a:a + d].reshape(w, k, g, d)
    lift = np.matmul(shifted.reshape(w, k, c, -1), taps.reshape(w, k, -1, d))
    return lift.transpose(2, 3, 1, 0)


def run_pipeline(scene_dir, cfg: PipelineConfig,
                 weights: PipelineWeights | None = None
                 ) -> tuple[RunReport, dict[str, fu.BoxSet]]:
    """Execute every stage on a bundle; returns the report and predictions.

    The head's kernel is applied to each source before the BEV sum, which is
    exact only while the head is one 1x1 conv before the sigmoid.
    """
    report = RunReport()
    with _stage(report, "load"):
        bundle: SceneBundle = load_scene(scene_dir)
    (token,) = bundle.gt_boxes
    use_radar = cfg.modality == "camera+radar"
    n_feat = bundle.features[0].shape[0]
    weights = weights or PipelineWeights.create(cfg, n_feat)
    bins = cfg.depth_bins
    fh, fw = feature_hw = bundle.features[0].shape[1:]

    # Radar pillar stream. The pillar grid is the BEV grid, so the pillars'
    # binning also gives the points in range and, later, the proposals.
    head = weights.head_kernel
    radar_logits = np.zeros((N_CLASSES, cfg.bev_cells, cfg.bev_cells))
    if use_radar:
        with _stage(report, "pillars"):
            cloud = pi.RadarPointCloud(bundle.radar)
            tensor = pi.build_pillars(cloud, cfg.pillar_grid, seed=bundle.manifest["seed"])
            encoded = pi.vfe_forward(tensor, weights.vfe)
            cell_x, cell_y = tensor.pillar_coords.T
            _add_conv_at_cells(radar_logits.reshape(N_CLASSES, -1), encoded,
                               cell_y * cfg.bev_cells + cell_x,
                               head @ weights.radar_proj_kernel, head @ weights.radar_proj_bias)
            report.pillars = {"points_in_range": tensor.points_in_range,
                              "kept": len(tensor.point_counts),
                              "truncated": int(tensor.truncated_pillars)}
        with _stage(report, "checksums"):
            report.checksums["logits_radar"] = checksum(radar_logits)

    # Camera branch, camera by camera (see "Stage wiring"). "voxelpool" places the frustum
    # and, per row group, pools into logits_camera what "lift" sums and refines.
    # the identity tap is the plain lift: lift + refine(lift, K) = refine(lift, K + delta)
    kernel = weights.refine_kernel + np.pad([[1.0]], 1)
    camera_logits = np.zeros((N_CLASSES, cfg.bev_cells, cfg.bev_cells))
    bce = []  # one float per supervised camera; np.mean keeps its summation order
    with _stage(report, "depthnet"):
        net = _head_first_depthnet(weights.depthnet, head)
    for i, (feats, rig) in enumerate(zip(bundle.features, bundle.cameras)):
        with _stage(report, "supervision"):
            frig = _feature_rig(rig, feature_hw)
            (lidar_map, lidar_dropped), (radar_map, radar_dropped) = (
                geo.depth_map_from_points(c[:, :3], frig, feature_hw)
                for c in (bundle.lidar, bundle.radar))
            gt_map = lidar_map.nearest(radar_map)
            report.dropped_points[f"supervision_cam{i}"] = lidar_dropped + radar_dropped
        with _stage(report, "depthnet"):
            out = kan.depthnet_forward([feats], [rig], net)
            (depth_logits,), (class_logits,), (gates,) = out.depth_logits, out.context, out.gates
            if use_radar:
                _hint_depth_logits(depth_logits, radar_map, bins, cfg.radar_hint_strength)
            p_depth = softmax_over_depth(depth_logits)
        with _stage(report, "checksums"):
            report.checksums[f"gates_cam{i}"] = checksum(gates)
            report.checksums[f"class_logits_cam{i}"] = checksum(class_logits)
        with _stage(report, "depth_loss"):
            if gt_map.coverage_mask().any():
                bce.append(fu.depth_bce_loss(p_depth, gt_map, bins))
        with _stage(report, "voxelpool"):
            groups = 1 if geo.rows_alike(frig, fh, bins.centers()) else fh
            frustum = geo.FrustumGrid.regular((groups, fw), bins.centers())
            cells = cfg.bev_grid.sample_cells(geo.unproject_frustum(frig, frustum))
            cells = cells.reshape(-1, groups, fw)
        # rows per group, whose rows share row r's cells; groups per pass, whose lift is
        # no larger than the (D*H*W, 3) positions of all rows
        size, step, dropped = fh // groups, max(1, 3 * fh // N_CLASSES), 0
        for r in range(0, groups, step):
            rows = slice(r * size, min(r + step, groups) * size)
            with _stage(report, "lift"):
                refined = _summed_lift(class_logits[:, rows], p_depth[:, rows], kernel, size)
            with _stage(report, "voxelpool"):
                dropped += size * vp.splat(cells[:, r:r + step], refined, cfg.bev_grid,
                                           camera_logits)
        report.dropped_points[f"frustum_cam{i}"] = dropped
    report.losses["depth_bce"] = float(np.mean(bce)) if bce else float("nan")
    with _stage(report, "checksums"):
        report.checksums["logits_camera"] = checksum(camera_logits)

    # Fusion, heatmap prior at the radar cells, radar cell gating, final heatmap.
    with _stage(report, "fusion"):
        logits = fu.fuse_bev_features(camera_logits, radar_logits)
        logits += weights.head_bias[:, None, None]
        proposals = matched = np.zeros(0, dtype=np.int64)
        if use_radar:  # without radar the logits go to the head unchanged
            flat = logits.reshape(N_CLASSES, -1)
            proposals = tensor.occupied_cells
            matched = fu.match_radar_to_heatmap(proposals, flat, cfg.heatmap_score_thresh)
            report.gated_cells = matched.tolist()
            iy, ix = np.divmod(matched, cfg.bev_cells)
            q = np.column_stack([cfg.bev_grid.cell_center(ix, iy), np.zeros((len(ix), 2))])
            _add_conv_at_cells(flat, q, matched, head @ weights.q_kernel, head @ weights.q_bias)
        final_scores = kan.sigmoid(logits)
        report.fusion_stats = {"n_radar_boxes": float(len(proposals)),
                               "n_matches": float(len(matched))}
    with _stage(report, "checksums"):
        report.checksums["heatmap"] = checksum(final_scores)

    # Decode, evaluation, losses. L_bbox pairs are evaluate's 2 m matches,
    # taken class by class; "head" times decode and losses.
    with _stage(report, "head"):
        preds = _decode_peaks(final_scores, cfg.bev_grid, cfg.peak_threshold)

    with _stage(report, "evaluate"):
        gts = bundle.gt_boxes[token]
        summary = me.evaluate_detections({token: preds}, {token: gts})
        report.eval_summary = summary

    with _stage(report, "head"):
        gt_hm = _gt_heatmap(gts, cfg.bev_grid)
        pred_pairs, gt_pairs = zip(*(ce.tp_pairs for ce in summary.per_class))
        l_det, l_heatmap, l_bbox = fu.detection_loss(
            final_scores, gt_hm, fu.BoxSet.concat(pred_pairs), fu.BoxSet.concat(gt_pairs))
        report.losses.update({"l_det": l_det, "l_heatmap": l_heatmap, "l_bbox": l_bbox})

    return report, {token: preds}


def save_run_outputs(out_dir, report: RunReport,
                     predictions: dict[str, fu.BoxSet]) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pred_path = out / "predictions.json"
    me.save_boxes(pred_path, predictions)
    report_path = out / "report.json"
    write_json(report_path, report.to_dict())
    return report_path, pred_path
