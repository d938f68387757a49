"""Workload inputs, oracles, ops and output checks for the bevkit benchmark.

Three workloads, each built from the benchmark seed alone:

* cam6: one ``run_pipeline(PipelineConfig())`` call per op on 6-camera
  bundles. Lift, depth refinement and voxel pooling dominate the op time
  and the peak memory, so changes to those stages show here.
* radar_dense: one camera at a small feature map with dense radar and
  lidar. Lift and pooling shrink to a small share; pillars, radar
  matching, peak decoding and evaluation carry the op. A lift/pool change
  should leave this workload unchanged.
* eval_many: the ``bevkit eval`` path (two ``load_boxes`` calls plus
  ``evaluate_detections``) over many sample tokens with few boxes each.
  It touches only metrics and JSON I/O. BENCHMARK.json does not gate it;
  README.md says why.

Every op is checked against an oracle computed during set-up: the
pipeline's reference path (``pooling="reference"``, sequential) for the
pipeline workloads, and an evaluator composed from the brute-force
functions in ``tests/oracles.py`` for eval_many.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from bevkit import metrics as me
from bevkit import pipeline as pl
from bevkit import scene as sc
from bevkit.geometry import CameraRig

TOL = 1e-9
N_BUNDLES = 2  # ops cycle through this many bundles
EVAL_TOKENS = 200
EVAL_GT_PER_TOKEN = 30
EVAL_PRED_PER_GT = 4


# ---------------------------------------------------------------- inputs


def surround_rig() -> list[CameraRig]:
    """Six distinct forward-model cameras yawed 60 degrees apart."""
    base = sc.forward_camera()
    rigs = []
    for k in range(6):
        c, s = math.cos(math.radians(60 * k)), math.sin(math.radians(60 * k))
        yaw = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        rot = sc.FORWARD_CAM_ROTATION @ yaw.T
        mount = np.array([1.5 * c, 1.5 * s, 1.6])
        rigs.append(CameraRig(base.intrinsics, rot, -rot @ mount, base.image_size))
    return rigs


def _spread_around(spec: sc.SceneSpec, seed: int) -> None:
    """Rotate each object about the ego so every camera of the rig sees some."""
    rng = np.random.default_rng([seed, 99])
    for obj in spec.objects:
        a = float(rng.uniform(-math.pi, math.pi))
        c, s = math.cos(a), math.sin(a)
        x, y, z = obj.center
        vx, vy = obj.velocity
        obj.center = (c * x - s * y, s * x + c * y, z)
        obj.velocity = (c * vx - s * vy, s * vx + c * vy)
        obj.yaw = obj.yaw + a


def scene_specs(workload: str, seed: int) -> list[sc.SceneSpec]:
    specs = []
    for j in range(N_BUNDLES):
        s = seed * 16 + j
        if workload == "cam6":
            spec = sc.default_scene_spec(s, n_cameras=6)
            spec.cameras = surround_rig()
            _spread_around(spec, s)
        else:
            spec = sc.default_scene_spec(s, n_objects=24, n_cameras=1,
                                         radar_density=20000.0, lidar_density=64000.0,
                                         feature_shape=(64, 8, 22))
        specs.append(spec)
    return specs


def _eval_box(rng, class_id: int, center_xy, score: float) -> "me.DetectionBox":
    name = me.DETECTION_CLASSES[class_id]
    w, length, h = sc.CLASS_SIZES[name]
    scale = rng.uniform(0.85, 1.15, 3)
    moving = name not in ("traffic_cone", "barrier")
    vel = tuple(rng.normal(0.0, 3.0, 2)) if moving else (0.0, 0.0)
    return me.DetectionBox(
        center=(float(center_xy[0]), float(center_xy[1]), h / 2.0),
        size=(w * scale[0], length * scale[1], h * scale[2]),
        yaw=float(rng.uniform(-math.pi, math.pi)), velocity=vel,
        class_id=class_id, score=score,
        attribute_id=me.ATTRIBUTES.index(sc.CLASS_ATTRIBUTES[name]))


def eval_inputs(seed: int):
    """(predictions, ground truth) by token; predictions jittered from GT."""
    rng = np.random.default_rng([seed, 7])
    n_cls = len(me.DETECTION_CLASSES)
    preds, gts = {}, {}
    for t in range(EVAL_TOKENS):
        token = f"sample-{t:04d}"
        n_gt = int(rng.integers(EVAL_GT_PER_TOKEN - 5, EVAL_GT_PER_TOKEN + 6))
        gt = [_eval_box(rng, int(rng.integers(n_cls)), rng.uniform(-50, 50, 2), 0.0)
              for _ in range(n_gt)]
        pr = []
        for _ in range(EVAL_PRED_PER_GT * n_gt):
            if rng.uniform() < 0.6:  # jittered detection of a GT box
                g = gt[int(rng.integers(n_gt))]
                cls = g.class_id if rng.uniform() < 0.9 else int(rng.integers(n_cls))
                b = _eval_box(rng, cls, np.array(g.center[:2]) + rng.normal(0, 1.2, 2),
                              float(rng.uniform(0.2, 1.0)))
                b.yaw = g.yaw + float(rng.normal(0.0, 0.3))
                b.velocity = tuple(np.array(g.velocity) + rng.normal(0.0, 0.5, 2))
                if rng.uniform() < 0.8:
                    b.attribute_id = g.attribute_id
            else:  # false positive anywhere
                b = _eval_box(rng, int(rng.integers(n_cls)), rng.uniform(-50, 50, 2),
                              float(rng.uniform(0.0, 0.7)))
            pr.append(b)
        preds[token], gts[token] = pr, gt
    return preds, gts


# ---------------------------------------------------------------- oracles


def pipeline_outputs(report: "pl.RunReport", preds: dict, cfg: "pl.PipelineConfig") -> dict:
    """What an op is checked on: boxes keyed by (class, cell), losses, NDS."""
    grid = cfg.bev_grid
    dx, dy = grid.cell_size
    rows = []
    for boxes in preds.values():
        for b in boxes:
            ix = math.floor((b.center[0] - grid.x_range[0]) / dx)
            iy = math.floor((b.center[1] - grid.y_range[0]) / dy)
            rows.append((b.class_id, iy, ix, b.score))
    rows.sort()
    return {"boxes": rows, "losses": dict(report.losses), "nds": report.eval_summary.nds}


def eval_oracle(preds_by_token: dict, gts_by_token: dict) -> dict:
    """Evaluation summary composed from the brute-force test oracles."""
    import oracles  # tests/oracles.py; run.py puts tests/ on sys.path

    per_class = {}
    for ci, name in enumerate(me.DETECTION_CLASSES):
        ranked = [[] for _ in me.AP_THRESHOLDS]
        pairs, n_gt = [], 0
        for token in sorted(gts_by_token):
            p = [b for b in preds_by_token[token] if b.class_id == ci]
            g = [b for b in gts_by_token[token] if b.class_id == ci]
            n_gt += len(g)
            for ti, thr in enumerate(me.AP_THRESHOLDS):
                order, assigned = oracles.greedy_match_oracle(p, g, thr)
                ranked[ti].extend((p[i].score, i in assigned) for i in order)
                if thr == me.TP_THRESHOLD:
                    pairs.extend((p[i], g[assigned[i]]) for i in order if i in assigned)
        aps = []
        for r in ranked:
            r.sort(key=lambda sf: -sf[0])
            aps.append(oracles.ap_oracle([f for _, f in r], n_gt))
        applicable = me.CLASS_TP_METRICS.get(name, me.TP_METRICS)
        errs = oracles.tp_errors_oracle(pairs) if pairs else {}
        tp = {m: (float(errs[m]) if pairs and m in applicable else None)
              for m in me.TP_METRICS}
        valid = [a for a in aps if a is not None]
        mean_ap = sum(valid) / len(aps) if valid else None
        per_class[name] = {"ap_per_threshold": aps, "mean_ap": mean_ap, "tp_errors": tp}
    maps = [c["mean_ap"] for c in per_class.values() if c["mean_ap"] is not None]
    mean_ap = sum(maps) / len(maps) if maps else 0.0
    mtp = {}
    for m in me.TP_METRICS:
        present = [c["tp_errors"][m] for c in per_class.values()
                   if c["tp_errors"][m] is not None]
        mtp[m] = sum(present) / len(present) if present else None
    nds = (5.0 * mean_ap + sum(1.0 - min(1.0, e) for e in mtp.values() if e is not None)) / 10.0
    return {"per_class": per_class, "mean_ap": mean_ap, "mtp": mtp, "nds": nds}


def eval_outputs(summary: "me.EvalSummary") -> dict:
    d = summary.to_dict()
    d.pop("eval_time")
    return d


# ---------------------------------------------------------------- checks


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return abs(a - b) <= TOL


def _close_tree(a, b) -> bool:
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_close_tree(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(_close_tree(x, y) for x, y in zip(a, b)))
    return _close(a, b)


def check_pipeline(out: dict, oracle: dict) -> str | None:
    """None when the op matches the oracle, else a one-line reason."""
    got, want = out["boxes"], oracle["boxes"]
    if len(got) != len(want):
        return f"box count {len(got)} != oracle {len(want)}"
    if [tuple(r[:3]) for r in got] != [tuple(r[:3]) for r in want]:
        return "box class/cell differs from oracle"
    worst = max((abs(g[3] - w[3]) for g, w in zip(got, want)), default=0.0)
    if worst > TOL:
        return f"score differs from oracle by {worst:.3e}"
    if not _close_tree(out["losses"], oracle["losses"]):
        return f"losses {out['losses']} != oracle {oracle['losses']}"
    if not _close(out["nds"], oracle["nds"]):
        return f"NDS {out['nds']!r} != oracle {oracle['nds']!r}"
    return None


def digest(obj) -> str:
    """sha256 of a canonical JSON rendering (floats written in full)."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------- ops
#
# An op class prepares its inputs and oracle during set-up (``prepare``,
# returning the plan the worker loads), runs the timed call (``run``) and
# checks a result (``check``: failure reason or None, plus a digest of the
# full output for the byte-identity check).


class PipelineOp:
    """cam6 and radar_dense: one ``run_pipeline(PipelineConfig())`` per op."""

    def __init__(self, plan: dict):
        self.inputs, self.oracles = plan["inputs"], plan["oracles"]
        self.cfg = pl.PipelineConfig()

    @staticmethod
    def prepare(workload: str, seed: int, work: Path) -> dict:
        cfg = pl.PipelineConfig(pooling="reference", sequential=True)
        dirs, oracles_, bundles = [], [], []
        for j, spec in enumerate(scene_specs(workload, seed)):
            d = sc.generate_scene(spec, work / f"bundle{j}")
            report, preds = pl.run_pipeline(d, cfg)
            dirs.append(str(d))
            oracles_.append(pipeline_outputs(report, preds, cfg))
            c, fh, fw = spec.feature_shape
            bundles.append({
                "cameras": len(spec.cameras), "feature_shape": [c, fh, fw],
                "radar_points": (d / "radar.pc4d").stat().st_size // 16 - 1,
                "lidar_points": (d / "lidar.pc4d").stat().st_size // 16 - 1,
                "frustum_points_per_camera": cfg.n_depth_bins * fh * fw,
            })
        return {"workload": workload, "inputs": dirs, "oracles": oracles_,
                "shape": {"bundles": bundles}}

    def run(self, i: int):
        return pl.run_pipeline(self.inputs[i % len(self.inputs)], self.cfg)

    def check(self, i: int, result) -> tuple[str | None, str]:
        report, preds = result
        full = {"report": report.to_dict(),
                "preds": {t: [me.box_to_json(b) for b in bs] for t, bs in preds.items()}}
        full["report"].pop("timings")
        full["report"]["eval"].pop("eval_time")
        why = check_pipeline(pipeline_outputs(report, preds, self.cfg),
                             self.oracles[i % len(self.oracles)])
        return why, digest(full)

    def counts(self, result) -> dict:
        """Counts any op reports without tracing, to compare with traced runs."""
        report, preds = result
        return {"fusion.proposals": int(report.fusion_stats["n_radar_boxes"]),
                "fusion.matches": int(report.fusion_stats["n_matches"]),
                "pipeline.preds_out": sum(map(len, preds.values()))}


class EvalOp:
    """eval_many: the ``bevkit eval`` path, two ``load_boxes`` plus an evaluation."""

    def __init__(self, plan: dict):
        self.inputs, self.oracles = plan["inputs"], plan["oracles"]

    @staticmethod
    def prepare(workload: str, seed: int, work: Path) -> dict:
        preds, gts = eval_inputs(seed)
        me.save_boxes(work / "predictions.json", preds)
        me.save_boxes(work / "gt_boxes.json", gts, with_score=False)
        # the oracle reads the files back, as the op does
        oracle = eval_oracle(me.load_boxes(work / "predictions.json"),
                             me.load_boxes(work / "gt_boxes.json"))
        shape = {"tokens": len(gts), "gt_boxes": sum(map(len, gts.values())),
                 "pred_boxes": sum(map(len, preds.values())),
                 "json_bytes": sum((work / f).stat().st_size
                                   for f in ("predictions.json", "gt_boxes.json"))}
        return {"workload": workload, "inputs": [str(work)], "oracles": [oracle],
                "shape": shape}

    def run(self, i: int):
        path = Path(self.inputs[0])
        preds = me.load_boxes(path / "predictions.json")
        gts = me.load_boxes(path / "gt_boxes.json")
        return me.evaluate_detections(preds, gts)

    def check(self, i: int, result) -> tuple[str | None, str]:
        out, oracle = eval_outputs(result), self.oracles[0]
        why = None
        if not _close_tree(out, oracle):
            why = f"summary differs from oracle (NDS {out['nds']!r} vs {oracle['nds']!r})"
        return why, digest(out)

    def counts(self, result) -> dict:
        return {}


OPS = {"cam6": PipelineOp, "radar_dense": PipelineOp, "eval_many": EvalOp}
