"""Spans around bevkit's public functions, recorded from outside the package.

Each traced function is replaced, for the duration of a traced op, by a
wrapper that records ``{name, start, end, parent, op_id}`` plus the counts
its arguments and result reveal. Functions are patched where the pipeline
looks them up: names imported into ``bevkit.pipeline`` are patched there,
module-qualified calls (``vp.pool_cumsum``, ``me.match_center_distance``)
on their module. Spans stay in memory until the run writes them out.

A layer's self time is its spans' duration minus the part covered by
child spans. Counting done by the tracer itself is recorded as a
``trace.count`` child span, so it never lands in a layer's self time.
"""

from __future__ import annotations

import importlib
import os
import time
import tracemalloc

import numpy as np

MB = 1024.0 * 1024.0


def _scene_bytes(args, kwargs, result):
    files = result.manifest["files"]
    names = ["scene.json", files["radar"], files["lidar"], files["gt_boxes"],
             *files["features"]]
    return {"scene.bytes_read": sum(os.path.getsize(result.path / n) for n in names)}


def _pool_counts(args, kwargs, result):
    from bevkit import voxelpool as vp

    points, cfg = args[0], args[1]
    inside, ids = vp.cell_ids(points, cfg)
    occupied = np.count_nonzero(np.bincount(ids, minlength=cfg.nx * cfg.ny))
    return {"voxelpool.points_in": len(points),
            "voxelpool.points_in_range": int(np.count_nonzero(inside)),
            "voxelpool.cells_occupied": int(occupied),
            "voxelpool.bytes_in": int(points.features.size) * 8}


# (module, attribute, span name, count function or None, record a memory peak)
PATCHES = [
    ("bevkit.pipeline", "load_scene", "scene.load", _scene_bytes, False),
    ("bevkit.geometry", "depth_map_from_points", "geometry.depth_map",
     lambda a, k, r: {"geometry.points_dropped": int(r[1])}, False),
    ("bevkit.geometry", "unproject_frustum", "geometry.unproject", None, False),
    ("bevkit.pillars", "build_pillars", "pillars.build",
     lambda a, k, r: {"pillars.kept": int(r.features.shape[0]),
                      "pillars.truncated": int(r.truncated_pillars)}, False),
    ("bevkit.pillars", "vfe_forward", "pillars.vfe", None, False),
    ("bevkit.pillars", "scatter_to_pseudo_image", "pillars.scatter", None, False),
    ("bevkit.kan", "depthnet_forward", "kan.depthnet", None, False),
    ("bevkit.pipeline", "softmax_over_depth", "nnprims.softmax", None, False),
    ("bevkit.pipeline", "lift_outer_product", "nnprims.lift",
     lambda a, k, r: {"nnprims.lift_bytes": int(r.nbytes)}, True),
    ("bevkit.pipeline", "depth_refine", "nnprims.refine", None, False),
    ("bevkit.pipeline", "conv_pointwise", "nnprims.conv", None, False),
    ("bevkit.voxelpool", "pool_reference", "voxelpool.pool", _pool_counts, True),
    ("bevkit.voxelpool", "pool_cumsum", "voxelpool.pool", _pool_counts, True),
    ("bevkit.voxelpool", "pool_concurrent", "voxelpool.pool", _pool_counts, True),
    ("bevkit.fusion", "fuse_bev_features", "fusion.fuse", None, False),
    ("bevkit.fusion", "match_radar_to_heatmap", "fusion.match",
     lambda a, k, r: {"fusion.proposals": len(a[0]), "fusion.matches": len(r)}, False),
    ("bevkit.fusion", "detection_loss", "fusion.loss", None, False),
    ("bevkit.fusion", "depth_bce_loss", "fusion.loss", None, False),
    ("bevkit.metrics", "load_boxes", "metrics.load_boxes", None, False),
    ("bevkit.metrics", "evaluate_detections", "metrics.evaluate",
     lambda a, k, r: {"metrics.boxes_in": sum(map(len, a[0].values()))
                      + sum(map(len, a[1].values()))}, False),
    ("bevkit.metrics", "match_center_distance", "metrics.match",
     lambda a, k, r: {"metrics.match_calls": 1}, False),
    ("bevkit.metrics", "average_precision", "metrics.ap", None, False),
    ("bevkit.pipeline", "checksum", "pipeline.checksum",
     lambda a, k, r: {"pipeline.checksum_bytes": int(np.asarray(a[0]).size) * 8}, False),
    ("bevkit.pipeline", "run_pipeline", "pipeline.run",
     lambda a, k, r: {"pipeline.preds_out": sum(map(len, r[1].values()))}, False),
]


class Tracer:
    """In-memory span recorder; ``patch()`` installs it, ``unpatch()`` removes it."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> dict:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None, "op_id": self.op_id}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, count, peak: bool):
        def traced(*args, **kwargs):
            span = self._open(name)
            if peak:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if peak:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
                self._close(span)
            if count is not None:
                bookkeeping = self._open("trace.count")
                for key, val in count(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + val
                self._close(bookkeeping)
            return result
        return traced

    def patch(self) -> None:
        for mod_name, attr, name, count, peak in PATCHES:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name, count, peak))

    def unpatch(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def run_op(self, op_id: int, fn, name: str):
        """Call ``fn()`` as one traced op under a top-level span ``name``.

        Returns (result, counts of this op).
        """
        self.op_id, self.counts = op_id, {}
        self.patch()
        try:
            span = self._open(name)
            try:
                result = fn()
            finally:
                self._close(span)
        finally:
            self.unpatch()
        return result, self.counts


def self_times(spans: list[dict]) -> list[float]:
    """Per span: duration minus the union of its direct children's intervals.

    Children of one span never overlap (one thread), so the union is a sum.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_summary(spans: list[dict], op_id: int) -> dict[str, dict[str, float]]:
    """Self time, total time, calls and memory peak per span name for one op."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, selfs):
        if s["op_id"] != op_id:
            continue
        row = out.setdefault(s["name"], {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        row["self_s"] += own
        row["total_s"] += s["end"] - s["start"]
        row["calls"] += 1
        if "peak_mb" in s:
            row["peak_mb"] = max(row.get("peak_mb", 0.0), s["peak_mb"])
    return out
