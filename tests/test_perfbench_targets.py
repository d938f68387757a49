"""The traced benchmark wraps bevkit functions by (module, attribute) name.

A rename in src/ would otherwise show up only as failed traced ops, and a
signature change that breaks a count function only as a benchmark whose
traced counts disagree with the report.
"""

import importlib

import pytest

from bevkit import pipeline as pl
from bevkit.pipeline import PipelineConfig, run_pipeline
from bevkit.scene import default_scene_spec, generate_scene


@pytest.fixture
def tracing(perfbench):
    return perfbench("tracing")


def test_every_traced_target_resolves(tracing):
    assert tracing.PATCHES
    for module, attr, *_ in tracing.PATCHES:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"


def test_traced_fusion_counts_match_report(tracing, tmp_path):
    spec = default_scene_spec(seed=19, n_objects=4, feature_shape=(16, 8, 22),
                              radar_density=800, lidar_density=2000)
    scene = generate_scene(spec, tmp_path / "scene")
    cfg = PipelineConfig(n_depth_bins=24, n_context=12, bev_cells=64, bev_range=32.0,
                         kan_hidden=(16,), radar_channels=8, sequential=True)
    (report, _), counts = tracing.Tracer().run_op(0, lambda: run_pipeline(scene, cfg), "op")
    assert report.fusion_stats["n_radar_boxes"] > 0
    assert counts["fusion.proposals"] == report.fusion_stats["n_radar_boxes"]
    assert counts["fusion.matches"] == report.fusion_stats["n_matches"]


def test_traced_pillar_counts_and_spans(tracing, tmp_path):
    spec = default_scene_spec(seed=29, n_objects=3, feature_shape=(16, 8, 22),
                              radar_density=800, lidar_density=1000)
    scene = generate_scene(spec, tmp_path / "scene")
    cfg = PipelineConfig(n_depth_bins=24, n_context=12, bev_cells=64, bev_range=32.0,
                         kan_hidden=(16,), radar_channels=8, pillar_max_pillars=40,
                         sequential=True)
    tracer = tracing.Tracer()
    (report, _), counts = tracer.run_op(0, lambda: run_pipeline(scene, cfg), "op")
    assert report.pillars["truncated"] > 0
    assert counts["pillars.kept"] == report.pillars["kept"] == 40
    assert counts["pillars.truncated"] == report.pillars["truncated"]
    names = [s["name"] for s in tracer.spans]
    for name in ("pillars.build", "pillars.vfe", "nnprims.conv",
                 "fusion.fuse", "geometry.unproject", "kan.depthnet", "nnprims.softmax",
                 "metrics.evaluate"):
        assert name in names, name


def test_one_unproject_span_per_camera(tracing, tmp_path):
    # geometry.unproject_s reads 0 if the camera branch stops calling
    # geo.unproject_frustum once per camera
    spec = default_scene_spec(seed=31, n_objects=3, n_cameras=2, feature_shape=(16, 8, 22),
                              radar_density=400, lidar_density=1000)
    scene = generate_scene(spec, tmp_path / "scene")
    cfg = PipelineConfig(n_depth_bins=24, n_context=12, bev_cells=64, bev_range=32.0,
                         kan_hidden=(16,), radar_channels=8, sequential=True)
    tracer = tracing.Tracer()
    tracer.run_op(0, lambda: run_pipeline(scene, cfg), "op")
    names = [s["name"] for s in tracer.spans]
    assert names.count("geometry.unproject") == len(spec.cameras) == 2


# PATCHES entries that the pipeline no longer calls; their per-layer metrics read 0
DEAD_TARGETS = {("bevkit.pillars", "scatter_to_pseudo_image"),
                ("bevkit.pipeline", "lift_outer_product"),
                ("bevkit.pipeline", "depth_refine"),
                ("bevkit.voxelpool", "pool_reference"),
                ("bevkit.voxelpool", "pool_cumsum"),
                ("bevkit.voxelpool", "pool_concurrent"),
                ("bevkit.metrics", "match_center_distance")}


def test_every_live_traced_target_records_a_span(tracing, tmp_path, monkeypatch):
    # a change that stops calling a traced function through its patched name
    # blinds that layer's metric; only the known-dead entries may stay silent
    spec = default_scene_spec(seed=37, n_objects=3, n_cameras=2, feature_shape=(16, 8, 22),
                              radar_density=400, lidar_density=1000)
    scene = generate_scene(spec, tmp_path / "scene")
    cfg = PipelineConfig(n_depth_bins=24, n_context=12, bev_cells=64, bev_range=32.0,
                         kan_hidden=(16,), radar_channels=8, modality="camera+radar")
    # one span name per entry: several entries share a layer's name
    monkeypatch.setattr(tracing, "PATCHES", [(module, attr, f"{module}.{attr}", *rest)
                                             for module, attr, _, *rest in tracing.PATCHES])
    tracer = tracing.Tracer()
    tracer.run_op(0, lambda: pl.run_pipeline(scene, cfg), "op")
    names = [s["name"] for s in tracer.spans]
    recorded = set(names)
    targets = {(module, attr) for module, attr, *_ in tracing.PATCHES}
    silent = {t for t in targets if ".".join(t) not in recorded}
    assert silent == DEAD_TARGETS
    # the supervision map and the radar hint each rasterize once per camera
    assert names.count("bevkit.geometry.depth_map_from_points") == 2 * len(spec.cameras)
