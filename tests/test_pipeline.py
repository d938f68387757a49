import dataclasses
import json
import math

import numpy as np
import pytest
from oracles import lift_refine_pool

from bevkit import geometry as geo
from bevkit import pipeline as pl
from bevkit import scene as sc
from bevkit import voxelpool as vp
from bevkit.pipeline import (
    CONFIG_KEYS,
    PipelineConfig,
    PipelineWeights,
    run_pipeline,
    save_run_outputs,
)
from bevkit.scene import default_scene_spec, generate_scene

SMALL = dict(n_depth_bins=24, n_context=12, bev_cells=64, bev_range=32.0,
             kan_hidden=(16,), radar_channels=8)


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenes") / "scene"
    spec = default_scene_spec(seed=17, n_objects=6, feature_shape=(16, 8, 22),
                              radar_density=1200, lidar_density=4000)
    return generate_scene(spec, out)


class TestRunPipeline:
    def test_stages_and_losses_present(self, scene_dir):
        report, preds = run_pipeline(scene_dir, PipelineConfig(**SMALL, sequential=True))
        for stage in ("load", "supervision", "pillars", "depthnet", "lift",
                      "voxelpool", "fusion", "head", "evaluate"):
            assert stage in report.timings
        for loss in ("depth_bce", "l_det", "l_heatmap", "l_bbox"):
            assert np.isfinite(report.losses[loss])
        assert report.eval_summary is not None
        report.eval_summary.check()
        assert "sample-0" in preds

    def test_camera_only_reports_no_radar(self, scene_dir):
        cfg = PipelineConfig(**SMALL, modality="camera", sequential=True)
        report, _ = run_pipeline(scene_dir, cfg)
        assert report.fusion_stats["n_radar_boxes"] == 0
        assert report.fusion_stats["n_matches"] == 0
        assert "pillars" not in report.timings

    def test_modality_changes_only_radar_dependent_stages(self, scene_dir):
        cam, _ = run_pipeline(scene_dir, PipelineConfig(**SMALL, modality="camera",
                                                        sequential=True))
        fused, _ = run_pipeline(scene_dir, PipelineConfig(**SMALL, modality="camera+radar",
                                                          sequential=True))
        # the camera path is untouched by the radar stream
        for key in ("image_features_cam0", "gates_cam0", "context_cam0"):
            assert cam.checksums[key] == fused.checksums[key]
        # radar hints reach the depth logits and everything downstream
        assert cam.checksums["depth_logits_cam0"] != fused.checksums["depth_logits_cam0"]
        assert cam.checksums["f_bev"] != fused.checksums["f_bev"]

    def test_pooling_implementations_agree(self, scene_dir):
        summaries = {}
        losses = {}
        for impl in ("reference", "cumsum", "concurrent"):
            cfg = PipelineConfig(**SMALL, pooling=impl, workers=8)
            report, _ = run_pipeline(scene_dir, cfg)
            summaries[impl] = report.eval_summary
            losses[impl] = report.losses
        for impl in ("cumsum", "concurrent"):
            assert abs(summaries[impl].nds - summaries["reference"].nds) < 1e-6
            assert abs(summaries[impl].mean_ap - summaries["reference"].mean_ap) < 1e-6
            for key in losses["reference"]:
                assert abs(losses[impl][key] - losses["reference"][key]) < 1e-6

    def test_radar_hints_do_not_raise_depth_bce(self, scene_dir):
        cam, _ = run_pipeline(scene_dir, PipelineConfig(**SMALL, modality="camera",
                                                        sequential=True))
        fused, _ = run_pipeline(scene_dir, PipelineConfig(**SMALL, modality="camera+radar",
                                                          sequential=True))
        assert fused.losses["depth_bce"] <= cam.losses["depth_bce"]

    def test_outputs_serializable(self, scene_dir, tmp_path):
        report, preds = run_pipeline(scene_dir, PipelineConfig(**SMALL, sequential=True))
        report_path, pred_path = save_run_outputs(tmp_path, report, preds)
        payload = json.loads(report_path.read_text())
        assert "checksums" in payload and "eval" in payload
        assert json.loads(pred_path.read_text())
        # matched radar outputs ride along in the report
        assert payload["fusion_stats"]["n_matches"] == len(payload["matches"])
        if payload["matches"]:
            match = payload["matches"][0]
            assert len(match["q"]) == 4 and len(match["cell"]) == 2

    def test_missing_scene_raises_staged_error(self, tmp_path):
        with pytest.raises(OSError, match="stage 'load'"):
            run_pipeline(tmp_path / "nope", PipelineConfig(**SMALL))

    def test_weights_reproducible(self, scene_dir):
        cfg = PipelineConfig(**SMALL, sequential=True)
        a = PipelineWeights.create(cfg, 16)
        b = PipelineWeights.create(cfg, 16)
        np.testing.assert_array_equal(a.head_kernel, b.head_kernel)
        np.testing.assert_array_equal(a.depthnet.split_kernel, b.depthnet.split_kernel)


def yawed_rigs(yaws_deg):
    """Forward-model cameras turned about the ego z axis, mounted 1.5 m out."""
    base = sc.forward_camera()
    rigs = []
    for deg in yaws_deg:
        c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
        rot = sc.FORWARD_CAM_ROTATION @ np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        mount = np.array([1.5 * c, 1.5 * s, 1.6])
        rigs.append(geo.CameraRig(base.intrinsics, rot, -rot @ mount, base.image_size))
    return rigs


class TestPerCameraPooling:
    @pytest.fixture(scope="class")
    def three_cameras(self, tmp_path_factory):
        """A 3-camera run (rigs yawed 0/120/240 degrees) with what its stages saw."""
        spec = default_scene_spec(seed=5, n_objects=8, n_cameras=3, feature_shape=(16, 8, 22),
                                  radar_density=1200, lidar_density=4000)
        spec.cameras = yawed_rigs((0.0, 120.0, 240.0))
        scene = generate_scene(spec, tmp_path_factory.mktemp("cams") / "scene")
        cfg = PipelineConfig(**SMALL, pooling="reference", sequential=True)
        weights = PipelineWeights.create(cfg, 16)
        seen = {"depthnet": [], "softmax": [], "fuse": []}

        def record(name, fn, keep_args=False):
            def wrapped(*args):
                out = fn(*args)
                seen[name].append(args if keep_args else out)
                return out
            return wrapped

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pl.kan, "depthnet_forward", record("depthnet", pl.kan.depthnet_forward))
            mp.setattr(pl, "softmax_over_depth", record("softmax", pl.softmax_over_depth))
            mp.setattr(pl.fu, "fuse_bev_features",
                       record("fuse", pl.fu.fuse_bev_features, keep_args=True))
            report, _ = run_pipeline(scene, cfg, weights)
        frustum = geo.FrustumGrid.regular((8, 22), cfg.depth_bins.centers())
        positions = [geo.unproject_frustum(rig.scaled(8 / 256, 22 / 704), frustum)
                     for rig in spec.cameras]
        return cfg, weights, report, seen, positions

    def test_camera_sum_matches_stacked_pool(self, three_cameras):
        cfg, weights, _, seen, positions = three_cameras
        f_bev, _, f_depth = seen["fuse"][0]
        contexts = seen["depthnet"][0].context
        p_depths = seen["softmax"]
        assert len(positions) == len(contexts) == len(p_depths) == 3
        kernel = weights.refine_kernel
        want_bev, want_depth = lift_refine_pool(positions, contexts, p_depths, kernel,
                                                cfg.bev_grid)
        assert np.abs(f_bev - want_bev).max() <= 1e-9
        assert np.abs(f_depth - want_depth).max() <= 1e-9
        # every camera adds cells the others leave empty, so a dropped camera would show
        for k in range(3):
            others, _ = lift_refine_pool(*(v[:k] + v[k + 1:] for v in
                                           (positions, contexts, p_depths)),
                                         kernel, cfg.bev_grid)
            assert np.abs(f_bev - others).max() > 1e-3

    def test_frustum_drops_reported(self, three_cameras):
        cfg, _, report, _, positions = three_cameras
        for k, pts in enumerate(positions):
            inside, _ = vp.cell_ids(vp.FeaturedPoints(pts, np.zeros((len(pts), 0))),
                                    cfg.bev_grid)
            assert 0 < report.dropped_points[f"frustum_cam{k}"] == int((~inside).sum())


class TestPipelineConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = PipelineConfig(d_min=1.5, d_max=40.0, n_depth_bins=24, n_context=12,
                             kan_hidden=(16, 8), bev_range=32.0, bev_cells=64,
                             pillar_max_points=10, pillar_max_pillars=100, radar_channels=8,
                             heatmap_score_thresh=0.4, match_iou_thresh=0.2,
                             peak_threshold=0.7, radar_hint_strength=1.0, weight_seed=11,
                             pooling="cumsum", workers=2, modality="camera", sequential=True)
        default = PipelineConfig()
        assert set(CONFIG_KEYS) == {f.name for f in dataclasses.fields(PipelineConfig)}
        for f in dataclasses.fields(PipelineConfig):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        assert json.loads(path.read_text())["bev"] == {"range": 32.0, "cells": 64}
        back = PipelineConfig.from_json(path)
        assert back == cfg

    def test_default_pooling_is_reference(self):
        assert PipelineConfig().pooling == "reference"

    def test_older_files_load(self):
        cfg = PipelineConfig.from_dict({"run": {"pooling": "cumsum", "average_pool": False},
                                        "fusion": {"n_classes": 10}})
        assert cfg == PipelineConfig(pooling="cumsum")
        for section, key, value in (("run", "average_pool", True), ("run", "average_pool", 0),
                                    ("fusion", "n_classes", 3), ("fusion", "n_classes", 11),
                                    ("fusion", "n_classes", 10.0)):
            with pytest.raises(ValueError, match=f"{section}.{key} is retired"):
                PipelineConfig.from_dict({section: {key: value}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="run.poolng"):
            PipelineConfig.from_dict({"run": {"poolng": "reference"}})
        with pytest.raises(ValueError, match="'bevv'"):
            PipelineConfig.from_dict({"bevv": {"cells": 4}})

    def test_non_object_section_rejected(self):
        with pytest.raises(ValueError, match="'bev' must be an object"):
            PipelineConfig.from_dict({"bev": [64]})
        with pytest.raises(ValueError, match="JSON object"):
            PipelineConfig.from_dict([])

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(pooling="gpu")
        with pytest.raises(ValueError):
            PipelineConfig(modality="lidar")

    @pytest.mark.parametrize("field, value", [
        ("d_min", 0.0), ("d_min", "2"), ("d_max", float("nan")), ("d_max", 1.0),
        ("n_depth_bins", 2), ("n_depth_bins", 24.0), ("n_context", True),
        ("kan_hidden", 5), ("kan_hidden", (16, 0)), ("kan_hidden", "64"),
        ("bev_range", -1.0), ("bev_cells", "4"), ("bev_cells", 0),
        ("pillar_max_points", None), ("pillar_max_pillars", 0), ("radar_channels", 8.0),
        ("heatmap_score_thresh", -0.1), ("match_iou_thresh", "0.2"),
        ("peak_threshold", 1.5), ("radar_hint_strength", float("inf")),
        ("radar_hint_strength", -1.0), ("weight_seed", -1), ("weight_seed", False),
        ("pooling", ["reference"]), ("workers", 0), ("modality", None),
        ("sequential", "no"), ("sequential", 1),
    ])
    def test_bad_values_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: value})
        section, key = CONFIG_KEYS[field]
        with pytest.raises(ValueError, match=field):
            PipelineConfig.from_dict({section: {key: value}})

    def test_numbers_accept_json_integers(self):
        cfg = PipelineConfig.from_dict({"depth": {"d_min": 1, "d_max": 40},
                                        "fusion": {"peak_threshold": 1}})
        assert (cfg.d_min, cfg.d_max, cfg.peak_threshold) == (1, 40, 1)
