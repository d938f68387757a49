import dataclasses
import json

import numpy as np
import pytest

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


class TestPipelineConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = PipelineConfig(d_min=1.5, d_max=40.0, n_depth_bins=24, n_context=12,
                             kan_hidden=(16, 8), bev_range=32.0, bev_cells=64,
                             pillar_max_points=10, pillar_max_pillars=100, radar_channels=8,
                             n_classes=3, heatmap_score_thresh=0.4, match_iou_thresh=0.2,
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
        cfg = PipelineConfig.from_dict({"run": {"pooling": "cumsum", "average_pool": False}})
        assert cfg == PipelineConfig(pooling="cumsum")
        with pytest.raises(ValueError, match="run.average_pool"):
            PipelineConfig.from_dict({"run": {"average_pool": True}})

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
