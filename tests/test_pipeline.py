import contextlib
import dataclasses
import hashlib
import json
import math
import shutil
import tracemalloc

import numpy as np
import pytest
from oracles import (
    brute_force_match, brute_force_pool, build_pillars_oracle, cell_box, decode_peaks_oracle,
    greedy_match_oracle, gt_heatmap_oracle, lift_refine_pool, sigmoid_oracle,
    wide_path_heatmap,
)

from bevkit import fusion as fu
from bevkit import geometry as geo
from bevkit import pipeline as pl
from bevkit import scene as sc
from bevkit import voxelpool as vp
from bevkit.pipeline import (
    CONFIG_KEYS,
    MODALITIES,
    PipelineConfig,
    PipelineWeights,
    checksum,
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


@pytest.fixture(scope="module")
def two_cameras(tmp_path_factory):
    spec = default_scene_spec(seed=3, n_objects=2, n_cameras=2, feature_shape=(16, 8, 22),
                              radar_density=300, lidar_density=600)
    return generate_scene(spec, tmp_path_factory.mktemp("scenes") / "two_cameras")


def stage_peaks(monkeypatch, name: str) -> list[int]:
    """Run each pipeline stage called name under tracemalloc; the list the patch returns
    gets the peak bytes allocated above the stage's entry, one per time it runs."""
    peaks, stage = [], pl._stage

    @contextlib.contextmanager
    def traced(report, stage_name):
        with stage(report, stage_name):
            if stage_name == name:
                tracemalloc.start()
            try:
                yield
            finally:
                if stage_name == name:
                    peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

    monkeypatch.setattr(pl, "_stage", traced)
    return peaks


class TestRunPipeline:
    def test_stages_and_losses_present(self, scene_dir):
        report, preds = run_pipeline(scene_dir, PipelineConfig(**SMALL, sequential=True))
        for stage in ("load", "supervision", "pillars", "depthnet", "lift",
                      "voxelpool", "fusion", "head", "evaluate", "checksums"):
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
        assert "pillars" not in report.to_dict()

    def test_modality_changes_only_radar_dependent_stages(self, scene_dir):
        (cam, _, cam_seen), (fused, _, fused_seen) = (
            run_recorded(scene_dir, PipelineConfig(**SMALL, modality=modality, sequential=True))
            for modality in ("camera", "camera+radar"))
        # the camera path is untouched by the radar stream
        for key in ("gates_cam0", "class_logits_cam0"):
            assert cam.checksums[key] == fused.checksums[key]
        # radar hints reach the depth logits and everything downstream
        assert not np.array_equal(cam_seen["depth_logits"][0], fused_seen["depth_logits"][0])
        assert cam.checksums["logits_camera"] != fused.checksums["logits_camera"]

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
        # the gated radar cells ride along in the report, as flat cell ids
        gated = payload["gated_cells"]
        assert payload["fusion_stats"]["n_matches"] == len(gated) > 0
        assert all(type(c) is int and 0 <= c < SMALL["bev_cells"] ** 2 for c in gated)

    def test_pillar_counts_reported(self, scene_dir, tmp_path):
        cfg = PipelineConfig(**SMALL, pillar_max_points=3, pillar_max_pillars=50,
                             sequential=True)
        report, preds = run_pipeline(scene_dir, cfg)
        bundle = sc.load_scene(scene_dir)
        want = build_pillars_oracle(pl.pi.RadarPointCloud(bundle.radar), cfg.pillar_grid,
                                    bundle.manifest["seed"])
        x, y = bundle.radar[:, 0], bundle.radar[:, 1]
        r = cfg.bev_range
        in_range = int(np.count_nonzero((x >= -r) & (x < r) & (y >= -r) & (y < r)))
        assert report.pillars == {"points_in_range": in_range, "kept": 50,
                                  "truncated": want.truncated_pillars}
        assert want.truncated_pillars > 0 and len(want.point_counts) == 50
        report_path, _ = save_run_outputs(tmp_path, report, preds)
        assert json.loads(report_path.read_text())["pillars"] == report.pillars

    def test_run_keeps_pillars_compact(self, scene_dir):
        """The run reads no padded (P, T, 9) view, and the pillars' binning gives the
        proposals: every occupied radar cell, truncated pillars included."""
        cfg = PipelineConfig(**SMALL, pillar_max_pillars=50, sequential=True)
        built, build = [], pl.pi.build_pillars
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pl.pi, "build_pillars", lambda *a, **k: built.append(build(*a, **k))
                       or built[-1])
            report, _ = run_pipeline(scene_dir, cfg)
        assert len(built) == 1 and "features" not in vars(built[0])
        radar = sc.load_scene(scene_dir).radar
        occupied = np.unique(cfg.bev_grid.cell_ids(radar)[1])
        np.testing.assert_array_equal(built[0].occupied_cells, occupied)
        assert report.fusion_stats["n_radar_boxes"] == len(occupied) > 50

    def test_pillars_stage_memory(self, tmp_path, monkeypatch, perfbench):
        """On radar_dense seed-11 bundle 0 (4,096 kept pillars, 1,303 truncated), the
        default pillars stage peaks below twice the VFE's (C, N) float64 product over the
        N kept points. Building the padded (P, T, 9) view inside the stage exceeds that."""
        spec = perfbench("workloads").scene_specs("radar_dense", 11)[0]
        peaks = stage_peaks(monkeypatch, "pillars")
        cfg, scene = PipelineConfig(), generate_scene(spec, tmp_path / "scene")
        report, _ = run_pipeline(scene, cfg)
        assert report.pillars["kept"] == cfg.pillar_max_pillars == 4096
        assert report.pillars["truncated"] == 1303
        n = len(pl.pi.build_pillars(pl.pi.RadarPointCloud(sc.load_scene(scene).radar),
                                    cfg.pillar_grid, spec.seed).points)
        assert n == 13_594  # at most T = 20 per pillar
        assert len(peaks) == 1 and 0 < peaks[0] < 2 * cfg.radar_channels * n * 8

    def test_radar_projection_equals_full_grid_conv(self, scene_dir):
        """Convolving only the occupied cells gives the full-grid 1x1 conv bit for bit.

        The run builds no pseudo image: the scatter raises if it is called.
        """
        cfg = PipelineConfig(**SMALL, sequential=True)
        weights = PipelineWeights.create(cfg, 16)
        weights.radar_proj_bias = np.random.default_rng(46).normal(0.0, 0.3, cfg.n_context)
        scatter = pl.pi.scatter_to_pseudo_image
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pl.pi, "scatter_to_pseudo_image",
                       lambda *args: pytest.fail("the run built a pseudo image"))
            report, _, seen = run_recorded(scene_dir, cfg, weights)
        bundle = sc.load_scene(scene_dir)
        pillars = pl.pi.build_pillars(pl.pi.RadarPointCloud(bundle.radar), cfg.pillar_grid,
                                      bundle.manifest["seed"])
        image = scatter(pl.pi.vfe_forward(pillars, weights.vfe), pillars.pillar_coords,
                        cfg.pillar_grid)
        head = weights.head_kernel
        full = pl.conv_pointwise(image, head @ weights.radar_proj_kernel,
                                 head @ weights.radar_proj_bias)
        assert report.checksums["logits_radar"] == pl.checksum(full)
        _, radar_logits = seen["fuse"][0]
        wide = pl.conv_pointwise(image, weights.radar_proj_kernel, weights.radar_proj_bias)
        assert np.abs(radar_logits - np.tensordot(head, wide, 1)).max() <= 1e-9

    @pytest.mark.parametrize("modality", MODALITIES)
    def test_depth_target_is_the_stacked_clouds_map(self, scene_dir, modality, monkeypatch):
        # each cloud is rasterized on its own; the BCE target and the supervision drop
        # count must equal one rasterization of the two clouds stacked
        targets, bce = [], fu.depth_bce_loss
        monkeypatch.setattr(pl.fu, "depth_bce_loss",
                            lambda p, gt, bins: targets.append(gt.values) or bce(p, gt, bins))
        report, _ = run_pipeline(scene_dir, PipelineConfig(**SMALL, modality=modality))
        bundle = sc.load_scene(scene_dir)
        hw = bundle.features[0].shape[1:]
        stacked = np.vstack([bundle.lidar[:, :3], bundle.radar[:, :3]])
        assert len(targets) == len(bundle.cameras)
        for i, rig in enumerate(bundle.cameras):
            oracle, dropped = geo.depth_map_from_points(stacked, pl._feature_rig(rig, hw), hw)
            np.testing.assert_array_equal(targets[i], oracle.values)
            assert report.dropped_points[f"supervision_cam{i}"] == dropped

    def test_missing_scene_raises_staged_error(self, tmp_path):
        with pytest.raises(OSError, match="stage 'load'"):
            run_pipeline(tmp_path / "nope", PipelineConfig(**SMALL))

    @pytest.mark.parametrize("stage, bad", [
        ("pillars", lambda w, rng: dataclasses.replace(w, vfe=pl.pi.VfeWeights.random(rng, 5))),
        ("fusion", lambda w, rng: dataclasses.replace(w, q_kernel=rng.normal(0.0, 0.2, (12, 3)))),
    ], ids=["vfe-5-channels", "q-kernel-3-columns"])
    def test_bad_weights_name_their_stage(self, scene_dir, stage, bad):
        """A shape error deep in a stage's body ends as a RuntimeError naming the stage."""
        cfg = PipelineConfig(**SMALL, sequential=True)
        weights = bad(PipelineWeights.create(cfg, 16), np.random.default_rng(48))
        with pytest.raises(RuntimeError, match=f"pipeline stage '{stage}' failed: shape"):
            run_pipeline(scene_dir, cfg, weights)

    def test_bad_head_kernel_names_the_depthnet_stage(self, scene_dir):
        """The head is folded into the depth net inside the depthnet stage, so a head that
        does not fit n_context fails there, also in a camera-only run."""
        cfg = PipelineConfig(**SMALL, modality="camera", sequential=True)
        weights = dataclasses.replace(PipelineWeights.create(cfg, 16),
                                      head_kernel=np.ones((pl.N_CLASSES, 11)))
        with pytest.raises(RuntimeError, match="pipeline stage 'depthnet' failed: matmul"):
            run_pipeline(scene_dir, cfg, weights)

    def test_radar_gate_matches_brute_force_oracle(self, scene_dir):
        """Proposals, gated cells and q rows against one-cell boxes matched by IOU."""
        cfg = PipelineConfig(**{**SMALL, "bev_cells": 12}, sequential=True)
        seen, convs = [], []

        def capture(cells, logits, thresh):
            # the q term then adds into these logits in place
            seen.append((cells, logits.copy()))
            return match(cells, logits, thresh)

        match, conv = pl.fu.match_radar_to_heatmap, pl.conv_pointwise
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pl.fu, "match_radar_to_heatmap", capture)
            mp.setattr(pl, "conv_pointwise", lambda *a: convs.append(a[0]) or conv(*a))
            run_pipeline(scene_dir, cfg)
            # the proposals' median prior score, so the gate drops some of them
            cells, logits = seen[0]
            prior = sigmoid_oracle(logits[:, cells]).max(axis=0)
            cfg.heatmap_score_thresh = float(np.median(prior))
            report, _ = run_pipeline(scene_dir, cfg)
        radar = sc.load_scene(scene_dir).radar[:, :3]
        counts = brute_force_pool(vp.FeaturedPoints(radar, np.ones((len(radar), 1))),
                                  cfg.bev_grid)[0]
        boxes = [cell_box(cfg.bev_grid, iy, ix) for iy, ix in zip(*np.nonzero(counts))]
        n = cfg.bev_cells
        scores = sigmoid_oracle(seen[1][1]).reshape(pl.N_CLASSES, n, n)
        found = brute_force_match(boxes, scores, cfg.bev_grid, cfg.heatmap_score_thresh, 0.01)
        want = [(f[0], [b.center[0], b.center[1], 0.0, 0.0])
                for b, f in zip(boxes, found) if f]
        assert 0 < len(want) < len(boxes)
        assert report.fusion_stats == {"n_radar_boxes": len(boxes), "n_matches": len(want)}
        assert report.gated_cells == [iy * n + ix for (iy, ix), _ in want]
        # the last conv is the q term's, over the gated cells' q rows
        np.testing.assert_allclose(convs[-1][:, 0].T, [q for _, q in want], rtol=0, atol=1e-12)

    def test_heatmap_is_head_over_final_fused_grid(self, scene_dir):
        """One sigmoid over the whole grid in either modality: the gate's prior is taken
        at the radar cells alone."""
        cfg = PipelineConfig(**{**SMALL, "bev_cells": 12}, sequential=True)
        for modality in MODALITIES:
            report, _, seen = run_recorded(scene_dir, dataclasses.replace(cfg, modality=modality))
            (head,) = seen["heads"]
            assert report.checksums["heatmap"] == pl.checksum(head)
        assert report.fusion_stats["n_matches"] > 0

    @pytest.mark.parametrize("modality", MODALITIES)
    @pytest.mark.parametrize("scene", ["scene_dir", "yawed_scene"])
    def test_heatmap_matches_wide_path(self, request, scene, modality):
        """Head-first logits give the heatmap of the n_context-wide grids at 1e-9."""
        scene = request.getfixturevalue(scene)
        cfg = PipelineConfig(**SMALL, modality=modality, sequential=True)
        weights = PipelineWeights.create(cfg, 16)
        report, _, seen = run_recorded(scene, cfg, weights)
        heatmap = seen["heads"][-1]
        assert report.checksums["heatmap"] == pl.checksum(heatmap)
        assert (report.fusion_stats["n_matches"] > 0) == (modality == "camera+radar")
        bundle = sc.load_scene(scene)
        # the run's depth net emits class logits; the wide path takes the n_context rows
        contexts = pl.kan.depthnet_forward(bundle.features, bundle.cameras,
                                           weights.depthnet).context
        want = wide_path_heatmap(bundle, cfg, weights, contexts, seen["softmax"])
        assert np.abs(heatmap - want).max() <= 1e-9

    def test_q_term_in_place_with_nonzero_biases(self, scene_dir):
        """The q conv is added into the fused logits in place: its bias lands on every
        unmatched cell, and the gate's scores, taken before, are the sigmoid of the fused
        grid at the proposals."""
        cfg = PipelineConfig(**SMALL, sequential=True)
        weights = PipelineWeights.create(cfg, 16)
        rng = np.random.default_rng(47)
        weights.q_bias = rng.normal(0.0, 0.3, cfg.n_context)
        weights.radar_proj_bias = rng.normal(0.0, 0.3, cfg.n_context)
        gate_scores, sigmoid = [], fu.sigmoid
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fu, "sigmoid", lambda x: gate_scores.append(sigmoid(x)) or gate_scores[-1])
            report, _, seen = run_recorded(scene_dir, cfg, weights)
        assert 0 < report.fusion_stats["n_matches"] < cfg.bev_cells ** 2
        bundle = sc.load_scene(scene_dir)
        contexts = pl.kan.depthnet_forward(bundle.features, bundle.cameras,
                                           weights.depthnet).context
        want = wide_path_heatmap(bundle, cfg, weights, contexts, seen["softmax"])
        assert np.abs(seen["heads"][-1] - want).max() <= 1e-9
        camera_logits, radar_logits = seen["fuse"][0]
        fused = camera_logits + radar_logits + weights.head_bias[:, None, None]
        proposals = np.unique(cfg.bev_grid.cell_ids(bundle.radar)[1])
        (scores,) = gate_scores
        assert np.array_equal(scores, sigmoid_oracle(fused.reshape(pl.N_CLASSES, -1)[:, proposals]))

    @pytest.mark.parametrize("modality", MODALITIES)
    def test_checksum_keys_are_pinned(self, two_cameras, modality):
        """The report's checksum schema; changing it is a deliberate act."""
        report, _ = run_pipeline(two_cameras, PipelineConfig(**SMALL, modality=modality,
                                                             sequential=True))
        want = {f"{key}_cam{i}" for key in ("gates", "class_logits") for i in range(2)}
        want |= {"logits_camera", "heatmap"}
        if modality == "camera+radar":
            want.add("logits_radar")
        assert set(report.checksums) == want

    @pytest.mark.parametrize("modality", MODALITIES)
    def test_hashed_bytes_are_pinned(self, two_cameras, monkeypatch, modality):
        """The run hashes what it computes: per camera its gates and (10, H, W) class
        logits, then its 2 or 3 (10, cells, cells) grids. A digest of a camera's input
        features or depth logits would add 8 (n_features + n_bins) H W bytes each."""
        hashed, checksum = [], pl.checksum
        monkeypatch.setattr(pl, "checksum",
                            lambda arr: hashed.append(np.asarray(arr).size * 8) or checksum(arr))
        run_pipeline(two_cameras, PipelineConfig(**SMALL, modality=modality, sequential=True))
        n_features, h, w = sc.load_scene(two_cameras).features[0].shape
        grids = 3 if modality == "camera+radar" else 2
        assert sum(hashed) == 8 * (2 * (n_features + pl.N_CLASSES * h * w)
                                   + grids * pl.N_CLASSES * SMALL["bev_cells"] ** 2)

    def test_losses_take_oracle_heatmap_and_greedy_pairs(self, scene_dir):
        """detection_loss gets the per-box GT heatmap and the 2 m greedy pairs, class by class."""
        cfg = PipelineConfig(**SMALL)
        bundles, calls = [], []
        load, loss = pl.load_scene, fu.detection_loss
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pl, "load_scene", lambda d: bundles.append(load(d)) or bundles[-1])
            mp.setattr(fu, "detection_loss", lambda *a: calls.append(a) or loss(*a))
            report, preds = run_pipeline(scene_dir, cfg)
        (_, gt_hm, pairs_p, pairs_g), = calls
        preds, gts = preds["sample-0"], bundles[0].gt_boxes["sample-0"]
        np.testing.assert_array_equal(gt_hm, gt_heatmap_oracle(gts, cfg.bev_grid))
        assert gt_hm.sum() > 0
        want = []
        for ci in range(pl.N_CLASSES):
            cls_p = [p for p in preds if p.class_id == ci]
            cls_g = [g for g in gts if g.class_id == ci]
            order, assigned = greedy_match_oracle(cls_p, cls_g, pl.me.TP_THRESHOLD)
            want += [(cls_p[i], cls_g[assigned[i]]) for i in order if i in assigned]
        assert want and len(pairs_p) == len(pairs_g) == len(want)
        assert list(pairs_p) == [p for p, _ in want] and list(pairs_g) == [g for _, g in want]
        assert report.losses["l_bbox"] > 0

    def test_matches_are_the_per_match_q_lookup(self, scene_dir):
        """report.gated_cells lists the gate's cells as flat ids, in gate order, and the q
        conv reads each one's q grid column, (cell centre, 0, 0)."""
        cfg = PipelineConfig(**SMALL)
        seen, convs, match, conv = [], [], fu.match_radar_to_heatmap, pl.conv_pointwise
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fu, "match_radar_to_heatmap", lambda *a: seen.append(match(*a)) or seen[-1])
            mp.setattr(pl, "conv_pointwise", lambda *a: convs.append(a[0]) or conv(*a))
            report, _ = run_pipeline(scene_dir, cfg)
        (matched,) = seen
        assert len(matched) > 1 and report.gated_cells == matched.tolist()
        payload = report.to_dict()
        assert payload["gated_cells"] == report.gated_cells and "matches" not in payload
        iy, ix = np.divmod(matched, cfg.bev_cells)
        q_grid = np.zeros((4, cfg.bev_cells, cfg.bev_cells))
        q_grid[:2, iy, ix] = cfg.bev_grid.cell_center(ix, iy).T
        np.testing.assert_array_equal(convs[-1][:, 0], q_grid[:, iy, ix])

    @staticmethod
    def count_box_objects(fn, *args):
        """fn(*args) and the number of DetectionBox objects it built."""
        built, init = [], fu.DetectionBox.__post_init__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fu.DetectionBox, "__post_init__", lambda b: built.append(b) or init(b))
            out = fn(*args)
        return out, len(built)

    def test_no_prediction_box_objects_on_the_op_path(self, scene_dir):
        """A camera+radar run builds no DetectionBox, for predictions or ground truth."""
        n_gt = len(sc.load_scene(scene_dir).gt_boxes["sample-0"])
        (report, preds), built = self.count_box_objects(
            run_pipeline, scene_dir, PipelineConfig(**SMALL))
        assert report.fusion_stats["n_matches"] > 0 and len(preds["sample-0"]) > n_gt > 0
        assert built == 0

    def test_only_decoded_and_loaded_box_sets_are_checked(self, scene_dir):
        """take and concat build unchecked sets: a run checks its decoded peaks and its GT."""
        checked, init = [], fu.BoxSet.__post_init__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fu.BoxSet, "__post_init__", lambda b: checked.append(b) or init(b))
            report, preds = run_pipeline(scene_dir, PipelineConfig(**SMALL))
        assert report.losses["l_bbox"] > 0
        assert len(checked) == 2 and checked[1] is preds["sample-0"]

    def test_no_box_objects_evaluating_boxes_files(self, scene_dir, tmp_path):
        """load_boxes on a predictions and a ground-truth file, then evaluate_detections."""
        _, preds = run_pipeline(scene_dir, PipelineConfig(**SMALL))
        pl.me.save_boxes(tmp_path / "predictions.json", preds)

        def evaluate(pred_path, gt_path):
            return pl.me.evaluate_detections(pl.me.load_boxes(pred_path),
                                             pl.me.load_boxes(gt_path))
        summary, built = self.count_box_objects(
            evaluate, tmp_path / "predictions.json", scene_dir / "gt_boxes.json")
        assert summary.mean_ap > 0 and built == 0

    def test_gt_heatmap_matches_box_loop(self):
        grid = vp.BEVGridConfig((-3.0, 5.0), (-2.0, 2.5), 8, 5)
        rng = np.random.default_rng(31)
        edges = [(-3.0, -2.0), (-3.0, 0.1), (0.1, -2.0), (5.0, 0.0), (0.0, 2.5), (5.0, 2.5),
                 (4.999999, 2.499999), (-3.000001, 0.0), (1e300, 0.0), (0.0, -1e300)]
        for trial in range(20):
            centers = rng.uniform((-4.0, -3.0), (6.0, 3.5), (int(rng.integers(0, 30)), 2))
            if trial % 2:
                centers = np.vstack([centers, edges])
            boxes = [fu.DetectionBox(center=(x, y, 0.5), size=(1.0, 1.0, 1.0), yaw=0.0,
                                     velocity=(0.0, 0.0), class_id=int(rng.integers(10)),
                                     score=0.0) for x, y in centers.tolist()]
            np.testing.assert_array_equal(pl._gt_heatmap(fu.BoxSet.from_boxes(boxes), grid),
                                          gt_heatmap_oracle(boxes, grid))

    def test_weights_reproducible(self, scene_dir):
        cfg = PipelineConfig(**SMALL, sequential=True)
        a = PipelineWeights.create(cfg, 16)
        b = PipelineWeights.create(cfg, 16)
        np.testing.assert_array_equal(a.head_kernel, b.head_kernel)
        np.testing.assert_array_equal(a.depthnet.split_kernel, b.depthnet.split_kernel)


class TestHeadFirstDepthNet:
    """The run's depth net emits class logits: no n_context-wide array, no q grid."""

    def test_run_builds_no_context_rows_and_no_q_grid(self, scene_dir):
        cfg = PipelineConfig(**SMALL, sequential=True)
        splits, convs = [], []
        split_conv, conv = pl.kan.conv_pointwise, pl.conv_pointwise
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pl.kan, "conv_pointwise",
                       lambda *a: splits.append(split_conv(*a)) or splits[-1])
            mp.setattr(pl, "conv_pointwise", lambda *a: convs.append(a[0]) or conv(*a))
            report, _ = run_pipeline(scene_dir, cfg)
        assert cfg.modality == "camera+radar" and cfg.n_context == 12
        assert report.fusion_stats["n_matches"] > 0
        assert splits and all(len(s) == cfg.n_depth_bins + pl.N_CLASSES for s in splits)
        # the radar projection and the q term each convolve only their cells
        assert [x.shape for x in convs] == [(cfg.radar_channels, 1, report.pillars["kept"]),
                                            (4, 1, report.fusion_stats["n_matches"])]

    @pytest.mark.parametrize("n_context", [3, 12])
    def test_folded_split_against_the_unfolded_net(self, n_context):
        cfg = PipelineConfig(**{**SMALL, "n_context": n_context})
        weights = PipelineWeights.create(cfg, 16)
        net, head = weights.depthnet, weights.head_kernel
        folded = pl._head_first_depthnet(net, head)
        assert folded.n_context == pl.N_CLASSES and folded.kan_layers is net.kan_layers
        rng = np.random.default_rng(57)
        feats = [rng.normal(0.0, 1.0, (16, 8, 22)) for _ in range(2)]
        rigs = yawed_rigs((0.0, 120.0))
        d, b_ctx = cfg.n_depth_bins, net.split_bias[cfg.n_depth_bins:]
        assert np.all(b_ctx != 0)
        bare = dataclasses.replace(net, split_bias=np.r_[net.split_bias[:d], np.zeros(n_context)])
        want, bare_out, got = (pl.kan.depthnet_forward(feats, rigs, n)
                               for n in (net, bare, folded))
        for i in range(2):
            np.testing.assert_array_equal(got.depth_logits[i], want.depth_logits[i])
            np.testing.assert_array_equal(got.gates[i], want.gates[i])
            logits = np.tensordot(head, bare_out.context[i], 1) + (head @ b_ctx)[:, None, None]
            assert got.context[i].shape == logits.shape == (pl.N_CLASSES, 8, 22)
            assert np.abs(got.context[i] - logits).max() <= 1e-12


def run_recorded(scene, cfg, weights=None):
    """run_pipeline plus what its stages saw.

    seen holds each camera's depth logits (the softmax input, hints added)
    and depth weights, the two grids each fuse_bev_features call summed and
    every sigmoid taken over the BEV grid, in call order.
    """
    seen = {"depth_logits": [], "softmax": [], "fuse": [], "heads": []}

    def record(name, fn, keep_args=False):
        def wrapped(*args):
            out = fn(*args)
            if name != "heads" or out.ndim == 3:  # the head, not the KAN gates
                seen[name].append(args if keep_args else out)
            return out
        return wrapped

    softmax_over_depth = pl.softmax_over_depth

    def softmax(logits):
        seen["depth_logits"].append(logits.copy())
        return softmax_over_depth(logits)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pl, "softmax_over_depth", record("softmax", softmax))
        mp.setattr(pl.fu, "fuse_bev_features",
                   record("fuse", pl.fu.fuse_bev_features, keep_args=True))
        mp.setattr(pl.kan, "sigmoid", record("heads", pl.kan.sigmoid))
        report, preds = run_pipeline(scene, cfg, weights)
    return report, preds, seen


def pitched_forward_camera(angle):
    """The forward camera turned by angle about its camera x axis."""
    level, c, s = sc.forward_camera(), math.cos(angle), math.sin(angle)
    tilt = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return geo.CameraRig(level.intrinsics, tilt @ level.rotation, tilt @ level.translation,
                         level.image_size)


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


@pytest.fixture(scope="module")
def yawed_scene(tmp_path_factory):
    """A 3-camera bundle, rigs yawed 0/120/240 degrees."""
    spec = default_scene_spec(seed=5, n_objects=8, n_cameras=3, feature_shape=(16, 8, 22),
                              radar_density=1200, lidar_density=4000)
    spec.cameras = yawed_rigs((0.0, 120.0, 240.0))
    return generate_scene(spec, tmp_path_factory.mktemp("cams") / "scene")


class TestPerCameraPooling:
    @pytest.fixture(scope="class")
    def three_cameras(self, yawed_scene):
        """The 3-camera run with what its stages saw."""
        cfg = PipelineConfig(**SMALL, sequential=True)
        weights = PipelineWeights.create(cfg, 16)
        report, _, seen = run_recorded(yawed_scene, cfg, weights)
        bundle = sc.load_scene(yawed_scene)
        frustum = geo.FrustumGrid.regular((8, 22), cfg.depth_bins.centers())
        positions = [geo.unproject_frustum(rig.scaled(8 / 256, 22 / 704), frustum)
                     for rig in bundle.cameras]
        return cfg, weights, report, seen, positions

    def test_camera_sum_matches_stacked_pool(self, three_cameras, yawed_scene):
        cfg, weights, _, seen, positions = three_cameras
        camera_logits, _ = seen["fuse"][0]
        bundle = sc.load_scene(yawed_scene)
        contexts = pl.kan.depthnet_forward(bundle.features, bundle.cameras,
                                           weights.depthnet).context
        p_depths = seen["softmax"]
        assert len(positions) == len(contexts) == len(p_depths) == 3
        kernel, head = weights.refine_kernel, weights.head_kernel
        # the oracle builds the plain lift and its refinement apart, over the
        # n_context channels; the pipeline splats both at once, in class logits
        want = np.tensordot(head, np.add(*lift_refine_pool(positions, contexts, p_depths,
                                                           kernel, cfg.bev_grid)), 1)
        assert np.abs(camera_logits - want).max() <= 1e-9
        # every camera adds cells the others leave empty, so a dropped camera would show
        for k in range(3):
            others = np.add(*lift_refine_pool(*(v[:k] + v[k + 1:] for v in
                                                (positions, contexts, p_depths)),
                                              kernel, cfg.bev_grid))
            assert np.abs(camera_logits - np.tensordot(head, others, 1)).max() > 1e-3

    def test_each_camera_equals_its_own_run(self, three_cameras, yawed_scene, tmp_path):
        """Camera k of the 3-camera run gives what a bundle of camera k alone gives, so
        nothing one camera leaves behind reaches the next; splat only adds into
        logits_camera, so the cameras' grids sum to it in camera order, bit for bit."""
        cfg, weights, report, seen, _ = three_cameras
        manifest = json.loads((yawed_scene / "scene.json").read_text())
        camera_sum, bce = np.zeros((pl.N_CLASSES, cfg.bev_cells, cfg.bev_cells)), []
        for k in range(3):
            alone = tmp_path / f"cam{k}"
            shutil.copytree(yawed_scene, alone)
            files = {**manifest["files"], "features": [manifest["files"]["features"][k]]}
            (alone / "scene.json").write_text(json.dumps(
                {**manifest, "cameras": [manifest["cameras"][k]], "files": files}))
            single, _, single_seen = run_recorded(alone, cfg, weights)
            for key in ("gates", "class_logits"):
                assert single.checksums[f"{key}_cam0"] == report.checksums[f"{key}_cam{k}"]
            assert np.array_equal(single_seen["depth_logits"][0], seen["depth_logits"][k])
            for key in ("supervision", "frustum"):
                assert (single.dropped_points[f"{key}_cam0"]
                        == report.dropped_points[f"{key}_cam{k}"])
            camera_sum += single_seen["fuse"][0][0]
            bce.append(single.losses["depth_bce"])
        assert np.array_equal(seen["fuse"][0][0], camera_sum)
        assert report.losses["depth_bce"] == np.mean(bce)

    def test_frustum_drops_reported(self, three_cameras):
        cfg, _, report, _, positions = three_cameras
        for k, pts in enumerate(positions):
            inside, _ = cfg.bev_grid.cell_ids(pts)
            assert 0 < report.dropped_points[f"frustum_cam{k}"] == int((~inside).sum())

    def test_pitched_camera_splats_all_rows(self, tmp_path):
        """Every gen rig is level, so splat's all-rows path runs here: beside a level camera,
        one pitched about its camera x axis, whose rows reach cells row 0 does not."""
        spec = default_scene_spec(seed=5, n_objects=8, n_cameras=2, feature_shape=(16, 8, 22),
                                  radar_density=1200, lidar_density=4000)
        spec.cameras = [sc.forward_camera(), pitched_forward_camera(0.1)]
        scene = generate_scene(spec, tmp_path / "scene")
        cfg = PipelineConfig(**SMALL, sequential=True)
        weights = PipelineWeights.create(cfg, 16)
        report, _, seen = run_recorded(scene, cfg, weights)
        depths = cfg.depth_bins.centers()
        rigs = [rig.scaled(8 / 256, 22 / 704) for rig in sc.load_scene(scene).cameras]
        assert [geo.rows_alike(rig, 8, depths) for rig in rigs] == [True, False]
        frustum = geo.FrustumGrid.regular((8, 22), depths)
        positions = [geo.unproject_frustum(rig, frustum) for rig in rigs]
        contexts = pl.kan.depthnet_forward(sc.load_scene(scene).features, spec.cameras,
                                           weights.depthnet).context
        want = np.tensordot(weights.head_kernel, np.add(*lift_refine_pool(
            positions, contexts, seen["softmax"], weights.refine_kernel, cfg.bev_grid)), 1)
        assert np.abs(seen["fuse"][0][0] - want).max() <= 1e-9
        inside = cfg.bev_grid.cell_ids(positions[1])[0].reshape(len(depths), 8, 22)
        assert report.dropped_points["frustum_cam1"] == int((~inside).sum())
        assert int((~inside).sum()) != 8 * int((~inside[:, 0]).sum())  # row 0 would miscount

    def test_level_camera_voxelpool_memory(self, tmp_path, monkeypatch):
        """One default-config camera at the cam6 feature shape (16x44, 112 bins): each
        entry of its voxelpool stage (row-0 unproject, then its one row group's splat)
        peaks below three all-rows (D*H*W, 3) position arrays, which unprojecting all
        rows exceeds."""
        spec = default_scene_spec(seed=3, n_objects=4, radar_density=200, lidar_density=2000)
        scene = generate_scene(spec, tmp_path / "scene")
        peaks = stage_peaks(monkeypatch, "voxelpool")
        cfg = PipelineConfig(modality="camera")
        report, _ = run_pipeline(scene, cfg)
        _, h, w = spec.feature_shape
        positions_bytes = cfg.n_depth_bins * h * w * 3 * 8
        assert (h, w, positions_bytes) == (16, 44, 1_892_352)
        assert 0 < report.dropped_points["frustum_cam0"] < cfg.n_depth_bins * h * w
        assert len(peaks) == 2 and max(peaks) < 3 * positions_bytes

    def test_pitched_camera_stage_memory(self, tmp_path, monkeypatch):
        """One default-config camera pitched 0.1 rad, at the cam6 feature shape: it takes
        one row group per image row, lifted and splatted four rows per pass, and every
        entry of its lift and voxelpool stages peaks below three all-rows (D*H*W, 3)
        position arrays. The whole (C, D, H, W) class lift alone would not."""
        spec = default_scene_spec(seed=3, n_objects=4, radar_density=200, lidar_density=2000)
        spec.cameras = [pitched_forward_camera(0.1)]
        scene = generate_scene(spec, tmp_path / "scene")
        cfg = PipelineConfig(modality="camera")
        _, h, w = spec.feature_shape
        positions_bytes = cfg.n_depth_bins * h * w * 3 * 8
        assert (h, w, 3 * positions_bytes) == (16, 44, 5_677_056)
        assert pl.N_CLASSES * cfg.n_depth_bins * h * w * 8 > 3 * positions_bytes
        assert not geo.rows_alike(spec.cameras[0].scaled(h / 256, w / 704), h,
                                  cfg.depth_bins.centers())
        passes = h // (3 * h // pl.N_CLASSES)
        assert passes == 4
        for name, entries in (("lift", passes), ("voxelpool", 1 + passes)):
            with monkeypatch.context() as patch:
                peaks = stage_peaks(patch, name)
                run_pipeline(scene, cfg)
            assert len(peaks) == entries and max(peaks) < 3 * positions_bytes, name


class TestMetamorphic:
    """Relations between whole runs that hold whatever the stages do inside."""

    # a mispairing of contexts and rigs survives a permutation it commutes with,
    # and none but the identity commutes with both a 3-cycle and a swap
    @pytest.mark.parametrize("order", [[2, 0, 1], [1, 0, 2]], ids=["cycle", "swap"])
    def test_camera_order_does_not_matter(self, tmp_path, order):
        spec = default_scene_spec(seed=5, n_objects=8, n_cameras=3, feature_shape=(16, 8, 22),
                                  radar_density=1200, lidar_density=4000)
        spec.cameras = yawed_rigs((0.0, 120.0, 240.0))
        scene = generate_scene(spec, tmp_path / "scene")
        permuted = tmp_path / "permuted"
        shutil.copytree(scene, permuted)
        manifest = json.loads((permuted / "scene.json").read_text())
        # camera i of the permuted bundle is camera order[i]
        manifest["cameras"] = [manifest["cameras"][k] for k in order]
        manifest["files"]["features"] = [manifest["files"]["features"][k] for k in order]
        (permuted / "scene.json").write_text(json.dumps(manifest))
        cfg = PipelineConfig(**SMALL, sequential=True)
        (a, preds_a, seen_a), (b, preds_b, seen_b) = (run_recorded(d, cfg)
                                                      for d in (scene, permuted))
        # each camera keeps its own rig, class logits and depth
        for i, k in enumerate(order):
            for key in ("gates", "class_logits"):
                assert a.checksums[f"{key}_cam{k}"] == b.checksums[f"{key}_cam{i}"]
            assert np.array_equal(seen_a["depth_logits"][k], seen_b["depth_logits"][i])
            for key in ("supervision", "frustum"):
                assert a.dropped_points[f"{key}_cam{k}"] == b.dropped_points[f"{key}_cam{i}"]
        # per-camera sums reassociate, so scores and losses may move in the last bits
        boxes_a, boxes_b = (sorted(p["sample-0"], key=lambda x: (x.class_id, x.center))
                            for p in (preds_a, preds_b))
        assert len(boxes_a) == len(boxes_b) > 0
        assert ([(x.class_id, x.center) for x in boxes_a]
                == [(x.class_id, x.center) for x in boxes_b])
        np.testing.assert_allclose([x.score for x in boxes_a], [x.score for x in boxes_b],
                                   rtol=0, atol=1e-12)
        assert a.losses.keys() == b.losses.keys()
        for key, value in a.losses.items():
            assert abs(value - b.losses[key]) <= 1e-12, key
        assert a.fusion_stats == b.fusion_stats
        assert a.eval_summary.nds == b.eval_summary.nds

    def test_empty_radar_equals_camera_only(self, scene_dir, tmp_path):
        quiet = tmp_path / "scene"
        shutil.copytree(scene_dir, quiet)
        pl.pi.write_pc4d(quiet / "radar.pc4d", np.zeros((0, 4)))
        runs = {}
        for modality in ("camera", "camera+radar"):
            report, preds = run_pipeline(quiet, PipelineConfig(**SMALL, modality=modality,
                                                               sequential=True))
            save_run_outputs(tmp_path / modality, report, preds)
            runs[modality] = report
        cam, fused = runs["camera"], runs["camera+radar"]
        assert fused.pillars == {"points_in_range": 0, "kept": 0, "truncated": 0}
        assert ((tmp_path / "camera" / "predictions.json").read_bytes()
                == (tmp_path / "camera+radar" / "predictions.json").read_bytes())
        assert cam.losses == fused.losses
        assert cam.fusion_stats == fused.fusion_stats
        assert cam.gated_cells == fused.gated_cells == []
        radar_only = {"logits_radar"}
        assert set(fused.checksums) - set(cam.checksums) == radar_only
        assert cam.checksums == {k: v for k, v in fused.checksums.items()
                                 if k not in radar_only}
        assert cam.dropped_points == fused.dropped_points
        evals = [r.eval_summary.to_dict() for r in (cam, fused)]
        for e in evals:
            e.pop("eval_time")
        assert evals[0] == evals[1]


    def test_raising_peak_threshold_keeps_a_prefix(self, scene_dir):
        # peaks are ranked by descending score, and the threshold only cuts that ranking
        cfg = PipelineConfig(**SMALL, peak_threshold=0.6, sequential=True)
        (_, preds), (_, raised) = (run_pipeline(scene_dir, dataclasses.replace(cfg, **kw))
                                   for kw in ({}, {"peak_threshold": 0.7}))
        preds, raised = preds["sample-0"], raised["sample-0"]
        assert 0 < len(raised) < len(preds)
        for f in dataclasses.fields(fu.BoxSet):
            assert np.array_equal(getattr(raised, f.name),
                                  getattr(preds, f.name)[:len(raised)]), f.name

    def test_raising_gate_threshold_keeps_a_subset_of_gated_cells(self, scene_dir):
        gated = [run_pipeline(scene_dir, PipelineConfig(
                     **SMALL, heatmap_score_thresh=t, sequential=True))[0].gated_cells
                 for t in (0.5, 0.6, 0.7, 0.9)]
        for loose, strict in zip(gated, gated[1:]):
            assert 0 < len(strict) < len(loose)
            assert strict == [cell for cell in loose if cell in strict]

    def test_zero_radar_hint_gives_camera_only_depth_logits(self, scene_dir):
        cam, _, cam_seen = run_recorded(scene_dir, PipelineConfig(**SMALL, modality="camera",
                                                                  sequential=True))
        unhinted, _, unhinted_seen = run_recorded(scene_dir, PipelineConfig(
            **SMALL, radar_hint_strength=0.0, sequential=True))
        assert len(cam_seen["depth_logits"]) == len(unhinted_seen["depth_logits"]) > 0
        for want, got in zip(cam_seen["depth_logits"], unhinted_seen["depth_logits"]):
            assert np.array_equal(got, want)
        assert unhinted.losses["depth_bce"] == cam.losses["depth_bce"]


class TestPipelineConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = PipelineConfig(d_min=1.5, d_max=40.0, n_depth_bins=24, n_context=12,
                             kan_hidden=(16, 8), bev_range=32.0, bev_cells=64,
                             pillar_max_points=10, pillar_max_pillars=100, radar_channels=8,
                             heatmap_score_thresh=0.4, peak_threshold=0.7, radar_hint_strength=1.0, weight_seed=11,
                             modality="camera", sequential=True)
        default = PipelineConfig()
        assert set(CONFIG_KEYS) == {f.name for f in dataclasses.fields(PipelineConfig)}
        for f in dataclasses.fields(PipelineConfig):
            # "reference" is the only pooling value
            if f.name != "pooling":
                assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        assert json.loads(path.read_text())["bev"] == {"range": 32.0, "cells": 64}
        back = PipelineConfig.from_json(path)
        assert back == cfg

    def test_file_layout_and_defaults(self):
        # every (section, key) and default as written; dumping both pins the JSON types too
        layout = {
            "depth": {"d_min": 2.0, "d_max": 58.0, "n_bins": 112, "n_context": 80,
                      "kan_hidden": [64]},
            "bev": {"range": 51.2, "cells": 128},
            "pillars": {"max_points": 20, "max_pillars": 4096, "channels": 32},
            "fusion": {"heatmap_score_thresh": 0.55, "peak_threshold": 0.6,
                       "radar_hint_strength": 2.0},
            "run": {"weight_seed": 7, "pooling": "reference", "modality": "camera+radar",
                    "sequential": False},
        }
        assert sum(map(len, layout.values())) == 17
        assert (json.dumps(PipelineConfig().to_dict(), sort_keys=True)
                == json.dumps(layout, sort_keys=True))

    @pytest.mark.parametrize("kwargs", [{}, SMALL, {"bev_range": 10.0, "bev_cells": 3}])
    def test_pillar_grid_is_the_bev_grid(self, kwargs):
        cfg = PipelineConfig(**kwargs)
        assert cfg.pillar_grid.bev == cfg.bev_grid

    def test_default_pooling_is_reference(self):
        assert PipelineConfig().pooling == "reference"

    def test_older_files_load(self):
        # a key that older versions wrote is an unknown key now, even at the value they wrote
        with pytest.raises(ValueError, match="pooling"):
            PipelineConfig.from_dict({"run": {"pooling": "cumsum"}})
        for section, key, value in (("run", "average_pool", False), ("run", "workers", 4),
                                    ("fusion", "n_classes", 10),
                                    ("fusion", "match_iou_thresh", 0.01)):
            with pytest.raises(ValueError,
                               match=f"^unknown config section '{section}' key '{key}'$"):
                PipelineConfig.from_dict({section: {key: value}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="^unknown config section 'run' key 'poolng'$"):
            PipelineConfig.from_dict({"run": {"poolng": "reference"}})
        with pytest.raises(ValueError, match="^unknown config key 'bevv'$"):
            PipelineConfig.from_dict({"bevv": {"cells": 4}})

    def test_non_object_section_rejected(self):
        with pytest.raises(ValueError, match="'bev' must be a JSON object"):
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
        ("heatmap_score_thresh", -0.1), ("peak_threshold", 1.5), ("radar_hint_strength", float("inf")),
        ("radar_hint_strength", -1.0), ("weight_seed", -1), ("weight_seed", False),
        ("pooling", ["reference"]), ("pooling", "cumsum"), ("modality", None),
        ("sequential", "no"), ("sequential", 1),
        ("weight_seed", np.int64(7)), ("d_min", np.float32(2.0)),
        *(pytest.param(field, 10**400, id=f"{field}-huge-int") for field in (
            "bev_range", "d_max", "radar_hint_strength", "bev_cells", "pillar_max_points")),
        pytest.param("weight_seed", 2**63, id="weight_seed-2**63"),
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


_GRID = np.random.default_rng(3).normal(0.0, 1.0, (4, 5, 6))


@pytest.mark.parametrize("arr", [_GRID, np.asfortranarray(_GRID), _GRID.astype(np.float32),
                                 _GRID[:, ::2, 1:]],
                         ids=["c_order", "fortran_order", "float32", "strided_view"])
def test_checksum_is_sha256_of_float64_c_bytes(arr):
    expect = hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()
    assert checksum(arr) == expect


class TestDecodePeaks:
    @staticmethod
    def heatmaps():
        """(heatmap, threshold): seeded maps, few-level maps with plateaus and ties, thin grids."""
        rng = np.random.default_rng(31)
        for case in range(24):
            n_classes = int(rng.integers(1, 11))
            ny, nx = (int(v) for v in rng.integers(1, 13, 2))
            hm = rng.uniform(0.0, 1.0, (n_classes, ny, nx))
            if case % 2:  # a few levels: equal neighbours and equal scores across cells
                hm = np.round(hm * 3) / 3
            yield hm, float(rng.choice([0.0, 0.3, 0.6]))
        yield np.full((10, 1, 1), 0.7), 0.6
        yield rng.uniform(0.0, 1.0, (3, 1, 9)), 0.2
        yield np.round(rng.uniform(0.0, 1.0, (3, 9, 1)) * 2) / 2, 0.0
        yield np.full((2, 4, 5), 0.5), 0.5  # one plateau: every cell is a peak

    def test_matches_loop_oracle(self):
        for hm, thr in self.heatmaps():
            _, ny, nx = hm.shape
            grid = vp.BEVGridConfig((-3.0, 5.0), (-2.0, 7.0), nx, ny)
            got = list(pl._decode_peaks(hm, grid, thr))
            assert got == decode_peaks_oracle(hm, grid, thr)
            assert [b.score for b in got] == sorted((b.score for b in got), reverse=True)

    def test_allocation_budget(self):
        # the padded copy and the row pass, then the row pass and the 3x3 max, all
        # released before the ~18,000 boxes of a random grid are built
        hm = np.random.default_rng(33).uniform(0.0, 1.0, (10, 128, 128))
        grid = vp.BEVGridConfig((-51.2, 51.2), (-51.2, 51.2), 128, 128)
        tracemalloc.start()
        try:
            boxes = pl._decode_peaks(hm, grid, 0.6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(boxes) > 10_000
        assert peak <= 3.5 * hm.nbytes

    def test_threshold_above_maximum_gives_no_boxes(self):
        hm = np.random.default_rng(32).uniform(0.0, 0.9, (10, 6, 7))
        grid = vp.BEVGridConfig((-3.0, 3.0), (-3.0, 3.0), 7, 6)
        assert len(pl._decode_peaks(hm, grid, 0.95)) == 0
        assert decode_peaks_oracle(hm, grid, 0.95) == []
