"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single summary line on success; a failed assertion is
the corresponding criterion failing. Budgeted criteria also assert their
wall-clock limits.
"""

import time

import numpy as np
from oracles import (
    ap_oracle,
    finite_diff_jacobian,
    greedy_match_oracle,
    naive_cox_de_boor,
    rasterize_min_oracle,
    rel_err,
    tp_errors_oracle,
)

from bevkit import geometry as geo
from bevkit import kan
from bevkit import metrics as me
from bevkit import pillars as pi
from bevkit import tables
from bevkit import voxelpool as vp
from bevkit.cli import main as cli_main
from bevkit.fusion import DetectionBox
from bevkit.nnprims import lift_outer_product, softmax_over_depth
from bevkit.pipeline import PipelineConfig, run_pipeline
from bevkit.scene import SceneObject, SceneSpec, forward_camera, generate_scene


def _report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def test_c01_table_arithmetic_reproduction():
    start = time.perf_counter()
    checks = tables.check_tables()
    elapsed = time.perf_counter() - start
    by_name = {c.name: c for c in checks}

    named = {
        "radar_camera_fusion/NDS": 0.4845,
        "bevdepth_baseline/NDS": 0.4150,
        "radar_camera_fusion/mAP": 0.3891,
        "radar_camera_fusion/mTE": 0.6044,
        "radar_camera_fusion/mSE": 0.2780,
        "radar_camera_fusion/mOE": 0.5830,
        "radar_camera_fusion/mVE": 0.4244,
        "radar_camera_fusion/mAE": 0.2129,
        "radar_camera_fusion/trailer/mean_ap": 0.206,
        "radar_camera_fusion/construction_vehicle/mean_ap": 0.131,
    }
    for name, expected in named.items():
        cell = by_name[name]
        assert cell.expected == expected
        assert abs(cell.computed - cell.expected) <= 5e-4 + 1e-9, name

    # every cell: half-digit tolerance except the one ledgered source-rounding
    # artifact, which must still satisfy the rounded-input bound
    for cell in checks:
        assert cell.ok, f"{cell.name}: {cell.computed} vs {cell.expected}"
    exception = by_name["bevdepth_baseline/truck/mean_ap"]
    assert 5e-4 < abs(exception.computed - exception.expected) <= 1e-3

    assert elapsed < 1.0
    _report(1, f"{len(checks)} reference-table cells reproduced in {elapsed:.3f}s")


def test_c02_pooling_equivalence_200_instances():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_cumsum = worst_conc = worst_mass = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 10_001))
        c = int(rng.integers(1, 65))
        nx, ny = (int(v) for v in rng.integers(4, 48, 2))
        extent = float(rng.uniform(5.0, 60.0))
        cfg = vp.BEVGridConfig((-extent, extent), (-extent, extent), nx, ny)
        pts = vp.FeaturedPoints(rng.uniform(-extent * 1.1, extent * 1.1, (m, 3)),
                                rng.normal(0.0, 1.0, (m, c)))
        ref = vp.pool_reference(pts, cfg)
        worst_cumsum = max(worst_cumsum,
                           float(np.abs(vp.pool_cumsum(pts, cfg).data - ref.data).max()))
        conc = vp.pool_concurrent(pts, cfg, workers=8)
        worst_conc = max(worst_conc, float(np.abs(conc.data - ref.data).max()))
        inside, _ = vp.cell_ids(pts, cfg)
        expected_mass = pts.features[inside].sum(axis=0)
        worst_mass = max(worst_mass,
                         float(np.abs(ref.data.sum(axis=(1, 2)) - expected_mass).max()),
                         float(np.abs(conc.data.sum(axis=(1, 2)) - expected_mass).max()))
    elapsed = time.perf_counter() - start
    assert worst_cumsum < 1e-9
    assert worst_conc < 1e-6
    assert worst_mass < 1e-6
    assert elapsed < 30.0
    _report(2, f"200 instances: |cumsum-ref| {worst_cumsum:.2e}, "
               f"|concurrent-ref| {worst_conc:.2e} in {elapsed:.1f}s")


def test_c03_kan_gradient_check():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng([3000, seed])
        layer = kan.KanLayer.random(rng, 6, 5)
        x = rng.uniform(-0.9, 0.9, 6)
        jac = kan.kan_layer_jacobian(layer, x)
        fd = finite_diff_jacobian(lambda z: kan.kan_layer_forward(layer, z), x, h=1e-6)
        worst = max(worst, float(rel_err(jac, fd).max()))

        params = kan.DepthNetParams.random(rng, n_features=4, n_depth_bins=3,
                                           n_context=2, hidden=(8,))
        rig = forward_camera(image_size=(8, 8))
        shape = (4, 1, 3)
        jac2 = kan.depthnet_input_jacobian(params, rig, shape)

        def f(flat):
            out = kan.depthnet_forward([flat.reshape(shape)], [rig], params)
            return np.concatenate([out.depth_logits[0].ravel(), out.context[0].ravel()])

        fd2 = finite_diff_jacobian(f, rng.normal(0.0, 1.0, 12), h=1e-6)
        worst = max(worst, float(rel_err(jac2, fd2).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-5
    assert elapsed < 10.0
    _report(3, f"20 seeded Jacobians, max relative error {worst:.2e} in {elapsed:.1f}s")


def test_c04_spline_correctness():
    rng = np.random.default_rng(4000)
    worst_pu = 0.0
    for degree in (1, 2, 3):
        basis = kan.BSplineBasis(degree=degree, n_intervals=8)
        for x in rng.uniform(-1.0, 1.0, 1000):
            worst_pu = max(worst_pu, abs(kan.bspline_basis_eval(basis, x).sum() - 1.0))
    assert worst_pu < 1e-12

    basis = kan.BSplineBasis(degree=3, n_intervals=8)
    worst_val = 0.0
    for x in rng.uniform(-0.999, 0.999, 200):
        got = kan.bspline_basis_eval(basis, x)
        expect = np.array([naive_cox_de_boor(basis.knots, i, 3, x)
                           for i in range(basis.n_basis)])
        worst_val = max(worst_val, float(np.abs(got - expect).max()))
    assert worst_val < 1e-12
    _report(4, f"partition of unity {worst_pu:.1e}, oracle gap {worst_val:.1e}")


def test_c05_lift_identity_100_shapes():
    rng = np.random.default_rng(5000)
    worst = 0.0
    for _ in range(100):
        c_ctx = int(rng.integers(1, 12))
        c_d = int(rng.integers(2, 20))
        h, w = (int(v) for v in rng.integers(1, 10, 2))
        ctx = rng.normal(0.0, 5.0, (c_ctx, h, w))
        p = softmax_over_depth(rng.normal(0.0, 3.0, (c_d, h, w)))
        lifted = lift_outer_product(ctx, p)
        worst = max(worst, float(np.abs(lifted.sum(axis=1) - ctx).max()))
    assert worst < 1e-12
    _report(5, f"100 lift shapes, max marginal error {worst:.1e}")


def _random_rig(rng, image_size=(48, 64)):
    fx, fy = rng.uniform(50, 300, 2)
    k = np.array([[fx, rng.uniform(-2, 2), rng.uniform(10, 50)],
                  [0.0, fy, rng.uniform(10, 50)], [0.0, 0.0, 1.0]])
    q, _ = np.linalg.qr(rng.normal(0, 1, (3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return geo.CameraRig(k, q.T, rng.normal(0, 1, 3), image_size)


def test_c06_geometry_roundtrip_and_rasterization():
    rng = np.random.default_rng(6000)
    worst_rt = 0.0
    for _ in range(10):
        rig = _random_rig(rng)
        depths = np.sort(rng.uniform(1.0, 60.0, 10))
        frustum = geo.FrustumGrid.regular((10, 10), depths)
        pts = geo.unproject_frustum(rig, frustum)
        proj = geo.project_points(pts, rig)
        back = np.column_stack([proj[:, 0] / proj[:, 2], proj[:, 1] / proj[:, 2],
                                proj[:, 2]])
        worst_rt = max(worst_rt, float(np.abs(back - frustum.samples).max()))
    assert worst_rt < 1e-9

    worst_raster = 0
    for _ in range(3):
        h, w = 24, 32
        n = 1000
        u = rng.uniform(-2, w + 2, n)
        v = rng.uniform(-2, h + 2, n)
        d = rng.uniform(0.5, 50.0, n)
        dm, _ = geo.rasterize_depth_map(np.column_stack([u * d, v * d, d]), (h, w))
        expect = rasterize_min_oracle(u, v, d, (h, w))
        worst_raster = max(worst_raster, int(np.count_nonzero(dm.values != expect)))
    assert worst_raster == 0
    _report(6, f"1000-sample round trips x10 rigs, max error {worst_rt:.1e}; "
               f"rasterization exact")


def test_c07_pillar_oracle_equivalence():
    rng = np.random.default_rng(7000)
    cfg = pi.PillarGridConfig((-10.0, 10.0), (-10.0, 10.0), (10, 10), 6)
    for case in range(100):
        n = int(rng.integers(1, 300))
        pts = np.column_stack([rng.uniform(-11, 11, (n, 2)), rng.normal(0, 1, (n, 1)),
                               rng.uniform(0, 1, (n, 1))])
        cloud = pi.RadarPointCloud(pts)
        tensor = pi.build_pillars(cloud, cfg, seed=case)
        again = pi.build_pillars(cloud, cfg, seed=case)
        np.testing.assert_array_equal(tensor.features, again.features)

        raw = {tuple(np.round(r, 9)) for r in pts}
        for p in range(tensor.features.shape[0]):
            count = tensor.point_counts[p]
            assert count >= 1
            # augmented columns: first four are the (sampled) input points
            for row in tensor.features[p, :count]:
                assert tuple(np.round(row[:4], 9)) in raw
            assert np.all(tensor.features[p, count:] == 0.0)
            # cluster-mean offsets cancel, pillar-center offsets stay in-cell
            assert np.abs(tensor.features[p, :count, 4:7].sum(axis=0)).max() < 1e-12
            assert np.abs(tensor.features[p, :count, 7:9]).max() <= 1.0 + 1e-12

        weights = pi.VfeWeights.random(rng, 5)
        encoded = pi.vfe_forward(tensor, weights)
        for p in range(tensor.features.shape[0]):
            expect = np.full(5, -np.inf)
            for t in range(tensor.point_counts[p]):
                expect = np.maximum(expect, np.maximum(
                    0.0, weights.weight @ tensor.features[p, t] + weights.bias))
            assert np.abs(encoded[p] - expect).max() < 1e-12

        image = pi.scatter_to_pseudo_image(encoded, tensor.pillar_coords, cfg)
        np.testing.assert_array_equal(
            pi.gather_from_pseudo_image(image, tensor.pillar_coords), encoded)
    _report(7, "100 seeded clouds: augment/build/vfe/scatter match their oracles")


def test_c08_metrics_oracles():
    rng = np.random.default_rng(8000)

    def rand_box(score=None):
        return DetectionBox(
            center=(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)), 0.5),
            size=tuple(rng.uniform(0.5, 4.0, 3)), yaw=float(rng.uniform(-np.pi, np.pi)),
            velocity=(float(rng.normal()), float(rng.normal())), class_id=0,
            score=float(rng.uniform()) if score is None else score,
            attribute_id=int(rng.integers(0, 3)))

    for case in range(100):
        preds = [rand_box() for _ in range(int(rng.integers(0, 16)))]
        gts = [rand_box(score=0.0) for _ in range(int(rng.integers(0, 16)))]
        thr = float(rng.choice(me.AP_THRESHOLDS))
        match = me.match_center_distance(preds, gts, thr)
        order, assign = greedy_match_oracle(preds, gts, thr)
        assert match.ranked_pred.tolist() == order
        for rank, pidx in enumerate(order):
            assert match.ranked_gt[rank] == assign.get(pidx, -1)

        got_ap = me.average_precision(match)
        expect_ap = ap_oracle(match.tp_flags.tolist(), match.n_gt)
        assert (got_ap is None) == (expect_ap is None)
        if got_ap is not None:
            assert abs(got_ap - expect_ap) < 1e-12

        pairs = [(preds[int(pi_)], gts[int(gi)])
                 for pi_, gi in zip(match.ranked_pred, match.ranked_gt) if gi >= 0]
        if pairs:
            got_tp = me.tp_errors(pairs)
            expect_tp = tp_errors_oracle(pairs)
            for name in expect_tp:
                assert abs(got_tp[name] - expect_tp[name]) < 1e-10

    for _ in range(1000):
        m = float(rng.uniform(0, 0.99))
        tps = rng.uniform(0, 2, 5).tolist()
        base = me.compose_nds(m, tps)
        assert me.compose_nds(min(1.0, m + 0.01), tps) > base
        i = int(rng.integers(0, 5))
        bumped = list(tps)
        bumped[i] += 0.05
        if tps[i] + 0.05 < 1.0:
            assert me.compose_nds(m, bumped) < base
        elif tps[i] > 1.0:
            assert me.compose_nds(m, bumped) == base
    _report(8, "100 matching/AP/TP-error cases match oracles; NDS monotone on 1000 inputs")


def _ablation_scene(seed, out_dir):
    """Near objects for lidar, far objects only radar can reach."""
    rng = np.random.default_rng([9000, seed])
    objects = []
    for i in range(4):
        objects.append(SceneObject(
            class_name="car", center=(float(rng.uniform(8, 18)),
                                      float(rng.uniform(-10, 10)), 0.85),
            size=(1.9, 4.6, 1.7), yaw=float(rng.uniform(-np.pi, np.pi)),
            velocity=(0.0, 0.0), attribute="vehicle.moving"))
    for i in range(6):
        objects.append(SceneObject(
            class_name="truck", center=(float(rng.uniform(28, 48)),
                                        float(rng.uniform(-14, 14)), 1.4),
            size=(2.5, 7.0, 2.8), yaw=float(rng.uniform(-np.pi, np.pi)),
            velocity=(0.0, 0.0), attribute="vehicle.moving"))
    spec = SceneSpec(
        seed=seed, cameras=[forward_camera()],
        ego_trajectory=[geo.EgoPose.identity()], objects=objects,
        radar_density=2500.0, lidar_density=5000.0,
        radar_max_range=55.0, lidar_max_range=22.0,
        feature_shape=(16, 8, 22),
    )
    return generate_scene(spec, out_dir)


def _coverage_ratio(scene_dir, feature_hw):
    """Share of lidar-uncovered feature pixels that radar supervises."""
    from bevkit.scene import load_scene

    bundle = load_scene(scene_dir)
    rig = bundle.cameras[0]
    frig = rig.scaled(feature_hw[0] / rig.image_size[0],
                      feature_hw[1] / rig.image_size[1])
    lidar_map, _ = geo.depth_map_from_points(bundle.lidar[:, :3], frig, feature_hw)
    radar_map, _ = geo.depth_map_from_points(bundle.radar[:, :3], frig, feature_hw)
    lidar_miss = ~lidar_map.coverage_mask()
    if not lidar_miss.any():
        return 0.0
    return float(np.count_nonzero(radar_map.coverage_mask() & lidar_miss)
                 / np.count_nonzero(lidar_miss))


def test_c09_radar_supervision_ablation(tmp_path):
    start = time.perf_counter()
    cfg_kwargs = dict(n_depth_bins=24, n_context=12, bev_cells=64, bev_range=55.0,
                      kan_hidden=(16,), radar_channels=8, d_max=58.0)
    feature_hw = (8, 22)
    qualifying = 0
    improved = 0
    seed = 0
    while qualifying < 20 and seed < 60:
        scene = _ablation_scene(seed, tmp_path / f"scene{seed}")
        seed += 1
        ratio = _coverage_ratio(scene, feature_hw)
        if ratio < 0.10:
            continue
        qualifying += 1
        cam, _ = run_pipeline(scene, PipelineConfig(**cfg_kwargs, modality="camera",
                                                    sequential=True))
        fused, _ = run_pipeline(scene, PipelineConfig(**cfg_kwargs,
                                                      modality="camera+radar",
                                                      sequential=True))
        if fused.losses["depth_bce"] <= cam.losses["depth_bce"]:
            improved += 1
    elapsed = time.perf_counter() - start
    assert qualifying == 20, f"only {qualifying} scenes met the coverage precondition"
    assert improved >= 18, f"radar helped in only {improved}/20 scenes"
    assert elapsed < 120.0
    _report(9, f"camera+radar depth BCE <= camera-only in {improved}/20 "
               f"qualifying scenes ({elapsed:.0f}s)")


def test_c10_sequential_determinism(tmp_path):
    scene = tmp_path / "scene"
    assert cli_main(["gen", "--out", str(scene), "--seed", "42", "--objects", "6"]) == 0
    cfg_path = tmp_path / "config.json"
    PipelineConfig(n_depth_bins=32, n_context=16, bev_cells=64, bev_range=48.0,
                   kan_hidden=(16,), radar_channels=8).to_json(cfg_path)
    for name in ("run1", "run2"):
        rc = cli_main(["run", "--scene", str(scene), "--out", str(tmp_path / name),
                       "--config", str(cfg_path), "--sequential"])
        assert rc == 0
    first = (tmp_path / "run1" / "predictions.json").read_bytes()
    second = (tmp_path / "run2" / "predictions.json").read_bytes()
    assert first == second
    _report(10, f"two sequential runs byte-identical ({len(first)} bytes)")
