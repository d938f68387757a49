import tracemalloc

import numpy as np
import pytest
from oracles import brute_force_pool, lift_refine_pool

from bevkit import voxelpool as vp
from bevkit.geometry import CameraRig, FrustumGrid, unproject_frustum
from bevkit.nnprims import DepthBinSpec, refine_taps, softmax_over_depth
from bevkit.pipeline import PipelineConfig, PipelineWeights
from bevkit.scene import forward_camera
from bevkit.voxelpool import (
    BEVGridConfig,
    FeaturedPoints,
    cell_ids,
    pool_concurrent,
    pool_cumsum,
    pool_reference,
    splat,
)


def grid(nx=10, ny=10, extent=5.0):
    return BEVGridConfig((-extent, extent), (-extent, extent), nx, ny)


def random_points(rng, m=1000, c=4, extent=6.0):
    return FeaturedPoints(rng.uniform(-extent, extent, (m, 3)),
                          rng.normal(0, 1, (m, c)))


class TestPoolReference:
    def test_single_point(self):
        pts = FeaturedPoints(np.array([[0.2, 0.3, 0.0]]), np.array([[1.0, 2.0]]))
        out = pool_reference(pts, grid())
        nz = np.nonzero(out.data.sum(axis=0))
        assert len(nz[0]) == 1
        np.testing.assert_array_equal(out.data[:, nz[0][0], nz[1][0]], [1.0, 2.0])

    def test_coincident_points_add(self):
        pts = FeaturedPoints(np.array([[0.2, 0.3, 0.0], [0.2, 0.3, 9.0]]),
                             np.array([[1.0], [2.0]]))
        out = pool_reference(pts, grid())
        assert out.data.sum() == 3.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(61)
        pts = random_points(rng, m=10_000, c=5)
        cfg = grid(nx=12, ny=9)
        out = pool_reference(pts, cfg)
        assert np.abs(out.data - brute_force_pool(pts, cfg)).max() < 1e-12

    def test_boundary_half_open(self):
        cfg = grid(nx=4, ny=4, extent=2.0)
        pts = FeaturedPoints(np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]]),
                             np.ones((2, 1)))
        inside, ids = cell_ids(pts, cfg)
        np.testing.assert_array_equal(inside, [False, True])  # max edge dropped
        np.testing.assert_array_equal(ids, [2 * cfg.nx])  # min edge kept, in column 0
        out = pool_reference(pts, cfg)
        assert out.data.sum() == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(62)
        pts = random_points(rng, m=2000, c=3)
        cfg = grid()
        base = pool_reference(pts, cfg)
        perm = rng.permutation(len(pts))
        shuffled = FeaturedPoints(pts.positions[perm], pts.features[perm])
        assert np.abs(base.data - pool_reference(shuffled, cfg).data).max() < 1e-9


class TestPoolCumsum:
    def test_single_cell_total(self):
        rng = np.random.default_rng(63)
        feats = rng.normal(0, 1, (50, 3))
        pts = FeaturedPoints(np.tile([[0.1, 0.1, 0.0]], (50, 1)), feats)
        out = pool_cumsum(pts, grid())
        np.testing.assert_allclose(out.data.sum(axis=(1, 2)), feats.sum(axis=0))

    def test_empty_input(self):
        out = pool_cumsum(FeaturedPoints(np.zeros((0, 3)), np.zeros((0, 4))), grid())
        assert np.all(out.data == 0.0)

    def test_adversarial_mixed_sign(self):
        rng = np.random.default_rng(64)
        cells = np.array([[0.1, 0.1], [1.2, 0.1], [-3.3, 2.1], [4.4, -4.2],
                          [0.1, -1.4], [-2.2, -2.2], [3.1, 3.9]])
        pick = rng.integers(0, 7, 1000)
        positions = np.column_stack([cells[pick] + rng.uniform(0, 0.05, (1000, 2)),
                                     np.zeros(1000)])
        feats = rng.normal(0, 100, (1000, 6)) * rng.choice([-1, 1], (1000, 6))
        pts = FeaturedPoints(positions, feats)
        cfg = grid()
        ref = pool_reference(pts, cfg)
        assert np.abs(pool_cumsum(pts, cfg).data - ref.data).max() < 1e-9


class TestPoolConcurrent:
    def test_single_worker_bit_identical(self):
        rng = np.random.default_rng(65)
        pts = random_points(rng, m=3000, c=8)
        cfg = grid()
        np.testing.assert_array_equal(pool_concurrent(pts, cfg, 1).data,
                                      pool_reference(pts, cfg).data)

    def test_disjoint_cells_bit_identical(self):
        # one point per cell: no contention, every sum is a single add
        cfg = grid(nx=8, ny=8, extent=4.0)
        centers = [(x + 0.5 - 4.0, y + 0.5 - 4.0) for y in range(8) for x in range(8)]
        positions = np.array([[cx, cy, 0.0] for cx, cy in centers])
        rng = np.random.default_rng(66)
        pts = FeaturedPoints(positions, rng.normal(0, 1, (64, 5)))
        ref = pool_reference(pts, cfg)
        for workers in (2, 4, 8):
            np.testing.assert_array_equal(pool_concurrent(pts, cfg, workers).data, ref.data)

    def test_high_contention_no_lost_updates(self):
        rng = np.random.default_rng(67)
        feats = rng.normal(0, 1, (4000, 2))
        pts = FeaturedPoints(np.tile([[0.1, 0.1, 0.0]], (4000, 1)), feats)
        cfg = grid()
        ref = pool_reference(pts, cfg)
        for rep in range(100):
            got = pool_concurrent(pts, cfg, 8, block=64)
            assert np.abs(got.data - ref.data).max() < 1e-6

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            pool_concurrent(random_points(np.random.default_rng(0), 10), grid(), 0)


class TestInvariants:
    def test_mass_conservation(self):
        rng = np.random.default_rng(70)
        pts = random_points(rng, m=5000, c=6)
        cfg = grid()
        inside, _ = cell_ids(pts, cfg)
        expected = pts.features[inside].sum(axis=0)
        for fn, tol in ((pool_reference, 1e-9), (pool_cumsum, 1e-9)):
            got = fn(pts, cfg).data.sum(axis=(1, 2))
            assert np.abs(got - expected).max() < tol
        got = pool_concurrent(pts, cfg, 8).data.sum(axis=(1, 2))
        assert np.abs(got - expected).max() < 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BEVGridConfig((1.0, -1.0), (-1.0, 1.0), 4, 4)
        with pytest.raises(ValueError):
            BEVGridConfig((-1.0, 1.0), (-1.0, 1.0), 0, 4)


def random_rig(rng):
    k = np.array([[rng.uniform(0.5, 4.0), rng.uniform(-0.2, 0.2), rng.uniform(0.0, 8.0)],
                  [0.0, rng.uniform(0.5, 4.0), rng.uniform(0.0, 8.0)], [0.0, 0.0, 1.0]])
    q, _ = np.linalg.qr(rng.normal(0, 1, (3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return CameraRig(k, q, rng.normal(0, 2, 3), (16, 16))


def shifted_lift(context, taps):
    """(C, D, H, W) features sum_t w_t[l, h, w] * context[:, h, w + s_t], zero off the map."""
    c, h, w = context.shape
    out = np.zeros((c,) + taps[0][1].shape)
    for shift, weights in taps:
        moved = np.zeros_like(context)
        lo, hi = max(0, -shift), min(w, w - shift)
        moved[:, :, lo:hi] = context[:, :, lo + shift:hi + shift]
        out += moved[:, None] * weights[None]
    return out


class TestSplat:
    def test_matches_lift_refine_pool_random_cases(self, monkeypatch):
        rng = np.random.default_rng(4040)
        sums = (vp.sum_reference, vp.sum_cumsum,
                lambda ids, values, n: vp.sum_concurrent(ids, values, n, 3, block=16))
        cases_with_drops = 0
        for case in range(60):
            c_ctx, c_d = int(rng.integers(1, 7)), int(rng.integers(3, 9))
            h, w = (int(v) for v in rng.integers(1, 8, 2))
            nx, ny = (int(v) for v in rng.integers(1, 24, 2))
            extent = float(rng.uniform(2.0, 20.0))
            cfg = BEVGridConfig((-extent, extent), (-extent * 0.7, extent), nx, ny)
            bins = DepthBinSpec(0.5, float(rng.uniform(4.0, 30.0)), c_d)
            pts = unproject_frustum(random_rig(rng), FrustumGrid.regular((h, w), bins.centers()))
            ctx = rng.normal(0, 1, (c_ctx, h, w))
            p = softmax_over_depth(rng.normal(0, 2, (c_d, h, w)))
            kernel = rng.normal(0, 1, (3, 3))
            # blocks of one cell up to one block for everything
            monkeypatch.setattr(vp, "SPLAT_BLOCK_SLOTS", int(rng.integers(1, 4 * h * w)))
            f_bev, f_depth = np.zeros((2, c_ctx, ny, nx))
            dropped = splat(pts, ctx, ([(0, p)], refine_taps(p, kernel)), cfg,
                            sums[case % 3], [f_bev, f_depth])
            want_bev, want_depth = lift_refine_pool([pts], [ctx], [p], kernel, cfg)
            assert np.abs(f_bev - want_bev).max() <= 1e-9
            assert np.abs(f_depth - want_depth).max() <= 1e-9
            inside, _ = cell_ids(FeaturedPoints(pts, np.zeros((len(pts), 0))), cfg)
            assert dropped == int((~inside).sum())
            cases_with_drops += 0 < dropped < len(pts)
            # taps with weight at every column: a column shifted off the map adds nothing
            taps = [(s, rng.uniform(0, 1, p.shape)) for s in (-1, 0, 1)]
            got = np.zeros((c_ctx, ny, nx))
            splat(pts, ctx, (taps,), cfg, vp.sum_reference, [got])
            lifted = shifted_lift(ctx, taps).reshape(c_ctx, -1).T
            want = pool_reference(FeaturedPoints(pts, lifted), cfg).data
            assert np.abs(got - want).max() <= 1e-9
        assert cases_with_drops >= 30

    def test_nothing_in_range(self):
        pts = np.full((2 * 3, 3), 100.0)
        out = np.zeros((4, 10, 10))
        p = np.ones((2, 1, 3))
        assert splat(pts, np.ones((4, 1, 3)), ([(0, p)],), grid(), vp.sum_reference,
                     [out]) == 6
        assert np.all(out == 0.0)

    def test_empty_tap_set_adds_nothing(self):
        pts = np.zeros((2 * 3, 3))
        out = np.zeros((4, 10, 10))
        assert splat(pts, np.ones((4, 1, 3)), ([],), grid(), vp.sum_reference, [out]) == 0
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("h, w, cells", [(16, 44, 128), (32, 88, 512)])
    def test_peak_memory_below_one_lift(self, h, w, cells):
        # a dense slot matrix at 32x88 and 512 cells would take ~170 MB
        cfg = PipelineConfig(bev_cells=cells)
        c, d = cfg.n_context, cfg.n_depth_bins
        rng = np.random.default_rng(4042)
        frustum = FrustumGrid.regular((h, w), cfg.depth_bins.centers())
        pts = unproject_frustum(forward_camera().scaled(h / 256, w / 704), frustum)
        ctx = rng.uniform(0, 1, (c, h, w))
        p = softmax_over_depth(rng.normal(0, 1, (d, h, w)))
        kernel = PipelineWeights.create(cfg, 16).refine_kernel
        f_bev, f_depth = np.zeros((2, c, cells, cells))
        tracemalloc.start()
        try:
            splat(pts, ctx, ([(0, p)], refine_taps(p, kernel)), cfg.bev_grid,
                  vp.sum_reference, [f_bev, f_depth])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f_bev.any() and f_depth.any()
        assert peak < c * d * h * w * 8
