import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import brute_force_pool, lift_refine_pool

from bevkit import pipeline as pl
from bevkit import voxelpool as vp
from bevkit.geometry import CameraRig, FrustumGrid, rows_alike, unproject_frustum
from bevkit.nnprims import DepthBinSpec, depth_refine, lift_outer_product, softmax_over_depth
from bevkit.pipeline import PipelineConfig, PipelineWeights
from bevkit.scene import FORWARD_CAM_ROTATION, forward_camera
from bevkit.voxelpool import (
    BEVGridConfig,
    FeaturedPoints,
    cell_ids,
    pool_concurrent,
    pool_cumsum,
    pool_reference,
    splat,
)


# one-hot centre kernel: depth_refine's identity, so refine(lift, K + IDENTITY)
# is the plain lift plus its refinement
IDENTITY = np.pad([[1.0]], 1)


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

    def test_far_and_non_finite_positions_out_of_range(self):
        cfg = grid(nx=4, ny=4, extent=2.0)
        pts = np.array([[1e300, 0.0], [0.0, -1e300], [np.inf, 0.0], [0.0, np.nan],
                        [1.9, 1.9]])
        inside, ids = cfg.cell_ids(pts)
        np.testing.assert_array_equal(inside, [False, False, False, False, True])
        np.testing.assert_array_equal(ids, [15])

    def test_out_of_range_flat_ids_raise_no_warning(self):
        # iy*nx + ix is formed for every row before the in-range gather: it may
        # overflow or meet inf - inf there, which must stay silent
        cfg = grid(nx=4, ny=4, extent=2.0)
        pts = np.array([[-np.inf, np.inf], [np.inf, -np.inf], [1e308, 1e308],
                        [-1e308, 1e308], [np.nan, np.inf], [-1.5, 1.5]])
        inside, ids = cfg.cell_ids(pts)
        np.testing.assert_array_equal(inside, [False] * 5 + [True])
        np.testing.assert_array_equal(ids, [12])

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


    def test_error_limit_in_the_docstring(self):
        # the rounding of the prefix, U[0, s) rows at one feature per row
        eps = np.finfo(np.float64).eps
        rng = np.random.default_rng(66)

        def error(m, scale, n):
            pts = FeaturedPoints(rng.uniform(-1, 1, (m, 3)), rng.uniform(0, scale, (m, 1)))
            cfg = grid(nx=n, ny=n, extent=1.0)
            return np.abs(pool_cumsum(pts, cfg).data - pool_reference(pts, cfg).data).max()

        for m, scale, n in ((10**3, 100.0, 16), (10**4, 1.0, 2), (10**4, 100.0, 64),
                            (10**5, 1.0, 128), (10**5, 10.0, 4)):
            assert error(m, scale, n) < 2 * eps * (m * scale / 2) * np.sqrt(m / n**2)
        assert error(10**5, 10.0, 128) < 1e-9 < error(10**5, 100.0, 128)


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
        for bad in ((-9e307, 9e307), (0.0, 5e-324), (0.0, np.nan)):
            with pytest.raises(ValueError, match="cell size must be positive and finite"):
                BEVGridConfig((-1.0, 1.0), bad, 4, 4)


def random_rig(rng):
    k = np.array([[rng.uniform(0.5, 4.0), rng.uniform(-0.2, 0.2), rng.uniform(0.0, 8.0)],
                  [0.0, rng.uniform(0.5, 4.0), rng.uniform(0.0, 8.0)], [0.0, 0.0, 1.0]])
    q, _ = np.linalg.qr(rng.normal(0, 1, (3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return CameraRig(k, q, rng.normal(0, 2, 3), (16, 16))


def pool_groups(rig, depths, cfg, context, p, kernel, groups):
    """(grid, dropped count) of the pipeline's camera pooling in `groups` row groups, in
    one pass: the cells of the first `groups` rows, each group's summed lift refined by
    kernel + IDENTITY and splatted at its row's cells."""
    c, h, w = context.shape
    cells = cfg.sample_cells(unproject_frustum(rig, FrustumGrid.regular((groups, w), depths)))
    out = np.zeros((c, cfg.ny, cfg.nx))
    lifted = pl._summed_lift(context, p, kernel + IDENTITY, h // groups)
    return out, h // groups * splat(cells.reshape(-1, groups, w), lifted, cfg, out)


class TestSplat:
    def test_matches_lift_refine_pool_random_cases(self):
        rng = np.random.default_rng(4040)
        cases_with_drops = 0
        for case in range(60):
            c_ctx, c_d = int(rng.integers(1, 7)), int(rng.integers(3, 9))
            h, w = (int(v) for v in rng.integers(1, 8, 2))
            nx, ny = (int(v) for v in rng.integers(1, 24, 2))
            extent = float(rng.uniform(2.0, 20.0))
            cfg = BEVGridConfig((-extent, extent), (-extent * 0.7, extent), nx, ny)
            bins = DepthBinSpec(0.5, float(rng.uniform(4.0, 30.0)), c_d)
            rig = random_rig(rng)
            pts = unproject_frustum(rig, FrustumGrid.regular((h, w), bins.centers()))
            ctx = rng.normal(0, 1, (c_ctx, h, w))
            p = softmax_over_depth(rng.normal(0, 2, (c_d, h, w)))
            kernel = rng.normal(0, 1, (3, 3))
            # a random rig is never level: one group per row
            camera_bev, dropped = pool_groups(rig, bins.centers(), cfg, ctx, p, kernel, h)
            want_bev, want_depth = lift_refine_pool([pts], [ctx], [p], kernel, cfg)
            assert np.abs(camera_bev - (want_bev + want_depth)).max() <= 1e-9
            inside, _ = cfg.cell_ids(pts)
            assert dropped == int((~inside).sum())
            cases_with_drops += 0 < dropped < len(pts)
            # any lifted values at all rows' cells, in one call, are pool_reference's
            lifted = rng.uniform(0, 1, (c_ctx,) + p.shape)
            got = np.zeros((c_ctx, ny, nx))
            assert splat(cfg.sample_cells(pts).reshape(p.shape), lifted, cfg, got) == dropped
            want = pool_reference(FeaturedPoints(pts, lifted.reshape(c_ctx, -1).T), cfg).data
            assert np.array_equal(got, want)
        assert cases_with_drops >= 30

    @pytest.mark.parametrize("seed", [1 << 20, 40])
    def test_slot_sums_bit_identical_to_sum_reference(self, seed):
        # each class is one np.bincount in sample order: bit-identical to sum_reference
        # over the same ids and values; each seed draws its own rig and values
        rng = np.random.default_rng(seed)
        c, h, w, d = 3, 5, 7, 30
        cfg = BEVGridConfig((-6.0, 6.0), (-4.0, 8.0), 9, 7)
        bins = DepthBinSpec(0.5, 12.0, d)
        pts = unproject_frustum(random_rig(rng), FrustumGrid.regular((h, w), bins.centers()))
        inside, ids = cfg.cell_ids(pts)
        assert np.bincount(ids).max() > 1  # cells collect many samples
        lifted = rng.lognormal(0, 3, (c, d, h, w))
        got = np.zeros((c, cfg.ny, cfg.nx))
        splat(cfg.sample_cells(pts).reshape(d, h, w), lifted, cfg, got)
        for k in range(c):
            sums = vp.sum_reference(ids, lifted[k].reshape(-1)[inside, None], cfg.nx * cfg.ny)
            assert np.array_equal(got[k], sums.reshape(cfg.ny, cfg.nx))

    def test_matches_lift_refine_pool_on_surround_rig(self, perfbench):
        # six level cameras at the 16x44 map, each one row group, each with in-range
        # samples at columns 0 and W-1, where the refine's zero padding shows
        cfg = PipelineConfig()
        grid_cfg, c, h, w = cfg.bev_grid, 8, 16, 44
        depths = cfg.depth_bins.centers()
        rng = np.random.default_rng(4044)
        frustum = FrustumGrid.regular((h, w), depths)
        rigs = [rig.scaled(h / 256, w / 704) for rig in perfbench("workloads").surround_rig()]
        positions = [unproject_frustum(rig, frustum) for rig in rigs]
        contexts = [rng.uniform(0, 1, (c, h, w)) for _ in positions]
        p_depths = [softmax_over_depth(rng.normal(0, 1, (cfg.n_depth_bins, h, w)))
                    for _ in positions]
        kernel = PipelineWeights.create(cfg, 16).refine_kernel
        camera_bev = np.zeros((c, grid_cfg.ny, grid_cfg.nx))
        for rig, pts, ctx, p in zip(rigs, positions, contexts, p_depths):
            inside, _ = grid_cfg.cell_ids(pts)
            assert {0, w - 1} <= set((np.flatnonzero(inside) % w).tolist())
            assert rows_alike(rig, h, depths)
            camera_bev += pool_groups(rig, depths, grid_cfg, ctx, p, kernel, 1)[0]
        want_bev, want_depth = lift_refine_pool(positions, contexts, p_depths, kernel,
                                                grid_cfg)
        assert np.abs(camera_bev - (want_bev + want_depth)).max() <= 1e-9

    def test_matches_lift_refine_pool_at_benchmark_shape(self):
        # one forward camera at the 16x44 map, 112 bins and 128 cells, one row group:
        # the cells near the camera each see several image columns
        cfg = PipelineConfig()
        grid_cfg, c, h, w = cfg.bev_grid, 8, 16, 44
        depths = cfg.depth_bins.centers()
        rng = np.random.default_rng(4043)
        rig = forward_camera().scaled(h / 256, w / 704)
        pts = unproject_frustum(rig, FrustumGrid.regular((h, w), depths))
        inside, ids = grid_cfg.cell_ids(pts)
        col = np.flatnonzero(inside) % w
        seen = np.unique(np.column_stack([ids, col]), axis=0)
        assert np.bincount(seen[:, 0]).max() >= 4
        assert {0, w - 1} <= set(col.tolist())
        assert rows_alike(rig, h, depths)
        ctx = rng.uniform(0, 1, (c, h, w))
        p = softmax_over_depth(rng.normal(0, 1, (cfg.n_depth_bins, h, w)))
        kernel = PipelineWeights.create(cfg, 16).refine_kernel
        camera_bev, dropped = pool_groups(rig, depths, grid_cfg, ctx, p, kernel, 1)
        want_bev, want_depth = lift_refine_pool([pts], [ctx], [p], kernel, grid_cfg)
        assert np.abs(camera_bev - (want_bev + want_depth)).max() <= 1e-9
        assert dropped == int((~inside).sum())

    def test_nothing_in_range(self):
        cells = grid().sample_cells(np.full((6, 3), 100.0)).reshape(2, 1, 3)
        assert np.all(cells == 100)  # one past the 10x10 grid
        out = np.zeros((4, 10, 10))
        assert splat(cells, np.ones((4, 2, 1, 3)), grid(), out) == 6
        assert np.all(out == 0.0)

    def test_empty_tap_set_adds_nothing(self):
        # an injected refine kernel K = -IDENTITY leaves either side of the refine no taps,
        # so the refined lift is zero and the grid keeps its values
        pts = np.zeros((18, 3))
        pts[:2, :2] = 100.0
        out = np.ones((4, 10, 10))
        for g in (2, 1):  # 4 <= 3g: the row sum is refined; else the depth weights
            lifted = pl._summed_lift(np.ones((4, 2, 3)), np.ones((3, 2, 3)),
                                     -IDENTITY + IDENTITY, g)
            assert lifted.shape == (4, 3, 2 // g, 3) and not lifted.any()
            cells = grid().sample_cells(pts[:lifted[0].size]).reshape(lifted.shape[1:])
            assert splat(cells, lifted, grid(), out) == 2
        assert np.all(out == 1.0)

    def test_summed_lift_is_the_row_sum_of_the_refined_lift(self):
        # both sides of the refine, C <= 3g and C > 3g, one run of g rows or several,
        # against depth_refine of the whole lift summed over each run; kernels with zero
        # columns and rows, maps one column wide
        rng = np.random.default_rng(4046)
        kernels = [rng.normal(0, 1, (3, 3)), PipelineWeights.create(PipelineConfig(), 16)
                   .refine_kernel + IDENTITY]
        kernels += [rng.normal(0, 1, (3, 3)) * (np.arange(3) != b) for b in range(3)]
        kernels += [rng.normal(0, 1, (3, 3)) * (np.arange(3) != a)[:, None] for a in range(3)]
        for kernel in kernels:
            for c, k, g, w in ((10, 1, 1, 6), (10, 3, 1, 5), (10, 1, 4, 5), (10, 2, 4, 3),
                               (4, 2, 1, 1), (3, 3, 1, 7), (7, 1, 2, 1), (6, 2, 2, 4)):
                ctx = rng.normal(0, 1, (c, k * g, w))
                p = softmax_over_depth(rng.normal(0, 2, (6, k * g, w)))
                refined = depth_refine(lift_outer_product(ctx, p), kernel)
                want = refined.reshape(c, 6, k, g, w).sum(axis=3)
                got = pl._summed_lift(ctx, p, kernel, g)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("h, w, cells", [(16, 44, 128), (32, 88, 512)])
    def test_peak_memory_below_one_lift(self, h, w, cells):
        # one level camera's summed lift and splat, at n_context channels, stay below
        # the (C, D, H, W) lift they stand for
        cfg = PipelineConfig(bev_cells=cells)
        c, d = cfg.n_context, cfg.n_depth_bins
        rng = np.random.default_rng(4042)
        rig = forward_camera().scaled(h / 256, w / 704)
        ctx = rng.uniform(0, 1, (c, h, w))
        p = softmax_over_depth(rng.normal(0, 1, (d, h, w)))
        kernel = PipelineWeights.create(cfg, 16).refine_kernel
        assert rows_alike(rig, h, cfg.depth_bins.centers())
        tracemalloc.start()
        try:
            camera_bev, _ = pool_groups(rig, cfg.depth_bins.centers(), cfg.bev_grid, ctx, p,
                                        kernel, 1)
            peak = tracemalloc.get_traced_memory()[1] - camera_bev.nbytes
        finally:
            tracemalloc.stop()
        assert camera_bev.any()
        assert peak < c * d * h * w * 8


def level_rig(yaw, focal, principal, translation, image_size):
    """The forward camera turned by yaw about the ego z axis: zero pitch and roll."""
    c, s = np.cos(yaw), np.sin(yaw)
    rot = FORWARD_CAM_ROTATION @ np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    k = np.array([[focal[0], 0.0, principal[0]], [0.0, focal[1], principal[1]], [0.0, 0.0, 1.0]])
    return CameraRig(k, rot, translation, image_size)


def pitched(rig, angle):
    """rig turned by angle about its camera x axis."""
    c, s = np.cos(angle), np.sin(angle)
    tilt = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return CameraRig(rig.intrinsics, tilt @ rig.rotation, tilt @ rig.translation, rig.image_size)


def row_and_all_rows(rig, depths, cfg, context, p, kernel):
    """pool_groups' (grid, dropped count) from one group of all rows at row 0's positions
    and from one group per row."""
    return [pool_groups(rig, depths, cfg, context, p, kernel, groups)
            for groups in (1, context.shape[1])]


def cell_map(cfg, positions):
    """Each sample's flat cell id, -1 outside the grid, in the (D, R, W) shape of positions."""
    inside, ids = cfg.cell_ids(positions.reshape(-1, 3))
    out = np.full(inside.size, -1)
    out[inside] = ids
    return out.reshape(positions.shape[:3])


class TestRowRule:
    """On a level rig every row's samples land in row 0's cells, bit for bit, so one group
    of all rows pools what one group per row pools, up to the re-associated row sum."""

    def test_row_zero_equals_all_rows_on_level_rigs(self):
        seen = []

        @settings(max_examples=120, derandomize=True, database=None, deadline=None)
        @given(hw=st.tuples(st.integers(1, 6), st.integers(1, 9)),
               stride=st.tuples(st.integers(1, 40), st.integers(1, 40)),
               focal=st.tuples(st.floats(5.0, 2000.0), st.floats(5.0, 2000.0)),
               principal=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
               yaw=st.floats(-np.pi, np.pi),
               translation=st.tuples(*[st.floats(-6.0, 6.0)] * 3),
               bins=st.tuples(st.integers(3, 12), st.floats(4.0, 60.0)),
               cells=st.tuples(st.floats(4.0, 40.0), st.integers(1, 30), st.integers(1, 30)),
               seed=st.integers(0, 2**32 - 1))
        # f_y = 1e-300 passes unproject's determinant guard beside f_x = 1e300; a 1e300
        # translation along camera y, x or z
        @example(hw=(4, 5), stride=(1, 1), focal=(1e300, 1e-300), principal=(0.5, 0.5),
                 yaw=0.3, translation=(0.0, 1.6, -1.5), bins=(8, 50.0), cells=(40.0, 20, 20),
                 seed=1)
        @example(hw=(4, 5), stride=(1, 1), focal=(300.0, 300.0), principal=(0.5, 0.5),
                 yaw=0.3, translation=(0.0, 10.0**300, 0.0), bins=(8, 50.0),
                 cells=(40.0, 20, 20), seed=2)
        @example(hw=(4, 5), stride=(1, 1), focal=(300.0, 300.0), principal=(0.5, 0.5),
                 yaw=0.3, translation=(10.0**300, 0.0, -10.0**300), bins=(8, 50.0),
                 cells=(40.0, 20, 20), seed=3)
        # the draw hangs on this test's source: a level rig at the largest H that the grid
        # cuts is always among the cases
        @example(hw=(6, 9), stride=(1, 1), focal=(300.0, 300.0), principal=(0.5, 0.5),
                 yaw=0.3, translation=(0.0, 1.6, -1.5), bins=(8, 50.0), cells=(40.0, 20, 20),
                 seed=4)
        def check(hw, stride, focal, principal, yaw, translation, bins, cells, seed):
            (h, w), (sy, sx) = hw, stride
            image = (h * sy, w * sx)
            rig = level_rig(yaw, focal, (principal[0] * image[1], principal[1] * image[0]),
                            translation, image).scaled(1 / sy, 1 / sx)
            depths = DepthBinSpec(0.5, bins[1], bins[0]).centers()
            extent, nx, ny = cells
            cfg = BEVGridConfig((-extent, extent), (-extent, 0.8 * extent), nx, ny)
            level = rows_alike(rig, h, depths)
            # only a rig whose camera y could come near overflow leaves the row rule
            assert level or max(focal) / min(focal) > 1e6 or abs(translation[1]) > 1e6
            cells_of = [cell_map(cfg, unproject_frustum(
                rig, FrustumGrid.regular((rows, w), depths)).reshape(-1, rows, w, 3))
                for rows in (1, h)]
            if level:  # the row rule's claim: the all-rows mask and ids are row 0's, repeated
                assert np.array_equal(cells_of[1], np.repeat(cells_of[0], h, axis=1))
            rng = np.random.default_rng(seed)
            ctx = rng.normal(0, 1, (3, h, w))
            p = softmax_over_depth(rng.normal(0, 2, (bins[0], h, w)))
            (row_bev, row_dropped), (bev, dropped) = row_and_all_rows(
                rig, depths, cfg, ctx, p, rng.normal(0, 1, (3, 3)))
            if level:
                assert row_dropped == dropped and np.abs(row_bev - bev).max() <= 1e-9
            seen.append((level, 0 < dropped < depths.size * h * w, h))

        check()
        levels = [s for s in seen if s[0]]
        assert len(levels) >= 100
        assert sum(partial for _, partial, _ in levels) >= 60
        assert {1, 6} <= {h for _, partial, h in levels if partial}

    @pytest.mark.parametrize("k, t_y", [
        # f_y = 1e-306 beside f_x = 1e306: rows 3 and on overflow at far depths
        ([[1e306, 0.0, 2.0], [0.0, 1e-306, 0.5e-306], [0.0, 0.0, 1.0]], 0.0),
        # a finite y of rows 4 and on, minus a translation at the float limit
        ([[1e295, 0.0, 2.0], [0.0, 1e-295, 4.0], [0.0, 0.0, 1.0]], -np.finfo(float).max),
    ], ids=["focal", "translation"])
    def test_camera_y_overflow_takes_all_rows(self, k, t_y):
        # an inf camera-frame y gives inf * 0 = nan, which drops samples whose row-0 twins
        # are in range
        rig = CameraRig(np.array(k), FORWARD_CAM_ROTATION, [0.0, t_y, 0.0], (16, 4))
        depths = DepthBinSpec(0.5, 58.0, 20).centers()
        (_, row_dropped), (bev, dropped) = row_and_all_rows(
            rig, depths, grid(extent=60.0), np.ones((2, 16, 4)), np.ones((20, 16, 4)), 0 * IDENTITY)
        assert bev.any() and dropped > row_dropped
        assert not rows_alike(rig, 16, depths)

    def test_pitched_skewed_or_rotated_rigs_take_all_rows(self):
        depths = DepthBinSpec(0.5, 30.0, 8).centers()
        level = level_rig(0.3, (380.0, 380.0), (352.0, 128.0), (0.2, 1.6, -1.5), (256, 704))
        assert rows_alike(level, 16, depths)
        rng = np.random.default_rng(4045)
        for _ in range(20):
            assert not rows_alike(random_rig(rng), 16, depths)
        assert not rows_alike(pitched(level, 1e-3), 16, depths)
        for at in ((0, 1), (1, 0), (2, 0), (2, 1)):  # skew, and below the diagonal
            k = level.intrinsics.copy()
            k[at] = 1e-13
            assert not rows_alike(CameraRig(k, level.rotation, level.translation,
                                            level.image_size), 16, depths)
        # a 1e-3 pitch moves samples between cells, so row 0 cannot stand for the others
        rig = pitched(level, 1e-3).scaled(16 / 256, 44 / 704)
        (row_bev, _), (bev, _) = row_and_all_rows(rig, depths, PipelineConfig().bev_grid,
                                                  np.ones((1, 16, 44)), np.ones((8, 16, 44)),
                                                  0 * IDENTITY)
        assert not np.array_equal(row_bev, bev)

    def test_positions_of_other_row_counts_raise(self):
        # cells of other row counts, or flat, for a (2, 2, 1, 3) lift; an out that is not
        # C-contiguous or not (C, ny, nx) of the grid, larger or smaller
        out = np.zeros((2, 10, 10))
        lifted = np.ones((2, 2, 1, 3))
        for shape in ((2, 2, 3), (6,), (2, 1, 2), (3, 1, 3)):
            with pytest.raises(ValueError, match="splat needs"):
                splat(np.zeros(shape, dtype=np.int64), lifted, grid(), out)
        says = "C-contiguous (C, ny, nx) = (2, 10, 10) out"
        for bad in (out.transpose(0, 2, 1), np.zeros((3, 10, 10)), np.zeros((2, 12, 12)),
                    np.zeros((2, 8, 10)), np.zeros((2, 100))):
            with pytest.raises(ValueError, match=re.escape(says)):
                splat(np.zeros((2, 1, 3), dtype=np.int64), lifted, grid(), bad)

    @pytest.mark.parametrize("shape", [(4, 2, 3), (4, 3, 1, 3), (4, 2, 1, 4), (4, 2, 2, 3)])
    def test_lifted_of_other_shapes_raise(self, shape):
        says = f"(C, *S) = {shape} lifted values"
        with pytest.raises(ValueError, match=re.escape(says)):
            splat(np.zeros((2, 1, 3), dtype=np.int64), np.ones(shape), grid(),
                  np.zeros((4, 10, 10)))
