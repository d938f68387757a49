import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import brute_force_pool, lift_refine_pool

from bevkit import voxelpool as vp
from bevkit.geometry import CameraRig, FrustumGrid, rows_alike, unproject_frustum
from bevkit.nnprims import DepthBinSpec, refine_taps, softmax_over_depth
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
            pts = unproject_frustum(random_rig(rng), FrustumGrid.regular((h, w), bins.centers()))
            ctx = rng.normal(0, 1, (c_ctx, h, w))
            p = softmax_over_depth(rng.normal(0, 2, (c_d, h, w)))
            kernel = rng.normal(0, 1, (3, 3))
            camera_bev = np.zeros((c_ctx, ny, nx))
            dropped = splat(pts.reshape(-1, h, w, 3), ctx, refine_taps(p, kernel + IDENTITY), cfg,
                            camera_bev)
            want_bev, want_depth = lift_refine_pool([pts], [ctx], [p], kernel, cfg)
            assert np.abs(camera_bev - (want_bev + want_depth)).max() <= 1e-9
            inside, _ = cfg.cell_ids(pts)
            assert dropped == int((~inside).sum())
            cases_with_drops += 0 < dropped < len(pts)
            # taps with weight at every column: a column shifted off the map adds nothing
            taps = [(s, rng.uniform(0, 1, p.shape)) for s in (-1, 0, 1)]
            got = np.zeros((c_ctx, ny, nx))
            splat(pts.reshape(-1, h, w, 3), ctx, taps, cfg, got)
            lifted = shifted_lift(ctx, taps).reshape(c_ctx, -1).T
            want = pool_reference(FeaturedPoints(pts, lifted), cfg).data
            assert np.abs(got - want).max() <= 1e-9
        assert cases_with_drops >= 30

    @pytest.mark.parametrize("seed", [1 << 20, 40])
    def test_slot_sums_bit_identical_to_sum_reference(self, seed):
        # a one-hot context (C = H*W) makes the product exact, so with one tap
        # each grid column is one cell's slot sums for that tap; each seed
        # draws its own rig and weights. Across taps the product re-associates
        # (the 1e-9 tests above and below cover that).
        rng = np.random.default_rng(seed)
        h, w, d = 5, 7, 30
        cfg = BEVGridConfig((-6.0, 6.0), (-4.0, 8.0), 9, 7)
        bins = DepthBinSpec(0.5, 12.0, d)
        pts = unproject_frustum(random_rig(rng), FrustumGrid.regular((h, w), bins.centers()))
        inside, ids = cfg.cell_ids(pts)
        cells, occ = np.unique(ids, return_inverse=True)
        sample = np.flatnonzero(inside)
        for shift in (0, -1, 1):
            weights = rng.lognormal(0, 3, (d, h, w))
            got = np.zeros((h * w, cfg.ny, cfg.nx))
            splat(pts.reshape(-1, h, w, 3), np.eye(h * w).reshape(h * w, h, w), [(shift, weights)],
                  cfg, got)
            # the same slots, in sample order, through sum_reference
            keep = (0 <= sample % w + shift) & (sample % w + shift < w)
            slots = occ[keep] * h * w + sample[keep] % (h * w) + shift
            assert np.bincount(slots).max() > 1  # slots collect many samples
            sums = vp.sum_reference(slots, weights.reshape(-1)[sample[keep], None],
                                    cells.size * h * w)
            want = np.zeros_like(got)
            want[:, cells // cfg.nx, cells % cfg.nx] = sums.reshape(cells.size, h * w).T
            assert np.array_equal(got, want)

    def test_matches_lift_refine_pool_on_surround_rig(self, perfbench):
        # six cameras at the 16x44 map, each with in-range samples at columns 0
        # and W-1: the refine taps' weights vanish where a shift leaves the map,
        # the random taps' weights do not
        cfg = PipelineConfig()
        grid_cfg, c, h, w = cfg.bev_grid, 8, 16, 44
        rng = np.random.default_rng(4044)
        frustum = FrustumGrid.regular((h, w), cfg.depth_bins.centers())
        positions = [unproject_frustum(rig.scaled(h / 256, w / 704), frustum)
                     for rig in perfbench("workloads").surround_rig()]
        contexts = [rng.uniform(0, 1, (c, h, w)) for _ in positions]
        p_depths = [softmax_over_depth(rng.normal(0, 1, (cfg.n_depth_bins, h, w)))
                    for _ in positions]
        kernel = PipelineWeights.create(cfg, 16).refine_kernel
        camera_bev = np.zeros((c, grid_cfg.ny, grid_cfg.nx))
        got, lifted = np.zeros_like(camera_bev), []
        for pts, ctx, p in zip(positions, contexts, p_depths):
            inside, _ = grid_cfg.cell_ids(pts)
            assert {0, w - 1} <= set((np.flatnonzero(inside) % w).tolist())
            taps = refine_taps(p, kernel + IDENTITY)
            assert [shift for shift, _ in taps] == [-1, 0, 1]
            splat(pts.reshape(-1, h, w, 3), ctx, taps, grid_cfg, camera_bev)
            taps = [(s, rng.uniform(0, 1, p.shape)) for s in (-1, 0, 1)]
            splat(pts.reshape(-1, h, w, 3), ctx, taps, grid_cfg, got)
            lifted.append(shifted_lift(ctx, taps).reshape(c, -1).T)
        want_bev, want_depth = lift_refine_pool(positions, contexts, p_depths, kernel,
                                                grid_cfg)
        assert np.abs(camera_bev - (want_bev + want_depth)).max() <= 1e-9
        want = pool_reference(FeaturedPoints(np.vstack(positions), np.vstack(lifted)),
                              grid_cfg).data
        assert np.abs(got - want).max() <= 1e-9

    def test_matches_lift_refine_pool_at_benchmark_shape(self):
        # one forward camera at the 16x44 map, 112 bins and 128 cells: the cells
        # near the camera each see several image columns
        cfg = PipelineConfig()
        grid_cfg, c, h, w = cfg.bev_grid, 8, 16, 44
        rng = np.random.default_rng(4043)
        frustum = FrustumGrid.regular((h, w), cfg.depth_bins.centers())
        pts = unproject_frustum(forward_camera().scaled(h / 256, w / 704), frustum)
        inside, ids = grid_cfg.cell_ids(pts)
        col = np.flatnonzero(inside) % w
        seen = np.unique(np.column_stack([ids, col]), axis=0)
        assert np.bincount(seen[:, 0]).max() >= 4
        assert {0, w - 1} <= set(col.tolist())
        ctx = rng.uniform(0, 1, (c, h, w))
        p = softmax_over_depth(rng.normal(0, 1, (cfg.n_depth_bins, h, w)))
        kernel = PipelineWeights.create(cfg, 16).refine_kernel
        camera_bev = np.zeros((c, grid_cfg.ny, grid_cfg.nx))
        splat(pts.reshape(-1, h, w, 3), ctx, refine_taps(p, kernel + IDENTITY), grid_cfg,
              camera_bev)
        want_bev, want_depth = lift_refine_pool([pts], [ctx], [p], kernel, grid_cfg)
        assert np.abs(camera_bev - (want_bev + want_depth)).max() <= 1e-9
        # weight at columns 0 and W-1, whose shifted columns fall off the map
        taps = [(s, rng.uniform(0, 1, p.shape)) for s in (-1, 0, 1)]
        got = np.zeros((c, grid_cfg.ny, grid_cfg.nx))
        splat(pts.reshape(-1, h, w, 3), ctx, taps, grid_cfg, got)
        lifted = shifted_lift(ctx, taps).reshape(c, -1).T
        want = pool_reference(FeaturedPoints(pts, lifted), grid_cfg).data
        assert np.abs(got - want).max() <= 1e-9

    def test_nothing_in_range(self):
        pts = np.full((2, 1, 3, 3), 100.0)
        out = np.zeros((4, 10, 10))
        p = np.ones((2, 1, 3))
        assert splat(pts, np.ones((4, 1, 3)), [(0, p)], grid(), out) == 6
        assert np.all(out == 0.0)

    def test_empty_tap_set_adds_nothing(self):
        # an injected refine kernel K = -IDENTITY leaves the pipeline no taps
        assert refine_taps(np.ones((3, 1, 3)), -IDENTITY + IDENTITY) == []
        pts = np.zeros((2, 1, 3, 3))
        pts[0, 0, :2] = 100.0
        out = np.zeros((4, 10, 10))
        assert splat(pts, np.ones((4, 1, 3)), [], grid(), out) == 2
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
        camera_bev = np.zeros((c, cells, cells))
        tracemalloc.start()
        try:
            splat(pts.reshape(-1, h, w, 3), ctx, refine_taps(p, kernel + IDENTITY), cfg.bev_grid,
                  camera_bev)
            peak = tracemalloc.get_traced_memory()[1]
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


def row_and_all_rows(rig, hw, depths, cfg, context, taps):
    """splat's (grid, dropped count) from row 0 of the frustum and from all its rows."""
    h, w = hw
    runs = []
    for rows in (1, h):
        pts = unproject_frustum(rig, FrustumGrid.regular((rows, w), depths))
        out = np.zeros((len(context), cfg.ny, cfg.nx))
        runs.append((out, splat(pts.reshape(-1, rows, w, 3), context, taps, cfg, out)))
    return runs


class TestRowRule:
    """splat on row 0 of a level rig's frustum equals splat on all its rows, bit for bit."""

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
            rng = np.random.default_rng(seed)
            ctx = rng.normal(0, 1, (3, h, w))
            p = softmax_over_depth(rng.normal(0, 2, (bins[0], h, w)))
            for taps in (refine_taps(p, rng.normal(0, 1, (3, 3)) + IDENTITY),
                         [(s, rng.uniform(0, 1, p.shape)) for s in (-1, 0, 1)], []):
                (row_bev, row_dropped), (bev, dropped) = row_and_all_rows(
                    rig, (h, w), depths, cfg, ctx, taps)
                if level:
                    assert row_dropped == dropped and np.array_equal(row_bev, bev)
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
        ctx, taps = np.ones((2, 16, 4)), [(0, np.ones((20, 16, 4)))]
        (_, row_dropped), (bev, dropped) = row_and_all_rows(rig, (16, 4), depths,
                                                            grid(extent=60.0), ctx, taps)
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
        ctx, taps = np.ones((1, 16, 44)), [(0, np.ones((8, 16, 44)))]
        (row_bev, _), (bev, _) = row_and_all_rows(rig, (16, 44), depths,
                                                  PipelineConfig().bev_grid, ctx, taps)
        assert not np.array_equal(row_bev, bev)

    def test_positions_of_other_row_counts_raise(self):
        out = np.zeros((2, 10, 10))
        taps = [(0, np.ones((2, 4, 3)))]
        for shape in ((2, 2, 3, 3), (8, 3, 3), (2, 4, 2, 3)):
            with pytest.raises(ValueError, match="1 or H"):
                splat(np.zeros(shape), np.ones((2, 4, 3)), taps, grid(), out)
        with pytest.raises(ValueError, match="C-contiguous"):
            splat(np.zeros((2, 1, 3, 3)), np.ones((2, 4, 3)), taps, grid(), out.transpose(0, 2, 1))

    @pytest.mark.parametrize("shape", [(2, 1, 3), (3, 2, 3), (2, 2, 4), (2, 6)])
    def test_taps_of_other_shapes_raise(self, shape):
        taps = [(0, np.ones((2, 2, 3))), (1, np.ones(shape))]
        says = f"taps need (D, H, W) = (2, 2, 3) weights, got [(2, 2, 3), {shape}]"
        with pytest.raises(ValueError, match=re.escape(says)):
            splat(np.zeros((2, 1, 3, 3)), np.ones((4, 2, 3)), taps, grid(), np.zeros((4, 10, 10)))
