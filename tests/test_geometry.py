import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import depth_map_oracle, unproject_frustum_oracle

from bevkit.geometry import (
    DEPTH_SENTINEL,
    CameraRig,
    DepthMap,
    EgoPose,
    FrustumGrid,
    depth_map_from_points,
    in_front_mask,
    project_points,
    rasterize_depth_map,
    unproject_frustum,
)
from bevkit.pipeline import PipelineConfig
from bevkit.scene import forward_camera


def identity_rig(image_size=(10, 10)):
    return CameraRig(np.eye(3), np.eye(3), np.zeros(3), image_size)


def random_rig(rng, image_size=(48, 64)):
    """Random but valid rig: positive-diagonal K, proper rotation."""
    fx, fy = rng.uniform(50, 300, 2)
    cx, cy = rng.uniform(10, 50, 2)
    k = np.array([[fx, rng.uniform(-2, 2), cx], [0, fy, cy], [0, 0, 1.0]])
    q, _ = np.linalg.qr(rng.normal(0, 1, (3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return CameraRig(k, q.T, rng.normal(0, 1, 3), image_size)


class TestCameraRig:
    def test_rejects_lower_triangular_intrinsics(self):
        k = np.eye(3)
        k[1, 0] = 0.5
        with pytest.raises(ValueError, match="upper-triangular"):
            CameraRig(k, np.eye(3), np.zeros(3), (4, 4))

    def test_rejects_improper_rotation(self):
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            CameraRig(np.eye(3), flip, np.zeros(3), (4, 4))

    @pytest.mark.parametrize("field, at", [("intrinsics", (0, 0)), ("intrinsics", (1, 0)),
                                           ("intrinsics", (0, 2)), ("rotation", (2, 1)),
                                           ("translation", (0,))])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_values(self, field, at, bad):
        fields = {"intrinsics": np.eye(3), "rotation": np.eye(3), "translation": np.zeros(3)}
        fields[field][at] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CameraRig(image_size=(4, 4), **fields)

    @pytest.mark.parametrize("field, at", [("rotation", (0, 0)), ("translation", (2,))])
    def test_ego_pose_rejects_nonfinite_values(self, field, at):
        fields = {"rotation": np.eye(3), "translation": np.zeros(3)}
        fields[field][at] = np.nan
        with pytest.raises(ValueError, match=f"ego {field} must be finite"):
            EgoPose(**fields)

    @pytest.mark.parametrize("bad, says", [
        (np.nan, "a finite number"), (np.inf, "a finite number"), (-np.inf, "a finite number"),
        (10**400, "a finite number"), (True, "a finite number"),
        (np.float32(1.0), "a finite number"), ("5", "a finite number"), (None, "a finite number"),
    ], ids=["nan", "inf", "-inf", "huge-int", "true", "float32", "string", "none"])
    def test_ego_pose_rejects_nonfinite_timestamp(self, bad, says):
        with pytest.raises(ValueError, match=f"ego timestamp must be {says}"):
            EgoPose(np.eye(3), np.zeros(3), bad)

    @pytest.mark.parametrize("bad", [1e308, -1e308, 1.5])
    def test_rejects_rotation_entry_beyond_one_before_the_product(self, bad):
        rot = np.eye(3)
        rot[0, 2] = bad
        with pytest.raises(ValueError, match=r"entries in \[-1, 1\]"):
            EgoPose(rot, np.zeros(3))

    @pytest.mark.parametrize("size", [(0, 4), (1e-320, 4), (4.5, 4), (True, 4), (4, 1e20),
                                      (np.int64(256), 704)])
    def test_image_size_must_be_integers_of_one_or_more(self, size):
        with pytest.raises(ValueError, match="image_size must be two integers >= 1"):
            CameraRig(np.eye(3), np.eye(3), np.zeros(3), size)

    def test_rejects_nonpositive_image(self):
        with pytest.raises(ValueError):
            CameraRig(np.eye(3), np.eye(3), np.zeros(3), (0, 4))

    def test_scaled_halves_focal(self):
        rig = CameraRig(np.diag([100.0, 100.0, 1.0]), np.eye(3), np.zeros(3), (64, 64))
        half = rig.scaled(0.5, 0.5)
        assert half.intrinsics[0, 0] == 50.0
        assert half.image_size == (32, 32)


class TestProjectPoints:
    def test_identity_projection(self):
        out = project_points(np.array([[1.0, 2.0, 5.0]]), identity_rig())
        np.testing.assert_allclose(out[0], [1.0, 2.0, 5.0])
        # pixel coordinates recover as (0.2, 0.4) at depth 5
        np.testing.assert_allclose(out[0, :2] / out[0, 2], [0.2, 0.4])

    def test_zero_depth_flagged_behind(self):
        rig = CameraRig(np.eye(3), np.eye(3), np.array([0.0, 0.0, -5.0]), (10, 10))
        out = project_points(np.array([[0.0, 0.0, 5.0]]), rig)
        np.testing.assert_allclose(out[0], [0.0, 0.0, 0.0])
        assert not in_front_mask(out)[0]

    def test_matches_dense_matrix_oracle(self):
        rng = np.random.default_rng(21)
        rig = random_rig(rng)
        pts = rng.normal(0, 10, (10, 3))
        got = project_points(pts, rig)
        for i in range(10):
            expect = rig.intrinsics @ (rig.rotation @ pts[i] + rig.translation)
            assert np.abs(got[i] - expect).max() < 1e-12

    def test_nonfinite_rejected_with_index(self):
        pts = np.array([[0.0, 0.0, 1.0], [np.inf, 0.0, 1.0]])
        with pytest.raises(ValueError, match=r"\[1\]"):
            project_points(pts, identity_rig())

    def test_finite_clouds_equal_matrix_form(self):
        # the whole-array finiteness test and the in-place shift change no bit
        rng = np.random.default_rng(24)
        for n in (0, 1, 7, 5000):
            rig = random_rig(rng)
            pts = rng.normal(0, 30, (n, 3))
            expect = (pts @ rig.rotation.T + rig.translation) @ rig.intrinsics.T
            np.testing.assert_array_equal(project_points(pts, rig), expect)

    def test_overflow_becomes_inf_quietly(self):
        rig = CameraRig(np.diag([1e308, 1.0, 1.0]), np.eye(3), np.zeros(3), (4, 4))
        proj = project_points(np.array([[10.0, 1.0, 2.0]]), rig)
        np.testing.assert_array_equal(proj, [[np.inf, 1.0, 2.0]])

    def test_every_nonfinite_row_named(self):
        pts = np.zeros((5, 3))
        pts[1, 2] = np.nan
        pts[3, 0] = -np.inf
        with pytest.raises(ValueError, match=r"indices \[1, 3\]$"):
            project_points(pts, identity_rig())


class TestRasterizeDepthMap:
    def test_min_depth_policy(self):
        proj = np.array([[2.5 * 4, 3.5 * 4, 4.0], [2.5 * 7, 3.5 * 7, 7.0]])
        dm, dropped = rasterize_depth_map(proj, (10, 10))
        assert dm.values[3, 2] == 4.0
        assert dropped == 0

    def test_empty_input_all_sentinel(self):
        dm, dropped = rasterize_depth_map(np.zeros((0, 3)), (4, 6))
        assert np.all(dm.values == DEPTH_SENTINEL)
        assert dropped == 0

    def test_out_of_bounds_counted(self):
        proj = np.array([[50.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        dm, dropped = rasterize_depth_map(proj, (4, 4))
        assert dropped == 1
        assert dm.values[1, 1] == 1.0

    def test_matches_brute_force_min_scan(self):
        rng = np.random.default_rng(22)
        h, w = 16, 24
        n = 1000
        u = rng.uniform(-2, w + 2, n)
        v = rng.uniform(-2, h + 2, n)
        d = rng.uniform(0.5, 40.0, n)
        proj = np.column_stack([u * d, v * d, d])
        dm, _ = rasterize_depth_map(proj, (h, w))
        # O(N*H*W) oracle: per-pixel scan over every point
        expect = np.full((h, w), DEPTH_SENTINEL)
        for py in range(h):
            for px in range(w):
                best = np.inf
                for i in range(n):
                    if int(np.floor(u[i])) == px and int(np.floor(v[i])) == py:
                        best = min(best, d[i])
                if np.isfinite(best):
                    expect[py, px] = best
        np.testing.assert_array_equal(dm.values, expect)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        d = rng.uniform(1, 30, 200)
        proj = np.column_stack([rng.uniform(0, 8, 200) * d, rng.uniform(0, 8, 200) * d, d])
        dm1, _ = rasterize_depth_map(proj, (8, 8))
        dm2, _ = rasterize_depth_map(proj[rng.permutation(200)], (8, 8))
        np.testing.assert_array_equal(dm1.values, dm2.values)

    def test_requires_positive_depth(self):
        with pytest.raises(ValueError):
            rasterize_depth_map(np.array([[0.0, 0.0, -1.0]]), (4, 4))

    def test_far_and_nonfinite_pixels_dropped_without_a_cast(self):
        """Pixels past int64, at +-inf or NaN are off-image by float comparison, with no
        warning (pytest turns a RuntimeWarning into an error)."""
        proj = np.array([[1.5, 2.5, 1.0], [1e20, 1.0, 1.0], [1.0, -1e300, 1e-300],
                         [np.inf, 1.0, 2.0], [1.0, 1.0, np.inf], [np.nan, 1.0, 1.0],
                         [np.inf, np.inf, np.inf], [3.0, 3.0, 1.0]])
        dm, dropped = rasterize_depth_map(proj, (4, 4))
        expect = np.full((4, 4), DEPTH_SENTINEL)
        expect[2, 1] = expect[3, 3] = 1.0
        np.testing.assert_array_equal(dm.values, expect)
        assert dropped == 5  # the inf-depth row lands on pixel (0, 0) and leaves no depth


class TestDepthMapFromPoints:
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.booleans(), st.booleans())
    @example(seed=0, n=0, aligned=False, overflow=False)
    def test_equals_per_row_oracle(self, seed, n, aligned, overflow):
        """Bit for bit and drop for drop against projecting, filtering and min-scanning each
        row alone. About half the rows are behind the camera; an axis-aligned rig puts rows
        at d = 0 exactly, and K[2][2] = 1e308 overflows far depths to inf."""
        rng = np.random.default_rng(seed)
        fx, fy = rng.uniform(2.0, 8.0, 2)
        k = np.array([[fx, rng.uniform(-1, 1), rng.uniform(0, 8)],
                      [0.0, fy, rng.uniform(0, 6)], [0.0, 0.0, 1e308 if overflow else 1.0]])
        pts = rng.normal(0, 3, (n, 3))
        if aligned:
            rig = CameraRig(k, np.eye(3), np.append(rng.normal(0, 1, 2), 0.0), (6, 8))
            pts[rng.random(n) < 0.3, 2] = 0.0
        else:
            rig = random_rig(rng, image_size=(6, 8))
            rig = CameraRig(k, rig.rotation, rig.translation, (6, 8))
        dm, dropped = depth_map_from_points(pts, rig)
        values, n_dropped = depth_map_oracle(pts, rig)
        assert dm.values.tobytes() == values.tobytes() and dropped == n_dropped


class TestUnprojectFrustum:
    def test_identity_inverse_example(self):
        fr = FrustumGrid(np.array([[0.2, 0.4]]), [5.0])
        out = unproject_frustum(identity_rig(), fr)
        np.testing.assert_allclose(out[0], [1.0, 2.0, 5.0], atol=1e-12)

    def test_roundtrip_random_rig(self):
        rng = np.random.default_rng(24)
        rig = random_rig(rng)
        depths = np.linspace(2.0, 50.0, 8)
        fr = FrustumGrid.regular((5, 6), depths)
        pts = unproject_frustum(rig, fr)
        proj = project_points(pts, rig)
        u = proj[:, 0] / proj[:, 2]
        v = proj[:, 1] / proj[:, 2]
        err = np.abs(np.column_stack([u, v, proj[:, 2]]) - fr.samples).max()
        assert err < 1e-9

    def test_positions_and_cells_match_per_sample_oracle(self, perfbench):
        # exact: a sample one ulp across a cell edge lands a whole cell away
        cfg = PipelineConfig()
        grid = cfg.bev_grid
        frustum = FrustumGrid.regular((16, 44), cfg.depth_bins.centers())
        rng = np.random.default_rng(25)
        rigs = [forward_camera(), *perfbench("workloads").surround_rig()]
        cases = [(rig.scaled(16 / 256, 44 / 704), frustum) for rig in rigs]
        for _ in range(40):
            h, w = (int(v) for v in rng.integers(1, 12, 2))
            depths = np.cumsum(rng.uniform(0.1, 3.0, int(rng.integers(1, 40))))
            cases.append((random_rig(rng), FrustumGrid.regular((h, w), depths)))
        for rig, fr in cases:
            got = unproject_frustum(rig, fr)
            want = unproject_frustum_oracle(rig, fr.samples)
            assert np.array_equal(got, want)
            for a, b in zip(grid.cell_ids(got), grid.cell_ids(want)):
                assert np.array_equal(a, b)

    def test_monotone_in_depth(self):
        depths = np.linspace(2.0, 30.0, 6)
        fr = FrustumGrid.regular((1, 1), depths)
        pts = unproject_frustum(identity_rig(), fr)
        assert np.all(np.diff(pts[:, 2]) > 0)
        assert abs(pts[0, 2] - depths[0]) < 1e-12

    def test_singular_intrinsics(self):
        # rig validation forbids constructing a singular K, so bypass it to
        # exercise the unprojection guard
        rig = identity_rig()
        object.__setattr__(rig, "intrinsics", np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="singular"):
            unproject_frustum(rig, FrustumGrid(np.array([[0.0, 0.0]]), [1.0]))

    def test_overflowing_intrinsics_unproject_quietly(self):
        """log |det K| decides singularity, so a huge K entry overflows no determinant."""
        rig = CameraRig(np.diag([380.0, 380.0, 1e308]), np.eye(3), np.zeros(3), (8, 8))
        pts = unproject_frustum(rig, FrustumGrid(np.array([[0.0, 0.0]]), [1.0]))
        assert np.isfinite(pts).all()

    def test_depth_bins_validated(self):
        with pytest.raises(ValueError, match="increasing"):
            FrustumGrid.regular((2, 2), np.array([3.0, 2.0]))


class TestDepthMapType:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            DepthMap(np.array([[0.0]]))

    def test_sentinel_allowed(self):
        dm = DepthMap(np.array([[DEPTH_SENTINEL, 3.0]]))
        np.testing.assert_array_equal(dm.coverage_mask(), [[False, True]])


class TestNearestDepthMap:
    """The depth target: one map per cloud, merged by DepthMap.nearest, against one
    rasterization of the stacked clouds as the oracle."""

    RIG = CameraRig(np.array([[8.0, 0.0, 8.0], [0.0, 8.0, 6.0], [0.0, 0.0, 1.0]]),
                    np.eye(3), np.zeros(3), (12, 16))

    @staticmethod
    def clouds(rng):
        # depths -2..10: some behind the camera; x, y up to 1.5 z: some off the image
        z = rng.uniform(-2.0, 10.0, 300)
        lidar = np.column_stack([rng.uniform(-1.5, 1.5, (300, 2)) * np.abs(z)[:, None], z])
        # the first 150 lidar rays, each nearer or farther: pixels both clouds see
        scale = np.where(rng.random(150) < 0.5, 0.8, 1.25)[:, None]
        radar = np.vstack([lidar[:150] * scale, rng.uniform(-3.0, 3.0, (60, 3))])
        return lidar, radar

    @pytest.mark.parametrize("empty", [None, "lidar", "radar", "both"])
    def test_equals_the_stacked_cloud_map(self, empty):
        lidar, radar = self.clouds(np.random.default_rng(44))
        if empty in ("lidar", "both"):
            lidar = lidar[:0]
        if empty in ("radar", "both"):
            radar = radar[:0]
        (lidar_map, n_lidar), (radar_map, n_radar) = (depth_map_from_points(c, self.RIG)
                                                      for c in (lidar, radar))
        oracle, n_oracle = depth_map_from_points(np.vstack([lidar, radar]), self.RIG)
        merged = lidar_map.nearest(radar_map)
        np.testing.assert_array_equal(merged.values, oracle.values)
        assert n_lidar + n_radar == n_oracle
        if empty is None:  # the case covers what it claims
            lv, rv = lidar_map.values, radar_map.values
            both = lidar_map.coverage_mask() & radar_map.coverage_mask()
            assert (lv[both] < rv[both]).any() and (rv[both] < lv[both]).any()
            assert (radar_map.coverage_mask() & ~lidar_map.coverage_mask()).any()
            assert 0 < n_lidar and 0 < n_radar and (lidar[:, 2] <= 0).any()


def test_full_depth_pipeline_helper():
    rng = np.random.default_rng(28)
    rig = random_rig(rng, image_size=(32, 40))
    pts = rng.uniform(-5, 5, (500, 3))
    dm, dropped = depth_map_from_points(pts, rig)
    covered = dm.coverage_mask()
    assert dm.values.shape == (32, 40)
    assert np.all(dm.values[covered] > 0)
    assert dropped >= 0
