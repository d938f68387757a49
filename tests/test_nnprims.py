import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from oracles import finite_diff_jacobian

from bevkit.nnprims import (
    DepthBinSpec,
    conv_pointwise,
    depth_refine,
    lift_outer_product,
    read_tensor,
    refine_taps,
    se_excite,
    softmax_over_depth,
    write_tensor,
)
from bevkit.pipeline import PipelineConfig, PipelineWeights


class TestSoftmaxOverDepth:
    def test_uniform(self):
        out = softmax_over_depth(np.zeros((4, 2, 3)))
        np.testing.assert_allclose(out, 0.25)

    def test_closed_form_two_bins(self):
        logits = np.array([[[0.0]], [[np.log(3.0)]]])
        out = softmax_over_depth(logits)
        np.testing.assert_allclose(out[:, 0, 0], [0.25, 0.75], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(0, 2, (7, 4, 5))
        base = softmax_over_depth(logits)
        shifted = softmax_over_depth(logits + 100.0)
        assert np.abs(base - shifted).max() < 1e-12

    def test_normalization_and_positivity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            shape = (int(rng.integers(2, 12)), int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            out = softmax_over_depth(rng.normal(0, 5, shape))
            assert np.abs(out.sum(axis=0) - 1.0).max() < 1e-12
            assert out.min() > 0


class TestLiftOuterProduct:
    def test_single_value(self):
        out = lift_outer_product(np.full((1, 1, 1), 2.0), np.full((1, 1, 1), 0.3))
        assert out.shape == (1, 1, 1, 1)
        assert abs(out[0, 0, 0, 0] - 0.6) < 1e-15

    def test_one_hot_selector(self):
        rng = np.random.default_rng(3)
        ctx = rng.normal(0, 1, (5, 3, 4))
        p = np.zeros((6, 3, 4))
        p[2] = 1.0
        out = lift_outer_product(ctx, p)
        np.testing.assert_array_equal(out[:, 2], ctx)
        out[:, 2] = 0.0
        assert np.all(out == 0.0)

    def test_marginal_recovers_context(self):
        rng = np.random.default_rng(4)
        ctx = rng.normal(0, 3, (8, 4, 6))
        p = softmax_over_depth(rng.normal(0, 2, (11, 4, 6)))
        out = lift_outer_product(ctx, p)
        assert np.abs(out.sum(axis=1) - ctx).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lift_outer_product(np.zeros((2, 3, 4)), np.zeros((5, 3, 5)))


class TestSeExcite:
    def test_unit_gates_identity(self):
        rng = np.random.default_rng(5)
        f = rng.normal(0, 1, (6, 3, 3))
        np.testing.assert_array_equal(se_excite(f, np.ones(6)), f)

    def test_half_gates(self):
        f = np.ones((4, 2, 2))
        np.testing.assert_allclose(se_excite(f, np.full(4, 0.5)), 0.5)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(6)
        f = rng.normal(0, 1, (5, 4, 3))
        g = rng.uniform(0.01, 0.99, 5)
        expect = np.zeros_like(f)
        for c in range(5):
            for j in range(4):
                for k in range(3):
                    expect[c, j, k] = g[c] * f[c, j, k]
        assert np.abs(se_excite(f, g) - expect).max() < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            se_excite(np.zeros((3, 2, 2)), np.ones(4))


class TestConvPointwise:
    def test_identity_kernel(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, (4, 3, 5))
        out = conv_pointwise(x, np.eye(4), np.zeros(4))
        np.testing.assert_array_equal(out, x)

    def test_single_pixel_is_matvec(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, (6, 1, 1))
        k = rng.normal(0, 1, (3, 6))
        b = rng.normal(0, 1, 3)
        out = conv_pointwise(x, k, b)
        np.testing.assert_allclose(out[:, 0, 0], k @ x[:, 0, 0] + b, atol=1e-14)

    def test_matches_im2col_brute_force(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, (5, 3, 4))
        k = rng.normal(0, 1, (7, 5))
        b = rng.normal(0, 1, 7)
        expect = np.zeros((7, 3, 4))
        for j in range(3):
            for l in range(4):
                col = x[:, j, l]
                for o in range(7):
                    expect[o, j, l] = float(np.dot(k[o], col)) + b[o]
        assert np.abs(conv_pointwise(x, k, b) - expect).max() < 1e-12

    @pytest.mark.parametrize("shape", [(5, 0, 4), (5, 3, 0), (0, 3, 4)],
                             ids=["no-rows", "no-columns", "no-channels"])
    def test_empty_map_is_bias_broadcast(self, shape):
        rng = np.random.default_rng(17)
        k = rng.normal(0, 1, (7, shape[0]))
        b = rng.normal(0, 1, 7)
        out = conv_pointwise(np.zeros(shape), k, b)
        assert np.array_equal(out, np.broadcast_to(b[:, None, None], (7,) + shape[1:]))


IDENTITY_3X3 = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])


class TestDepthRefine:
    def test_identity_kernel(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0, 1, (2, 5, 3, 4))
        np.testing.assert_array_equal(depth_refine(x, IDENTITY_3X3), x)

    def test_averaging_kernel_on_ones(self):
        # zero padding: interior cells keep 1, edges keep 6/9, corners 4/9
        x = np.ones((1, 5, 1, 6))
        out = depth_refine(x, np.full((3, 3), 1.0 / 9.0))
        assert np.abs(out[0, 2, 0, 3] - 1.0) < 1e-15
        assert np.abs(out[0, 0, 0, 3] - 6.0 / 9.0) < 1e-15
        assert np.abs(out[0, 0, 0, 0] - 4.0 / 9.0) < 1e-15

    def test_matches_four_loop_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.normal(0, 1, (2, 4, 3, 5))
        kernel = rng.normal(0, 1, (3, 3))
        got = depth_refine(x, kernel)
        c_f, c_d, h, w = x.shape
        expect = np.zeros_like(x)
        for cf in range(c_f):
            for hh in range(h):
                for j in range(c_d):
                    for k in range(w):
                        acc = 0.0
                        for dj in (-1, 0, 1):
                            for dk in (-1, 0, 1):
                                jj, kk = j + dj, k + dk
                                if 0 <= jj < c_d and 0 <= kk < w:
                                    acc += kernel[dj + 1, dk + 1] * x[cf, jj, hh, kk]
                        expect[cf, j, hh, k] = acc
        assert np.abs(got - expect).max() < 1e-12

    def test_too_few_bins(self):
        with pytest.raises(ValueError):
            depth_refine(np.zeros((1, 2, 2, 2)), IDENTITY_3X3)

    def test_skipping_zero_taps_is_bit_identical(self):
        def nine_taps(x, kernel):
            c_f, c_d, h, w = x.shape
            padded = np.zeros((c_f, c_d + 2, h, w + 2))
            padded[:, 1:-1, :, 1:-1] = x
            out = np.zeros(x.shape)
            for dj in range(3):
                for dk in range(3):
                    out += kernel[dj, dk] * padded[:, dj : dj + c_d, :, dk : dk + w]
            return out

        rng = np.random.default_rng(13)
        x = rng.normal(0, 1, (6, 9, 4, 7))
        sparse = rng.normal(0, 1, (3, 3)) * (rng.uniform(size=(3, 3)) < 0.5)
        for kernel in (PIPELINE_REFINE_KERNEL, rng.normal(0, 1, (3, 3)), sparse,
                       -PIPELINE_REFINE_KERNEL):
            assert np.array_equal(depth_refine(x, kernel), nine_taps(x, kernel))


PIPELINE_REFINE_KERNEL = PipelineWeights.create(PipelineConfig(), 16).refine_kernel


class TestRefineTaps:
    def test_taps_rebuild_refined_lift(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            c, d = (int(v) for v in rng.integers(1, 6, 2))
            h, w = (int(v) for v in rng.integers(1, 7, 2))
            ctx = rng.normal(0, 1, (c, h, w))
            p = softmax_over_depth(rng.normal(0, 1, (d + 2, h, w)))
            kernel = rng.normal(0, 1, (3, 3))
            want = depth_refine(lift_outer_product(ctx, p), kernel)
            got = np.zeros_like(want)
            for shift, q in refine_taps(p, kernel):
                for k in range(w):
                    if 0 <= k + shift < w:
                        got[:, :, :, k] += ctx[:, None, :, k + shift] * q[None, :, :, k]
            assert np.abs(got - want).max() < 1e-12

    def test_each_tap_is_depth_refine_of_its_column(self):
        rng = np.random.default_rng(18)
        kernels = [PIPELINE_REFINE_KERNEL + IDENTITY_3X3, IDENTITY_3X3, PIPELINE_REFINE_KERNEL]
        kernels += [rng.normal(0, 1, (3, 3)) * (rng.uniform(size=(3, 3)) < 0.6)
                    for _ in range(12)]
        for i, kernel in enumerate(kernels):
            d = 3 + i % 4
            h, w = (int(v) for v in rng.integers(1, 7, 2))
            p = softmax_over_depth(rng.normal(0, 2, (d, h, w)))
            taps = refine_taps(p, kernel)
            assert [s + 1 for s, _ in taps] == np.flatnonzero(kernel.any(axis=0)).tolist()
            for shift, q in taps:
                column = np.zeros((3, 3))
                column[:, shift + 1] = kernel[:, shift + 1]
                assert np.array_equal(q, depth_refine(p[None], column)[0])

    def test_bad_shapes_rejected(self):
        p = softmax_over_depth(np.zeros((4, 2, 3)))
        for bad_p, bad_k in ((p[:2], IDENTITY_3X3), (p[0], IDENTITY_3X3),
                             (p, np.eye(2))):
            with pytest.raises(ValueError):
                refine_taps(bad_p, bad_k)

    def test_zero_columns_skipped(self):
        p = softmax_over_depth(np.zeros((4, 2, 3)))
        assert [s for s, _ in refine_taps(p, PIPELINE_REFINE_KERNEL)] == [-1, 0, 1]
        assert [s for s, _ in refine_taps(p, IDENTITY_3X3)] == [0]
        np.testing.assert_array_equal(refine_taps(p, IDENTITY_3X3)[0][1], p)


class TestFiniteDiffJacobian:
    def test_identity_function(self):
        jac = finite_diff_jacobian(lambda x: x, np.array([1.0, -2.0, 0.5]))
        assert np.abs(jac - np.eye(3)).max() < 1e-10

    def test_square_at_three(self):
        jac = finite_diff_jacobian(lambda x: x**2, np.array([3.0]))
        assert abs(jac[0, 0] - 6.0) < 1e-6

    def test_quadratic_form(self):
        rng = np.random.default_rng(13)
        a = rng.normal(0, 1, (4, 4))
        a = (a + a.T) / 2.0
        x = rng.normal(0, 1, 4)
        jac = finite_diff_jacobian(lambda z: np.array([z @ a @ z]), x)
        assert np.abs(jac[0] - 2.0 * a @ x).max() < 1e-6

    def test_nonfinite_output_reports_index(self):
        def bad(x):
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.array([np.log(x[0])])

        # the negative-side probe of input 0 leaves the log domain
        with pytest.raises(ValueError, match="perturbing input 0"):
            finite_diff_jacobian(bad, np.array([0.0]), h=1e-6)


class TestDepthBinSpec:
    def test_centers_and_index(self):
        bins = DepthBinSpec(2.0, 10.0, 4)
        np.testing.assert_allclose(bins.centers(), [3.0, 5.0, 7.0, 9.0])
        assert bins.index_of(2.1) == 0
        assert bins.index_of(9.9) == 3
        assert bins.index_of(100.0) == 3  # clamped
        assert bins.index_of(0.5) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DepthBinSpec(-1.0, 10.0, 4)
        with pytest.raises(ValueError):
            DepthBinSpec(2.0, 10.0, 1)


def test_operations_leave_inputs_unmodified():
    rng = np.random.default_rng(15)
    logits = rng.normal(0, 1, (5, 3, 4))
    ctx = rng.normal(0, 1, (2, 3, 4))
    gates = rng.uniform(0.1, 0.9, 2)
    kernel = rng.normal(0, 1, (3, 2))
    bias = rng.normal(0, 1, 3)
    lifted = rng.normal(0, 1, (2, 5, 3, 4))
    snapshots = [a.copy() for a in (logits, ctx, gates, kernel, bias, lifted)]
    softmax_over_depth(logits)
    lift_outer_product(ctx, softmax_over_depth(logits))
    se_excite(ctx, gates)
    conv_pointwise(ctx, kernel, bias)
    depth_refine(lifted, IDENTITY_3X3)
    for arr, snap in zip((logits, ctx, gates, kernel, bias, lifted), snapshots):
        np.testing.assert_array_equal(arr, snap)


class TestTensorIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        arr = rng.normal(0, 1, (3, 4, 2))
        path = tmp_path / "t.tnsr"
        write_tensor(path, arr)
        np.testing.assert_array_equal(read_tensor(path), arr)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tnsr"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.tnsr"
        for header in (b"TNSR\x03", b"TNSR" + (3).to_bytes(4, "little") + b"\x10\x00"):
            path.write_bytes(header)
            with pytest.raises(ValueError, match="truncated tensor header"):
                read_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.tnsr"
        write_tensor(path, np.ones((2, 3)))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match="8 trailing bytes.*long.tnsr"):
            read_tensor(path)

    def test_oversized_shape_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "huge.tnsr"
        path.write_bytes(b"TNSR" + (1).to_bytes(4, "little") + (1 << 23).to_bytes(4, "little"))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated tensor payload"):
                read_tensor(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_tensor(tmp_path / "x.tnsr", np.array([np.nan]))

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_roundtrip_exact(self, arr):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.tnsr")
            write_tensor(path, arr)
            back = read_tensor(path)
        assert back.dtype == np.float64 and back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()  # bit for bit, signed zeros included

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_corrupted_tensor_raises_only_value_or_os_error(self, data):
        arr = np.random.default_rng(46).normal(0, 1, (2, 3, 4))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.tnsr")
            write_tensor(path, arr)
            with open(path, "rb") as fh:
                original = fh.read()
            blob = bytearray(original)
            if data.draw(st.booleans(), label="truncate"):
                blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
                must_fail = True
            else:
                for _ in range(data.draw(st.integers(1, 4), label="flips")):
                    # the header (magic, rank, extents: bytes 0-19) is drawn as often
                    # as the rest
                    at = data.draw(st.one_of(st.integers(0, 19),
                                             st.integers(0, len(blob) - 1)), label="at")
                    blob[at] ^= data.draw(st.integers(1, 255), label="mask")
                must_fail = blob[:4] != original[:4]
            with open(path, "wb") as fh:
                fh.write(blob)
            try:
                back = read_tensor(path)
            except (ValueError, OSError):
                return
        assert not must_fail, "a truncated tensor or a changed magic was read"
        # a tensor that reads spans the whole file, and every value is finite
        assert 8 + 4 * back.ndim + 8 * back.size == len(blob)
        assert back.dtype == np.float64 and np.all(np.isfinite(back))
