import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    depthnet_jacobian_oracle,
    finite_diff_jacobian,
    naive_cox_de_boor,
    rel_err,
    sigmoid_oracle,
)

from bevkit.geometry import CameraRig
from bevkit.kan import (
    CAMERA_PARAM_DIM,
    INTRINSICS_SCALE,
    ROTATION_SCALE,
    TRANSLATION_SCALE,
    BSplineBasis,
    DepthNetParams,
    KanLayer,
    _basis_grads,
    bspline_basis_eval,
    camera_gates,
    depthnet_forward,
    depthnet_input_jacobian,
    embed_camera_params,
    kan_layer_forward,
    kan_layer_jacobian,
    sigmoid,
    silu,
)
from bevkit.nnprims import conv_pointwise, softmax_over_depth


def bspline_basis_grad(basis: BSplineBasis, x: float) -> np.ndarray:
    """Derivative of every basis function at scalar x (zero outside the domain)."""
    return _basis_grads(basis, np.array([float(x)]))[0]


def identity_rig():
    return CameraRig(np.eye(3), np.eye(3), np.zeros(3), (4, 4))


class TestBSplineBasis:
    def test_linear_hats_midpoint(self):
        basis = BSplineBasis(degree=1, n_intervals=2)
        weights = bspline_basis_eval(basis, -0.5)
        np.testing.assert_allclose(weights, [0.5, 0.5, 0.0], atol=1e-15)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_partition_of_unity(self, degree):
        basis = BSplineBasis(degree=degree, n_intervals=8)
        rng = np.random.default_rng(41)
        xs = rng.uniform(-1.0, 1.0, 1000)
        sums = np.array([bspline_basis_eval(basis, x).sum() for x in xs])
        assert np.abs(sums - 1.0).max() < 1e-12
        for x in xs[:50]:
            assert bspline_basis_eval(basis, x).min() >= 0.0

    def test_matches_naive_recursion_oracle(self):
        basis = BSplineBasis(degree=3, n_intervals=8)
        rng = np.random.default_rng(42)
        for x in rng.uniform(-0.999, 0.999, 100):
            got = bspline_basis_eval(basis, x)
            expect = np.array([naive_cox_de_boor(basis.knots, i, 3, x)
                               for i in range(basis.n_basis)])
            assert np.abs(got - expect).max() < 1e-12

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 10), st.data())
    def test_matches_naive_recursion_property(self, degree, n_intervals, data):
        basis = BSplineBasis(degree=degree, n_intervals=n_intervals)
        interior = basis.knots[degree + 1 : degree + n_intervals].tolist()
        x = data.draw(st.one_of(st.sampled_from([-1.0] + interior),
                                st.floats(-1.0, 1.0, exclude_max=True)), label="x")
        expect = [naive_cox_de_boor(basis.knots, i, degree, x) for i in range(basis.n_basis)]
        assert np.abs(bspline_basis_eval(basis, x) - expect).max() < 1e-12

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 10),
           st.one_of(st.just(1.0), st.floats(min_value=1.0), st.floats(max_value=-1.0)))
    def test_clamped_at_and_outside_domain_property(self, degree, n_intervals, x):
        basis = BSplineBasis(degree=degree, n_intervals=n_intervals)
        edge = 1.0 if x >= 1.0 else -1.0
        got = bspline_basis_eval(basis, x)
        np.testing.assert_array_equal(got, bspline_basis_eval(basis, edge))
        # the half-open oracle is zero at x = 1; its left limit is the boundary value
        inside = np.nextafter(1.0, 0.0) if edge > 0 else -1.0
        expect = [naive_cox_de_boor(basis.knots, i, degree, inside)
                  for i in range(basis.n_basis)]
        assert np.abs(got - expect).max() < 1e-12
        assert abs(got.sum() - 1.0) < 1e-12

    def test_clamping_outside_domain(self):
        basis = BSplineBasis(degree=3, n_intervals=4)
        np.testing.assert_array_equal(bspline_basis_eval(basis, 5.0),
                                      bspline_basis_eval(basis, 1.0))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        for degree in (1, 2, 3):
            basis = BSplineBasis(degree=degree, n_intervals=6)
            for x in rng.uniform(-0.95, 0.95, 20):
                got = bspline_basis_grad(basis, x)
                h = 1e-7
                fd = (bspline_basis_eval(basis, x + h) - bspline_basis_eval(basis, x - h)) / (2 * h)
                assert np.abs(got - fd).max() < 1e-5

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_gradient_at_and_outside_domain_edges(self, degree):
        basis = BSplineBasis(degree=degree, n_intervals=5)
        h = 1e-7
        # one-sided differences: x = 1 is clamped into the last interval
        fd_hi = (bspline_basis_eval(basis, 1.0) - bspline_basis_eval(basis, 1.0 - h)) / h
        fd_lo = (bspline_basis_eval(basis, -1.0 + h) - bspline_basis_eval(basis, -1.0)) / h
        assert np.abs(bspline_basis_grad(basis, 1.0) - fd_hi).max() < 1e-5
        assert np.abs(bspline_basis_grad(basis, -1.0) - fd_lo).max() < 1e-5
        for x in (-np.inf, -3.0, np.nextafter(-1.0, -2.0), np.nextafter(1.0, 2.0), 1.5):
            np.testing.assert_array_equal(bspline_basis_grad(basis, x), 0.0)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            BSplineBasis(degree=3, n_intervals=0)
        with pytest.raises(ValueError):
            BSplineBasis(degree=0)


class TestKanLayer:
    def test_zero_parameters_zero_output(self):
        basis = BSplineBasis()
        layer = KanLayer(basis, np.zeros((3, 2, basis.n_basis)), np.zeros((3, 2)))
        np.testing.assert_array_equal(kan_layer_forward(layer, np.array([0.3, -0.7])),
                                      np.zeros(3))

    def test_identity_interpolation_on_knots(self):
        # degree-1 hats centered on the interior knots; coefficients equal to
        # the hat centers reproduce the identity exactly on the lattice
        basis = BSplineBasis(degree=1, n_intervals=4)
        centers = basis.knots[1:-1]
        coeffs = centers.reshape(1, 1, -1)
        layer = KanLayer(basis, coeffs, np.zeros((1, 1)))
        for x in np.linspace(-1.0, 1.0, 5):
            out = kan_layer_forward(layer, np.array([x]))
            assert abs(out[0] - x) < 1e-12

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(44)
        for trial in range(20):
            layer = KanLayer.random(rng, 5, 4)
            x = rng.uniform(-0.9, 0.9, 5)
            jac = kan_layer_jacobian(layer, x)
            fd = finite_diff_jacobian(lambda z: kan_layer_forward(layer, z), x)
            assert rel_err(jac, fd).max() < 1e-5

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(45)
        basis = BSplineBasis()
        c1 = rng.normal(0, 1, (3, 4, basis.n_basis))
        c2 = rng.normal(0, 1, (3, 4, basis.n_basis))
        w1 = rng.normal(0, 1, (3, 4))
        w2 = rng.normal(0, 1, (3, 4))
        x = rng.uniform(-1, 1, 4)
        alpha, beta = 0.7, -1.3
        combo = KanLayer(basis, alpha * c1 + beta * c2, alpha * w1 + beta * w2)
        parts = (alpha * kan_layer_forward(KanLayer(basis, c1, w1), x)
                 + beta * kan_layer_forward(KanLayer(basis, c2, w2), x))
        assert np.abs(kan_layer_forward(combo, x) - parts).max() < 1e-12

    def test_dimension_mismatch(self):
        layer = KanLayer.random(np.random.default_rng(0), 3, 2)
        with pytest.raises(ValueError):
            kan_layer_forward(layer, np.zeros(4))


class TestEmbedCameraParams:
    def test_identity_rig_layout(self):
        rig = CameraRig(np.eye(3), np.eye(3), np.array([1.0, -2.0, 3.0]), (4, 4))
        vec = embed_camera_params(rig)
        np.testing.assert_allclose(vec[0:9], np.eye(3).ravel() / INTRINSICS_SCALE)
        np.testing.assert_allclose(vec[9:18], np.eye(3).ravel() / ROTATION_SCALE)
        np.testing.assert_allclose(vec[18:21], np.array([1.0, -2.0, 3.0]) / TRANSLATION_SCALE)
        np.testing.assert_array_equal(vec[21:], np.zeros(6))
        assert vec.shape == (CAMERA_PARAM_DIM,)

    def test_deterministic(self):
        a = embed_camera_params(identity_rig())
        b = embed_camera_params(identity_rig())
        np.testing.assert_array_equal(a, b)

    def test_single_entry_sensitivity(self):
        base = embed_camera_params(identity_rig())
        k = np.eye(3)
        k[0, 2] = 3.0
        bumped = CameraRig(k, np.eye(3), np.zeros(3), (4, 4))
        vec = embed_camera_params(bumped)
        changed = np.flatnonzero(vec != base)
        assert changed.tolist() == [2]  # the (0, 2) slot of flattened K


class TestDepthNet:
    def small_params(self, rng, n_feat=6, n_bins=5, n_ctx=3):
        return DepthNetParams.random(rng, n_feat, n_bins, n_ctx, hidden=(8,))

    def test_zero_features_bias_only(self):
        rng = np.random.default_rng(46)
        params = self.small_params(rng)
        params.split_bias = np.zeros_like(params.split_bias)
        feats = [np.zeros((6, 2, 3))]
        out = depthnet_forward(feats, [identity_rig()], params)
        np.testing.assert_array_equal(out.context[0], 0.0)
        np.testing.assert_array_equal(out.depth_logits[0], 0.0)
        p = softmax_over_depth(out.depth_logits[0])
        np.testing.assert_allclose(p, 1.0 / 5.0)

    def test_saturated_gates_equal_plain_conv(self):
        rng = np.random.default_rng(47)
        params = self.small_params(rng)
        # constant spline coefficients ride the partition of unity: every edge
        # contributes exactly 1e3, so the gate logits are in_dim * 1e3 and the
        # sigmoid saturates to exactly 1.0 in float64
        last = params.kan_layers[-1]
        last.spline_coeffs = np.full_like(last.spline_coeffs, 1e3)
        last.shortcut_weights = np.zeros_like(last.shortcut_weights)
        gates = camera_gates(params, identity_rig())
        np.testing.assert_array_equal(gates, 1.0)
        feats = rng.normal(0, 1, (6, 2, 3))
        out = depthnet_forward([feats], [identity_rig()], params)
        split = conv_pointwise(feats, params.split_kernel, params.split_bias)
        np.testing.assert_array_equal(out.depth_logits[0], split[:5])
        np.testing.assert_array_equal(out.context[0], split[5:])

    def test_gates_in_open_unit_interval(self):
        rng = np.random.default_rng(48)
        params = self.small_params(rng)
        for trial in range(10):
            rig = identity_rig()
            gates = camera_gates(params, rig)
            assert np.all(gates > 0.0) and np.all(gates < 1.0)

    def test_end_to_end_jacobian_three_pixels(self):
        rng = np.random.default_rng(49)
        params = self.small_params(rng, n_feat=4, n_bins=3, n_ctx=2)
        rig = identity_rig()
        shape = (4, 1, 3)
        jac = depthnet_input_jacobian(params, rig, shape)

        def f(flat):
            out = depthnet_forward([flat.reshape(shape)], [rig], params)
            return np.concatenate([out.depth_logits[0].ravel(), out.context[0].ravel()])

        fd = finite_diff_jacobian(f, rng.normal(0, 1, 4 * 3))
        assert rel_err(jac, fd).max() < 1e-5

    def test_input_jacobian_equals_loop_oracle(self):
        rng = np.random.default_rng(53)
        params = self.small_params(rng, n_feat=4, n_bins=3, n_ctx=2)
        rig = CameraRig(np.diag([300.0, 280.0, 1.0]), np.eye(3), np.array([0.5, -1.0, 2.0]),
                        (4, 4))
        jac = depthnet_input_jacobian(params, rig, (4, 2, 3))
        expect = depthnet_jacobian_oracle(params.split_kernel, camera_gates(params, rig), 6)
        np.testing.assert_array_equal(jac, expect)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(50)
        params = self.small_params(rng)
        feats = [rng.normal(0, 1, (6, 3, 4))]
        a = depthnet_forward(feats, [identity_rig()], params)
        b = depthnet_forward(feats, [identity_rig()], params)
        np.testing.assert_array_equal(a.depth_logits[0], b.depth_logits[0])
        np.testing.assert_array_equal(a.context[0], b.context[0])

    def test_camera_order_independent(self):
        rng = np.random.default_rng(51)
        params = self.small_params(rng)
        f1, f2 = rng.normal(0, 1, (2, 6, 2, 2))
        r = identity_rig()
        fwd = depthnet_forward([f1, f2], [r, r], params)
        rev = depthnet_forward([f2, f1], [r, r], params)
        np.testing.assert_array_equal(fwd.depth_logits[0], rev.depth_logits[1])
        np.testing.assert_array_equal(fwd.context[1], rev.context[0])

    def test_zero_cameras_rejected(self):
        rng = np.random.default_rng(52)
        with pytest.raises(ValueError, match="at least one camera"):
            depthnet_forward([], [], self.small_params(rng))


def test_sigmoid_silu_shapes():
    x = np.linspace(-30, 30, 101)
    s = sigmoid(x)
    assert np.all((s >= 0) & (s <= 1))
    assert np.abs(silu(x) - x * s).max() < 1e-12


class TestSigmoid:
    EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 746.0, -746.0,
                      5e-324, -5e-324, 36.0, -36.0, 709.0, -709.0, 1e-300, -1e-300])

    def test_two_branch_form_bit_for_bit(self):
        rng = np.random.default_rng(60)
        grids = [rng.normal(0, 1, (10, 16, 16)), rng.normal(0, 40, (3, 7, 5)),
                 rng.uniform(-800, 800, 4096), self.EDGES, self.EDGES.reshape(1, -1, 1)]
        grids += [np.array(v) for v in self.EDGES]  # 0-d inputs
        for x in grids:
            got = sigmoid(x)
            assert np.shape(got) == x.shape
            assert np.array_equal(got, sigmoid_oracle(x), equal_nan=True)

    def test_input_unchanged_and_result_fresh(self):
        rng = np.random.default_rng(62)
        for x in (rng.normal(0, 5, (10, 16, 16)), self.EDGES, np.array(-3.0), np.array(np.nan)):
            before = x.copy()
            got = sigmoid(x)
            assert x.tobytes() == before.tobytes()
            assert not np.shares_memory(got, x)

    def test_non_contiguous_inputs_bit_for_bit(self):
        x = np.random.default_rng(63).normal(0, 30, (17, 24))
        x[3, : len(self.EDGES)] = self.EDGES
        for view in (x[:, ::2], x.T, x[::-3, 1::5]):
            assert not view.flags.c_contiguous
            assert np.array_equal(sigmoid(view), sigmoid_oracle(view), equal_nan=True)

    def test_allocation_budget(self):
        # the result and e, plus the x >= 0 mask: under 2.5 grids of the input
        x = np.random.default_rng(64).normal(0, 3, (10, 128, 128))
        tracemalloc.start()
        try:
            sigmoid(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * x.nbytes

    def test_approximate_form_fails(self):
        # the tanh identity is the same function in exact arithmetic, not in float64
        x = np.random.default_rng(61).normal(0, 3, 4096)
        tanh_form = 0.5 * (1.0 + np.tanh(0.5 * x))
        assert not np.array_equal(tanh_form, sigmoid_oracle(x))
