"""Kolmogorov-Arnold layers and the camera-aware depth network head.

A KAN layer routes every input through two branches per edge: a learnable
B-spline activation and a fixed smooth-rectifier shortcut. The depth
network embeds each camera's calibration as a 27-vector, maps it through a
small KAN stack to per-channel gates, excites the backbone features with
those gates, and splits the result into depth logits and context features
with a 1x1 convolution.

Analytic Jacobians are provided for both the layer and the feature path of
the depth network; tests check them against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import CameraRig
from .nnprims import as_tensor, conv_pointwise, se_excite


def silu(x: np.ndarray) -> np.ndarray:
    """Smooth rectifier x * sigmoid(x), differentiable everywhere."""
    return x * sigmoid(x)


def silu_grad(x: np.ndarray) -> np.ndarray:
    s = sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass(frozen=True)
class BSplineBasis:
    """Uniformly extended B-spline basis of the given degree on [-1, 1].

    n_intervals interior knot spans give n_intervals + degree basis
    functions; inside the domain they are non-negative and sum to one.
    Inputs outside [-1, 1] are clamped to the boundary before evaluation.
    """

    degree: int = 3
    n_intervals: int = 8
    domain: tuple[float, float] = (-1.0, 1.0)
    knots: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.n_intervals < 1:
            raise ValueError("need at least one knot interval")
        lo, hi = self.domain
        if not hi > lo:
            raise ValueError("degenerate domain")
        step = (hi - lo) / self.n_intervals
        idx = np.arange(-self.degree, self.n_intervals + self.degree + 1)
        object.__setattr__(self, "knots", lo + idx * step)

    @property
    def n_basis(self) -> int:
        return self.n_intervals + self.degree

    def clamp(self, x: float) -> float:
        return min(max(x, self.domain[0]), self.domain[1])

    def _span(self, x: float) -> int:
        """Knot index s with knots[s] <= x < knots[s+1], right edge clamped."""
        lo, hi = self.domain
        step = (hi - lo) / self.n_intervals
        interval = min(int((x - lo) / step), self.n_intervals - 1)
        return interval + self.degree


def _nonzero_basis(knots: np.ndarray, degree: int, span: int, x: float) -> np.ndarray:
    """The degree+1 nonzero basis values at x (triangular de Boor scheme)."""
    vals = np.zeros(degree + 1)
    left = np.zeros(degree + 1)
    right = np.zeros(degree + 1)
    vals[0] = 1.0
    for d in range(1, degree + 1):
        left[d] = x - knots[span + 1 - d]
        right[d] = knots[span + d] - x
        saved = 0.0
        for r in range(d):
            tmp = vals[r] / (right[r + 1] + left[d - r])
            vals[r] = saved + right[r + 1] * tmp
            saved = left[d - r] * tmp
        vals[d] = saved
    return vals


def bspline_basis_eval(basis: BSplineBasis, x: float) -> np.ndarray:
    """All n_basis weights at scalar x; x is clamped to the domain."""
    xc = basis.clamp(float(x))
    span = basis._span(xc)
    out = np.zeros(basis.n_basis)
    out[span - basis.degree : span + 1] = _nonzero_basis(basis.knots, basis.degree, span, xc)
    return out


def bspline_basis_grad(basis: BSplineBasis, x: float) -> np.ndarray:
    """Derivative of every basis function at x.

    Uses the standard lower-degree identity
    B'_{i,k} = k * (B_{i,k-1}/(t_{i+k}-t_i) - B_{i+1,k-1}/(t_{i+k+1}-t_{i+1})).
    Outside the (closed) domain the clamped spline is constant, so the
    derivative is zero there.
    """
    xf = float(x)
    lo, hi = basis.domain
    out = np.zeros(basis.n_basis)
    if xf < lo or xf > hi:
        return out
    k = basis.degree
    t = basis.knots
    span = basis._span(xf)
    if k == 1:
        lower = np.zeros(basis.n_basis + 1)
        lower[span] = 1.0  # degree-0 indicator of the span interval
    else:
        lower = np.zeros(basis.n_basis + 1)
        lower[span - (k - 1) : span + 1] = _nonzero_basis(t, k - 1, span, xf)
    for i in range(basis.n_basis):
        left_den = t[i + k] - t[i]
        right_den = t[i + k + 1] - t[i + 1]
        term = lower[i] / left_den if left_den > 0 else 0.0
        term -= lower[i + 1] / right_den if right_den > 0 else 0.0
        out[i] = k * term
    return out


@dataclass
class KanLayer:
    """One KAN layer: per-edge spline activations plus a silu shortcut.

    spline_coeffs: (out_dim, in_dim, n_basis); shortcut_weights:
    (out_dim, in_dim). Output j sums, over inputs i, the spline value of
    x_i under edge (j, i) plus shortcut * silu(x_i).
    """

    basis: BSplineBasis
    spline_coeffs: np.ndarray
    shortcut_weights: np.ndarray

    def __post_init__(self):
        self.spline_coeffs = as_tensor(self.spline_coeffs)
        self.shortcut_weights = as_tensor(self.shortcut_weights)
        out_dim, in_dim = self.shortcut_weights.shape
        if self.spline_coeffs.shape != (out_dim, in_dim, self.basis.n_basis):
            raise ValueError(
                f"spline coefficients {self.spline_coeffs.shape} inconsistent with "
                f"shortcut {self.shortcut_weights.shape} and basis {self.basis.n_basis}"
            )

    @property
    def in_dim(self) -> int:
        return self.shortcut_weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.shortcut_weights.shape[0]

    @staticmethod
    def random(rng: np.random.Generator, in_dim: int, out_dim: int,
               basis: BSplineBasis | None = None, scale: float = 0.3) -> "KanLayer":
        basis = basis or BSplineBasis()
        return KanLayer(
            basis=basis,
            spline_coeffs=rng.normal(0.0, scale, (out_dim, in_dim, basis.n_basis)),
            shortcut_weights=rng.normal(0.0, scale, (out_dim, in_dim)),
        )


def kan_layer_forward(layer: KanLayer, x: np.ndarray) -> np.ndarray:
    x = as_tensor(x).reshape(-1)
    if x.shape[0] != layer.in_dim:
        raise ValueError(f"expected {layer.in_dim} inputs, got {x.shape[0]}")
    basis_vals = np.stack([bspline_basis_eval(layer.basis, xi) for xi in x])
    spline = np.einsum("jib,ib->j", layer.spline_coeffs, basis_vals)
    return spline + layer.shortcut_weights @ silu(x)


def kan_layer_jacobian(layer: KanLayer, x: np.ndarray) -> np.ndarray:
    """Analytic d out / d x, shape (out_dim, in_dim)."""
    x = as_tensor(x).reshape(-1)
    basis_grads = np.stack([bspline_basis_grad(layer.basis, xi) for xi in x])
    spline_j = np.einsum("jib,ib->ji", layer.spline_coeffs, basis_grads)
    return spline_j + layer.shortcut_weights * silu_grad(x)[None, :]


def kan_stack_forward(layers: list[KanLayer], x: np.ndarray) -> np.ndarray:
    out = as_tensor(x).reshape(-1)
    for layer in layers:
        out = kan_layer_forward(layer, out)
    return out


CAMERA_PARAM_DIM = 27


@dataclass(frozen=True)
class EmbedConfig:
    """Fixed per-group normalization constants for the 27-vector."""

    intrinsics_scale: float = 500.0
    rotation_scale: float = 1.0
    translation_scale: float = 5.0


@dataclass(frozen=True)
class CameraParamVector:
    """Flattened camera calibration: K (9), R (9), t (3), 6 zero pads.

    The pad slots are reserved for augmentation parameters and stay zero;
    the normalization constants applied per group are recorded alongside.
    """

    values: np.ndarray
    scales: EmbedConfig

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if v.shape[0] != CAMERA_PARAM_DIM:
            raise ValueError(f"camera vector must have {CAMERA_PARAM_DIM} entries")
        if np.any(v[21:] != 0.0):
            raise ValueError("pad slots must be zero")
        object.__setattr__(self, "values", v)


def embed_camera_params(rig: CameraRig, scales: EmbedConfig | None = None) -> CameraParamVector:
    """Deterministic flatten + per-group normalization of one rig."""
    scales = scales or EmbedConfig()
    vec = np.zeros(CAMERA_PARAM_DIM)
    vec[0:9] = rig.intrinsics.ravel() / scales.intrinsics_scale
    vec[9:18] = rig.rotation.ravel() / scales.rotation_scale
    vec[18:21] = rig.translation / scales.translation_scale
    return CameraParamVector(vec, scales)


@dataclass
class DepthNetParams:
    """Everything the depth network forward pass needs.

    The KAN stack maps the 27-vector to one gate logit per feature channel;
    a shared 1x1 convolution then splits gated features into n_depth_bins
    depth logits and n_context context channels.
    """

    kan_layers: list[KanLayer]
    split_kernel: np.ndarray
    split_bias: np.ndarray
    n_depth_bins: int
    n_context: int
    embed: EmbedConfig = field(default_factory=EmbedConfig)

    def __post_init__(self):
        self.split_kernel = as_tensor(self.split_kernel)
        self.split_bias = as_tensor(self.split_bias)
        n_out = self.n_depth_bins + self.n_context
        if self.split_kernel.shape[0] != n_out or self.split_bias.shape[0] != n_out:
            raise ValueError("split kernel/bias rows must equal n_depth_bins + n_context")
        if self.kan_layers[0].in_dim != CAMERA_PARAM_DIM:
            raise ValueError("first KAN layer must take the 27-vector")
        if self.kan_layers[-1].out_dim != self.split_kernel.shape[1]:
            raise ValueError("KAN output width must match the feature channel count")

    @property
    def n_features(self) -> int:
        return self.split_kernel.shape[1]

    @staticmethod
    def random(rng: np.random.Generator, n_features: int, n_depth_bins: int,
               n_context: int, hidden: tuple[int, ...] = (64,),
               basis: BSplineBasis | None = None) -> "DepthNetParams":
        widths = (CAMERA_PARAM_DIM,) + hidden + (n_features,)
        layers = [KanLayer.random(rng, widths[i], widths[i + 1], basis)
                  for i in range(len(widths) - 1)]
        n_out = n_depth_bins + n_context
        return DepthNetParams(
            kan_layers=layers,
            split_kernel=rng.normal(0.0, 1.0 / np.sqrt(n_features), (n_out, n_features)),
            split_bias=rng.normal(0.0, 0.1, n_out),
            n_depth_bins=n_depth_bins,
            n_context=n_context,
        )


@dataclass
class DepthNetOutputs:
    """Per-camera depth logits (C_D, H, W) and context features (C_C, H, W)."""

    depth_logits: list[np.ndarray]
    context: list[np.ndarray]
    gates: list[np.ndarray]


def camera_gates(params: DepthNetParams, rig: CameraRig) -> np.ndarray:
    """Per-channel gates in (0, 1) derived from one camera's calibration."""
    vec = embed_camera_params(rig, params.embed)
    return sigmoid(kan_stack_forward(params.kan_layers, vec.values))


def depthnet_forward(image_features: list[np.ndarray], rigs: list[CameraRig],
                     params: DepthNetParams) -> DepthNetOutputs:
    """Run the camera-aware depth head over 1-6 cameras.

    Each camera is independent (safe to parallelize); the result does not
    depend on evaluation order.
    """
    if len(image_features) == 0:
        raise ValueError("need at least one camera")
    if len(image_features) != len(rigs):
        raise ValueError("one rig per feature map required")
    logits, contexts, gate_list = [], [], []
    for feats, rig in zip(image_features, rigs):
        feats = as_tensor(feats)
        if feats.ndim != 3 or feats.shape[0] != params.n_features:
            raise ValueError(
                f"feature map {feats.shape} incompatible with {params.n_features} channels"
            )
        gates = camera_gates(params, rig)
        gated = se_excite(feats, gates)
        split = conv_pointwise(gated, params.split_kernel, params.split_bias)
        logits.append(split[: params.n_depth_bins])
        contexts.append(split[params.n_depth_bins :])
        gate_list.append(gates)
    return DepthNetOutputs(logits, contexts, gate_list)


def depthnet_input_jacobian(params: DepthNetParams, rig: CameraRig,
                            feature_shape: tuple[int, int, int]) -> np.ndarray:
    """Analytic Jacobian of the stacked (depth logits, context) output with
    respect to the flattened image features of one camera.

    The feature path is linear once the gates are fixed by the rig:
    d out[o, p] / d feat[c, p'] = kernel[o, c] * gate[c] * [p == p'].
    """
    c_f, h, w = feature_shape
    if c_f != params.n_features:
        raise ValueError("feature_shape channel count mismatch")
    gates = camera_gates(params, rig)
    n_out = params.split_kernel.shape[0]
    n_pix = h * w
    jac = np.zeros((n_out * n_pix, c_f * n_pix))
    weighted = params.split_kernel * gates[None, :]
    for o in range(n_out):
        for c in range(c_f):
            idx = np.arange(n_pix)
            jac[o * n_pix + idx, c * n_pix + idx] = weighted[o, c]
    return jac
