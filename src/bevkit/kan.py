"""Kolmogorov-Arnold layers and the camera-aware depth network head.

A KAN layer routes every input through two branches per edge: a learnable
B-spline activation and a fixed smooth-rectifier shortcut. The B-spline
basis of every input of a layer comes from one array Cox-de Boor recursion
(``_basis_levels``), which also yields the lower degree that the basis
derivatives need. The depth network embeds each camera's calibration as a
plain 27-vector, maps it through a small KAN stack to per-channel gates,
excites the backbone features with those gates, and splits the result into
depth logits and context features with a 1x1 convolution. The pipeline
runs it with the BEV head's 1x1 conv folded into the split's context rows,
so there the "context" it returns is 10 class-logit rows.

Analytic Jacobians are provided for both the layer and the feature path of
the depth network (a Kronecker product: the path is per-pixel linear once
the gates are fixed); tests check them against central finite differences.
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
    """Logistic function, equal bit for bit to the two-branch form
    1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below: with
    e = exp(-|x|), the numerator max(e, x >= 0) is 1 or e. Neither exp can
    overflow, and NaN stays NaN. e and the result are worked in place."""
    e = np.asarray(np.abs(x))  # abs of a 0-d array is a scalar
    np.exp(np.negative(e, out=e), out=e)
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out


_LO, _HI = -1.0, 1.0  # the spline domain


@dataclass(frozen=True)
class BSplineBasis:
    """Uniformly extended B-spline basis of the given degree on [-1, 1].

    n_intervals interior knot spans give n_intervals + degree basis
    functions; inside the domain they are non-negative and sum to one.
    Inputs outside [-1, 1] are clamped to the boundary before evaluation.
    """

    degree: int = 3
    n_intervals: int = 8
    knots: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.n_intervals < 1:
            raise ValueError("need at least one knot interval")
        step = (_HI - _LO) / self.n_intervals
        idx = np.arange(-self.degree, self.n_intervals + self.degree + 1)
        object.__setattr__(self, "knots", _LO + idx * step)

    @property
    def n_basis(self) -> int:
        return self.n_intervals + self.degree


def _basis_levels(basis: BSplineBasis, x: np.ndarray) -> list[np.ndarray]:
    """Basis values of every degree 0..k at each x, clamped to the domain.

    levels[d] has shape (len(x), len(knots) - d - 1). Degree 0 is a one-hot
    at the knot span, the right edge clamped into the last interval; each
    higher degree follows from the one below by the Cox-de Boor recursion
    over all knots at once. The knots are uniform, so no denominator is zero.
    """
    t = basis.knots
    x = np.clip(x, _LO, _HI)
    step = (_HI - _LO) / basis.n_intervals
    span = np.minimum(((x - _LO) / step).astype(np.int64), basis.n_intervals - 1) + basis.degree
    level = np.zeros((len(x), len(t) - 1))
    level[np.arange(len(x)), span] = 1.0
    levels = [level]
    xc = x[:, None]
    for d in range(1, basis.degree + 1):
        m = len(t) - d - 1
        level = ((xc - t[:m]) / (t[d : d + m] - t[:m]) * level[:, :-1]
                 + (t[d + 1 :] - xc) / (t[d + 1 :] - t[1 : m + 1]) * level[:, 1:])
        levels.append(level)
    return levels


def _basis_grads(basis: BSplineBasis, x: np.ndarray) -> np.ndarray:
    """(len(x), n_basis) derivatives: the lower-degree identity
    B'_{i,k} = k * (B_{i,k-1}/(t_{i+k}-t_i) - B_{i+1,k-1}/(t_{i+k+1}-t_{i+1})).
    Outside the (closed) domain the clamped spline is constant, so the
    derivative is zero there.
    """
    k, n, t = basis.degree, basis.n_basis, basis.knots
    lower = _basis_levels(basis, x)[k - 1]
    grads = k * (lower[:, :-1] / (t[k : k + n] - t[:n])
                 - lower[:, 1:] / (t[k + 1 :] - t[1 : n + 1]))
    grads[(x < _LO) | (x > _HI)] = 0.0
    return grads


def bspline_basis_eval(basis: BSplineBasis, x: float) -> np.ndarray:
    """All n_basis weights at scalar x; x is clamped to the domain."""
    return _basis_levels(basis, np.array([float(x)]))[-1][0]


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
    def random(rng: np.random.Generator, in_dim: int, out_dim: int) -> "KanLayer":
        basis = BSplineBasis()
        return KanLayer(
            basis=basis,
            spline_coeffs=rng.normal(0.0, 0.3, (out_dim, in_dim, basis.n_basis)),
            shortcut_weights=rng.normal(0.0, 0.3, (out_dim, in_dim)),
        )


def kan_layer_forward(layer: KanLayer, x: np.ndarray) -> np.ndarray:
    x = as_tensor(x).reshape(-1)
    if x.shape[0] != layer.in_dim:
        raise ValueError(f"expected {layer.in_dim} inputs, got {x.shape[0]}")
    spline = np.einsum("jib,ib->j", layer.spline_coeffs, _basis_levels(layer.basis, x)[-1])
    return spline + layer.shortcut_weights @ silu(x)


def kan_layer_jacobian(layer: KanLayer, x: np.ndarray) -> np.ndarray:
    """Analytic d out / d x, shape (out_dim, in_dim)."""
    x = as_tensor(x).reshape(-1)
    spline_j = np.einsum("jib,ib->ji", layer.spline_coeffs, _basis_grads(layer.basis, x))
    return spline_j + layer.shortcut_weights * silu_grad(x)[None, :]


def kan_stack_forward(layers: list[KanLayer], x: np.ndarray) -> np.ndarray:
    out = as_tensor(x).reshape(-1)
    for layer in layers:
        out = kan_layer_forward(layer, out)
    return out


CAMERA_PARAM_DIM = 27
# per-group normalization of the 27-vector
INTRINSICS_SCALE = 500.0
ROTATION_SCALE = 1.0
TRANSLATION_SCALE = 5.0


def embed_camera_params(rig: CameraRig) -> np.ndarray:
    """Flatten one rig to the (27,) vector: K (9), R (9), t (3), each group
    divided by its scale, then 6 zero pads reserved for augmentation."""
    vec = np.zeros(CAMERA_PARAM_DIM)
    vec[0:9] = rig.intrinsics.ravel() / INTRINSICS_SCALE
    vec[9:18] = rig.rotation.ravel() / ROTATION_SCALE
    vec[18:21] = rig.translation / TRANSLATION_SCALE
    return vec


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
               n_context: int, hidden: tuple[int, ...] = (64,)) -> "DepthNetParams":
        widths = (CAMERA_PARAM_DIM,) + hidden + (n_features,)
        layers = [KanLayer.random(rng, widths[i], widths[i + 1])
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
    return sigmoid(kan_stack_forward(params.kan_layers, embed_camera_params(rig)))


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
    return np.kron(params.split_kernel * gates[None, :], np.eye(h * w))
