"""Framework-free numeric primitives for the BEV pipeline.

Dense tensors are plain float64 numpy arrays in row-major layout. All
operations here are pure and deterministic, and calling them from many
threads is safe. Only conv_pointwise has internal parallelism: its one
matrix product goes to BLAS, which may use several threads, but each
output element's sum does not depend on the thread count.

Canonical layouts used throughout the package:
    image features      (C, H, W)
    depth distribution  (C_D, H, W)
The run never builds the lifted (C_ctx, C_D, H, W) layout: each row group's
lift is summed over its rows and refined, by depth_refine (any row count) on
the (C, C_D, 1, W) sum when the group holds C/3 rows or more. lift_outer_product
stays as the test oracles' reference and as a name the benchmark's tracer patches.

It imports nothing else from bevkit, so it also owns the one input-value rule
(is_int: an int in int64's range, is_number: an int or float in float64's finite
range), the one key rule (known_keys) and the JSON reader and writer.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

TNSR_MAGIC = b"TNSR"


def is_int(v) -> bool:
    """The integer rule of every input: an int, no bool, that int64 holds, so numpy takes it."""
    return isinstance(v, int) and not isinstance(v, bool) and -2**63 <= v < 2**63


def is_number(v) -> bool:
    """The number rule of every input: an int or float, no bool, in float64's finite range."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)  # exact: NaN, inf and a huge int all fail


def known_keys(d, keys, what: str) -> dict:
    """The key rule of every JSON object read: d, when it is an object whose every key is
    in keys; otherwise one ValueError naming what and the first unknown key in sorted order."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    if unknown := d.keys() - keys:
        raise ValueError(f"unknown {what} key {min(unknown, key=str)!r}")
    return d


def json_floats(value, what: str) -> np.ndarray:
    """A parsed JSON number or nested lists of them as float64, NaN and inf included;
    ValueError naming what for any other leaf or an int beyond float range."""
    leaves = np.array(value, dtype=object)
    with contextlib.suppress(OverflowError):  # an int beyond float range
        if {int, float}.issuperset(map(type, leaves.ravel())):  # .flat stops at 32 dims
            return leaves.astype(np.float64)
    raise ValueError(f"{what} must hold only numbers, got {value!r}")


def finite_floats(value, n: int, what: str):
    """A list of n JSON numbers as a tuple of finite floats, or for n = 0 one as a float."""
    try:
        x = json_floats(value, what)
    except ValueError:
        x = None
    if x is None or x.shape != ((n,) if n else ()) or not np.isfinite(x).all():
        raise ValueError(f"{what} must be {n or 'a'} finite number{'s' * (n > 1)}, got {value!r}")
    return tuple(x.tolist()) if n else float(x)


def name_index(names: tuple[str, ...], value, what: str) -> int:
    """Position of value in names; ValueError naming what and value otherwise."""
    if not isinstance(value, str) or value not in names:
        raise ValueError(f"{what} must be one of {', '.join(map(repr, names))}; got {value!r}")
    return names.index(value)


def read_json(path, what: str = ""):
    """The parsed JSON file at path. Bad UTF-8, bad JSON or nesting too deep to parse
    raises one ValueError, "malformed <what> <path>: ..."; an OSError passes on."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as err:  # json recurses once per nesting level
        raise ValueError(f"malformed {f'{what} ' if what else ''}{path}: {err}") from err


def write_json(path, obj) -> None:
    """obj as indented, key-sorted JSON and a newline. The text is built before the file
    is opened, so an object that json cannot encode raises with the file untouched."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def as_tensor(data) -> np.ndarray:
    """Coerce input to a float64 array and verify it is finite."""
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor contains non-finite values")
    return arr


@dataclass(frozen=True)
class DepthBinSpec:
    """Uniform discretization of the depth axis into n_bins bins."""

    d_min: float
    d_max: float
    n_bins: int

    def __post_init__(self):
        if self.d_min <= 0:
            raise ValueError("d_min must be positive")
        if self.d_max <= self.d_min:
            raise ValueError("d_max must exceed d_min")
        if self.n_bins < 2:
            raise ValueError("need at least 2 depth bins")

    @property
    def bin_width(self) -> float:
        return (self.d_max - self.d_min) / self.n_bins

    def centers(self) -> np.ndarray:
        """Bin-center depths, strictly increasing, inside [d_min, d_max]."""
        return self.d_min + (np.arange(self.n_bins) + 0.5) * self.bin_width

    def index_of(self, depth) -> np.ndarray:
        """Nearest-center bin index; out-of-range depths clamp to end bins."""
        idx = np.floor((np.asarray(depth, dtype=np.float64) - self.d_min) / self.bin_width)
        return np.clip(idx, 0, self.n_bins - 1).astype(np.int64)


def softmax_over_depth(logits: np.ndarray) -> np.ndarray:
    """Per-pixel softmax along axis 0 of a (C_D, H, W) logit map.

    Max-subtracted for stability; every pixel's bin probabilities sum to 1.
    """
    logits = as_tensor(logits)
    if logits.ndim != 3:
        raise ValueError(f"expected (C_D, H, W) logits, got shape {logits.shape}")
    e = logits - logits.max(axis=0, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=0, keepdims=True)
    return e


def lift_outer_product(context: np.ndarray, p_depth: np.ndarray) -> np.ndarray:
    """Expand per-pixel context across the depth distribution.

    out[i, l, j, k] = context[i, j, k] * p_depth[l, j, k], so summing the
    result over depth bins recovers the context when p_depth is normalized.
    """
    context = as_tensor(context)
    p_depth = as_tensor(p_depth)
    if context.ndim != 3 or p_depth.ndim != 3:
        raise ValueError("context and depth distribution must be rank-3")
    if context.shape[1:] != p_depth.shape[1:]:
        raise ValueError(
            f"spatial shape mismatch: context {context.shape[1:]} vs depth {p_depth.shape[1:]}"
        )
    return context[:, None, :, :] * p_depth[None, :, :, :]


def se_excite(features: np.ndarray, gates: np.ndarray) -> np.ndarray:
    """Scale each channel of a (C, H, W) map by its gate value."""
    features = as_tensor(features)
    gates = as_tensor(gates)
    if gates.ndim != 1 or features.ndim != 3 or gates.shape[0] != features.shape[0]:
        raise ValueError(
            f"gate length {gates.shape} does not match feature channels {features.shape}"
        )
    return gates[:, None, None] * features


def conv_pointwise(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """1x1 convolution: one (C_out, C_in) @ (C_in, H*W) product plus bias.

    x: (C_in, H, W), kernel: (C_out, C_in), bias: (C_out,). The reshapes
    name every extent, so empty maps come back as the bias broadcast.
    """
    x = as_tensor(x)
    kernel = as_tensor(kernel)
    bias = as_tensor(bias)
    if x.ndim != 3 or kernel.ndim != 2 or bias.ndim != 1:
        raise ValueError("conv_pointwise expects (C_in,H,W), (C_out,C_in), (C_out,)")
    if kernel.shape[1] != x.shape[0] or kernel.shape[0] != bias.shape[0]:
        raise ValueError(
            f"shape mismatch: x {x.shape}, kernel {kernel.shape}, bias {bias.shape}"
        )
    c_in, h, w = x.shape
    return (kernel @ x.reshape(c_in, h * w)).reshape(kernel.shape[0], h, w) + bias[:, None, None]


def depth_refine(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Filter lifted features along the (depth-bin, column) plane.

    Every (C_D, W) slice of the (C_F, C_D, H, W) input is cross-correlated
    with one shared 3x3 kernel under zero padding; the result is a
    C-contiguous array of the input's shape. kernel[1, 1] is the center
    tap, so a one-hot center kernel is the identity. Zero taps are
    skipped: the input is finite, so each would add a signed zero.
    """
    x = as_tensor(x)
    kernel = as_tensor(kernel)
    if x.ndim != 4:
        raise ValueError(f"expected (C_F, C_D, H, W), got shape {x.shape}")
    if kernel.shape != (3, 3):
        raise ValueError(f"kernel must be 3x3, got {kernel.shape}")
    c_f, c_d, h, w = x.shape
    if c_d < 3:
        raise ValueError(f"need at least 3 depth bins to filter, got {c_d}")

    padded = np.zeros((c_f, c_d + 2, h, w + 2))
    padded[:, 1:-1, :, 1:-1] = x
    out = np.zeros(x.shape)
    for dj, dk in zip(*np.nonzero(kernel)):
        out += kernel[dj, dk] * padded[:, dj : dj + c_d, :, dk : dk + w]
    return out


def write_tensor(path, arr: np.ndarray) -> None:
    """Serialize a float64 array: magic, u32 rank, u32 extents, f64 payload.

    Everything little-endian.
    """
    arr = as_tensor(arr)
    with open(path, "wb") as fh:
        fh.write(TNSR_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype("<f8").tobytes())


def read_tensor(path) -> np.ndarray:
    """Inverse of write_tensor; a short or malformed file raises ValueError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != TNSR_MAGIC:
            raise ValueError(f"bad tensor magic {magic!r} in {path}")
        header = fh.read(4)
        if len(header) != 4:
            raise ValueError(f"truncated tensor header in {path}")
        (rank,) = struct.unpack("<I", header)
        if 8 + 4 * rank > size:
            raise ValueError(f"truncated tensor header in {path}")
        shape = struct.unpack(f"<{rank}I", fh.read(4 * rank))
        count = math.prod(shape)
        expected = 8 + 4 * rank + 8 * count
        if size < expected:
            raise ValueError(f"truncated tensor payload in {path}")
        if size > expected:
            raise ValueError(f"{size - expected} trailing bytes after the tensor in {path}")
        payload = fh.read(8 * count)
    arr = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    try:
        return as_tensor(arr)
    except ValueError as err:
        raise ValueError(f"{err} in {path}") from err
