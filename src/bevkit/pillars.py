"""Radar pillar stream: voxelize, augment to 9-D, encode, scatter.

Points are binned into vertical (x, y) pillars, each pillar capped at T
points by seeded sampling, padded with zeros below T, run through a small
voxel feature encoder, and scattered into a dense C x H x W pseudo image
whose cells line up with the BEV grid.
"""

from __future__ import annotations

import logging
import os
import struct
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

PC4D_MAGIC = b"PC4D"
PC4D_HEADER_BYTES = 16


@dataclass(frozen=True)
class RadarPointCloud:
    """N x 4 array of (x, y, z) meters plus non-negative reflectivity."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 4)
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite values")
        if np.any(pts[:, 3] < 0):
            raise ValueError("reflectivity must be non-negative")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class PillarGridConfig:
    """H x W pillar grid spanning the given ranges exactly.

    grid is (H, W) = (rows along y, columns along x); T caps points per
    pillar and max_pillars caps the number of nonempty pillars kept.
    """

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    grid: tuple[int, int]
    max_points: int
    max_pillars: int = 4096

    def __post_init__(self):
        if self.x_range[1] <= self.x_range[0] or self.y_range[1] <= self.y_range[0]:
            raise ValueError("ranges must be increasing")
        h, w = self.grid
        if h < 1 or w < 1:
            raise ValueError("grid must be at least 1x1")
        if self.max_points < 1:
            raise ValueError("max_points (T) must be >= 1")

    @property
    def pillar_size(self) -> tuple[float, float]:
        """(dx, dy): derived so the grid spans the ranges exactly."""
        h, w = self.grid
        return ((self.x_range[1] - self.x_range[0]) / w,
                (self.y_range[1] - self.y_range[0]) / h)

    def pillar_center(self, ix: int, iy: int) -> np.ndarray:
        dx, dy = self.pillar_size
        return np.array([self.x_range[0] + (ix + 0.5) * dx,
                         self.y_range[0] + (iy + 0.5) * dy])


@dataclass
class PillarTensor:
    """Padded per-pillar features plus cell coordinates and real counts.

    features: (P, T, 9), pillar_coords: (P, 2) int (x-index, y-index),
    point_counts: (P,). Rows at or beyond a pillar's count are all-zero.
    """

    features: np.ndarray
    pillar_coords: np.ndarray
    point_counts: np.ndarray
    truncated_pillars: int = 0


@dataclass
class PseudoImage:
    """Dense (C, H, W) grid of pillar features; empty cells stay zero."""

    data: np.ndarray


@dataclass(frozen=True)
class VfeWeights:
    """Single affine + rectifier stage mapping 9-D points to C channels."""

    weight: np.ndarray  # (C, 9)
    bias: np.ndarray  # (C,)

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64).reshape(-1)
        if w.ndim != 2 or w.shape[1] != 9 or w.shape[0] != b.shape[0]:
            raise ValueError(f"VFE weights must be (C, 9)/(C,), got {w.shape}/{b.shape}")
        if w.shape[0] <= 0:
            raise ValueError("output channel count must be positive")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @staticmethod
    def random(rng: np.random.Generator, channels: int, scale: float = 0.5) -> "VfeWeights":
        return VfeWeights(rng.normal(0.0, scale, (channels, 9)),
                          rng.normal(0.0, scale, channels))


def augment_points(pillar_points: np.ndarray, pillar_center: np.ndarray) -> np.ndarray:
    """Expand n x 4 pillar points to the 9-D encoding.

    Columns 0-3 copy (x, y, z, r); 4-6 are offsets from the pillar's point
    cluster mean; 7-8 are (x, y) offsets from the pillar cell center.
    """
    pts = np.asarray(pillar_points, dtype=np.float64).reshape(-1, 4)
    if pts.shape[0] == 0:
        raise ValueError("cannot augment an empty pillar")
    center = np.asarray(pillar_center, dtype=np.float64).reshape(2)
    out = np.zeros((pts.shape[0], 9))
    out[:, :4] = pts
    out[:, 4:7] = pts[:, :3] - pts[:, :3].mean(axis=0)
    out[:, 7:9] = pts[:, :2] - center
    return out


def build_pillars(cloud: RadarPointCloud, cfg: PillarGridConfig, seed: int) -> PillarTensor:
    """Bin a cloud into pillars with seeded overflow sampling.

    Pillar order is the first-occurrence order of the input stream. A
    pillar with more than T points keeps a uniform sample without
    replacement drawn from a per-pillar stream seeded by (seed, flat cell
    id), so results do not depend on pillar processing order. If more than
    max_pillars cells are occupied, the most populated ones are kept
    (first-occurrence order breaking ties) and the truncation is reported.
    """
    pts = cloud.points
    h, w = cfg.grid
    dx, dy = cfg.pillar_size
    t_cap = cfg.max_points

    ix = np.floor((pts[:, 0] - cfg.x_range[0]) / dx).astype(np.int64)
    iy = np.floor((pts[:, 1] - cfg.y_range[0]) / dy).astype(np.int64)
    inside = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
    pts, ix, iy = pts[inside], ix[inside], iy[inside]
    flat = iy * w + ix

    order: list[int] = []
    members: dict[int, list[int]] = {}
    for i, cell in enumerate(flat.tolist()):
        if cell not in members:
            members[cell] = []
            order.append(cell)
        members[cell].append(i)

    truncated = 0
    if len(order) > cfg.max_pillars:
        pos = {cell: i for i, cell in enumerate(order)}
        keep = sorted(order, key=lambda c: (-len(members[c]), pos[c]))[: cfg.max_pillars]
        keep_set = set(keep)
        truncated = len(order) - cfg.max_pillars
        order = [c for c in order if c in keep_set]
        logger.warning("dropped %d pillars beyond the %d most populated",
                       truncated, cfg.max_pillars)

    n_pillars = len(order)
    features = np.zeros((n_pillars, t_cap, 9))
    coords = np.zeros((n_pillars, 2), dtype=np.int64)
    counts = np.zeros(n_pillars, dtype=np.int64)
    for p, cell in enumerate(order):
        idx = members[cell]
        if len(idx) > t_cap:
            rng = np.random.default_rng([seed, cell])
            chosen = rng.choice(len(idx), size=t_cap, replace=False)
            idx = [idx[i] for i in sorted(chosen.tolist())]
        cell_iy, cell_ix = divmod(cell, w)
        center = cfg.pillar_center(cell_ix, cell_iy)
        features[p, : len(idx)] = augment_points(pts[idx], center)
        coords[p] = (cell_ix, cell_iy)
        counts[p] = len(idx)
    return PillarTensor(features, coords, counts, truncated)


def vfe_forward(pillars: PillarTensor, weights: VfeWeights) -> np.ndarray:
    """Encode each pillar to a C-vector: affine, relu, masked max over T.

    Padding rows are excluded from the max so zero padding cannot dominate
    pillars whose real activations are all negative pre-rectifier.
    """
    feats = pillars.features
    _, t_cap, _ = feats.shape
    mapped = np.maximum(0.0, np.einsum("ptd,cd->ptc", feats, weights.weight) + weights.bias)
    mask = np.arange(t_cap)[None, :] < pillars.point_counts[:, None]
    mapped = np.where(mask[:, :, None], mapped, -np.inf)
    out = mapped.max(axis=1)
    out[~np.isfinite(out)] = 0.0  # pillars with count 0 cannot occur, but stay safe
    return out


def scatter_to_pseudo_image(features: np.ndarray, coords: np.ndarray,
                            cfg: PillarGridConfig) -> PseudoImage:
    """Write each pillar's C-vector at its grid cell; empty cells stay zero."""
    features = np.asarray(features, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
    h, w = cfg.grid
    if features.ndim != 2 or features.shape[0] != coords.shape[0]:
        raise ValueError("features and coords must pair up")
    if coords.size and (coords[:, 0].min() < 0 or coords[:, 0].max() >= w
                        or coords[:, 1].min() < 0 or coords[:, 1].max() >= h):
        raise ValueError("pillar coordinate outside the grid")
    c = features.shape[1]
    data = np.zeros((c, h, w))
    data[:, coords[:, 1], coords[:, 0]] = features.T
    return PseudoImage(data)


def gather_from_pseudo_image(image: PseudoImage, coords: np.ndarray) -> np.ndarray:
    """Read back the C-vectors at the given (x, y) cells."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
    return image.data[:, coords[:, 1], coords[:, 0]].T


def write_pc4d(path, points: np.ndarray) -> None:
    """Write an N x 4 cloud: 16-byte header (magic, u32 count, zero pad),
    then little-endian f32 rows."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 4)
    with open(path, "wb") as fh:
        fh.write(PC4D_MAGIC)
        fh.write(struct.pack("<I", pts.shape[0]))
        fh.write(b"\x00" * (PC4D_HEADER_BYTES - 8))
        fh.write(pts.astype("<f4").tobytes())


def read_pc4d(path) -> RadarPointCloud:
    with open(path, "rb") as fh:
        header = fh.read(PC4D_HEADER_BYTES)
        if len(header) != PC4D_HEADER_BYTES or header[:4] != PC4D_MAGIC:
            raise ValueError(f"bad point cloud header in {path}")
        (count,) = struct.unpack("<I", header[4:8])
        if PC4D_HEADER_BYTES + 16 * count > os.fstat(fh.fileno()).st_size:
            raise ValueError(f"truncated point cloud in {path}")
        payload = fh.read(16 * count)
    pts = np.frombuffer(payload, dtype="<f4").reshape(count, 4)
    return RadarPointCloud(pts.astype(np.float64))


def read_cloud_csv(path) -> RadarPointCloud:
    """CSV import with an x,y,z,r header row."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().lower().replace(" ", "")
        if header != "x,y,z,r":
            raise ValueError(f"expected 'x,y,z,r' header, got {header!r}")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=np.float64)
    if rows.size == 0:
        rows = np.zeros((0, 4))
    return RadarPointCloud(rows)
