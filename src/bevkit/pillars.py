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
from dataclasses import dataclass, field

import numpy as np

from .voxelpool import BEVGridConfig

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
    pillar and max_pillars caps the number of nonempty pillars kept. bev is
    the same grid as a BEVGridConfig, whose cell rule bins the points.
    """

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    grid: tuple[int, int]
    max_points: int
    max_pillars: int = 4096
    bev: BEVGridConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h, w = self.grid
        # building the view checks the ranges and the grid
        object.__setattr__(self, "bev", BEVGridConfig(self.x_range, self.y_range, w, h))
        if self.max_points < 1:
            raise ValueError("max_points (T) must be >= 1")


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


def build_pillars(cloud: RadarPointCloud, cfg: PillarGridConfig, seed: int) -> PillarTensor:
    """Bin a cloud into pillars with seeded overflow sampling.

    Pillar order is the first-occurrence order of the input stream. A
    pillar with more than T points keeps a uniform sample without
    replacement drawn from a per-pillar stream seeded by (seed, flat cell
    id), so results do not depend on pillar processing order. If more than
    max_pillars cells are occupied, the most populated ones are kept
    (first-occurrence order breaking ties) and the truncation is reported.

    Points are grouped by one stable sort on their flat cell, so each
    pillar's points keep input order and take their row from their rank in
    the group. Only pillars over T are visited one by one, for their draw.
    Each point's 9-D row holds (x, y, z, r), its offset from the mean of
    the pillar's kept points and its (x, y) offset from the cell center.
    """
    t_cap = cfg.max_points
    inside, flat = cfg.bev.cell_ids(cloud.points)
    pts = cloud.points[inside]

    by_cell = np.argsort(flat, kind="stable")
    cells, first, counts = np.unique(flat, return_index=True, return_counts=True)
    starts = np.cumsum(counts) - counts
    truncated = max(0, len(cells) - cfg.max_pillars)
    kept = np.arange(len(cells))
    if truncated:
        kept = np.lexsort((first, -counts))[: cfg.max_pillars]
        logger.warning("dropped %d pillars beyond the %d most populated",
                       truncated, cfg.max_pillars)
    kept = kept[np.argsort(first[kept])]
    n_pillars = len(kept)

    # pillar and row of every point in cell order; dropped cells get pillar -1
    pillar_of = np.full(len(cells), -1)
    pillar_of[kept] = np.arange(n_pillars)
    pillar = np.repeat(pillar_of, counts)
    rank = np.arange(len(flat)) - np.repeat(starts, counts)
    take = (pillar >= 0) & (rank < t_cap)
    features = np.zeros((n_pillars, t_cap, 9))
    xyzr = features[:, :, :4]
    xyzr[pillar[take], rank[take]] = pts[by_cell[take]]
    for p in np.flatnonzero(counts[kept] > t_cap).tolist():
        cell = kept[p]
        rng = np.random.default_rng([seed, int(cells[cell])])
        chosen = np.sort(rng.choice(int(counts[cell]), size=t_cap, replace=False))
        xyzr[p] = pts[by_cell[starts[cell] + chosen]]

    n_kept = np.minimum(counts[kept], t_cap)
    real = np.arange(t_cap) < n_kept[:, None]
    # adds each pillar's points in rank order (padding adds +0.0), as a
    # per-pillar mean would
    mean = xyzr[:, :, :3].sum(axis=1) / n_kept[:, None]
    cell_iy, cell_ix = np.divmod(cells[kept], cfg.bev.nx)
    center = cfg.bev.cell_center(cell_ix, cell_iy)
    features[:, :, 4:7] = np.where(real[:, :, None], xyzr[:, :, :3] - mean[:, None], 0.0)
    features[:, :, 7:9] = np.where(real[:, :, None], xyzr[:, :, :2] - center[:, None], 0.0)
    return PillarTensor(features, np.column_stack([cell_ix, cell_iy]), n_kept, truncated)


def vfe_forward(pillars: PillarTensor, weights: VfeWeights) -> np.ndarray:
    """Encode each pillar to a C-vector: affine, relu, max over its real points.

    Only the real rows (rank below the pillar's count) are encoded, so zero
    padding cannot dominate pillars whose real activations are all negative
    pre-rectifier. They are contiguous per pillar in (pillar, rank) order,
    and one max reduction at the count offsets gives every pillar's vector.
    """
    feats, counts = pillars.features, pillars.point_counts
    if feats.ndim != 3 or feats.shape[2] != 9:
        raise ValueError(f"pillar features must be (P, T, 9), got {feats.shape}")
    if counts.shape != feats.shape[:1]:
        raise ValueError(f"point counts of shape {counts.shape} for {feats.shape[0]} pillars")
    if counts.size and (counts.min() < 1 or counts.max() > feats.shape[1]):
        raise ValueError(f"point counts must lie in [1, {feats.shape[1]}]")
    real = feats[np.arange(feats.shape[1]) < counts[:, None]]
    # einsum, not a BLAS matmul, which would round the 9-term sums differently
    mapped = np.maximum(0.0, np.einsum("nd,cd->nc", real, weights.weight) + weights.bias)
    return np.maximum.reduceat(mapped, np.cumsum(counts) - counts, axis=0)


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
        size, expected = os.fstat(fh.fileno()).st_size, PC4D_HEADER_BYTES + 16 * count
        if size < expected:
            raise ValueError(f"truncated point cloud in {path}")
        if size > expected:
            raise ValueError(f"{size - expected} trailing bytes after {count} points in {path}")
        payload = fh.read(16 * count)
    pts = np.frombuffer(payload, dtype="<f4").reshape(count, 4)
    try:
        return RadarPointCloud(pts.astype(np.float64))
    except ValueError as err:
        raise ValueError(f"{err} in {path}") from err


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
