"""Radar pillar stream: voxelize, encode, scatter.

Points are binned into vertical (x, y) pillars, each pillar capped at T
points by seeded sampling and kept as rows, run through a small voxel
feature encoder in factored form (no padded 9-D tensor), and scattered into
a dense C x H x W pseudo image whose cells line up with the BEV grid.
"""

from __future__ import annotations

import logging
import os
import struct
import warnings
from dataclasses import dataclass, field
from functools import cached_property

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


# the raw column that each offset column (4-8 of a 9-D row) is taken from
_OFFSET_OF = [0, 1, 2, 0, 1]


@dataclass
class PillarTensor:
    """Kept radar points as (N, 4) rows, pillar by pillar in rank order.

    point_counts (P,) lie in [1, max_points] and sum to N; pillar_coords (P, 2) are int
    (x, y) indices and centers (P, 2) their cell centers. points_in_range and occupied_cells
    (sorted flat ids) count every binned point and cell, truncated pillars included.
    """

    points: np.ndarray
    point_counts: np.ndarray
    pillar_coords: np.ndarray
    centers: np.ndarray
    max_points: int
    truncated_pillars: int
    points_in_range: int
    occupied_cells: np.ndarray

    def __post_init__(self):
        pts, counts, n = self.points, self.point_counts, len(self.pillar_coords)
        if pts.ndim != 2 or pts.shape[1] != 4:
            raise ValueError(f"pillar points must be (N, 4), got {pts.shape}")
        if (counts.shape != (n,) or n and (counts.min() < 1 or counts.max() > self.max_points)
                or counts.sum() != len(pts)):
            raise ValueError(f"point counts of shape {counts.shape} for {n} pillars must lie "
                             f"in [1, {self.max_points}] and sum to the {len(pts)} points")

    def offsets(self) -> np.ndarray:
        """(P, 5) pillar constants of the offset columns: mean (x, y, z), whose sums add
        the points one by one in rank order (add.reduceat rounds otherwise), and center."""
        counts = self.point_counts
        pillar = np.repeat(np.arange(len(counts)), counts)
        mean = [np.bincount(pillar, self.points[:, k], len(counts)) / counts for k in range(3)]
        return np.column_stack(mean + [self.centers])

    @cached_property
    def features(self) -> np.ndarray:
        """(P, T, 9) padded view: (x, y, z, r), the offset from the pillar mean and
        the (x, y) offset from the cell center; rows at or beyond a count are zero."""
        real = np.arange(self.max_points) < self.point_counts[:, None]
        out = np.zeros(real.shape + (9,))
        out[real] = np.hstack([self.points, self.points[:, _OFFSET_OF]
                               - np.repeat(self.offsets(), self.point_counts, axis=0)])
        return out


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
    def random(rng: np.random.Generator, channels: int) -> "VfeWeights":
        return VfeWeights(rng.normal(0.0, 0.5, (channels, 9)), rng.normal(0.0, 0.5, channels))


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
    """
    t_cap = cfg.max_points
    inside, flat = cfg.bev.cell_ids(cloud.points)
    pts = cloud.points.compress(inside, axis=0)

    # a stable sort has one result, so numpy's radix sort of narrow ids (uint16 on 128x128)
    # serves; it also gives np.unique's cells, first, counts
    by_cell = np.argsort(flat.astype(np.min_scalar_type(cfg.bev.nx * cfg.bev.ny - 1)),
                         kind="stable")
    starts = np.flatnonzero(np.diff(flat[by_cell], prepend=-1))
    first, counts = by_cell[starts], np.diff(starts, append=len(flat))
    cells = flat[first]
    truncated = max(0, len(cells) - cfg.max_pillars)
    kept = np.arange(len(cells))
    if truncated:
        kept = np.lexsort((first, -counts))[: cfg.max_pillars]
        logger.warning("dropped %d pillars beyond the %d most populated",
                       truncated, cfg.max_pillars)
    kept = kept[np.argsort(first[kept])]
    n_kept = np.minimum(counts[kept], t_cap)
    offset = np.cumsum(n_kept) - n_kept

    # pillar and rank of every point in cell order; dropped cells get pillar -1
    pillar_of = np.full(len(cells), -1)
    pillar_of[kept] = np.arange(len(kept))
    pillar = np.repeat(pillar_of, counts)
    rank = np.arange(len(flat)) - np.repeat(starts, counts)
    take = (pillar >= 0) & (rank < t_cap)
    # source row of each kept point, pillar by pillar in rank order
    src = np.empty(int(n_kept.sum()), dtype=np.int64)
    src[offset[pillar[take]] + rank[take]] = by_cell[take]
    for p in np.flatnonzero(counts[kept] > t_cap).tolist():
        cell = kept[p]
        rng = np.random.default_rng([seed, int(cells[cell])])
        chosen = np.sort(rng.choice(int(counts[cell]), size=t_cap, replace=False))
        src[offset[p]:offset[p] + t_cap] = by_cell[starts[cell] + chosen]

    cell_iy, cell_ix = np.divmod(cells[kept], cfg.bev.nx)
    return PillarTensor(pts.take(src, axis=0), n_kept, np.column_stack([cell_ix, cell_iy]),
                        cfg.bev.cell_center(cell_ix, cell_iy), t_cap, truncated,
                        len(flat), cells)


def vfe_forward(pillars: PillarTensor, weights: VfeWeights) -> np.ndarray:
    """Encode each pillar to a C-vector: affine, relu, max over its real points.

    Offset columns are the point minus a pillar constant, so W.f + b = W'.(x, y, z, r) + c,
    with W's offset columns folded into W' and c = b - W[:, 4:].offsets. Max and relu
    commute with adding c: one (C, 4) @ (4, N) product, one max per pillar, relu(max + c).
    """
    w, counts = weights.weight, pillars.point_counts
    folded = w[:, :4] + w[:, 4:] @ np.eye(4)[_OFFSET_OF]
    peak = np.maximum.reduceat(folded @ pillars.points.T, np.cumsum(counts) - counts, axis=1)
    return np.maximum(0.0, peak + weights.bias[:, None] - w[:, 4:] @ pillars.offsets().T).T


def scatter_to_pseudo_image(features: np.ndarray, coords: np.ndarray,
                            cfg: PillarGridConfig) -> np.ndarray:
    """The (C, H, W) pseudo image: each pillar's C-vector at its cell, empty cells zero."""
    features = np.asarray(features, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
    h, w = cfg.grid
    if features.ndim != 2 or features.shape[0] != coords.shape[0]:
        raise ValueError("features and coords must pair up")
    if coords.size and (coords[:, 0].min() < 0 or coords[:, 0].max() >= w
                        or coords[:, 1].min() < 0 or coords[:, 1].max() >= h):
        raise ValueError("pillar coordinate outside the grid")
    c = features.shape[1]
    image = np.zeros((c, h, w))
    image[:, coords[:, 1], coords[:, 0]] = features.T
    return image


def gather_from_pseudo_image(image: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Read back the C-vectors at the given (x, y) cells of a (C, H, W) pseudo image."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
    return image[:, coords[:, 1], coords[:, 0]].T


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
        if len(header) != PC4D_HEADER_BYTES or header[:4] != PC4D_MAGIC or any(header[8:]):
            raise ValueError(f"bad point cloud header (magic PC4D, count, 8 zero bytes) in {path}")
        (count,) = struct.unpack("<I", header[4:8])
        size, expected = os.fstat(fh.fileno()).st_size, PC4D_HEADER_BYTES + 16 * count
        if size < expected:
            raise ValueError(f"truncated point cloud in {path}")
        if size > expected:
            raise ValueError(f"{size - expected} trailing bytes after {count} points in {path}")
        payload = fh.read(16 * count)
    with np.errstate(invalid="ignore"):  # a signalling NaN warns in the cast; the cloud rejects it
        pts = np.frombuffer(payload, dtype="<f4").reshape(count, 4).astype(np.float64)
    try:
        return RadarPointCloud(pts)
    except ValueError as err:
        raise ValueError(f"{err} in {path}") from err


def read_cloud_csv(path) -> RadarPointCloud:
    """CSV import with an x,y,z,r header row; a malformed file raises a ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = fh.readline().strip().lower().replace(" ", "")
            if header != "x,y,z,r":
                raise ValueError(f"expected 'x,y,z,r' header, got {header!r}")
            with warnings.catch_warnings():  # a header-only file is a valid, empty cloud
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=np.float64)
            if rows.size and rows.shape[1] != 4:
                raise ValueError(f"expected 4 columns, got {rows.shape[1]}")
            return RadarPointCloud(rows if rows.size else np.zeros((0, 4)))
        except ValueError as err:
            raise ValueError(f"point cloud CSV {path}: {err}") from err
