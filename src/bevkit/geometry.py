"""Pinhole projection, depth-map rasterization, and frustums.

Pixel convention, used everywhere in this package: (u, v) = (column, row),
origin at the top-left image corner, integer pixel (floor(u), floor(v)).
Projection produces depth-scaled homogeneous triples (u*d, v*d, d); rows
with d <= 0 are behind the camera and never rasterized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nnprims import is_int, is_number
from .voxelpool import BEVGridConfig

DEPTH_SENTINEL = -1.0

_ORTHO_TOL = 1e-9


def _check_rotation(rot: np.ndarray, what: str) -> np.ndarray:
    rot = np.asarray(rot, dtype=np.float64)
    if rot.shape != (3, 3):
        raise ValueError(f"{what} rotation must be 3x3, got {rot.shape}")
    # entries of an orthonormal matrix lie in [-1, 1]; a larger one would overflow rot.T @ rot
    if not np.all(np.abs(rot) <= 1.0 + _ORTHO_TOL):
        raise ValueError(f"{what} rotation must be finite with entries in [-1, 1]")
    if np.max(np.abs(rot.T @ rot - np.eye(3))) > _ORTHO_TOL:
        raise ValueError(f"{what} rotation is not orthonormal")
    if abs(np.linalg.det(rot) - 1.0) > _ORTHO_TOL:
        raise ValueError(f"{what} rotation must have determinant 1")
    return rot


@dataclass(frozen=True)
class CameraRig:
    """One camera: intrinsics K, sensor-to-camera rotation R, translation t.

    intrinsics are in pixels, translation in meters, image_size is
    (height, width) in pixels.
    """

    intrinsics: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    image_size: tuple[int, int]

    def __post_init__(self):
        k = np.asarray(self.intrinsics, dtype=np.float64)
        if k.shape != (3, 3):
            raise ValueError(f"intrinsics must be 3x3, got {k.shape}")
        if not np.all(np.isfinite(k)):
            raise ValueError("intrinsics must be finite")
        lower = np.abs(np.tril(k, -1))
        if lower.max() > 1e-12:
            raise ValueError("intrinsics must be upper-triangular")
        if np.any(np.diag(k) <= 0):
            raise ValueError("intrinsic diagonal must be strictly positive")
        rot = _check_rotation(self.rotation, "camera")
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(t)):
            raise ValueError("camera translation must be finite")
        h, w = self.image_size
        if not all(is_int(v) and v >= 1 for v in (h, w)):
            raise ValueError(f"image_size must be two integers >= 1, got {self.image_size}")
        object.__setattr__(self, "intrinsics", k)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "image_size", (int(h), int(w)))

    def scaled(self, factor_y: float, factor_x: float) -> "CameraRig":
        """Rig for a resampled image, e.g. a stride-16 feature map."""
        with np.errstate(over="ignore"):  # an entry that overflows fails the finite check
            k = np.diag([factor_x, factor_y, 1.0]) @ self.intrinsics
        h, w = self.image_size
        return CameraRig(
            intrinsics=k,
            rotation=self.rotation,
            translation=self.translation,
            image_size=(max(1, round(h * factor_y)), max(1, round(w * factor_x))),
        )


@dataclass(frozen=True)
class EgoPose:
    """Rigid ego-to-global transform at one timestamp."""

    rotation: np.ndarray
    translation: np.ndarray
    timestamp: float = 0.0

    def __post_init__(self):
        if not is_number(self.timestamp):
            raise ValueError(f"ego timestamp must be a finite number, got {self.timestamp!r}")
        rot = _check_rotation(self.rotation, "ego")
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(t)):
            raise ValueError("ego translation must be finite")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "timestamp", float(self.timestamp))

    @staticmethod
    def identity(timestamp: float = 0.0) -> "EgoPose":
        return EgoPose(np.eye(3), np.zeros(3), timestamp)


@dataclass
class DepthMap:
    """Per-pixel depth in meters; pixels with no observation hold -1."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("depth map must be 2-D")
        covered = self.values != DEPTH_SENTINEL
        if np.any(self.values[covered] <= 0):
            raise ValueError("non-sentinel depth values must be positive")

    def coverage_mask(self) -> np.ndarray:
        return self.values != DEPTH_SENTINEL

    def nearest(self, other: "DepthMap") -> "DepthMap":
        """Per-pixel nearest depth of two maps, the sentinel where neither covers a pixel."""
        a, b = self.values, other.values
        return DepthMap(np.where((a < 0) | (b < 0), np.maximum(a, b), np.minimum(a, b)))


@dataclass
class FrustumGrid:
    """(u, v) pixels, each sampled at every depth; samples are depth-major.

    All pixels at depth 0 come first, in pixel order (row-major for a
    regular grid), matching the flattening of lifted (C_D, H, W) features.
    """

    pixels: np.ndarray
    depths: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64).reshape(-1, 2)
        self.depths = np.asarray(self.depths, dtype=np.float64)
        if self.depths.ndim != 1 or self.depths.size < 1:
            raise ValueError("depths must be a non-empty 1-D array")
        if np.any(np.diff(self.depths) <= 0):
            raise ValueError("depth bins must be strictly increasing")

    @property
    def samples(self) -> np.ndarray:
        """(D*P, 3) (u, v, d) triples in sample order."""
        return np.column_stack([np.tile(self.pixels, (self.depths.size, 1)),
                                np.repeat(self.depths, len(self.pixels))])

    @staticmethod
    def regular(feature_size: tuple[int, int], depths: np.ndarray) -> "FrustumGrid":
        """Every feature-map pixel center at each given depth bin.

        The samples are in feature-map pixels, so they pair with a rig
        scaled to the feature map (CameraRig.scaled).
        """
        rows, cols = feature_size
        vv, uu = np.meshgrid(np.arange(rows) + 0.5, np.arange(cols) + 0.5, indexing="ij")
        return FrustumGrid(np.column_stack([uu.ravel(), vv.ravel()]), depths)


def project_points(points: np.ndarray, rig: CameraRig) -> np.ndarray:
    """Project ego-frame points to depth-scaled pixel triples (u*d, v*d, d).

    Rows with d <= 0 are behind the camera; callers exclude them before
    rasterization. Non-finite input points are rejected with their indices.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(points).all():
        bad = ~np.isfinite(points).all(axis=1)
        raise ValueError(f"non-finite points at indices {np.flatnonzero(bad).tolist()}")
    # a contiguous transpose takes numpy's fast matmul path; the transposed view does not
    cam = points @ np.ascontiguousarray(rig.rotation.T)
    cam += rig.translation
    with np.errstate(over="ignore"):  # overflow gives +-inf, which no pixel keeps as a depth
        return cam @ np.ascontiguousarray(rig.intrinsics.T)


def in_front_mask(projected: np.ndarray) -> np.ndarray:
    return projected[:, 2] > 0


def rasterize_depth_map(projected: np.ndarray, image_size: tuple[int, int]
                        ) -> tuple[DepthMap, int]:
    """Rasterize projected points into a nearest-depth (min) map.

    Each pixel keeps the minimum depth of all points landing on it, so the
    occluding surface wins. Points outside the image are dropped; the
    dropped count is returned alongside the map.
    """
    projected = np.asarray(projected, dtype=np.float64).reshape(-1, 3)
    d = projected[:, 2]
    if np.any(d <= 0):
        raise ValueError("rasterize_depth_map requires positive depths; filter first")
    h, w = image_size
    grid = np.full(h * w, np.inf)
    # pixel (floor(u), floor(v)) is the one cell rule on a grid of unit cells
    with np.errstate(over="ignore", invalid="ignore"):
        inside, cells = BEVGridConfig((0, w), (0, h), w, h).cell_ids(projected[:, :2] / d[:, None])
    np.minimum.at(grid, cells, d[inside])
    grid[~np.isfinite(grid)] = DEPTH_SENTINEL
    return DepthMap(grid.reshape(h, w)), int(len(d) - np.count_nonzero(inside))


def depth_map_from_points(points: np.ndarray, rig: CameraRig,
                          image_size: tuple[int, int] | None = None
                          ) -> tuple[DepthMap, int]:
    """Project, drop behind-camera rows, and rasterize in one step."""
    proj = project_points(points, rig)
    proj = proj.compress(in_front_mask(proj), axis=0)
    return rasterize_depth_map(proj, image_size or rig.image_size)


def unproject_frustum(rig: CameraRig, frustum: FrustumGrid) -> np.ndarray:
    """Lift (u, v, d) frustum samples back to ego-frame 3-D points.

    Inverse of project_points up to the depth scaling: the camera ray for
    pixel (u, v) is K^-1 (u, v, 1), taken once per pixel and stretched to
    each depth d as one flat (P*3) row, then moved from the camera frame to ego.
    """
    # log |det K| cannot overflow, unlike det K
    if np.linalg.slogdet(rig.intrinsics)[1] < np.log(1e-12):
        raise ValueError("singular intrinsics cannot be unprojected")
    k_inv = np.linalg.inv(rig.intrinsics)
    px = frustum.pixels
    rays = np.column_stack([px, np.ones(len(px))]) @ k_inv.T
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan samples are in no cell
        cam = np.multiply.outer(frustum.depths, rays.reshape(-1))
        cam -= np.tile(rig.translation, len(px))
        return cam.reshape(-1, 3) @ rig.rotation


def rows_alike(rig: CameraRig, height: int, depths: np.ndarray) -> bool:
    """Whether all rows of a regular frustum height rows tall unproject to row 0's ego x and y,
    bit for bit: zero pitch and roll, K zero at skew and below, camera y far from overflow."""
    k = rig.intrinsics.tolist()
    reach = (height + abs(k[1][2]) / k[2][2]) / k[1][1] * max(1.0, float(np.abs(depths).max()))
    return reach + abs(float(rig.translation[1])) < 1e300 and not (
        rig.rotation[1, :2].any() or k[0][1] or k[1][0] or k[2][0] or k[2][1])
