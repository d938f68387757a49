"""Seeded synthetic scene bundles: point clouds, rigs, features, boxes.

A scene bundle on disk stands in for one annotated driving sample:

    scene.json          seed, rigs, ego trajectory, file names, nothing else
    radar.pc4d          radar returns, (x, y, z, reflectivity) f32 rows
    lidar.pc4d          lidar returns, same format
    features_cam<i>.tnsr  synthetic backbone features per camera
    gt_boxes.json       ground-truth boxes keyed by the one sample token

Everything is a pure function of the SceneSpec, so one seed always yields
byte-identical bundles. Point counts are Poisson draws whose means scale
linearly with the emission densities. scene.json holds only what
load_scene reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import metrics
from .fusion import BoxSet, DetectionBox
from .geometry import CameraRig, EgoPose
from .metrics import ATTRIBUTES, DETECTION_CLASSES, save_boxes
from .nnprims import (finite_floats, is_int, is_number, json_floats, known_keys, name_index,
                      read_json, read_tensor, write_json, write_tensor)
from .pillars import read_pc4d, write_pc4d

SAMPLE_TOKEN = "sample-0"
MAX_CAMERAS = 6

# Nominal per-class (w, l, h) box sizes and default attribute, meters.
CLASS_SIZES = {
    "car": (1.9, 4.6, 1.7), "truck": (2.5, 7.0, 2.8), "bus": (2.9, 11.0, 3.4),
    "trailer": (2.9, 12.0, 3.8), "construction_vehicle": (2.8, 6.5, 3.2),
    "pedestrian": (0.7, 0.7, 1.8), "motorcycle": (0.8, 2.1, 1.4),
    "bicycle": (0.6, 1.7, 1.3), "traffic_cone": (0.4, 0.4, 1.1),
    "barrier": (2.5, 0.5, 1.0),
}
CLASS_ATTRIBUTES = {
    "car": "vehicle.moving", "truck": "vehicle.moving", "bus": "vehicle.moving",
    "trailer": "vehicle.parked", "construction_vehicle": "vehicle.stopped",
    "pedestrian": "pedestrian.moving", "motorcycle": "cycle.with_rider",
    "bicycle": "cycle.without_rider", "traffic_cone": "", "barrier": "",
}

# Forward-looking camera: x right = -ego y, y down = -ego z, z forward = ego x.
FORWARD_CAM_ROTATION = np.array([[0.0, -1.0, 0.0],
                                 [0.0, 0.0, -1.0],
                                 [1.0, 0.0, 0.0]])


@dataclass
class SceneObject:
    class_name: str
    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float
    velocity: tuple[float, float] = (0.0, 0.0)
    attribute: str = ""

    def to_box(self) -> DetectionBox:
        return DetectionBox(
            center=self.center, size=self.size, yaw=self.yaw,
            velocity=self.velocity,
            class_id=name_index(DETECTION_CLASSES, self.class_name, "class_name"),
            score=0.0, attribute_id=name_index(ATTRIBUTES, self.attribute, "attribute"),
        )


@dataclass
class SceneSpec:
    """Everything needed to synthesize one deterministic scene bundle."""

    seed: int
    cameras: list[CameraRig]
    ego_trajectory: list[EgoPose]
    objects: list[SceneObject] = field(default_factory=list)
    radar_density: float = 2000.0  # expected emitted points per sensor
    lidar_density: float = 8000.0
    radar_max_range: float = 55.0
    lidar_max_range: float = 25.0
    feature_shape: tuple[int, int, int] = (64, 16, 44)

    def __post_init__(self):
        if not 1 <= len(self.cameras) <= MAX_CAMERAS:
            raise ValueError(f"a scene needs 1 to {MAX_CAMERAS} cameras, got {len(self.cameras)}")
        if not self.ego_trajectory:
            raise ValueError("a scene needs at least one ego pose")
        if not (is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        shape = list(self.feature_shape)
        if not (len(shape) == 3 and all(is_int(v) and v >= 1 for v in shape)):
            raise ValueError(f"feature_shape must be three integers >= 1, got {shape}")
        self.feature_shape = tuple(shape)
        for name in ("radar_density", "lidar_density", "radar_max_range", "lidar_max_range"):
            v, density = getattr(self, name), name.endswith("density")
            if not (is_number(v) and (v >= 0 if density else v > 0)):
                raise ValueError(f"{name} must be a finite number {'>=' if density else '>'} 0, "
                                 f"got {v!r}")


def forward_camera(image_size: tuple[int, int] = (256, 704)) -> CameraRig:
    """Focal length 380 px, mounted 1.5 m ahead of the ego origin and 1.6 m up."""
    h, w = image_size
    k = np.array([[380.0, 0.0, w / 2.0], [0.0, 380.0, h / 2.0], [0.0, 0.0, 1.0]])
    mount = np.array([1.5, 0.0, 1.6])
    return CameraRig(k, FORWARD_CAM_ROTATION, -FORWARD_CAM_ROTATION @ mount, image_size)


def default_scene_spec(seed: int, n_objects: int = 8, n_cameras: int = 1,
                       **fields) -> SceneSpec:
    """Randomized but fully seed-determined scene in front of the ego; other
    SceneSpec fields (densities, ranges, feature_shape) pass through by keyword."""
    poses = [EgoPose(np.eye(3), np.array([2.0 * t, 0.0, 0.0]), t)
             for t in range(3)]
    spec = SceneSpec(seed=seed, cameras=[forward_camera()] * n_cameras, ego_trajectory=poses,
                     objects=[], **fields)
    rng = np.random.default_rng([seed, 0])
    for _ in range(n_objects):
        name = DETECTION_CLASSES[int(rng.integers(len(DETECTION_CLASSES)))]
        w, length, h = CLASS_SIZES[name]
        x = float(rng.uniform(8.0, 50.0))
        y = float(rng.uniform(-18.0, 18.0))
        speed = float(rng.uniform(0.0, 8.0)) if name not in ("traffic_cone", "barrier") else 0.0
        heading = float(rng.uniform(-np.pi, np.pi))
        spec.objects.append(SceneObject(
            class_name=name, center=(x, y, h / 2.0), size=(w, length, h),
            yaw=heading, velocity=(speed * np.cos(heading), speed * np.sin(heading)),
            attribute=CLASS_ATTRIBUTES[name],
        ))
    return spec


def _box_surface_points(rng: np.random.Generator, obj: SceneObject, n: int) -> np.ndarray:
    """Uniform samples on the four vertical faces of a yawed box."""
    if n <= 0:
        return np.zeros((0, 3))
    w, length, h = obj.size
    areas = np.array([length * h, length * h, w * h, w * h])
    face = rng.choice(4, size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, n)
    v = rng.uniform(0.0, 1.0, n)
    local = np.zeros((n, 3))
    side_x = face < 2  # faces at x = +-w/2 span the length axis
    local[side_x, 0] = np.where(face[side_x] == 0, w / 2, -w / 2)
    local[side_x, 1] = u[side_x] * length
    local[~side_x, 1] = np.where(face[~side_x] == 2, length / 2, -length / 2)
    local[~side_x, 0] = u[~side_x] * w
    local[:, 2] = v * h
    c, s = np.cos(obj.yaw), np.sin(obj.yaw)
    rot = np.array([[c, -s], [s, c]])
    out = np.empty((n, 3))
    out[:, :2] = local[:, :2] @ rot.T + np.array(obj.center[:2])
    out[:, 2] = local[:, 2] + obj.center[2] - h / 2.0
    return out


def _sensor_cloud(spec: SceneSpec, density: float, max_range: float,
                  stream: int) -> np.ndarray:
    """Clutter plus object returns, thinned to the sensor's range."""
    rng = np.random.default_rng([spec.seed, stream])
    n_clutter = rng.poisson(density * 0.5)
    clutter = np.empty((n_clutter, 4))
    r = np.sqrt(rng.uniform(0.0, 1.0, n_clutter)) * max_range
    theta = rng.uniform(-np.pi / 2, np.pi / 2, n_clutter)  # forward half-plane
    clutter[:, 0] = r * np.cos(theta)
    clutter[:, 1] = r * np.sin(theta)
    clutter[:, 2] = rng.normal(0.0, 0.05, n_clutter)
    clutter[:, 3] = rng.uniform(0.0, 1.0, n_clutter)

    parts = [clutter]
    if spec.objects:
        per_obj = density * 0.5 / len(spec.objects)
        for obj in spec.objects:
            pts = _box_surface_points(rng, obj, int(rng.poisson(per_obj)))
            refl = rng.uniform(0.3, 1.0, (pts.shape[0], 1))
            parts.append(np.hstack([pts, refl]))
    cloud = np.vstack(parts)
    dist = np.linalg.norm(cloud[:, :2], axis=1)
    return cloud[dist <= max_range]


def rig_to_json(rig: CameraRig) -> dict:
    return {"intrinsics": rig.intrinsics.tolist(), "rotation": rig.rotation.tolist(),
            "translation": rig.translation.tolist(), "image_size": list(rig.image_size)}


def rig_from_json(d: dict) -> CameraRig:
    known_keys(d, ("intrinsics", "rotation", "translation", "image_size"), "camera")
    return CameraRig(*(json_floats(d[k], f"camera {k}") for k in
                       ("intrinsics", "rotation", "translation")), tuple(d["image_size"]))


def pose_to_json(pose: EgoPose) -> dict:
    return {"rotation": pose.rotation.tolist(), "translation": pose.translation.tolist(),
            "timestamp": pose.timestamp}


def pose_from_json(d: dict) -> EgoPose:
    known_keys(d, ("rotation", "translation", "timestamp"), "ego pose")
    return EgoPose(json_floats(d["rotation"], "ego rotation"),
                   json_floats(d["translation"], "ego translation"), d["timestamp"])


def _object_from_json(o: dict) -> SceneObject:
    obj = SceneObject(**known_keys(o, {f.name for f in fields(SceneObject)}, "object"))
    obj.center = finite_floats(obj.center, 3, "object center")
    obj.size = finite_floats(obj.size, 3, "object size")
    obj.yaw = finite_floats(obj.yaw, 0, "object yaw")
    obj.velocity = finite_floats(obj.velocity, 2, "object velocity")
    obj.to_box()  # positive size, known class and attribute
    return obj


def spec_from_json(d: dict) -> SceneSpec:
    """The SceneSpec of a gen --spec object: each key a SceneSpec field, rigs, poses and
    objects as JSON objects, every other value as given, so SceneSpec alone checks it.
    Absent fields keep their defaults; unknown keys raise."""
    known_keys(d, {f.name for f in fields(SceneSpec)}, "scene spec")
    readers = {"cameras": rig_from_json, "ego_trajectory": pose_from_json,
               "objects": _object_from_json}
    return SceneSpec(**{k: [readers[k](x) for x in v] if k in readers else v
                        for k, v in d.items()})


def generate_scene(spec: SceneSpec, out_dir) -> Path:
    """Write the bundle; returns the scene directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    radar = _sensor_cloud(spec, spec.radar_density, spec.radar_max_range, stream=1)
    lidar = _sensor_cloud(spec, spec.lidar_density, spec.lidar_max_range, stream=2)
    write_pc4d(out / "radar.pc4d", radar)
    write_pc4d(out / "lidar.pc4d", lidar)

    feature_files = []
    for i in range(len(spec.cameras)):
        rng = np.random.default_rng([spec.seed, 3, i])
        write_tensor(out / f"features_cam{i}.tnsr", rng.normal(0.0, 1.0, spec.feature_shape))
        feature_files.append(f"features_cam{i}.tnsr")

    save_boxes(out / "gt_boxes.json",
               {SAMPLE_TOKEN: [obj.to_box() for obj in spec.objects]},
               with_score=False)

    manifest = {
        "seed": spec.seed,
        "cameras": [rig_to_json(r) for r in spec.cameras],
        "ego_trajectory": [pose_to_json(p) for p in spec.ego_trajectory],
        "files": {
            "radar": "radar.pc4d",
            "lidar": "lidar.pc4d",
            "features": feature_files,
            "gt_boxes": "gt_boxes.json",
        },
    }
    write_json(out / "scene.json", manifest)
    return out


@dataclass
class SceneBundle:
    """In-memory view of a scene directory."""

    manifest: dict
    cameras: list[CameraRig]
    ego_trajectory: list[EgoPose]
    radar: np.ndarray
    lidar: np.ndarray
    features: list[np.ndarray]
    gt_boxes: dict[str, BoxSet]
    path: Path


def load_scene(scene_dir) -> SceneBundle:
    """The bundle in scene_dir. scene.json holds seed, cameras and ego_trajectory, read by
    spec_from_json so SceneSpec's rules check them, and files, the plain names of regular
    files in the bundle: one features file per camera, all of one (C, H, W) shape, and a
    gt_boxes.json of one sample token. A malformed file is one ValueError naming it."""
    path = Path(scene_dir)
    manifest_path = path / "scene.json"
    manifest = read_json(manifest_path)
    try:
        known_keys(manifest, ("seed", "cameras", "ego_trajectory", "files"), "scene.json")
        files = known_keys(manifest["files"], ("radar", "lidar", "features", "gt_boxes"),
                           "scene.json files")
        names = [files["radar"], files["lidar"], files["gt_boxes"], *files["features"]]
        spec = spec_from_json({k: manifest[k] for k in ("seed", "cameras", "ego_trajectory")})
    except (TypeError, AttributeError, KeyError, ValueError) as err:
        raise ValueError(f"malformed {manifest_path}: {err}") from err
    if not (isinstance(files["features"], list) and all(isinstance(n, str) for n in names)
            and len(files["features"]) == len(spec.cameras)):
        raise ValueError(f"{manifest_path}: files must name the radar, lidar and gt_boxes "
                         "files and list one features file per camera")
    for n in names:  # a missing file passes on to its open's OSError; a FIFO would block it
        if n in ("", "..") or n != Path(n).name or not (path / n).is_file() and (path / n).exists():
            raise ValueError(f"{manifest_path}: files must give the plain name of a regular "
                             f"file in the bundle, got {n!r}")
    features = [read_tensor(path / f) for f in files["features"]]
    for f, name in zip(features, files["features"]):
        if f.ndim != 3 or f.size == 0 or f.shape != features[0].shape:
            raise ValueError(f"{path / name}: features must be non-empty (C, H, W) tensors "
                             f"of one shape, got {f.shape} (camera 0: {features[0].shape})")
    gt_boxes = metrics.load_boxes(path / files["gt_boxes"])
    if len(gt_boxes) != 1:
        raise ValueError(f"{path / files['gt_boxes']}: ground truth must hold exactly one "
                         f"sample token, found {list(gt_boxes)}")
    return SceneBundle(
        manifest=manifest,
        cameras=spec.cameras,
        ego_trajectory=spec.ego_trajectory,
        radar=read_pc4d(path / files["radar"]).points,
        lidar=read_pc4d(path / files["lidar"]).points,
        features=features,
        gt_boxes=gt_boxes,
        path=path,
    )
