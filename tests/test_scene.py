import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevkit.geometry import CameraRig, EgoPose
from bevkit.scene import (
    SAMPLE_TOKEN,
    SceneSpec,
    default_scene_spec,
    forward_camera,
    generate_scene,
    load_scene,
)


def bundle_bytes(scene_dir):
    return {p.name: p.read_bytes() for p in sorted(scene_dir.iterdir())}


class TestGenerateScene:
    def test_same_seed_byte_identical(self, tmp_path):
        spec = default_scene_spec(seed=11)
        a = generate_scene(spec, tmp_path / "a")
        b = generate_scene(default_scene_spec(seed=11), tmp_path / "b")
        files_a, files_b = bundle_bytes(a), bundle_bytes(b)
        assert files_a.keys() == files_b.keys()
        for name in files_a:
            assert files_a[name] == files_b[name], name

    def test_different_seed_differs(self, tmp_path):
        a = generate_scene(default_scene_spec(seed=1), tmp_path / "a")
        b = generate_scene(default_scene_spec(seed=2), tmp_path / "b")
        assert bundle_bytes(a)["radar.pc4d"] != bundle_bytes(b)["radar.pc4d"]

    def test_zero_objects_clutter_only(self, tmp_path):
        spec = default_scene_spec(seed=3, n_objects=0)
        out = generate_scene(spec, tmp_path / "s")
        bundle = load_scene(out)
        assert len(bundle.gt_boxes["sample-0"]) == 0
        assert len(bundle.radar) > 0  # ground clutter still present

    def test_density_doubling_poisson(self, tmp_path):
        spec1 = default_scene_spec(seed=4, radar_density=100_000, lidar_density=1000)
        spec2 = default_scene_spec(seed=5, radar_density=200_000, lidar_density=1000)
        n1 = len(load_scene(generate_scene(spec1, tmp_path / "d1")).radar)
        n2 = len(load_scene(generate_scene(spec2, tmp_path / "d2")).radar)
        assert abs(n2 / n1 - 2.0) < 0.10  # +-5% on each Poisson count

    def test_roundtrip_manifest(self, tmp_path):
        spec = default_scene_spec(seed=6, n_cameras=2)
        out = generate_scene(spec, tmp_path / "s")
        bundle = load_scene(out)
        assert len(bundle.cameras) == 2
        assert len(bundle.ego_trajectory) == 3
        assert bundle.features[0].shape == spec.feature_shape
        assert bundle.manifest["seed"] == 6
        np.testing.assert_allclose(bundle.cameras[0].intrinsics,
                                   spec.cameras[0].intrinsics)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scene(tmp_path)

    def test_more_than_six_cameras_rejected(self, tmp_path):
        scene = generate_scene(default_scene_spec(seed=4, n_objects=1, radar_density=40.0,
                                                  lidar_density=40.0, feature_shape=(2, 2, 3)),
                               tmp_path / "s")
        manifest = json.loads((scene / "scene.json").read_text())
        manifest["cameras"] *= 7
        manifest["files"]["features"] *= 7
        (scene / "scene.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"scene\.json: .*1 to 6 cameras, got 7"):
            load_scene(scene)

    def test_lidar_range_cap_respected(self, tmp_path):
        spec = default_scene_spec(seed=7)
        bundle = load_scene(generate_scene(spec, tmp_path / "s"))
        lidar_dist = np.linalg.norm(bundle.lidar[:, :2], axis=1)
        radar_dist = np.linalg.norm(bundle.radar[:, :2], axis=1)
        assert lidar_dist.max() <= spec.lidar_max_range + 1e-6
        assert radar_dist.max() <= spec.radar_max_range + 1e-6


class TestSceneSpec:
    def test_requires_camera(self):
        with pytest.raises(ValueError):
            SceneSpec(seed=0, cameras=[], ego_trajectory=[], objects=[])

    def test_camera_cap(self):
        cams = [forward_camera()] * 7
        with pytest.raises(ValueError):
            SceneSpec(seed=0, cameras=cams,
                      ego_trajectory=[], objects=[])

    def test_manifest_is_sorted_json(self, tmp_path):
        out = generate_scene(default_scene_spec(seed=8), tmp_path / "s")
        text = (out / "scene.json").read_text()
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def rotations(draw):
    """Products of three elementary rotations: orthonormal to rounding."""
    a, b, c = (draw(st.floats(-4.0, 4.0)) for _ in range(3))
    rz = np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0, 0, 1]])
    ry = np.array([[np.cos(b), 0.0, np.sin(b)], [0, 1, 0], [-np.sin(b), 0.0, np.cos(b)]])
    rx = np.array([[1, 0, 0], [0.0, np.cos(c), -np.sin(c)], [0.0, np.sin(c), np.cos(c)]])
    return rz @ ry @ rx


@st.composite
def rigs(draw):
    fx, fy = (draw(st.floats(1e-3, 1e6)) for _ in range(2))
    skew, cx, cy = (draw(st.floats(-1e6, 1e6)) for _ in range(3))
    k = np.array([[fx, skew, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
    size = (draw(st.integers(1, 10_000)), draw(st.integers(1, 10_000)))
    return CameraRig(k, draw(rotations()), np.array(draw(st.lists(FINITE, min_size=3,
                                                                  max_size=3))), size)


@st.composite
def poses(draw):
    return EgoPose(draw(rotations()), np.array(draw(st.lists(FINITE, min_size=3, max_size=3))),
                   draw(FINITE))


def _bits(arr):
    return np.asarray(arr, dtype=np.float64).tobytes()  # signed zeros included


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    spec = default_scene_spec(seed=9, n_objects=3, n_cameras=2, radar_density=40.0,
                              lidar_density=40.0, feature_shape=(2, 2, 3))
    return generate_scene(spec, tmp_path_factory.mktemp("manifest") / "scene")


class TestManifestProperties:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.lists(rigs(), min_size=1, max_size=6), st.lists(poses(), min_size=1, max_size=3),
           st.integers(0, 2**63 - 1))
    def test_roundtrip_bit_exact(self, cameras, trajectory, seed):
        spec = SceneSpec(seed=seed, cameras=cameras, ego_trajectory=trajectory, objects=[],
                         radar_density=0.0, lidar_density=0.0, feature_shape=(1, 1, 2))
        with tempfile.TemporaryDirectory() as tmp:
            bundle = load_scene(generate_scene(spec, tmp))
        assert bundle.manifest["seed"] == seed and type(bundle.manifest["seed"]) is int
        assert list(bundle.gt_boxes) == [SAMPLE_TOKEN]
        assert len(bundle.cameras) == len(cameras)
        for got, want in zip(bundle.cameras, cameras):
            for name in ("intrinsics", "rotation", "translation"):
                assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
            assert got.image_size == want.image_size
        assert len(bundle.ego_trajectory) == len(trajectory)
        for got, want in zip(bundle.ego_trajectory, trajectory):
            assert _bits(got.rotation) == _bits(want.rotation)
            assert _bits(got.translation) == _bits(want.translation)
            assert _bits(got.timestamp) == _bits(want.timestamp)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_corrupted_manifest_raises_only_value_or_os_error(self, small_bundle, data):
        original = (small_bundle / "scene.json").read_bytes()
        blob = bytearray(original)
        truncated = data.draw(st.booleans(), label="truncate")
        if truncated:
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            for _ in range(data.draw(st.integers(1, 4), label="flips")):
                at = data.draw(st.integers(0, len(blob) - 1), label="at")
                blob[at] ^= data.draw(st.integers(1, 255), label="mask")
        with tempfile.TemporaryDirectory() as tmp:
            scene = Path(tmp) / "scene"
            shutil.copytree(small_bundle, scene)
            (scene / "scene.json").write_bytes(blob)
            try:
                bundle = load_scene(scene)
            except (ValueError, OSError) as err:
                # the message names scene.json or the bundle file it led to
                assert str(scene) in str(err)
                return
        # a cut file loads only if the cut took no more than the trailing newline
        assert not truncated or len(blob) >= len(original.rstrip())
        assert len(bundle.gt_boxes) == 1
        assert len(bundle.features) == len(bundle.cameras)
