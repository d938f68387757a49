import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bevkit
from bevkit.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from bevkit.metrics import evaluate_detections, load_boxes
from bevkit.nnprims import write_tensor
from bevkit.pipeline import PipelineConfig
from bevkit.scene import default_scene_spec, generate_scene

SMALL = dict(n_depth_bins=24, n_context=12, bev_cells=64, bev_range=32.0,
             kan_hidden=(16,), radar_channels=8)
DROP = object()  # a malformed-box case's value that deletes the key


def run_in_fresh_process(*args, **env):
    """`python -m bevkit.cli args` in a new process that imports this bevkit, env added."""
    src = str(Path(bevkit.__file__).resolve().parent.parent)
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "bevkit.cli", *args],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    PipelineConfig(**SMALL).to_json(path)
    return path


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "scene"
    rc = main(["gen", "--out", str(out), "--seed", "23", "--objects", "5",
               "--radar-density", "1000", "--lidar-density", "3000"])
    assert rc == EXIT_OK
    # shrink the backbone features for test speed
    spec_manifest = json.loads((out / "scene.json").read_text())
    assert spec_manifest["seed"] == 23
    return out


@pytest.fixture(scope="module")
def seed3_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "seed3"
    assert main(["gen", "--out", str(out), "--seed", "3"]) == EXIT_OK
    return out


ONE_CAMERA_SPEC = {
    "seed": 5,
    "cameras": [{
        "intrinsics": [[100.0, 0.0, 32.0], [0.0, 100.0, 24.0], [0.0, 0.0, 1.0]],
        "rotation": np.eye(3).tolist(),
        "translation": [0.0, 0.0, 0.0],
        "image_size": [48, 64],
    }],
    "ego_trajectory": [{"rotation": np.eye(3).tolist(),
                        "translation": [0.0, 0.0, 0.0], "timestamp": 0.0}],
    "objects": [],
    "radar_density": 500,
    "lidar_density": 500,
}


def _spec(camera=None, pose=None, **top):
    """ONE_CAMERA_SPEC with keys of its camera, its ego pose or its top level set; a
    value of DROP deletes the key."""
    def edit(d, edits):
        return {k: v for k, v in {**d, **(edits or {})}.items() if v is not DROP}
    return edit({**ONE_CAMERA_SPEC, "cameras": [edit(ONE_CAMERA_SPEC["cameras"][0], camera)],
                 "ego_trajectory": [edit(ONE_CAMERA_SPEC["ego_trajectory"][0], pose)]}, top)


class TestGen:
    def test_gen_writes_bundle(self, scene_dir):
        names = {p.name for p in scene_dir.iterdir()}
        assert {"scene.json", "radar.pc4d", "lidar.pc4d", "gt_boxes.json"} <= names

    def test_gen_with_csv_clouds(self, tmp_path):
        csv = tmp_path / "radar.csv"
        csv.write_text("x,y,z,r\n1.0,2.0,0.1,0.5\n3.0,-1.0,0.2,0.9\n")
        out = tmp_path / "scene"
        rc = main(["gen", "--out", str(out), "--seed", "1", "--objects", "2",
                   "--radar-csv", str(csv)])
        assert rc == EXIT_OK
        from bevkit.pillars import read_pc4d
        cloud = read_pc4d(out / "radar.pc4d")
        assert len(cloud) == 2
        np.testing.assert_allclose(cloud.points[0], [1.0, 2.0, 0.1, 0.5], atol=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_gen_with_header_only_csv(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("x,y,z,r\n")
        out = tmp_path / "scene"
        rc = main(["gen", "--out", str(out), "--objects", "1", "--radar-csv", str(csv)])
        assert rc == EXIT_OK
        from bevkit.pillars import read_pc4d
        assert len(read_pc4d(out / "radar.pc4d")) == 0

    def test_gen_from_spec_json(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(ONE_CAMERA_SPEC))
        rc = main(["gen", "--out", str(tmp_path / "scene"), "--spec", str(spec_path)])
        assert rc == EXIT_OK
        assert (tmp_path / "scene" / "scene.json").exists()


    @pytest.mark.parametrize("spec, says", [
        ([], ""),
        ({"bogus": 1}, ""),
        ({"seed": 5, "cameras": [], "ego_trajectory": [], "objects": [{"bogus": 1}]}, ""),
        *(({"seed": 5, "cameras": [], "ego_trajectory": [],
            "objects": [{"class_name": "car", "center": [10.0, 0.0, 0.8],
                         "size": [1.9, 4.6, 1.6], "yaw": 0.0, **bad}]}, says)
          for bad, says in (({"center": "abc"}, "object center must be 3"),
                            ({"center": [10.0, 0.0]}, "object center must be 3"),
                            ({"size": [float("nan"), 4.6, 1.6]}, "object size must be 3"),
                            ({"size": [1.9, 0.0, 1.6]}, "sizes must be positive"),
                            ({"yaw": float("inf")}, "object yaw must be a finite number,"),
                            ({"velocity": [1.0]}, "object velocity must be 2"),
                            ({"class_name": "lorry"}, "class_name must be one of"),
                            ({"attribute": "vehicle.flying"}, "attribute must be one of"))),
        *(({**ONE_CAMERA_SPEC, **bad}, says)
          for bad, says in (({"feature_shape": "abc"},
                             "feature_shape must be three integers >= 1, got ['a', 'b', 'c']\n"),
                            ({"feature_shape": [64, 16.5, 44]},
                             "feature_shape must be three integers >= 1, got [64, 16.5, 44]\n"),
                            ({"feature_shape": [64, 16]},
                             "feature_shape must be three integers >= 1, got [64, 16]\n"),
                            ({"feature_shape": [64, 0, 44]},
                             "feature_shape must be three integers >= 1, got [64, 0, 44]\n"),
                            ({"seed": 1.7}, "seed must be an integer >= 0, got 1.7\n"),
                            ({"seed": -1}, "seed must be an integer >= 0, got -1\n"),
                            ({"radar_densty": 5}, ": unknown scene spec key 'radar_densty'\n"),
                            ({"cameras": [{**ONE_CAMERA_SPEC["cameras"][0], "focal_mm": 4.0}]},
                             ": unknown camera key 'focal_mm'\n"),
                            ({"ego_trajectory": [{**ONE_CAMERA_SPEC["ego_trajectory"][0],
                                                  "speed": 2.0}]},
                             ": unknown ego pose key 'speed'\n"))),
        (_spec(camera={"translation": [0.0, 0.0]}),
         ": camera translation must be 3 numbers, got shape (2,)\n"),
        (_spec(pose={"translation": [0.0, 0.0]}),
         ": ego translation must be 3 numbers, got shape (2,)\n"),
        (_spec(camera={"image_size": [256, 704, 3]}),
         ": image_size must be two integers >= 1, got [256, 704, 3]\n"),
        (_spec(camera={"image_size": [256]}),
         ": image_size must be two integers >= 1, got [256]\n"),
        (_spec(camera={"image_size": 256}), ": image_size must be two integers >= 1, got 256\n"),
        (_spec(camera={"rotation": DROP}), ": camera rotation must hold only numbers, got None\n"),
        (_spec(pose={"timestamp": DROP}), ": ego timestamp must be a finite number, got None\n"),
        (_spec(seed=DROP), ": seed must be an integer >= 0, got None\n"),
        (_spec(ego_trajectory=5), ": ego_trajectory must be a JSON list, got 5\n"),
        (_spec(cameras={"a": 1}), ": cameras must be a JSON list, got {'a': 1}\n"),
    ], ids=["list", "unknown-key", "unknown-object-key", "object-center-string",
            "object-center-length", "object-size-nan", "object-size-zero",
            "object-yaw-inf", "object-velocity-length", "object-class-unknown",
            "object-attribute-unknown", "feature-shape-string", "feature-shape-float",
            "feature-shape-length", "feature-shape-zero", "seed-float", "seed-negative",
            "misspelt-optional-key", "extra-camera-key", "extra-pose-key",
            "camera-translation-length", "pose-translation-length", "image-size-three",
            "image-size-one", "image-size-int", "camera-no-rotation", "pose-no-timestamp",
            "no-seed", "ego-trajectory-int", "cameras-object"])
    def test_malformed_spec_validation_error(self, tmp_path, capsys, spec, says):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        capsys.readouterr()
        rc = main(["gen", "--out", str(tmp_path / "scene"), "--spec", str(spec_path)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: malformed scene spec") and err.count("\n") == 1
        assert says in err
        if "lorry" in json.dumps(spec):
            assert "'lorry'" in err
        assert not (tmp_path / "scene").exists()

    @pytest.mark.parametrize("flag, text, rc", [
        ("--radar-csv", "x,y,z,r\n1.0,2.0,0.1,0.5\nnan,1.0,0.2,0.9\n", EXIT_VALIDATION),
        ("--radar-csv", "x,y,z\n1.0,2.0,0.1\n", EXIT_VALIDATION),
        ("--lidar-csv", "x,y,z,r\n" + "1.0,2.0,0.1\n" * 4, EXIT_VALIDATION),
        ("--lidar-csv", None, EXIT_IO),
    ], ids=["nan-row", "bad-header", "three-columns", "missing-file"])
    def test_bad_csv_named_before_writing(self, tmp_path, capsys, flag, text, rc):
        """A CSV cloud that cannot be read ends the run before the bundle is written."""
        csv, out = tmp_path / "cloud.csv", tmp_path / "scene"
        if text is not None:
            csv.write_text(text)
        capsys.readouterr()
        assert main(["gen", "--out", str(out), "--objects", "1", flag, str(csv)]) == rc
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(csv) in err
        assert not out.exists()

    @pytest.mark.parametrize("args, says", [
        (["--cameras", "0"], "--cameras must be an integer in [1, 6], got 0"),
        (["--cameras", "7"], "--cameras must be an integer in [1, 6], got 7"),
        (["--objects", "-2"], "--objects must be an integer >= 0, got -2"),
        (["--radar-density", "-5"], "radar_density must be a finite number >= 0, got -5.0"),
        (["--lidar-density", "nan"], "lidar_density must be a finite number >= 0, got nan"),
        (["--seed", "-3"], "seed must be an integer >= 0, got -3\n"),
    ], ids=["cameras-zero", "cameras-seven", "objects-negative", "radar-density-negative",
            "lidar-density-nan", "seed-negative"])
    def test_bad_option_named_before_writing(self, tmp_path, capsys, args, says):
        out = tmp_path / "scene"
        capsys.readouterr()
        assert main(["gen", "--out", str(out), *args]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, args, says", [
        ({}, ["--seed", "-3"], "seed must be an integer >= 0, got -3\n"),
        ({"radar_density": -5}, [], "radar_density must be a finite number >= 0, got -5\n"),
        ({"lidar_density": float("nan")}, [], "lidar_density must be a finite number >= 0"),
        ({"radar_max_range": 0}, [], "radar_max_range must be a finite number > 0, got 0\n"),
        ({"lidar_max_range": float("inf")}, [], "lidar_max_range must be a finite number > 0"),
        ({}, ["--radar-density", "-5"], "radar_density must be a finite number >= 0, got -5.0\n"),
        ({}, ["--lidar-density", "inf"], "lidar_density must be a finite number >= 0, got inf\n"),
        ({}, ["--cameras", "3"], "error: --cameras does not combine with --spec"),
        ({}, ["--objects", "5"], "error: --objects does not combine with --spec"),
    ], ids=["seed-negative", "radar-density-negative", "lidar-density-nan",
            "radar-max-range-zero", "lidar-max-range-inf", "radar-density-flag-negative",
            "lidar-density-flag-inf", "cameras-flag", "objects-flag"])
    def test_bad_spec_number_named_before_writing(self, tmp_path, capsys, edit, args, says):
        """A bad spec value, a bad density flag, or --cameras or --objects that the spec
        would otherwise silently ignore, is one error line with nothing written."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**ONE_CAMERA_SPEC, **edit}))
        out = tmp_path / "scene"
        capsys.readouterr()
        assert main(["gen", "--out", str(out), "--spec", str(spec_path), *args]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, field", [("--radar-density", "radar_density"),
                                             ("--lidar-density", "lidar_density")])
    def test_density_flag_overrides_the_spec(self, tmp_path, flag, field):
        """gen --spec with a density flag writes the bundle of the spec with that density."""
        for name, spec, args in (("flag", ONE_CAMERA_SPEC, [flag, "9000"]),
                                 ("edit", {**ONE_CAMERA_SPEC, field: 9000.0}, [])):
            (tmp_path / f"{name}.json").write_text(json.dumps(spec))
            assert main(["gen", "--out", str(tmp_path / name), "--spec",
                         str(tmp_path / f"{name}.json"), *args]) == EXIT_OK
        files = sorted(p.name for p in (tmp_path / "edit").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "flag").iterdir())
        assert all((tmp_path / "flag" / f).read_bytes() == (tmp_path / "edit" / f).read_bytes()
                   for f in files)

    def test_seed_flag_fills_a_spec_without_seed(self, tmp_path, capsys):
        """--seed is merged into the spec before it is read, so a spec with no seed takes
        it; without --seed that spec is still malformed."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_spec(seed=DROP)))
        capsys.readouterr()
        assert main(["gen", "--out", str(tmp_path / "bare"), "--spec", str(spec_path)]) \
            == EXIT_VALIDATION
        assert capsys.readouterr().err == (f"error: malformed scene spec {spec_path}: "
                                           "seed must be an integer >= 0, got None\n")
        assert not (tmp_path / "bare").exists()
        assert main(["gen", "--out", str(tmp_path / "scene"), "--spec", str(spec_path),
                     "--seed", "4"]) == EXIT_OK
        assert json.loads((tmp_path / "scene" / "scene.json").read_text())["seed"] == 4

    @pytest.mark.parametrize("value", [True, "2000", [2000], None,
                                       pytest.param(10**400, id="huge-int")])
    def test_spec_numbers_are_json_numbers(self, tmp_path, capsys, value):
        """A spec number is taken as written: no bool, string or list passes as one, and an
        integer beyond float range is not finite."""
        with pytest.raises(ValueError, match="radar_density must be a finite number >= 0"):
            default_scene_spec(0, radar_density=value)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**ONE_CAMERA_SPEC, "radar_density": value}))
        out = tmp_path / "scene"
        capsys.readouterr()
        assert main(["gen", "--out", str(out), "--spec", str(spec_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: malformed scene spec") and err.count("\n") == 1
        assert f"radar_density must be a finite number >= 0, got {value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("where, value, says", [
        ("translation", [True, 0, 0], "camera translation must hold only numbers"),
        ("intrinsics", "x", "camera intrinsics must hold only numbers"),
        ("translation", [10**400, 0, 0], "camera translation must hold only numbers"),
    ], ids=["translation-true", "intrinsics-string", "translation-huge-int"])
    def test_spec_rig_numbers_are_json_numbers(self, tmp_path, capsys, where, value, says):
        """A rig in a spec takes JSON numbers only, and an integer beyond float range ends
        in the same one line, not a traceback."""
        spec = json.loads(json.dumps(ONE_CAMERA_SPEC))
        spec["cameras"][0][where] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        capsys.readouterr()
        assert main(["gen", "--out", str(tmp_path / "scene"), "--spec", str(spec_path)]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: malformed scene spec") and err.count("\n") == 1
        assert says in err

    def test_manifest_holds_what_load_scene_reads(self, seed3_dir):
        manifest = json.loads((seed3_dir / "scene.json").read_text())
        assert sorted(manifest) == ["cameras", "ego_trajectory", "files", "seed"]


def _set_files(m):
    m["files"] = 5


def _set_image_size(m):
    m["cameras"][0]["image_size"] = 5


def _set_infinite_image_size(m):
    m["cameras"][0]["image_size"] = [float("inf"), 704]


def _set_features_string(m):
    m["files"]["features"] = m["files"]["features"][0]


def _drop_features(m):
    m["files"]["features"] = []


def _flatten_features(scene):
    write_tensor(scene / "features_cam0.tnsr", np.zeros((16, 44)))
    return "features_cam0.tnsr", "(C, H, W)"


def _add_smaller_camera(scene):
    manifest = json.loads((scene / "scene.json").read_text())
    manifest["cameras"].append(manifest["cameras"][0])
    manifest["files"]["features"].append("features_cam1.tnsr")
    (scene / "scene.json").write_text(json.dumps(manifest))
    write_tensor(scene / "features_cam1.tnsr", np.zeros((64, 8, 22)))
    return "features_cam1.tnsr", "(64, 8, 22)"


def _cut_payload(blob):
    return blob[:-7]


def _cut_header(blob):
    return blob[:11]


def _bad_magic(blob):
    return b"PC3D" + blob[4:]


def _huge_count(blob):
    return blob[:4] + (0xFFFFFFFF).to_bytes(4, "little") + blob[8:]


def _nan_coordinate(blob):
    return blob[:20] + np.array(np.nan, dtype="<f4").tobytes() + blob[24:]


def _signalling_nan_coordinate(blob):
    return blob[:20] + b"\x00\x00\x81\x7f" + blob[24:]  # the f32 cast warns on it


def _negative_reflectivity(blob):
    return blob[:28] + np.array(-1.0, dtype="<f4").tobytes() + blob[32:]


class TestRun:
    def test_run_and_rerun_deterministic(self, scene_dir, config_path, tmp_path):
        for name in ("r1", "r2"):
            rc = main(["run", "--scene", str(scene_dir), "--out", str(tmp_path / name),
                       "--config", str(config_path), "--sequential"])
            assert rc == EXIT_OK
        a = (tmp_path / "r1" / "predictions.json").read_bytes()
        b = (tmp_path / "r2" / "predictions.json").read_bytes()
        assert a == b

    def test_run_outputs_independent_of_blas_threads_and_allocator(self, scene_dir,
                                                                   config_path, tmp_path):
        """`bevkit run` in a fresh process: 1 or 2 BLAS threads, or glibc's heap kept
        rather than trimmed and mapped, give the same predictions and report."""
        envs = {"blas1": {"OPENBLAS_NUM_THREADS": "1"},
                "blas2": {"OPENBLAS_NUM_THREADS": "2"},
                "heap": {"OPENBLAS_NUM_THREADS": "1", "MALLOC_MMAP_THRESHOLD_": str(1 << 25),
                         "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}}
        outputs = {}
        for name, extra in envs.items():
            out = tmp_path / name
            proc = run_in_fresh_process("run", "--scene", str(scene_dir), "--out", str(out),
                                        "--config", str(config_path), **extra)
            assert proc.returncode == EXIT_OK, proc.stderr
            report = json.loads((out / "report.json").read_text())
            del report["timings"], report["eval"]["eval_time"]
            outputs[name] = (report, (out / "predictions.json").read_bytes())
        want = outputs.pop("blas1")
        assert want[0]["fusion_stats"]["n_matches"] > 0
        assert all(json.loads(want[1]).values())  # boxes for every sample
        for name, got in outputs.items():
            assert got[0] == want[0], name
            assert got[1] == want[1], name

    @pytest.mark.parametrize("case", ["truncating-config", "no-ground-truth"])
    def test_recorded_facts_leave_stderr_empty(self, scene_dir, tmp_path, case):
        """A run that drops pillars beyond the cap, or that has no 2 m box pair (L_bbox = 0
        by definition), exits 0 with nothing on stderr, in a fresh process where no test
        harness catches a log record; report.json holds the fact."""
        scene, config = tmp_path / "scene", tmp_path / "config.json"
        shutil.copytree(scene_dir, scene)
        PipelineConfig(**SMALL, pillar_max_pillars=1 if case == "truncating-config" else 4096
                       ).to_json(config)
        if case == "no-ground-truth":
            (scene / "gt_boxes.json").write_text(json.dumps({"sample-0": []}))
        proc = run_in_fresh_process("run", "--scene", str(scene), "--out", str(tmp_path / "out"),
                                    "--config", str(config))
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        if case == "truncating-config":
            assert report["pillars"]["kept"] == 1 and report["pillars"]["truncated"] > 0
        else:
            assert report["losses"]["l_bbox"] == 0.0
            assert report["eval"]["mtp"] and set(report["eval"]["mtp"].values()) == {None}

    def test_run_missing_scene_fails(self, tmp_path, config_path):
        rc = main(["run", "--scene", str(tmp_path / "missing"), "--out",
                   str(tmp_path / "out"), "--config", str(config_path)])
        assert rc == EXIT_IO

    def test_pooling_flag_override(self, scene_dir, config_path, tmp_path):
        # the kernel flags are gone: argparse rejects them with exit code 2
        for flags in (["--pooling", "cumsum"], ["--workers", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(["run", "--scene", str(scene_dir), "--out", str(tmp_path / "p"),
                      "--config", str(config_path), *flags])
            assert exc.value.code == 2
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("key, value", [("workers", 2), ("pooling", "cumsum")])
    def test_retired_run_keys_validation_error(self, scene_dir, tmp_path, capsys,
                                               key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {key: value}}))
        capsys.readouterr()
        rc = main(["run", "--scene", str(scene_dir), "--out", str(tmp_path / "out"),
                   "--config", str(cfg)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert key in err

    def test_default_config_matches_reference_sequential(self, scene_dir, tmp_path):
        cfg = PipelineConfig(**SMALL).to_dict()
        del cfg["run"]  # every execution setting at its default
        default_cfg = tmp_path / "default.json"
        default_cfg.write_text(json.dumps(cfg))
        runs = {"default": [], "sequential": ["--sequential"]}
        for name, flags in runs.items():
            rc = main(["run", "--scene", str(scene_dir), "--out", str(tmp_path / name),
                       "--config", str(default_cfg), *flags])
            assert rc == EXIT_OK
        assert ((tmp_path / "default" / "predictions.json").read_bytes()
                == (tmp_path / "sequential" / "predictions.json").read_bytes())

    def test_truncated_tensor_header_validation_error(self, scene_dir, config_path,
                                                      tmp_path, capsys):
        bad = tmp_path / "scene"
        shutil.copytree(scene_dir, bad)
        tensor = bad / "features_cam0.tnsr"
        tensor.write_bytes(tensor.read_bytes()[:10])
        capsys.readouterr()
        rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out"),
                   "--config", str(config_path)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "truncated tensor header" in err

    @pytest.mark.parametrize("corrupt", [_cut_payload, _cut_header, _bad_magic, _huge_count,
                                         _nan_coordinate, _signalling_nan_coordinate,
                                         _negative_reflectivity])
    def test_corrupted_radar_cloud_one_line_error(self, scene_dir, config_path, tmp_path,
                                                  capsys, corrupt):
        bad = tmp_path / "scene"
        shutil.copytree(scene_dir, bad)
        cloud = bad / "radar.pc4d"
        cloud.write_bytes(corrupt(cloud.read_bytes()))
        capsys.readouterr()
        rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out"),
                   "--config", str(config_path)])
        assert rc in (EXIT_VALIDATION, EXIT_IO)
        err = capsys.readouterr().err
        assert "error:" in err and err.count("\n") == 1 and "Traceback" not in err
        assert "radar.pc4d" in err

    def test_radar_cloud_with_trailing_bytes_validation_error(self, scene_dir, config_path,
                                                             tmp_path, capsys):
        bad = tmp_path / "scene"
        shutil.copytree(scene_dir, bad)
        cloud = bad / "radar.pc4d"
        cloud.write_bytes(cloud.read_bytes() + b"\x00" * 16)
        capsys.readouterr()
        rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out"),
                   "--config", str(config_path)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "16 trailing bytes" in err and "radar.pc4d" in err

    @pytest.mark.parametrize("edit", [_set_files, _set_image_size, _set_infinite_image_size,
                                      _set_features_string, _drop_features])
    def test_malformed_manifest_validation_error(self, scene_dir, config_path, tmp_path,
                                                 capsys, edit):
        bad = tmp_path / "scene"
        shutil.copytree(scene_dir, bad)
        manifest = json.loads((bad / "scene.json").read_text())
        edit(manifest)
        (bad / "scene.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out"),
                   "--config", str(config_path)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "scene.json" in err

    def test_seven_cameras_one_line_error(self, scene_dir, config_path, tmp_path, capsys):
        bad = tmp_path / "scene"
        shutil.copytree(scene_dir, bad)
        manifest = json.loads((bad / "scene.json").read_text())
        manifest["cameras"] *= 7
        manifest["files"]["features"] *= 7
        (bad / "scene.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out"),
                   "--config", str(config_path)])
        assert rc in (EXIT_VALIDATION, EXIT_IO)
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert "scene.json" in err and "1 to 6 cameras, got 7" in err

    def test_deeply_nested_manifest_one_line_error(self, scene_dir, config_path, tmp_path,
                                                   capsys):
        bad = tmp_path / "scene"
        shutil.copytree(scene_dir, bad)
        (bad / "scene.json").write_text("[" * 5000 + "]" * 5000)
        capsys.readouterr()
        rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out"),
                   "--config", str(config_path)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert f"malformed {bad / 'scene.json'}" in err

    def test_nonfinite_camera_translation_validation_error(self, seed3_dir, tmp_path, capsys):
        bad = tmp_path / "scene"
        shutil.copytree(seed3_dir, bad)
        manifest = json.loads((bad / "scene.json").read_text())
        manifest["cameras"][0]["translation"] = [float("nan"), 1.6, -1.5]
        (bad / "scene.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert "scene.json" in err and "translation must be finite" in err

    def test_nonfinite_ego_timestamp_validation_error(self, seed3_dir, tmp_path, capsys):
        bad = tmp_path / "scene"
        shutil.copytree(seed3_dir, bad)
        manifest = json.loads((bad / "scene.json").read_text())
        manifest["ego_trajectory"][0]["timestamp"] = float("nan")
        (bad / "scene.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert "scene.json" in err and "timestamp must be a finite number" in err

    @pytest.mark.parametrize("key, name, want", [
        ("gt_boxes", "/etc/hostname", EXIT_VALIDATION),
        ("radar", "../scene/radar.pc4d", EXIT_VALIDATION),
        ("radar", "..", EXIT_VALIDATION),
        ("lidar", "subdir", EXIT_VALIDATION),
        ("radar", "fifo", EXIT_VALIDATION),
        ("radar", "missing.pc4d", EXIT_IO),
    ], ids=["absolute", "parent", "dotdot", "directory", "fifo", "missing"])
    def test_bundle_file_names_stay_in_the_bundle(self, seed3_dir, tmp_path, key, name, want):
        """A file name is the plain name of a regular file in the bundle; a missing one is
        an i/o error. A fresh process with a timeout runs each case, so a read that blocks
        on the FIFO fails the test instead of hanging it."""
        bad = tmp_path / "scene"
        shutil.copytree(seed3_dir, bad)
        (bad / "subdir").mkdir()
        os.mkfifo(bad / "fifo")
        manifest = json.loads((bad / "scene.json").read_text())
        manifest["files"][key] = name
        (bad / "scene.json").write_text(json.dumps(manifest))
        proc = run_in_fresh_process("run", "--scene", str(bad), "--out", str(tmp_path / "out"))
        assert proc.returncode == want, proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert repr(name) in proc.stderr if want == EXIT_VALIDATION else name in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["scene.json", "config.json", "gt_boxes.json"])
    def test_inserted_keys_are_named(self, seed3_dir, config_path, tmp_path, capsys, name):
        """Every JSON object that a run reads takes only its declared keys: one inserted
        anywhere ends the run with exit 1 and one line naming it. The top level of
        gt_boxes.json maps sample tokens, so it has no declared keys to check."""
        bad = tmp_path / "scene"
        shutil.copytree(seed3_dir, bad)
        shutil.copy(config_path, bad / "config.json")
        original = (bad / name).read_text()

        def objects(node, path=()):
            if isinstance(node, dict) and (path or name != "gt_boxes.json"):
                yield path
            for key, value in (node.items() if isinstance(node, dict) else
                               enumerate(node) if isinstance(node, list) else ()):
                yield from objects(value, (*path, key))

        paths = list(objects(json.loads(original)))
        assert len(paths) == {"scene.json": 6, "config.json": 6, "gt_boxes.json": 8}[name]
        for path in paths:
            doc = json.loads(original)
            obj = doc
            for key in path:
                obj = obj[key]
            obj["inserted_key"] = 1
            (bad / name).write_text(json.dumps(doc))
            capsys.readouterr()
            rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out"),
                       "--config", str(bad / "config.json")])
            err = capsys.readouterr().err
            assert rc == EXIT_VALIDATION, path
            assert err.count("\n") == 1 and "'inserted_key'" in err, (path, err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("keep", [0, 6, 14, -8, -1])
    def test_truncated_features_validation_error(self, seed3_dir, tmp_path, capsys, keep):
        bad = tmp_path / "scene"
        shutil.copytree(seed3_dir, bad)
        tensor = bad / "features_cam0.tnsr"
        tensor.write_bytes(tensor.read_bytes()[:keep])
        capsys.readouterr()
        rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert "features_cam0.tnsr" in err

    @pytest.mark.parametrize("edit", [_flatten_features, _add_smaller_camera])
    def test_bad_features_name_the_file(self, seed3_dir, tmp_path, capsys, edit):
        bad = tmp_path / "scene"
        shutil.copytree(seed3_dir, bad)
        name, says = edit(bad)
        capsys.readouterr()
        rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert name in err and says in err

    def test_malformed_gt_boxes_validation_error(self, scene_dir, config_path, tmp_path,
                                                 capsys):
        bad = tmp_path / "scene"
        shutil.copytree(scene_dir, bad)
        (bad / "gt_boxes.json").write_text("[1, 2]")
        capsys.readouterr()
        rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out"),
                   "--config", str(config_path)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "malformed boxes file" in err

    @pytest.mark.parametrize("key, value", [
        ("translation", [1.0]), ("size", [1.9, float("nan"), 1.6]),
        ("velocity", [0.0, 0.0, 0.0]), ("yaw", float("-inf")),
        ("detection_name", "lorry"), ("attribute_name", "vehicle.flying"),
        ("size", [1.9, -4.6, 1.6]), ("detection_score", 1.5),
        ("translation", [0.0, 10 ** 400, 0.0]),  # an integer no float can hold
        ("yaw", DROP),  # box 0 lacks the key
        ("box", [1, 2]),  # box 0 is a list
        ("boxes", "car"), ("boxes", {"translation": [0, 0, 0]}),  # the token's value
    ])
    def test_malformed_gt_box_validation_error(self, scene_dir, config_path, tmp_path,
                                               capsys, key, value):
        bad = tmp_path / "scene"
        shutil.copytree(scene_dir, bad)
        boxes = json.loads((bad / "gt_boxes.json").read_text())
        (token,) = boxes
        if key == "boxes":
            boxes[token] = value
        elif key == "box":
            boxes[token][0] = value
        elif value is DROP:
            del boxes[token][0][key]
        else:
            boxes[token][0][key] = value
        (bad / "gt_boxes.json").write_text(json.dumps(boxes))
        capsys.readouterr()
        rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out"),
                   "--config", str(config_path)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "malformed boxes file" in err and f"{key} must be" in err
        if isinstance(value, str):
            assert repr(value) in err
        assert f"sample {token!r}" in err and ("box 0:" in err) == (key != "boxes")

    @pytest.mark.parametrize("tokens, found", [
        (["other-token"], "['other-token']"),
        (["sample-0", "sample-1"], "['sample-0', 'sample-1']"),
        ([], "[]"),
    ])
    def test_gt_tokens_must_be_the_manifest_token(self, scene_dir, config_path, tmp_path,
                                                   capsys, tokens, found):
        # gt_boxes.json's one key is the sample token: one of any name loads and keys the
        # predictions; zero or two exit 1 naming the tokens found
        bad = tmp_path / "scene"
        shutil.copytree(scene_dir, bad)
        boxes = json.loads((bad / "gt_boxes.json").read_text())
        (bad / "gt_boxes.json").write_text(
            json.dumps({t: boxes.get(t, boxes["sample-0"]) for t in tokens}))
        capsys.readouterr()
        rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out"),
                   "--config", str(config_path)])
        if len(tokens) == 1:
            assert rc == EXIT_OK
            assert str(list(json.loads((tmp_path / "out" / "predictions.json").read_text()))) \
                == found
            return
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "stage 'load'" in err and "gt_boxes.json" in err
        assert f"exactly one sample token, found {found}" in err
        assert not (tmp_path / "out").exists()

    def test_nonfinite_tensor_names_the_file(self, seed3_dir, tmp_path, capsys):
        bad = tmp_path / "scene"
        shutil.copytree(seed3_dir, bad)
        tensor = bad / "features_cam0.tnsr"
        blob = tensor.read_bytes()
        at = 8 + 4 * 3  # first value after the magic, the rank and three extents
        tensor.write_bytes(blob[:at] + np.array(np.nan, dtype="<f8").tobytes() + blob[at + 8:])
        capsys.readouterr()
        rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "non-finite" in err and "features_cam0.tnsr" in err

    @pytest.mark.parametrize("blob", [b"{'files': 1}", b'{"seed": 3', b'\xff\xfe{}'])
    def test_undecodable_manifest_names_the_file(self, scene_dir, config_path, tmp_path,
                                                 capsys, blob):
        bad = tmp_path / "scene"
        shutil.copytree(scene_dir, bad)
        (bad / "scene.json").write_bytes(blob)
        capsys.readouterr()
        rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out"),
                   "--config", str(config_path)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "scene.json" in err

    # each value with the exit older versions gave it; the key is unknown now, so both exit 1
    @pytest.mark.parametrize("value, exit_before", [(0.0, EXIT_VALIDATION), (0.01, EXIT_OK)])
    def test_retired_match_iou_thresh(self, scene_dir, config_path, tmp_path, capsys,
                                      value, exit_before):
        cfg = json.loads(config_path.read_text())
        cfg["fusion"]["match_iou_thresh"] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        rc = main(["run", "--scene", str(scene_dir), "--out", str(tmp_path / "out"),
                   "--config", str(path)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "unknown config section 'fusion' key 'match_iou_thresh'" in err

    def test_misspelled_config_key_validation_error(self, scene_dir, tmp_path, capsys):
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({"run": {"poolng": "reference"}}))
        rc = main(["run", "--scene", str(scene_dir), "--out", str(tmp_path / "out"),
                   "--config", str(cfg)])
        assert rc == EXIT_VALIDATION
        assert "unknown config section 'run' key 'poolng'" in capsys.readouterr().err

    def test_wrong_typed_config_value_validation_error(self, scene_dir, tmp_path, capsys):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps({"bev": {"cells": "4"}}))
        capsys.readouterr()
        rc = main(["run", "--scene", str(scene_dir), "--out", str(tmp_path / "out"),
                   "--config", str(cfg)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "bev_cells" in err


    def test_unallocatable_grid_one_line_error(self, scene_dir, tmp_path, capsys):
        # 10**8 cells a side is 8e17 bytes a grid, more than any 64-bit
        # address space holds, so the allocation fails at once whatever the
        # overcommit policy; never try a size that could be allocated
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"bev": {"cells": 10**8}}))
        capsys.readouterr()
        rc = main(["run", "--scene", str(scene_dir), "--out", str(tmp_path / "out"),
                   "--config", str(cfg)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_bare_memory_error_one_complete_line(self, scene_dir, tmp_path, capsys,
                                                 monkeypatch):
        # a MemoryError may carry no reason (gen --objects 100000000 under a 4 GB
        # ulimit -v raises one); the line then ends at "out of memory", no dangling colon
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(bevkit.pipeline.kan, "depthnet_forward", exhausted)
        capsys.readouterr()
        rc = main(["run", "--scene", str(scene_dir), "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("bev_range, grid", [(9e307, "(inf, inf)"), (5e-324, "(0.0, 0.0)")],
                             ids=["infinite-cells", "empty-cells"])
    def test_unusable_grid_names_bev_range(self, scene_dir, tmp_path, capsys, bev_range, grid):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"bev": {"range": bev_range}}))
        capsys.readouterr()
        rc = main(["run", "--scene", str(scene_dir), "--out", str(tmp_path / "out"),
                   "--config", str(cfg)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: bev_range") and err.count("\n") == 1 and grid in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("blob", [b"{", b"\xff\xfe{}", b"[" * 200_000 + b"]" * 200_000],
                             ids=["bad-json", "not-utf8", "deep-nesting"])
    def test_unreadable_config_names_the_file(self, scene_dir, tmp_path, capsys, blob):
        cfg = tmp_path / "f.json"
        cfg.write_bytes(blob)
        capsys.readouterr()
        rc = main(["run", "--scene", str(scene_dir), "--out", str(tmp_path / "out"),
                   "--config", str(cfg)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed config {cfg}: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_tiny_cells_put_every_point_out_of_range(self, scene_dir, tmp_path):
        """Positions over a 1e-312 m cell overflow to inf, out of range by design, and
        warn of nothing (pytest turns a RuntimeWarning into an error)."""
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({"bev": {"range": 1e-310}}))
        assert main(["run", "--scene", str(scene_dir), "--out", str(tmp_path / "out"),
                     "--config", str(cfg)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["pillars"] == {"points_in_range": 0, "kept": 0, "truncated": 0}
        assert report["gated_cells"] == []

    @pytest.mark.parametrize("byte", [8, 12, 15])
    def test_nonzero_reserved_pc4d_byte_one_line_error(self, scene_dir, config_path, tmp_path,
                                                       capsys, byte):
        bad = tmp_path / "scene"
        shutil.copytree(scene_dir, bad)
        cloud = bad / "radar.pc4d"
        blob = bytearray(cloud.read_bytes())
        blob[byte] = 0x5A
        cloud.write_bytes(bytes(blob))
        capsys.readouterr()
        rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out"),
                   "--config", str(config_path)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "radar.pc4d" in err

    @pytest.mark.parametrize("edit, says", [
        (lambda m: m.update(ego_trajectory=[]), "a scene needs at least one ego pose"),
        (lambda m: m["ego_trajectory"][0]["rotation"][0].__setitem__(1, 1e308),
         "ego rotation must be finite with entries in [-1, 1]"),
        (lambda m: m["cameras"][0]["intrinsics"][1].__setitem__(1, 1e20), None),
        (lambda m: m["cameras"][0]["intrinsics"][2].__setitem__(2, 1e308), None),
        (lambda m: m["cameras"][0]["translation"].__setitem__(2, 1e308), None),
        (lambda m: m["cameras"][0].update(image_size=[1, 1], intrinsics=[
            [1e308, 0.0, 352.0], [0.0, 380.0, 128.0], [0.0, 0.0, 1.0]]),
         "stage 'supervision' failed: intrinsics must be finite"),
        (lambda m: m["cameras"][0].update(translation=[0.0, 0.0]),
         "camera translation must be 3 numbers, got shape (2,)"),
        (lambda m: m["ego_trajectory"][0].update(translation=[0.0, 0.0]),
         "ego translation must be 3 numbers, got shape (2,)"),
        (lambda m: m["cameras"][0].update(image_size=[256, 704, 3]),
         "image_size must be two integers >= 1, got [256, 704, 3]"),
        (lambda m: m["cameras"][0].update(image_size=[256]),
         "image_size must be two integers >= 1, got [256]"),
        (lambda m: m["cameras"][0].update(image_size=256),
         "image_size must be two integers >= 1, got 256"),
        (lambda m: m["cameras"][0].pop("rotation"),
         "camera rotation must hold only numbers, got None"),
        (lambda m: m["ego_trajectory"][0].pop("timestamp"),
         "ego timestamp must be a finite number, got None"),
        (lambda m: m.pop("seed"), "seed must be an integer >= 0, got None"),
        (lambda m: m["files"].pop("radar"), "files.radar must give the plain name"),
        (lambda m: m.update(ego_trajectory=5), "ego_trajectory must be a JSON list, got 5"),
        (lambda m: m.update(cameras={"a": 1}), "cameras must be a JSON list, got {'a': 1}"),
    ], ids=["empty-ego-trajectory", "ego-rotation-1e308", "fy-1e20", "k22-1e308", "tz-1e308",
            "feature-rig-overflow", "camera-translation-length", "pose-translation-length",
            "image-size-three", "image-size-one", "image-size-int", "camera-no-rotation",
            "pose-no-timestamp", "no-seed", "no-files-radar", "ego-trajectory-int",
            "cameras-object"])
    def test_extreme_manifest_values_end_quietly(self, scene_dir, config_path, tmp_path,
                                                 capsys, edit, says):
        """A manifest value that overflows the geometry ends in one error line, or in a run
        that prints nothing to stderr (pytest turns a RuntimeWarning into an error). A
        value of the wrong shape or type, or a missing one, ends in one line naming it."""
        bad = tmp_path / "scene"
        shutil.copytree(scene_dir, bad)
        manifest = json.loads((bad / "scene.json").read_text())
        edit(manifest)
        (bad / "scene.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out"),
                   "--config", str(config_path)])
        err = capsys.readouterr().err
        if says is None:
            assert (rc, err) == (EXIT_OK, "")
        else:
            assert rc == EXIT_VALIDATION and err.startswith("error:") and err.count("\n") == 1
            assert says in err

    @pytest.mark.parametrize("file, edit, says", [
        ("gt_boxes.json", lambda m: next(iter(m.values()))[0].update(yaw=True),
         "yaw must be a finite number, got True"),
        ("scene.json", lambda m: m["ego_trajectory"][0].update(timestamp="5"),
         "ego timestamp must be a finite number, got '5'"),
        ("scene.json", lambda m: m["ego_trajectory"][0].update(timestamp=10**400),
         "ego timestamp must be a finite number"),
        ("scene.json", lambda m: m["ego_trajectory"][0].update(translation=[True, 0, 0]),
         "ego translation must hold only numbers"),
        ("scene.json", lambda m: m["cameras"][0]["intrinsics"][0].__setitem__(0, "380"),
         "camera intrinsics must hold only numbers"),
        ("scene.json", lambda m: m["cameras"][0]["intrinsics"][0].__setitem__(0, 10**400),
         "camera intrinsics must hold only numbers"),
        ("scene.json", lambda m: m["cameras"][0].update(image_size=[10**400, 704]),
         "image_size must be two integers >= 1"),
    ], ids=["box-yaw-true", "timestamp-string", "timestamp-huge-int", "translation-true",
            "intrinsics-string", "intrinsics-huge-int", "image-size-huge-int"])
    def test_bundle_numbers_are_json_numbers(self, scene_dir, config_path, tmp_path, capsys,
                                             file, edit, says):
        """A bool or a numeric string where a bundle file needs a number ends in one error
        line, as it does in a scene spec, instead of running as 1.0 or 5.0."""
        bad = tmp_path / "scene"
        shutil.copytree(scene_dir, bad)
        doc = json.loads((bad / file).read_text())
        edit(doc)
        (bad / file).write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["run", "--scene", str(bad), "--out", str(tmp_path / "out"),
                   "--config", str(config_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION and err.startswith("error:") and err.count("\n") == 1
        assert says in err


class TestEval:
    def test_report_eval_equals_eval_of_the_run_files(self, perfbench, tmp_path):
        """`bevkit eval` on a run's own predictions.json and gt_boxes.json gives the
        report's eval. Most scores tie at exactly 1.0; equal scores keep file order,
        which is the run's (class, row, column) order, so both rank them alike."""
        spec = perfbench("workloads").scene_specs("radar_dense", 11)[0]
        scene, run = generate_scene(spec, tmp_path / "scene"), tmp_path / "run"
        assert main(["run", "--scene", str(scene), "--out", str(run)]) == EXIT_OK
        preds = json.loads((run / "predictions.json").read_text())
        scores = [box["detection_score"] for boxes in preds.values() for box in boxes]
        assert scores.count(1.0) > len(scores) // 2
        out = tmp_path / "eval.json"
        assert main(["eval", "--pred", str(run / "predictions.json"),
                     "--gt", str(scene / "gt_boxes.json"), "--out", str(out)]) == EXIT_OK
        report, evaluated = (json.loads(p.read_text())
                             for p in (run / "report.json", out))
        report = report["eval"]
        del report["eval_time"], evaluated["eval_time"]
        assert report == evaluated

    def test_eval_roundtrip_idempotent(self, scene_dir, config_path, tmp_path):
        main(["run", "--scene", str(scene_dir), "--out", str(tmp_path / "run"),
              "--config", str(config_path), "--sequential"])
        pred = tmp_path / "run" / "predictions.json"
        gt = scene_dir / "gt_boxes.json"
        out1 = tmp_path / "sum1.json"
        out2 = tmp_path / "sum2.json"
        assert main(["eval", "--pred", str(pred), "--gt", str(gt),
                     "--out", str(out1)]) == EXIT_OK
        assert main(["eval", "--pred", str(pred), "--gt", str(gt),
                     "--out", str(out2)]) == EXIT_OK
        s1, s2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        s1.pop("eval_time"), s2.pop("eval_time")
        assert s1 == s2
        # and matches calling the library directly
        direct = evaluate_detections(load_boxes(pred), load_boxes(gt))
        assert abs(direct.nds - s1["nds"]) < 1e-12

    def test_huge_matched_boxes_score_zero_scale_error(self, tmp_path, capsys):
        """One matched pair of 1e308-sided boxes: ASE 0 and NDS 1, in the table and --out."""
        huge = {"translation": [0.0, 0.0, 0.0], "size": [1e308] * 3, "yaw": 0.0,
                "velocity": [0.0, 0.0], "detection_name": "car",
                "attribute_name": "vehicle.moving"}
        pred, gt, out = tmp_path / "pred.json", tmp_path / "gt.json", tmp_path / "sum.json"
        pred.write_text(json.dumps({"s": [dict(huge, detection_score=0.9)]}))
        gt.write_text(json.dumps({"s": [huge]}))
        assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(out)]) == EXIT_OK
        assert "nan" not in capsys.readouterr().out
        summary = json.loads(out.read_text())
        assert summary["mtp"]["ase"] == 0.0 and summary["nds"] == 1.0

    def test_empty_predictions_zero_map(self, scene_dir, tmp_path):
        pred = tmp_path / "empty.json"
        pred.write_text(json.dumps({"sample-0": []}))
        out = tmp_path / "sum.json"
        rc = main(["eval", "--pred", str(pred), "--gt",
                   str(scene_dir / "gt_boxes.json"), "--out", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["mean_ap"] == 0.0

    def test_token_mismatch_validation_error(self, scene_dir, tmp_path):
        pred = tmp_path / "bad.json"
        pred.write_text(json.dumps({"other-token": []}))
        rc = main(["eval", "--pred", str(pred), "--gt", str(scene_dir / "gt_boxes.json")])
        assert rc == EXIT_VALIDATION

    def test_missing_file_io_error(self, tmp_path):
        rc = main(["eval", "--pred", str(tmp_path / "nope.json"),
                   "--gt", str(tmp_path / "nope.json")])
        assert rc == EXIT_IO

    def test_deeply_nested_predictions_one_line_error(self, scene_dir, tmp_path, capsys):
        pred = tmp_path / "pred.json"
        pred.write_text('{"sample-0": ' + "[" * 5000 + "]" * 5000 + "}")
        capsys.readouterr()
        assert main(["eval", "--pred", str(pred), "--gt",
                     str(scene_dir / "gt_boxes.json")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"malformed boxes file {pred}" in err

    @pytest.mark.parametrize("keep", [0, 1, 40, -3])
    def test_truncated_predictions_one_line_error(self, scene_dir, tmp_path, capsys, keep):
        gt = scene_dir / "gt_boxes.json"
        pred = tmp_path / "pred.json"
        blob = gt.read_bytes()
        pred.write_bytes(blob[:keep % len(blob)])
        capsys.readouterr()
        assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) in (EXIT_VALIDATION,
                                                                         EXIT_IO)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(pred) in err


class TestCheckTables:
    def test_exit_zero_and_prints_cells(self, capsys):
        assert main(["check-tables"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "radar_camera_fusion/NDS" in out
        assert "FAIL" not in out

