"""Bundle fuzzer: one mutation of a small bundle per example, run through the CLI.

Each example copies one small bundle, with the run's config.json beside its
files, and changes it once: a JSON leaf of scene.json, gt_boxes.json or
config.json set to an awkward value (huge integers among them) or deleted, a
binary file truncated, one header byte changed or 4 payload bytes overwritten.
Whatever the change, `bevkit run` must end in exit 0, 1 or 2 without
raising. Exits 1 and 2 print exactly one stderr line; exit 0 leaves stderr
empty, and the detection losses are finite (depth_bce may be NaN when no
camera sees a supervised pixel). Warnings are errors here, so one that
would reach stderr fails the example.
"""

import contextlib
import io
import json
import math
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevkit.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from bevkit.pipeline import PipelineConfig
from bevkit.scene import default_scene_spec, generate_scene

VALUES = [None, "x", -1, 0, 1e308, -1e308, float("nan"), [], {}, [1.0], True, 1e20, 1e-320,
          10**400, -10**400]
DELETE = "<delete>"
# binary files -> header length: PC4D magic, count, 8 reserved bytes; TNSR magic, rank 3
BINARY = {"radar.pc4d": 16, "lidar.pc4d": 16, "features_cam0.tnsr": 20}


def _leaves(node, path=()):
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaves(value, (*path, i))
    else:
        yield path


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    spec = default_scene_spec(3, n_objects=4, radar_density=300.0, lidar_density=800.0,
                              feature_shape=(8, 8, 22))
    scene = generate_scene(spec, root / "scene")
    PipelineConfig(n_depth_bins=24, n_context=12, bev_cells=64, bev_range=32.0,
                   kan_hidden=(16,), radar_channels=8).to_json(scene / "config.json")
    leaves = [(name, path) for name in ("scene.json", "gt_boxes.json", "config.json")
              for path in _leaves(json.loads((scene / name).read_text()))]
    return scene, leaves


def _mutate(scene: Path, leaves, data) -> None:
    kind = data.draw(st.sampled_from(["json", "truncate", "header", "payload"]), label="kind")
    if kind == "json":
        name, path = data.draw(st.sampled_from(leaves), label="leaf")
        value = data.draw(st.sampled_from([*VALUES, DELETE]), label="value")
        doc = json.loads((scene / name).read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value == DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        (scene / name).write_text(json.dumps(doc))
        return
    name = data.draw(st.sampled_from(sorted(BINARY)), label="file")
    blob, header = bytearray((scene / name).read_bytes()), BINARY[name]
    if kind == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1), label="length"):]
    elif kind == "header":
        blob[data.draw(st.integers(0, header - 1), label="at")] = data.draw(
            st.integers(0, 255), label="byte")
    else:
        at = data.draw(st.integers(header, len(blob) - 4), label="at")
        blob[at:at + 4] = data.draw(st.binary(min_size=4, max_size=4), label="bytes")
    (scene / name).write_bytes(bytes(blob))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_mutated_bundle_ends_in_one_line_or_a_clean_run(fuzz_base, data):
    base, leaves = fuzz_base
    with tempfile.TemporaryDirectory() as tmp:
        scene, out = Path(tmp) / "scene", Path(tmp) / "out"
        shutil.copytree(base, scene)
        _mutate(scene, leaves, data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", "--scene", str(scene), "--out", str(out),
                       "--config", str(scene / "config.json")])
        err = err.getvalue()
        assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_IO)
        if rc != EXIT_OK:
            assert err.count("\n") == 1, err
            return
        assert err == "", err
        losses = json.loads((out / "report.json").read_text())["losses"]
    assert all(math.isfinite(losses[k]) for k in ("l_det", "l_heatmap", "l_bbox")), losses
