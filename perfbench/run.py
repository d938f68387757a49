"""bevkit benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload cam6 --seed 1 --seconds 45 --trace 0

Run from the root of a bevkit checkout. Set-up (inputs and oracle) runs in
this process; the timed ops run in a child process (worker.py) so that its
peak RSS covers only the warm-up and the timed ops. With ``--trace 0`` the
last stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. Earlier lines give a readable table and
a ``detail`` record with the environment, input shape, counts and checks.

``setup_s`` and the op-time metrics (``*_norm_s``) are wall times scaled to
a machine on which ``calibration.calibrate()`` takes ``CAL_REF_S``, using
the calibrations timed just before and just after each (calibration.py).
This removes most of a shared host's drift in speed. The raw wall times
are printed next to them and in ``detail``.
"""

from __future__ import annotations

import argparse
import os

NPROC = os.cpu_count() or 1
# one BLAS thread, fixed before numpy is first imported: the client is one
# process, and a second thread would also time how the host schedules the
# other core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import CAL_REF_S, calibrate, scaled  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cam6", "radar_dense", "eval_many")
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {"setup_s": "s", "op_p50_norm_s": "s", "op_tail_norm_s": "s",
              "ops_per_norm_s": "1/s", "peak_rss_mb": "MB"}
# per-layer metric -> unit; "_s" metrics are self times from the spans
PER_LAYER = {
    "scene.load_s": "s", "scene.bytes_read": "bytes",
    "geometry.depth_map_s": "s", "geometry.points_dropped": "count",
    "geometry.unproject_s": "s",
    "pillars.build_s": "s", "pillars.vfe_s": "s", "pillars.scatter_s": "s",
    "pillars.kept": "count", "pillars.truncated": "count",
    "kan.depthnet_s": "s",
    "nnprims.softmax_s": "s", "nnprims.lift_s": "s", "nnprims.refine_s": "s",
    "nnprims.lift_bytes": "bytes", "nnprims.lift_peak_mb": "MB", "nnprims.conv_s": "s",
    "voxelpool.pool_s": "s", "voxelpool.pool_peak_mb": "MB",
    "voxelpool.points_in": "count", "voxelpool.points_in_range": "count",
    "voxelpool.in_range_ratio": "ratio", "voxelpool.cells_occupied": "count",
    "voxelpool.bytes_in": "bytes",
    "fusion.match_s": "s", "fusion.proposals": "count", "fusion.matches": "count",
    "fusion.accept_ratio": "ratio", "fusion.fuse_s": "s", "fusion.loss_s": "s",
    "metrics.evaluate_s": "s", "metrics.match_s": "s", "metrics.match_calls": "count",
    "metrics.ap_s": "s", "metrics.load_boxes_s": "s", "metrics.boxes_in": "count",
    "pipeline.checksum_s": "s", "pipeline.checksum_bytes": "bytes",
    "pipeline.self_s": "s", "pipeline.preds_out": "count",
    "trace.overhead_ratio": "ratio", "trace.lift_refine_pool_share": "ratio",
    "wall.op_p50_s": "s", "wall.calibration_s": "s",
}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond it) at the highest percentile with
    min(10, n // 4) ops beyond it (at least one when n > 1)."""
    s = sorted(times)
    n = len(s)
    k = min(10, max(1, n // 4)) if n > 1 else 0
    return s[n - 1 - k], 100.0 * (n - k) / n, k


def op_times(ops: list[dict], key: str = "norm_s") -> list[float]:
    """Times of the correct ops, so that fast failures cannot flatter them;
    all times when none is correct."""
    return [o[key] for o in ops if o["ok"]] or [o[key] for o in ops]


def normalize(ops: list[dict], cal: list[float]) -> None:
    """Give each op ``norm_s``: its wall time scaled by the calibrations
    before (cal[k]) and after (cal[k + 1]) it."""
    for k, o in enumerate(ops):
        o["norm_s"] = scaled(o["s"], cal[k], cal[k + 1])


def op_metrics(ops: list[dict], key: str) -> dict:
    """p50, tail and correct ops per second over ``key`` ("s" or "norm_s")."""
    times = op_times(ops, key)
    value, pct, beyond = tail(times)
    return {"p50": statistics.median(times), "tail": value, "tail_pct": pct,
            "tail_beyond": beyond, "n": len(times),
            "per_s": sum(o["ok"] for o in ops) / sum(o[key] for o in ops)}


def environment(plan: dict) -> dict:
    import numpy as np
    from bevkit import pipeline as pl
    import workloads

    config = {"pipeline": pl.PipelineConfig().to_dict(), "workload": plan["workload"],
              "bundles": workloads.N_BUNDLES, "eval_tokens": workloads.EVAL_TOKENS}
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "nproc": NPROC,
        "config_hash": hashlib.sha256(json.dumps(config, sort_keys=True).encode())
        .hexdigest()[:16],
        "input_shape": plan["shape"],
    }


def check_counts(ops: list[dict], failures: list[str]) -> None:
    """Counts must repeat exactly per input and agree between span and report;
    an op that breaks either rule is marked failed."""
    first: dict[int, dict] = {}
    for o in ops:
        if not o["ok"]:
            continue
        ref = first.setdefault(o["input"], o["counts"])
        why = None
        if o["counts"] != ref:
            why = f"counts {o['counts']} differ from {ref} on the same input"
        for key, val in (o.get("span_counts") or {}).items():
            if key in o["counts"] and o["counts"][key] != val:
                why = f"traced {key}={val} but report says {o['counts'][key]}"
        if why:
            o["ok"] = False
            failures.append(f"op {o['i']}: {why}")


def layer_metrics(result: dict, untraced: list[dict], traced: list[dict]) -> dict:
    layers = [result["layers"][str(o["i"])] for o in result["ops"] if o["traced"]]
    counts = next(o["span_counts"] or {} for o in result["ops"] if o["traced"])

    def self_s(name: str) -> float:
        return statistics.median(lay.get(name, {}).get("self_s", 0.0) for lay in layers)

    def peak(name: str) -> float:
        return statistics.median(lay.get(name, {}).get("peak_mb", 0.0) for lay in layers)

    out = {}
    for metric, unit in PER_LAYER.items():
        if unit == "s":
            out[metric] = self_s(metric[:-2])  # span name without "_s"
        elif unit in ("count", "bytes"):
            out[metric] = counts.get(metric, 0)
    out["pipeline.self_s"] = self_s("pipeline.run")
    out["nnprims.lift_peak_mb"] = peak("nnprims.lift")
    out["voxelpool.pool_peak_mb"] = peak("voxelpool.pool")
    out["voxelpool.in_range_ratio"] = (counts.get("voxelpool.points_in_range", 0)
                                       / max(1, counts.get("voxelpool.points_in", 0)))
    out["fusion.accept_ratio"] = (counts.get("fusion.matches", 0)
                                  / max(1, counts.get("fusion.proposals", 0)))
    p50_u, p50_t = (statistics.median(op_times(untraced)),
                    statistics.median(op_times(traced)))
    out["trace.overhead_ratio"] = (p50_t - p50_u) / p50_u
    heavy = [out["nnprims.lift_s"], out["nnprims.refine_s"], out["voxelpool.pool_s"]]
    out["trace.lift_refine_pool_share"] = sum(heavy) / statistics.median(op_times(traced, "s"))
    out["wall.op_p50_s"] = statistics.median(op_times(untraced, "s"))
    out["wall.calibration_s"] = statistics.median(result["calibration_s"])
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through the finally below so the worker is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    for needed in (ROOT / "src" / "bevkit" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            return fail(f"{needed.relative_to(ROOT)} not found; run from a bevkit checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    calibrate()  # the first call pays for page faults
    cal_setup = calibrate()
    start = time.perf_counter()
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans_path = ROOT / ".bench_out" / f"spans_{args.workload}.json"
    spans_path.parent.mkdir(exist_ok=True)
    proc = None
    try:
        work.mkdir(parents=True)
        plan = workloads.OPS[args.workload].prepare(args.workload, args.seed, work)
        (work / "plan.json").write_text(json.dumps(plan))
        # set-up is two steps, each scaled by the calibrations around it
        prepare_wall_s = time.perf_counter() - start
        cal_mid = calibrate()
        worker_start = time.perf_counter()
        cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(work / "plan.json"),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans", str(spans_path)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        if proc.stdout.readline().strip() != "ready":
            return fail("worker failed during warm-up")
        worker_wall_s = time.perf_counter() - worker_start
        rest, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - start)))
        if proc.returncode != 0 or not rest.strip():
            return fail(f"worker exited with code {proc.returncode}")
        result = json.loads(rest.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        return fail("worker did not finish in time")
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    ops = result["ops"]
    failures = result["failures"]
    check_counts(ops, failures)
    normalize(ops, result["calibration_s"])
    setup_wall_s = prepare_wall_s + worker_wall_s
    setup_s = (scaled(prepare_wall_s, cal_setup, cal_mid)
               + scaled(worker_wall_s, cal_mid, result["calibration_s"][0]))
    n_failed = sum(not o["ok"] for o in ops)
    plain = [o for o in ops if not o["traced"]]
    norm, wall = op_metrics(plain, "norm_s"), op_metrics(plain, "s")
    e2e = {"setup_s": setup_s, "op_p50_norm_s": norm["p50"], "op_tail_norm_s": norm["tail"],
           "ops_per_norm_s": norm["per_s"], "peak_rss_mb": result["peak_rss_mb"]}
    raw = {"setup_wall_s": setup_wall_s, "op_p50_s": wall["p50"], "op_tail_s": wall["tail"],
           "ops_per_s": wall["per_s"],
           "calibration_p50_s": statistics.median(result["calibration_s"])}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(plan),
        "ops": len(ops), "failed_ratio": n_failed / len(ops),
        "op_times_s": [round(o["s"], 6) for o in ops],
        "op_norm_times_s": [round(o["norm_s"], 6) for o in ops],
        "calibration_s": [round(c, 6) for c in result["calibration_s"]],
        "cal_ref_s": CAL_REF_S, "wall_clock": raw,
        "setup_steps_wall_s": {"prepare": prepare_wall_s, "worker_warm_up": worker_wall_s},
        "setup_calibration_s": [cal_setup, cal_mid, result["calibration_s"][0]],
        "op_tail": {"percentile": norm["tail_pct"], "ops_beyond": norm["tail_beyond"],
                    "ops": norm["n"]},
        "warm_up_ok": result["warm_ok"], "failures": failures,
        "counts_by_input": {str(o["input"]): o["counts"] for o in ops},
    }
    if args.trace:
        layers = layer_metrics(result, plain, [o for o in ops if o["traced"]])
        metrics = {k: (layers[k], unit) for k, unit in PER_LAYER.items()}
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        detail["end_to_end_untraced_ops"] = e2e
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in e2e.items()}

    print(f"workload {args.workload}  seed {args.seed}  ops {len(ops)}  "
          f"failed_ratio {detail['failed_ratio']:.4f} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    if not args.trace:
        for name, value in raw.items():
            print(f"  {name:<32} {value:>16.6g} {'1/s' if name == 'ops_per_s' else 's'}"
                  "  (wall clock, not normalized)")
        print(f"  (op_tail is p{norm['tail_pct']:.1f} of {norm['n']} ops, "
              f"{norm['tail_beyond']} beyond it)")
    for msg in failures:
        print(f"  FAILED {msg}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": n_failed == 0 and result["warm_ok"],
        "attempted": len(ops), "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
