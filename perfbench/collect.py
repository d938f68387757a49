"""Run the benchmark over many seeds and write one baseline JSON file.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

Workloads and run length default to those in BENCHMARK.json. For each
workload: one untraced run per seed, then two traced runs on the
first seed. Each run's last stdout line (the result object the benchmark
contract defines) is stored as printed, next to its ``detail`` record. The
summary gives each end-to-end metric's median, quartiles and spread
(quartile distance over median), and ``wall_clock_summary`` the same
for the raw wall-clock figures next to the calibrated ones. The count check confirms that the counts
an op reports repeat exactly between the untraced and the traced runs of
one seed, and that the per-layer counts repeat between the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    detail = next(json.loads(ln[len("detail "):]) for ln in lines if ln.startswith("detail "))
    return {"seed": seed, "trace": trace, "wall_s": time.perf_counter() - t0,
            "result": json.loads(lines[-1]), "detail": detail}


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(vals: list[float]) -> dict:
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def summarize(runs: list[dict]) -> dict:
    metrics = runs[0]["result"]["metrics"]
    return {name: {**quartiles([r["result"]["metrics"][name]["value"] for r in runs]),
                   "unit": metrics[name]["unit"]} for name in metrics}


def summarize_wall(runs: list[dict]) -> dict:
    """The same summary over the raw wall-clock figures of each run's detail."""
    return {name: quartiles([r["detail"]["wall_clock"][name] for r in runs])
            for name in runs[0]["detail"]["wall_clock"]}


def count_check(untraced: dict, traced: list[dict]) -> dict:
    per_layer = [{k: m["value"] for k, m in t["result"]["metrics"].items()
                  if m["unit"] in ("count", "bytes")} for t in traced]
    return {
        "report_counts_match": all(t["detail"]["counts_by_input"]
                                   == {k: v for k, v in untraced["detail"]["counts_by_input"]
                                       .items() if k in t["detail"]["counts_by_input"]}
                                   for t in traced),
        "per_layer_counts_repeat": all(p == per_layer[0] for p in per_layer),
        "per_layer_counts": per_layer[0],
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--note", default="")
    args = ap.parse_args()
    report = {"note": args.note, "machine": platform.machine(), "seconds": args.seconds,
              "workloads": {}}
    for wl in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(run(wl, seed, args.seconds, 0))
            print(wl, seed, {k: round(v["value"], 4)
                             for k, v in runs[-1]["result"]["metrics"].items()}, flush=True)
        traced = [run(wl, args.seeds[0], args.seconds, 1) for _ in range(2)]
        report["workloads"][wl] = {
            "environment": runs[0]["detail"]["environment"],
            "summary": summarize(runs),
            "wall_clock_summary": summarize_wall(runs),
            "per_layer": summarize(traced),
            "count_check": count_check(runs[0], traced),
            "all_correct": all(r["result"]["correct"] for r in runs + traced),
            "runs": runs + traced,
        }
        for name, s in report["workloads"][wl]["summary"].items():
            print(f"  {name:<14} median {s['median']:.4f} {s['unit']:<4} spread {s['spread']:.4f}")
        print("  count check", {k: v for k, v in report["workloads"][wl]["count_check"].items()
                                if k != "per_layer_counts"}, flush=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
