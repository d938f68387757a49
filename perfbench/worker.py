"""Timed client: one process, ops back to back, no thread pool.

Started by run.py after set-up. It loads the plan, runs one warm-up op off
the clock, prints ``ready``, then runs ops in a closed loop for the given
number of seconds, checking each against the oracle outside the timed
region. Its last stdout line is a JSON record of the op times, checks and
peak RSS. With ``--trace 1`` every other op is traced (see tracing.py) and
the spans are written to ``--spans`` at the end.

Before every op and after the last one the worker times ``calibrate()``
(see calibration.py); run.py scales each op time by the calibrations on
either side of it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

from calibration import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    args = ap.parse_args()
    plan = json.loads(Path(args.plan).read_text())
    op = workloads.OPS[plan["workload"]](plan)
    n_inputs = len(op.inputs)

    last_digest: dict[int, str] = {}
    failures: list[str] = []

    def check(i: int, result, label: str) -> tuple[bool, dict]:
        why, dig = op.check(i, result)
        key = i % n_inputs
        if why is None and key in last_digest and last_digest[key] != dig:
            why = "output not byte-identical to the previous op on the same input"
        last_digest[key] = dig
        if why is not None:
            failures.append(f"{label}: {why}")
        return why is None, op.counts(result)

    for _ in range(3):  # first calls pay for page faults
        calibrate()
    try:
        warm_ok, _ = check(0, op.run(0), "warm-up")
    except Exception as err:  # a failing op is reported, never dropped
        warm_ok = False
        failures.append(f"warm-up: {type(err).__name__}: {err}")
    print("ready", flush=True)

    tracer = tracing.Tracer() if args.trace else None
    ops = []  # {"i", "s", "ok", "traced", "counts"}
    cal = [calibrate()]  # cal[i] before op i, cal[i + 1] after it
    begin = time.perf_counter()
    i = 0
    # bundles advance every two ops so each traced op has an untraced twin
    step = 2 if tracer else 1
    # stop before the loop (ops, checks and calibrations) would pass --seconds
    while len(ops) < MIN_OPS or (time.perf_counter() - begin
                                 + (time.perf_counter() - begin) / len(ops)) <= args.seconds:
        idx = i // step
        traced = tracer is not None and i % 2 == 1
        span_counts = None
        t0 = time.perf_counter()
        try:
            if traced:
                result, span_counts = tracer.run_op(i, lambda: op.run(idx), "op")
            else:
                result, span_counts = op.run(idx), None
            seconds = time.perf_counter() - t0
            ok, counts = check(idx, result, f"op {i}")
            del result
        except Exception as err:
            seconds = time.perf_counter() - t0
            ok, counts = False, {}
            failures.append(f"op {i}: {type(err).__name__}: {err}")
        rec = {"i": i, "input": idx % n_inputs, "s": seconds, "ok": ok, "traced": traced,
               "counts": counts}
        if traced:
            rec["span_counts"] = span_counts
        ops.append(rec)
        cal.append(calibrate())
        i += 1

    out = {"ops": ops, "calibration_s": cal, "warm_ok": warm_ok, "failures": failures[:20],
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        out["layers"] = {str(o["i"]): tracing.layer_summary(tracer.spans, o["i"])
                         for o in ops if o["traced"]}
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans}, fh)
            fh.write("\n")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
