"""A fixed piece of work that measures how fast the machine is right now.

On a shared host the same bevkit op runs up to 1.6x slower for stretches
of seconds to minutes, while its CPU time stays equal to its wall time:
the cores themselves slow down. ``calibrate()`` slows down with them. The
benchmark times it next to every op and next to the set-up, and reports
times scaled to a machine on which it takes ``CAL_REF_S`` seconds:

    scaled = wall * CAL_REF_S / mean(calibration before, calibration after)

It uses nothing from bevkit, so no change to bevkit can move it.
"""

from __future__ import annotations

import time

import numpy as np

CAL_REF_S = 0.1  # calibration time of the reference machine
CAL_LOOP = 700_000  # interpreter iterations per calibration
CAL_ROUNDS = 12  # numpy rounds per calibration
# 2 MiB of fixed contents and a scratch buffer, small next to any op's peak;
# working in place keeps the timing free of the allocator state an op leaves
_CAL_DATA = np.random.default_rng(0).random(1 << 18)
_CAL_BUF = np.empty_like(_CAL_DATA)


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work.

    About half of it is a pure-Python integer loop, half sorting and
    elementwise arithmetic on a 2 MiB array, both of which the pipeline
    mixes. Memory-bound stages slow down less than this on a slow host, so
    scaling removes less of the drift from cam6 than from radar_dense. The
    results are checked so a broken numpy or interpreter cannot pass as a
    fast machine.
    """
    t0 = time.perf_counter()
    acc = 0
    for k in range(CAL_LOOP):
        acc += k * k
    tot = 0.0
    for _ in range(CAL_ROUNDS):
        _CAL_BUF[:] = _CAL_DATA
        _CAL_BUF.sort()
        tot += float(_CAL_BUF[1 << 17])
        np.multiply(_CAL_DATA, 1.5, out=_CAL_BUF)
        np.add(_CAL_BUF, 2.0, out=_CAL_BUF)
        tot += float(_CAL_BUF[12345])
    seconds = time.perf_counter() - t0
    if acc != (CAL_LOOP - 1) * CAL_LOOP * (2 * CAL_LOOP - 1) // 6 or not tot > 0.0:
        raise RuntimeError("calibration computed a wrong result")
    return seconds


def scaled(wall_s: float, cal_before: float, cal_after: float) -> float:
    """``wall_s`` on the reference machine, given the calibrations around it."""
    return wall_s * CAL_REF_S / ((cal_before + cal_after) / 2.0)
