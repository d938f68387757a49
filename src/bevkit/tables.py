"""Bundled reference result tables and the arithmetic self-check.

The fixtures below are published nuScenes-val detection results for two
BEV detectors: the camera-only BEVDepth baseline and a radar-camera fusion
model evaluated with the same protocol. Each method carries per-class APs
at the four distance thresholds (None where the table prints NaN), the
rounded per-class mean AP column, per-class TP errors, and the rounded
aggregate summary row.

check_tables() re-derives every aggregation cell from its row inputs using
this package's own evaluation arithmetic and compares against the rounded
published values. Agreement pins down the two missing-value rules: AP
means divide by all four thresholds with NaN counting zero, while global
TP-error means skip absent classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import (
    DETECTION_CLASSES,
    TP_METRICS,
    ClassEval,
    aggregate_summary,
    class_mean_ap,
    compose_nds,
)

# Rounded tables resolve to 3-4 decimals; allow half a final digit plus a
# hair of float slack so exact-boundary cells (e.g. 0.0745 vs 0.074) pass.
TABLE_TOL = 5e-4 + 1e-9

# Four row inputs each rounded to 3 decimals can shift their mean by up to
# 5e-4 before the cell's own rounding, so half-digit agreement is only
# guaranteed when the input errors do not align. They align on exactly one
# published cell (row mean 0.25125 printed as 0.252); it gets the full
# rounded-input bound instead.
ROUNDING_EXCEPTIONS = {"bevdepth_baseline/truck/mean_ap": 1e-3}

# Per-class AP at 0.5/1/2/4 m and the printed per-class mean AP.
BASELINE_AP = {
    "car": ((0.152, 0.405, 0.641, 0.734), 0.483),
    "truck": ((0.015, 0.129, 0.352, 0.509), 0.252),
    "bus": ((0.024, 0.224, 0.509, 0.684), 0.360),
    "trailer": ((None, 0.033, 0.198, 0.386), 0.154),
    "construction_vehicle": ((None, 0.005, 0.106, 0.187), 0.074),
    "pedestrian": ((0.113, 0.236, 0.331, 0.394), 0.268),
    "motorcycle": ((0.069, 0.281, 0.422, 0.509), 0.320),
    "bicycle": ((0.106, 0.278, 0.400, 0.437), 0.305),
    "traffic_cone": ((0.252, 0.413, 0.507, 0.580), 0.438),
    "barrier": ((0.201, 0.504, 0.628, 0.687), 0.505),
}

FUSION_AP = {
    "car": ((0.320, 0.622, 0.761, 0.809), 0.628),
    "truck": ((0.059, 0.239, 0.462, 0.575), 0.334),
    "bus": ((0.098, 0.373, 0.659, 0.730), 0.465),
    "trailer": ((None, 0.063, 0.316, 0.444), 0.206),
    "construction_vehicle": ((None, 0.036, 0.197, 0.289), 0.131),
    "pedestrian": ((0.167, 0.309, 0.402, 0.462), 0.335),
    "motorcycle": ((0.148, 0.411, 0.518, 0.549), 0.406),
    "bicycle": ((0.170, 0.370, 0.449, 0.477), 0.366),
    "traffic_cone": ((0.314, 0.469, 0.554, 0.621), 0.490),
    "barrier": ((0.239, 0.544, 0.646, 0.693), 0.531),
}

# Per-class TP errors (ate, ase, aoe, ave, aae); None where not applicable.
BASELINE_TP = {
    "car": (0.553, 0.171, 0.247, 0.631, 0.233),
    "truck": (0.751, 0.227, 0.291, 0.580, 0.227),
    "bus": (0.734, 0.226, 0.218, 1.224, 0.263),
    "trailer": (0.967, 0.234, 0.621, 0.545, 0.166),
    "construction_vehicle": (0.999, 0.509, 1.251, 0.123, 0.361),
    "pedestrian": (0.762, 0.302, 1.015, 0.599, 0.305),
    "motorcycle": (0.640, 0.273, 0.866, 0.747, 0.197),
    "bicycle": (0.558, 0.272, 0.934, 0.286, 0.007),
    "traffic_cone": (0.535, 0.353, None, None, None),
    "barrier": (0.514, 0.288, 0.237, None, None),
}

FUSION_TP = {
    "car": (0.393, 0.169, 0.176, 0.438, 0.215),
    "truck": (0.630, 0.220, 0.193, 0.371, 0.215),
    "bus": (0.602, 0.202, 0.133, 0.652, 0.221),
    "trailer": (0.903, 0.242, 0.588, 0.275, 0.158),
    "construction_vehicle": (0.955, 0.507, 1.262, 0.122, 0.407),
    "pedestrian": (0.652, 0.293, 0.901, 0.586, 0.263),
    "motorcycle": (0.522, 0.253, 0.865, 0.718, 0.212),
    "bicycle": (0.447, 0.267, 0.944, 0.234, 0.011),
    "traffic_cone": (0.475, 0.348, None, None, None),
    "barrier": (0.465, 0.280, 0.184, None, None),
}

# Aggregate summary rows: mTE, mSE, mOE, mVE, mAE, mAP, NDS.
BASELINE_SUMMARY = {
    "ate": 0.7014, "ase": 0.2855, "aoe": 0.6310, "ave": 0.5919, "aae": 0.2199,
    "map": 0.3160, "nds": 0.4150,
}
FUSION_SUMMARY = {
    "ate": 0.6044, "ase": 0.2780, "aoe": 0.5830, "ave": 0.4244, "aae": 0.2129,
    "map": 0.3891, "nds": 0.4845,
}

METHODS = {
    "bevdepth_baseline": (BASELINE_AP, BASELINE_TP, BASELINE_SUMMARY),
    "radar_camera_fusion": (FUSION_AP, FUSION_TP, FUSION_SUMMARY),
}


@dataclass
class CellCheck:
    """One recomputed table cell compared to its published value."""

    name: str
    expected: float
    computed: float
    tol: float = TABLE_TOL

    @property
    def ok(self) -> bool:
        return abs(self.expected - self.computed) <= self.tol


def _class_evals(ap_table, tp_table) -> list[ClassEval]:
    evals = []
    for name in DETECTION_CLASSES:
        ap4, _ = ap_table[name]
        tp = dict(zip(TP_METRICS, tp_table[name]))
        evals.append(ClassEval(name, list(ap4), tp))
    return evals


def check_tables() -> list[CellCheck]:
    """Recompute every derivable aggregation cell of the reference tables."""
    checks: list[CellCheck] = []
    for method, (ap_table, tp_table, summary) in METHODS.items():
        for name in DETECTION_CLASSES:
            ap4, printed_mean = ap_table[name]
            cell = f"{method}/{name}/mean_ap"
            checks.append(CellCheck(cell, printed_mean, class_mean_ap(ap4),
                                    ROUNDING_EXCEPTIONS.get(cell, TABLE_TOL)))
        agg = aggregate_summary(_class_evals(ap_table, tp_table))
        checks.append(CellCheck(f"{method}/mAP", summary["map"], agg.mean_ap))
        for metric in TP_METRICS:
            checks.append(CellCheck(f"{method}/m{metric.upper()[1:]}",
                                    summary[metric], agg.mtp[metric]))
        # NDS is recomputed from the published summary row itself.
        nds = compose_nds(summary["map"], [summary[m] for m in TP_METRICS])
        checks.append(CellCheck(f"{method}/NDS", summary["nds"], nds))
    return checks


def render_check_report(checks: list[CellCheck]) -> str:
    lines = []
    for c in checks:
        status = "ok  " if c.ok else "FAIL"
        lines.append(f"[{status}] {c.name:<45} expected {c.expected:.4f} "
                     f"computed {c.computed:.4f} (tol {c.tol:.0e})")
    n_fail = sum(not c.ok for c in checks)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} cells agree")
    return "\n".join(lines)
