"""Command-line surface: gen, run, eval, check-tables.

Exit codes: 0 on success, 1 on validation failure, 2 on I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import metrics as me
from . import tables
from .pillars import read_cloud_csv, write_pc4d
from .pipeline import MODALITIES, PipelineConfig, run_pipeline, save_run_outputs
from .scene import MAX_CAMERAS, SceneSpec, default_scene_spec, generate_scene, spec_from_json

EXIT_OK, EXIT_VALIDATION, EXIT_IO = 0, 1, 2


def cmd_gen(args) -> int:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            try:
                spec = spec_from_json(json.load(fh))
            except (TypeError, AttributeError, KeyError, ValueError, OverflowError,
                    RecursionError) as err:
                raise ValueError(f"malformed scene spec {args.spec}: {err}") from err
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
    else:
        if not 1 <= args.cameras <= MAX_CAMERAS:
            raise ValueError(f"--cameras must be an integer in [1, {MAX_CAMERAS}], "
                             f"got {args.cameras}")
        if args.objects < 0:
            raise ValueError(f"--objects must be an integer >= 0, got {args.objects}")
        spec = default_scene_spec(
            seed=args.seed if args.seed is not None else 0,
            n_objects=args.objects, n_cameras=args.cameras,
            radar_density=args.radar_density, lidar_density=args.lidar_density)
    # externally captured clouds may replace the synthetic ones; read them before writing
    clouds = {name: read_cloud_csv(path) for name, path in
              (("radar", args.radar_csv), ("lidar", args.lidar_csv)) if path}
    out = generate_scene(spec, args.out)
    for name, cloud in clouds.items():
        write_pc4d(out / f"{name}.pc4d", cloud.points)
    print(f"scene bundle written to {out}")
    return EXIT_OK


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.from_json(args.config) if args.config else PipelineConfig()
    return dataclasses.replace(cfg, modality=args.modality or cfg.modality,
                               sequential=args.sequential or cfg.sequential)


def cmd_run(args) -> int:
    cfg = _load_config(args)
    report, predictions = run_pipeline(args.scene, cfg)
    report_path, pred_path = save_run_outputs(args.out, report, predictions)
    print(f"report: {report_path}")
    print(f"predictions: {pred_path}")
    if report.eval_summary is not None:
        print(me.render_summary_table({"this_run": report.eval_summary}))
    losses = ", ".join(f"{k}={v:.4f}" for k, v in sorted(report.losses.items()))
    print(f"losses: {losses}")
    return EXIT_OK


def cmd_eval(args) -> int:
    preds = me.load_boxes(args.pred)
    gts = me.load_boxes(args.gt)
    summary = me.evaluate_detections(preds, gts)
    print(me.render_summary_table({"evaluated": summary}))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"summary written to {args.out}")
    return EXIT_OK


def cmd_check_tables(args) -> int:
    checks = tables.check_tables()
    print(tables.render_check_report(checks))
    return EXIT_OK if all(c.ok for c in checks) else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bevkit",
                                     description="desk-scale BEV perception pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic scene bundle")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--spec", default=None, help="SceneSpec JSON path")
    p_gen.add_argument("--cameras", type=int, default=1)
    p_gen.add_argument("--objects", type=int, default=8)
    p_gen.add_argument("--radar-density", type=float, default=SceneSpec.radar_density)
    p_gen.add_argument("--lidar-density", type=float, default=SceneSpec.lidar_density)
    p_gen.add_argument("--radar-csv", default=None,
                       help="x,y,z,r CSV replacing the synthetic radar cloud")
    p_gen.add_argument("--lidar-csv", default=None,
                       help="x,y,z,r CSV replacing the synthetic lidar cloud")
    p_gen.set_defaults(fn=cmd_gen)

    p_run = sub.add_parser("run", help="run the pipeline on a scene bundle")
    p_run.add_argument("--scene", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--config", default=None, help="pipeline config JSON")
    p_run.add_argument("--modality", choices=MODALITIES, default=None)
    p_run.add_argument("--sequential", action="store_true",
                       help="accepted for older scripts; every run is sequential")
    p_run.set_defaults(fn=cmd_run)

    p_eval = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--gt", required=True)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(fn=cmd_eval)

    p_check = sub.add_parser("check-tables",
                             help="recompute the bundled reference-table arithmetic")
    p_check.set_defaults(fn=cmd_check_tables)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
