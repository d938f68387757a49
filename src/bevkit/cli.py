"""Command-line surface: gen, run, eval, check-tables.

Exit codes: 0 on success, 1 on validation failure, 2 on I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import metrics as me
from . import tables
from .nnprims import read_json, write_json
from .pillars import read_cloud_csv, write_pc4d
from .pipeline import MODALITIES, PipelineConfig, run_pipeline, save_run_outputs
from .scene import MAX_CAMERAS, default_scene_spec, generate_scene, spec_from_json

EXIT_OK, EXIT_VALIDATION, EXIT_IO = 0, 1, 2


def cmd_gen(args) -> int:
    # the flags default to None, so a given one is seen; seed and densities override a spec's
    # and are merged in before it is read, so they may supply a field it lacks
    given = {k: v for k, v in (("seed", args.seed), ("radar_density", args.radar_density),
                               ("lidar_density", args.lidar_density)) if v is not None}
    if args.spec:
        for flag, v in (("--cameras", args.cameras), ("--objects", args.objects)):
            if v is not None:
                raise ValueError(f"{flag} does not combine with --spec, which sets the {flag[2:]}")
        d = read_json(args.spec, "scene spec")
        try:
            spec = spec_from_json({**d, **given} if isinstance(d, dict) else d)
        except (TypeError, AttributeError, KeyError, ValueError) as err:
            raise ValueError(f"malformed scene spec {args.spec}: {err}") from err
    else:
        cameras = 1 if args.cameras is None else args.cameras
        objects = 8 if args.objects is None else args.objects
        if not 1 <= cameras <= MAX_CAMERAS:
            raise ValueError(f"--cameras must be an integer in [1, {MAX_CAMERAS}], got {cameras}")
        if objects < 0:
            raise ValueError(f"--objects must be an integer >= 0, got {objects}")
        spec = default_scene_spec(**{"seed": 0, **given}, n_objects=objects, n_cameras=cameras)
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
        write_json(args.out, summary.to_dict())
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
    p_gen.add_argument("--cameras", type=int, default=None)
    p_gen.add_argument("--objects", type=int, default=None)
    p_gen.add_argument("--radar-density", type=float, default=None)
    p_gen.add_argument("--lidar-density", type=float, default=None)
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
        print("error: out of memory" + (f": {err}" if str(err) else ""), file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
