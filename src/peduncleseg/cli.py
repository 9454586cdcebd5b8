"""Command-line front end: synth, train, predict, evaluate, sweep.

Exit codes: 0 success, 2 usage or spec error, 3 I/O error, 4 training or
evaluation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import logging
import os
import sys
import time
from dataclasses import replace

from .cloud_io import (CloudFormatError, ManifestError, ManifestEntry,
                       DatasetManifest, read_cloud, read_manifest, read_text,
                       replaced, write_cloud, write_manifest,
                       write_scores_csv)
from .config import ConfigError, PipelineConfig, load_pipeline_config
from .evaluation import (EvaluationError, SplitSpec, evaluate, split_dataset,
                         sweep, write_curve_csv, write_report_json)
from .learn import (KernelSpec, ModelFormatError, TrainConfig, TrainingError,
                    load_model, predict_parallel, save_model, train_svm)
from .pipeline import assemble_training_matrix, scene_features
from .synth import SceneSpecError, generate_scene, load_scene_request, \
    scene_for_colour

log = logging.getLogger("peduncleseg")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_TRAINING = 4


def cmd_synth(config: PipelineConfig, scene_spec_path, out_dir,
              seed=None) -> int:
    request = load_scene_request(scene_spec_path)
    base = request.base if seed is None else replace(request.base, seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for i in range(request.scenes):
        spec = scene_for_colour(base, request.colour, i)
        cloud = generate_scene(spec)
        name = f"{request.prefix}-{i:03d}.cloud"
        write_cloud(cloud, os.path.join(out_dir, name))
        entries.append(ManifestEntry(path=name, scene_id=f"{request.prefix}-{i:03d}",
                                     trip=1 + i % 2, colour=request.colour))
        log.info("wrote %s (%d points)", name, len(cloud))
    write_manifest(DatasetManifest(entries, base_dir=out_dir),
                   os.path.join(out_dir, "manifest.csv"))
    print(f"wrote {request.scenes} scenes + manifest to {out_dir}")
    return EXIT_OK


def cmd_train(config: PipelineConfig, manifest_path, model_out) -> int:
    manifest = read_manifest(manifest_path)
    t0 = time.perf_counter()
    features = assemble_training_matrix(manifest, config)
    model = train_svm(features, config.train)
    save_model(model, model_out)
    elapsed = time.perf_counter() - t0
    status = "converged" if model.meta["converged"] \
        else "not converged (stopped at max_passes)"
    print(f"trained on {model.meta['train_rows']} rows "
          f"({model.meta['distinct_rows']} distinct) in {elapsed:.1f}s; "
          f"SMO {status} after {model.meta['iterations']} iterations "
          f"({model.meta['kernel_rows']} kernel rows computed); "
          f"{model.support_count} support vectors -> {model_out}")
    return EXIT_OK


def cmd_predict(config: PipelineConfig, model_path, cloud_path, out_path,
                workers: int = 1) -> int:
    model = load_model(model_path)
    cloud = read_cloud(cloud_path)
    processed, features = scene_features(
        cloud, config, model.meta.get("feature_set", "full"))
    labels, scores, elapsed = predict_parallel(model, features, workers)
    write_cloud(processed.with_labels(labels), out_path)
    write_scores_csv(scores, labels,
                     os.path.splitext(out_path)[0] + "_scores.csv")
    rate = len(labels) / elapsed if elapsed > 0 else float("inf")
    print(f"{len(labels)} points scored in {elapsed:.3f}s "
          f"({rate:.0f} points/s, workers={workers}) -> {out_path}")
    return EXIT_OK


def cmd_evaluate(config: PipelineConfig, model_path, manifest_path,
                 report_dir) -> int:
    model = load_model(model_path)
    manifest = read_manifest(manifest_path)
    reports = evaluate(model, manifest, config)
    os.makedirs(report_dir, exist_ok=True)
    write_report_json(reports, os.path.join(report_dir, "report.json"))
    for report in reports:
        write_curve_csv(report.curve,
                        os.path.join(report_dir, f"pr_{report.slice_tag}.csv"))
    for report in reports:
        print(f"slice {report.slice_tag}: AUC {report.auc:.4f} "
              f"({report.positives} pos / {report.negatives} neg)")
    return EXIT_OK


def _read_grid(path, train: TrainConfig):
    """Grid CSV: header kernel,gamma,c[,feature_set]; bad rows are skipped."""
    grid = []
    reader = csv.DictReader(io.StringIO(read_text(path, ConfigError)))
    if reader.fieldnames is None or \
            not {"kernel", "gamma", "c"} <= set(reader.fieldnames):
        raise ConfigError(
            f"grid file {path} needs a kernel,gamma,c header")
    for lineno, row in enumerate(reader, start=2):
        try:
            kind = (row["kernel"] or "").strip()
            raw_gamma = (row["gamma"] or "").strip()
            gamma = None if kind == "linear" or raw_gamma in ("", "none") \
                else float(raw_gamma)
            feature_set = (row.get("feature_set") or "").strip()
            config = replace(train, kernel=KernelSpec(kind, gamma),
                             c=float(row["c"]),
                             feature_set=feature_set or train.feature_set)
        except (KeyError, TypeError, ValueError) as exc:
            log.warning("grid line %d skipped: %s", lineno, exc)
            continue
        grid.append(config)
    if not grid:
        raise ConfigError(f"grid file {path} has no usable rows")
    return grid


def cmd_sweep(config: PipelineConfig, manifest_path, grid_path,
              report_path) -> int:
    manifest = read_manifest(manifest_path)
    grid = _read_grid(grid_path, config.train)
    split = SplitSpec(train_fraction=0.5, seed=config.train.seed)
    train_part, val_part = split_dataset(manifest, split)
    results = sweep(train_part, grid, val_part, config)
    with replaced(report_path) as fh:
        fh.write("kernel,gamma,c,feature_set,auc,error\n")
        for r in results:
            k = r.config.kernel
            gamma = "" if k.gamma is None else repr(float(k.gamma))
            auc_txt = "" if r.auc is None else repr(float(r.auc))
            err = (r.error or "").replace(",", ";").replace("\n", " ")
            fh.write(f"{k.kind},{gamma},{repr(float(r.config.c))},"
                     f"{r.config.feature_set},{auc_txt},{err}\n")
    ok = [r for r in results if r.error is None]
    for r in ok[:5]:
        print(f"{r.config.kernel.kind} gamma={r.config.kernel.gamma} "
              f"c={r.config.c} [{r.config.feature_set}]: AUC {r.auc:.4f}")
    if not ok:
        print("every sweep configuration failed", file=sys.stderr)
        return EXIT_TRAINING
    print(f"wrote {len(results)} sweep rows -> {report_path}")
    return EXIT_OK


def _common_flags() -> argparse.ArgumentParser:
    """Flags accepted before or after the subcommand.

    SUPPRESS keeps a subparser from re-applying defaults over values the
    top-level parser already read, so the two parsers need separate action
    objects (set_defaults on one must not rewrite the other's defaults).
    """
    common = argparse.ArgumentParser(add_help=False)
    for args, kwargs in (
        (("--config",), {"metavar": "PATH",
                         "help": "pipeline config INI (defaults built in)"}),
        (("--workers",), {"type": int, "metavar": "N",
                          "help": "prediction worker threads (default 1)"}),
        (("--seed",), {"type": int, "metavar": "N",
                       "help": "override the seed in config/spec files"}),
    ):
        common.add_argument(*args, default=argparse.SUPPRESS, **kwargs)
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()

    parser = argparse.ArgumentParser(
        prog="peduncleseg", parents=[_common_flags()],
        description="Point-level sweet pepper peduncle detection: synthetic "
                    "scenes, SVM training, parallel prediction, PR/AUC "
                    "evaluation and hyperparameter sweeps.")
    parser.set_defaults(config=None, workers=1, seed=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate labelled synthetic scenes + manifest")
    p.add_argument("scene_spec", help="scene spec INI file")
    p.add_argument("out_dir", help="directory for cloud files and manifest")

    p = sub.add_parser("train", parents=[common],
                       help="train an SVM from a labelled manifest")
    p.add_argument("manifest", help="dataset manifest CSV")
    p.add_argument("model_out", nargs="?", default=None,
                   help="model JSON path (default: config paths.model)")

    p = sub.add_parser("predict", parents=[common],
                       help="label one cloud with a trained model")
    p.add_argument("model", help="model JSON path")
    p.add_argument("cloud", help="input cloud file")
    p.add_argument("out", help="output labelled cloud (scores CSV lands "
                               "next to it)")

    p = sub.add_parser("evaluate", parents=[common],
                       help="PR/AUC report over a labelled test manifest")
    p.add_argument("model", help="model JSON path")
    p.add_argument("manifest", help="test manifest CSV")
    p.add_argument("report_dir", nargs="?", default=None,
                   help="report directory (default: config paths.reports)")

    p = sub.add_parser("sweep", parents=[common],
                       help="grid-search kernel parameters with a 50-50 split")
    p.add_argument("manifest", help="dataset manifest CSV")
    p.add_argument("grid", help="grid CSV: kernel,gamma,c[,feature_set]")
    p.add_argument("report", help="ranked result CSV path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")

    try:
        cfg = load_pipeline_config(args.config) if args.config \
            else PipelineConfig()
        if args.seed is not None:
            cfg = replace(cfg, train=replace(cfg.train, seed=args.seed))

        if args.command == "synth":
            return cmd_synth(cfg, args.scene_spec, args.out_dir,
                             seed=args.seed)
        if args.command == "train":
            out = args.model_out or cfg.model_path
            return cmd_train(cfg, args.manifest, out)
        if args.command == "predict":
            return cmd_predict(cfg, args.model, args.cloud, args.out,
                               workers=args.workers)
        if args.command == "evaluate":
            report_dir = args.report_dir or cfg.report_dir
            return cmd_evaluate(cfg, args.model, args.manifest, report_dir)
        # the required subparsers admit no other command
        return cmd_sweep(cfg, args.manifest, args.grid, args.report)
    except (TrainingError, EvaluationError, ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (CloudFormatError, ManifestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, SceneSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
