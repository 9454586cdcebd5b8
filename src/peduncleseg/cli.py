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

# each command's parser takes the flags that command reads, after its name
_FLAGS = {
    "--config": {"metavar": "PATH",
                 "help": "pipeline config INI (defaults built in)"},
    "--seed": {"type": int, "metavar": "N",
               "help": "override the seed of the scene spec or of the "
                       "config's [train] section"},
    "--workers": {"type": int, "default": 1, "metavar": "N",
                  "help": "prediction worker threads (default 1)"},
}


def _config(path, seed=None) -> PipelineConfig:
    """The pipeline config at ``path`` (the built-in defaults without one),
    with ``seed`` in place of its [train] seed when given."""
    config = load_pipeline_config(path) if path else PipelineConfig()
    if seed is None:
        return config
    return replace(config, train=replace(config.train, seed=seed))


def cmd_synth(args) -> int:
    request = load_scene_request(args.scene_spec)
    base = request.base if args.seed is None \
        else replace(request.base, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    entries = []
    for i in range(request.scenes):
        spec = scene_for_colour(base, request.colour, i)
        cloud = generate_scene(spec)
        name = f"{request.prefix}-{i:03d}.cloud"
        write_cloud(cloud, os.path.join(args.out_dir, name))
        entries.append(ManifestEntry(path=name, scene_id=f"{request.prefix}-{i:03d}",
                                     trip=1 + i % 2, colour=request.colour))
        log.info("wrote %s (%d points)", name, len(cloud))
    write_manifest(DatasetManifest(entries, base_dir=args.out_dir),
                   os.path.join(args.out_dir, "manifest.csv"))
    print(f"wrote {request.scenes} scenes + manifest to {args.out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _config(args.config, args.seed)
    manifest = read_manifest(args.manifest)
    t0 = time.perf_counter()
    features = assemble_training_matrix(manifest, config)
    model = train_svm(features, config.train)
    save_model(model, args.model_out)
    elapsed = time.perf_counter() - t0
    status = "converged" if model.meta["converged"] \
        else "not converged (stopped at max_passes)"
    print(f"trained on {model.meta['train_rows']} rows "
          f"({model.meta['distinct_rows']} distinct) in {elapsed:.1f}s; "
          f"SMO {status} after {model.meta['iterations']} iterations "
          f"({model.meta['kernel_rows']} kernel rows computed); "
          f"{model.support_count} support vectors -> {args.model_out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    config = _config(args.config)
    model = load_model(args.model)
    cloud = read_cloud(args.cloud)
    processed, features = scene_features(
        cloud, config, model.meta.get("feature_set", "full"))
    labels, scores, elapsed = predict_parallel(model, features, args.workers)
    write_cloud(processed.with_labels(labels), args.out)
    write_scores_csv(scores, labels,
                     os.path.splitext(args.out)[0] + "_scores.csv")
    rate = len(labels) / elapsed if elapsed > 0 else float("inf")
    print(f"{len(labels)} points scored in {elapsed:.3f}s "
          f"({rate:.0f} points/s, workers={args.workers}) -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _config(args.config)
    model = load_model(args.model)
    manifest = read_manifest(args.manifest)
    reports = evaluate(model, manifest, config)
    os.makedirs(args.report_dir, exist_ok=True)
    write_report_json(reports, os.path.join(args.report_dir, "report.json"))
    for report in reports:
        write_curve_csv(report.curve, os.path.join(
            args.report_dir, f"pr_{report.slice_tag}.csv"))
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


def cmd_sweep(args) -> int:
    config = _config(args.config, args.seed)
    manifest = read_manifest(args.manifest)
    grid = _read_grid(args.grid, config.train)
    split = SplitSpec(train_fraction=0.5, seed=config.train.seed)
    train_part, val_part = split_dataset(manifest, split)
    results = sweep(train_part, grid, val_part, config)
    with replaced(args.report) as fh:
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
    print(f"wrote {len(results)} sweep rows -> {args.report}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peduncleseg",
        description="Point-level sweet pepper peduncle detection: synthetic "
                    "scenes, SVM training, parallel prediction, PR/AUC "
                    "evaluation and hyperparameter sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, *flags, help):
        """Subparser ``name`` for ``run``, with only the flags that it reads."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    p = command("synth", cmd_synth, "--seed",
                help="generate labelled synthetic scenes + manifest")
    p.add_argument("scene_spec", help="scene spec INI file")
    p.add_argument("out_dir", help="directory for cloud files and manifest")

    p = command("train", cmd_train, "--config", "--seed",
                help="train an SVM from a labelled manifest")
    p.add_argument("manifest", help="dataset manifest CSV")
    p.add_argument("model_out", nargs="?", default="model.json",
                   help="model JSON path (default: model.json)")

    p = command("predict", cmd_predict, "--config", "--workers",
                help="label one cloud with a trained model")
    p.add_argument("model", help="model JSON path")
    p.add_argument("cloud", help="input cloud file")
    p.add_argument("out", help="output labelled cloud (scores CSV lands "
                               "next to it)")

    p = command("evaluate", cmd_evaluate, "--config",
                help="PR/AUC report over a labelled test manifest")
    p.add_argument("model", help="model JSON path")
    p.add_argument("manifest", help="test manifest CSV")
    p.add_argument("report_dir", nargs="?", default="reports",
                   help="report directory (default: reports)")

    p = command("sweep", cmd_sweep, "--config", "--seed",
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
        return args.run(args)
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
