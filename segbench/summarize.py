#!/usr/bin/env python3
"""Summarise benchmark run records.

Usage::

    python3 segbench/summarize.py [RECORD_OR_DIR ...]

With no argument it reads every ``.segbench/runs/*/record.json`` under the
current directory.  Untraced runs are grouped by workload: for each
end-to-end metric it prints the run count, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median.  Traced runs give each layer's share of the time
inside the operations, the pair-instance/unique-pair ratio and the traced
operation time against the untraced one.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPAN_METRICS = ("cloud_io.read_s", "cloud_io.write_s", "preprocess.outlier_s",
                "preprocess.voxel_s", "geometry.index_s", "geometry.normals_s",
                "features.extract_s", "learn.smo_s", "learn.score_s",
                "learn.model_io_s", "pipeline.assemble_s",
                "evaluation.curve_s", "synth.generate_s")


def load(args):
    paths = []
    for arg in args or [".segbench/runs"]:
        p = Path(arg)
        paths += sorted(p.glob("*/record.json")) if p.is_dir() else [p]
    return [json.loads(p.read_text()) for p in paths]


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv):
    records = load(argv)
    plain, traced = defaultdict(list), defaultdict(list)
    for rec in records:
        (traced if rec["args"]["trace"] else plain)[rec["args"]["workload"]] \
            .append(rec)
    for workload, recs in sorted(plain.items()):
        seeds = sorted(r["args"]["seed"] for r in recs)
        print(f"{workload}: {len(recs)} untraced runs, seeds {seeds}")
        for name in recs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in recs]
            med, q1, q3, share = spread(vals)
            print(f"  {name:<12} median {med:.6g}  quartiles {q1:.6g} .. "
                  f"{q3:.6g}  spread {share:.1%}")
        failed = sum(r["result"]["failed"] for r in recs)
        attempted = sum(r["result"]["attempted"] for r in recs)
        correct = all(r["result"]["correct"] for r in recs)
        print(f"  operations {attempted}, failed {failed}, all correct {correct}")
    for workload, recs in sorted(traced.items()):
        print(f"{workload}: {len(recs)} traced runs")
        op_time = sum(o["seconds"] for r in recs for o in r["ops"]
                      if "seconds" in o)
        inside = defaultdict(float)
        for rec in recs:
            for name, value in rec["phase_sums"]["op"].items():
                inside[name] += value
        for name in SPAN_METRICS:
            if inside.get(name):
                print(f"  {name:<22} {inside[name] / op_time:6.1%} of op time")
        extra = inside.get("geometry.csr_s", 0) + inside.get("bench.pair_count_s", 0)
        print(f"  {'counting (traced only)':<22} {extra / op_time:6.1%} of op time")
        if inside.get("features.unique_pairs"):
            print(f"  pair instances / unique pairs "
                  f"{inside['features.pair_instances'] / inside['features.unique_pairs']:.2f}")
        if plain.get(workload):
            untraced = statistics.median(
                o["scaled"] for r in plain[workload] for o in r["ops"]
                if "scaled" in o)
            med = statistics.median(o["scaled"] for r in recs
                                    for o in r["ops"] if "scaled" in o)
            print(f"  median op {med:.3f} s traced against {untraced:.3f} s "
                  f"untraced, at reference speed ({med / untraced - 1:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
