#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 segbench/run.py --workload detect|train-eval|sweep --seed N \
        --seconds S --trace 0|1

The package is imported from this checkout's ``src/``.  The run warms up,
times its set-up three times, then runs whole rounds of operations until
their summed time reaches ``--seconds``, checking every operation's outputs
outside the timed region.  Times are reported scaled to a reference host
speed (see ``timed``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics untraced (``--trace 0``) or the per-layer metrics traced
(``--trace 1``).  The line before it records provenance.  A run record and,
traced, every span go to ``.segbench/runs/`` under the current directory.
"""

import os
import sys

# fixed before numpy loads, whatever the caller's environment says
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUPS = 3           # set-up repetitions; setup_s is their median
WALL_LIMIT_S = 150   # start no round that would likely end after this
REFERENCE_S = 0.2    # calibration time that reported times are scaled to


def import_program():
    """Import peduncleseg from this checkout's src/, or exit with 2."""
    if not (SRC / "peduncleseg" / "__init__.py").is_file():
        print(f"error: no peduncleseg package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(ROOT))
    import peduncleseg
    if Path(peduncleseg.__file__).resolve().parent != SRC / "peduncleseg":
        print(f"error: imported {peduncleseg.__file__}, not the checkout's",
              file=sys.stderr)
        sys.exit(2)
    return peduncleseg


def provenance(workers):
    import numpy
    import scipy
    from peduncleseg import _kernels, __version__
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "peduncleseg").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"backend": _kernels.BACKEND, "usable_cpus": workers,
            "blas_threads": BLAS_THREADS, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "peduncleseg": __version__, "git_commit": commit,
            "src_sha256": src_hash.hexdigest()}


def calibration_seconds():
    """Seconds a fixed numpy kernel takes right now: the host's current speed.

    The kernel loads the machine the way the program's hot paths do, in code
    of its own: elementwise maths over fresh million-element temporaries, a
    scatter-add, and strided column reads of a 50 MB matrix.  No program
    code runs in it, so a change to the program cannot move it.
    """
    import numpy as np
    rng = np.random.default_rng(12345)
    matrix = rng.random((2500, 2500))
    start = time.perf_counter()
    for _ in range(4):
        x, y, z = rng.random((3, 600_000))
        d = np.sqrt(x * x + y * y + z * z)
        u, v = x / d, y / d
        w = np.where(u > v, u * z - v, v * z - u)
        bins = np.floor((np.arctan2(w, u + v) + np.pi) * 1.75).astype(np.int64)
        counts = np.zeros((1000, 11), dtype=np.int64)
        np.add.at(counts, (np.arange(bins.size) % 1000, np.clip(bins, 0, 10)), 1)
    acc = np.zeros(len(matrix))
    for j in range(0, len(matrix), 2):
        acc += matrix[:, j]
    return time.perf_counter() - start


def timed(fn, *args):
    """Run ``fn``: (result, seconds, seconds at reference speed, calibrations).

    The host's speed drifts by tens of per cent within minutes, so each
    timed call is bracketed by two calibrations and its time is scaled by
    REFERENCE_S over their mean.
    """
    before = calibration_seconds()
    start = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - start
    after = calibration_seconds()
    return result, seconds, seconds * REFERENCE_S * 2 / (before + after), \
        [before, after]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("detect", "train-eval", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from segbench.flow import Flow, Trace
    from segbench.workloads import WORKLOADS, warm_up

    started = time.perf_counter()
    workers = len(os.sched_getaffinity(0))
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    run_dir = Path.cwd() / ".segbench" / "runs" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    work = Path.cwd() / ".segbench" / f"work-{os.getpid()}"
    run_dir.mkdir(parents=True)
    work.mkdir(parents=True)
    record = {"args": vars(args), "provenance": provenance(workers)}
    print(json.dumps({"provenance": record["provenance"]}), flush=True)
    try:
        trace = Trace(bool(args.trace))
        kind = WORKLOADS[args.workload]
        workload = kind(Flow(kind.config(), trace), args.seed, work, workers)
        warm_up(work, workers)
        calibration_seconds()

        setups = []
        for _ in range(SETUPS):
            _r, seconds, scaled, calibration = timed(workload.setup)
            setups.append({"seconds": seconds, "scaled": scaled,
                           "calibration": calibration})
            trace.setups += 1
        problems = workload.check_setup()

        ops, rounds, failed, measured, r, round_wall = [], [], 0, 0.0, 0, 0.0
        while measured < args.seconds:
            if ops and time.perf_counter() - started + round_wall > WALL_LIMIT_S:
                print("warning: stopping early to end within the time limit",
                      file=sys.stderr)
                break
            round_start = time.perf_counter()
            round_times = []
            for op_id, fn, op_args in workload.round(r):
                def run_op():
                    with trace.op(op_id):
                        return fn(*op_args)
                try:
                    res, seconds, scaled, calibration = timed(run_op)
                except Exception:  # an operation that fails is counted, not fatal
                    traceback.print_exc()
                    failed += 1
                    ops.append({"op": op_id, "failed": True})
                    continue
                measured += seconds
                round_times.append(scaled)
                bad = workload.check(res)
                problems += [f"{op_id}: {p}" for p in bad]
                ops.append({"op": op_id, "seconds": seconds, "scaled": scaled,
                            "calibration": calibration,
                            "digest": workload.digest(res)})
            if round_times:
                rounds.append(sum(round_times) / len(round_times))
            round_wall = time.perf_counter() - round_start
            r += 1
        problems += workload.finish()

        if args.trace:
            metrics = trace.layer_metrics()
        else:
            metrics = {
                "setup_s": {"value": statistics.median(
                    s["scaled"] for s in setups), "unit": "s"},
                "op_s": {"value": statistics.median(rounds), "unit": "s"},
                "auc": {"value": workload.quality(), "unit": "AUC"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    / 1024.0, "unit": "MB"},
            }
        result = {"correct": not problems, "attempted": len(ops),
                  "failed": failed, "metrics": metrics}
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        record.update(setups=setups, ops=ops, problems=problems,
                      result=result, wall_seconds=time.perf_counter() - started)
        if args.trace:
            record["phase_sums"] = {k: dict(v) for k, v in trace.sums.items()}
            (run_dir / "trace.json").write_text(json.dumps(trace.spans))
        (run_dir / "record.json").write_text(json.dumps(record, indent=1))
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
