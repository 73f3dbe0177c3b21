"""Benchmark of the qsphere package: one workload, one seed.

    python3 bench/run.py --workload curvature --seed 1 --seconds 15 --trace 0

Every pass runs in a fresh process (``worker.py``), one after another, so
the program's module-level caches never carry over and each pass pays the
cold cost.  A pass imports the program, builds the shared state and runs
one cycle of operations in a closed loop: one caller, each operation
starting when the previous one returns.

With ``--trace 0`` the run makes set-up-only passes and then whole
cycles until ``--seconds`` have gone by (at least one), and reports the
end-to-end metrics.  With ``--trace 1`` it runs the first cycle of the
seed once traced and once untraced, whatever ``--seconds`` says, so that
the per-layer counts cover the same operations on every commit; it
reports per-layer calls and self time, and the difference of the two
operation walls as ``trace.overhead_s``.

Every time metric is host-speed adjusted (``speed.py``): it is the time
the interval would have taken at the reference speed, measured against
a probe that samples the host's speed while the pass runs.  The times
as measured are in the record, under names with ``raw``.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record, with machine
information, every operation and every failure, is written under
``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

import program
import tracing
import workloads

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
DEADLINE_S = 170
SETUP_ONLY_PASSES = 4


def machine_info():
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "gmpy2": find_spec("gmpy2") is not None,
    }


def run_pass(run, mode, pass_index=0, trace=0):
    """Run one worker pass to completion and return its report."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", run.workload, "--seed", str(run.seed),
           "--pass", str(pass_index), "--mode", mode, "--trace", str(trace)]
    timeout = run.deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("run deadline passed")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout, cwd=program.ROOT, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("worker pass failed with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, pct):
    """The pct-th percentile, inclusive method; the value itself for a
    single sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summarise_ops(ops, errors_expected):
    """Count failed operations.  The outputs are correct when no operation
    returned a wrong result and, unless the workload expects library
    errors, none raised one."""
    failed = [op for op in ops if op["error"] or op["wrong"]]
    return {
        "correct": not any(op["wrong"] or (op["error"] and not errors_expected)
                           for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "failures": [{"item": op["item"],
                      "reason": op["error"] or "; ".join(op["wrong"])}
                     for op in failed],
    }


def measure(run):
    """End-to-end metrics from set-up passes and whole cycles."""
    passes = [run_pass(run, "setup") for _ in range(SETUP_ONLY_PASSES)]
    cycles = []
    start = time.monotonic()
    while not cycles or time.monotonic() - start < run.seconds:
        cycles.append(run_pass(run, "ops", pass_index=len(cycles)))
    passes += cycles
    ops = [op for c in cycles for op in c["ops"]]
    times = [op["s"] for op in ops]
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (statistics.median(c["ops_wall_s"] for c in cycles), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (percentile(times, 90), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    extra = {"setup_passes": len(passes), "cycles": len(cycles),
             "op_samples": len(times),
             "raw_setup_s": statistics.median(p["setup_raw_s"] for p in passes),
             "raw_wall_s": statistics.median(c["ops_wall_raw_s"] for c in cycles),
             "host_speed": statistics.median(p["speed"] for p in passes)}
    return metrics, ops, extra


def measure_traced(run):
    """Per-layer metrics from one traced cycle and its untraced replay."""
    traced = run_pass(run, "ops", trace=1)
    plain = run_pass(run, "ops")
    units = dict(tracing.metric_names())
    metrics = {name: (value, units[name])
               for name, value in traced["layers"].items()}
    metrics["trace.overhead_s"] = (
        traced["ops_wall_s"] - plain["ops_wall_s"], "s")
    extra = {"traced_ops_wall_s": traced["ops_wall_s"],
             "untraced_ops_wall_s": plain["ops_wall_s"],
             "op_samples": len(traced["ops"]),
             "host_speed": statistics.median((traced["speed"], plain["speed"]))}
    return metrics, traced["ops"] + plain["ops"], extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.CLASSES),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not program.source_present():
        print("no qsphere source under %s" % program.SRC, file=sys.stderr)
        return 2

    args.deadline = time.monotonic() + DEADLINE_S
    measure_fn = measure_traced if args.trace else measure
    metrics, ops, extra = measure_fn(args)
    summary = summarise_ops(ops, workloads.CLASSES[args.workload].ERRORS_EXPECTED)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_info(), **extra,
              "error_rate": summary["failed"] / summary["attempted"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              **summary, "ops": ops}
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / ("%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print("machine: Python %s, nproc %s, gmpy2 %s"
          % (m["python"], m["nproc"], "present" if m["gmpy2"] else "absent"))
    print("%s seed %d: %d ops, %d failed (error_rate %.3f), %s"
          % (args.workload, args.seed, summary["attempted"], summary["failed"],
             record["error_rate"],
             ", ".join("%s=%.6g" % kv for kv in sorted(extra.items()))))
    for f in summary["failures"]:
        print("failed %s: %s" % (json.dumps(f["item"]), f["reason"]))
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print("%-12s %12.6g %s" % (name, value, unit))
    print("record: %s" % out_path.relative_to(program.ROOT))
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
