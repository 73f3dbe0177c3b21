"""One pass of a workload in a fresh process; ``run.py`` starts it.

    python3 bench/worker.py --workload NAME --seed N --pass I --mode ops

``--mode setup`` only imports the program and builds the workload's
shared state; ``--mode ops`` also runs one cycle of operations drawn from
(workload, seed, pass).  ``--trace 1`` wraps the program's layers before
setup.  Prints one JSON object on stdout.

A ``speed.Sampler`` runs throughout.  ``setup_s``, ``ops_wall_s`` and
each operation's ``s`` are adjusted to the reference speed; the wall
times as measured are kept beside them with ``raw`` in their names.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback

import program
import speed
import workloads


def run_op(workload, item):
    """Time one operation and record its outcome; a library error or a
    wrong result is a failed operation and never stops the pass."""
    start = time.perf_counter()
    try:
        wrong = workload.run(item)
        error = None
    except (ArithmeticError, ValueError) as exc:
        wrong = []
        error = "%s: %s" % (type(exc).__name__, exc)
    end = time.perf_counter()
    return {"item": item, "start": start, "end": end, "raw_s": end - start,
            "wrong": wrong, "error": error}


def run_cycle(workload, items):
    """Run the items in order, one at a time."""
    return [run_op(workload, item) for item in items]


def adjust_ops(sampler, ops):
    """Give each operation its time at the reference speed, ``s``."""
    for op in ops:
        op["s"] = sampler.adjust(op.pop("start"), op.pop("end"))
    return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.CLASSES),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "ops"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tracer = None
    sampler = speed.Sampler()
    sampler.start()
    try:
        start = time.perf_counter()
        program.use_checkout_source()
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        workload = workloads.setup(args.workload)
        items = workloads.cycle_items(args.workload, args.seed, args.pass_index)
        setup_end = time.perf_counter()
        spans = [("setup", start, setup_end)]
        if args.mode == "ops":
            ops = run_cycle(workload, items)
            spans.append(("ops_wall", setup_end, time.perf_counter()))
    finally:
        sampler.stop()
        if tracer is not None:
            tracer.restore()

    out = {}
    for name, begin, end in spans:
        out[name + "_s"] = sampler.adjust(begin, end)
        out[name + "_raw_s"] = end - begin
    if args.mode == "ops":
        out["ops"] = adjust_ops(sampler, ops)
    if tracer is not None:
        out["layers"] = tracer.metrics()
    out["speed"] = sampler.speed()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except Exception:
        traceback.print_exc()
        raise SystemExit(1)
