"""Regenerate and validate the curvature goldens.

Computes the coefficient array of every frame slice of every Riemann
block (81 four-tensors), sums the slices of each block, and checks that
the nine block arrays sum, entry by entry with exact Element equality, to
``riemann_closed_form().coeffs()``.  Only when that holds does it write
``golden_curvature.json``: for each slice, a digest of the canonical
``repr`` of each entry, and the result of the check.  Takes several
minutes.

    python3 bench/make_goldens.py
"""

from __future__ import annotations

import json
import platform
import time

import program
import workloads


def add_into(acc, coeffs):
    for idx, c in coeffs.items():
        prev = acc.get(idx)
        acc[idx] = c if prev is None else prev + c


def main() -> int:
    program.use_checkout_source()
    from qsphere.levicivita import riemann_closed_form

    start = time.perf_counter()
    curv = workloads.Curvature(golden=None)
    slices, total = {}, {}
    for k, p in curv.BLOCKS:
        block = {}
        for t in range(curv.SLICES):
            coeffs = curv.four_tensor(k, p, t).coeffs()
            slices["%d,%d,%d" % (k, p, t)] = workloads.entry_digests(coeffs)
            add_into(block, coeffs)
        block = {i: c for i, c in block.items() if not c.is_zero()}
        add_into(total, block)
        print("block (%d,%d): %d entries, %.1f s"
              % (k, p, len(block), time.perf_counter() - start), flush=True)
    total = {i: c for i, c in total.items() if not c.is_zero()}
    closed = riemann_closed_form().coeffs()
    agree = total == closed
    print("sum of blocks == riemann_closed_form().coeffs(): %s" % agree)
    if not agree:
        return 1
    out = {
        "validation": {
            "check": "the nine block arrays sum, entry by entry with exact "
                     "Element equality, to riemann_closed_form().coeffs()",
            "result": agree,
            "entries": len(closed),
            "python": platform.python_version(),
            "seconds": round(time.perf_counter() - start, 1),
        },
        "slices": slices,
    }
    workloads.GOLDEN_PATH.write_text(json.dumps(out, indent=1, sort_keys=True)
                                     + "\n")
    print("wrote %s" % workloads.GOLDEN_PATH)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
