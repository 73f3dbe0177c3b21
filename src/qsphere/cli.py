"""Command line: ``qsphere spectra``, ``qsphere check`` and
``qsphere curvature``.

    qsphere spectra --l-max 5/2 --q 0.5 --operator D [--json]
    qsphere check
    qsphere curvature [--json | --latex]

``spectra`` prints the numeric block spectra as a table or as JSON; a spin
or q0 out of range exits with status 2, a block that fails numerically
with status 1.
``check`` runs the exact identity checks, one line each with its wall time,
and exits with status 1 if any fails.  ``curvature`` computes the Riemann,
Ricci and scalar curvature and prints their frame coefficients as JSON or
LaTeX; the cold computation takes minutes.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from .algebra import podles_relations_check
from .levicivita import (
    CurvatureData, check_bimodule_connection, check_hermitian,
    check_torsion_free,
)
from .spectra import spectra_json, spectra_table, spectrum
from .spinor import check_compatibility, check_divergence


def _podles_relations():
    failed = ["%s (%s): residual %s" % (cid, stmt, witness)
              for cid, stmt, ok, witness in podles_relations_check() if not ok]
    return not failed, "; ".join(failed)


def _boolean(check):
    return lambda: (check(), "")


# name -> () -> (ok, detail)
CHECKS = {
    "podles-relations": _podles_relations,
    "hermitian": _boolean(check_hermitian),
    "torsion-free": _boolean(check_torsion_free),
    "bimodule": _boolean(check_bimodule_connection),
    "compatibility": _boolean(check_compatibility),
    "divergence": _boolean(check_divergence),
}


def _spectra(args) -> int:
    try:
        results = spectrum(args.l_max, args.q, args.operator)
    except ValueError as exc:  # a spin or q0 out of range
        print("qsphere spectra: error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a singular Gram matrix or a coupling
        print("qsphere spectra: failed: %s" % exc, file=sys.stderr)
        return 1
    print(spectra_json(results) if args.json else spectra_table(results))
    return 0


def _check(args) -> int:
    status = 0
    for name, check in CHECKS.items():
        start = time.perf_counter()
        ok, detail = check()
        line = "%s %s (%.2f s)" % ("PASS" if ok else "FAIL", name,
                                   time.perf_counter() - start)
        print(line + (": " + detail if detail else ""), flush=True)
        if not ok:
            status = 1
    return status


def _curvature(args) -> int:
    data = CurvatureData()
    print(data.to_latex() if args.latex else data.to_json())
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsphere",
        description="Exact noncommutative Riemannian geometry of the "
                    "standard quantum sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectra", help="numeric spectra on total-spin blocks")
    p.add_argument("--l-max", type=Fraction, default=Fraction(3, 2),
                   help="largest total spin, a half odd integer such as "
                        "5/2 (default 3/2)")
    p.add_argument("--q", type=float, default=0.5,
                   help="the parameter q0 in (0, 1] (default 0.5)")
    p.add_argument("--operator", choices=("D", "D2", "lap"), default="D",
                   help="Dirac operator, its square or the spinor laplacian")
    p.add_argument("--json", action="store_true", help="print JSON")
    p.set_defaults(run=_spectra)

    p = sub.add_parser("check", help="run the exact identity checks")
    p.set_defaults(run=_check)

    p = sub.add_parser("curvature",
                       help="Riemann, Ricci and scalar curvature")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="print JSON (default)")
    fmt.add_argument("--latex", action="store_true", help="print LaTeX")
    p.set_defaults(run=_curvature)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
