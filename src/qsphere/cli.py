"""Command line: ``qsphere spectra``, ``qsphere check`` and
``qsphere curvature``.

    qsphere spectra --l-max 5/2 --q 0.5 --operator D [--json]
    qsphere check
    qsphere curvature [--json | --latex]

``spectra`` prints the block spectra as a table or as JSON, the list of
``spectra.spectrum`` rows {l, q, operator, eigenvalues} indented by 2.
Status 2 means a spin or q0 out of range, or a q0 so small that a block
entry is not a finite float at it (it overflows, such as at 1e-40 from
l = 9/2 on, or is nan at a subnormal q0 such as 5e-324).  Status 1
means that an exact identity failed while a block was reduced in K (a
premise of the Casimir solve, or an operator that leaves the block), that a
block matrix is not monomial (a row without exactly one nonzero, or a
column met twice), or that a block has a non-real spectrum (a 2-cycle
whose entries have a negative product at q0, or a longer cycle).
``check`` runs the exact identity checks, one line each with its wall time,
and exits with status 1 if any fails.  The entries, in order:
podles-relations, then hermitian, torsion-free and bimodule (the
connection), compatibility and divergence (the Dirac operator), and the
curvature claims riemann, ricci, scalar-curvature and weitzenbock.  A
failed check names the first case that failed and its residual lhs - rhs,
a tensor as its nonzero corners (``tensors``; 1 picks a leg's plus entry):

    FAIL bimodule (0.01 s): sigma nabla->(1 dee(B) A): residual {(-1, -1): (-s^2 + s^6)*a^3*c, (1, 1): (s^-8 - s^-4)*d*b^3}

``curvature`` computes the Riemann, Ricci and scalar curvature and prints
their frame coefficients as JSON (``levicivita.curvature_json``: keys
riemann, ricci and scalar) or LaTeX (``levicivita.curvature_latex``);
cold, that takes about 0.35 s on 2 vCPUs (Python 3.11).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .algebra import check_podles_relations
from .levicivita import (
    check_bimodule_connection, check_hermitian, check_ricci, check_riemann,
    check_scalar_curvature, check_torsion_free, curvature_json,
    curvature_latex,
)
from .spectra import _OPERATORS, spectra_table, spectrum
from .spinor import check_compatibility, check_divergence, check_weitzenbock
from .tensors import Tensor

# name -> () -> Verdict
CHECKS = {
    "podles-relations": check_podles_relations,
    "hermitian": check_hermitian,
    "torsion-free": check_torsion_free,
    "bimodule": check_bimodule_connection,
    "compatibility": check_compatibility,
    "divergence": check_divergence,
    "riemann": check_riemann,
    "ricci": check_ricci,
    "scalar-curvature": check_scalar_curvature,
    "weitzenbock": check_weitzenbock,
}


def _spectra(args) -> int:
    try:
        results = spectrum(args.l_max, args.q, args.operator)
    except ValueError as exc:  # a spin or q0 out of range, see above
        print("qsphere spectra: error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # an exact identity failed, see above
        print("qsphere spectra: failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(results, indent=2) if args.json
          else spectra_table(results))
    return 0


def _check(args) -> int:
    status = 0
    for name, check in CHECKS.items():
        start = time.perf_counter()
        verdict = check()
        line = "%s %s (%.2f s)" % ("PASS" if verdict else "FAIL", name,
                                   time.perf_counter() - start)
        if not verdict:
            residual = verdict.residual
            if isinstance(residual, Tensor):  # its repr only counts corners
                residual = residual.corners()
            line += ": %s: residual %r" % (verdict.case, residual)
            status = 1
        print(line, flush=True)
    return status


def _curvature(args) -> int:
    print(curvature_latex() if args.latex else curvature_json())
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
    p.add_argument("--operator", choices=_OPERATORS, default="D",
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
