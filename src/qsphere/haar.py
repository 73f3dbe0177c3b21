"""The Haar state on the sphere subalgebra, by linear solve.

The invariant state h kills every component of nonzero circle degree, so it
is determined by its values on degree-zero normal-form monomials.  Rather
than hardcoding known values, we solve the finite linear system

    h(1) = 1,      h(del_f(y)) = 0   for every degree +2 monomial y

over monomials of bounded length, by exact Gaussian elimination in the
coefficient field.  Invariance under del_f (together with the degree grading)
pins the state completely: the system has a unique solution at every length
we use, and the solver raises if a requested length ever turns out
inconsistent or underdetermined instead of silently guessing.

Invariance under del_e is not imposed; it comes out as a theorem and is
checked in the tests.  So is h(t^1_{m j}) = 0 and the ladder

    h((bc)^n) = (-q)^n / (1 + q^2 + ... + q^{2n}),

whose first rung h(bc) = -q/(1+q^2) is forced by h(1 + [2]_q bc) = 0.
"""

from __future__ import annotations

import functools

from .coeff import ONE, ZERO, Scalar, dot
from .algebra import (Element, MONO_ID, del_f, mono_degree, mono_length,
                      pbw_monomials)


class HaarState:
    """Values of h on degree-zero monomials, solved on demand.

    The table is extended two length steps at a time; each extension re-runs
    the elimination at the larger bound and must restrict to the table
    already stored (asserted), so earlier answers never change.
    """

    def __init__(self):
        self._table = {MONO_ID: ONE}
        self._length = 0

    def ensure(self, max_length: int) -> None:
        if max_length <= self._length:
            return
        table = _solve(max_length)
        for m, v in self._table.items():
            if table[m] != v:
                raise ArithmeticError(
                    "state table changed under extension at %r" % (m,))
        self._table = table
        self._length = max_length

    def __call__(self, x: Element) -> Scalar:
        """h(x), the sum of c h(m) over the degree-zero terms c m of x,
        as one exact dot product (``coeff.dot``): one reduction per value,
        not one per product and per partial sum."""
        coeffs, values = [], []
        for m, c in x.terms.items():
            if mono_degree(m) != 0:
                continue
            n = mono_length(m)
            if n > self._length:
                self.ensure(n + (n & 1))
            coeffs.append(c)
            values.append(self._table[m])
        return dot(coeffs, values)


def _solve(max_length: int) -> dict:
    """Exact elimination for the constraint system at one length bound."""
    unknowns = pbw_monomials(max_length, 0)
    index = {m: i for i, m in enumerate(unknowns)}

    rows = [({index[MONO_ID]: ONE}, ONE)]
    for y in pbw_monomials(max_length, 2):
        img = del_f(Element.from_mono(y))
        row = {}
        for m, c in img.terms.items():
            # del_f preserves length and lowers degree by two, so the
            # support stays inside the unknown set
            row[index[m]] = row.get(index[m], ZERO) + c
        row = {i: c for i, c in row.items() if not c.is_zero()}
        if row:
            rows.append((row, ZERO))

    # forward elimination with pivot bookkeeping
    pivots = {}
    for row, val in rows:
        row = dict(row)
        for col in sorted(row):
            hit = pivots.get(col)
            if hit is None:
                continue
            prow, pval = hit
            c = row.pop(col)
            for c2, v2 in prow.items():
                if c2 == col:
                    continue
                row[c2] = row.get(c2, ZERO) - v2 * c
            val = val - pval * c
        row = {c: v for c, v in row.items() if not v.is_zero()}
        if not row:
            if not val.is_zero():
                raise ArithmeticError(
                    "inconsistent invariance constraints at length %d"
                    % max_length)
            continue
        col = min(row)
        inv = row[col].inverse()
        row = {c: v * inv for c, v in row.items()}
        val = val * inv
        pivots[col] = (row, val)

    # back substitution, highest pivot column first
    values = {}
    for col in sorted(pivots, reverse=True):
        prow, pval = pivots[col]
        acc = pval
        for c2, v2 in prow.items():
            if c2 == col:
                continue
            if c2 not in values:
                raise ArithmeticError(
                    "underdetermined invariance system at length %d"
                    % max_length)
            acc = acc - v2 * values[c2]
        values[col] = acc

    if len(values) != len(unknowns):
        raise ArithmeticError(
            "underdetermined invariance system at length %d" % max_length)
    return {unknowns[i]: values[i] for i in range(len(unknowns))}


@functools.cache
def haar_state() -> HaarState:
    """The shared state instance."""
    return HaarState()


def haar(x: Element) -> Scalar:
    """h(x) for the shared state instance."""
    return haar_state()(x)
