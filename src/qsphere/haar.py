"""The Haar state on the sphere subalgebra, by forward substitution.

The invariant state h kills every component of nonzero circle degree, so it
is determined by its values on degree-zero normal-form monomials.  Rather
than hardcoding known values, we solve the finite linear system

    h(1) = 1,      h(del_f(y)) = 0   for every degree +2 monomial y

over monomials of bounded length, exactly in the coefficient field.  Taken
in order, the system is triangular: each constraint has at most one unknown
left once the values already found are substituted, at every length through
40, so each constraint decides one value by forward substitution.
Invariance under del_f (together with the degree grading) pins the state
completely, and the solver raises if a requested length ever leaves a
constraint with two unknowns, or turns out inconsistent or underdetermined,
instead of silently guessing.

Invariance under del_e is not imposed; it comes out as a theorem and is
checked in the tests.  So is h(t^1_{m j}) = 0 and the ladder

    h((bc)^n) = (-q)^n / (1 + q^2 + ... + q^{2n}),

whose first rung h(bc) = -q/(1+q^2) is forced by h(1 + [2]_q bc) = 0.
"""

from __future__ import annotations

import functools

from .coeff import ONE, ZERO, Scalar, accumulate, dot
from .algebra import (Element, MONO_ID, del_f, mono_degree, mono_length,
                      pbw_monomials)


class HaarState:
    """Values of h on degree-zero monomials, solved on demand.

    The table is extended to the length of the longest monomial asked
    for, which is even: every degree-zero monomial has even length.  Each
    extension re-runs the forward substitution (``_solve``) at the larger
    bound and must restrict to the table already stored (asserted), so
    earlier answers never change.
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
                self.ensure(n)
            coeffs.append(c)
            values.append(self._table[m])
        return dot(coeffs, values)


def _solve(max_length: int) -> dict:
    """The state table at one length bound, by forward substitution.

    The rows are taken in order, h(1) = 1 first, then h(del_f(y)) = 0 in
    the order of ``pbw_monomials``.  Each row has at most one unknown left
    once the values already decided are substituted, and decides it: at
    every length through 40, so the system is triangular in this order.
    A row that leaves two or more unknowns, an inconsistent row, or an
    unknown that no row decides raises ``ArithmeticError``."""
    unknowns = pbw_monomials(max_length, 0)
    index = {m: i for i, m in enumerate(unknowns)}

    rows = [({index[MONO_ID]: ONE}, ONE)]
    for y in pbw_monomials(max_length, 2):
        # del_f preserves length and lowers degree by two, so the support
        # stays inside the unknown set
        img = del_f(Element.from_mono(y))
        row = accumulate({}, ((index[m], c) for m, c in img.terms.items()))
        if row:
            rows.append((row, ZERO))

    values = {}
    for row, val in rows:
        left = []
        for col in sorted(row):
            if col in values:
                val = val - values[col] * row[col]
            else:
                left.append(col)
        if len(left) > 1:
            raise ArithmeticError(
                "%d unknowns left in one invariance constraint at length %d"
                % (len(left), max_length))
        if left:
            values[left[0]] = val * row[left[0]].inverse()
        elif not val.is_zero():
            raise ArithmeticError(
                "inconsistent invariance constraints at length %d"
                % max_length)

    if len(values) != len(unknowns):
        raise ArithmeticError(
            "underdetermined invariance system at length %d" % max_length)
    return {m: values[i] for i, m in enumerate(unknowns)}


@functools.cache
def haar_state() -> HaarState:
    """The shared state instance."""
    return HaarState()


def haar(x: Element) -> Scalar:
    """h(x) for the shared state instance."""
    return haar_state()(x)
