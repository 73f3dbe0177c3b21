"""The Haar state on the sphere subalgebra, by forward substitution.

The invariant state h kills every component of nonzero circle degree, so it
is determined by its values on degree-zero normal-form monomials.  Rather
than hardcoding known values, we solve the finite linear system

    h(1) = 1,      h(del_f(y)) = 0   for every degree +2 monomial y

over monomials of bounded length, exactly in the coefficient field.  Taken
in order, the system is triangular: each constraint has at most one unknown
left once the values already found are substituted, at every length through
40, so each constraint decides one value by forward substitution.  A
constraint involves no monomial longer than its y, so a longer bound only
adds constraints: each is solved once, and the values found stay.
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

from .coeff import ONE, ZERO, Scalar, dot
from .algebra import (Element, MONO_ID, del_f, mono_degree, mono_length,
                      pbw_monomials)


class HaarState:
    """Values of h on degree-zero monomials, solved on demand.

    The table is extended to the length of the longest monomial asked
    for, which is even: every degree-zero monomial has even length.  An
    extension solves the constraints of the new lengths only (``_solve``)
    and merges their values once all are solved: a stored value never
    changes, and a failed extension leaves the table as it was.
    """

    def __init__(self):
        self._table = {MONO_ID: ONE}
        self._length = 0

    def ensure(self, max_length: int) -> None:
        if max_length <= self._length:
            return
        self._table.update(_solve(self._table, self._length, max_length))
        self._length = max_length

    def __call__(self, x: Element) -> Scalar:
        """h(x), the sum of c h(m) over the degree-zero terms c m of x,
        as one exact dot product (``coeff.dot``): one reduction per value,
        not one per product and per partial sum."""
        triples = []
        for m, c in x.terms.items():
            if mono_degree(m) != 0:
                continue
            n = mono_length(m)
            if n > self._length:
                self.ensure(n)
            triples.append((c, self._table[m], 0))
        return dot(triples)


def _solve(table: dict, length: int, max_length: int) -> dict:
    """h on the degree-zero monomials of length in (length, max_length],
    in the order of ``pbw_monomials``, given ``table``: h on those no
    longer than length.

    The rows h(del_f(y)) = 0 of the new y are taken in the order of
    ``pbw_monomials``; each has at most one unknown left once the values
    already decided are substituted, and decides it (module docstring).
    A row that leaves two or more unknowns, an inconsistent row, or an
    unknown that no row decides raises ``ArithmeticError``."""
    unknowns = pbw_monomials(max_length, 0)
    index = {m: i for i, m in enumerate(unknowns)}
    values = {index[m]: v for m, v in table.items()}

    for y in pbw_monomials(max_length, 2):
        if mono_length(y) <= length:
            continue
        # the monomials of del_f(y) are distinct, so re-keying merges none
        img = del_f(Element.from_mono(y))
        row = {index[m]: c for m, c in img.terms.items()}
        val = ZERO
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
    return {unknowns[i]: values[i] for i in range(len(table), len(unknowns))}


@functools.cache
def haar_state() -> HaarState:
    """The shared state instance."""
    return HaarState()


def haar(x: Element) -> Scalar:
    """h(x) for the shared state instance."""
    return haar_state()(x)
