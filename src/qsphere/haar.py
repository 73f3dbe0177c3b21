"""The Haar state on the sphere subalgebra, by forward substitution.

The invariant state h kills every component of nonzero circle degree, so it
is determined by its values on degree-zero normal-form monomials.  Rather
than hardcoding known values, we solve the finite linear system

    h(1) = 1,      h(del_f(y)) = 0   for every degree +2 monomial y

over monomials of bounded length, exactly in the coefficient field.  A
constraint involves no monomial longer than its y, and degree-zero and
degree-two monomials have even length, so the system is taken length by
length: the constraints of the y of length n decide the values of length
n, given the shorter ones, and a value they leave undecided raises.
``_solve`` memoises the values up to each even length, so each constraint
is solved once.  Taken in order, each length's system is
triangular: each constraint has at most one unknown left once the values
already found are substituted, at every length through 40, so each
constraint decides one value by forward substitution.  Invariance under
del_f (together with the degree grading) pins the state completely, and
the solver raises if a requested length ever leaves a constraint with two
unknowns, or turns out inconsistent or underdetermined, instead of
silently guessing.

Invariance under del_e is not imposed; it comes out as a theorem and is
checked in the tests.  So is h(t^1_{m j}) = 0 and the ladder

    h((bc)^n) = (-q)^n / (1 + q^2 + ... + q^{2n}),

whose first rung h(bc) = -q/(1+q^2) is forced by h(1 + [2]_q bc) = 0.
"""

from __future__ import annotations

import functools

from .coeff import ONE, ZERO, Scalar, dot
from .algebra import (Element, MONO_ID, _pbw_of_length, del_f, mono_degree,
                      mono_length)


class HaarState:
    """h on elements, read from the values that ``_solve`` memoises per
    length.  It holds no state of its own."""

    def ensure(self, max_length: int) -> None:
        """Solve h on every degree-zero monomial of length <= max_length
        ahead of use."""
        _solve(max_length + max_length % 2)

    def __call__(self, x: Element) -> Scalar:
        """h(x), the sum of c h(m) over the degree-zero terms c m of x,
        as one exact dot product (``coeff.dot``): one reduction per value,
        not one per product and per partial sum."""
        terms = [(m, c) for m, c in x.terms.items() if mono_degree(m) == 0]
        values = _solve(max((mono_length(m) for m, _ in terms), default=0))
        return dot([(c, values[m], 0) for m, c in terms])


@functools.cache
def _solve(n: int) -> dict:
    """h on the degree-zero monomials of length <= n, n even, in the order
    of ``pbw_monomials``: ``_solve(n - 2)`` and then the values of length
    n, which the rows h(del_f(y)) = 0 of the degree-2 y of length n decide.

    The rows are taken in the order of ``pbw_monomials``; each has at most
    one unknown left once the values already decided are substituted, and
    decides it (module docstring).  A row that leaves two or more
    unknowns, an inconsistent row, or an unknown that no row decides
    raises ``ArithmeticError``, and a raising call caches nothing."""
    if n == 0:
        return {MONO_ID: ONE}
    shorter = _solve(n - 2)
    values = dict(shorter)
    for y in _pbw_of_length(n, 2):
        val = ZERO
        left = []
        for m, c in del_f(Element.from_mono(y)).terms.items():
            if m in values:
                val = val - values[m] * c
            else:
                left.append((m, c))
        if len(left) > 1:
            raise ArithmeticError(
                "%d unknowns left in one invariance constraint at length %d"
                % (len(left), n))
        if left:
            (m, c), = left
            values[m] = val * c.inverse()
        elif not val.is_zero():
            raise ArithmeticError(
                "inconsistent invariance constraints at length %d" % n)
    new = _pbw_of_length(n, 0)
    if len(values) != len(shorter) + len(new):
        raise ArithmeticError(
            "underdetermined invariance system at length %d" % n)
    return {**shorter, **{m: values[m] for m in new}}


@functools.cache
def haar_state() -> HaarState:
    """The shared instance, through which the benchmark's spectra set-up
    calls ``ensure``."""
    return HaarState()


def haar(x: Element) -> Scalar:
    """h(x) for the shared state instance."""
    return haar_state()(x)
