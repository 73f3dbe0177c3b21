"""The Haar state on the sphere subalgebra, from its closed form.

The invariant state h kills every component of nonzero circle degree, so it
is determined by its values on degree-zero normal-form monomials.  On those
it is (Woronowicz, "Twisted SU(2) group", 1987)

    h(a^i b^j c^k) = delta_{i,0} delta_{j,k} (-q)^j / (1 + q^2 + ... + q^{2j}),
    h(d^i b^j c^k) = 0,

so the only nonzero value of each even length 2j is the rung h((bc)^j) of
the ladder, whose first rung h(bc) = -q/(1+q^2) is forced by
h(1 + [2]_q bc) = 0.  Degree-zero and degree-two monomials have even
length.

The formula is not taken on trust.  Each length's values are checked, as
they are formed, against every invariance row

    h(del_f(y)) = 0   for every degree +2 monomial y of that length,

one exact dot product per row; a nonzero row raises, naming it.  A row
involves no monomial longer than its y.  With h(1) = 1, these rows pin h
uniquely: taken length by length in the order of ``pbw_monomials``, each
row leaves at most one value undecided by the rows before it, and every
value gets decided.  The tests check this triangularity at every even
length through 40; Woronowicz's theorem gives uniqueness at every length.
So the checked values are the Haar state, and invariance under del_e, the
vanishing of h(t^1_{m j}) and the ladder follow from the formula; the
tests check them too.
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
        """Form and check h on every degree-zero monomial of length <=
        max_length ahead of use; max_length is even (``_solve``)."""
        _solve(max_length)

    def __call__(self, x: Element) -> Scalar:
        """h(x), the sum of c h(m) over the degree-zero terms c m of x,
        as one exact dot product (``coeff.dot``): one reduction per value,
        not one per product and per partial sum.  Only the nonzero values
        enter it: most are zero, and a zero factor shares no denominator
        with the rest, so it would send the sum from ``dot``'s shift path
        to the lcm."""
        terms = [(m, c) for m, c in x.terms.items() if mono_degree(m) == 0]
        values = _solve(max((mono_length(m) for m, _ in terms), default=0))
        return dot([(c, values[m], 0) for m, c in terms if values[m]])


def _rung(j: int) -> Scalar:
    """h((bc)^j) = (-q)^j / (1 + q^2 + ... + q^{2j}), for j >= 1."""
    return Scalar({2 * j: (-1) ** j}, {}, {4 * i: 1 for i in range(j + 1)})


@functools.cache
def _solve(n: int) -> dict:
    """h on the degree-zero monomials of length <= n, in the order of
    ``pbw_monomials``: ``_solve(n - 2)`` and then the values of length n
    from the closed form (module docstring).  A negative or odd n raises
    ``ValueError`` naming it.

    Every invariance row h(del_f(y)) of a degree-2 y of length n is then
    checked to be zero; a nonzero row raises ``ArithmeticError`` naming y
    and n, and a raising call caches nothing."""
    if n < 0 or n % 2:
        raise ValueError("Haar lengths are even and >= 0: %r" % (n,))
    if n == 0:
        return {MONO_ID: ONE}
    values = dict(_solve(n - 2))
    for m in _pbw_of_length(n, 0):  # (0, 0, j, j) is b^j c^j
        values[m] = _rung(m[2]) if m[:2] == (0, 0) else ZERO
    for y in _pbw_of_length(n, 2):
        row = dot([(c, values[m], 0)
                   for m, c in del_f(Element.from_mono(y)).terms.items()
                   if values[m]])
        if not row.is_zero():
            raise ArithmeticError(
                "invariance row h(del_f(%r)) = %r is not zero at length %d"
                % (y, row, n))
    return values


@functools.cache
def haar_state() -> HaarState:
    """The shared instance, through which the benchmark's spectra set-up
    calls ``ensure``."""
    return HaarState()


def haar(x: Element) -> Scalar:
    """h(x) for the shared state instance."""
    return haar_state()(x)
