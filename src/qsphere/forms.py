"""One-forms over the quantum sphere as off-diagonal matrices.

A one-form is represented by the matrix

    [[0,     plus ],
     [minus, 0    ]]

with entries in O(SU_q(2)), acting on the spinor bundle by left
multiplication.  ``OneForm`` is an ``algebra.Pair``: sums, scaling and the
left action are the componentwise ones shared with spinors and diagonal
matrices, and this module adds the right action, the adjoint and the
corners.  Differentials of functions on the sphere are commutators
with the Dirac operator,

    dee(x) = [D, x] = [[0, q^{-1/2} del_e(x)], [q^{1/2} del_f(x), 0]],

and elements of the genuine one-form bimodule have plus part of circle
degree +2 and minus part of degree -2.  The adjoint swaps the corners,
dag(w) = (minus*, plus*).

The bimodule carries two inner products with values in the sphere algebra:

    ip_right(x, y) = q minus_x* minus_y + q^{-1} plus_x* plus_y
    ip_left(x, y)  = q plus_x plus_y*  + q^{-1} minus_x minus_y*

(right-linear and left-linear respectively), normalised so that the
three-element frame built from the vector corepresentation satisfies

    rho = sum_j frame()[j] * ip_right(frame()[j], rho)

for every off-diagonal matrix rho.
"""

from __future__ import annotations

import functools

from .algebra import (Element, ONE_EL, Pair, del_e, del_f, mul_sum,
                      spin_one)
from .coeff import ROOT_TWO_Q, q_pow


class OneForm(Pair):
    """An off-diagonal 2x2 matrix over the quantum group algebra."""

    __slots__ = ()
    k = 1  # legs, as for a tensor (see corners)

    def __mul__(self, other):
        """Right action of the algebra."""
        if isinstance(other, Element):
            return OneForm(self.plus * other, self.minus * other)
        return NotImplemented

    def dag(self) -> "OneForm":
        return OneForm(self.minus.star(), self.plus.star())

    def corners(self):
        """The nonzero entries keyed as the corners of a one-leg tensor:
        (1,) for plus and (-1,) for minus."""
        return {eps: x for eps, x in (((1,), self.plus), ((-1,), self.minus))
                if not x.is_zero()}

    def is_proper(self) -> bool:
        """True when the corner degrees are those of a genuine one-form."""
        return self.plus.degrees() <= {2} and self.minus.degrees() <= {-2}


ZERO_FORM = OneForm()
E12 = OneForm(plus=ONE_EL)
E21 = OneForm(minus=ONE_EL)


def dee(x: Element) -> OneForm:
    """The Dirac commutator [D, x] as a one-form.

    Only defined on the sphere algebra, i.e. on elements of circle degree 0;
    anything else raises.
    """
    if x.degrees() - {0}:
        raise ValueError("dee needs a degree-0 element, got degrees %s"
                         % sorted(x.degrees()))
    return OneForm(del_e(x).scale_s(-1), del_f(x).scale_s(1))


def ip_right(x: OneForm, y: OneForm) -> Element:
    """Right inner product <x, y>: conjugate-linear in x, B-linear in y."""
    return mul_sum(((x.minus.star(), y.minus, 2),
                    (x.plus.star(), y.plus, -2)))


def ip_left(x: OneForm, y: OneForm) -> Element:
    """Left inner product <x, y>: B-linear in x, conjugate-linear in y."""
    return mul_sum(((x.plus, y.plus.star(), 2),
                    (x.minus, y.minus.star(), -2)))


@functools.cache
def frame():
    """The three-element right-module frame built from the vector
    corepresentation: w_j = kappa_j u_j, with kappa_j = q^{j-2}
    [2]_q^{-1/2} and u_j = dee(t(j-2, 0)).

    u_1 and u_3 carry a factor r = [2]_q^{1/2} and u_2 a factor [2]_q, so
    the r^{-1} in kappa_j cancels: w_j is integral.  Its coefficients are
    units +-s^k or +-r s^k over denominator 1, so that a product with one
    is a shift (``coeff.Scalar.mul_s``).
    """
    rinv = ROOT_TWO_Q.inverse()
    return tuple(dee(spin_one(j - 2, 0)).scale(q_pow(j - 2) * rinv)
                 for j in (1, 2, 3))


def frame_expand_right(rho: OneForm) -> OneForm:
    """sum_j w_j <w_j, rho>; equals rho on every off-diagonal matrix."""
    out = ZERO_FORM
    for w in frame():
        out = out + w * ip_right(w, rho)
    return out


def frame_expand_left(rho: OneForm) -> OneForm:
    """sum_j <rho, w_j^dag> w_j^dag; equals rho on every off-diagonal
    matrix."""
    out = ZERO_FORM
    for w in frame():
        wd = w.dag()
        out = out + ip_left(rho, wd) * wd
    return out
