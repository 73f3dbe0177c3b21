"""Spinors, the Dirac operator, and the Weitzenbock identity.

The spinor module splits as S = S+ (+) S-, the degree +1 and degree -1
parts of the quantum group algebra, realised as column modules of the
charge projectors

    P+ = (1-A, -B*; -B, q^2 A),      P- = (A, B*; B, 1 - q^2 A).

A spinor is stored as the pair (plus, minus) of its chiral components and
carries a left action of the sphere subalgebra.  The Dirac operator is the
off-diagonal derivation matrix

    D(psi) = (del_e(psi_minus), del_f(psi_plus)),

and one-forms act by the Clifford multiplication c(w (x) psi) =
(w_plus psi_minus, w_minus psi_plus), so that [D, b] psi = c(dee(b) (x) psi).

Each chiral summand has a two-element frame

    s_{i,+} = q^{-1/2} t^{1/2}_{i,1/2},      s_{i,-} = q^{1/2} t^{1/2}_{i,-1/2},

orthonormal for the left inner products {}_B<x, y> = q x y* on S+ and
q^{-1} x y* on S-.  The associated Grassmann connection

    conn(psi) = sum_i dee({}_B<psi, s_i>) (x) s_i

satisfies D = c o conn.  The curvature of this connection, cut down by
the junk projection on the two-form legs, lies on the volume-form line.
Two-forms are rank one here: 1 - Psi = alpha^{-1} C <C, .> and
<C, C z> = alpha z, so every element of Omega^2 (x)_B S is C (x) Phi for
exactly one spinor Phi, and curvature is stored as that spinor:

    curv(psi) = C (x) Phi,      Phi = (q/2) diag(-q^{-1}, q) psi.

Its braided Clifford action m(sigma(C)) Phi is the constant positive matrix
(1/(q^2+q^-2)) diag(q^2, q^-2), which is exactly the defect in the
Weitzenbock identity

    D^2 = laplacian + (1/(q^2+q^-2)) diag(q^2, q^-2),

where the connection laplacian is built from the metric pairing,
lap(psi) = e^{-beta} m(G) <G, (conn_right (x) 1 + 1 (x) conn) conn(psi)>_B.
The laplacian and the curvature share one walk of that second covariant
derivative: each pairs a two-tensor (G or C) with its two one-form legs.
The identity holds exactly at symbolic q; at q = 1 the defect becomes
(1/2) Id, one quarter of the classical round scalar curvature.

Multiplying out the metric gives m(G) = diag(q, q^{-1}); the weighting
diag(q, q^{-1}) in the divergence statement of check_divergence is that
same matrix.
"""

from __future__ import annotations

import functools

from .coeff import Scalar, q_pow, rational
from .algebra import (Element, ONE_EL, ZERO_EL, SPHERE_A, SPHERE_B,
                      SPHERE_BSTAR, del_e, del_f, spin_half)
from .forms import OneForm, dee, frame, ip_right
from .tensors import Diag, Tensor, e_beta, ip_T, metric, mul_map, tensor
from .calculus import sigma, volume_form
from .levicivita import conn_right
from .haar import haar


class Spinor:
    """A section of S+ (+) S-: a pair of algebra elements of degree +1, -1."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus: Element = ZERO_EL, minus: Element = ZERO_EL):
        self.plus = plus
        self.minus = minus

    def __add__(self, other: "Spinor") -> "Spinor":
        return Spinor(self.plus + other.plus, self.minus + other.minus)

    def __sub__(self, other: "Spinor") -> "Spinor":
        return Spinor(self.plus - other.plus, self.minus - other.minus)

    def __neg__(self) -> "Spinor":
        return Spinor(-self.plus, -self.minus)

    def __rmul__(self, other) -> "Spinor":
        if isinstance(other, Element):
            return Spinor(other * self.plus, other * self.minus)
        if isinstance(other, Diag):
            return Spinor(other.top * self.plus, other.bot * self.minus)
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar) -> "Spinor":
        return Spinor(self.plus.scale(c), self.minus.scale(c))

    def scale_s(self, e: int) -> "Spinor":
        return Spinor(self.plus.scale_s(e), self.minus.scale_s(e))

    def is_zero(self) -> bool:
        return self.plus.is_zero() and self.minus.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Spinor):
            return NotImplemented
        return self.plus == other.plus and self.minus == other.minus

    def __repr__(self):
        return "Spinor(plus=%r, minus=%r)" % (self.plus, self.minus)


ZERO_SP = Spinor()


# ---------------------------------------------------------------------------
# frames and the left inner product
# ---------------------------------------------------------------------------


def frame_plus(i2: int) -> Element:
    """s_{i,+} = q^{-1/2} t^{1/2}_{i,1/2} for doubled row index i2."""
    return spin_half(i2, 1).scale_s(-1)


def frame_minus(i2: int) -> Element:
    """s_{i,-} = q^{1/2} t^{1/2}_{i,-1/2} for doubled row index i2."""
    return spin_half(i2, -1).scale_s(1)


def ip_spin_left(x: Spinor, y: Spinor) -> Element:
    """{}_B<x, y>: q x+ y+* on the plus summand, q^{-1} x- y-* on the minus.

    Linear in the first slot, conjugate-linear in the second; the frames
    are orthonormal because the t^{1/2} columns are:
    q sum_i s_{i,+}* s_{i,+} = 1 and likewise with q^{-1} on the minus side.
    """
    return (x.plus * y.plus.star()).scale(q_pow(1)) \
        + (x.minus * y.minus.star()).scale(q_pow(-1))


FRAME_SPINORS = (Spinor(plus=frame_plus(-1)), Spinor(plus=frame_plus(1)),
                 Spinor(minus=frame_minus(-1)), Spinor(minus=frame_minus(1)))


def frame_expand(psi: Spinor):
    """The frame coefficients {}_B<psi, s> over FRAME_SPINORS; summing the
    coefficients against the frames recovers psi."""
    return [ip_spin_left(psi, s) for s in FRAME_SPINORS]


# ---------------------------------------------------------------------------
# Dirac operator and Clifford action
# ---------------------------------------------------------------------------


def dirac(psi: Spinor) -> Spinor:
    """D = (0, del_e; del_f, 0) acting on the chiral components."""
    return Spinor(del_e(psi.minus), del_f(psi.plus))


def clifford(w: OneForm, psi: Spinor) -> Spinor:
    """c(w (x) psi): the one-form acts as its off-diagonal matrix."""
    return Spinor(w.plus * psi.minus, w.minus * psi.plus)


def dirac_commutator(b: Element, psi: Spinor) -> Spinor:
    """[D, b] psi = D(b psi) - b D(psi); equals clifford(dee(b), psi)."""
    return dirac(b * psi) - b * dirac(psi)


# ---------------------------------------------------------------------------
# the Grassmann connection
# ---------------------------------------------------------------------------


def conn_spinor(psi: Spinor):
    """The left Grassmann connection, as (one-form, spinor) pairs.

    conn(psi) = sum_i dee({}_B<psi, s_i>) (x) s_i over the four frame
    spinors; pairs with vanishing coefficient are dropped.  Satisfies the
    left Leibniz rule conn(b psi) = dee(b) (x) psi + b conn(psi) and
    c o conn = D.
    """
    return [(dee(b), s) for b, s in zip(frame_expand(psi), FRAME_SPINORS)
            if not b.is_zero()]


def braided_product(u: OneForm, v: OneForm) -> Diag:
    """m o sigma on a simple two-tensor: multiply after braiding.

    This is the twisted product entering both the compatibility identity
    and the Clifford action of the curvature.
    """
    return mul_map(sigma(Tensor(2, [(u, v)])))


# ---------------------------------------------------------------------------
# the second covariant derivative: curvature and laplacian
# ---------------------------------------------------------------------------


def _pair_second(x: Tensor, psi: Spinor) -> Spinor:
    """<X, (conn_right (x) 1 + 1 (x) conn) conn(psi)>: pair the two-tensor
    X (through ip_T) with the two one-form legs of the second covariant
    derivative and let the result act on the spinor leg."""
    acc = ZERO_SP
    for w, chi in conn_spinor(psi):
        for u, v in conn_right(w).terms:
            g = ip_T(x, tensor(u, v))
            if not g.is_zero():
                acc = acc + g * chi
        for eta, xi in conn_spinor(chi):
            g = ip_T(x, tensor(w, eta))
            if not g.is_zero():
                acc = acc + g * xi
    return acc


def spinor_curvature(psi: Spinor) -> Spinor:
    """The spinor Phi with ((1-Psi) (x) 1)(conn_right (x) 1 + 1 (x) conn)
    conn(psi) = C (x) Phi, namely Phi = alpha^{-1} <C, .> of the second
    covariant derivative.

    Since 1 - Psi = alpha^{-1} C <C, .>, each simple term u (x) v (x) chi
    projects to C (x) alpha^{-1} <C, u (x) v> chi.  Phi decides the
    curvature: pairing with C sends C (x) Phi to <C, C> Phi = alpha Phi, so
    C (x) Phi = C (x) Phi' forces Phi = Phi'.  The conn_right (x) 1 part
    consists of covariant derivatives of exact forms, which are pure junk
    and pair to zero; it is computed all the same.
    """
    vf = volume_form()
    return _pair_second(vf.C, psi).scale(vf.alpha.inverse())


def spinor_curvature_closed_form(psi: Spinor) -> Spinor:
    """Phi = (q/2) diag(-q^{-1}, q) psi, so curv(psi) = C (x) Phi."""
    half = rational(2).inverse()
    return Spinor(psi.plus.scale(half * rational(-1)),
                  psi.minus.scale(half * q_pow(2)))


def clifford_curvature_action(psi: Spinor) -> Spinor:
    """The braided Clifford action of the curvature, m(sigma(C)) Phi.

    m o sigma is a bimodule map, so summing braided_product over the terms
    of C (x) Phi collapses to the constant matrix m(sigma(C)) acting on
    Phi.  Equals (1/(q^2+q^-2)) diag(q^2, q^-2) psi: the constant positive
    operator appearing as the Weitzenbock defect.
    """
    return mul_map(sigma(volume_form().C)) * spinor_curvature(psi)


@functools.cache
def _metric_diag() -> Diag:
    """m(G) = diag(q, q^{-1})."""
    return mul_map(metric())


def laplacian(psi: Spinor) -> Spinor:
    """The connection laplacian

        lap(psi) = e^{-beta} m(G) <G, (conn_right (x) 1 + 1 (x) conn) conn(psi)>_B,

    the shared walk _pair_second with X = G: the metric pairs with the two
    one-form legs and the resulting algebra elements act on the spinor legs.
    """
    return (_metric_diag() * _pair_second(metric(), psi)) \
        .scale(e_beta().inverse())


def weitzenbock_correction(psi: Spinor) -> Spinor:
    """(1/(q^2+q^-2)) diag(q^2, q^-2) psi: the exact difference
    dirac(dirac(psi)) - laplacian(psi)."""
    ebi = e_beta().inverse()
    return Spinor(psi.plus.scale(q_pow(2) * ebi),
                  psi.minus.scale(q_pow(-2) * ebi))


# ---------------------------------------------------------------------------
# the charge projectors
# ---------------------------------------------------------------------------


def proj_plus():
    """P+ as a 2x2 matrix of algebra elements, (P+)_{rc} = t_{r,1/2} t*_{c,1/2}."""
    return tuple(tuple(spin_half(r, 1) * spin_half(c, 1).star()
                       for c in (1, -1)) for r in (1, -1))


def proj_minus():
    """P- = 1 - P+, with entries t_{r,-1/2} t*_{c,-1/2}."""
    return tuple(tuple(spin_half(r, -1) * spin_half(c, -1).star()
                       for c in (1, -1)) for r in (1, -1))


# ---------------------------------------------------------------------------
# verification bundles
# ---------------------------------------------------------------------------


def check_compatibility() -> bool:
    """The twisted Leibniz identity for D against the braided product.

    For one-forms rho = dee(b) a and spinors psi:

        D(c(rho (x) psi)) = sum braided_product over conn_right(rho) acting
                            on psi, plus braided_product(rho, -) over the
                            pairs of conn(psi),

    together with the multiplication identity
    m(Psi(rho (x) eta)) = e^{-beta} m(G) <rho^dag, eta>_B on a family of
    two-tensors.
    """
    cases = [
        (SPHERE_A, ONE_EL, Spinor(plus=spin_half(1, 1))),
        (SPHERE_B, SPHERE_A, Spinor(minus=spin_half(1, -1))),
        (SPHERE_BSTAR, SPHERE_B, Spinor(plus=SPHERE_A * spin_half(-1, 1))),
        (SPHERE_A, SPHERE_BSTAR,
         Spinor(plus=spin_half(-1, 1), minus=SPHERE_B * spin_half(1, -1))),
    ]
    for b, a, psi in cases:
        rho = dee(b) * a
        lhs = dirac(clifford(rho, psi))
        acc = ZERO_SP
        for u, v in conn_right(rho).terms:
            acc = acc + braided_product(u, v) * psi
        for w, chi in conn_spinor(psi):
            acc = acc + braided_product(rho, w) * chi
        if lhs != acc:
            return False

    vf = volume_form()
    mg = _metric_diag()
    ebi = e_beta().inverse()
    ws = frame()
    probes = [ws[0], ws[1], ws[2], dee(SPHERE_A) * SPHERE_B,
              SPHERE_B * dee(SPHERE_BSTAR)]
    for rho in probes:
        for eta in probes:
            lhs = mul_map(vf.psi(Tensor(2, [(rho, eta)])))
            rhs = (mg * ip_right(rho.dag(), eta)).scale(ebi)
            if lhs != rhs:
                return False
    return True


def check_divergence() -> bool:
    """Divergence of covariant derivatives vanishes in Haar expectation.

    For omega = dee(b) a the multiplied covariant derivative collapses to

        m(conn_right(omega)) = diag(q del_f(del_e(b) a), q^{-1} del_e(del_f(b) a)),

    so the weighted trace h(Tr(diag(q, q^{-1}) m(conn_right(omega)))) is a
    sum of h o del_f and h o del_e terms and must vanish.  Both the collapse
    and the vanishing are checked on a monomial family, together with the
    structural h o del_e = h o del_f = 0 on a batch of sampled elements.
    """
    import random

    wt = _metric_diag()
    for b, a in ((SPHERE_A, ONE_EL), (SPHERE_B, SPHERE_BSTAR),
                 (SPHERE_A, SPHERE_B), (SPHERE_BSTAR, SPHERE_A * SPHERE_A)):
        d = mul_map(conn_right(dee(b) * a))
        want = Diag(del_f(del_e(b) * a).scale(q_pow(1)),
                    del_e(del_f(b) * a).scale(q_pow(-1)))
        if d != want:
            return False
        if not haar((wt * d).trace()).is_zero():
            return False

    rng = random.Random(20)
    from .algebra import pbw_monomials
    up = pbw_monomials(6, 2)
    down = pbw_monomials(6, -2)
    for _ in range(30):
        y = Element.from_mono(rng.choice(up), q_pow(rng.randrange(-2, 3))) \
            + Element.from_mono(rng.choice(up))
        z = Element.from_mono(rng.choice(down), q_pow(rng.randrange(-2, 3)))
        if not haar(del_f(y)).is_zero():
            return False
        if not haar(del_e(z)).is_zero():
            return False
    return True
