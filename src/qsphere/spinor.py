"""Spinors, the Dirac operator, and the Weitzenbock identity.

The spinor module splits as S = S+ (+) S-, the degree +1 and degree -1
parts of the quantum group algebra, realised as column modules of the
charge projectors

    P+ = (1-A, -B*; -B, q^2 A),      P- = (A, B*; B, 1 - q^2 A).

P+ has entries t_{r,1/2} t*_{c,1/2} and is defined once, as
``calculus.projector_entry``, for the volume form; P- = 1 - P+ has
entries t_{r,-1/2} t*_{c,-1/2}.  This module uses neither matrix, only
the frames below, built from the same matrix elements.

A spinor is stored as the pair (plus, minus) of its chiral components, an
``algebra.Pair`` like one-forms and diagonal matrices, and carries a left
action of the sphere subalgebra.  The Dirac operator is the
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
The pairing forms only the corners that G or C holds, the two mixed ones,
so each simple term is multiplied out on two corners instead of the four
a leg-built tensor has.  ``ip_T`` still forms all four: it reads the
corners a tensor keeps, and later pairings of the same tensor reuse them
(ROADMAP item 8).  The terms paired here are built for one pairing and
dropped, so nothing would reuse their corners.  The spinor leg of conn is
always one of the four frame spinors, so the last leg of the
1 (x) conn part is paired once per frame spinor and process, not once
per term.  The one-form legs dee(b_i) enter K-linearly, so what they
contribute is formed once per degree-0 monomial of the frame coefficients
b_i, G or C, and process, and each spinor only scales and sums those
parts (``_pair_second``).
The identity holds exactly at symbolic q; at q = 1 the defect becomes
(1/2) Id, one quarter of the classical round scalar curvature.

Multiplying out the metric gives m(G) = diag(q, q^{-1}); the weighting
diag(q, q^{-1}) in the divergence statement of check_divergence is that
same matrix.
"""

from __future__ import annotations

import functools
import random

from .coeff import ZERO, q_pow, rational
from .algebra import (Element, ONE_EL, Pair, SPHERE_A, SPHERE_B,
                      SPHERE_BSTAR, del_e, del_f, exact_check, mul_sum,
                      parse, pbw_monomials, spin_half)
from .forms import OneForm, dee, frame, ip_right
from .tensors import (Diag, as_scalar, e_beta, metric, mul_map,
                      pair_terms, tensor)
from .calculus import sigma, volume_form
from .levicivita import conn_right, scalar_curvature
from .haar import haar


class Spinor(Pair):
    """A section of S+ (+) S-: a pair of algebra elements of degree +1, -1.

    Everything it does is the componentwise structure of ``Pair``; a
    diagonal matrix acts through ``Diag.__mul__``.
    """

    __slots__ = ()


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
    return mul_sum(((x.plus, y.plus.star(), 2),
                    (x.minus, y.minus.star(), -2)))


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
    """The left Grassmann connection, as (one-form, frame index) pairs.

    conn(psi) = sum_i dee({}_B<psi, s_i>) (x) s_i over the four frame
    spinors s_i = FRAME_SPINORS[i]; pairs with vanishing coefficient are
    dropped.  The index, not the spinor, is returned so that what depends
    on s_i alone can be memoised by it (``_frame_second``).  Satisfies the
    left Leibniz rule conn(b psi) = dee(b) (x) psi + b conn(psi) and
    c o conn = D.
    """
    return [(dee(b), i) for i, b in enumerate(frame_expand(psi))
            if not b.is_zero()]


# ---------------------------------------------------------------------------
# the second covariant derivative: curvature and laplacian
# ---------------------------------------------------------------------------


@functools.cache
def _frame_second(i: int):
    """(K^+, K^-) for the frame spinor s_i = FRAME_SPINORS[i]: the spinors
    K^e = sum eta^e xi over the pairs (eta, xi) of conn(s_i), eta^e the
    e-component of the one-form eta.  Memoised by the index because
    ``Spinor`` is unhashable."""
    pairs = conn_spinor(FRAME_SPINORS[i])
    return tuple(sum(((eta.plus if e > 0 else eta.minus) * FRAME_SPINORS[j]
                      for eta, j in pairs), ZERO_SP)
                 for e in (1, -1))


@functools.cache
def _monomial_second(which: str, m):
    """The part of the second covariant derivative that a degree-0 monomial
    m fixes, for X = G ("G") or X = C ("C"), with w = dee(m):

        g_X(m) = <X, conn_right(w)>, paired on the corners X holds,

    and, for each corner eps = (e_1, e_2) of X, the triple
    (j, -2 (e_1 + e_2), (X^eps)* w^{e_1}): j indexes K^{e_2} in
    ``_frame_second``, and the middle entry is the s-power of the corner's
    q^{-(e_1 + e_2)}.  Keyed by the tensor's name because a ``Tensor`` is
    unhashable, as ``spectra._image`` keys its operator."""
    x = metric() if which == "G" else volume_form().C
    w = dee(Element.from_mono(m))
    return pair_terms(x, conn_right(w).terms), tuple(
        (0 if e2 > 0 else 1, -2 * (e1 + e2),
         c.star() * (w.plus if e1 > 0 else w.minus))
        for (e1, e2), c in x.corners().items())


def _pair_second(which: str, psi: Spinor) -> Spinor:
    """<X, (conn_right (x) 1 + 1 (x) conn) conn(psi)> for X = G ("G") or
    X = C ("C"): pair the two-tensor X with the two one-form legs of the
    second covariant derivative and let the result act on the spinor leg.

    conn(psi) is the pairs (dee(b_i), s_i), b_i = {}_B<psi, s_i>.  The
    conn_right (x) 1 part is paired as terms (``pair_terms``), on the
    corners X holds only: the two mixed corners for X = G or C.  In the
    1 (x) conn part the spinor leg s_i is a frame spinor, and its last leg
    is paired once per frame spinor: by associativity and distributivity
    in A,

        sum_{(eta, xi) in conn(s_i)} <X, w (x) eta> xi
            = sum_{eps in corners(X)}
                  q^{-(eps_1 + eps_2)} (X^eps)* w^{eps_1} K_i^{eps_2},

    exactly, with K_i^e = sum eta^e xi (``_frame_second``).  Both parts
    are K-linear in b_i: scalars of K are central, and ``dee``,
    ``ip_right``, ``conn_right``, ``pair_terms`` and left multiplication
    by (X^eps)* are K-linear.  So over the terms c m of b_i they are the
    sums of c times the parts of m, memoised per monomial
    (``_monomial_second``), and the c goes into the right-hand factor,
    c s_i or c K_i.  No psi runs ``dee`` or ``conn_right``.  All the
    contributions to an output monomial are still one ``mul_sum`` group,
    so each output coefficient is reduced once."""
    plus, minus = [], []
    for i, b in enumerate(frame_expand(psi)):
        if b.is_zero():
            continue
        s = FRAME_SPINORS[i]
        k = _frame_second(i)
        for m, c in b.terms.items():
            g, products = _monomial_second(which, m)
            cs = s.scale(c)
            plus.append((g, cs.plus, 0))
            minus.append((g, cs.minus, 0))
            for j, e, y in products:
                ck = k[j].scale(c)
                plus.append((y, ck.plus, e))
                minus.append((y, ck.minus, e))
    return Spinor(mul_sum(plus), mul_sum(minus))


def spinor_curvature(psi: Spinor) -> Spinor:
    """The spinor Phi with ((1-Psi) (x) 1)(conn_right (x) 1 + 1 (x) conn)
    conn(psi) = C (x) Phi, namely Phi = alpha^{-1} <C, .> of the second
    covariant derivative.

    Since 1 - Psi = alpha^{-1} C <C, .>, each simple term u (x) v (x) chi
    projects to C (x) alpha^{-1} <C, u (x) v> chi.  Phi decides the
    curvature: pairing with C sends C (x) Phi to <C, C> Phi = alpha Phi, so
    C (x) Phi = C (x) Phi' forces Phi = Phi'.  The conn_right (x) 1 part
    consists of covariant derivatives of exact forms, which are pure junk
    and pair to zero; it is computed all the same, once per degree-0
    monomial and process (``_monomial_second``).
    """
    vf = volume_form()
    return _pair_second("C", psi).scale(vf.alpha.inverse())


def spinor_curvature_closed_form(psi: Spinor) -> Spinor:
    """Phi = (q/2) diag(-q^{-1}, q) psi, so curv(psi) = C (x) Phi."""
    half = rational(2).inverse()
    return Spinor(psi.plus.scale(half * rational(-1)),
                  psi.minus.scale(half * q_pow(2)))


def clifford_curvature_action(psi: Spinor) -> Spinor:
    """The braided Clifford action of the curvature, m(sigma(C)) Phi.

    m o sigma is a bimodule map, so the braided product summed over the
    terms of C (x) Phi collapses to the constant matrix m(sigma(C)) acting
    on Phi.  Equals (1/(q^2+q^-2)) diag(q^2, q^-2) psi: the constant positive
    operator appearing as the Weitzenbock defect.
    """
    return mul_map(sigma(volume_form().C)) * spinor_curvature(psi)


@functools.cache
def _metric_weight() -> Diag:
    """e^{-beta} m(G) = diag(q, q^{-1}) / (q^2 + q^{-2})."""
    return mul_map(metric()).scale(e_beta().inverse())


def laplacian(psi: Spinor) -> Spinor:
    """The connection laplacian

        lap(psi) = e^{-beta} m(G) <G, (conn_right (x) 1 + 1 (x) conn) conn(psi)>_B,

    the shared walk _pair_second with X = G: the metric pairs with the two
    one-form legs and the resulting algebra elements act on the spinor legs.
    """
    return _metric_weight() * _pair_second("G", psi)


def weitzenbock_correction(psi: Spinor) -> Spinor:
    """(1/(q^2+q^-2)) diag(q^2, q^-2) psi: the exact difference
    dirac(dirac(psi)) - laplacian(psi)."""
    ebi = e_beta().inverse()
    return Spinor(psi.plus.scale(q_pow(2) * ebi),
                  psi.minus.scale(q_pow(-2) * ebi))


# ---------------------------------------------------------------------------
# verification bundles
# ---------------------------------------------------------------------------


@exact_check
def check_compatibility():
    """The twisted Leibniz identity for D against the braided product.

    For one-forms rho = dee(b) a and spinors psi:

        D(c(rho (x) psi)) = m(sigma(conn_right(rho))) psi
                            + sum m(sigma(rho (x) w)) chi over the pairs
                              (w, chi) of conn(psi),

    together with the multiplication identity
    m(Psi(rho (x) eta)) = e^{-beta} m(G) <rho^dag, eta>_B on a family of
    two-tensors.
    """
    for b, a, plus, minus in (("A", "1", "d", "0"), ("B", "A", "0", "c"),
                              ("Bstar", "B", "A*b", "0"),
                              ("A", "Bstar", "b", "B*c")):
        rho = dee(parse(b)) * parse(a)
        psi = Spinor(parse(plus), parse(minus))
        rhs = mul_map(sigma(conn_right(rho))) * psi
        for w, i in conn_spinor(psi):
            rhs = rhs + mul_map(sigma(tensor(rho, w))) * FRAME_SPINORS[i]
        yield "D(c(rho (x) psi)), rho = dee(%s) %s, psi = (%s, %s)" \
            % (b, a, plus, minus), dirac(clifford(rho, psi)), rhs

    vf = volume_form()
    wt = _metric_weight()
    ws = frame()
    probes = {"w1": ws[0], "w2": ws[1], "w3": ws[2],
              "dee(A) B": dee(SPHERE_A) * SPHERE_B,
              "B dee(Bstar)": SPHERE_B * dee(SPHERE_BSTAR)}
    for x, rho in probes.items():
        for y, eta in probes.items():
            yield "m(Psi(%s (x) %s))" % (x, y), \
                mul_map(vf.psi(tensor(rho, eta))), \
                wt * ip_right(rho.dag(), eta)


@exact_check
def check_divergence():
    """Divergence of covariant derivatives vanishes in Haar expectation.

    For omega = dee(b) a the multiplied covariant derivative collapses to

        m(conn_right(omega)) = diag(q del_f(del_e(b) a), q^{-1} del_e(del_f(b) a)),

    so the weighted trace h(Tr(diag(q, q^{-1}) m(conn_right(omega)))) is a
    sum of h o del_f and h o del_e terms and must vanish.  Both the collapse
    and the vanishing are checked on a monomial family, together with the
    structural h o del_e = h o del_f = 0 on a batch of sampled elements.
    """
    wt = mul_map(metric())
    for b, a in (("A", "1"), ("B", "Bstar"), ("A", "B"), ("Bstar", "A^2")):
        x, y = parse(b), parse(a)
        d = mul_map(conn_right(dee(x) * y))
        omega = "omega = dee(%s) %s" % (b, a)
        yield "m(nabla->(%s))" % omega, d, Diag(
            del_f(del_e(x) * y).scale_s(2), del_e(del_f(x) * y).scale_s(-2))
        yield "h(Tr(diag(q, q^-1) m(nabla->(%s))))" % omega, \
            haar((wt * d).trace()), ZERO

    rng = random.Random(20)
    up = pbw_monomials(6, 2)
    down = pbw_monomials(6, -2)
    for n in range(30):
        y = Element.from_mono(rng.choice(up), q_pow(rng.randrange(-2, 3))) \
            + Element.from_mono(rng.choice(up))
        z = Element.from_mono(rng.choice(down), q_pow(rng.randrange(-2, 3)))
        yield "h(del_f(y)), y sample %d of seed 20" % n, haar(del_f(y)), ZERO
        yield "h(del_e(z)), z sample %d of seed 20" % n, haar(del_e(z)), ZERO


@exact_check
def check_weitzenbock():
    """The generalised Weitzenbock formula D^2 = lap + m(sigma(C)) Phi on
    the frame spinors and two products: D^2 psi - lap(psi) = W psi, the
    curvature spinor Phi of psi is its closed form (q/2) diag(-q^{-1}, q)
    psi, and its braided Clifford action m(sigma(C)) Phi is W psi.  W
    tends to (1/2) Id at q = 1, a quarter of the round scalar
    curvature."""
    s = FRAME_SPINORS
    family = {"s(-1/2,+)": s[0], "s(1/2,+)": s[1], "s(-1/2,-)": s[2],
              "s(1/2,-)": s[3], "B s(-1/2,+)": SPHERE_B * s[0],
              "Bstar s(-1/2,+) + A s(1/2,-)": SPHERE_BSTAR * s[0]
              + SPHERE_A * s[3]}
    for label, psi in family.items():
        w_psi = weitzenbock_correction(psi)
        yield "D^2 - lap = W on %s" % label, \
            dirac(dirac(psi)) - laplacian(psi), w_psi
        yield "Phi = (q/2) diag(-q^-1, q) psi on %s" % label, \
            spinor_curvature(psi), spinor_curvature_closed_form(psi)
        yield "m(sigma(C)) Phi = W on %s" % label, \
            clifford_curvature_action(psi), w_psi
    # W acts entrywise, so W(1, 1) holds its two diagonal entries
    w = weitzenbock_correction(Spinor(ONE_EL, ONE_EL))
    quarter = scalar_curvature().limit_q_one()[0] / 4
    for label, x in (("W+", w.plus), ("W-", w.minus)):
        u, v = as_scalar(x).limit_q_one()
        yield "%s at q = 1 is scal/4" % label, u, quarter
        yield "sqrt(2) part of %s at q = 1" % label, v, 0
