"""Grassmann connections on one-forms and the curvature pipeline.

The frame gives a single right connection nabla->(rho) = sum_j w_j (x)
dee(<w_j, rho>) and, by conjugation, a left connection nabla<- =
-dag o nabla-> o dag.  These are Hermitian, torsion-free and form a
bimodule connection with respect to the braiding; the checks below
certify each property on the frame and on families of module elements.
That these properties pin the connection down uniquely is the source
paper's theorem; it is not yet decided here.

Curvature comes out of the same frame data.  The raw bracket-product sum

    sum_{k,p} w_k (x) (1 - Psi)(sum_j dee(<w_k,w_j>) (x) dee(<w_j,w_p>)) (x) w_p^dag

is only defined up to an overall orientation (negating every w_j leaves
the connection untouched but the derivation of the sum from the curvature
composite fixes signs only relative to a choice of orientation on the
two-forms).  We fix the orientation so that the scalar curvature of the
round sphere comes out positive: riemann() is minus the raw sum above.
With that choice the tensor collapses to

    ([2]_q/2) q sum_i w_i (x) C (x) diag(q^-2, -q^2) w_i^dag,

contracting the last two legs against the metric gives a Ricci tensor
proportional to the line element at q = 1, and one more pairing gives the
scalar curvature [2]_q (1 + (q^-2 - q^2)^2), a genuine scalar that
converges to 2 classically, the value for the unit round two-sphere.
"""

from __future__ import annotations

import functools
import json
import re

from .algebra import Element
from .coeff import Scalar, q_pow, qnum, rational
from .forms import ZERO_FORM, OneForm, dee, frame, ip_left, ip_right
from .tensors import (
    Tensor, as_scalar, coeff_json, contract_left, diag_scalars, e_beta, ip_T,
    metric, tensor,
)
from .calculus import ext_d, sigma, volume_form


def conn_right(rho: OneForm) -> Tensor:
    """Right Grassmann connection: sum_j w_j (x) dee(<w_j, rho>)."""
    terms = []
    for w in frame():
        pairing = ip_right(w, rho)
        if not pairing.is_zero():
            terms.append((w, dee(pairing)))
    return Tensor(2, terms)


def conn_left(rho: OneForm) -> Tensor:
    """Left Grassmann connection, the conjugate of the right one:
    -dag o conn_right o dag."""
    return -conn_right(rho.dag()).dag()


def conn_left_direct(rho: OneForm) -> Tensor:
    """The left connection straight from the frame:
    sum_j dee(B<rho, w_j^dag>) (x) w_j^dag."""
    terms = []
    for w in frame():
        wd = w.dag()
        pairing = ip_left(rho, wd)
        if not pairing.is_zero():
            terms.append((dee(pairing), wd))
    return Tensor(2, terms)


# ---------------------------------------------------------------------------
# connection-valued pairings and the Hermitian property
# ---------------------------------------------------------------------------


def _pair_conn_first(ct: Tensor, y: OneForm) -> OneForm:
    """<nabla x, y>: for nabla x = sum x0 (x) xi this is sum xi^dag <x0, y>."""
    out = ZERO_FORM
    for x0, xi in ct.terms:
        out = out + xi.dag() * ip_right(x0, y)
    return out


def _pair_conn_second(x: OneForm, ct: Tensor) -> OneForm:
    """<x, nabla y>: for nabla y = sum y0 (x) eta this is sum <x, y0> eta."""
    out = ZERO_FORM
    for y0, eta in ct.terms:
        out = out + ip_right(x, y0) * eta
    return out


def hermitian_defect(x: OneForm, y: OneForm) -> OneForm:
    """-<nabla x, y> + <x, nabla y> - dee(<x, y>); zero iff the connection
    is metric-compatible on the pair."""
    lhs = -_pair_conn_first(conn_right(x), y) + \
        _pair_conn_second(x, conn_right(y))
    return lhs - dee(ip_right(x, y))


def check_hermitian() -> bool:
    """Certify the Hermitian property: the conjugate-pair frame sum
    vanishes as a three-tensor, and metric compatibility holds on sample
    pairs."""
    ws = frame()
    terms = []
    for w in ws:
        wd = w.dag()
        for a, b in conn_right(w).terms:
            terms.append((a, b, wd))
        for c, d in conn_left(wd).terms:
            terms.append((w, c, d))
    if not Tensor(3, terms).is_zero():
        return False
    from .algebra import SPHERE_A, SPHERE_B, SPHERE_BSTAR
    samples = [
        (ws[0], ws[1]),
        (ws[2], ws[2]),
        (dee(SPHERE_A) * SPHERE_B, ws[1]),
        (dee(SPHERE_A) * SPHERE_B, dee(SPHERE_BSTAR)),
    ]
    return all(hermitian_defect(x, y).is_zero() for x, y in samples)


def check_torsion_free() -> bool:
    """(1 - Psi) o nabla-> = -d and (1 - Psi) o nabla<- = +d on the
    monomial test family a dee(b)."""
    from .algebra import ONE_EL, SPHERE_A, SPHERE_B, SPHERE_BSTAR
    vf = volume_form()
    pairs = [
        (ONE_EL, SPHERE_A), (SPHERE_B, SPHERE_A), (SPHERE_A, SPHERE_BSTAR),
        (SPHERE_BSTAR, SPHERE_B), (SPHERE_A, SPHERE_A),
    ]
    for a, b in pairs:
        rho = a * dee(b)
        d_ab = ext_d(a, b)
        if vf.complement(conn_right(rho)) != -d_ab:
            return False
        if vf.complement(conn_left(rho)) != d_ab:
            return False
    return True


def check_bimodule_connection() -> bool:
    """sigma o nabla-> = nabla<- on the test family x dee(y) z."""
    from .algebra import ONE_EL, SPHERE_A, SPHERE_B, SPHERE_BSTAR
    gens = (SPHERE_A, SPHERE_B, SPHERE_BSTAR)
    family = [dee(SPHERE_A), dee(SPHERE_B) * SPHERE_A, SPHERE_BSTAR * dee(SPHERE_A)]
    family += [(x * dee(y)) * z for x in gens for y in gens for z in (ONE_EL, SPHERE_A)]
    return all(sigma(conn_right(rho)) == conn_left(rho) for rho in family)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def riemann_pre_projection() -> Tensor:
    """The curvature sum before the junk projection of the middle legs,
    in the positive-scalar-curvature orientation:

        - sum_{k,j,p} w_k (x) dee(<w_k,w_j>) (x) dee(<w_j,w_p>) (x) w_p^dag,

    which evaluates to [2]_q sum_{i,k} w_i (x) w_i^dag (x) w_k (x) w_k^dag."""
    ws = frame()
    minus = rational(-1)
    terms = []
    for k in range(3):
        for p in range(3):
            wpd = ws[p].dag()
            for j in range(3):
                terms.append((ws[k].scale(minus),
                              dee(ip_right(ws[k], ws[j])),
                              dee(ip_right(ws[j], ws[p])), wpd))
    return Tensor(4, terms)


@functools.cache
def riemann() -> Tensor:
    """Riemann curvature of the right connection, a four-tensor whose middle
    two legs lie in the genuine two-forms.  Same orientation as
    riemann_pre_projection: the overall sign is fixed by asking for scalar
    curvature +2 in the classical limit."""
    vf = volume_form()
    ws = frame()
    minus = rational(-1)
    terms = []
    for k in range(3):
        for p in range(3):
            wpd = ws[p].dag()
            mid = Tensor(2, [
                (dee(ip_right(ws[k], ws[j])), dee(ip_right(ws[j], ws[p])))
                for j in range(3)])
            for c1, c2 in vf.complement(mid).terms:
                terms.append((ws[k].scale(minus), c1, c2, wpd))
    return Tensor(4, terms)


def riemann_contract(rho: OneForm) -> Tensor:
    """Evaluate the Riemann tensor on a one-form: the last leg pairs
    against rho through the right inner product, leaving a three-tensor
    with two genuine-two-form legs.  This is the right-module action of
    the curvature, so riemann_contract(rho * b) = riemann_contract(rho) * b."""
    terms = []
    for a, b, c, d in riemann().terms:
        pairing = ip_right(d.dag(), rho)
        if not pairing.is_zero():
            terms.append((a, b, c * pairing))
    return Tensor(3, terms)


def curvature_of(rho: OneForm) -> Tensor:
    """Curvature of a single one-form through the defining composite

        - (1 (x) (1 - Psi)) o (nabla (x) 1 + 1 (x) d) o nabla,

    in the same orientation as riemann().  Independent of the frame
    collapse used by riemann(), so the two routes cross-check each other:
    curvature_of(rho) must agree with pairing rho into the last leg of
    the assembled Riemann tensor."""
    from .algebra import ONE_EL
    vf = volume_form()
    terms = []
    for w in frame():
        y = ip_right(w, rho)
        if y.is_zero():
            continue
        b = dee(y)
        for u, v in conn_right(w).terms:
            terms.append((u, v, b))
        for u, v in ext_d(ONE_EL, y).terms:
            terms.append((w, u, v))
    out = []
    for a, b, c in terms:
        out.extend((a,) + pair for pair in vf.complement(tensor(b, c)).terms)
    return Tensor(3, out).scale(rational(-1))


def riemann_closed_form() -> Tensor:
    """([2]_q/2) q sum_i w_i (x) C (x) diag(q^-2, -q^2) w_i^dag."""
    vf = volume_form()
    scale = qnum(4) * q_pow(1) * rational(2).inverse()
    d = diag_scalars(q_pow(-2), -q_pow(2))
    terms = []
    for w in frame():
        twisted = d * w.dag()
        for c1, c2 in vf.C.terms:
            terms.append((w.scale(scale), c1, c2, twisted))
    return Tensor(4, terms)


@functools.cache
def ricci() -> Tensor:
    """Ricci tensor: the left pairing of the Riemann tensor with the
    metric on its last two legs."""
    return contract_left(riemann(), metric())


def ricci_closed_form() -> Tensor:
    """([2]_q/(q^2+q^-2)) sum_i w_i (x) diag(q^-4, q^4) w_i^dag."""
    scale = qnum(4) * e_beta().inverse()
    d = diag_scalars(q_pow(-4), q_pow(4))
    return Tensor(2, [(w.scale(scale), d * w.dag()) for w in frame()])


def scalar_curvature() -> Scalar:
    """The scalar curvature <G, Ric>, with an error if the pairing is not
    a multiple of the identity."""
    return as_scalar(ip_T(metric(), ricci()))


# ---------------------------------------------------------------------------
# container types
# ---------------------------------------------------------------------------


_POW_RE = re.compile(r"\^(-?\d+)")


def _latex_coeff(text: str) -> str:
    """Symbolic coefficient string -> LaTeX: brace the exponents, turn the
    products into thin spaces.  r stands for the square root of [2]_q and
    q = s^2 throughout."""
    return _POW_RE.sub(lambda m: "^{%s}" % m.group(1), text).replace("*", r"\,")


class CurvatureData:
    """Riemann, Ricci and scalar curvature computed once, with JSON and
    LaTeX serialisations of the frame coefficient arrays (coefficients as
    symbolic strings in s and r, never floats)."""

    __slots__ = ("riemann", "ricci", "scalar")

    def __init__(self):
        self.riemann = riemann()
        self.ricci = ricci()
        self.scalar = scalar_curvature()

    def as_dict(self) -> dict:
        return {
            "riemann": coeff_json(self.riemann),
            "ricci": coeff_json(self.ricci),
            "scalar": repr(self.scalar),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def to_latex(self) -> str:
        lines = [
            "% frame coefficients of the curvature tensors;"
            " r = [2]_q^{1/2}, q = s^2",
            r"\begin{align*}",
            r"\mathrm{scal} &= %s\\" % _latex_coeff(repr(self.scalar)),
        ]
        for label, t in ((r"R", self.riemann), (r"\mathrm{Ric}", self.ricci)):
            for idx, el in sorted(t.coeffs().items()):
                sub = ",".join(str(i + 1) for i in idx)
                lines.append(r"%s_{%s} &= %s\\" % (label, sub,
                                                   _latex_coeff(repr(el))))
        lines.append(r"\end{align*}")
        return "\n".join(lines)
