"""Grassmann connections on one-forms and the curvature pipeline.

The frame gives a single right connection nabla->(rho) = sum_j w_j (x)
dee(<w_j, rho>) and, by conjugation, a left connection nabla<- =
-dag o nabla-> o dag.  These are Hermitian, torsion-free and form a
bimodule connection with respect to the braiding; the checks below
certify each property on the frame and on families of module elements.
That these properties pin the connection down uniquely is the source
paper's theorem; it is not yet decided here.  All routes work on corners
(see ``tensors``): the connections, conn_left_direct and
riemann_pre_projection are built from legs, and curvature_of splices with
``product_corners``, reading no legs of a corner-built tensor.

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

from .algebra import (SPHERE_A, SPHERE_B, SPHERE_BSTAR, ZERO_EL, exact_check,
                      parse)
from .coeff import Scalar, q_pow, qnum, rational
from .forms import OneForm, dee, frame, ip_left, ip_right
from .tensors import (
    Tensor, as_scalar, coeff_json, contract_left, diag_scalars, e_beta,
    from_corners, ip_T, metric, pair_first_legs, product_corners,
    sum_corners, tensor,
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


def _pair_first_leg(x: OneForm, t: Tensor) -> OneForm:
    """<x, t> on the first leg of a two-tensor t = sum t0 (x) t1, that is
    sum <x, t0> t1."""
    c = pair_first_legs(x, t.corners())
    return OneForm(c.get((1,), ZERO_EL), c.get((-1,), ZERO_EL))


def hermitian_defect(x: OneForm, y: OneForm) -> OneForm:
    """-<nabla x, y> + <x, nabla y> - dee(<x, y>); zero iff the connection
    is metric-compatible on the pair.  <nabla x, y> is the dag of
    <y, nabla x>, both pairing on the first leg."""
    lhs = -_pair_first_leg(y, conn_right(x)).dag() + \
        _pair_first_leg(x, conn_right(y))
    return lhs - dee(ip_right(x, y))


@exact_check
def check_hermitian():
    """Certify the Hermitian property: the conjugate-pair frame sum
    sum_j nabla->(w_j) (x) w_j^dag + w_j (x) nabla<-(w_j^dag) vanishes as a
    three-tensor, nabla<- = -dag o nabla-> o dag is the left connection
    built straight from the frame (conn_left_direct), and metric
    compatibility holds on sample pairs.

    The frame sum is the Hermitian condition as stated for a frame, so it
    stays; but each of its halves vanishes on its own, so it does not tie
    nabla<- to nabla->.  The conn_left_direct cases do: each fails if
    nabla<- loses its sign."""
    ws = frame()
    frame_sum = sum_corners(part for w in ws
                            for part in (product_corners(conn_right(w), w.dag()),
                                         product_corners(w, conn_left(w.dag()))))
    yield "the conjugate-pair frame sum", from_corners(3, frame_sum), Tensor(3)
    rho = dee(SPHERE_A) * SPHERE_B
    for label, x in (("w1", ws[0]), ("w2", ws[1]), ("w3", ws[2]),
                     ("dee(A) B", rho), ("dee(Bstar)", dee(SPHERE_BSTAR))):
        yield "nabla<-(%s) = conn_left_direct(%s)" % (label, label), \
            conn_left(x), conn_left_direct(x)
    for label, x, y in (("w1, w2", ws[0], ws[1]), ("w3, w3", ws[2], ws[2]),
                        ("dee(A) B, w2", rho, ws[1]),
                        ("dee(A) B, dee(Bstar)", rho, dee(SPHERE_BSTAR))):
        yield "hermitian_defect(%s)" % label, hermitian_defect(x, y), OneForm()


@exact_check
def check_torsion_free():
    """(1 - Psi) o nabla-> = -d and (1 - Psi) o nabla<- = +d on the
    monomial test family a dee(b)."""
    vf = volume_form()
    for a, b in (("1", "A"), ("B", "A"), ("A", "Bstar"), ("Bstar", "B"),
                 ("A", "A")):
        rho = parse(a) * dee(parse(b))
        d_ab = ext_d(parse(a), parse(b))
        yield "(1 - Psi) nabla->(%s dee(%s)) = -d" % (a, b), \
            vf.complement(conn_right(rho)), -d_ab
        yield "(1 - Psi) nabla<-(%s dee(%s)) = d" % (a, b), \
            vf.complement(conn_left(rho)), d_ab


@exact_check
def check_bimodule_connection():
    """sigma o nabla-> = nabla<- on the test family x dee(y) z."""
    gens = ("A", "B", "Bstar")
    family = [("1", "A", "1"), ("1", "B", "A"), ("Bstar", "A", "1")]
    family += [(x, y, z) for x in gens for y in gens for z in ("1", "A")]
    for x, y, z in family:
        rho = (parse(x) * dee(parse(y))) * parse(z)
        yield "sigma nabla->(%s dee(%s) %s)" % (x, y, z), \
            sigma(conn_right(rho)), conn_left(rho)


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
    curvature +2 in the classical limit.  The nine blocks (k, p) are
    summed on corners."""
    vf = volume_form()
    ws = frame()
    minus = rational(-1)
    blocks = []
    for k in range(3):
        for p in range(3):
            mid = Tensor(2, [
                (dee(ip_right(ws[k], ws[j])), dee(ip_right(ws[j], ws[p])))
                for j in range(3)])
            blocks.append(product_corners(ws[k].scale(minus),
                                          vf.complement(mid), ws[p].dag()))
    return from_corners(4, sum_corners(blocks))


def riemann_contract(rho: OneForm) -> Tensor:
    """Evaluate the Riemann tensor on a one-form: the last leg pairs
    against rho through the right inner product, leaving a three-tensor
    with two genuine-two-form legs.  This is the right-module action of
    the curvature, so riemann_contract(rho * b) = riemann_contract(rho) * b.
    It is {}_B<R, rho^dag>, since <d^dag, rho> = {}_B<d, rho^dag>."""
    return contract_left(riemann(), rho.dag())


def curvature_of(rho: OneForm) -> Tensor:
    """Curvature of a single one-form through the defining composite

        - (1 (x) (1 - Psi)) o (nabla (x) 1 + 1 (x) d) o nabla,

    in the same orientation as riemann().  Independent of the frame
    collapse used by riemann(), so the two routes cross-check each other:
    curvature_of(rho) must agree with pairing rho into the last leg of
    the assembled Riemann tensor.  Only nabla (x) 1 is summed: 1 (x) d sends
    nabla(rho) = sum_j w_j (x) dee(<w_j, rho>) to sum_j w_j (x)
    ext_d(1, <w_j, rho>), which is 0 as del_e(1) = del_f(1) = 0."""
    vf = volume_form()
    parts = []
    for w in frame():
        y = ip_right(w, rho)
        if not y.is_zero():
            b = dee(y)
            parts.extend(product_corners(u, vf.complement(tensor(v, b)))
                         for u, v in conn_right(w).terms)
    return -from_corners(3, sum_corners(parts))


def riemann_closed_form() -> Tensor:
    """([2]_q/2) q sum_i w_i (x) C (x) diag(q^-2, -q^2) w_i^dag."""
    c = volume_form().C
    scale = qnum(4) * q_pow(1) * rational(2).inverse()
    d = diag_scalars(q_pow(-2), -q_pow(2))
    return from_corners(4, sum_corners(
        product_corners(w.scale(scale), c, d * w.dag()) for w in frame()))


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


@exact_check
def check_riemann():
    """The Riemann tensor equals its closed form."""
    yield "R = riemann_closed_form()", riemann(), riemann_closed_form()


@exact_check
def check_ricci():
    """The Ricci tensor equals its closed form."""
    yield "Ric = ricci_closed_form()", ricci(), ricci_closed_form()


@exact_check
def check_scalar_curvature():
    """The scalar curvature is [2]_q (1 + (q^-2 - q^2)^2), which tends to
    2 + 0 sqrt(2) at q = 1, the round sphere's value."""
    scal = scalar_curvature()
    gap = q_pow(-2) - q_pow(2)
    yield "scal = [2]_q (1 + (q^-2 - q^2)^2)", scal, \
        qnum(4) * (rational(1) + gap * gap)
    u, v = scal.limit_q_one()
    yield "scal at q = 1", u, 2
    yield "sqrt(2) part of scal at q = 1", v, 0


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


_POW_RE = re.compile(r"\^(-?\d+)")


def _latex_coeff(text: str) -> str:
    """Symbolic coefficient string -> LaTeX: brace the exponents, turn the
    products into thin spaces.  r stands for the square root of [2]_q and
    q = s^2 throughout."""
    return _POW_RE.sub(lambda m: "^{%s}" % m.group(1), text).replace("*", r"\,")


def curvature_json() -> str:
    """The frame coefficient arrays of riemann() and ricci() and the
    scalar curvature as JSON, coefficients as symbolic strings in s and r,
    never floats."""
    return json.dumps({
        "riemann": coeff_json(riemann()),
        "ricci": coeff_json(ricci()),
        "scalar": repr(scalar_curvature()),
    }, indent=2, sort_keys=True)


def curvature_latex() -> str:
    """The same frame coefficients and scalar curvature as a LaTeX align*
    block."""
    lines = [
        "% frame coefficients of the curvature tensors;"
        " r = [2]_q^{1/2}, q = s^2",
        r"\begin{align*}",
        r"\mathrm{scal} &= %s\\" % _latex_coeff(repr(scalar_curvature())),
    ]
    for label, t in ((r"R", riemann()), (r"\mathrm{Ric}", ricci())):
        for idx, el in sorted(t.coeffs().items()):
            sub = ",".join(str(i + 1) for i in idx)
            lines.append(r"%s_{%s} &= %s\\" % (label, sub,
                                               _latex_coeff(repr(el))))
    lines.append(r"\end{align*}")
    return "\n".join(lines)
