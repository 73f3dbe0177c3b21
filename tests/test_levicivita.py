"""Grassmann connections, their certification, and the curvature pipeline."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.algebra import (
    ONE_EL, SPHERE_A, SPHERE_B, SPHERE_BSTAR, ZERO_EL, del_e, del_f, parse,
    spin_one,
)
from qsphere.calculus import JunkData, ext_d, sigma, volume_form
from qsphere.coeff import ROOT_TWO_Q, q_pow, qnum, rational
from qsphere.forms import OneForm, dee, frame, ip_right
from qsphere.levicivita import (
    _pair_first_leg, check_bimodule_connection, check_hermitian,
    check_torsion_free, conn_left, conn_left_direct, conn_right,
    curvature_json, curvature_latex, curvature_of, hermitian_defect, ricci,
    ricci_closed_form, riemann, riemann_closed_form, riemann_contract,
    riemann_pre_projection, scalar_curvature,
)
from qsphere.tensors import (
    Tensor, as_scalar, coeff_json, diag_scalars, ip_T, metric, select, tensor,
)

from test_calculus import proper_two_tensors
from test_memo import MEMOISED


_sph = [SPHERE_A, SPHERE_B, SPHERE_BSTAR]

proper_forms = st.builds(
    lambda x, y, z: (x * dee(y)) * z,
    st.sampled_from([ONE_EL] + _sph),
    st.sampled_from(_sph),
    st.sampled_from([ONE_EL] + _sph),
)

sphere_gens = st.sampled_from(_sph)


def mixed_sector(t):
    return select(t, "+-") + select(t, "-+")


def E12f(x):
    return OneForm(x, ZERO_EL)


def E21f(x):
    return OneForm(ZERO_EL, x)


# ---------------------------------------------------------------------------
# the two connections
# ---------------------------------------------------------------------------


@given(proper_forms, sphere_gens)
@settings(deadline=None, max_examples=10)
def test_conn_right_leibniz(rho, b):
    lhs = conn_right(rho * b)
    rhs = conn_right(rho) * b + tensor(rho, dee(b))
    assert lhs == rhs


@given(proper_forms, sphere_gens)
@settings(deadline=None, max_examples=10)
def test_conn_left_leibniz(rho, b):
    lhs = conn_left(b * rho)
    rhs = tensor(dee(b), rho) + b * conn_left(rho)
    assert lhs == rhs


@given(proper_forms)
@settings(deadline=None, max_examples=20)
def test_conn_left_two_routes(rho):
    # conjugating the right connection and expanding directly through the
    # dagger frame give the same two-tensor
    assert conn_left(rho) == conn_left_direct(rho)


def test_exact_forms_have_junk_covariant_derivative():
    # (1 - Psi) nabla->(dee b) = -d(dee b) = 0
    vf = volume_form()
    for b in _sph:
        assert vf.complement(conn_right(dee(b))).is_zero()


def test_conn_right_g_component():
    # the mixed matrix sector of nabla->(dee b) is exactly G del_e del_f(b);
    # the remaining junk tail sits in the (+,+) and (-,-) sectors
    G = metric()
    for b in _sph:
        lhs = mixed_sector(conn_right(dee(b)))
        assert lhs == G * del_e(del_f(b))
        assert lhs == G * del_f(del_e(b))  # the derivations commute on B


def _cross_tails():
    c1 = Tensor(2, [(E12f(spin_one(2 - j, -1).star()), E21f(spin_one(2 - j, -1)))
                    for j in (1, 2, 3)])
    c2 = Tensor(2, [(E21f(spin_one(2 - j, 1).star()), E12f(spin_one(2 - j, 1)))
                    for j in (1, 2, 3)])
    return c1, c2


def test_conn_right_mixed_sector_with_tail():
    # nabla->([D,b]a) picks up dee-cross terms beyond G del_e del_f(b) a
    G = metric()
    c1, c2 = _cross_tails()
    for b, a in [(SPHERE_A, SPHERE_B), (SPHERE_BSTAR, SPHERE_A)]:
        lhs = mixed_sector(conn_right(dee(b) * a))
        rhs = G * (del_e(del_f(b)) * a) \
            + c1 * (del_e(b) * del_f(a)) \
            + c2 * (del_f(b) * del_e(a))
        assert lhs == rhs


def test_conn_left_g_component():
    # leading term of nabla<-([D,b]a) is G del_f del_e(b) a, with the cross
    # tails twisted by q^{+-2}
    G = metric()
    c1, c2 = _cross_tails()
    for b in _sph:
        assert mixed_sector(conn_left(dee(b))) == G * del_f(del_e(b))
    for b, a in [(SPHERE_A, SPHERE_B), (SPHERE_BSTAR, SPHERE_A)]:
        lhs = mixed_sector(conn_left(dee(b) * a))
        rhs = G * (del_f(del_e(b)) * a) \
            + (c1 * (del_f(b) * del_e(a))).scale(q_pow(2)) \
            + (c2 * (del_e(b) * del_f(a))).scale(q_pow(-2))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the defining properties
# ---------------------------------------------------------------------------


def test_hermitian():
    assert check_hermitian()


def _pair_conn_first_walk(ct, y):
    """<nabla x, y> term by term: sum xi^dag <x0, y> for nabla x =
    sum x0 (x) xi."""
    out = OneForm()
    for x0, xi in ct.terms:
        out = out + xi.dag() * ip_right(x0, y)
    return out


def _pair_conn_second_walk(x, ct):
    """<x, nabla y> term by term: sum <x, y0> eta for nabla y =
    sum y0 (x) eta."""
    out = OneForm()
    for y0, eta in ct.terms:
        out = out + ip_right(x, y0) * eta
    return out


@given(proper_forms, proper_forms, proper_two_tensors)
@settings(deadline=None, max_examples=10)
def test_first_leg_pairing_matches_the_term_walks(x, y, t):
    cx, cy = conn_right(x), conn_right(y)
    assert _pair_first_leg(x, cy) == _pair_conn_second_walk(x, cy)
    assert _pair_first_leg(y, cx).dag() == _pair_conn_first_walk(cx, y)
    assert _pair_first_leg(x, t) == _pair_conn_second_walk(x, t)
    assert _pair_first_leg(E21f(SPHERE_A), t) == \
        _pair_conn_second_walk(E21f(SPHERE_A), t)


def test_hermitian_defect_on_pairs():
    ws = frame()
    assert hermitian_defect(ws[0], ws[1]).is_zero()
    assert hermitian_defect(dee(SPHERE_A) * SPHERE_B, ws[1]).is_zero()


def test_torsion_free():
    assert check_torsion_free()


def test_bimodule_connection():
    assert check_bimodule_connection()


# the nine words x, y, z of the connection benchmark (bench/workloads.py),
# copied so that a change there does not silently shrink this family
_CONNECTION_WORDS = (("", "A", ""), ("", "B", ""), ("", "*", ""),
                     ("B", "A", ""), ("", "*", "A"), ("*", "*", ""),
                     ("A", "B", "A"), ("B", "*", "A"), ("A", "A", "A"))


def _word(letters):
    gens = {"A": SPHERE_A, "B": SPHERE_B, "*": SPHERE_BSTAR}
    out = ONE_EL
    for ch in letters:
        out = out * gens[ch]
    return out


@pytest.mark.parametrize("xs,ys,zs", _CONNECTION_WORDS)
def test_connection_identities_on_the_benchmark_words(xs, ys, zs):
    # covers dee(B), dee(B*) and dee(B*) A, which the check families miss
    x = _word(xs).scale(q_pow(-2))
    y, z = _word(ys), _word(zs)
    rho = (x * dee(y)) * z
    # d(x dee(y) z) via x dee(y) z = x dee(yz) - (xy) dee(z)
    d_rho = ext_d(x, y * z) - ext_d(x * y, z)
    right, left = conn_right(rho), conn_left(rho)
    vf = volume_form()
    assert vf.complement(right) == -d_rho
    assert vf.complement(left) == d_rho
    assert sigma(right) == left


@pytest.fixture
def coeffs_unreadable(monkeypatch):
    """Tensor.coeffs, and the terms of a tensor built from its corners,
    raise unless read from canonical(), which puts the volume form C on its
    frame terms."""
    real_coeffs, real_canonical = Tensor.coeffs, Tensor.canonical
    real_terms = Tensor.terms.fget
    reshaping = []

    def coeffs(self):
        if not reshaping:
            raise AssertionError("frame coefficients read outside canonical()")
        return real_coeffs(self)

    def terms(self):
        if self._terms is None and not reshaping:
            raise AssertionError("frame terms derived outside canonical()")
        return real_terms(self)

    def canonical(self):
        reshaping.append(self)
        try:
            return real_canonical(self)
        finally:
            reshaping.pop()

    monkeypatch.setattr(Tensor, "coeffs", coeffs)
    monkeypatch.setattr(Tensor, "canonical", canonical)
    monkeypatch.setattr(Tensor, "terms", property(terms))


def test_connection_identities_never_read_frame_coefficients(
        coeffs_unreadable):
    # equality, the zero test and the pairings read corners, so the
    # torsion and bimodule identities are decided with Tensor.coeffs and
    # the frame terms of corner-built tensors unreadable; constructing the
    # volume form may read them only through canonical(), which puts C on
    # its frame terms
    vf = volume_form()
    rho = SPHERE_B * dee(SPHERE_A)
    d_rho = ext_d(SPHERE_B, SPHERE_A)
    right, left = conn_right(rho), conn_left(rho)
    assert d_rho
    assert vf.complement(right) == -d_rho
    assert vf.complement(left) == d_rho
    assert vf.complement(right) != d_rho
    assert sigma(right) == left
    assert sigma(right) != right

    fresh = JunkData()
    assert fresh.C == vf.C and fresh.alpha == vf.alpha
    assert not fresh.psi(fresh.C)
    assert fresh.psi(right) == right + d_rho

    with pytest.raises(AssertionError, match="outside canonical"):
        vf.C.coeffs()
    with pytest.raises(AssertionError, match="outside canonical"):
        sigma(right).terms


def test_curvature_never_reads_frame_coefficients(coeffs_unreadable):
    # every memo is cleared first, so that no cached tensor hides a read
    for fn in MEMOISED:
        fn.cache_clear()
    assert riemann() == riemann_closed_form()
    assert ricci() == ricci_closed_form()
    gap = q_pow(-2) - q_pow(2)
    assert scalar_curvature() == qnum(4) * (rational(1) + gap * gap)
    rho = dee(SPHERE_B)
    assert riemann_contract(rho) == curvature_of(rho)
    assert riemann_contract(rho) != riemann_contract(frame()[0])
    assert check_hermitian()
    with pytest.raises(AssertionError, match="outside canonical"):
        riemann().terms
    assert repr(riemann()) == "Tensor(k=4, %d corners)" % len(
        riemann().corners())


def test_bracket_of_frame_pairings():
    # dee(<w_j, w_k>) decomposes over the spin-one column:
    #   (-1)^{1-j} r t(2-j,0) w_k + r q^{k-2} w_j^dag t(k-2,0)
    # with r the square root of [2]_q; this is the engine of the curvature
    # collapse, so it is pinned for all nine pairs.
    ws = frame()
    for j in (1, 2, 3):
        for k in (1, 2, 3):
            lhs = dee(ip_right(ws[j - 1], ws[k - 1]))
            sign = rational(1) if j % 2 else rational(-1)
            first = spin_one(2 - j, 0).scale(sign * ROOT_TWO_Q) * ws[k - 1]
            second = (ws[j - 1].dag() * spin_one(k - 2, 0)).scale(
                ROOT_TWO_Q * q_pow(k - 2))
            assert lhs == first + second


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def test_pre_projection_pattern():
    ws = frame()
    pat = Tensor(4, [(wi.scale(qnum(4)), wi.dag(), wk, wk.dag())
                     for wi in ws for wk in ws])
    assert riemann_pre_projection() == pat


def test_orientation_against_raw_bracket_products():
    # the literal sum of bracket products carries the opposite overall sign
    # to the curvature; the orientation is chosen so the classical scalar
    # curvature comes out +2, and this test keeps the relation explicit
    ws = frame()
    raw = Tensor(4, [(ws[k], dee(ip_right(ws[k], ws[j])),
                      dee(ip_right(ws[j], ws[p])), ws[p].dag())
                     for k in range(3) for j in range(3) for p in range(3)])
    assert raw == -riemann_pre_projection()
    assert raw != riemann_pre_projection()


def test_riemann_closed_form():
    assert riemann() == riemann_closed_form()


def test_curvature_residual_is_a_zero_corner_map(monkeypatch):
    # the difference is taken on corners, never through the frame terms
    r, closed = riemann(), riemann_closed_form()

    def canonical(self):
        raise AssertionError("frame terms derived")

    monkeypatch.setattr(Tensor, "canonical", canonical)
    residual = r - closed
    assert not residual
    assert repr(residual) == "Tensor(k=4, 0 corners)"


def test_riemann_closed_form_other_diagonal():
    # diag(q^-2, -q^2) w^dag and w^dag diag(-q^2, q^-2) are the same form,
    # so the second displayed shape of the closed formula holds as well
    vf = volume_form()
    d1 = diag_scalars(q_pow(-2), -q_pow(2))
    d2 = diag_scalars(-q_pow(2), q_pow(-2))
    scale = qnum(4) * q_pow(1) * rational(2).inverse()
    terms = []
    for w in frame():
        assert d1 * w.dag() == w.dag() * d2
        tw = w.dag() * d2
        for c1, c2 in vf.C.terms:
            terms.append((w.scale(scale), c1, c2, tw))
    assert riemann() == Tensor(4, terms)


def test_riemann_middle_legs_are_genuine():
    # (1 (x) Psi (x) 1) R = 0.  The middle legs of R are C-multiples by the
    # closed form certified above, and Psi is a bimodule map, so the claim
    # reduces to Psi killing the volume line; check that, and that Psi
    # written after the complement annihilates a generic two-tensor.
    vf = volume_form()
    assert vf.psi(vf.C).is_zero()
    sample = Tensor(2, [(dee(SPHERE_A) * SPHERE_B, dee(SPHERE_BSTAR))])
    assert vf.psi(vf.complement(sample)).is_zero()


def test_generic_composite_route():
    # the defining composite -(1 (x) (1-Psi))(nabla (x) 1 + 1 (x) d)(nabla rho)
    # against the assembled tensor contracted on rho: two derivations of the
    # same three-tensor, computed with no shared intermediate
    x = dee(SPHERE_B)
    assert curvature_of(x) == riemann_contract(x)


def test_curvature_is_right_module_map():
    rho = frame()[0]
    b = SPHERE_A
    assert riemann_contract(rho * b) == riemann_contract(rho) * b


def test_ricci_closed_form():
    assert ricci() == ricci_closed_form()


def test_ricci_einstein_at_q_one():
    # Ric - G vanishes coefficientwise in the classical limit
    zero = (0, 0)
    diff = ricci() + metric().scale(rational(-1))
    for el in diff.coeffs().values():
        for coeff in el.terms.values():
            lim = coeff.limit_q_one()
            assert (lim[0], lim[1]) == zero


def test_ricci_not_einstein_at_q_half():
    diff = ricci() + metric().scale(rational(-1))
    witness = max(abs(coeff.eval_float(0.5))
                  for el in diff.coeffs().values()
                  for coeff in el.terms.values())
    assert witness > 1.0


def test_scalar_curvature_closed_forms():
    sc = scalar_curvature()
    gap = q_pow(-2) - q_pow(2)
    assert sc == qnum(4) * (rational(1) + gap * gap)
    eb = q_pow(2) + q_pow(-2)
    assert sc * eb == qnum(4) * (q_pow(-6) + q_pow(6))
    # the identity (q^-6+q^6)/(q^-2+q^2) = 1 + (q^-2-q^2)^2 in the field
    assert (q_pow(-6) + q_pow(6)) == (rational(1) + gap * gap) * eb


def test_scalar_curvature_values():
    sc = scalar_curvature()
    u, v = sc.limit_q_one()
    assert (u, v) == (2, 0)
    assert abs(sc.eval_float(0.5) - 37.65625) < 1e-12
    assert abs(sc.eval_float(0.5) - 2.5 * 15.0625) < 1e-12


def test_scalar_rejects_noncentral_pairing():
    ws = frame()
    bad = ip_T(metric(), Tensor(2, [(ws[0], ws[0].dag())]))
    with pytest.raises(ValueError):
        as_scalar(bad)


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def test_curvature_data_serialisation():
    exported = curvature_json()
    blob = json.loads(exported)
    assert set(blob) == {"riemann", "ricci", "scalar"}
    assert blob["scalar"] == repr(scalar_curvature())
    assert blob["riemann"]["legs"] == 4
    assert blob["ricci"]["legs"] == 2
    assert len(blob["ricci"]["coeffs"]) == len(ricci().coeffs())
    for key, text in blob["ricci"]["coeffs"].items():
        assert len(key.split(",")) == 2
        assert isinstance(text, str) and text
    tex = curvature_latex()
    assert tex.startswith("%")
    assert r"\begin{align*}" in tex and r"\end{align*}" in tex
    assert "^{-" in tex  # exponents got braced
    # the exported bytes are pinned, so that no change of route alters a
    # character of either format
    assert hashlib.sha256(exported.encode()).hexdigest() == \
        "b4fe93ccb90c6628d0f180f23615d28f4f292620b65e62587f786dce6bece136"
    assert hashlib.sha256(tex.encode()).hexdigest() == \
        "26b7010b5acbf928bddc7da8285c3b0d529c76141681e33177fc5b1f341656af"


def test_curvature_coefficients_round_trip_through_parse():
    # the largest strings the program exports
    for t in (riemann(), ricci()):
        blob = coeff_json(t)
        rebuilt = {tuple(int(p) for p in key.split(",")): parse(text)
                   for key, text in blob["coeffs"].items()}
        assert rebuilt == t.coeffs()
