"""Volume form, junk projection, exterior derivative and braiding."""

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.algebra import (
    ONE_EL, SPHERE_A, SPHERE_B, SPHERE_BSTAR, ZERO_EL, del_e, del_f,
    spin_half,
)
from qsphere.calculus import (
    JunkData, chern2, ext_d, ext_d_via_junk, projector_entry, psi_decomposed,
    sigma, sigma_inv, volume_form,
)
from qsphere.coeff import q_pow, rational, s_pow
from qsphere.forms import E12, E21, OneForm, dee, frame, ip_right
from qsphere.levicivita import conn_right
from qsphere.tensors import (
    Tensor, as_scalar, diag_scalars, e_beta, from_corners, ip_T, metric,
    mul_map, select, tensor,
)

from metric_halves import t_mp, t_pm


_sph = [SPHERE_A, SPHERE_B, SPHERE_BSTAR]

proper_forms = st.builds(
    lambda x, y, z: (x * dee(y)) * z,
    st.sampled_from([ONE_EL] + _sph),
    st.sampled_from(_sph),
    st.sampled_from([ONE_EL] + _sph),
)

proper_two_tensors = st.lists(
    st.tuples(proper_forms, proper_forms), min_size=1, max_size=1,
).map(lambda ts: Tensor(2, ts))

sphere_gens = st.sampled_from(_sph)


# ---------------------------------------------------------------------------
# the charge-one projector and its Chern character
# ---------------------------------------------------------------------------

def test_projector_is_a_hermitian_idempotent():
    p = [[projector_entry(k, h) for h in (0, 1)] for k in (0, 1)]
    comp = [[(ONE_EL if k == h else ZERO_EL) - p[k][h] for h in (0, 1)]
            for k in (0, 1)]
    for k in (0, 1):
        for h in (0, 1):
            square = p[k][0] * p[0][h] + p[k][1] * p[1][h]
            assert square == p[k][h]
            assert p[k][h].star() == p[h][k]
            mixed = p[k][0] * comp[0][h] + p[k][1] * comp[1][h]
            assert mixed.is_zero()


def test_half_derivative_formulas():
    # derivatives of the projector entries stay inside the spin-1/2 matrix
    # coefficients, with explicit q-power prefactors
    for k in (0, 1):
        for h in (0, 1):
            p = projector_entry(k, h)
            lhs_e = del_e(p)
            rhs_e = -(spin_half(1 - 2 * k, 1)
                      * spin_half(1 - 2 * h, -1).star()).scale_s(1)
            assert lhs_e == rhs_e
            lhs_f = del_f(p)
            rhs_f = (spin_half(1 - 2 * k, -1)
                     * spin_half(1 - 2 * h, 1).star()).scale_s(-1)
            assert lhs_f == rhs_f


def test_chern_intermediate_form():
    # after summing out the middle index the character collapses to a
    # double sum of rank-one matrices
    acc = Tensor(2, [])
    for k0 in (0, 1):
        w = q_pow(-2 * k0)
        for k2 in (0, 1):
            first = OneForm(
                plus=spin_half(1 - 2 * k0, 1) * spin_half(1 - 2 * k2, -1).star(),
                minus=spin_half(1 - 2 * k0, -1) * spin_half(1 - 2 * k2, 1).star(),
            )
            second = OneForm(
                plus=-(spin_half(1 - 2 * k2, 1) * spin_half(1 - 2 * k0, -1).star()),
                minus=spin_half(1 - 2 * k2, -1) * spin_half(1 - 2 * k0, 1).star(),
            )
            acc = acc + tensor(first.scale(w), second)
    assert chern2() == acc


def test_chern_closed_form():
    assert chern2() == t_pm() - t_mp().scale(q_pow(-2))


def test_metric_chern_pairing():
    pairing = as_scalar(ip_T(metric(), chern2()))
    assert pairing == q_pow(1) - q_pow(-3)


@given(proper_two_tensors)
@settings(deadline=None, max_examples=10)
def test_metric_pairing_is_the_sweedler_pairing(t):
    # <G, rho (x) eta> collapses to <rho^dag, eta> term by term
    direct = sum(
        (ip_right(rho.dag(), eta) for rho, eta in t.terms), ZERO_EL)
    assert ip_T(metric(), t) == direct


# ---------------------------------------------------------------------------
# volume form
# ---------------------------------------------------------------------------

def test_alpha_value_and_classical_limit():
    vf = volume_form()
    assert vf.alpha == rational(4) * q_pow(-2) * e_beta().inverse()
    assert vf.alpha.limit_q_one() == (2, 0)


def test_volume_form_shape():
    vf = volume_form()
    assert ip_T(vf.C, metric()).is_zero()
    assert as_scalar(ip_T(vf.C, vf.C)) == vf.alpha
    assert vf.C.dag() == vf.C
    # C is a combination of the two halves of the metric
    factor = rational(2) * q_pow(-1) * e_beta().inverse()
    assert vf.C == (t_pm().scale(q_pow(-1)) - t_mp().scale(q_pow(1))).scale(factor)


def test_multiplication_of_volume_form():
    vf = volume_form()
    factor = rational(2) * q_pow(-1) * e_beta().inverse()
    assert mul_map(vf.C) == diag_scalars(factor * q_pow(-1), -(factor * q_pow(1)))


# ---------------------------------------------------------------------------
# junk projection, two routes
# ---------------------------------------------------------------------------

def test_psi_fixes_metric_and_kills_volume_form():
    vf = volume_form()
    assert vf.psi(metric()) == metric()
    assert vf.psi(vf.C).is_zero()
    assert psi_decomposed(vf.C).is_zero()
    assert psi_decomposed(metric()) == metric()


@given(proper_two_tensors)
@settings(deadline=None, max_examples=10)
def test_psi_routes_agree(t):
    assert volume_form().psi(t) == psi_decomposed(t)


@given(proper_two_tensors)
@settings(deadline=None, max_examples=5)
def test_psi_is_an_idempotent(t):
    vf = volume_form()
    once = vf.psi(t)
    assert vf.psi(once) == once


@given(proper_two_tensors)
@settings(deadline=None, max_examples=5)
def test_psi_commutes_with_dag(t):
    vf = volume_form()
    assert vf.psi(t).dag() == vf.psi(t.dag())


@given(proper_two_tensors, proper_two_tensors)
@settings(deadline=None, max_examples=8)
def test_psi_is_self_adjoint(s, t):
    vf = volume_form()
    assert ip_T(vf.psi(s), t) == ip_T(s, vf.psi(t))


@given(proper_forms, proper_forms)
@settings(deadline=None, max_examples=10)
def test_multiplication_after_psi(rho, eta):
    # m(Psi(rho (x) eta)) = e^{-beta} m(G) <rho^dag, eta>
    vf = volume_form()
    lhs = mul_map(vf.psi(tensor(rho, eta)))
    pairing = ip_right(rho.dag(), eta)
    rhs = (diag_scalars(q_pow(1), q_pow(-1)) * pairing).scale(e_beta().inverse())
    assert lhs == rhs


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------

@given(st.sampled_from([ONE_EL] + _sph), sphere_gens)
@settings(deadline=None, max_examples=12)
def test_exterior_derivative_routes_agree(a, b):
    assert ext_d(a, b) == ext_d_via_junk(a, b)


def test_exterior_derivative_of_commutators_vanishes():
    # d is well defined on one-forms a[D,b]; in particular d[D,x] = 0
    for x in _sph:
        assert ext_d(ONE_EL, x).is_zero()


def test_exterior_derivative_leibniz_seed():
    # d(a[D,b]) responds to the left factor through its derivatives only
    a, b = SPHERE_B, SPHERE_BSTAR
    z = (del_e(a) * del_f(b)).scale(q_pow(-1)) - \
        (del_f(a) * del_e(b)).scale(q_pow(1))
    half_q = q_pow(1) * rational(2).inverse()
    assert ext_d(a, b) == (volume_form().C * z).scale(half_q)


# ---------------------------------------------------------------------------
# braiding
# ---------------------------------------------------------------------------

def test_sigma_scales_the_pure_corners():
    w = frame()[0]
    mm = tensor(OneForm(minus=w.minus), OneForm(minus=w.minus))
    pp = tensor(OneForm(plus=w.plus), OneForm(plus=w.plus))
    assert sigma(mm) == mm.scale(q_pow(2))
    assert sigma(pp) == pp.scale(q_pow(-2))
    assert sigma_inv(mm) == mm.scale(q_pow(-2))
    assert sigma_inv(pp) == pp.scale(q_pow(2))


def test_sigma_swaps_the_metric_halves():
    assert sigma(t_pm()) == t_mp().scale(q_pow(-2))
    assert sigma(t_mp()) == t_pm().scale(q_pow(2))


def test_sigma_fixes_the_metric():
    g = metric()
    assert sigma(g) == g
    assert sigma_inv(g) == g


def test_sigma_on_volume_form():
    vf = volume_form()
    coef = rational(2) * q_pow(-1) * (q_pow(-2) - q_pow(2)) * e_beta().inverse()
    assert sigma(vf.C) == -vf.C + metric().scale(coef)
    # sigma squares to the identity on the mixed sector
    assert sigma(sigma(vf.C)) == vf.C
    mm = tensor(OneForm(minus=frame()[1].minus), OneForm(minus=frame()[2].minus))
    assert sigma(sigma(mm)) == mm.scale(q_pow(4))


@given(proper_two_tensors)
@settings(deadline=None, max_examples=8)
def test_sigma_is_invertible(t):
    tc = t.canonical()
    assert sigma_inv(sigma(t)) == tc
    assert sigma(sigma_inv(t)) == tc


@given(proper_forms, proper_forms, sphere_gens, sphere_gens)
@settings(deadline=None, max_examples=8)
def test_sigma_is_a_bimodule_map(rho, eta, x, y):
    t = tensor(rho, eta)
    assert sigma(x * (t * y)) == x * (sigma(t) * y)


@given(proper_two_tensors)
@settings(deadline=None, max_examples=8)
def test_sigma_respects_dag(t):
    assert sigma(t).dag() == sigma_inv(t.dag())


@given(proper_two_tensors)
@settings(deadline=None, max_examples=5)
def test_multiplication_ignores_the_braiding_on_junk(t):
    vf = volume_form()
    junk = vf.psi(t)
    assert mul_map(sigma(junk)) == mul_map(junk)


def test_sigma_rejects_improper_forms():
    with pytest.raises(ValueError):
        sigma(tensor(E12, E12))
    with pytest.raises(ValueError):
        sigma_inv(tensor(E21, OneForm(plus=ONE_EL)))


def test_sigma_reads_the_corners_of_a_corner_built_tensor(monkeypatch):
    # sigma(t) is built from corners; braiding it back must decide
    # properness from those corners, with no frame expansion
    rho = SPHERE_B * dee(SPHERE_A) * SPHERE_A
    t = conn_right(rho)
    calls = []
    original = Tensor.canonical
    monkeypatch.setattr(Tensor, "canonical",
                        lambda self: calls.append(self) or original(self))
    assert sigma_inv(sigma(t)) == t
    assert calls == []


def test_sigma_rejects_improper_corners():
    # a (+,+) corner of degree 0 instead of 4
    with pytest.raises(ValueError):
        sigma(from_corners(2, {(1, 1): ONE_EL}))
    with pytest.raises(ValueError):
        sigma_inv(from_corners(2, {(1, -1): SPHERE_A, (-1, 1): spin_half(1, 1)}))
