"""Spinors: Dirac operator, Grassmann connection, curvature, Weitzenbock."""

import pytest
from hypothesis import given, settings, strategies as st

from qsphere import spinor
from qsphere.algebra import (
    ONE_EL, SPHERE_A, SPHERE_B, SPHERE_BSTAR, ZERO_EL, Element, _pbw_of_length,
    del_e, del_f, pbw_monomials, spin_half,
)
from qsphere.calculus import projector_entry, sigma, volume_form
from qsphere.coeff import ROOT_TWO_Q, q_pow, qnum, rational
from qsphere.forms import OneForm, dee, frame, ip_right
from qsphere.levicivita import conn_right
from qsphere.spinor import (
    FRAME_SPINORS, Spinor, ZERO_SP, _frame_second, _metric_weight,
    _monomial_second, _pair_second,
    check_compatibility, check_divergence,
    clifford, clifford_curvature_action, conn_spinor, dirac,
    dirac_commutator, frame_expand, frame_minus, frame_plus, ip_spin_left,
    laplacian, spinor_curvature,
    spinor_curvature_closed_form, weitzenbock_correction,
)
from qsphere.tensors import (
    Diag, Tensor, diag_scalars, e_beta, ip_T, metric, mul_map, pair_terms,
)

from test_algebra import mixed_elements

_sph = [SPHERE_A, SPHERE_B, SPHERE_BSTAR]

th = lambda i2: spin_half(i2, 1)
tl = lambda i2: spin_half(i2, -1)

basis_spinors = st.sampled_from([
    Spinor(plus=th(1)), Spinor(plus=th(-1)),
    Spinor(minus=tl(1)), Spinor(minus=tl(-1)),
])

coeff_spinors = st.builds(
    lambda b, psi: b * psi,
    st.sampled_from([ONE_EL] + _sph), basis_spinors,
)


def conn_pairs(psi):
    """conn(psi) as (one-form, spinor) pairs."""
    return [(w, FRAME_SPINORS[i]) for w, i in conn_spinor(psi)]


def conn_frame_coeffs(pairs):
    """Canonical (frame index -> spinor) coordinates of connection pairs."""
    ws = frame()
    out = {}
    for w, chi in pairs:
        for i in range(3):
            a = ip_right(ws[i], w)
            if not a.is_zero():
                out[i] = out.get(i, ZERO_SP) + a * chi
    return {k: v for k, v in out.items() if not v.is_zero()}


def coeffs_eq(c1, c2):
    keys = set(c1) | set(c2)
    return all(c1.get(k, ZERO_SP) == c2.get(k, ZERO_SP) for k in keys)


# ---------------------------------------------------------------------------
# derivations on the half-spin matrix elements
# ---------------------------------------------------------------------------


def test_derivations_on_half_spin_columns():
    for i2 in (-1, 1):
        assert del_e(th(i2)).is_zero()
        assert del_e(tl(i2)) == th(i2)
        assert del_f(th(i2)) == tl(i2)
        assert del_f(tl(i2)).is_zero()
        assert del_e(del_f(th(i2))) == th(i2)
        assert del_f(del_e(tl(i2))) == tl(i2)


def test_derivations_on_projector_entries():
    for k2 in (-1, 1):
        for h2 in (-1, 1):
            pp = th(k2) * th(h2).star()
            mm = tl(k2) * tl(h2).star()
            cross_e = (th(k2) * tl(h2).star()).scale_s(1)
            cross_f = (tl(k2) * th(h2).star()).scale_s(-1)
            assert del_e(pp) == cross_e.scale(rational(-1))
            assert del_f(pp) == cross_f
            assert del_e(mm) == cross_e
            assert del_f(mm) == cross_f.scale(rational(-1))


def test_double_derivative_of_projector_entry():
    # the mixed second derivative of t_{i,1/2} t*_{l,1/2}; the second term
    # carries the lowered index in BOTH factors, as the degree count forces
    for i2 in (1, -1):
        for l2 in (1, -1):
            got = del_e(del_f(th(i2) * th(l2).star()))
            want = (th(i2) * th(l2).star()).scale(q_pow(-1)) \
                - (tl(i2) * tl(l2).star()).scale(q_pow(1))
            assert got == want


# ---------------------------------------------------------------------------
# frames and inner products
# ---------------------------------------------------------------------------


def test_frame_column_identities():
    acc_p = ZERO_EL
    acc_m = ZERO_EL
    for i2 in (-1, 1):
        acc_p = acc_p + (frame_plus(i2).star() * frame_plus(i2)).scale(q_pow(1))
        acc_m = acc_m + (frame_minus(i2).star() * frame_minus(i2)).scale(q_pow(-1))
    assert acc_p == ONE_EL
    assert acc_m == ONE_EL


@settings(deadline=None, max_examples=10)
@given(coeff_spinors)
def test_left_frame_identity(psi):
    acc = ZERO_SP
    for b, s in zip(frame_expand(psi), FRAME_SPINORS):
        acc = acc + b * s
    assert acc == psi


def test_spin_inner_product_star_symmetry():
    x = Spinor(plus=th(1), minus=SPHERE_A * tl(-1))
    y = Spinor(plus=SPHERE_B * th(-1), minus=tl(1))
    assert ip_spin_left(x, y).star() == ip_spin_left(y, x)


@given(st.builds(Spinor, mixed_elements(max_terms=2),
                 mixed_elements(max_terms=2)) | basis_spinors,
       st.builds(Spinor, mixed_elements(max_terms=2),
                 mixed_elements(max_terms=2)) | coeff_spinors)
@settings(max_examples=150, deadline=None)
def test_spin_inner_product_is_the_two_corner_products(x, y):
    assert ip_spin_left(x, y) == x.plus * y.plus.star().scale_s(2) + \
        x.minus * y.minus.star().scale_s(-2)


# ---------------------------------------------------------------------------
# Dirac operator and Clifford action
# ---------------------------------------------------------------------------


def test_dirac_on_frame_columns():
    for i2 in (-1, 1):
        assert dirac(Spinor(plus=th(i2))) == Spinor(minus=tl(i2))
        assert dirac(Spinor(minus=tl(i2))) == Spinor(plus=th(i2))


@settings(deadline=None, max_examples=10)
@given(st.sampled_from(_sph), coeff_spinors)
def test_dirac_commutator_is_clifford(b, psi):
    assert dirac_commutator(b, psi) == clifford(dee(b), psi)


@settings(deadline=None, max_examples=10)
@given(st.sampled_from(_sph), basis_spinors)
def test_clifford_is_balanced(b, psi):
    w = dee(SPHERE_B)
    assert clifford(w * b, psi) == clifford(w, b * psi)


def test_dirac_squared_display():
    # D^2(b s_{i,+}, b s_{l,-}) with the frame twists q^{+-1}, q^{-+3/2}
    for i2 in (-1, 1):
        for b in (ONE_EL, SPHERE_A, SPHERE_B):
            psi = Spinor(plus=b * frame_plus(i2), minus=b * frame_minus(i2))
            got = dirac(dirac(psi))
            want = Spinor(
                (del_e(del_f(b)) * frame_plus(i2)).scale(q_pow(1))
                + (del_e(b) * frame_minus(i2)).scale_s(-3)
                + b * frame_plus(i2),
                (del_f(del_e(b)) * frame_minus(i2)).scale(q_pow(-1))
                + (del_f(b) * frame_plus(i2)).scale_s(3)
                + b * frame_minus(i2))
            assert got == want


# ---------------------------------------------------------------------------
# the Grassmann connection
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=10)
@given(coeff_spinors)
def test_dirac_is_clifford_of_connection(psi):
    acc = ZERO_SP
    for w, chi in conn_pairs(psi):
        acc = acc + clifford(w, chi)
    assert acc == dirac(psi)


@settings(deadline=None, max_examples=8)
@given(st.sampled_from(_sph), basis_spinors)
def test_connection_leibniz(b, psi):
    lhs = conn_frame_coeffs(conn_pairs(b * psi))
    rhs_pairs = [(dee(b), psi)] + [(b * w, chi) for w, chi in conn_pairs(psi)]
    assert coeffs_eq(lhs, conn_frame_coeffs(rhs_pairs))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def test_curvature_closed_form_on_frames():
    for psi in FRAME_SPINORS:
        assert spinor_curvature(psi) == spinor_curvature_closed_form(psi)


def test_curvature_closed_form_with_coefficient():
    for psi in (Spinor(plus=SPHERE_A * th(1)),
                Spinor(plus=SPHERE_BSTAR * th(-1), minus=SPHERE_A * tl(1))):
        assert spinor_curvature(psi) == spinor_curvature_closed_form(psi)


def test_volume_pairing_is_faithful():
    # <C, C z> = alpha z: pairing with C recovers the spinor Phi from
    # C (x) Phi, so comparing spinor curvatures decides curvature equality
    vf = volume_form()
    for z in (ONE_EL, SPHERE_A, SPHERE_B, SPHERE_BSTAR * SPHERE_A):
        assert ip_T(vf.C, vf.C * z) == z.scale(vf.alpha)


def test_curvature_two_form_legs_are_volume_multiples():
    # the curvature lies in the image of the junk complement, which is the
    # C-line; Psi kills that line (single terms of a two-tensor are not
    # separately C-multiples, only their sum is)
    vf = volume_form()
    assert vf.psi(vf.C).is_zero()
    ws = frame()
    sample = Tensor(2, [(ws[0], ws[1]), (ws[2], ws[2])])
    assert vf.psi(vf.complement(sample)).is_zero()


def test_clifford_action_of_curvature():
    ebi = e_beta().inverse()
    for psi in (Spinor(plus=th(1)), Spinor(minus=tl(1)),
                Spinor(plus=SPHERE_B * th(-1))):
        want = Spinor(psi.plus.scale(q_pow(2) * ebi),
                      psi.minus.scale(q_pow(-2) * ebi))
        assert clifford_curvature_action(psi) == want


def test_braided_volume_action():
    # m(sigma(C)) = (-2 q^{-1}/(q^2+q^-2)) diag(q^3, -q^-3)
    coef = q_pow(-1) * rational(-2) * e_beta().inverse()
    want = diag_scalars(coef * q_pow(3), coef * q_pow(-3) * rational(-1))
    assert mul_map(sigma(volume_form().C)) == want


def test_metric_multiplies_to_weight_matrix():
    assert mul_map(metric()) == diag_scalars(q_pow(1), q_pow(-1))


# ---------------------------------------------------------------------------
# laplacian and the Weitzenbock identity
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=8)
@given(coeff_spinors)
def test_weitzenbock_identity(psi):
    assert dirac(dirac(psi)) - laplacian(psi) == weitzenbock_correction(psi)


def test_weitzenbock_identity_mixed_chirality():
    psi = Spinor(plus=SPHERE_BSTAR * th(-1), minus=SPHERE_A * tl(1))
    assert dirac(dirac(psi)) - laplacian(psi) == weitzenbock_correction(psi)


def test_laplacian_display():
    # lap = (1/(q^2+q^-2)) diag(q^-2, q^2) + second-order part
    ebi = e_beta().inverse()
    for b in (SPHERE_A, SPHERE_B):
        for i2 in (-1, 1):
            psi = Spinor(plus=b * frame_plus(i2), minus=b * frame_minus(i2))
            got = laplacian(psi)
            want = Spinor(
                psi.plus.scale(q_pow(-2) * ebi)
                + (del_e(del_f(b)) * frame_plus(i2)).scale(q_pow(1))
                + (del_e(b) * frame_minus(i2)).scale_s(-3),
                psi.minus.scale(q_pow(2) * ebi)
                + (del_f(del_e(b)) * frame_minus(i2)).scale(q_pow(-1))
                + (del_f(b) * frame_plus(i2)).scale_s(3))
            assert got == want


def _pair_second_per_pair(x, psi):
    """_pair_second with the last leg paired per (w, eta): one pairing of X
    with w (x) eta for each pair (eta, xi) of conn(chi), chi run through
    ``conn_spinor`` on every call."""
    acc = ZERO_SP
    for w, chi in conn_pairs(psi):
        acc = acc + pair_terms(x, conn_right(w).terms) * chi
        for eta, xi in conn_pairs(chi):
            acc = acc + pair_terms(x, [(w, eta)]) * xi
    return acc


CHIRAL_MONOMIALS = [Spinor.slot(sign, Element.from_mono(m))
                    for n in (1, 3, 5, 7) for sign in (1, -1)
                    for m in _pbw_of_length(n, sign)]


@pytest.mark.parametrize("which", ["G", "C"])
def test_pair_second_pairs_the_last_leg_once_per_frame_spinor(which):
    # sum <X, w (x) eta> xi over conn(chi) is (X^eps)* w^eps1 K_chi^eps2
    # summed over the corners, exactly, for any two-tensor X
    x = metric() if which == "G" else volume_form().C
    sums = [SPHERE_BSTAR * FRAME_SPINORS[0] + SPHERE_A * FRAME_SPINORS[3],
            Spinor(plus=SPHERE_B * th(1) + th(-1), minus=SPHERE_A * tl(-1))]
    assert len(CHIRAL_MONOMIALS) == 40
    for psi in CHIRAL_MONOMIALS + list(FRAME_SPINORS) + sums:
        assert _pair_second(which, psi) == _pair_second_per_pair(x, psi), psi


# coefficients that monomial spinors never give their frame coefficients:
# a q-number, r, a cyclotomic inverse, a rational over a q-number
GENERAL_COEFFS = {"[3]_q": qnum(6), "r": ROOT_TWO_Q,
                  "r/[5]_q": ROOT_TWO_Q * qnum(10).inverse(),
                  "3/[4]_q": rational(3) * qnum(8).inverse()}


@pytest.mark.parametrize("label", sorted(GENERAL_COEFFS))
def test_second_derivative_is_linear_over_general_coefficients(label):
    # the memo holds one entry per monomial, with unit coefficient; a
    # general scalar c of a frame coefficient is folded in afterwards, on
    # the frame spinor and K_i.  The per-pair oracle reads no memo.
    c = GENERAL_COEFFS[label]
    vf = volume_form()
    family = [psi.scale(c) for psi in CHIRAL_MONOMIALS[::5]]
    family += [SPHERE_A * FRAME_SPINORS[1].scale(c),
               SPHERE_B * FRAME_SPINORS[2].scale(c) + FRAME_SPINORS[0],
               Spinor(plus=(SPHERE_B * th(1)).scale(c) + th(-1),
                      minus=SPHERE_A * tl(-1).scale(c) + tl(1))]
    for psi in family:
        assert laplacian(psi) == _metric_weight() \
            * _pair_second_per_pair(metric(), psi), psi
        assert spinor_curvature(psi) == _pair_second_per_pair(
            vf.C, psi).scale(vf.alpha.inverse()), psi


def _coefficient_monomials(psi):
    return {m for b in frame_expand(psi) for m in b.terms}


def test_laplacian_runs_conn_right_once_per_new_monomial(monkeypatch):
    for i in range(len(FRAME_SPINORS)):
        _frame_second(i)
    _monomial_second.cache_clear()
    seen = {"dee": [], "conn_right": []}
    for name in seen:
        def counting(arg, real=getattr(spinor, name), calls=seen[name]):
            calls.append(arg)
            return real(arg)
        monkeypatch.setattr(spinor, name, counting)
    psi = Spinor(plus=SPHERE_B * th(-1) + th(1), minus=SPHERE_A * tl(1))
    monos = _coefficient_monomials(psi)
    got = laplacian(psi)
    # one dee and one conn_right per distinct degree-0 monomial of the
    # frame coefficients, on dee of that monomial
    assert len(monos) > 4
    assert sorted(seen["dee"], key=repr) == sorted(
        (Element.from_mono(m) for m in monos), key=repr)
    assert len(seen["conn_right"]) == len(monos)
    assert all(w == dee(x) for w, x in zip(seen["conn_right"], seen["dee"]))
    # a second laplacian on the same monomials, other coefficients: none
    for calls in seen.values():
        del calls[:]
    phi = psi.scale(qnum(6)) + Spinor(plus=SPHERE_A * th(1)).scale(ROOT_TWO_Q)
    assert _coefficient_monomials(phi) <= monos
    laplacian(phi)
    assert seen == {"dee": [], "conn_right": []}
    # the curvature pairs C, another memo key: once per monomial again
    spinor_curvature(psi)
    assert len(seen["conn_right"]) == len(monos)
    monkeypatch.undo()
    assert got == dirac(dirac(psi)) - weitzenbock_correction(psi)


def test_conn_right_part_pairs_to_zero_against_c():
    # the conn_right (x) 1 part of the curvature is the covariant
    # derivative of an exact form, pure junk: <C, .> kills it on every
    # degree-0 monomial; against G it does not vanish
    monos = pbw_monomials(10, 0)
    assert len(monos) == 36
    for m in monos:
        assert _monomial_second("C", m)[0].is_zero(), m
    assert sum(not _monomial_second("G", m)[0].is_zero()
               for m in monos) == 35


def test_weitzenbock_correction_classical_limit():
    # at q = 1 the defect is half the identity: a quarter of the round
    # scalar curvature 2
    from fractions import Fraction
    ebi = e_beta().inverse()
    assert (q_pow(2) * ebi).limit_q_one() == (Fraction(1, 2), Fraction(0))
    assert (q_pow(-2) * ebi).limit_q_one() == (Fraction(1, 2), Fraction(0))


# ---------------------------------------------------------------------------
# charge projectors
# ---------------------------------------------------------------------------


def _projectors():
    """P+ from calculus.projector_entry, and P- with entries
    t_{r,-1/2} t*_{c,-1/2}, rows and columns in the order r, c = 1/2, -1/2."""
    pp = [[projector_entry(r, c) for c in (0, 1)] for r in (0, 1)]
    pm = [[spin_half(r, -1) * spin_half(c, -1).star() for c in (1, -1)]
          for r in (1, -1)]
    return pp, pm


def test_projector_identities():
    pp, pm = _projectors()
    idm = ((ONE_EL, ZERO_EL), (ZERO_EL, ONE_EL))
    for r in range(2):
        for c in range(2):
            assert pp[r][c] + pm[r][c] == idm[r][c]
            prod = pp[r][0] * pm[0][c] + pp[r][1] * pm[1][c]
            assert prod.is_zero()


def test_projector_entries_in_sphere_generators():
    pp, pm = _projectors()
    assert pp[0][0] == ONE_EL - SPHERE_A
    assert pp[0][1] == SPHERE_BSTAR.scale(rational(-1))
    assert pp[1][0] == SPHERE_B.scale(rational(-1))
    assert pp[1][1] == SPHERE_A.scale(q_pow(2))
    assert pm[0][0] == SPHERE_A
    assert pm[0][1] == SPHERE_BSTAR
    assert pm[1][0] == SPHERE_B
    assert pm[1][1] == ONE_EL - SPHERE_A.scale(q_pow(2))


# ---------------------------------------------------------------------------
# verification bundles
# ---------------------------------------------------------------------------


def test_compatibility_bundle():
    assert check_compatibility()


def test_divergence_bundle():
    assert check_divergence()


def test_multiplied_junk_identity():
    # m(Psi(rho (x) eta)) = e^{-beta} m(G) <rho^dag, eta>_B on one pair,
    # spelled out (the bundle above runs a whole family)
    vf = volume_form()
    rho = frame()[0]
    eta = dee(SPHERE_A) * SPHERE_B
    lhs = mul_map(vf.psi(Tensor(2, [(rho, eta)])))
    rhs = (mul_map(metric()) * ip_right(rho.dag(), eta)).scale(e_beta().inverse())
    assert lhs == rhs
