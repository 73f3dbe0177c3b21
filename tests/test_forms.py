"""One-form bimodule, differential, adjoint, inner products, frame."""

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.algebra import (
    GEN_A, GEN_B, GEN_C, GEN_D, ONE_EL, SPHERE_A, SPHERE_B, SPHERE_BSTAR,
    ZERO_EL, Element, mono_degree, spin_one,
)
from qsphere.coeff import ROOT_TWO_Q, q_pow, s_pow
from qsphere.forms import (
    E12, E21, OneForm, ZERO_FORM, dee, frame, frame_expand_left,
    frame_expand_right, ip_left, ip_right,
)

from test_algebra import elements, mixed_elements


one_forms = st.builds(OneForm, elements(max_terms=2), elements(max_terms=2))

sphere_words = st.sampled_from([
    ONE_EL, SPHERE_A, SPHERE_B, SPHERE_BSTAR, SPHERE_A * SPHERE_B,
    SPHERE_BSTAR * SPHERE_A, SPHERE_B * SPHERE_B, SPHERE_A - SPHERE_BSTAR,
])


# ---------------------------------------------------------------------------
# matrix units and inner product normalisation
# ---------------------------------------------------------------------------

def test_matrix_unit_inner_products():
    one = lambda c: ONE_EL.scale(c)
    assert ip_left(E12, E12) == one(q_pow(1))
    assert ip_left(E21, E21) == one(q_pow(-1))
    assert ip_right(E12, E12) == one(q_pow(-1))
    assert ip_right(E21, E21) == one(q_pow(1))
    assert ip_left(E12, E21).is_zero() and ip_right(E12, E21).is_zero()


@given(one_forms, one_forms)
@settings(deadline=None)
def test_inner_products_are_hermitian(x, y):
    assert ip_right(x, y).star() == ip_right(y, x)
    assert ip_left(x, y).star() == ip_left(y, x)


@given(one_forms, one_forms, st.sampled_from([GEN_A, GEN_B, SPHERE_A]))
@settings(deadline=None)
def test_inner_product_module_linearity(x, y, z):
    assert ip_right(x, y * z) == ip_right(x, y) * z
    assert ip_right(x * z, y) == z.star() * ip_right(x, y)
    assert ip_left(z * x, y) == z * ip_left(x, y)
    assert ip_left(x, z * y) == ip_left(x, y) * z.star()


mixed_forms = st.one_of(
    st.builds(OneForm, mixed_elements(max_terms=2),
              mixed_elements(max_terms=2)),
    st.sampled_from(frame()))


@given(mixed_forms, mixed_forms)
@settings(max_examples=150, deadline=None)
def test_inner_products_are_the_two_corner_products(x, y):
    # each is one fused sum over both corners; the reference forms the two
    # products and adds them
    assert ip_right(x, y) == x.minus.star().scale_s(2) * y.minus + \
        x.plus.star().scale_s(-2) * y.plus
    assert ip_left(x, y) == x.plus * y.plus.star().scale_s(2) + \
        x.minus * y.minus.star().scale_s(-2)


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------

@given(sphere_words, sphere_words)
@settings(deadline=None)
def test_dee_leibniz_on_the_sphere(x, y):
    assert dee(x * y) == dee(x) * y + x * dee(y)


def test_dee_kills_constants():
    assert dee(ONE_EL).is_zero()


@given(elements())
@settings(deadline=None)
def test_dag_of_dee_is_minus_dee_of_star(x):
    x = Element({m: c for m, c in x.terms.items() if mono_degree(m) == 0})
    assert dee(x).dag() == -dee(x.star())


def test_dee_of_sphere_generators_is_proper():
    for x in (SPHERE_A, SPHERE_B, SPHERE_BSTAR, SPHERE_A * SPHERE_B):
        assert dee(x).is_proper()


def test_dee_rejects_elements_off_the_sphere():
    for x in (GEN_A, GEN_B, SPHERE_A + GEN_C):
        with pytest.raises(ValueError):
            dee(x)


# ---------------------------------------------------------------------------
# adjoint and module structure
# ---------------------------------------------------------------------------

@given(one_forms)
def test_dag_is_involutive(w):
    assert w.dag().dag() == w


@given(one_forms, st.sampled_from([GEN_A, GEN_C, SPHERE_B]))
@settings(deadline=None)
def test_dag_twists_the_actions(w, x):
    assert (x * w).dag() == w.dag() * x.star()
    assert (w * x).dag() == x.star() * w.dag()


@given(one_forms, st.sampled_from([GEN_A, GEN_B]), st.sampled_from([GEN_C]))
@settings(deadline=None)
def test_bimodule_actions_commute(w, x, y):
    assert (x * w) * y == x * (w * y)


# ---------------------------------------------------------------------------
# the frame
# ---------------------------------------------------------------------------

def test_frame_explicit_normal_forms():
    w1, w2, w3 = frame()
    assert w1 == OneForm((GEN_B * GEN_B).scale(s_pow(-3)),
                         (GEN_A * GEN_A).scale(s_pow(-1)))
    assert w2 == OneForm((GEN_B * GEN_D).scale(ROOT_TWO_Q * q_pow(-1)),
                         (GEN_A * GEN_C).scale(ROOT_TWO_Q))
    assert w3 == OneForm((GEN_D * GEN_D).scale(s_pow(1)),
                         (GEN_C * GEN_C).scale(s_pow(3)))


def test_frame_forms_are_proper():
    for w in frame():
        assert w.is_proper()
        assert w.dag().plus.degrees() <= {2}


def test_frame_inner_products_land_in_the_sphere():
    for wi in frame():
        for wj in frame():
            assert ip_right(wi, wj).degrees() <= {0}
            assert ip_left(wi.dag(), wj.dag()).degrees() <= {0}


@given(one_forms)
@settings(deadline=None, max_examples=25)
def test_right_frame_identity(rho):
    assert frame_expand_right(rho) == rho


@given(one_forms)
@settings(deadline=None, max_examples=25)
def test_left_frame_identity(rho):
    assert frame_expand_left(rho) == rho


def test_frame_identity_on_differentials():
    for x in (SPHERE_A, SPHERE_B * SPHERE_A, SPHERE_BSTAR):
        rho = dee(x)
        assert frame_expand_right(rho) == rho
        assert frame_expand_left(rho) == rho


def test_frame_check_on_module_elements():
    rhos = [dee(SPHERE_A)] + [x * dee(SPHERE_A) * z
                              for x in (SPHERE_B, SPHERE_BSTAR * SPHERE_A)
                              for z in (ONE_EL, SPHERE_A, SPHERE_B)]
    for rho in rhos:
        assert frame_expand_right(rho) == rho
        assert frame_expand_left(rho) == rho


# ---------------------------------------------------------------------------
# closed forms for the frame and its adjoint in terms of matrix elements
# ---------------------------------------------------------------------------

def _sign(n: int):
    return 1 if n % 2 == 0 else -1


def test_frame_adjoint_closed_form():
    # dag(w_j) = (-1)^{1-j} (q^{-1/2} t(2-j, 1), q^{1/2} t(2-j, -1))
    for j, w in zip((1, 2, 3), frame()):
        expected = OneForm(
            spin_one(2 - j, 1).scale_s(-1),
            spin_one(2 - j, -1).scale_s(1),
        )
        if _sign(1 - j) < 0:
            expected = -expected
        assert w.dag() == expected


def test_frame_alt_closed_form():
    # w_j = (-1)^{1-j} (q^{1/2} t(2-j,-1)*, q^{-1/2} t(2-j,1)*)
    for j, w in zip((1, 2, 3), frame()):
        expected = OneForm(
            spin_one(2 - j, -1).star().scale_s(1),
            spin_one(2 - j, 1).star().scale_s(-1),
        )
        if _sign(1 - j) < 0:
            expected = -expected
        assert w == expected


def test_frame_inner_products_closed_form():
    # <w_j, w_k> = delta_jk - (-1)^{j+k} t(2-j, 0) t(2-k, 0)*
    for j, wj in zip((1, 2, 3), frame()):
        for k, wk in zip((1, 2, 3), frame()):
            expected = spin_one(2 - j, 0) * \
                spin_one(2 - k, 0).star()
            if _sign(j + k) > 0:
                expected = -expected
            if j == k:
                expected = ONE_EL + expected
            assert ip_right(wj, wk) == expected
