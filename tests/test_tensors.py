"""Tensor powers, their inner products, the metric and its invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.algebra import (
    ONE_EL, SPHERE_A, SPHERE_B, SPHERE_BSTAR, Element, parse, spin_one,
)
from qsphere.coeff import ONE, q_pow, rational
from qsphere.forms import E12, E21, OneForm, dee, frame, ip_left, ip_right
from qsphere.tensors import (
    BidegreeParts, Diag, ScaledTensor, Tensor, as_scalar, bidegree,
    coeff_json, contract_left, dag_T, diag_scalars, e_beta, ip_left_T,
    ip_left_T2, ip_T, ip_T2, map_legs, metric, metric_data, mul_map, select,
    t_mp, t_pm, tensor,
)

from test_forms import one_forms


sphere_gens = st.sampled_from([SPHERE_A, SPHERE_B, SPHERE_BSTAR])

two_tensors = st.lists(
    st.tuples(one_forms, one_forms), min_size=1, max_size=2,
).map(lambda ts: Tensor(2, ts))


# ---------------------------------------------------------------------------
# canonical coefficients
# ---------------------------------------------------------------------------

@given(two_tensors)
@settings(deadline=None, max_examples=15)
def test_reconstruction_has_the_same_coefficients(t):
    fresh = Tensor(2, t._reconstruction_terms())
    assert fresh.coeffs() == t.coeffs()


@given(one_forms, one_forms, sphere_gens)
@settings(deadline=None, max_examples=15)
def test_middle_balance(rho, eta, b):
    assert tensor(rho * b, eta) == tensor(rho, b * eta)


@given(one_forms, one_forms)
@settings(deadline=None, max_examples=10)
def test_coefficients_agree_with_frame_pairings(rho, eta):
    t = tensor(rho, eta)
    ws = frame()
    for idx, c in t.coeffs().items():
        probe = tensor(ws[idx[0]], ws[idx[1]])
        assert ip_T2(probe, t) == c


def test_three_tensor_reconstruction():
    w1, w2, w3 = frame()
    t = tensor(w1 * SPHERE_A, w2, w3 * SPHERE_B) + tensor(w2, w2, w1)
    fresh = Tensor(3, t._reconstruction_terms())
    assert fresh.coeffs() == t.coeffs()
    assert t == t.canonical()


def test_compression_keeps_the_tensor():
    g = metric()
    acc = g
    for _ in range(40):
        acc = acc + g
    assert len(acc.terms) <= 27
    assert acc == g.scale(rational(41))


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

@given(two_tensors, two_tensors)
@settings(deadline=None, max_examples=10)
def test_ip_T2_conjugate_symmetry(s, t):
    assert ip_T2(s, t).star() == ip_T2(t, s)


@given(two_tensors, two_tensors, sphere_gens)
@settings(deadline=None, max_examples=10)
def test_ip_T2_module_linearity(s, t, b):
    assert ip_T2(s, t * b) == ip_T2(s, t) * b
    assert ip_T2(s * b, t) == b.star() * ip_T2(s, t)


@given(two_tensors, two_tensors)
@settings(deadline=None, max_examples=10)
def test_left_right_duality(s, t):
    assert ip_left_T2(s, t) == ip_T2(s.dag(), t.dag())


def test_left_ip_matrix_unit_pattern():
    assert ip_left_T2(tensor(E12, E21), tensor(E12, E21)) == ONE_EL
    assert ip_left_T2(tensor(E21, E12), tensor(E21, E12)) == ONE_EL
    assert ip_left_T2(tensor(E12, E21), tensor(E21, E12)).is_zero()


@given(one_forms, one_forms, one_forms, one_forms, sphere_gens)
@settings(deadline=None, max_examples=10)
def test_left_ip_respects_middle_balance(a, b, c, d, x):
    s1 = tensor(a * x, b)
    s2 = tensor(a, x * b)
    t = tensor(c, d)
    assert ip_left_T2(s1, t) == ip_left_T2(s2, t)
    assert ip_left_T2(t, s1) == ip_left_T2(t, s2)


def test_contract_left_pairs_the_last_two_legs():
    w1, w2, w3 = frame()
    r = tensor(w1, w2 * SPHERE_A, w3, w2)
    g = metric()
    z = ip_left_T(tensor(w3, w2), g)
    assert contract_left(r, g) == tensor(w1, (w2 * SPHERE_A) * z)


# ---------------------------------------------------------------------------
# dag
# ---------------------------------------------------------------------------

@given(two_tensors)
@settings(deadline=None, max_examples=15)
def test_dag_T_is_an_involution(t):
    assert dag_T(dag_T(t)) == t


def test_dag_T_reverses_legs():
    w1, w2, _ = frame()
    assert dag_T(tensor(w1, w2)) == tensor(w2.dag(), w1.dag())


# ---------------------------------------------------------------------------
# multiplication map and bidegree parts
# ---------------------------------------------------------------------------

@given(two_tensors)
@settings(deadline=None, max_examples=15)
def test_bidegree_parts_sum_back(t):
    parts = bidegree(t)
    assert parts.mm + parts.pp + parts.pm + parts.mp == t


@given(two_tensors, two_tensors)
@settings(deadline=None, max_examples=10)
def test_bidegree_parts_are_orthogonal(s, t):
    sp = bidegree(s)
    tp = bidegree(t)
    for left, right in [(sp.mm, tp.pp), (sp.mm, tp.pm), (sp.mm, tp.mp),
                        (sp.pp, tp.pm), (sp.pp, tp.mp), (sp.pm, tp.mp)]:
        assert ip_T2(left, right).is_zero()


def test_mul_map_kills_matching_corners():
    assert mul_map(tensor(E21, E21)).is_zero()
    assert mul_map(tensor(E12, E12)).is_zero()
    assert mul_map(tensor(E12, E21)) == Diag(top=ONE_EL)
    assert mul_map(tensor(E21, E12)) == Diag(bot=ONE_EL)


def test_map_legs_applies_a_two_tensor_map_in_place():
    w1, w2, w3 = frame()
    t = tensor(w1, w2, w3)
    assert map_legs(t, 0, lambda x: x) == t
    mm = map_legs(t, 1, lambda x: select(x, "--"))
    assert mm == tensor(w1, OneForm(minus=w2.minus), OneForm(minus=w3.minus))


# ---------------------------------------------------------------------------
# the metric
# ---------------------------------------------------------------------------

def test_metric_multiplication():
    assert mul_map(metric()) == diag_scalars(q_pow(1), q_pow(-1))


def test_metric_pairing():
    assert e_beta() == q_pow(2) + q_pow(-2)
    assert ip_T2(metric(), metric()) == ONE_EL.scale(q_pow(2) + q_pow(-2))


def test_normalised_metric_is_a_unit_vector():
    eb, g, z, zm = metric_data()
    assert z.ip_with(z) == ONE_EL
    assert zm.base == diag_scalars(q_pow(1), q_pow(-1))
    assert zm.scale_sq == eb.inverse()


def test_scaled_tensors_only_pair_matching_scales():
    _, g, z, _ = metric_data()
    other = ScaledTensor(g, q_pow(2))
    with pytest.raises(ValueError):
        z.ip_with(other)


def test_metric_is_dag_invariant():
    assert dag_T(metric()) == metric()


@given(sphere_gens)
@settings(deadline=None, max_examples=6)
def test_metric_is_central(b):
    g = metric()
    assert b * g == g * b


def test_metric_bidegree():
    parts = bidegree(metric())
    assert parts.mm.is_zero() and parts.pp.is_zero()
    assert parts.pm + parts.mp == metric()


def test_metric_splits_into_the_two_halves():
    lhs = t_pm().scale(q_pow(1)) + t_mp().scale(q_pow(-1))
    assert lhs == metric()


def test_halves_are_orthonormal():
    assert ip_T2(t_pm(), t_pm()) == ONE_EL
    assert ip_T2(t_mp(), t_mp()) == ONE_EL
    assert ip_T2(t_pm(), t_mp()).is_zero()


# ---------------------------------------------------------------------------
# odds and ends
# ---------------------------------------------------------------------------

def test_as_scalar_rejects_non_scalars():
    with pytest.raises(ValueError):
        as_scalar(SPHERE_A)


def test_rank_checks():
    w1, w2, w3 = frame()
    with pytest.raises(ValueError):
        Tensor(5, [])
    with pytest.raises(ValueError):
        ip_T(tensor(w1, w2), tensor(w1, w2, w3))
    with pytest.raises(ValueError):
        mul_map(tensor(w1, w2, w3))


def test_coeff_json_round_trips():
    g = metric()
    blob = coeff_json(g)
    assert blob["rank"] == 2
    rebuilt = {tuple(int(p) - 1 for p in key.split(",")): parse(text)
               for key, text in blob["coeff"].items()}
    assert rebuilt == g.coeffs()


def test_coeff_json_entries_with_denominators_round_trip():
    # the volume form and d(A) ^ d(B) have coefficients over 1 + q^4
    from qsphere.calculus import ext_d, volume_form
    for t in (volume_form().C, ext_d(SPHERE_A, SPHERE_B)):
        blob = coeff_json(t)
        assert all("/" in text for text in blob["coeff"].values())
        rebuilt = {tuple(int(p) - 1 for p in key.split(",")): parse(text)
                   for key, text in blob["coeff"].items()}
        assert rebuilt == t.coeffs()
