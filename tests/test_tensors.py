"""Tensor powers, their inner products, the metric and its invariants."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.algebra import (
    ONE_EL, SPHERE_A, SPHERE_B, SPHERE_BSTAR, ZERO_EL, Element, parse,
    spin_one,
)
from qsphere.coeff import ONE, q_pow, rational, s_pow
from qsphere.forms import E12, E21, dee, frame, ip_left, ip_right
from qsphere.tensors import (
    Diag, Tensor, as_scalar, coeff_json, contract_left, diag_scalars, e_beta,
    ip_left_T, ip_T, metric, mul_map, select, tensor,
)

from metric_halves import t_mp, t_pm
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
    fresh = Tensor(2, t.canonical().terms)
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
        assert ip_T(probe, t) == c


def test_three_tensor_reconstruction():
    w1, w2, w3 = frame()
    t = tensor(w1 * SPHERE_A, w2, w3 * SPHERE_B) + tensor(w2, w2, w1)
    fresh = Tensor(3, t.canonical().terms)
    assert fresh.coeffs() == t.coeffs()
    assert t == t.canonical()


def test_compression_keeps_the_tensor():
    g = metric()
    acc = g
    for _ in range(40):
        acc = acc + g
    assert acc == g.scale(rational(41))


# ---------------------------------------------------------------------------
# corners, against oracles that multiply out legs and nest pairings per term
# ---------------------------------------------------------------------------

def _corner(legs, eps):
    """leg_1^{eps_1} ... leg_k^{eps_k}, +1 picking plus and -1 minus."""
    out = ONE_EL
    for leg, e in zip(legs, eps):
        out = out * (leg.plus if e > 0 else leg.minus)
    return out


def _corner_of(t, eps):
    return sum((_corner(term, eps) for term in t.terms), ZERO_EL)


def _ip_right_nested(sterm, tterm):
    # <r1 (x) rest, t1 (x) rest'> = <rest, (<r1,t1>.t2) (x) ...>
    x = ip_right(sterm[0], tterm[0])
    for pos in range(1, len(sterm)):
        x = ip_right(sterm[pos], x * tterm[pos])
    return x


def _ip_left_nested(sterm, tterm):
    # {}_B<r1 (x) y, t1 (x) z> = {}_B<r1 . {}_B<y, z>, t1>
    x = ip_left(sterm[-1], tterm[-1])
    for pos in range(len(sterm) - 2, -1, -1):
        x = ip_left(sterm[pos] * x, tterm[pos])
    return x


def _ip_oracle(nested, s, t):
    return sum((nested(a, b) for a in s.terms for b in t.terms), ZERO_EL)


_SPHERE = (ONE_EL, SPHERE_A, SPHERE_B, SPHERE_BSTAR)


def _random_tensor(rng, k, n_terms):
    """Legs b . base . b' with base from the frame, dee of a sphere
    generator or a matrix unit (not a genuine one-form), and b, b' in the
    sphere algebra."""
    bases = list(frame()) + [dee(SPHERE_A), dee(SPHERE_B), dee(SPHERE_BSTAR),
                             E12, E21]
    terms = []
    for _ in range(n_terms):
        terms.append(tuple((rng.choice(_SPHERE) * rng.choice(bases))
                           * rng.choice(_SPHERE) for _ in range(k)))
    return Tensor(k, terms)


# (rank, seed): k = 4 tensors stay single-term so the oracles keep quick
_CORNER_CASES = [(2, 1), (2, 2), (2, 3), (3, 4), (3, 5), (4, 6)]


def _case(k, seed):
    rng = random.Random(seed)
    return _random_tensor(rng, k, 1 if k == 4 else 2), rng


@pytest.mark.parametrize("k,seed", _CORNER_CASES)
def test_corners_multiply_out_the_legs(k, seed):
    t, _ = _case(k, seed)
    want = {}
    for eps in itertools.product((1, -1), repeat=k):
        x = _corner_of(t, eps)
        if not x.is_zero():
            want[eps] = x
    assert t.corners() == want


@pytest.mark.parametrize("k,seed", _CORNER_CASES)
def test_corners_and_frame_coefficients_determine_each_other(k, seed):
    # coeff[I] = sum_eps q^{-sum eps} (w_I^eps)* T^eps and
    # T^eps = sum_I w_I^eps coeff[I], exactly in K
    t, _ = _case(k, seed)
    ws = frame()
    signs = list(itertools.product((1, -1), repeat=k))
    corners = {eps: _corner_of(t, eps) for eps in signs}
    coeffs = t.coeffs()
    back = dict.fromkeys(signs, ZERO_EL)
    for idx in itertools.product(range(3), repeat=k):
        legs = [ws[i] for i in idx]
        c = coeffs.get(idx, ZERO_EL)
        assert c == sum(((_corner(legs, eps).star() * corners[eps])
                         .scale(q_pow(-sum(eps))) for eps in signs), ZERO_EL)
        for eps in signs:
            back[eps] = back[eps] + _corner(legs, eps) * c
    assert back == corners


@pytest.mark.parametrize("k,seed", _CORNER_CASES)
def test_ip_on_corners_matches_the_nested_pairing(k, seed):
    s, rng = _case(k, seed)
    t = _random_tensor(rng, k, 1)
    assert ip_T(s, t) == _ip_oracle(_ip_right_nested, s, t)
    assert ip_T(t, s) == _ip_oracle(_ip_right_nested, t, s)
    assert ip_left_T(s, t) == _ip_oracle(_ip_left_nested, s, t)
    assert ip_left_T(t, s) == _ip_oracle(_ip_left_nested, t, s)


@pytest.mark.parametrize("k,seed", _CORNER_CASES)
def test_balanced_rewrites_compare_equal(k, seed):
    t, rng = _case(k, seed)
    term = t.terms[0]
    b = rng.choice(_SPHERE[1:])
    for pos in range(k - 1):
        left = term[:pos] + (term[pos] * b, term[pos + 1]) + term[pos + 2:]
        right = term[:pos] + (term[pos], b * term[pos + 1]) + term[pos + 2:]
        assert Tensor(k, [left]) == Tensor(k, [right])
    assert t == t.canonical()


@pytest.mark.parametrize("k,seed", _CORNER_CASES)
def test_one_term_perturbation_compares_unequal(k, seed):
    t, rng = _case(k, seed)
    extra = _random_tensor(rng, k, 1)
    # the frame coefficients decide independently whether the extra term
    # is zero over B
    assert extra.coeffs()
    assert t + extra != t
    assert (t + extra) - extra == t


def test_constant_corners_of_the_metric_and_the_volume_form():
    from qsphere.calculus import volume_form
    assert metric().corners() == {(1, -1): ONE_EL.scale(q_pow(1)),
                                  (-1, 1): ONE_EL.scale(q_pow(-1))}
    den = (ONE + s_pow(8)).inverse()
    assert volume_form().C.corners() == {
        (1, -1): ONE_EL.scale(rational(2) * den),
        (-1, 1): ONE_EL.scale(rational(-2) * s_pow(4) * den)}


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

@given(two_tensors, two_tensors)
@settings(deadline=None, max_examples=10)
def test_ip_T2_conjugate_symmetry(s, t):
    assert ip_T(s, t).star() == ip_T(t, s)


@given(two_tensors, two_tensors, sphere_gens)
@settings(deadline=None, max_examples=10)
def test_ip_T2_module_linearity(s, t, b):
    assert ip_T(s, t * b) == ip_T(s, t) * b
    assert ip_T(s * b, t) == b.star() * ip_T(s, t)


@given(two_tensors, two_tensors)
@settings(deadline=None, max_examples=10)
def test_left_right_duality(s, t):
    assert ip_left_T(s, t) == ip_T(s.dag(), t.dag())


def test_left_ip_matrix_unit_pattern():
    assert ip_left_T(tensor(E12, E21), tensor(E12, E21)) == ONE_EL
    assert ip_left_T(tensor(E21, E12), tensor(E21, E12)) == ONE_EL
    assert ip_left_T(tensor(E12, E21), tensor(E21, E12)).is_zero()


@given(one_forms, one_forms, one_forms, one_forms, sphere_gens)
@settings(deadline=None, max_examples=10)
def test_left_ip_respects_middle_balance(a, b, c, d, x):
    s1 = tensor(a * x, b)
    s2 = tensor(a, x * b)
    t = tensor(c, d)
    assert ip_left_T(s1, t) == ip_left_T(s2, t)
    assert ip_left_T(t, s1) == ip_left_T(t, s2)


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
    assert t.dag().dag() == t


def test_dag_T_reverses_legs():
    w1, w2, _ = frame()
    assert tensor(w1, w2).dag() == tensor(w2.dag(), w1.dag())


# ---------------------------------------------------------------------------
# multiplication map and bidegree parts
# ---------------------------------------------------------------------------

_BIDEGREES = ("--", "++", "+-", "-+")


@given(two_tensors)
@settings(deadline=None, max_examples=15)
def test_bidegree_parts_sum_back(t):
    parts = [select(t, pattern) for pattern in _BIDEGREES]
    assert parts[0] + parts[1] + parts[2] + parts[3] == t


@given(two_tensors, two_tensors)
@settings(deadline=None, max_examples=10)
def test_bidegree_parts_are_orthogonal(s, t):
    for left, right in itertools.combinations(_BIDEGREES, 2):
        assert ip_T(select(s, left), select(t, right)).is_zero()


def test_select_rejects_a_bad_pattern():
    w1, w2, _ = frame()
    with pytest.raises(ValueError, match=r"got '\+x'$"):
        select(tensor(w1, w2), "+x")
    with pytest.raises(ValueError, match=r"got '\+'$"):
        select(tensor(w1, w2), "+")


def test_mul_map_kills_matching_corners():
    assert mul_map(tensor(E21, E21)).is_zero()
    assert mul_map(tensor(E12, E12)).is_zero()
    assert mul_map(tensor(E12, E21)) == Diag(top=ONE_EL)
    assert mul_map(tensor(E21, E12)) == Diag(bot=ONE_EL)


# ---------------------------------------------------------------------------
# the metric
# ---------------------------------------------------------------------------

def test_metric_multiplication():
    assert mul_map(metric()) == diag_scalars(q_pow(1), q_pow(-1))


def test_metric_pairing():
    assert e_beta() == q_pow(2) + q_pow(-2)
    assert ip_T(metric(), metric()) == ONE_EL.scale(q_pow(2) + q_pow(-2))


def test_metric_is_dag_invariant():
    assert metric().dag() == metric()


@given(sphere_gens)
@settings(deadline=None, max_examples=6)
def test_metric_is_central(b):
    g = metric()
    assert b * g == g * b


def test_metric_bidegree():
    g = metric()
    assert select(g, "--").is_zero() and select(g, "++").is_zero()
    assert select(g, "+-") + select(g, "-+") == g


def test_metric_splits_into_the_two_halves():
    lhs = t_pm().scale(q_pow(1)) + t_mp().scale(q_pow(-1))
    assert lhs == metric()


def test_halves_are_orthonormal():
    assert ip_T(t_pm(), t_pm()) == ONE_EL
    assert ip_T(t_mp(), t_mp()) == ONE_EL
    assert ip_T(t_pm(), t_mp()).is_zero()


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
    assert blob["legs"] == 2
    rebuilt = {tuple(int(p) for p in key.split(",")): parse(text)
               for key, text in blob["coeffs"].items()}
    assert rebuilt == g.coeffs()


def test_coeff_json_entries_with_denominators_round_trip():
    # the volume form and d(A) ^ d(B) have coefficients over 1 + q^4
    from qsphere.calculus import ext_d, volume_form
    for t in (volume_form().C, ext_d(SPHERE_A, SPHERE_B)):
        blob = coeff_json(t)
        assert all("/" in text for text in blob["coeffs"].values())
        rebuilt = {tuple(int(p) for p in key.split(",")): parse(text)
                   for key, text in blob["coeffs"].items()}
        assert rebuilt == t.coeffs()
