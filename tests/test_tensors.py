"""Tensor powers, their inner products, the metric and its invariants."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.algebra import (
    ONE_EL, SPHERE_A, SPHERE_B, SPHERE_BSTAR, ZERO_EL, Element, parse,
)
from qsphere.calculus import chern2, volume_form
from qsphere.coeff import ONE, q_pow, qnum, rational, s_pow
from qsphere.forms import E12, E21, OneForm, dee, frame, ip_left, ip_right
from qsphere.tensors import (
    Diag, Tensor, as_scalar, coeff_json, contract_left, diag_scalars, e_beta,
    from_corners, ip_left_T, ip_T, metric, mul_map, pair_terms,
    product_corners, select, tensor,
)

from metric_halves import t_mp, t_pm
from test_calculus import proper_two_tensors
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


def _corners_by_eps(t):
    """The nonzero corners of t, eps by eps, from the legs multiplied out."""
    out = {}
    for eps in itertools.product((1, -1), repeat=t.k):
        x = _corner_of(t, eps)
        if not x.is_zero():
            out[eps] = x
    return out


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


def _random_leg(rng):
    """b . base . b' with base from the frame, dee of a sphere generator or
    a matrix unit (not a genuine one-form), and b, b' in the sphere
    algebra."""
    bases = list(frame()) + [dee(SPHERE_A), dee(SPHERE_B), dee(SPHERE_BSTAR),
                             E12, E21]
    return (rng.choice(_SPHERE) * rng.choice(bases)) * rng.choice(_SPHERE)


def _random_tensor(rng, k, n_terms):
    """n_terms simple k-tensors of random legs."""
    return Tensor(k, [tuple(_random_leg(rng) for _ in range(k))
                      for _ in range(n_terms)])


# (rank, seed): k = 4 tensors stay single-term so the oracles keep quick
_CORNER_CASES = [(2, 1), (2, 2), (2, 3), (3, 4), (3, 5), (4, 6)]


def _case(k, seed):
    rng = random.Random(seed)
    return _random_tensor(rng, k, 1 if k == 4 else 2), rng


@pytest.mark.parametrize("k,seed", _CORNER_CASES)
def test_corners_multiply_out_the_legs(k, seed):
    t, _ = _case(k, seed)
    assert t.corners() == _corners_by_eps(t)


@given(proper_two_tensors, proper_two_tensors, st.sampled_from(range(3)))
@settings(deadline=None, max_examples=8)
def test_product_corners_match_the_spliced_legs(s, t, i):
    # (S (x) T)^{(e, f)} = S^e T^f against the corners of the tensor whose
    # terms are the legs of each pair of terms, one after the other
    w, g = frame()[i], metric()
    cases = [
        ((s, w), Tensor(3, [a + (w,) for a in s.terms])),
        ((w, t), Tensor(3, [(w,) + b for b in t.terms])),
        ((s, t), Tensor(4, [a + b for a in s.terms for b in t.terms])),
        ((s, g), Tensor(4, [a + b for a in s.terms for b in g.terms])),
        ((w, g, w.dag()), Tensor(4, [(w,) + b + (w.dag(),)
                                     for b in g.terms])),
    ]
    for factors, spliced in cases:
        assert product_corners(*factors) == _corners_by_eps(spliced)
    assert product_corners(w) == {
        eps: x for eps, x in (((1,), w.plus), ((-1,), w.minus)) if x}


def _coeffs_by_eps(t):
    """coeff[I] = sum_eps q^{-sum eps} (w_I^eps)* T^eps, with the corners
    of t from its legs multiplied out, holding the nonzero entries."""
    ws = frame()
    corners = _corners_by_eps(t)
    out = {}
    for idx in itertools.product(range(3), repeat=t.k):
        legs = [ws[i] for i in idx]
        c = sum(((_corner(legs, eps).star() * x).scale(q_pow(-sum(eps)))
                 for eps, x in corners.items()), ZERO_EL)
        if c:
            out[idx] = c
    return out


@pytest.mark.parametrize("k,seed", _CORNER_CASES)
def test_corners_and_frame_coefficients_determine_each_other(k, seed):
    # coeff[I] = sum_eps q^{-sum eps} (w_I^eps)* T^eps and
    # T^eps = sum_I w_I^eps coeff[I], exactly in K
    t, _ = _case(k, seed)
    ws = frame()
    coeffs = t.coeffs()
    assert coeffs == _coeffs_by_eps(t)
    signs = list(itertools.product((1, -1), repeat=k))
    back = dict.fromkeys(signs, ZERO_EL)
    for idx, c in coeffs.items():
        legs = [ws[i] for i in idx]
        for eps in signs:
            back[eps] = back[eps] + _corner(legs, eps) * c
    assert back == {eps: _corner_of(t, eps) for eps in signs}


def _walk_cases():
    # plus and minus entries over different denominators: 1/(q^2 + q^-2),
    # 1/[3]_q and the pole 1/(q - q^-1)
    w1, w2, w3 = frame()
    q2 = (q_pow(2) + q_pow(-2)).inverse()
    q3 = qnum(6).inverse()
    pole = (q_pow(1) - q_pow(-1)).inverse()
    third = rational(Fraction(1, 3))
    mixed = OneForm(w1.plus.scale(q2), w1.minus.scale(q3))
    poled = OneForm(dee(SPHERE_B).plus.scale(pole),
                    dee(SPHERE_B).minus.scale(q2))
    zero_entry = OneForm(plus=(SPHERE_A * w3.plus).scale(pole))
    # the workload-shaped slice -w_0 (x) c_1 (x) c_2 (x) w_2^dag, with
    # (c_1, c_2) a term of (1 - Psi)(sum_j dee(<w_0,w_j>) (x) dee(<w_j,w_2>))
    # = alpha^{-1} C <C, mid>, spliced from a frame term of C
    mid = Tensor(2, [(dee(ip_right(w1, w)), dee(ip_right(w, w3)))
                     for w in (w1, w2, w3)])
    vf = volume_form()
    c1, c2 = vf.C.terms[4]
    return [
        tensor(mixed, poled),
        tensor(zero_entry, w2.scale(q3)),
        tensor(mixed, zero_entry, w2 * SPHERE_A)
        + tensor(dee(SPHERE_A).scale(pole), w3, w1.scale(q3)),
        tensor(poled, w1, zero_entry, w3.scale(q2)),
        tensor(-w1, c1.scale(vf.alpha.inverse()), c2 * ip_T(vf.C, mid),
               w3.dag()),
        # a leg over a rational denominator, n = 3
        tensor(w2.scale(rational(Fraction(2, 3))), poled.scale(third)),
        # the final division cancels Phi_16 (q^2 + q^-2) and the Phi_N of
        # [3]_q, one leg cleared by them and the other holding none
        tensor(w1.scale(q2 * q3), w2.scale((q2 * q3).inverse())),
        # no denominators: clearing leaves every leg as it is
        tensor(w1, w2 * SPHERE_A, w3.dag()),
    ]


@pytest.mark.parametrize("case", range(8))
def test_leg_walk_matches_the_corner_route(case):
    t = _walk_cases()[case]
    got = t.coeffs()
    assert got == from_corners(t.k, t.corners()).coeffs()
    assert got == _coeffs_by_eps(t)


def test_leg_walk_reduces_only_in_the_final_division(monkeypatch):
    # on the workload-shaped slice every scalar of the walk has no
    # denominator: a reduction over one runs only in the division, once
    # per output coefficient
    import qsphere.coeff as coeff_mod
    import qsphere.tensors as tensors_mod
    t = _walk_cases()[4]
    log = []
    reduce, divide = coeff_mod._reduce, tensors_mod.divide

    def logged_reduce(pe, pr, n, factors, trial):
        if n != 1 or factors:
            log.append("reduce")
        return reduce(pe, pr, n, factors, trial)

    def logged_divide(terms, dens):
        log.append("divide")
        return divide(terms, dens)

    monkeypatch.setattr(coeff_mod, "_reduce", logged_reduce)
    monkeypatch.setattr(tensors_mod, "divide", logged_divide)
    got = t.coeffs()
    assert log[0] == "divide" and log.count("reduce") > 0
    assert log.count("reduce") <= sum(len(c.terms) for c in got.values())


def test_terms_read_inside_a_coeffs_wrapper_do_not_recurse(monkeypatch):
    # a wrapper of Tensor.coeffs that reads len(t.terms) after the call,
    # as a call-counting profiler may, on legs and on corner-built tensors
    real = Tensor.coeffs
    seen = []

    def counting(self):
        out = real(self)
        seen.append((self.k, len(self.terms), len(out)))
        return out

    monkeypatch.setattr(Tensor, "coeffs", counting)
    w1, w2, w3 = frame()
    legs = tensor(w1 * SPHERE_A, w2, w3.dag(), dee(SPHERE_B))
    corners = from_corners(4, legs.corners())
    zero = from_corners(4, {})
    assert corners.coeffs() == legs.coeffs()
    assert zero.coeffs() == {}
    n = len(legs.coeffs())
    assert n and seen == [(4, n, n), (4, 1, n), (4, 0, 0), (4, 1, n)]
    assert len(corners.terms) == n


@pytest.mark.parametrize("k,seed", _CORNER_CASES)
def test_ip_on_corners_matches_the_nested_pairing(k, seed):
    s, rng = _case(k, seed)
    t = _random_tensor(rng, k, 1)
    assert ip_T(s, t) == _ip_oracle(_ip_right_nested, s, t)
    assert ip_T(t, s) == _ip_oracle(_ip_right_nested, t, s)
    assert ip_left_T(s, t) == _ip_oracle(_ip_left_nested, s, t)
    assert ip_left_T(t, s) == _ip_oracle(_ip_left_nested, t, s)


def _pairing_left_tensors(k):
    """Left tensors of rank k for pair_terms: G, C and chern2, each with
    only its two mixed corners (times a leg at k = 3), and a leg-built
    tensor with all 2^k corners."""
    w = frame()[0]
    held = [metric(), volume_form().C, chern2()]
    if k == 3:
        held = [from_corners(3, product_corners(g, w)) for g in held]
    full = _random_tensor(random.Random(2 if k == 2 else 4), k, 2)
    assert len(full.corners()) == 2 ** k
    return held + [full]


@pytest.mark.parametrize("k", [2, 3])
def test_pair_terms_matches_ip_T(k):
    rng = random.Random(40 + k)
    for s in _pairing_left_tensors(k):
        for n_terms in (1, 2):
            terms = _random_tensor(rng, k, n_terms).terms
            assert pair_terms(s, terms) == ip_T(s, Tensor(k, terms))
    with pytest.raises(ValueError):
        pair_terms(metric(), [tuple(frame())])


def test_pair_terms_forms_only_the_corners_held(monkeypatch):
    # G holds two corners, so one term makes two products, one per corner
    # held, where the term's own corners would take four; the last leg's
    # products are fused in mul_sum
    w1, w2, _ = frame()
    assert len(metric().corners()) == 2
    assert len(tensor(w1, w2).corners()) == 4
    products = []
    mul = Element.__mul__

    def counting(x, y):
        products.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(Element, "__mul__", counting)
    got = pair_terms(metric(), [(w1, w2)])
    assert len(products) == 2
    monkeypatch.undo()
    assert got == ip_T(metric(), tensor(w1, w2))


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


def _negated(terms):
    return [(term[0].scale(rational(-1)),) + term[1:] for term in terms]


@pytest.mark.parametrize("built", ["legs", "corners"])
@pytest.mark.parametrize("k,seed", _CORNER_CASES)
def test_linear_maps_and_dag_are_corner_maps(k, seed, built):
    # each operation against its definition on legs, written out here; the
    # result keeps only its corners, whichever way the inputs were built
    t, rng = _case(k, seed)
    s = _random_tensor(rng, k, 1)
    x = rng.choice(_SPHERE[1:])
    c = qnum(6).inverse()
    legs_t, legs_s = t.terms, s.terms
    if built == "corners":
        t, s = from_corners(k, t.corners()), from_corners(k, s.corners())
    cases = [
        ("scale", t.scale(c),
         Tensor(k, [(term[0].scale(c),) + term[1:] for term in legs_t])),
        ("-t", -t, Tensor(k, _negated(legs_t))),
        ("t + s", t + s, Tensor(k, legs_t + legs_s)),
        ("t - s", t - s, Tensor(k, legs_t + _negated(legs_s))),
        ("t * x", t * x,
         Tensor(k, [term[:-1] + (term[-1] * x,) for term in legs_t])),
        ("x * t", x * t,
         Tensor(k, [(x * term[0],) + term[1:] for term in legs_t])),
        ("dag", t.dag(),
         Tensor(k, [tuple(leg.dag() for leg in reversed(term))
                    for term in legs_t])),
    ]
    for label, got, want in cases:
        assert want, label
        assert got == want, label
        assert repr(got) == "Tensor(k=%d, %d corners)" % (
            k, len(want.corners())), label


# ---------------------------------------------------------------------------
# tensors from their corners
# ---------------------------------------------------------------------------

def _legs_agree_with_the_preset_corners(s):
    """The corners kept by from_corners are those of its frame terms."""
    return Tensor(s.k, s.terms).corners() == s.corners()


@given(proper_two_tensors)
@settings(deadline=None, max_examples=10)
def test_from_corners_rebuilds_proper_two_tensors(t):
    s = from_corners(2, t.corners())
    assert _legs_agree_with_the_preset_corners(s)
    assert s == t
    assert s.coeffs() == t.coeffs()
    # the terms are the frame terms, from coefficients paired on corners
    assert s.terms == t.canonical().terms


@pytest.mark.parametrize("k,seed", [(3, 4), (3, 5), (4, 6)])
def test_from_corners_rebuilds_higher_tensors(k, seed):
    t, _ = _case(k, seed)
    s = from_corners(k, t.corners())
    assert s.coeffs() == t.coeffs()
    assert s.terms == t.canonical().terms


@pytest.mark.parametrize("idx", [(0, 1, 2), (2, 2, 1), (0, 2, 1, 1)])
def test_from_corners_rebuilds_simple_frame_tensors(idx):
    ws = frame()
    t = tensor(*[ws[i] for i in idx]) * SPHERE_B
    s = from_corners(t.k, t.corners())
    assert len(t.corners()) == 2 ** t.k
    assert _legs_agree_with_the_preset_corners(s)
    assert s == t
    assert s.terms == t.canonical().terms


def test_from_corners_rejects_a_bad_corner():
    with pytest.raises(ValueError, match="corner"):
        from_corners(2, {(1, 0): ONE_EL})
    with pytest.raises(ValueError, match="corner"):
        from_corners(3, {(1, -1): ONE_EL})


@given(proper_two_tensors)
@settings(deadline=None, max_examples=8)
def test_braided_and_selected_tensors_keep_their_corners(t):
    from qsphere.calculus import sigma, sigma_inv
    outputs = [sigma(t), sigma_inv(t), sigma(sigma(t))]
    outputs += [select(t, pattern) for pattern in _BIDEGREES]
    assert all(_legs_agree_with_the_preset_corners(s) for s in outputs)


@pytest.mark.parametrize("k,seed", [(3, 4), (3, 5), (4, 6)])
def test_select_keeps_one_corner_of_higher_tensors(k, seed):
    t, _ = _case(k, seed)
    corners = t.corners()
    parts = []
    for eps in itertools.product((1, -1), repeat=k):
        part = select(t, "".join("+" if e > 0 else "-" for e in eps))
        assert _legs_agree_with_the_preset_corners(part)
        assert part.corners() == ({eps: corners[eps]} if eps in corners
                                  else {})
        parts.append(part)
    assert sum(parts[1:], parts[0]) == t


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


def _contract_left_walk(r, g):
    """The term walk: a (x) b {}_B<c (x) d, g> for a two-tensor g and
    a (x) b (x) c {}_B<d, g> for a one-form g, term by term of R."""
    if isinstance(g, OneForm):
        return Tensor(3, [(a, b, c * ip_left(d, g)) for a, b, c, d in r.terms])
    return Tensor(2, [(a, b * _ip_oracle(_ip_left_nested, tensor(c, d), g))
                      for a, b, c, d in r.terms])


@pytest.mark.parametrize("seed", [7, 8])
def test_contract_left_matches_the_term_walk(seed):
    rng = random.Random(seed)
    r = _random_tensor(rng, 4, 2)
    for g in (metric(), _random_tensor(rng, 2, 2), rng.choice(frame()),
              _random_leg(rng)):
        got, want = contract_left(r, g), _contract_left_walk(r, g)
        assert got.k == want.k
        assert got.corners() == _corners_by_eps(want)
        assert got.coeffs() == want.coeffs()
        assert got == want


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
    assert mul_map(tensor(E12, E21)) == Diag(plus=ONE_EL)
    assert mul_map(tensor(E21, E12)) == Diag(minus=ONE_EL)


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
    with pytest.raises(ValueError):
        contract_left(tensor(w1, w2, w3), metric())


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
