"""The Haar state: forward-substitution construction, invariance, known
ladder."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.algebra import (
    Element, GEN_B, GEN_C, MONO_ID, ONE_EL, SPHERE_A, SPHERE_B, SPHERE_BSTAR,
    del_e, del_f, mono_degree, mono_length, pbw_monomials, spin_one,
)
from qsphere.coeff import ONE, ZERO, q_pow, qnum, rational
from qsphere.haar import HaarState, _solve, haar, haar_state


def test_normalisation_and_degree_kill():
    assert haar(ONE_EL) == ONE
    assert haar(Element.from_mono((0, 0, 1, 0))) == ZERO      # b
    assert haar(Element.from_mono((0, 1, 0, 0))) == ZERO      # a
    assert haar(Element.from_mono((1, 2, 0, 1))) == ZERO


def test_solve_is_consistent_at_length_six():
    # every invariance constraint used by the solve holds for the returned
    # state, through the public interface
    state = HaarState()
    state.ensure(6)
    for y in pbw_monomials(6, 2):
        assert state(del_f(Element.from_mono(y))).is_zero()


def test_solve_extension_is_stable():
    state = HaarState()
    state.ensure(4)
    v4 = state(GEN_B * GEN_C)
    state.ensure(8)
    assert state(GEN_B * GEN_C) == v4
    assert state._length == 8


def test_degree_zero_and_two_monomials_have_even_length():
    # a^i b^j c^k has degree j - i - k and d^i b^j c^k has i + j - k, so
    # degree 0 or 2 fixes j = i + k (+2) or k = i + j (-2): the length is
    # even, and the state table extends to exactly the length asked for
    for degree in (0, 2):
        assert all(mono_length(m) % 2 == 0
                   for m in pbw_monomials(40, degree))
    state = HaarState()
    state(Element.from_mono((0, 1, 3, 2)))  # a b^3 c^2, length 6
    assert state._length == 6


def _stored(table):
    # the table in its key order, each value in its canonical form
    return [(m, [list(p.items()) for p in (v.pe, v.pr, v.den)])
            for m, v in table.items()]


def test_solve_restricts_to_the_shorter_table():
    # extending 28 -> 30 equals one solve to 30 in value, canonical form
    # and the table's key order, and the shorter table is its restriction
    step, once = HaarState(), HaarState()
    step.ensure(28)
    short = _stored(step._table)
    step.ensure(30)
    once.ensure(30)
    assert step._table == once._table
    assert _stored(step._table) == _stored(once._table)
    assert _stored(once._table)[:len(short)] == short


def test_solve_stored_form_is_pinned():
    # a SHA-256 prefix over the table at length 26 in its key order, each
    # value in its canonical form
    table = {MONO_ID: ONE}
    table.update(_solve(table, 0, 26))
    h = hashlib.sha256()
    for m, v in table.items():
        h.update(repr((m, [list(p.items()) for p in (v.pe, v.pr, v.den)]))
                 .encode())
    assert h.hexdigest()[:16] == "e2486af1e3df3c5b"


@pytest.mark.parametrize("image, message", [
    # a constraint with two unknowns left: the solve is not triangular
    (lambda x: Element({(0, 0, 1, 1): ONE, (0, 0, 2, 2): ONE}),
     "2 unknowns left in one invariance constraint at length 4"),
    # h(1) = 0 against h(1) = 1
    (lambda x: ONE_EL, "inconsistent invariance constraints at length 4"),
    # no constraint but h(1) = 1
    (lambda x: Element(), "underdetermined invariance system at length 4"),
])
def test_solve_raises_naming_the_length(monkeypatch, image, message):
    import qsphere.haar as haar_mod
    monkeypatch.setattr(haar_mod, "del_f", image)
    with pytest.raises(ArithmeticError, match=message):
        _solve({MONO_ID: ONE}, 0, 4)


def test_failed_extension_leaves_the_table(monkeypatch):
    import qsphere.haar as haar_mod
    state = HaarState()
    state.ensure(4)
    before = _stored(state._table)

    def inconsistent_at_eight(x):
        (y,) = x.terms
        return ONE_EL if mono_length(y) == 8 else del_f(x)

    monkeypatch.setattr(haar_mod, "del_f", inconsistent_at_eight)
    with pytest.raises(ArithmeticError,
                       match="inconsistent invariance constraints at length 8"):
        state.ensure(8)
    assert state._length == 4
    assert _stored(state._table) == before
    monkeypatch.undo()
    state.ensure(8)
    once = HaarState()
    once.ensure(8)
    assert _stored(state._table) == _stored(once._table)


def test_each_constraint_is_solved_once(monkeypatch):
    import qsphere.haar as haar_mod
    rows = []

    def counting(x):
        rows.extend(x.terms)
        return del_f(x)

    monkeypatch.setattr(haar_mod, "del_f", counting)
    state = HaarState()
    state.ensure(4)
    state.ensure(8)
    state.ensure(6)
    assert rows == pbw_monomials(8, 2)


def test_spin_one_matrix_elements_vanish():
    for m in (-1, 0, 1):
        for j in (-1, 0, 1):
            assert haar(spin_one(m, j)).is_zero()


def test_value_of_bc():
    # t^1_{00} = 1 + [2]_q bc and h(t^1_{00}) = 0 force
    # h(bc) = -1/[2]_q = -q/(1+q^2)
    want = q_pow(1) * (ONE + q_pow(2)).inverse() * rational(-1)
    assert haar(GEN_B * GEN_C) == want
    assert haar(ONE_EL + (GEN_B * GEN_C).scale(qnum(4))).is_zero()


def test_value_on_sphere_generators():
    assert haar(SPHERE_A) == (ONE + q_pow(2)).inverse()
    assert haar(SPHERE_B).is_zero()
    assert haar(SPHERE_BSTAR).is_zero()


def test_bc_ladder():
    bc = GEN_B * GEN_C
    x = ONE_EL
    denom = ONE
    for n in range(1, 4):
        x = x * bc
        denom = denom + q_pow(2 * n)
        want = q_pow(n) * denom.inverse() * rational((-1) ** n)
        assert haar(x) == want


def test_del_e_invariance_comes_out():
    # only del_f invariance is imposed; del_e invariance is a consequence
    for y in pbw_monomials(6, -2):
        assert haar(del_e(Element.from_mono(y))).is_zero()


@settings(deadline=None, max_examples=10)
@given(st.sampled_from(pbw_monomials(4, 0)), st.sampled_from(pbw_monomials(4, 0)),
       st.integers(-2, 2))
def test_linearity(m1, m2, e):
    x = Element.from_mono(m1)
    y = Element.from_mono(m2, q_pow(e))
    assert haar(x + y) == haar(x) + haar(y)
    assert haar(x * ONE_EL) == haar(x)


def test_shared_state_accessor():
    assert haar_state()(ONE_EL) == ONE


def test_values_are_the_sequential_sums_of_the_spin_reduction(monkeypatch):
    # every Haar value the spin blocks up to l = 7/2 ask for equals the
    # sum of c h(m) taken term by term, acc + c * h(m), in repr and in
    # the views of the reduced form
    import qsphere.spectra as spectra_mod

    inputs = []

    def recording(x):
        inputs.append(x)
        return haar(x)

    spectra_mod._reduced.cache_clear()
    try:
        monkeypatch.setattr(spectra_mod, "haar", recording)
        spectra_mod._reduced(7)
    finally:
        spectra_mod._reduced.cache_clear()
    assert len(inputs) > 50
    state = haar_state()
    for x in inputs:
        got = haar(x)
        want = ZERO
        for m, c in x.terms.items():
            if mono_degree(m) == 0:
                assert mono_length(m) <= state._length
                want = want + c * state._table[m]
        assert repr(got) == repr(want)
        # the canonical views, exponents ascending, which eval_float reads
        assert [list(v.items()) for v in (got.pe, got.pr, got.den)] == \
            [list(v.items()) for v in (want.pe, want.pr, want.den)]
