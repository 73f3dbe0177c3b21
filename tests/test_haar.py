"""The Haar state: linear-solve construction, invariance, known ladder."""

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.algebra import (
    Element, GEN_B, GEN_C, MONO_ID, ONE_EL, SPHERE_A, SPHERE_B, SPHERE_BSTAR,
    del_e, del_f, mono_degree, mono_length, pbw_monomials, spin_one,
)
from qsphere.coeff import ONE, ZERO, q_pow, qnum, rational
from qsphere.haar import HaarState, haar, haar_state


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
        assert got._reduced
        want.reduced()
        assert repr(got) == repr(want)
        # key order included, which eval_float reads
        assert [list(v.items()) for v in (got.pe, got.pr, got.den)] == \
            [list(v.items()) for v in (want.pe, want.pr, want.den)]
