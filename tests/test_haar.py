"""The Haar state: the closed form and its row check, the triangularity
that makes it unique, invariance, known ladder."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.algebra import (
    Element, GEN_B, GEN_C, ONE_EL, ZERO_EL, SPHERE_A, SPHERE_B, SPHERE_BSTAR,
    _pbw_of_length, del_e, del_f, mono_degree, mono_length, pbw_monomials,
    spin_one,
)
from qsphere.coeff import ONE, ZERO, Scalar, q_pow, qnum, rational
from qsphere.haar import _solve, haar, haar_state

from gram import gram_pairs


def test_normalisation_and_degree_kill():
    assert haar(ONE_EL) == ONE
    assert haar(Element.from_mono((0, 0, 1, 0))) == ZERO      # b
    assert haar(Element.from_mono((0, 1, 0, 0))) == ZERO      # a
    assert haar(Element.from_mono((1, 2, 0, 1))) == ZERO


def test_solve_is_consistent_at_length_six():
    # every invariance constraint used by the solve holds for the returned
    # state, through the public interface
    state = haar_state()
    state.ensure(6)
    for y in pbw_monomials(6, 2):
        assert state(del_f(Element.from_mono(y))).is_zero()


def test_solve_extension_is_stable():
    _solve.cache_clear()
    state = haar_state()
    state.ensure(4)
    v4 = state(GEN_B * GEN_C)
    state.ensure(8)
    assert state(GEN_B * GEN_C) == v4
    # lengths 0, 2, 4, 6 and 8
    assert _solve.cache_info().currsize == 5


@pytest.mark.parametrize("solve, n", [
    (haar_state().ensure, -2), (_solve, 3), (haar_state().ensure, 7),
], ids=["ensure-negative", "solve-odd", "ensure-odd"])
def test_haar_lengths_are_validated(solve, n):
    # _solve(n) recurses through _solve(n - 2), so a length that never
    # reaches 0 is refused before it recurses, and nothing is cached
    _solve(4)
    size = _solve.cache_info().currsize
    with pytest.raises(ValueError, match=r"even and >= 0: %d$" % n):
        solve(n)
    assert _solve.cache_info().currsize == size


def test_degree_zero_and_two_monomials_have_even_length():
    # a^i b^j c^k has degree j - i - k and d^i b^j c^k has i + j - k, so
    # degree 0 or 2 fixes j = i + k (+2) or k = i + j (-2): the length is
    # even, and the state is solved to exactly the length asked for
    for degree in (0, 2):
        assert all(mono_length(m) % 2 == 0
                   for m in pbw_monomials(40, degree))
    _solve.cache_clear()
    haar(Element.from_mono((0, 1, 3, 2)))  # a b^3 c^2, length 6
    assert _solve.cache_info().currsize == 4  # lengths 0, 2, 4 and 6


def _stored(table):
    # the table in its key order, each value in its canonical form
    return [(m, [list(p.items()) for p in (v.pe, v.pr, v.den)])
            for m, v in table.items()]


def test_solve_restricts_to_the_shorter_table():
    # the table to 30 lists pbw_monomials(30, 0) in order, the table to 28
    # is its prefix in value and canonical form, and a fresh solve repeats
    # it in both
    short = _stored(_solve(28))
    step = _solve(30)
    assert list(step) == pbw_monomials(30, 0)
    assert _stored(step)[:len(short)] == short
    _solve.cache_clear()
    once = _solve(30)
    assert once is not step
    assert _stored(once) == _stored(step)


def test_solve_stored_form_is_pinned():
    # a SHA-256 prefix over the table at length 26 in its key order, each
    # value in its canonical form
    h = hashlib.sha256()
    for m, v in _solve(26).items():
        h.update(repr((m, [list(p.items()) for p in (v.pe, v.pr, v.den)]))
                 .encode())
    assert h.hexdigest()[:16] == "e2486af1e3df3c5b"


@pytest.fixture
def fresh_solve():
    # a test that patches del_f starts and ends with no Haar values
    # cached, so that no value solved under the patch outlives it
    _solve.cache_clear()
    yield
    _solve.cache_clear()


def _triangular(n, image=del_f):
    # whether the rows h(image(y)) of the degree-2 y of length n, taken in
    # the order of pbw_monomials, each leave at most one degree-zero
    # monomial not decided by the shorter values and the rows before it,
    # and together decide every degree-zero monomial of length n
    decided = set(pbw_monomials(n - 2, 0))
    for y in _pbw_of_length(n, 2):
        left = set(image(Element.from_mono(y)).terms) - decided
        if len(left) > 1:
            return False
        decided |= left
    return decided == set(pbw_monomials(n, 0))


def test_invariance_rows_are_triangular_through_length_40():
    # with h(1) = 1 the rows h(del_f(y)) = 0 decide each value in turn,
    # so they admit one state at most: the closed form is the Haar state
    assert all(_triangular(n) for n in range(2, 41, 2))


@pytest.mark.parametrize("image", [
    # a row with two new values, a b^2 c and b^2 c^2
    lambda x: Element({(0, 1, 2, 1): ONE, (0, 0, 2, 2): ONE}),
    # no row decides anything
    lambda x: Element(),
], ids=["two_new_values", "nothing_decided"])
def test_triangularity_check_rejects(image):
    assert _triangular(4)
    assert not _triangular(4, image)


def test_failed_extension_leaves_the_table(monkeypatch, fresh_solve):
    # a wrong rung, h((bc)^5) doubled, makes _solve(10) raise naming the
    # first invariance row it breaks; _solve(8) stays cached and nothing
    # is cached for 10
    import qsphere.haar as haar_mod
    eight = _solve(8)
    size = _solve.cache_info().currsize
    real = haar_mod._rung
    monkeypatch.setattr(haar_mod, "_rung",
                        lambda j: real(j) * rational(2) if j == 5 else real(j))
    with pytest.raises(ArithmeticError,
                       match=r"h\(del_f\(\(1, 1, 5, 4\)\)\) = .+ is not zero "
                             r"at length 10$"):
        _solve(10)
    assert _solve(8) is eight
    assert _solve.cache_info().currsize == size
    monkeypatch.undo()
    ten = _solve(10)
    _solve.cache_clear()
    assert _stored(ten) == _stored(_solve(10))


def test_cold_ensure_inverts_no_scalar(monkeypatch, fresh_solve):
    # the values come from the closed form, not by forward substitution
    calls = []
    real = Scalar.inverse
    monkeypatch.setattr(Scalar, "inverse",
                        lambda self: calls.append(self) or real(self))
    haar_state().ensure(22)
    assert _solve.cache_info().currsize == 12  # lengths 0, 2, ..., 22
    assert calls == []


def test_haar_sums_carry_no_zero_value(monkeypatch, fresh_solve):
    # the row checks and h(x) pass coeff.dot only the nonzero Haar values,
    # although most degree-zero monomials have the value zero
    import qsphere.haar as haar_mod
    real = haar_mod.dot
    values = []

    def recording(triples):
        values.extend(y for _, y, _ in triples)
        return real(triples)

    monkeypatch.setattr(haar_mod, "dot", recording)
    monos = pbw_monomials(8, 0)
    x = sum((Element.from_mono(m) for m in monos), ZERO_EL)
    got = haar(x)
    assert values and all(values)
    monkeypatch.undo()
    assert sum(not _solve(8)[m] for m in monos) > len(monos) // 2
    assert got == sum((haar(Element.from_mono(m)) for m in monos), ZERO)


def test_each_constraint_is_solved_once(monkeypatch, fresh_solve):
    import qsphere.haar as haar_mod
    rows = []

    def counting(x):
        rows.extend(x.terms)
        return del_f(x)

    monkeypatch.setattr(haar_mod, "del_f", counting)
    state = haar_state()
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


def test_values_are_the_sequential_sums_of_the_spin_reduction():
    # every Haar value of the Gram pairs of the spin-block components up to
    # l = 7/2 equals the sum of c h(m) taken term by term, acc + c * h(m),
    # in repr and in the views of the reduced form
    inputs = [x for n in (1, 3, 5, 7) for x in gram_pairs(n)]
    assert len(inputs) > 50
    for x in inputs:
        got = haar(x)
        want = ZERO
        for m, c in x.terms.items():
            if mono_degree(m) == 0:
                want = want + c * _solve(mono_length(m))[m]
        assert repr(got) == repr(want)
        # the canonical views, exponents ascending, which eval_float reads
        assert [list(v.items()) for v in (got.pe, got.pr, got.den)] == \
            [list(v.items()) for v in (want.pe, want.pr, want.den)]
