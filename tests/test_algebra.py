"""PBW normal form, star structure, derivations, and matrix elements."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qsphere import algebra as alg
from qsphere.algebra import (
    GEN_A, GEN_B, GEN_C, GEN_D, ONE_EL, SPHERE_A, SPHERE_B, SPHERE_BSTAR,
    ZERO_EL, Element, del_e, del_f, del_k, mono_degree, mono_mul, mul_sum,
    check_podles_relations, mono_length, parse, pbw_monomials, spin_half,
    spin_one,
)
from qsphere.coeff import (ONE, ROOT_TWO_Q, accumulate, q_pow, qnum, rational,
                           s_pow)


def q(n=1):
    return q_pow(n)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def _fix(m):
    t, i, j, k = m
    return (0, i, j, k) if i == 0 else m


small_monos = st.tuples(st.integers(0, 1), st.integers(0, 2),
                        st.integers(0, 2), st.integers(0, 2)).map(_fix)

small_coeffs = st.sampled_from([
    ONE, -ONE, q_pow(1), q_pow(-1), s_pow(1), rational(2),
    rational(Fraction(-1, 2)), ROOT_TWO_Q,
])


@st.composite
def elements(draw, max_terms=3):
    pairs = draw(st.lists(st.tuples(small_monos, small_coeffs),
                          max_size=max_terms))
    out = ZERO_EL
    for m, c in pairs:
        out = out + Element.from_mono(m, c)
    return out


def letters_of(m):
    t, i, j, k = m
    return [GEN_D if t else GEN_A] * i + [GEN_B] * j + [GEN_C] * k


# ---------------------------------------------------------------------------
# the defining relations and normal form
# ---------------------------------------------------------------------------

def test_defining_relations():
    assert GEN_A * GEN_B == (GEN_B * GEN_A).scale(q())
    assert GEN_A * GEN_C == (GEN_C * GEN_A).scale(q())
    assert GEN_B * GEN_D == (GEN_D * GEN_B).scale(q())
    assert GEN_C * GEN_D == (GEN_D * GEN_C).scale(q())
    assert GEN_B * GEN_C == GEN_C * GEN_B
    assert GEN_A * GEN_D == ONE_EL + (GEN_B * GEN_C).scale(q())
    assert GEN_D * GEN_A == ONE_EL + (GEN_B * GEN_C).scale(q(-1))


def test_quantum_determinant():
    assert GEN_A * GEN_D - (GEN_B * GEN_C).scale(q()) == ONE_EL
    assert GEN_D * GEN_A - (GEN_B * GEN_C).scale(q(-1)) == ONE_EL


@given(small_monos)
def test_normal_form_matches_letterwise_product(m):
    out = ONE_EL
    for letter in letters_of(m):
        out = out * letter
    assert out == Element.from_mono(m)


@given(elements(), elements(), elements())
@settings(deadline=None)
def test_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(elements(), elements(), elements())
@settings(deadline=None)
def test_distributive(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


# coefficients with denominators, of several n and Phi-exponents, beside
# the units
mixed_coeffs = st.sampled_from([
    ONE, -ONE, s_pow(-3), ROOT_TWO_Q.scale_s(2), -ROOT_TWO_Q, qnum(3),
    qnum(6).inverse(), (ONE + q_pow(2)).inverse(), ROOT_TWO_Q.inverse(),
    rational(Fraction(2, 3)) * qnum(5), s_pow(1) + ROOT_TWO_Q,
    rational(Fraction(-1, 2)) * (ONE + q_pow(2)).inverse() ** 2,
])


@st.composite
def mixed_elements(draw, max_terms=3):
    pairs = draw(st.lists(st.tuples(small_monos, mixed_coeffs),
                          max_size=max_terms))
    return Element(accumulate({}, ((m, c) for m, c in pairs)))


def _products_term_by_term(triples):
    """The reference for mul_sum: every contribution by mul_s, summed into
    its monomial with accumulate."""
    return accumulate({}, ((m, c1.mul_s(c2, e + e12))
                           for x, y, e in triples
                           for m1, c1 in x.terms.items()
                           for m2, c2 in y.terms.items()
                           for m, e12 in mono_mul(m1, m2)))


def _check_mul_sum(triples):
    got = mul_sum(triples)
    want = _products_term_by_term(triples)
    assert all(got.terms.values())
    assert {m: c._freeze() for m, c in got.terms.items()} == \
        {m: c._freeze() for m, c in want.items()}


@given(st.lists(st.tuples(mixed_elements(), mixed_elements(),
                          st.integers(-4, 4)), max_size=3))
@example([(GEN_A + GEN_B.scale(qnum(3)), GEN_C + GEN_D, 0)])  # one x * y
@settings(max_examples=100, deadline=None)
def test_sums_of_products_match_the_term_by_term_sum(triples):
    _check_mul_sum(triples)


def test_sums_of_products_that_cancel():
    x, y = GEN_A + GEN_B.scale(qnum(3)), GEN_D.scale(qnum(6).inverse())
    assert mul_sum([(x, y, 2), (x.scale(-q()), y, 0)]).is_zero()
    # a d - q bc = 1: the bc monomial of the cross product a d cancels
    # against the second product and leaves no zero behind
    det = [(GEN_A, GEN_D, 0), (GEN_B * GEN_C, ONE_EL.scale(-q()), 0)]
    assert mul_sum(det) == ONE_EL
    _check_mul_sum(det)


@pytest.mark.parametrize("other", [1, rational(1), Fraction(1, 2), "a"],
                         ids=["int", "Scalar", "Fraction", "str"])
def test_sums_with_a_non_element_raise_type_error(other):
    for op in (lambda: GEN_A + other, lambda: GEN_A - other,
               lambda: other + GEN_A, lambda: other - GEN_A,
               lambda: GEN_A * other):
        with pytest.raises(TypeError):
            op()


# ---------------------------------------------------------------------------
# star structure
# ---------------------------------------------------------------------------

def test_star_on_generators():
    assert GEN_A.star() == GEN_D
    assert GEN_B.star() == GEN_C.scale(-q())
    assert GEN_C.star() == GEN_B.scale(-q(-1))
    assert GEN_D.star() == GEN_A


@given(small_monos)
def test_star_of_monomial_matches_letterwise(m):
    out = ONE_EL
    for letter in reversed(letters_of(m)):
        out = out * letter.star()
    assert out == Element.from_mono(m).star()


@given(elements(), elements())
@settings(deadline=None)
def test_star_antihomomorphism(x, y):
    assert (x * y).star() == y.star() * x.star()


@given(elements())
def test_star_involutive(x):
    assert x.star().star() == x


# ---------------------------------------------------------------------------
# grading
# ---------------------------------------------------------------------------

def test_generator_degrees():
    assert GEN_A.degrees() == {-1}
    assert GEN_C.degrees() == {-1}
    assert GEN_B.degrees() == {1}
    assert GEN_D.degrees() == {1}


@given(small_monos, small_monos)
def test_degree_additive(m1, m2):
    x = Element.from_mono(m1) * Element.from_mono(m2)
    want = mono_degree(m1) + mono_degree(m2)
    assert x.degrees() == {want}


@given(small_monos)
def test_star_flips_degree(m):
    assert Element.from_mono(m).star().degrees() == {-mono_degree(m)}


def test_degree_part_splits():
    x = GEN_A + GEN_B * GEN_C + GEN_D.scale(q(2))
    # one monomial of each degree
    parts = {mono_degree(m): Element.from_mono(m, c)
             for m, c in x.terms.items()}
    assert parts == {-1: GEN_A, 0: GEN_B * GEN_C, 1: GEN_D.scale(q(2))}
    assert x.degrees() == {-1, 0, 1}


# ---------------------------------------------------------------------------
# the twisted derivations
# ---------------------------------------------------------------------------

def test_derivations_on_generators():
    assert del_e(GEN_A) == GEN_B
    assert del_e(GEN_C) == GEN_D
    assert del_e(GEN_B).is_zero() and del_e(GEN_D).is_zero()
    assert del_f(GEN_B) == GEN_A
    assert del_f(GEN_D) == GEN_C
    assert del_f(GEN_A).is_zero() and del_f(GEN_C).is_zero()


def test_del_k_scales_by_weight():
    x = GEN_B * GEN_D
    assert del_k(x) == x.scale(q())
    assert del_k(x, -1) == x.scale(q(-1))
    assert del_k(GEN_A) == GEN_A.scale(s_pow(-1))


@given(elements(), elements())
@settings(deadline=None)
def test_twisted_leibniz(x, y):
    for der in (del_e, del_f):
        lhs = der(x * y)
        rhs = der(x) * del_k(y) + del_k(x, -1) * der(y)
        assert lhs == rhs


@given(small_monos)
def test_derivations_shift_degree_by_two(m):
    x = Element.from_mono(m)
    n = mono_degree(m)
    assert del_e(x).degrees() <= {n + 2}
    assert del_f(x).degrees() <= {n - 2}


@given(small_monos)
def test_derivations_respect_length_filtration(m):
    # reduction of ad can shorten words, so only the filtration survives
    x = Element.from_mono(m)
    n = mono_length(m)
    for y in (del_e(x), del_f(x)):
        assert all(mono_length(mm) <= n for mm in y.terms)


def _sphere_words(max_len=2):
    gens = [SPHERE_A, SPHERE_B, SPHERE_BSTAR]
    words = [ONE_EL]
    for g in gens:
        words.append(g)
        for h in gens:
            words.append(g * h)
    return words[:1 + 3 + 9][:13]


def test_del_e_del_f_commute_on_the_sphere():
    for w in _sphere_words():
        assert del_e(del_f(w)) == del_f(del_e(w))


def test_del_e_del_f_do_not_commute_off_the_sphere():
    assert del_e(del_f(GEN_B)) != del_f(del_e(GEN_B))


# ---------------------------------------------------------------------------
# the quantum sphere
# ---------------------------------------------------------------------------

def test_sphere_generators_are_degree_zero():
    for g in (SPHERE_A, SPHERE_B, SPHERE_BSTAR):
        assert g.degrees() <= {0}


def test_sphere_generator_normal_forms():
    assert SPHERE_A == (GEN_B * GEN_C).scale(-q(-1))
    assert SPHERE_B == (GEN_A * GEN_B).scale(-q(-1))
    assert SPHERE_BSTAR == GEN_C * GEN_D


def test_sphere_star():
    assert SPHERE_A.star() == SPHERE_A
    assert SPHERE_B.star() == SPHERE_BSTAR
    assert SPHERE_BSTAR.star() == SPHERE_B


def test_sphere_relations():
    A, B, Bs = SPHERE_A, SPHERE_B, SPHERE_BSTAR
    assert B * A == (A * B).scale(q(2))
    assert A * Bs == (Bs * A).scale(q(2))
    assert Bs * B == A - A * A
    assert B * Bs == A.scale(q(2)) - (A * A).scale(q(4))


def test_charge_one_projector():
    A, B, Bs = SPHERE_A, SPHERE_B, SPHERE_BSTAR
    p = [[ONE_EL - A, -Bs], [-B, A.scale(q(2))]]
    # rank-one form from the defining corepresentation
    col = [GEN_D, GEN_B]
    for i in range(2):
        for j in range(2):
            assert p[i][j] == col[i] * col[j].star()
    # idempotent and self-adjoint
    for i in range(2):
        for j in range(2):
            sq = p[i][0] * p[0][j] + p[i][1] * p[1][j]
            assert sq == p[i][j]
            assert p[j][i].star() == p[i][j]
    assert (p[0][0] + p[1][1]) - ONE_EL == SPHERE_A.scale(q(2) - ONE)


# ---------------------------------------------------------------------------
# matrix elements
# ---------------------------------------------------------------------------

def test_spin_half_is_the_generator_matrix():
    assert spin_half(-1, -1) == GEN_A
    assert spin_half(-1, 1) == GEN_B
    assert spin_half(1, -1) == GEN_C
    assert spin_half(1, 1) == GEN_D


def test_spin_one_outer_columns():
    r = ROOT_TWO_Q
    assert spin_one(-1, 1) == GEN_B * GEN_B
    assert spin_one(0, 1) == (GEN_B * GEN_D).scale(r.scale_s(-1))
    assert spin_one(1, 1) == GEN_D * GEN_D
    assert spin_one(-1, -1) == GEN_A * GEN_A
    assert spin_one(0, -1) == (GEN_A * GEN_C).scale(r.scale_s(-1))
    assert spin_one(1, -1) == GEN_C * GEN_C


def test_spin_one_middle_column():
    r = ROOT_TWO_Q
    assert spin_one(-1, 0) == (GEN_A * GEN_B).scale(r.scale_s(-1))
    assert spin_one(0, 0) == ONE_EL + (GEN_B * GEN_C).scale(qnum(4))
    assert spin_one(1, 0) == (GEN_C * GEN_D).scale(r.scale_s(-1))


def test_spin_one_ladder():
    # raising and lowering move along rows with coefficient [2]_q^{1/2}
    r = ROOT_TWO_Q
    for m in (-1, 0, 1):
        assert del_e(spin_one(m, -1)) == spin_one(m, 0).scale(r)
        assert del_e(spin_one(m, 0)) == spin_one(m, 1).scale(r)
        assert del_e(spin_one(m, 1)).is_zero()
        assert del_f(spin_one(m, 1)) == spin_one(m, 0).scale(r)
        assert del_f(spin_one(m, 0)) == spin_one(m, -1).scale(r)
        assert del_f(spin_one(m, -1)).is_zero()


def test_matrix_element_adjoints():
    for i in (-1, 1):
        for j in (-1, 1):
            sign = (-q()) ** ((j - i) // 2)
            assert spin_half(i, j).star() == spin_half(-i, -j).scale(sign)
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            sign = (-q()) ** (j - i)
            assert spin_one(i, j).star() == spin_one(-i, -j).scale(sign)


def test_matrix_element_orthogonality():
    for reps, idx in ((spin_half, (-1, 1)), (spin_one, (-1, 0, 1))):
        for i in idx:
            for j in idx:
                want = ONE_EL if i == j else ZERO_EL
                col = ZERO_EL
                row = ZERO_EL
                for p in idx:
                    col = col + reps(p, i).star() * reps(p, j)
                    row = row + reps(i, p) * reps(j, p).star()
                assert col == want
                assert row == want


def test_spin_one_degrees():
    for m in (-1, 0, 1):
        for j in (-1, 0, 1):
            assert spin_one(m, j).degrees() <= {2 * j}


@pytest.mark.parametrize("m,j", [(2, 0), (0, 2), (-2, 1), (1, -2)])
def test_spin_one_rejects_indices_outside_the_vector_rep(m, j):
    with pytest.raises(ValueError, match="spin_one"):
        spin_one(m, j)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _normal_forms(max_length):
    """Every normal-form monomial of length <= max_length, a^i b^j c^k and
    d^i b^j c^k with i >= 1, enumerated apart from pbw_monomials."""
    r = range(max_length + 1)
    return [(branch, i, j, k)
            for branch, i, j, k in itertools.product((0, 1), r, r, r)
            if i + j + k <= max_length and (i or not branch)]


def test_pbw_monomial_counts():
    # (n+1)^2 monomials of length exactly n, over the degrees -n..n
    for n in range(5):
        got = sum(len(pbw_monomials(n, d)) - len(pbw_monomials(n - 1, d))
                  for d in range(-n, n + 1))
        assert got == (n + 1) ** 2
        assert got == sum(mono_length(m) == n for m in _normal_forms(n))


def test_pbw_degree_filter_partitions():
    by_deg = {}
    for m in _normal_forms(3):
        by_deg.setdefault(mono_degree(m), set()).add(m)
    assert set(by_deg) == set(range(-3, 4))
    for deg, ms in by_deg.items():
        got = pbw_monomials(3, deg)
        assert len(got) == len(ms) and set(got) == ms
        assert all(mono_degree(m) == deg for m in got)
        lengths = [mono_length(m) for m in got]
        assert lengths == sorted(lengths)  # shortest first
    # spinor component dimensions at cutoff 3: one spin-1/2 and one spin-3/2
    assert len(pbw_monomials(3, degree=1)) == 2 + 4
    assert len(pbw_monomials(3, degree=-1)) == 2 + 4


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_words():
    assert parse("a*b - b*a") == GEN_A * GEN_B - GEN_B * GEN_A
    assert parse("a*b^2*c") == GEN_A * GEN_B * GEN_B * GEN_C
    assert parse("q^-1*d") == GEN_D.scale(q(-1))
    assert parse("r^2") == Element.scalar(qnum(4))
    assert parse("(A + Bstar)^2") == (SPHERE_A + SPHERE_BSTAR) * \
        (SPHERE_A + SPHERE_BSTAR)
    assert parse("1/2*b").terms == GEN_B.scale(rational(Fraction(1, 2))).terms
    assert parse("-3*A") == SPHERE_A.scale(rational(-3))


def test_parse_divides_by_scalar_factors():
    x = GEN_B * GEN_C
    assert parse("((-1)/(1 + s^4))*b*c") == x.scale(-(ONE + q(2)).inverse())
    assert parse("b*c/(q + q^-1)") == x.scale(qnum(4).inverse())
    assert parse("a/2") == GEN_A.scale(rational(Fraction(1, 2)))
    assert parse("a/2/3") == GEN_A.scale(rational(Fraction(1, 6)))
    assert parse("2/3*a") == GEN_A.scale(rational(Fraction(2, 3)))
    # a fraction is a division, and the exponent binds first
    assert parse("2/3^2") == Element.scalar(rational(Fraction(2, 9)))
    assert parse("2/3^-1") == Element.scalar(rational(6))
    third = rational(Fraction(1, 3))
    for text, k in (("a*s^2/3", 2), ("a*s^2 /3", 2), ("a*s^-2/3", -2)):
        assert parse(text) == GEN_A.scale(s_pow(k) * third)
    y = (GEN_A.scale((qnum(3) + ROOT_TWO_Q).inverse())
         - GEN_B * GEN_C.scale(qnum(5) / (q(1) + q(-1) + ONE)))
    assert "/" in repr(y)
    assert parse(repr(y)) == y


def test_parse_rejects_junk():
    for bad in ("a +", "x", "a^b", "(a", "a)", "a/b", "a/(b + 1)", "a/0",
                "a/", "2/", "2/0", "t(1/0,0,0)", "0^-1",
                "(" * 1200 + "a" + ")" * 1200,
                # juxtaposition is not a product
                "ab", "2a", "AB", "a(b)", "a b"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            parse(bad)


def test_parse_names_the_text_of_an_out_of_ring_divisor():
    for text in ("1/(2 + s)", "a*b/(s^2 + 1/3) - c"):
        with pytest.raises(ValueError, match="outside the cyclotomic ring") \
                as info:
            parse(text)
        assert repr(text) in str(info.value)


def test_repr_round_trips_through_parser():
    x = GEN_A * GEN_B.scale(q(2)) - GEN_C + Element.scalar(qnum(4))
    assert parse(repr(x)) == x


def test_parse_matrix_elements_and_sphere_aliases():
    assert parse("Bs") == SPHERE_BSTAR
    assert parse("A*Bs - q^2*Bs*A").is_zero()


# ---------------------------------------------------------------------------
# the packaged relation check
# ---------------------------------------------------------------------------

def test_podles_relations_check_all_pass():
    assert check_podles_relations() == (True, None, None)
