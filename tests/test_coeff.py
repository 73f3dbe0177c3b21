"""Field axioms and pinned values for the scalar field K."""

import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsphere.coeff import (
    ONE, ROOT_TWO_Q, ZERO, Scalar, _fold_rem, _fracs, _int_dense, _int_prem,
    _normalise, _pdiv_exact, _pmul, _poly_gcd, _pshift, _unit,
    clear_denominators, dot, q_pow, qnum, rational, s_pow,
)


def scalars():
    """Random small elements of K, including ones with denominators."""
    coeff = st.integers(-4, 4).map(rational)
    spow = st.integers(-5, 5).map(s_pow)
    atoms = st.one_of(coeff, spow, st.just(ROOT_TWO_Q), st.just(qnum(3)),
                      st.just(qnum(4) / qnum(2)))
    return st.lists(atoms, min_size=1, max_size=4).map(
        lambda xs: sum(xs[1:], xs[0])
    )


@given(scalars(), scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x * y == y * x
    assert x + (y + z) == (x + y) + z
    assert x - x == ZERO
    assert x * ONE == x


@given(scalars())
@settings(max_examples=60, deadline=None)
def test_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == ONE


def test_root_two_q_squares_to_two_q():
    assert ROOT_TWO_Q * ROOT_TWO_Q == qnum(4)  # [2]_q = q + q^{-1}
    assert qnum(4) == q_pow(1) + q_pow(-1)


def test_qnumbers_reduce_to_laurent_polynomials():
    # [n]_q = q^{-(n-1)} + q^{-(n-3)} + ... + q^{n-1}
    for n in range(1, 6):
        expect = ZERO
        for m in range(n):
            expect = expect + q_pow(n - 1 - 2 * m)
        assert qnum(2 * n) == expect


def test_qnumber_difference_of_squares():
    # [a]^2 - [b]^2 = [a+b][a-b]; the frame normalisation relies on
    # [3/2]^2 - [1/2]^2 = [2][1] = [2]_q
    lhs = qnum(3) * qnum(3) - qnum(1) * qnum(1)
    assert lhs == qnum(4)


def test_q_one_limit_is_substitution():
    # reduced q-numbers evaluate by plain substitution, [n]_q -> n
    for n in range(7):
        u, v = qnum(2 * n).limit_q_one()
        assert (u, v) == (Fraction(n), Fraction(0))
    # half-integer q-numbers too: [3/2] -> 3/2
    u, v = qnum(3).limit_q_one()
    assert (u, v) == (Fraction(3, 2), Fraction(0))
    # r -> sqrt(2)
    u, v = ROOT_TWO_Q.limit_q_one()
    assert (u, v) == (Fraction(0), Fraction(1))


def test_rational_evaluation():
    x = qnum(4)  # q + 1/q
    assert abs(x.eval_float(0.5) - 2.5) < 1e-12


def test_pole_at_q_one_raises():
    # 1/(q - q^{-1}) has a genuine pole at q = 1
    x = ONE / (q_pow(1) - q_pow(-1))
    with pytest.raises(ZeroDivisionError):
        x.limit_q_one()


def test_eval_float_tracks_the_field_relation():
    for q in (0.5, 0.9):
        r = ROOT_TWO_Q.eval_float(q)
        assert abs(r * r - (q + 1 / q)) < 1e-12


def test_scale_s_is_multiplication_by_s_power():
    x = qnum(3) + ROOT_TWO_Q
    assert x.scale_s(3) == x * s_pow(3)


def test_canonical_equality_and_hash():
    a = qnum(4) / qnum(2)
    b = q_pow(1) + q_pow(-1)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_equality_with_rationals():
    assert ZERO == 0
    assert not ZERO != 0
    assert rational(Fraction(3, 2)) == Fraction(3, 2)
    assert qnum(2) == 1
    assert q_pow(1) != 1
    assert ROOT_TWO_Q != 0
    assert hash(rational(5)) == hash(5)
    assert hash(rational(Fraction(-7, 3))) == hash(Fraction(-7, 3))
    assert hash(ZERO) == hash(0)
    assert hash(qnum(4) / qnum(2) - q_pow(-1)) == hash(q_pow(1))
    assert len({qnum(2), 1, Fraction(1)}) == 1


# ---------------------------------------------------------------------------
# the stored form, pinned bit for bit
# ---------------------------------------------------------------------------
#
# ``pe``, ``pr`` and ``den`` are Fraction views of the stored int dicts.
# ``repr`` (hashed by the curvature goldens), equality and hashing read only
# the reduced value, which is unique.  ``eval_float`` sums the reduced form
# in stored order, so the spectra block matrices depend on that order to the
# last bit.  The kernels may change; the keys, the Fraction values and the
# insertion order of the views may not, reduced or unreduced.  Each case
# records the unreduced form where the constructor defers reduction
# (``None`` where it does not), the repr, and the reduced form; each form as
# its three dicts' items, as (exponent, (numerator, denominator)) in
# insertion order, then eval_float at q = 0.3, 0.7, 1.0 as float.hex().
# eval_float reads the reduced form, so both forms of a case share that
# column.


def _qbinomial(n, k):
    out = ONE
    for i in range(k):
        out = out * qnum(2 * (n - i)) / qnum(2 * (i + 1))
    return out


PINNED_CASES = {
    "half_integer_qnum": lambda: qnum(3),
    "qnum_5_2": lambda: qnum(5),
    "qnum_2": lambda: qnum(4),
    "qnum_ratio": lambda: qnum(6) / qnum(2),
    "s_cubed_plus_r": lambda: s_pow(3) + ROOT_TWO_Q,
    "inverse_r": lambda: ROOT_TWO_Q.inverse(),
    "mixed_product": lambda: (qnum(3) + ROOT_TWO_Q) * qnum(5),
    "qbinomial_4_2": lambda: _qbinomial(4, 2),
    "qbinomial_6_3": lambda: _qbinomial(6, 3),
    "pole_at_one": lambda: ONE / (q_pow(1) - q_pow(-1)),
    "cyclotomic_inverse": lambda: ONE / (q_pow(2) + q_pow(-2)),
    "inverse_sum": lambda: qnum(3).inverse() * qnum(7) + ROOT_TWO_Q * s_pow(-1),
    "rational_combination": lambda: (rational(Fraction(3, 7)) * qnum(4)
                                     - rational(2) * s_pow(5)),
    "inverse_with_r": lambda: (ROOT_TWO_Q + qnum(3)).inverse(),
    "cube_with_r": lambda: (qnum(4) + ROOT_TWO_Q) ** 3,
    "quotient_with_r": lambda: ((qnum(3) * ROOT_TWO_Q - s_pow(2))
                                / (qnum(5) + rational(1))),
    "cyclotomic_product": lambda: ONE / ((q_pow(1) + q_pow(-1))
                                         * (q_pow(2) + q_pow(-2))
                                         * (q_pow(3) + q_pow(-3))),
    "difference_of_squares": lambda: qnum(3) * qnum(3) - qnum(1) * qnum(1),
    "rational_content": lambda: rational(Fraction(-5, 6)) + qnum(3) / rational(3),
    "unreduced_sum": lambda: ROOT_TWO_Q.scale_s(-1) * qnum(3) + qnum(1),
    "non_monic_binomial": lambda: ((s_pow(1) + rational(Fraction(1, 2)))
                                   / (s_pow(1) - rational(2))),
    "harmonic_sum": lambda: sum((qnum(n).inverse() for n in range(2, 9, 2)), qnum(0)),
}

PINNED = {
    'half_integer_qnum': (
        ([(-3, (1, 1)), (3, (-1, 1))], [], [(-2, (1, 1)), (2, (-1, 1))],
         ['0x1.f3bf67e658992p+0', '0x1.8a2c1e12261fdp+0', '0x1.8000000000000p+0']),
        '(s^-1 + s^1 + s^3)/(1 + s^2)',
        ([(-1, (1, 1)), (1, (1, 1)), (3, (1, 1))], [], [(0, (1, 1)), (2, (1, 1))],
         ['0x1.f3bf67e658992p+0', '0x1.8a2c1e12261fdp+0', '0x1.8000000000000p+0']),
    ),
    'qnum_5_2': (
        ([(-5, (1, 1)), (5, (-1, 1))], [], [(-2, (1, 1)), (2, (-1, 1))],
         ['0x1.aaf9010eabbe2p+2', '0x1.648433251b049p+1', '0x1.4000000000000p+1']),
        '(s^-3 + s^-1 + s^1 + s^3 + s^5)/(1 + s^2)',
        ([(-3, (1, 1)), (-1, (1, 1)), (1, (1, 1)), (3, (1, 1)), (5, (1, 1))], [],
         [(0, (1, 1)), (2, (1, 1))],
         ['0x1.aaf9010eabbe2p+2', '0x1.648433251b049p+1', '0x1.4000000000000p+1']),
    ),
    'qnum_2': (
        ([(-4, (1, 1)), (4, (-1, 1))], [], [(-2, (1, 1)), (2, (-1, 1))],
         ['0x1.d111111111112p+1', '0x1.1075075075075p+1', '0x1.0000000000000p+1']),
        's^-2 + s^2',
        ([(-2, (1, 1)), (2, (1, 1))], [], [(0, (1, 1))],
         ['0x1.d111111111112p+1', '0x1.1075075075075p+1', '0x1.0000000000000p+1']),
    ),
    'qnum_ratio': (
        ([(-6, (1, 1)), (6, (-1, 1))], [], [(-2, (1, 1)), (2, (-1, 1))],
         ['0x1.866f8091a2b3ep+3', '0x1.c3f1ca1550e01p+1', '0x1.8000000000000p+1']),
        's^-4 + 1 + s^4',
        ([(-4, (1, 1)), (0, (1, 1)), (4, (1, 1))], [], [(0, (1, 1))],
         ['0x1.866f8091a2b3ep+3', '0x1.c3f1ca1550e01p+1', '0x1.8000000000000p+1']),
    ),
    's_cubed_plus_r': (
        ([(3, (1, 1))], [(0, (1, 1))], [(0, (1, 1))],
         ['0x1.09046a2e24accp+1', '0x1.05b6412b22e5fp+1', '0x1.3504f333f9de6p+1']),
        's^3 + (1)*r',
        ([(3, (1, 1))], [(0, (1, 1))], [(0, (1, 1))],
         ['0x1.09046a2e24accp+1', '0x1.05b6412b22e5fp+1', '0x1.3504f333f9de6p+1']),
    ),
    'inverse_r': (
        ([], [(0, (-1, 1))], [(2, (-1, 1)), (-2, (-1, 1))],
         ['0x1.0c9b64e113babp-1', '0x1.5eef2fd139645p-1', '0x1.6a09e667f3bcdp-1']),
        '((s^2)*r)/(1 + s^4)',
        ([], [(2, (1, 1))], [(4, (1, 1)), (0, (1, 1))],
         ['0x1.0c9b64e113babp-1', '0x1.5eef2fd139645p-1', '0x1.6a09e667f3bcdp-1']),
    ),
    'mixed_product': (
        None,
        ('(s^-4 + 2*s^-2 + 3 + 3*s^2 + 3*s^4 + 2*s^6 + s^8 + (s^-3 + 2*s^-1 + 2*s^1 + '
         '2*s^3 + 2*s^5 + s^7)*r)/(1 + 2*s^2 + s^4)'),
        ([(-4, (1, 1)), (-2, (2, 1)), (0, (3, 1)), (2, (3, 1)), (4, (3, 1)), (6, (2, 1)),
          (8, (1, 1))],
         [(-3, (1, 1)), (-1, (2, 1)), (1, (2, 1)), (3, (2, 1)), (5, (2, 1)), (7, (1, 1))],
         [(0, (1, 1)), (2, (2, 1)), (4, (1, 1))],
         ['0x1.9bd80ccc27247p+4', '0x1.0b4571e98ad31p+3', '0x1.d2463000f8560p+2']),
    ),
    'qbinomial_4_2': (
        ([(-8, (1, 1)), (-4, (2, 1)), (0, (3, 1)), (4, (3, 1)), (8, (2, 1)), (12, (1, 1))],
         [], [(0, (1, 1)), (4, (1, 1))],
         ['0x1.1154fe1d23215p+7', '0x1.1df276ad4716ap+3', '0x1.8000000000000p+2']),
        's^-8 + s^-4 + 2 + s^4 + s^8',
        ([(-8, (1, 1)), (-4, (1, 1)), (0, (2, 1)), (4, (1, 1)), (8, (1, 1))], [],
         [(0, (1, 1))],
         ['0x1.1154fe1d23215p+7', '0x1.1df276ad4716ap+3', '0x1.8000000000000p+2']),
    ),
    'qbinomial_6_3': (
        None,
        's^-18 + s^-14 + 2*s^-10 + 3*s^-6 + 3*s^-2 + 3*s^2 + 3*s^6 + 2*s^10 + s^14 + s^18',
        ([(-18, (1, 1)), (-14, (1, 1)), (-10, (2, 1)), (-6, (3, 1)), (-2, (3, 1)),
          (2, (3, 1)), (6, (3, 1)), (10, (2, 1)), (14, (1, 1)), (18, (1, 1))],
         [], [(0, (1, 1))],
         ['0x1.b805c25c506aep+15', '0x1.05c5f332e9ad2p+6', '0x1.4000000000000p+4']),
    ),
    'pole_at_one': (
        ([(2, (1, 1))], [], [(0, (-1, 1)), (4, (1, 1))],
         ['-0x1.5195195195194p-2', '-0x1.5f5f5f5f5f5f6p+0', 'ZeroDivisionError']),
        '(s^2)/(-1 + s^4)',
        ([(2, (1, 1))], [], [(0, (-1, 1)), (4, (1, 1))],
         ['-0x1.5195195195194p-2', '-0x1.5f5f5f5f5f5f6p+0', 'ZeroDivisionError']),
    ),
    'cyclotomic_inverse': (
        ([(4, (1, 1))], [], [(0, (1, 1)), (8, (1, 1))],
         ['0x1.6dad91f0ea709p-4', '0x1.949cced90bb48p-2', '0x1.0000000000000p-1']),
        '(s^4)/(1 + s^8)',
        ([(4, (1, 1))], [], [(0, (1, 1)), (8, (1, 1))],
         ['0x1.6dad91f0ea709p-4', '0x1.949cced90bb48p-2', '0x1.0000000000000p-1']),
    ),
    'inverse_sum': (
        None,
        '(s^-4 + s^-2 + 1 + s^2 + s^4 + s^6 + s^8 + (s^-1 + s^1 + s^3)*r)/(1 + s^2 + s^4)',
        ([(-4, (1, 1)), (-2, (1, 1)), (0, (1, 1)), (2, (1, 1)), (4, (1, 1)), (6, (1, 1)),
          (8, (1, 1))],
         [(-1, (1, 1)), (1, (1, 1)), (3, (1, 1))], [(0, (1, 1)), (2, (1, 1)), (4, (1, 1))],
         ['0x1.dcb48e872864dp+3', '0x1.26081ae06533fp+2', '0x1.dfaf9ddea4891p+1']),
    ),
    'rational_combination': (
        ([(-4, (3, 7)), (4, (-3, 7)), (3, (-2, 1)), (7, (2, 1))], [],
         [(-2, (1, 1)), (2, (-1, 1))],
         ['0x1.7563b751b5ee0p+0', '0x1.7a2283be14090p-4', '-0x1.2492492492492p+0']),
        '3/7*s^-2 + 3/7*s^2 - 2*s^5',
        ([(-2, (3, 7)), (2, (3, 7)), (5, (-2, 1))], [], [(0, (1, 1))],
         ['0x1.7563b751b5ee0p+0', '0x1.7a2283be14090p-4', '-0x1.2492492492492p+0']),
    ),
    'inverse_with_r': (
        None,
        's^-3 + 2*s^-1 + 2*s^1 + s^3 + (-s^-2 - 2 - s^2)*r',
        ([(-3, (1, 1)), (-1, (2, 1)), (1, (2, 1)), (3, (1, 1))],
         [(-2, (-1, 1)), (0, (-2, 1)), (2, (-1, 1))], [(0, (1, 1))],
         ['0x1.0967685b03ca0p-2', '0x1.557b4501813a0p-2', '0x1.5f619980c4330p-2']),
    ),
    'cube_with_r': (
        ([(-8, (1, 1)), (-6, (3, 1)), (-4, (2, 1)), (-2, (3, 1)), (2, (-3, 1)),
          (4, (-2, 1)), (6, (-3, 1)), (8, (-1, 1))],
         [(-6, (3, 1)), (-2, (3, 1)), (2, (-3, 1)), (6, (-3, 1)), (-4, (1, 1)),
          (4, (-1, 1))],
         [(-2, (1, 1)), (2, (-1, 1))],
         ['0x1.53f6d5834e494p+7', '0x1.71624a78191b4p+5', '0x1.3e6454cd7aa2ap+5']),
        ('s^-6 + 3*s^-4 + 3*s^-2 + 6 + 3*s^2 + 3*s^4 + s^6 + (3*s^-4 + s^-2 + 6 + s^2 + '
         '3*s^4)*r'),
        ([(-6, (1, 1)), (-4, (3, 1)), (-2, (3, 1)), (0, (6, 1)), (2, (3, 1)), (4, (3, 1)),
          (6, (1, 1))],
         [(-4, (3, 1)), (-2, (1, 1)), (0, (6, 1)), (2, (1, 1)), (4, (3, 1))], [(0, (1, 1))],
         ['0x1.53f6d5834e494p+7', '0x1.71624a78191b4p+5', '0x1.3e6454cd7aa2ap+5']),
    ),
    'quotient_with_r': (
        None,
        '(-s^5 - s^7 + (s^2 + s^4 + s^6)*r)/(1 + s^2 + s^3 + s^4 + s^5 + s^6 + s^8)',
        ([(5, (-1, 1)), (7, (-1, 1))], [(2, (1, 1)), (4, (1, 1)), (6, (1, 1))],
         [(0, (1, 1)), (2, (1, 1)), (3, (1, 1)), (4, (1, 1)), (5, (1, 1)), (6, (1, 1)),
          (8, (1, 1))],
         ['0x1.c8a569387d284p-2', '0x1.a256ada394914p-2', '0x1.4810f8b2341f2p-2']),
    ),
    'cyclotomic_product': (
        None,
        '(s^12)/(1 + s^4 + s^8 + 2*s^12 + s^16 + s^20 + s^24)',
        ([(12, (1, 1))], [],
         [(0, (1, 1)), (4, (1, 1)), (8, (1, 1)), (12, (2, 1)), (16, (1, 1)), (20, (1, 1)),
          (24, (1, 1))],
         ['0x1.5b93acb312f17p-11', '0x1.d2b0fde6025d3p-5', '0x1.0000000000000p-3']),
    ),
    'difference_of_squares': (
        None,
        's^-2 + s^2',
        ([(-2, (1, 1)), (2, (1, 1))], [], [(0, (1, 1))],
         ['0x1.d111111111112p+1', '0x1.1075075075075p+1', '0x1.0000000000000p+1']),
    ),
    'rational_content': (
        ([(-2, (-15, 2)), (2, (15, 2)), (-3, (3, 1)), (3, (-3, 1))], [],
         [(-2, (9, 1)), (2, (-9, 1))],
         ['-0x1.76019599be67fp-3', '-0x1.47c52d3d22804p-2', '-0x1.5555555555556p-2']),
        '(1/3*s^-1 - 5/6 + 1/3*s^1 - 5/6*s^2 + 1/3*s^3)/(1 + s^2)',
        ([(-1, (1, 3)), (0, (-5, 6)), (1, (1, 3)), (2, (-5, 6)), (3, (1, 3))], [],
         [(0, (1, 1)), (2, (1, 1))],
         ['-0x1.76019599be67fp-3', '-0x1.47c52d3d22804p-2', '-0x1.5555555555556p-2']),
    ),
    'unreduced_sum': (
        ([(-1, (1, 1)), (1, (-1, 1))], [(-4, (1, 1)), (2, (-1, 1))],
         [(-2, (1, 1)), (2, (-1, 1))],
         ['0x1.cdc20f7662ba8p+2', '0x1.96ac55f6b49b3p+1', '0x1.4f876ccdf6cdap+1']),
        '(s^1 + (s^-2 + 1 + s^2)*r)/(1 + s^2)',
        ([(1, (1, 1))], [(-2, (1, 1)), (0, (1, 1)), (2, (1, 1))],
         [(0, (1, 1)), (2, (1, 1))],
         ['0x1.cdc20f7662ba8p+2', '0x1.96ac55f6b49b3p+1', '0x1.4f876ccdf6cdap+1']),
    ),
    'non_monic_binomial': (
        ([(1, (1, 1)), (0, (1, 2))], [], [(0, (-2, 1)), (1, (1, 1))],
         ['-0x1.715fd17aed608p-1', '-0x1.2623df522d72fp+0', '-0x1.8000000000000p+0']),
        '(1/2 + s^1)/(-2 + s^1)',
        ([(1, (1, 1)), (0, (1, 2))], [], [(0, (-2, 1)), (1, (1, 1))],
         ['-0x1.715fd17aed608p-1', '-0x1.2623df522d72fp+0', '-0x1.8000000000000p+0']),
    ),
    'harmonic_sum': (
        None,
        ('(1 + s^2 + 3*s^4 + 2*s^6 + 4*s^8 + 3*s^10 + 4*s^12 + 2*s^14 + 3*s^16 + s^18 + '
         's^20)/(1 + 2*s^4 + 3*s^8 + 3*s^12 + 2*s^16 + s^20)'),
        ([(0, (1, 1)), (2, (1, 1)), (4, (3, 1)), (6, (2, 1)), (8, (4, 1)), (10, (3, 1)),
          (12, (4, 1)), (14, (2, 1)), (16, (3, 1)), (18, (1, 1)), (20, (1, 1))],
         [],
         [(0, (1, 1)), (4, (2, 1)), (8, (3, 1)), (12, (3, 1)), (16, (2, 1)), (20, (1, 1))],
         ['0x1.61bb120947126p+0', '0x1.f04b671927f57p+0', '0x1.0aaaaaaaaaaabp+1']),
    ),
}


def _float_hex(x, q):
    try:
        return x.eval_float(q).hex()
    except ZeroDivisionError:
        return "ZeroDivisionError"


def _stored_form(x):
    def items(p):
        for c in p.values():
            assert type(c) is Fraction
        return [(e, (c.numerator, c.denominator)) for e, c in p.items()]
    return (items(x.pe), items(x.pr), items(x.den),
            [_float_hex(x, q) for q in (0.3, 0.7, 1.0)])


@pytest.mark.parametrize("name", sorted(PINNED_CASES))
def test_stored_form_is_pinned(name):
    raw, text, reduced = PINNED[name]
    x = PINNED_CASES[name]()
    assert (None if x._reduced else _stored_form(x)) == raw
    assert repr(x) == text
    assert _stored_form(x) == reduced
    assert list(x.pe.items()) == [(e, Fraction(*c)) for e, c in reduced[0]]
    assert list(x.pr.items()) == [(e, Fraction(*c)) for e, c in reduced[1]]


def test_pinned_scalars_evaluate_finitely_at_q_one():
    # eval_float reads the reduced form: only a genuine pole (one that
    # limit_q_one also finds) may fail at q = 1, and every other value is
    # the exact limit
    for name in sorted(PINNED_CASES):
        x = PINNED_CASES[name]()
        if name == "pole_at_one":
            with pytest.raises(ZeroDivisionError):
                x.eval_float(1.0)
            with pytest.raises(ZeroDivisionError):
                x.limit_q_one()
            continue
        value = x.eval_float(1.0)
        u, v = x.limit_q_one()
        assert value == pytest.approx(u + v * 2 ** 0.5, rel=1e-15)


def _random_scalars(seed, count):
    """Deterministic three-level sums, differences, products and quotients
    of random atoms: rationals, s-powers, r, q-numbers and binomials."""
    rng = random.Random(seed)
    atoms = [lambda: rational(Fraction(rng.randint(-9, 9), rng.randint(1, 6))),
             lambda: s_pow(rng.randint(-6, 6)),
             lambda: ROOT_TWO_Q,
             lambda: qnum(rng.randint(1, 8)),
             lambda: q_pow(rng.randint(1, 3)) + q_pow(-rng.randint(1, 3))]

    def combine(x, y):
        op = rng.randrange(4)
        if op == 0:
            return x + y
        if op == 1:
            return x - y
        if op == 2 or not y:
            return x * y
        return x / y

    def leaf():
        return combine(rng.choice(atoms)(), rng.choice(atoms)())

    return [combine(combine(leaf(), leaf()), leaf()) for _ in range(count)]


def test_stored_form_digest_is_pinned():
    # 500 random scalars: a SHA-256 prefix over their stored forms before
    # and after reduction, their float values (of the reduced form, twice)
    # and their reprs
    h = hashlib.sha256()
    for x in _random_scalars(2406, 500):
        h.update(repr(_stored_form(x)).encode())
        h.update(repr(x).encode())
        h.update(repr(_stored_form(x)).encode())
    assert h.hexdigest()[:16] == "9caaaceb782fab4b"


# ---------------------------------------------------------------------------
# the integer storage and the reduction in t = s^k
# ---------------------------------------------------------------------------


def _view_float(x, q):
    """x at q from the Fraction views of its reduced form."""
    x._reduce()
    s = q ** 0.5
    r = (q + 1.0 / q) ** 0.5
    pe = sum(float(c) * s ** e for e, c in x.pe.items())
    pr = sum(float(c) * s ** e for e, c in x.pr.items())
    den = sum(float(c) * s ** e for e, c in x.den.items())
    return (pe + pr * r) / den


@given(scalars())
@settings(max_examples=60, deadline=None)
def test_eval_float_matches_the_fraction_view_bit_for_bit(x):
    for q in (0.3, 0.7, 1.0):
        try:
            want = _view_float(x, q).hex()
        except ZeroDivisionError:
            want = "ZeroDivisionError"
        assert _float_hex(x, q) == want


def test_views_are_copies():
    x = (qnum(3) + ROOT_TWO_Q) * rational(Fraction(2, 3))
    text, pe, pr, den = repr(x), x.pe, x.pr, x.den
    for view in (x.pe, x.pr, x.den):
        view[99] = Fraction(5)
        view.pop(0, None)
    assert (x.pe, x.pr, x.den) == (pe, pr, den)
    assert repr(x) == text


def test_deflated_reduction_when_only_den_is_a_polynomial_in_s4():
    # den is a polynomial in t = s^4 and the numerators are not, so the
    # reduction must run in s^2 (or s), not in s^4
    x = Scalar({2: 1, 0: -1}, {}, {4: 1, 0: -1})
    assert x == ONE / (s_pow(2) + ONE)
    assert repr(x) == "(1)/(1 + s^2)"
    y = Scalar({4: 1, 3: -1}, {}, {4: 1, 0: -1})
    assert y == s_pow(3) / (ONE + s_pow(1) + s_pow(2) + s_pow(3))
    assert repr(y) == "(s^3)/(1 + s^1 + s^2 + s^3)"


def _undeflated(pe, pr, den):
    """The reduction of _normalise, run on the polynomials in s itself:
    the reduced form's Fraction views, items in order."""
    lo = min(den)
    pe, pr, den = (_pshift(p, -lo) for p in (pe, pr, den))
    if len(den) > 1:
        g = _poly_gcd(_int_dense(pe or pr, 1), _int_dense(den, 1))
        if pe and pr and len(g) > 1:
            g = _poly_gcd(g, _int_dense(pr, 1))
        if len(g) > 1:
            pe, pr, den = (_pdiv_exact(p, g, 1) for p in (pe, pr, den))
    lead = den[max(den)]
    return [list(_fracs(p, lead).items()) for p in (pe, pr, den)]


# polynomials f(t) as {exponent: int} dicts
_T_POLYS = st.dictionaries(st.integers(0, 3), st.integers(-3, 3).filter(bool),
                           min_size=1, max_size=4)


@given(k=st.integers(1, 8), shifts=st.tuples(*[st.integers(-6, 6)] * 3),
       common=_T_POLYS, polys=st.tuples(_T_POLYS, _T_POLYS, _T_POLYS),
       with_pr=st.booleans())
@settings(max_examples=150, deadline=None)
def test_normalise_agrees_with_the_undeflated_gcd(k, shifts, common, polys,
                                                  with_pr):
    # numerators and den s^a * f(s^k) with a common factor, so the gcd is
    # usually nontrivial; the deflated reduction must give the same stored
    # form, order included, as the reduction on polynomials in s
    pe, pr, den = ({a + k * i: c for i, c in _pmul(common, f).items()}
                   for f, a in zip(polys, shifts))
    if not with_pr:
        pr = {}
    assume(pe or pr)
    pe2, pr2, den2, n = _normalise(pe, pr, den)
    got = [list(_fracs(p, n).items()) for p in (pe2, pr2, den2)]
    assert got == _undeflated(pe, pr, den)


# ---------------------------------------------------------------------------
# an independent oracle: sympy's cancel on the same expression in s
# ---------------------------------------------------------------------------


# An expression tree: ("c", Fraction) | ("s", k) | ("qnum", n) | (op, x, y)
_R_FREE_TREES = st.recursive(
    st.one_of(
        st.tuples(st.just("c"), st.fractions(-6, 6, max_denominator=4)),
        st.tuples(st.just("s"), st.integers(-5, 5)),
        st.tuples(st.just("qnum"), st.integers(1, 7)),
    ),
    lambda kids: st.tuples(st.sampled_from("+-*/"), kids, kids),
    max_leaves=8,
)


def _evaluate(tree, sympy, s):
    """(Scalar, sympy expression in s) for an expression tree.  A division
    by a zero Scalar returns the dividend on both sides."""
    kind = tree[0]
    if kind == "c":
        c = tree[1]
        return rational(c), sympy.Rational(c.numerator, c.denominator)
    if kind == "s":
        return s_pow(tree[1]), s ** tree[1]
    if kind == "qnum":
        n = tree[1]
        return qnum(n), (s ** -n - s ** n) / (s ** -2 - s ** 2)
    (x, ex), (y, ey) = (_evaluate(t, sympy, s) for t in tree[1:])
    if kind == "+":
        return x + y, ex + ey
    if kind == "-":
        return x - y, ex - ey
    if kind == "*":
        return x * y, ex * ey
    return (x / y, ex / ey) if y else (x, ex)


@given(_R_FREE_TREES)
@settings(max_examples=40, deadline=None)
def test_canonical_form_matches_sympy_cancel(tree):
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s", positive=True)
    x, expr = _evaluate(tree, sympy, s)
    repr(x)  # reduce
    assert not x.pr

    def laurent(p):
        return sum((sympy.Rational(c.numerator, c.denominator) * s ** e
                    for e, c in p.items()), sympy.Integer(0))

    num, den = laurent(x.pe), laurent(x.den)
    # the value agrees
    assert sympy.cancel(num / den - expr) == 0
    # den is an honest monic polynomial with lowest exponent 0
    assert min(x.den) == 0
    assert x.den[max(x.den)] == 1
    # numerator and den are coprime; s is a unit, so shift it away first
    if x.pe:
        num = sympy.expand(num * s ** -min(x.pe))
        assert sympy.degree(sympy.gcd(num, den), s) == 0
    else:
        assert x.den == {0: 1}
    # so den is sympy's reduced denominator up to a unit c*s^k
    _, sden = sympy.fraction(sympy.cancel(expr))
    sden = sympy.Poly(sden, s)
    sden = sympy.Poly(sympy.expand(sden.as_expr() / s ** min(sden.monoms())[0]),
                      s).monic()
    assert sympy.expand(sden.as_expr() - den) == 0


# ---------------------------------------------------------------------------
# clearing denominators
# ---------------------------------------------------------------------------

@given(st.lists(scalars(), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_cleared_scalars_are_laurent_polynomials(xs):
    d, cleared = clear_denominators(xs)
    assert not d.pr and d.den == {0: 1}
    assert min(d.pe) == 0 and d.pe[max(d.pe)] == 1
    for x, c in zip(xs, cleared):
        assert c == x * d
        assert clear_denominators([c])[0] == ONE


def test_clear_denominators_takes_the_lcm():
    # 1/[3]_q and 1/(q^2 + q^-2) are over 1 + s^4 + s^8 and 1 + s^8
    a, b = qnum(6).inverse(), (q_pow(2) + q_pow(-2)).inverse()
    three, q2 = Scalar({0: 1, 4: 1, 8: 1}), Scalar({0: 1, 8: 1})
    assert clear_denominators([a, b, a * b, ROOT_TWO_Q])[0] == three * q2
    assert clear_denominators([a, a.scale_s(3), -a])[0] == three
    assert clear_denominators([])[0] == ONE


# ---------------------------------------------------------------------------
# the kernels for units, equal denominators and binomial divisors
# ---------------------------------------------------------------------------
#
# The oracle is plain dict arithmetic on the Fraction views: each product
# term accumulated in loop order, a key deleted when it cancels.  That is
# the arithmetic whose stored form, key order included, the kernels keep.


def _vadd(*ps):
    out = {}
    for p in ps:
        for e, c in p.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def _vmul(p1, p2):
    return _vadd(*({e1 + e2: c1 * c2} for e1, c1 in p1.items()
                   for e2, c2 in p2.items()))


def _general_product(x, y, e=0):
    """x * y * s^e by the formula (pe1 + pr1 r)(pe2 + pr2 r) / (d1 d2),
    r^2 = s^2 + s^-2, from the views."""
    rsq, se = {2: 1, -2: 1}, {e: 1}
    pe = _vadd(_vmul(x.pe, y.pe), _vmul(rsq, _vmul(x.pr, y.pr)))
    pr = _vadd(_vmul(x.pe, y.pr), _vmul(x.pr, y.pe))
    return Scalar(_vmul(pe, se), _vmul(pr, se), _vmul(x.den, y.den))


def _both_forms(x):
    """The stored form as held, then after the reduction eval_float runs."""
    return _stored_form(x), _stored_form(x)


UNITS = [s_pow(k) * sign for k in range(-5, 6) for sign in (ONE, -ONE)] + \
    [ROOT_TWO_Q.scale_s(k) * sign for k in range(-5, 6) for sign in (ONE, -ONE)]


def _views(*xs):
    """The stored form without eval_float, which would reduce it."""
    return [[list(p.items()) for p in (x.pe, x.pr, x.den)] for x in xs]


def _check_unit_product(x, u, e):
    before = _views(x, u)
    hexes = _stored_form(x)[3] if x._reduced else None
    for got in (x.mul_s(u, e), u.mul_s(x, e)):
        assert _both_forms(got) == _both_forms(_general_product(x, u, e))
    # the operands are not touched, though a shift may share their dicts
    assert _views(x, u) == before
    if hexes is not None:
        assert _stored_form(x)[3] == hexes


def test_units_are_recognised():
    assert all(_unit(u) is not None for u in UNITS)
    for x in (rational(2), rational(Fraction(1, 2)), qnum(3), qnum(4),
              s_pow(1) + ROOT_TWO_Q, ROOT_TWO_Q.inverse(),
              Scalar({3: 1}, {}, {2: 1})):
        assert _unit(x) is None
    assert _unit(-ROOT_TWO_Q.scale_s(3)) == (3, -1, True)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_unit_products_match_the_general_formula(seed):
    rng = random.Random(seed)
    for x in _random_scalars(seed, 60):
        if x:
            _check_unit_product(x, rng.choice(UNITS), rng.randint(-4, 4))


@given(scalars(), st.sampled_from(UNITS), st.integers(-4, 4),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_unit_products_keep_the_stored_form(x, u, e, reduce_first):
    assume(x)
    if reduce_first:
        x._reduce()
    _check_unit_product(x, u, e)


def test_unit_shift_keeps_a_reduced_operand_reduced():
    # over a den of more than _LAZY_DEN_TERMS terms the product needs no
    # new reduction: the dicts are the operand's, shifted, in its order
    x = (s_pow(1) + rational(Fraction(2, 3)) * ROOT_TWO_Q.scale_s(-3)) \
        / (q_pow(2) + ONE + q_pow(-2))
    assert x._reduced and len(x._den) > 2
    y = x.mul_s(-s_pow(3), 2)
    assert y._reduced
    assert list(y.pe.items()) == [(k + 5, -c) for k, c in x.pe.items()]
    assert list(y.pr.items()) == [(k + 5, -c) for k, c in x.pr.items()]
    assert list(y.den.items()) == list(x.den.items())


@given(scalars(), scalars(), st.integers(-4, 4))
@settings(max_examples=100, deadline=None)
def test_shifted_products_match_the_general_formula(x, y, e):
    # no unit: s^e moves onto the factor with fewer terms first
    assume(x and y)
    assert _both_forms(x.mul_s(y, e)) == _both_forms(_general_product(x, y, e))


_DENS = [qnum(6), q_pow(2) + q_pow(-2), qnum(3), ROOT_TWO_Q + ONE,
         rational(Fraction(3, 4)) * qnum(5)]


def _laurent(terms):
    """sum c s^k r^j over (c, k, j) with j in {0, 1}."""
    return sum((rational(c) * s_pow(k) * ROOT_TWO_Q ** j for c, k, j in terms),
               ZERO)


def _check_same_den_sum(x, y):
    before = _views(x, y)
    got = x + y
    want = Scalar(_vadd(x.pe, y.pe), _vadd(x.pr, y.pr), x.den)
    assert _both_forms(got) == _both_forms(want)
    # the value is that of the cross formula over den1 * den2
    assert got == Scalar(_vadd(_vmul(x.pe, y.den), _vmul(y.pe, x.den)),
                         _vadd(_vmul(x.pr, y.den), _vmul(y.pr, x.den)),
                         _vmul(x.den, y.den))
    assert _views(x, y) == before


def test_equal_denominators_add_numerators():
    # pairs over one denominator, as the leg walk makes them: Laurent
    # polynomials in s and r times one inverse
    rng = random.Random(11)
    checked = 0
    while checked < 120:
        inv = rng.choice(_DENS).inverse()
        x, y = ([(rng.randint(-3, 3), rng.randint(-6, 6), rng.randint(0, 1))
                 for _ in range(4)] for _ in range(2))
        x, y = _laurent(x) * inv, _laurent(y) * inv
        if x and y and x._n == y._n and x._den == y._den:
            _check_same_den_sum(x, y)
            checked += 1


_TERMS = st.lists(st.tuples(st.integers(-3, 3), st.integers(-6, 6),
                            st.integers(0, 1)), min_size=1, max_size=4)


@given(_TERMS, _TERMS, st.sampled_from(_DENS), st.booleans())
@settings(max_examples=100, deadline=None)
def test_equal_denominator_sums_keep_the_stored_form(a, b, den, reduce_first):
    inv = den.inverse()
    x, y = _laurent(a) * inv, _laurent(b) * inv
    if reduce_first:
        x._reduce(), y._reduce()
    assume(x and y and x._n == y._n and x._den == y._den)
    _check_same_den_sum(x, y)


def _long_rem(a, b):
    """a mod b by long division, one step per degree, for a divisor with
    leading coefficient +-1; content-stripped like _int_prem."""
    r, m = list(a), len(b) - 1
    while len(r) > m:
        f = r.pop() * b[-1]
        for j in range(m):
            r[len(r) - m + j] -= f * b[j]
    while r and r[-1] == 0:
        r.pop()
    g = 0
    for v in r:
        g = gcd(g, v)
    return [v // g for v in r] if g > 1 else r


@given(b0=st.integers(1, 5), neg0=st.booleans(), bm=st.sampled_from([1, -1]),
       m=st.integers(1, 8),
       a=st.lists(st.integers(-6, 6), min_size=1, max_size=30),
       sparse=st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_binomial_divisor_folds_to_the_long_division(b0, neg0, bm, m, a,
                                                     sparse):
    # every sparse-th coefficient only, so some residue classes mod m are
    # empty; a may be shorter than b
    a = [c if i % sparse == 0 else 0 for i, c in enumerate(a)]
    while a and a[-1] == 0:
        a.pop()
    assume(a)
    b = [-b0 if neg0 else b0] + [0] * (m - 1) + [bm]
    want = _long_rem(a, b)
    for got in (_fold_rem(a, b), _int_prem(a, b)):
        assert got in (want, [-c for c in want])


def test_binomial_divisor_edge_cases():
    b = [1, 0, 0, 1]  # 1 + t^3
    assert _fold_rem([2], b) == [1]
    assert _fold_rem([1, 0, 0, 1], b) == []
    # 3t + 6t^4 = 3t - 6t = -3t modulo 1 + t^3
    assert _fold_rem([0, 3, 0, 0, 6], b) == [0, -1]
    # 5 + 2t^2 + t^6 = 14 + 2t^2 modulo 3 + t^3: the class of t is empty
    assert _fold_rem([5, 0, 2, 0, 0, 0, 1], [3, 0, 0, 1]) == [7, 0, 1]


# ---------------------------------------------------------------------------
# the exact dot product
# ---------------------------------------------------------------------------


def _held(*xs):
    """The stored form as held, read without reducing it."""
    return [([list(p.items()) for p in (x._pe, x._pr, x._den)], x._n,
             x._reduced) for x in xs]


def _check_dot(xs, ys):
    before = _held(*xs, *ys)
    got = dot(xs, ys)
    want = sum((x * y for x, y in zip(xs, ys)), ZERO)
    assert got._reduced
    want._reduce()
    assert repr(got) == repr(want)
    assert (got.pe, got.pr, got.den) == (want.pe, want.pr, want.den)
    assert got == want
    for view in (got.pe, got.pr, got.den):
        assert list(view) == sorted(view)
    assert _held(*xs, *ys) == before
    return got


# dens with an s-shift, a negative leading coefficient, integer content
# n > 1, or several of these, held unreduced
_ODD_DENS = [
    qnum(3),  # over s^-2 - s^2
    Scalar({1: 3}, {0: 1}, {-2: -2, 2: 2}),
    Scalar({0: 1}, {}, {0: 2, 4: 2}),
    Scalar({3: -5}, {-1: 2}, {-4: -3, 4: -6}),
    rational(Fraction(-7, 4)) * qnum(5),
]


def test_odd_denominators_are_held_as_such():
    assert [(min(x._den), x._den[max(x._den)] < 0) for x in _ODD_DENS[:4]] \
        == [(-2, True), (-2, False), (0, False), (-4, True)]
    assert _ODD_DENS[2]._den == {0: 2, 4: 2}
    assert _ODD_DENS[3]._den == {-4: -3, 4: -6}
    assert _ODD_DENS[4]._n > 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dot_is_the_sequential_sum(seed):
    rng = random.Random(seed)
    pool = _random_scalars(seed, 80) + _ODD_DENS + [ROOT_TWO_Q, ZERO]
    for _ in range(40):
        k = rng.randint(1, 7)
        _check_dot(rng.sample(pool, k), rng.sample(pool, k))


@given(st.lists(st.tuples(scalars(), scalars()), max_size=5))
@settings(max_examples=100, deadline=None)
def test_dot_keeps_the_stored_form_of_the_sum(pairs):
    _check_dot([x for x, _ in pairs], [y for _, y in pairs])


def test_dot_edge_cases():
    x, y = _ODD_DENS[3], qnum(6).inverse()
    assert dot([], []) is ZERO
    assert dot([x, ZERO], [ZERO, y]) is ZERO
    # a sum that cancels
    assert _check_dot([x, -x], [y, y]) is ZERO
    assert _check_dot([x, x.scale_s(2)], [y, -y.scale_s(-2)]) is ZERO
    # one pair is the reduced product
    assert repr(_check_dot([x], [y])) == repr(x * y)
