"""Field axioms and pinned values for the scalar field K."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsphere.coeff import ONE, ROOT_TWO_Q, ZERO, Scalar, q_pow, qnum, rational, s_pow


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
    assert x.eval_rational(Fraction(1, 2)) == Fraction(5, 2)
    assert abs(x.eval_float(0.5) - 2.5) < 1e-12
    with pytest.raises(ValueError):
        s_pow(1).eval_rational(Fraction(1, 2))
    with pytest.raises(ValueError):
        ROOT_TWO_Q.eval_rational(Fraction(1, 2))


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


# ---------------------------------------------------------------------------
# the stored form, pinned bit for bit
# ---------------------------------------------------------------------------
#
# ``repr`` (hashed by the curvature goldens), equality and hashing, and
# ``eval_float`` (which sums in dict order and so feeds the spectra Gram
# matrices) all read the stored dicts.  The kernels may change; the keys,
# the Fraction values and the insertion order of ``pe``, ``pr`` and ``den``
# may not, reduced or unreduced.  Each case records the unreduced form where
# the constructor defers reduction (``None`` where it does not), the repr,
# and the reduced form; each form as its three dicts' items, as
# (exponent, (numerator, denominator)) in insertion order, then eval_float
# at q = 0.3, 0.7, 1.0 as float.hex().


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
         ['0x1.f3bf67e658991p+0', '0x1.8a2c1e12261fep+0', 'ZeroDivisionError']),
        '(s^-1 + s^1 + s^3)/(1 + s^2)',
        ([(-1, (1, 1)), (1, (1, 1)), (3, (1, 1))], [], [(0, (1, 1)), (2, (1, 1))],
         ['0x1.f3bf67e658992p+0', '0x1.8a2c1e12261fdp+0', '0x1.8000000000000p+0']),
    ),
    'qnum_5_2': (
        ([(-5, (1, 1)), (5, (-1, 1))], [], [(-2, (1, 1)), (2, (-1, 1))],
         ['0x1.aaf9010eabbdfp+2', '0x1.648433251b048p+1', 'ZeroDivisionError']),
        '(s^-3 + s^-1 + s^1 + s^3 + s^5)/(1 + s^2)',
        ([(-3, (1, 1)), (-1, (1, 1)), (1, (1, 1)), (3, (1, 1)), (5, (1, 1))], [],
         [(0, (1, 1)), (2, (1, 1))],
         ['0x1.aaf9010eabbe2p+2', '0x1.648433251b049p+1', '0x1.4000000000000p+1']),
    ),
    'qnum_2': (
        ([(-4, (1, 1)), (4, (-1, 1))], [], [(-2, (1, 1)), (2, (-1, 1))],
         ['0x1.d111111111111p+1', '0x1.1075075075075p+1', 'ZeroDivisionError']),
        's^-2 + s^2',
        ([(-2, (1, 1)), (2, (1, 1))], [], [(0, (1, 1))],
         ['0x1.d111111111112p+1', '0x1.1075075075075p+1', '0x1.0000000000000p+1']),
    ),
    'qnum_ratio': (
        ([(-6, (1, 1)), (6, (-1, 1))], [], [(-2, (1, 1)), (2, (-1, 1))],
         ['0x1.866f8091a2b3dp+3', '0x1.c3f1ca1550e00p+1', 'ZeroDivisionError']),
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
         ['0x1.0c9b64e113baap-1', '0x1.5eef2fd139645p-1', '0x1.6a09e667f3bcdp-1']),
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
         ['0x1.1154fe1d23216p+7', '0x1.1df276ad4716ap+3', '0x1.8000000000000p+2']),
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
         ['0x1.7563b751b5edep+0', '0x1.7a2283be14090p-4', 'ZeroDivisionError']),
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
         ['0x1.53f6d5834e492p+7', '0x1.71624a78191b3p+5', 'ZeroDivisionError']),
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
         ['-0x1.76019599be67cp-3', '-0x1.47c52d3d22804p-2', 'ZeroDivisionError']),
        '(1/3*s^-1 - 5/6 + 1/3*s^1 - 5/6*s^2 + 1/3*s^3)/(1 + s^2)',
        ([(-1, (1, 3)), (0, (-5, 6)), (1, (1, 3)), (2, (-5, 6)), (3, (1, 3))], [],
         [(0, (1, 1)), (2, (1, 1))],
         ['-0x1.76019599be67fp-3', '-0x1.47c52d3d22804p-2', '-0x1.5555555555556p-2']),
    ),
    'unreduced_sum': (
        ([(-1, (1, 1)), (1, (-1, 1))], [(-4, (1, 1)), (2, (-1, 1))],
         [(-2, (1, 1)), (2, (-1, 1))],
         ['0x1.cdc20f7662ba6p+2', '0x1.96ac55f6b49b4p+1', 'ZeroDivisionError']),
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
    # and after reduction, their float values and their reprs
    h = hashlib.sha256()
    for x in _random_scalars(2406, 500):
        h.update(repr(_stored_form(x)).encode())
        h.update(repr(x).encode())
        h.update(repr(_stored_form(x)).encode())
    assert h.hexdigest()[:16] == "b33b3a9948bdcd50"


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
