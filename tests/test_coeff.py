"""Field axioms and pinned values for the scalar field K."""

import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qsphere.coeff import (
    ONE, ROOT_TWO_Q, ZERO, Scalar, _cyclotomic, _dense, _divide, _expansion,
    _factor, _pmul, _reduce, _unit, accumulate, dot, q_pow, qnum, rational,
    s_pow,
)


def _sympy():
    return pytest.importorskip("sympy")


def _outside_the_ring(p):
    """Whether sympy finds a factor other than c s^k and cyclotomic
    polynomials in the Laurent polynomial {exponent: Fraction} p."""
    sympy = _sympy()
    s = sympy.Symbol("s")
    lo = min(p)
    poly = sympy.Poly(sum((sympy.Rational(c.numerator, c.denominator)
                           * s ** (e - lo) for e, c in p.items()),
                          sympy.Integer(0)), s)
    return not all(f.is_cyclotomic for f, _ in poly.factor_list()[1])


def _norm(x):
    """pe^2 - pr^2 (s^2 + s^-2) of x's views: x.inverse() lies in the
    cyclotomic ring exactly when this does."""
    def mul(p1, p2):
        out = {}
        for e1, c1 in p1.items():
            for e2, c2 in p2.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return out
    out = mul(x.pe, x.pe)
    for e, c in mul({2: 1, -2: 1}, mul(x.pr, x.pr)).items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def _divide_or_raise(x, y):
    """x / y where y^-1 lies in the cyclotomic ring.  Otherwise None, once
    the ValueError is asserted to name y and sympy confirms that y's norm
    has a factor outside the ring."""
    try:
        return x / y
    except ValueError as exc:
        assert "outside the cyclotomic ring" in str(exc)
        assert repr(y) in str(exc)
        assert _outside_the_ring(_norm(y))
        return None


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
    # in the ring x * x^-1 = 1; outside it inverse() raises, and sympy
    # agrees that the norm has a non-cyclotomic factor
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    elif _outside_the_ring(_norm(x)):
        with pytest.raises(ValueError, match="outside the cyclotomic ring"):
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
# ``pe``, ``pr`` and ``den`` are Fraction views of the reduced form,
# exponents ascending: the numerators over n and the expanded monic
# denominator.  ``repr`` (hashed by the curvature goldens), equality,
# hashing and ``eval_float`` read only that form, which is unique.  Each
# case records the repr and the form, as its three dicts' items,
# (exponent, (numerator, denominator)), then eval_float at q = 0.3, 0.7,
# 1.0 as float.hex(); a case outside the cyclotomic ring records the
# ValueError its construction raises.


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
    'half_integer_qnum': ('(s^-1 + s^1 + s^3)/(1 + s^2)',
     ([(-1, (1, 1)), (1, (1, 1)), (3, (1, 1))], [], [(0, (1, 1)), (2, (1, 1))],
      ['0x1.f3bf67e658992p+0', '0x1.8a2c1e12261fdp+0', '0x1.8000000000000p+0'])),
    'qnum_5_2': ('(s^-3 + s^-1 + s^1 + s^3 + s^5)/(1 + s^2)',
     ([(-3, (1, 1)), (-1, (1, 1)), (1, (1, 1)), (3, (1, 1)), (5, (1, 1))], [],
      [(0, (1, 1)), (2, (1, 1))],
      ['0x1.aaf9010eabbe2p+2', '0x1.648433251b049p+1', '0x1.4000000000000p+1'])),
    'qnum_2': ('s^-2 + s^2',
     ([(-2, (1, 1)), (2, (1, 1))], [], [(0, (1, 1))],
      ['0x1.d111111111112p+1', '0x1.1075075075075p+1', '0x1.0000000000000p+1'])),
    'qnum_ratio': ('s^-4 + 1 + s^4',
     ([(-4, (1, 1)), (0, (1, 1)), (4, (1, 1))], [], [(0, (1, 1))],
      ['0x1.866f8091a2b3ep+3', '0x1.c3f1ca1550e01p+1', '0x1.8000000000000p+1'])),
    's_cubed_plus_r': ('s^3 + (1)*r',
     ([(3, (1, 1))], [(0, (1, 1))], [(0, (1, 1))],
      ['0x1.09046a2e24accp+1', '0x1.05b6412b22e5fp+1', '0x1.3504f333f9de6p+1'])),
    'inverse_r': ('((s^2)*r)/(1 + s^4)',
     ([], [(2, (1, 1))], [(0, (1, 1)), (4, (1, 1))],
      ['0x1.0c9b64e113babp-1', '0x1.5eef2fd139645p-1', '0x1.6a09e667f3bcdp-1'])),
    'mixed_product': ('(s^-4 + 2*s^-2 + 3 + 3*s^2 + 3*s^4 + 2*s^6 + s^8 + (s^-3 + 2*s^-1 + 2*s^1 + '
     '2*s^3 + 2*s^5 + s^7)*r)/(1 + 2*s^2 + s^4)',
     ([(-4, (1, 1)), (-2, (2, 1)), (0, (3, 1)), (2, (3, 1)), (4, (3, 1)),
       (6, (2, 1)), (8, (1, 1))],
      [(-3, (1, 1)), (-1, (2, 1)), (1, (2, 1)), (3, (2, 1)), (5, (2, 1)),
       (7, (1, 1))],
      [(0, (1, 1)), (2, (2, 1)), (4, (1, 1))],
      ['0x1.9bd80ccc27247p+4', '0x1.0b4571e98ad31p+3', '0x1.d2463000f8560p+2'])),
    'qbinomial_4_2': ('s^-8 + s^-4 + 2 + s^4 + s^8',
     ([(-8, (1, 1)), (-4, (1, 1)), (0, (2, 1)), (4, (1, 1)), (8, (1, 1))], [],
      [(0, (1, 1))],
      ['0x1.1154fe1d23215p+7', '0x1.1df276ad4716ap+3', '0x1.8000000000000p+2'])),
    'qbinomial_6_3': ('s^-18 + s^-14 + 2*s^-10 + 3*s^-6 + 3*s^-2 + 3*s^2 + 3*s^6 + 2*s^10 + s^14 + '
     's^18',
     ([(-18, (1, 1)), (-14, (1, 1)), (-10, (2, 1)), (-6, (3, 1)), (-2, (3, 1)),
       (2, (3, 1)), (6, (3, 1)), (10, (2, 1)), (14, (1, 1)), (18, (1, 1))],
      [], [(0, (1, 1))],
      ['0x1.b805c25c506aep+15', '0x1.05c5f332e9ad2p+6', '0x1.4000000000000p+4'])),
    'pole_at_one': ('(s^2)/(-1 + s^4)',
     ([(2, (1, 1))], [], [(0, (-1, 1)), (4, (1, 1))],
      ['-0x1.5195195195194p-2', '-0x1.5f5f5f5f5f5f6p+0', 'ZeroDivisionError'])),
    'cyclotomic_inverse': ('(s^4)/(1 + s^8)',
     ([(4, (1, 1))], [], [(0, (1, 1)), (8, (1, 1))],
      ['0x1.6dad91f0ea709p-4', '0x1.949cced90bb48p-2', '0x1.0000000000000p-1'])),
    'inverse_sum': ('(s^-4 + s^-2 + 1 + s^2 + s^4 + s^6 + s^8 + (s^-1 + s^1 + s^3)*r)/(1 + s^2 + '
     's^4)',
     ([(-4, (1, 1)), (-2, (1, 1)), (0, (1, 1)), (2, (1, 1)), (4, (1, 1)),
       (6, (1, 1)), (8, (1, 1))],
      [(-1, (1, 1)), (1, (1, 1)), (3, (1, 1))],
      [(0, (1, 1)), (2, (1, 1)), (4, (1, 1))],
      ['0x1.dcb48e872864dp+3', '0x1.26081ae06533fp+2', '0x1.dfaf9ddea4891p+1'])),
    'rational_combination': ('3/7*s^-2 + 3/7*s^2 - 2*s^5',
     ([(-2, (3, 7)), (2, (3, 7)), (5, (-2, 1))], [], [(0, (1, 1))],
      ['0x1.7563b751b5ee0p+0', '0x1.7a2283be14090p-4', '-0x1.2492492492492p+0'])),
    'inverse_with_r': ('s^-3 + 2*s^-1 + 2*s^1 + s^3 + (-s^-2 - 2 - s^2)*r',
     ([(-3, (1, 1)), (-1, (2, 1)), (1, (2, 1)), (3, (1, 1))],
      [(-2, (-1, 1)), (0, (-2, 1)), (2, (-1, 1))], [(0, (1, 1))],
      ['0x1.0967685b03ca0p-2', '0x1.557b4501813a0p-2', '0x1.5f619980c4330p-2'])),
    'cube_with_r': ('s^-6 + 3*s^-4 + 3*s^-2 + 6 + 3*s^2 + 3*s^4 + s^6 + (3*s^-4 + s^-2 + 6 + s^2 '
     '+ 3*s^4)*r',
     ([(-6, (1, 1)), (-4, (3, 1)), (-2, (3, 1)), (0, (6, 1)), (2, (3, 1)),
       (4, (3, 1)), (6, (1, 1))],
      [(-4, (3, 1)), (-2, (1, 1)), (0, (6, 1)), (2, (1, 1)), (4, (3, 1))],
      [(0, (1, 1))],
      ['0x1.53f6d5834e494p+7', '0x1.71624a78191b4p+5', '0x1.3e6454cd7aa2ap+5'])),
    'quotient_with_r': ('(-s^5 - s^7 + (s^2 + s^4 + s^6)*r)/(1 + s^2 + s^3 + s^4 + s^5 + s^6 + s^8)',
     ([(5, (-1, 1)), (7, (-1, 1))], [(2, (1, 1)), (4, (1, 1)), (6, (1, 1))],
      [(0, (1, 1)), (2, (1, 1)), (3, (1, 1)), (4, (1, 1)), (5, (1, 1)), (6, (1, 1)),
       (8, (1, 1))],
      ['0x1.c8a569387d284p-2', '0x1.a256ada394914p-2', '0x1.4810f8b2341f2p-2'])),
    'cyclotomic_product': ('(s^12)/(1 + s^4 + s^8 + 2*s^12 + s^16 + s^20 + s^24)',
     ([(12, (1, 1))], [],
      [(0, (1, 1)), (4, (1, 1)), (8, (1, 1)), (12, (2, 1)), (16, (1, 1)),
       (20, (1, 1)), (24, (1, 1))],
      ['0x1.5b93acb312f17p-11', '0x1.d2b0fde6025d3p-5', '0x1.0000000000000p-3'])),
    'difference_of_squares': ('s^-2 + s^2',
     ([(-2, (1, 1)), (2, (1, 1))], [], [(0, (1, 1))],
      ['0x1.d111111111112p+1', '0x1.1075075075075p+1', '0x1.0000000000000p+1'])),
    'rational_content': ('(1/3*s^-1 - 5/6 + 1/3*s^1 - 5/6*s^2 + 1/3*s^3)/(1 + s^2)',
     ([(-1, (1, 3)), (0, (-5, 6)), (1, (1, 3)), (2, (-5, 6)), (3, (1, 3))], [],
      [(0, (1, 1)), (2, (1, 1))],
      ['-0x1.76019599be67fp-3', '-0x1.47c52d3d22804p-2', '-0x1.5555555555556p-2'])),
    'unreduced_sum': ('(s^1 + (s^-2 + 1 + s^2)*r)/(1 + s^2)',
     ([(1, (1, 1))], [(-2, (1, 1)), (0, (1, 1)), (2, (1, 1))],
      [(0, (1, 1)), (2, (1, 1))],
      ['0x1.cdc20f7662ba8p+2', '0x1.96ac55f6b49b3p+1', '0x1.4f876ccdf6cdap+1'])),
    'non_monic_binomial': ValueError,
    'harmonic_sum': ('(1 + s^2 + 3*s^4 + 2*s^6 + 4*s^8 + 3*s^10 + 4*s^12 + 2*s^14 + 3*s^16 + s^18 '
     '+ s^20)/(1 + 2*s^4 + 3*s^8 + 3*s^12 + 2*s^16 + s^20)',
     ([(0, (1, 1)), (2, (1, 1)), (4, (3, 1)), (6, (2, 1)), (8, (4, 1)),
       (10, (3, 1)), (12, (4, 1)), (14, (2, 1)), (16, (3, 1)), (18, (1, 1)),
       (20, (1, 1))],
      [],
      [(0, (1, 1)), (4, (2, 1)), (8, (3, 1)), (12, (3, 1)), (16, (2, 1)),
       (20, (1, 1))],
      ['0x1.61bb120947126p+0', '0x1.f04b671927f57p+0', '0x1.0aaaaaaaaaaabp+1'])),
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
    if PINNED[name] is ValueError:
        with pytest.raises(ValueError, match="outside the cyclotomic ring"):
            PINNED_CASES[name]()
        return
    text, form = PINNED[name]
    x = PINNED_CASES[name]()
    assert repr(x) == text
    assert _stored_form(x) == form
    assert list(x.pe.items()) == [(e, Fraction(*c)) for e, c in form[0]]
    assert list(x.pr.items()) == [(e, Fraction(*c)) for e, c in form[1]]


def test_pinned_scalars_evaluate_finitely_at_q_one():
    # eval_float reads the reduced form: only a genuine pole (one that
    # limit_q_one also finds) may fail at q = 1, and every other value is
    # the exact limit; a case outside the ring has no value
    for name in sorted(PINNED_CASES):
        if PINNED[name] is ValueError:
            continue
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
    of random atoms: rationals, s-powers, r, q-numbers and binomials.  A
    quotient by a divisor outside the cyclotomic ring raises, which
    ``_divide_or_raise`` asserts, and is replaced by its dividend."""
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
        z = _divide_or_raise(x, y)
        return x if z is None else z

    def leaf():
        return combine(rng.choice(atoms)(), rng.choice(atoms)())

    return [combine(combine(leaf(), leaf()), leaf()) for _ in range(count)]


def test_stored_form_digest_is_pinned():
    # 500 random scalars: a SHA-256 prefix over their stored forms with
    # their float values, and their reprs
    h = hashlib.sha256()
    for x in _random_scalars(2406, 500):
        h.update(repr(_stored_form(x)).encode())
        h.update(repr(x).encode())
    assert h.hexdigest()[:16] == "ce398dd62fce3ebc"


# ---------------------------------------------------------------------------
# the integer storage, the cyclotomic factors and the reduction in t = s^k
# ---------------------------------------------------------------------------


def _view_float(x, q):
    """x at q from the Fraction views of its reduced form."""
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


def _tmul(*fs):
    """The product of dense int polynomials."""
    out = [1]
    for f in fs:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def _spread(f, k):
    """The dense coefficients of f(t^k) from those of f(t)."""
    out = [0] * ((len(f) - 1) * k + 1)
    for i, v in enumerate(f):
        out[i * k] = v
    return out


# polynomials f(t), dense, with a nonzero last coefficient
_T_POLYS = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(
    lambda f: f[:-1] + [f[-1] or 1])
_ORDERS = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12])


@given(k=st.integers(1, 8), orders=st.lists(_ORDERS, min_size=1, max_size=3,
                                           unique=True),
       exps=st.lists(st.integers(1, 2), min_size=3, max_size=3),
       shared=st.lists(st.integers(0, 2), min_size=3, max_size=3),
       polys=st.tuples(_T_POLYS, _T_POLYS), shifts=st.tuples(
           st.integers(-6, 6), st.integers(-6, 6)),
       n=st.integers(1, 6), with_pr=st.booleans())
@settings(max_examples=100, deadline=None)
def test_reduction_divides_out_the_shared_factors(
        k, orders, exps, shared, polys, shifts, n, with_pr):
    # den is a product of Phi_M(s^k)^e, the numerators s^a f(s^k) times
    # some power of each Phi_M(s^k), so that most reductions divide; sympy
    # checks that the value is kept, that no Phi_N left in den divides
    # both numerators and that n shares no factor with their content
    sympy = _sympy()
    s = sympy.Symbol("s")
    den = sympy.Integer(n)
    common = [1]
    for M, e, c in zip(orders, exps, shared):
        den *= sympy.cyclotomic_poly(M, s ** k) ** e
        common = _tmul(common, *[_spread(_cyclotomic(M), k)] * c)
    pe, pr = ({a + i: v for i, v in enumerate(_tmul(common, _spread(f, k)))
               if v} for f, a in zip(polys, shifts))
    if not with_pr:
        pr = {}
    factors = _factor(_poly_expand(den, s))[2]
    got_pe, got_pr, got_n, got_factors = _reduce(pe, pr, n, factors, None)
    got_den = got_n * sympy.prod(sympy.cyclotomic_poly(N, s) ** e
                                 for N, e in got_factors)

    def poly(p):
        return sum((v * s ** e for e, v in p.items()), sympy.Integer(0))

    for p, got in ((pe, got_pe), (pr, got_pr)):
        assert sympy.expand(poly(p) * got_den - poly(got) * den) == 0
    for N, _ in got_factors:
        phi = sympy.cyclotomic_poly(N, s)
        assert any(sympy.rem(sympy.expand(poly(p) * s ** -min(p)), phi, s)
                   != 0 for p in (got_pe, got_pr) if p)
    assert gcd(got_n, *got_pe.values(), *got_pr.values()) == 1


def _poly_expand(expr, s):
    """A sympy polynomial in s as an int {exponent: coefficient} dict."""
    return {e: int(c) for (e,), c in _sympy().Poly(expr, s).terms()}


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
    by a zero Scalar, or by one outside the cyclotomic ring
    (``_divide_or_raise``), returns the dividend on both sides."""
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
    if not y:
        return x, ex
    z = _divide_or_raise(x, y)
    return (x, ex) if z is None else (z, ex / ey)


@given(_R_FREE_TREES)
@settings(max_examples=40, deadline=None)
def test_canonical_form_matches_sympy_cancel(tree):
    sympy = _sympy()
    s = sympy.Symbol("s", positive=True)
    x, expr = _evaluate(tree, sympy, s)
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
# the kernels for units and equal denominators, and the monic division
# ---------------------------------------------------------------------------
#
# The oracle is plain dict arithmetic on the Fraction views, reduced by the
# constructor.  Every scalar is stored reduced, so a kernel keeps the stored
# form exactly when it keeps the value.


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


UNITS = [s_pow(k) * sign for k in range(-5, 6) for sign in (ONE, -ONE)] + \
    [ROOT_TWO_Q.scale_s(k) * sign for k in range(-5, 6) for sign in (ONE, -ONE)]


def _views(*xs):
    return [[list(p.items()) for p in (x.pe, x.pr, x.den)] for x in xs]


def _check_unit_product(x, u, e):
    before = _views(x, u)
    for got in (x.mul_s(u, e), u.mul_s(x, e)):
        assert _stored_form(got) == _stored_form(_general_product(x, u, e))
    # the operands are not touched, though a shift may share their dicts
    assert _views(x, u) == before


def test_units_are_recognised():
    assert all(_unit(u) is not None for u in UNITS)
    for x in (rational(2), rational(Fraction(1, 2)), qnum(3), qnum(4),
              s_pow(1) + ROOT_TWO_Q, ROOT_TWO_Q.inverse(),
              Scalar({3: 1}, {}, {2: 1, 0: 1})):
        assert _unit(x) is None
    assert _unit(-ROOT_TWO_Q.scale_s(3)) == (3, -1, True)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_unit_products_match_the_general_formula(seed):
    rng = random.Random(seed)
    for x in _random_scalars(seed, 60):
        if x:
            _check_unit_product(x, rng.choice(UNITS), rng.randint(-4, 4))


@given(scalars(), st.sampled_from(UNITS), st.integers(-4, 4))
@settings(max_examples=150, deadline=None)
def test_unit_products_keep_the_stored_form(x, u, e):
    assume(x)
    _check_unit_product(x, u, e)


def test_unit_shift_keeps_a_reduced_operand_reduced(monkeypatch):
    # an s-power shift runs no reduction: the dicts are the operand's,
    # shifted and negated, over the same factors and n
    import qsphere.coeff as coeff_mod
    x = (s_pow(1) + rational(Fraction(2, 3)) * ROOT_TWO_Q.scale_s(-3)) \
        / (q_pow(2) + ONE + q_pow(-2))
    assert x._factors == ((3, 1), (6, 1), (12, 1)) and x._n == 3

    def no_reduction(*args):
        raise AssertionError("reduced again")

    monkeypatch.setattr(coeff_mod, "_reduce", no_reduction)
    y = x.mul_s(-s_pow(3), 2)
    assert (y._factors, y._n) == (x._factors, x._n)
    assert y.pe == {k + 5: -c for k, c in x.pe.items()}
    assert y.pr == {k + 5: -c for k, c in x.pr.items()}
    assert y.den == x.den


@given(scalars(), scalars(), st.integers(-4, 4))
@settings(max_examples=100, deadline=None)
def test_shifted_products_match_the_general_formula(x, y, e):
    # no unit: mul_s forms the product, shifts it by s^e and reduces it
    assume(x and y)
    assert _stored_form(x.mul_s(y, e)) == \
        _stored_form(_general_product(x, y, e))


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
    assert _stored_form(got) == _stored_form(want)
    # the value is that of the cross formula over den1 * den2
    assert got == Scalar(_vadd(_vmul(x.pe, y.den), _vmul(y.pe, x.den)),
                         _vadd(_vmul(x.pr, y.den), _vmul(y.pr, x.den)),
                         _vmul(x.den, y.den))
    assert _views(x, y) == before


def _same_den(x, y):
    return x and y and x._n == y._n and x._factors == y._factors


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
        if _same_den(x, y):
            _check_same_den_sum(x, y)
            checked += 1


_TERMS = st.lists(st.tuples(st.integers(-3, 3), st.integers(-6, 6),
                            st.integers(0, 1)), min_size=1, max_size=4)


@given(_TERMS, _TERMS, st.sampled_from(_DENS))
@settings(max_examples=100, deadline=None)
def test_equal_denominator_sums_keep_the_stored_form(a, b, den):
    inv = den.inverse()
    x, y = _laurent(a) * inv, _laurent(b) * inv
    assume(_same_den(x, y))
    _check_same_den_sum(x, y)


@given(b0=st.integers(1, 5), neg0=st.booleans(), m=st.integers(1, 8),
       a=st.lists(st.integers(-6, 6), min_size=1, max_size=30),
       r=st.lists(st.integers(-3, 3), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_monic_division_is_exact_or_none(b0, neg0, m, a, r):
    # a binomial divisor b0 + t^m, the shape of Phi_4, Phi_8 and Phi_16:
    # the division of a multiple gives the cofactor back, and a multiple
    # plus a nonzero remainder of lower degree gives None
    while a and a[-1] == 0:
        a.pop()
    assume(a)
    b = [-b0 if neg0 else b0] + [0] * (m - 1) + [1]
    ab = _tmul(a, b)
    assert _divide(ab, b) == a
    r = r[:m]
    assume(any(r))
    near = [c + (r[i] if i < len(r) else 0) for i, c in enumerate(ab)]
    assert _divide(near, b) is None


def test_binomial_divisor_edge_cases():
    b = [1, 0, 0, 1]  # 1 + t^3
    assert _divide([1, 0, 0, 1], b) == [1]
    assert _divide([2], b) is None  # shorter than the divisor
    # 3t + 3t^4 = 3t (1 + t^3); 3t + 6t^4 leaves -3t
    assert _divide([0, 3, 0, 0, 3], b) == [0, 3]
    assert _divide([0, 3, 0, 0, 6], b) is None
    # 5 + 2t^2 + t^6 leaves 14 + 2t^2 modulo 3 + t^3
    assert _divide([5, 0, 2, 0, 0, 0, 1], [3, 0, 0, 1]) is None
    assert _divide(_tmul([5, 0, 2], [3, 0, 0, 1]), [3, 0, 0, 1]) == [5, 0, 2]


def _laurent_dicts():
    """Int Laurent dicts in s^step with no zero coefficient, and the step."""
    p = st.dictionaries(st.integers(-6, 6), st.integers(-6, 6).filter(bool),
                        min_size=1, max_size=7)
    return st.tuples(p, st.integers(1, 3)).map(
        lambda pk: ({e * pk[1]: c for e, c in pk[0].items()}, pk[1]))


def _ends_nonzero(a):
    return not a or a[-1] != 0


@given(_laurent_dicts(), st.sampled_from([1, 2, 3, 4, 6, 8, 12]))
@settings(max_examples=300, deadline=None)
def test_dense_lists_never_end_in_zero(pk, N):
    # _divide takes no step for a zero leading entry: every list it is
    # given comes from _dense, _cyclotomic or _divide, and none of them
    # returns a list that ends in 0
    a = _dense(*pk)
    phi = list(_cyclotomic(N))
    assert _ends_nonzero(a) and _ends_nonzero(phi)
    for q in (_divide(a, phi), _divide(_tmul(a, phi), phi),
              _divide(_tmul(a, phi, phi), phi)):
        assert q is None or _ends_nonzero(q)


# ---------------------------------------------------------------------------
# the cyclotomic ring: the factor table, factoring, and what lies outside
# ---------------------------------------------------------------------------


def test_cyclotomic_table_matches_sympy():
    sympy = _sympy()
    t = sympy.Symbol("t")
    for N in range(1, 101):
        want = sympy.Poly(sympy.cyclotomic_poly(N, t), t).all_coeffs()
        assert list(_cyclotomic(N)) == [int(c) for c in reversed(want)], N


# 1, 2 and the chain 4, 8, 16 share most of their binomials s^d - 1
_PHI_ORDERS = st.one_of(st.sampled_from([1, 2, 4, 8, 16]), st.integers(1, 60))


@given(st.dictionaries(_PHI_ORDERS, st.integers(1, 4), max_size=4))
@example({})
@settings(max_examples=100, deadline=None)
def test_expansion_is_the_product_of_cyclotomic_polynomials(exps):
    sympy = _sympy()
    s = sympy.Symbol("s")
    factors = tuple(sorted(exps.items()))
    got = _expansion(factors)
    want = sympy.Poly(1, s)
    for N, e in factors:
        want *= sympy.Poly(sympy.cyclotomic_poly(N, s), s) ** e
    assert dict(got) == {int(m): int(c) for (m,), c in want.terms()}
    chain = {0: 1}  # the product of the Phi_N tables
    for N, e in factors:
        phi = {i: c for i, c in enumerate(_cyclotomic(N)) if c}
        for _ in range(e):
            chain = _pmul(chain, phi)
    assert dict(got) == chain
    keys = list(got)
    assert all(a < b for a, b in zip(keys, keys[1:]))
    with pytest.raises(TypeError):
        got[0] = 0


def test_expansion_multiplies_no_polynomials(monkeypatch):
    products = _count_calls(monkeypatch, "_pmul")
    _expansion.cache_clear()
    for factors in [((1, 1), (2, 1), (4, 1), (8, 1)), ((3, 2), (12, 4)),
                    ((6, 1), (10, 3), (30, 1), (56, 2))]:
        _expansion(factors)
    assert not products


def test_an_inexact_binomial_division_raises_and_caches_nothing(monkeypatch):
    # Phi_6 = (s^6 - 1)(s - 1)/((s^3 - 1)(s^2 - 1)); without s - 1 the
    # quotient (s^6 - 1)/(s^3 - 1) = s^3 + 1 is not divisible by s^2 - 1
    import qsphere.coeff as coeff_mod
    binomials = coeff_mod._binomials
    assert (1, 1) in binomials(6)
    monkeypatch.setattr(coeff_mod, "_binomials", lambda N: [
        b for b in binomials(N) if N != 6 or b != (1, 1)])
    _expansion.cache_clear()
    with pytest.raises(ArithmeticError, match=r"\(\(6, 1\),\)"):
        _expansion(((6, 1),))
    assert _expansion.cache_info().currsize == 0


@given(c=st.integers(-6, 6).filter(bool), lo=st.integers(-8, 8),
       k=st.integers(1, 4),
       exps=st.dictionaries(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                             12, 14, 15, 16, 18, 20, 24]),
                            st.integers(1, 2), max_size=3))
@settings(max_examples=100, deadline=None)
def test_factor_recovers_products_of_cyclotomic_polynomials(c, lo, k, exps):
    # c s^lo prod Phi_N(s^k)^e factors back, each Phi_N(s^k) as the Phi_M(s)
    # of its family, with the factors and multiplicities sympy finds
    sympy = _sympy()
    s = sympy.Symbol("s")
    dense = [c]
    for N, e in exps.items():
        dense = _tmul(dense, *[_spread(_cyclotomic(N), k)] * e)
    got_lo, got_c, factors = _factor(
        {lo + i: v for i, v in enumerate(dense) if v})
    assert (got_lo, got_c) == (lo, c)
    want_c, want = sympy.Poly(list(reversed(dense)), s).factor_list()
    assert want_c == c
    assert sorted((_cyclotomic(M), e) for M, e in factors) == sorted(
        (tuple(int(v) for v in reversed(f.all_coeffs())), m) for f, m in want)


def test_out_of_ring_inputs_raise_naming_the_value():
    from qsphere.algebra import parse
    cases = [(lambda: (rational(2) + s_pow(1)).inverse(), "2 + s^1"),
             (lambda: Scalar({0: 1}, {}, {1: 1, 0: -2}), "{1: 1, 0: -2}"),
             (lambda: Scalar({3: -5}, {-1: 2}, {-4: -3, 4: -6}),
              "{-4: -3, 4: -6}"),
             (lambda: parse("1/(2 + s)"), "2 + s^1"),
             (lambda: ONE / (s_pow(2) + rational(Fraction(1, 3))),
              "1/3 + s^2")]
    for make, name in cases:
        with pytest.raises(ValueError, match="outside the cyclotomic ring") \
                as info:
            make()
        assert name in str(info.value)
    # a non-cyclotomic factor that divides both numerators still raises:
    # it is squared in the norm and cancels only once
    x = (rational(2) + s_pow(1)) * (ONE + ROOT_TWO_Q)
    with pytest.raises(ValueError, match="outside the cyclotomic ring"):
        x.inverse()
    assert _outside_the_ring(_norm(x))


# ---------------------------------------------------------------------------
# the exact dot product
# ---------------------------------------------------------------------------


def _held(*xs):
    """The stored form as held."""
    return [([list(p.items()) for p in (x._pe, x._pr)], x._factors, x._n)
            for x in xs]


def _check_dot(xs, ys):
    before = _held(*xs, *ys)
    got = dot([(x, y, 0) for x, y in zip(xs, ys)])
    want = sum((x * y for x, y in zip(xs, ys)), ZERO)
    assert repr(got) == repr(want)
    assert _stored_form(got) == _stored_form(want)
    assert got == want
    assert _held(*xs, *ys) == before
    return got


def _poly(p):
    return sum((rational(c) * s_pow(e) for e, c in p.items()), ZERO)


# scalars given over dens with an s-shift, a negative leading coefficient,
# integer content, or several of these
_ODD_RAW = [
    ({-3: 1, 3: -1}, {}, {-2: 1, 2: -1}),  # qnum(3)
    ({1: 3}, {0: 1}, {-2: -2, 2: 2}),
    ({0: 1}, {}, {0: 2, 4: 2}),
    ({3: -5}, {-1: 2}, {-4: -3, 4: -3}),
]
_ODD_DENS = [Scalar(*raw) for raw in _ODD_RAW] + \
    [rational(Fraction(-7, 4)) * qnum(5)]


def test_odd_denominators_are_made_canonical():
    assert [(min(den), den[max(den)] < 0, gcd(*den.values()))
            for _, _, den in _ODD_RAW] == \
        [(-2, True, 1), (-2, False, 2), (0, False, 2), (-4, True, 3)]
    # stored over a monic den of lowest exponent 0, with the value given
    for (pe, pr, den), x in zip(_ODD_RAW, _ODD_DENS):
        assert min(x.den) == 0 and x.den[max(x.den)] == 1
        assert x * _poly(den) == _poly(pe) + _poly(pr) * ROOT_TWO_Q
    assert _ODD_DENS[0] == qnum(3)
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
    assert dot([]) is ZERO
    assert dot([(x, ZERO, 0), (ZERO, y, 0)]) is ZERO
    # a sum that cancels
    assert _check_dot([x, -x], [y, y]) is ZERO
    assert _check_dot([x, x.scale_s(2)], [y, -y.scale_s(-2)]) is ZERO
    # one pair is the reduced product
    assert repr(_check_dot([x], [y])) == repr(x * y)
    # an iterator would be read twice when a product leaves the fast path
    with pytest.raises(TypeError, match="iterator"):
        dot((u, x, 0) for u in (ONE, x))


# ---------------------------------------------------------------------------
# the fused sum of products: dot over (x, y, e) triples
# ---------------------------------------------------------------------------


def _term_by_term(triples):
    """The reference: each product by mul_s, summed with accumulate."""
    return accumulate({}, ((0, x.mul_s(y, e)) for x, y, e in triples)) \
        .get(0, ZERO)


def _check_fused(triples):
    before = _held(*(z for x, y, _ in triples for z in (x, y)))
    got = dot(triples)
    assert got._freeze() == _term_by_term(triples)._freeze()
    assert all(got._pe.values()) and all(got._pr.values())
    assert _held(*(z for x, y, _ in triples for z in (x, y))) == before
    return got


def _count_calls(monkeypatch, name, owner=None):
    """Count the calls of owner.<name>, by default coeff.<name>, while the
    test runs."""
    import qsphere.coeff as coeff_mod
    owner = coeff_mod if owner is None else owner
    calls, inner = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


_PHI8 = (ONE + q_pow(2)).inverse()  # 1 / (1 + s^4)


def test_fused_unit_products_reduce_once(monkeypatch):
    x = (s_pow(1) + rational(Fraction(2, 3)) * ROOT_TWO_Q.scale_s(-3)) \
        / (q_pow(2) + ONE + q_pow(-2))
    triples = [(u, x.scale_s(k), e) if k % 2 else (x.scale_s(k), u, e)
               for k, (u, e) in enumerate(zip(UNITS[::3], range(-4, 4)))]
    want = _term_by_term(triples)
    reductions = _count_calls(monkeypatch, "_reduce")
    lcms = _count_calls(monkeypatch, "_over_lcm")
    assert dot(triples)._freeze() == want._freeze()
    assert len(reductions) == 1 and not lcms


def test_fused_r_units_cancel_phi8():
    r, y = ROOT_TWO_Q, ROOT_TWO_Q * _PHI8  # r / (1 + s^4)
    # r * r / (1 + s^4) = s^-2, and r (1 + s^4) / (1 + s^4) = r
    assert _check_fused([(r, y, 0)]) == s_pow(-2)
    assert _check_fused([(r, _PHI8, 0), (_PHI8, r, 4)]) == r
    assert _check_fused([(-r, _PHI8, 2), (_PHI8, -r, 6)]) == -r.scale_s(2)
    # s-units and r-units together over the one denominator
    assert _check_fused([(ONE, _PHI8, 0), (s_pow(4), _PHI8, 0),
                         (r, y, 1), (-r, y, 1)]) == ONE


def test_fused_units_over_other_denominators_fall_back(monkeypatch):
    third = rational(Fraction(1, 3))
    cases = ([(ONE, _PHI8, 0), (ONE, third * _PHI8, 1)],  # n
             [(ONE, _PHI8, 0), (ROOT_TWO_Q, _PHI8 * _PHI8, 0)],  # e_N
             [(s_pow(1), _PHI8, 0), (ONE, qnum(3), 2)])  # N
    for triples in cases:
        _check_fused(triples)
    wants = [_term_by_term(triples) for triples in cases]
    lcms = _count_calls(monkeypatch, "_over_lcm")
    assert [dot(triples) for triples in cases] == wants
    assert len(lcms) == 3


def test_fused_group_summing_to_zero():
    x = qnum(6).inverse()
    assert _check_fused([(ONE, x, 2), (-s_pow(2), x, 0)]) is ZERO
    assert _check_fused([(ROOT_TWO_Q, x, 0), (x, -ROOT_TWO_Q, 0)]) is ZERO
    assert _check_fused([(qnum(3), x, 1), (-qnum(3), x.scale_s(1), 0)]) \
        is ZERO


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fused_sum_is_the_term_by_term_sum(seed):
    # units times scalars over one denominator (the fast path), mixed
    # with general products and units over other denominators
    rng = random.Random(seed)
    pool = _random_scalars(seed, 40) + _ODD_DENS + [ZERO]
    for _ in range(60):
        inv = rng.choice(_DENS).inverse()
        triples = []
        for _ in range(rng.randint(1, 6)):
            u = rng.choice(UNITS)
            x = _laurent([(rng.randint(-3, 3), rng.randint(-6, 6),
                           rng.randint(0, 1)) for _ in range(3)]) * inv
            if rng.random() < 0.2:
                x = rng.choice(pool)
            if rng.random() < 0.1:
                u = rng.choice(pool)
            triples.append((u, x, rng.randint(-4, 4)) if rng.random() < 0.5
                           else (x, u, rng.randint(-4, 4)))
        _check_fused(triples)


@given(st.lists(st.tuples(scalars(), scalars(), st.integers(-4, 4)),
                max_size=5))
@settings(max_examples=100, deadline=None)
def test_fused_general_products(triples):
    _check_fused(triples)


@given(st.lists(st.tuples(st.sampled_from(UNITS), _TERMS,
                          st.integers(-4, 4)), min_size=1, max_size=6),
       st.sampled_from(_DENS))
@settings(max_examples=100, deadline=None)
def test_fused_unit_products_keep_the_stored_form(parts, den):
    inv = den.inverse()
    _check_fused([(u, _laurent(terms) * inv, e) for u, terms, e in parts])


# ---------------------------------------------------------------------------
# the quotient
# ---------------------------------------------------------------------------


def _check_quotient(x, y):
    got = x / y
    want = x * y.inverse()
    assert got._freeze() == want._freeze()
    assert repr(got) == repr(want)
    return got


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_quotient_by_a_general_divisor_is_the_product_by_the_inverse(
        seed, monkeypatch):
    divisors = []
    for y in _random_scalars(seed, 30) + _ODD_DENS:
        try:
            y.inverse()
            divisors.append(y)
        except ValueError:
            pass
    cases = [(x, y) for x in _random_scalars(seed + 10, 10) + [ZERO]
             for y in divisors]
    wants = [(want._freeze(), repr(want))
             for want in (x * y.inverse() for x, y in cases)]
    calls = _count_calls(monkeypatch, "inverse", Scalar)
    assert [(got._freeze(), repr(got))
            for got in (x / y for x, y in cases)] == wants
    assert len(calls) == len(cases) > 0


def test_quotient_edge_cases():
    x = (s_pow(1) + ROOT_TWO_Q) * qnum(6).inverse()
    for dividend in (x, ZERO):
        with pytest.raises(ZeroDivisionError):
            dividend / ZERO
    with pytest.raises(TypeError):
        x / 2
    assert ZERO / qnum(3).inverse() is ZERO
    assert _check_quotient(x, x) == ONE
    assert _check_quotient(x, -s_pow(3)) == -x.scale_s(-3)
