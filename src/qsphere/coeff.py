"""Exact scalar arithmetic for the quantum sphere.

Every constant that appears in the differential geometry of the standard
quantum sphere lies in the field

    K = Q(s)[r] / (r^2 - s^2 - s^{-2}),

where ``s`` is a formal square root of the deformation parameter ``q`` and
``r`` is a square root of the q-integer ``[2]_q = q + q^{-1}``.  Working in
K keeps half-integer powers of q and the frame normalisation ``[2]_q^{1/2}``
exact, so every identity in the package is decided by arithmetic rather
than by numerics.

A scalar is stored as ``(pe + pr * r) / den`` with ``pe``, ``pr`` Laurent
polynomials in ``s`` and ``den`` an ordinary polynomial in ``s`` (lowest
exponent 0, leading coefficient 1, no common factor with the numerators).
That canonical form makes equality a tuple comparison and lets scalars be
dictionary keys.

The q -> 1 limit is taken by substituting s = 1 into the reduced form,
never by differentiating: q-integers are Laurent polynomials once reduced,
so ``[n]_q`` at q = 1 is literally the integer n.  Values with a nonzero
r-part pick up an exact multiple of sqrt(2) at q = 1 and are returned as a
pair of rationals.

The dicts hold ``Fraction`` coefficients, but the arithmetic runs on Python
ints.  An operation converts each operand once to integer numerators over
one common denominator (``_ints``); products, sums, the gcd (a primitive
remainder sequence) and the exact division by it all work on ints, and
each output coefficient becomes a Fraction once, at the end (``_fracs``).
Dividing by the primitive integer gcd needs no fractions: by Gauss's lemma
the quotient is integral, so every step of the long division divides
exactly by the divisor's leading coefficient.

The stored form is pinned, reduced or not: the keys of ``pe``, ``pr`` and
``den``, their Fraction values and their dict insertion order are those
that plain Fraction arithmetic with the same dict updates gives.  ``repr``,
equality and hashing read them, and ``eval_float`` sums in dict order, so
float values (the spectra's Gram and operator matrices are built from them)
depend on that order to the last bit.  The integer kernels therefore make
the same insertions and deletions in the same order; a zero test on ints
agrees with one on Fractions because every term of a sum shares one
denominator.  ``tests/test_coeff.py`` pins the stored form of fixed and
random scalars.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)

# ---------------------------------------------------------------------------
# Laurent polynomials in s as {exponent: coefficient} dicts (zero coeffs
# absent).  The stored dicts hold Fractions and the kernels run on dicts of
# ints; _pneg and _pshift serve both.
# ---------------------------------------------------------------------------


def _padd(p1, p2):
    out = dict(p1)
    for e, c in p2.items():
        v = out.get(e)
        if v is None:
            out[e] = c
        else:
            v = v + c
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def _pneg(p):
    return {e: -c for e, c in p.items()}


def _pmul(p1, p2):
    if not p1 or not p2:
        return {}
    if len(p1) == 1:
        (e1, c1), = p1.items()
        return {e1 + e: c1 * c for e, c in p2.items()}
    if len(p2) == 1:
        (e2, c2), = p2.items()
        return {e + e2: c * c2 for e, c in p1.items()}
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            e = e1 + e2
            v = out.get(e)
            if v is None:
                out[e] = c1 * c2
            else:
                v = v + c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
    return out


def _pshift(p, k):
    if k == 0:
        return p
    return {e + k: c for e, c in p.items()}


def _pscale(p, f):
    return {e: c * f for e, c in p.items()}


# -- the boundary between stored Fractions and integer kernels --------------


def _ints(*ps):
    """Fraction dicts -> (int dicts, d) with p == ints / d for each p.

    d is the lcm of every coefficient denominator of all the ps, so that
    sums of the int dicts, and the zero tests inside them, agree with the
    same sums of Fractions.  Keys and their order are kept.
    """
    d = lcm(*{c.denominator for p in ps for c in p.values()})
    if d == 1:
        return [{e: c.numerator for e, c in p.items()} for p in ps], 1
    return [{e: c.numerator * (d // c.denominator) for e, c in p.items()}
            for p in ps], d


# Fractions are immutable, so those of the small integers, which make up
# most stored coefficients, are made once and shared.  Fewer objects to
# allocate and collect: on the curvature benchmark this lowers wall time
# by about a fifth and peak memory by about 6%.
_SMALL = {c: Fraction(c) for c in range(-64, 65)}


def _fracs(p, d):
    """Int dict over the common denominator d -> Fraction dict, one
    Fraction per coefficient, keys and their order kept."""
    if d < 0:
        p, d = _pneg(p), -d
    if d == 1:
        return {e: _SMALL[c] if -65 < c < 65 else Fraction(c)
                for e, c in p.items()}
    return {e: Fraction(c, d) for e, c in p.items()}


# -- integer polynomial kernels ----------------------------------------------


def _int_dense(p):
    """Int Laurent dict -> primitive dense list of its coefficients from
    the lowest exponent up.  s is a unit in the Laurent ring and the
    content is a unit over Q, so neither changes a gcd."""
    lo = min(p)
    out = [0] * (max(p) - lo + 1)
    for e, c in p.items():
        out[e - lo] = c
    return _primitive(out)


def _primitive(a):
    g = 0
    for v in a:
        g = gcd(g, v)
        if g == 1:
            return a
    return [v // g for v in a] if g > 1 else a


def _int_prem(a, b):
    """Pseudo-remainder of dense integer polys, content-stripped."""
    db = len(b) - 1
    if db == 0:
        return []
    r = list(a)
    lb = b[-1]
    while len(r) - 1 >= db:
        if r[-1] == 0:
            r.pop()
            continue
        f = r[-1]
        if lb != 1:
            r = [lb * c for c in r]
        off = len(r) - 1 - db
        for j in range(db):
            r[off + j] -= f * b[j]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return _primitive(r)


def _poly_gcd(a, b):
    """gcd of two primitive dense integer polys, by a primitive remainder
    sequence; primitive again, and [1] when they are coprime."""
    if len(a) == 1 or len(b) == 1:
        return [1]
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _int_prem(a, b)
    if len(a) == 1:
        return [1]
    return a


def _pdiv_exact(p, g):
    """Divide the int Laurent dict p by the primitive dense integer poly g.

    By Gauss's lemma the quotient of an integer polynomial by a primitive
    divisor has integer coefficients, so every step of the long division
    divides exactly by g's leading coefficient; a step that leaves a
    remainder, or a nonzero remainder at the end, means g does not divide
    p.  The quotient comes back with its exponents ascending.
    """
    if not p:
        return {}
    shift = min(p)
    num = [0] * (max(p) - shift + 1)
    for e, c in p.items():
        num[e - shift] = c
    dn = len(g) - 1
    lead = g[dn]
    if len(num) <= dn:
        raise ArithmeticError("inexact polynomial division")
    quot = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if not c:
            continue
        f, m = divmod(c, lead)
        if m:
            raise ArithmeticError("inexact polynomial division")
        off = i - dn
        quot[off] = f
        for j in range(dn):
            num[off + j] -= f * g[j]
    if any(num[:dn]):
        raise ArithmeticError("inexact polynomial division")
    return {e + shift: c for e, c in enumerate(quot) if c}


# ---------------------------------------------------------------------------
# the field K
# ---------------------------------------------------------------------------

# r^2 = s^2 + s^{-2}, as an int dict for the kernels
_RSQ = {2: 1, -2: 1}
_PONE = {0: _ONE}

# Reduction is deferred while the denominator has at most this many terms
# (a monomial, or a binomial like q - q^-1 or q^2 + q^-2, which is where
# nearly all the gcd time used to go).  Once a product of such denominators
# piles up it is cancelled right away, otherwise denominators grow
# multiplicatively through long chains of arithmetic and the final
# reduction becomes hopeless.  The stored form of an unreduced scalar
# depends on this threshold.
_LAZY_DEN_TERMS = 2


class Scalar:
    """An element (pe + pr*r)/den of K = Q(s)[r]/(r^2 - s^2 - s^{-2}).

    ``pe``, ``pr`` and ``den`` are {exponent: Fraction} dicts.  Arithmetic
    keeps the raw numerator/denominator dicts and defers the gcd reduction
    until a canonical form is actually needed (equality, hashing, limits,
    display).  The intermediate scalars of a big tensor computation vastly
    outnumber the surviving ones, so reducing lazily is worth an order of
    magnitude on the curvature pipeline.

    Each operation converts its operands to ints once, computes on ints,
    and makes one Fraction per stored coefficient of the result; a result
    that is reduced at once goes from the ints straight to its reduced
    form.  The stored dicts, their key order included, are pinned (see the
    module docstring): ``repr``, ``==``, ``hash`` and ``eval_float`` read
    them.
    """

    __slots__ = ("pe", "pr", "den", "_key", "_reduced")

    def __init__(self, pe, pr=None, den=None, _normal=False):
        if pr is None:
            pr = {}
        if den is None:
            den = _PONE
        elif not den:
            raise ZeroDivisionError("zero denominator in scalar")
        if not pe and not pr:
            den = _PONE
            _normal = True
        self.pe = pe
        self.pr = pr
        self.den = den
        self._key = None
        self._reduced = _normal
        if not _normal and len(den) > _LAZY_DEN_TERMS:
            self._reduce()

    def _reduce(self) -> "Scalar":
        if not self._reduced:
            (pe, pr, den), _ = _ints(self.pe, self.pr, self.den)
            self.pe, self.pr, self.den = _normalise(pe, pr, den)
            self._reduced = True
        return self

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(x) -> "Scalar":
        c = Fraction(x)
        if not c:
            return ZERO
        return Scalar({0: c}, {}, _PONE, _normal=True)

    @staticmethod
    def s_power(k: int) -> "Scalar":
        """s^k, i.e. q^(k/2)."""
        return Scalar({k: _ONE}, {}, _PONE, _normal=True)

    @staticmethod
    def q_power(k: int) -> "Scalar":
        return Scalar({2 * k: _ONE}, {}, _PONE, _normal=True)

    @staticmethod
    def root_two_q() -> "Scalar":
        """r = [2]_q^{1/2}."""
        return Scalar({}, {0: _ONE}, _PONE, _normal=True)

    @staticmethod
    def qnumber(two_x: int) -> "Scalar":
        """The q-number [x]_q = (q^{-x} - q^x)/(q^{-1} - q) for x = two_x/2.

        Integer x gives the familiar Laurent polynomial
        q^{-(x-1)} + q^{-(x-3)} + ... + q^{x-1}; half-integer x stays a
        rational function of s.
        """
        if two_x == 0:
            return ZERO
        num = {-two_x: _ONE, two_x: -_ONE}
        den = {-2: _ONE, 2: -_ONE}
        return Scalar(num, {}, den)

    # -- canonical key, equality, hashing -----------------------------------

    def _freeze(self):
        key = self._key
        if key is None:
            self._reduce()
            key = (
                tuple(sorted(self.pe.items())),
                tuple(sorted(self.pr.items())),
                tuple(sorted(self.den.items())),
            )
            self._key = key
        return key

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._freeze() == other._freeze()

    def __hash__(self):
        return hash(self._freeze())

    def __bool__(self):
        return bool(self.pe) or bool(self.pr)

    def is_zero(self) -> bool:
        return not self

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        (pe1, pr1, d1), n1 = _ints(self.pe, self.pr, self.den)
        (pe2, pr2, d2), n2 = _ints(other.pe, other.pr, other.den)
        if self.den == other.den:
            # one common denominator n for both numerators and the den
            n = n1 // gcd(n1, n2) * n2
            k1, k2 = n // n1, n // n2
            return _scalar(_padd(_pscale(pe1, k1), _pscale(pe2, k2)),
                           _padd(_pscale(pr1, k1), _pscale(pr2, k2)),
                           _pscale(d1, k1), n)
        pe = _padd(_pmul(pe1, d2), _pmul(pe2, d1))
        pr = _padd(_pmul(pr1, d2), _pmul(pr2, d1))
        return _scalar(pe, pr, _pmul(d1, d2), n1 * n2)

    def __neg__(self):
        return Scalar(_pneg(self.pe), _pneg(self.pr), self.den,
                      _normal=self._reduced)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        if not self or not other:
            return ZERO
        (pe1, pr1, d1), n1 = _ints(self.pe, self.pr, self.den)
        (pe2, pr2, d2), n2 = _ints(other.pe, other.pr, other.den)
        pe = _padd(_pmul(pe1, pe2), _pmul(_RSQ, _pmul(pr1, pr2)))
        pr = _padd(_pmul(pe1, pr2), _pmul(pr1, pe2))
        return _scalar(pe, pr, _pmul(d1, d2), n1 * n2)

    def scale_s(self, k: int) -> "Scalar":
        """Fast multiplication by s^k."""
        if not self:
            return self
        return Scalar(_pshift(self.pe, k), _pshift(self.pr, k), self.den,
                      _normal=self._reduced)

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("inverse of zero scalar")
        # 1/((pe + pr r)/den) = den (pe - pr r) / (pe^2 - pr^2 (s^2+s^-2))
        (pe, pr, den), n = _ints(self.pe, self.pr, self.den)
        norm = _padd(_pmul(pe, pe), _pneg(_pmul(_RSQ, _pmul(pr, pr))))
        return _scalar(_pmul(den, pe), _pneg(_pmul(den, pr)), norm, n * n)

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- evaluation ---------------------------------------------------------

    def eval_float(self, q: float) -> float:
        """Numerical value at a given q > 0."""
        s = q ** 0.5
        r = (q + 1.0 / q) ** 0.5
        pe = sum(float(c) * s ** e for e, c in self.pe.items())
        pr = sum(float(c) * s ** e for e, c in self.pr.items())
        den = sum(float(c) * s ** e for e, c in self.den.items())
        return (pe + pr * r) / den

    def eval_rational(self, q) -> Fraction:
        """Exact value at a rational q, when the scalar lies in Q(q).

        Raises ValueError if the scalar genuinely involves s = q^{1/2} or
        r = [2]_q^{1/2}, or if the denominator vanishes at q.
        """
        self._reduce()
        q = Fraction(q)
        if self.pr:
            raise ValueError("scalar has a [2]_q^{1/2} part; not rational in q")
        if any(e % 2 for e in self.pe) or any(e % 2 for e in self.den):
            raise ValueError("scalar has half-integer q powers; not rational in q")
        num = sum(Fraction(c) * q ** (e // 2) for e, c in self.pe.items())
        den = sum(Fraction(c) * q ** (e // 2) for e, c in self.den.items())
        if den == 0:
            raise ValueError("denominator vanishes at q = %s" % q)
        return Fraction(num) / den

    def limit_q_one(self):
        """Exact q -> 1 limit by substituting s = 1 into the reduced form.

        Returns (u, v) with value u + v*sqrt(2) as exact rationals.  The
        substitution is legal because scalars are kept gcd-reduced; a pole
        at q = 1 surfaces as a vanishing denominator and raises.
        """
        self._reduce()
        den = sum(self.den.values(), _ZERO)
        if not den:
            raise ZeroDivisionError("pole at q = 1")
        u = sum(self.pe.values(), _ZERO) / den
        v = sum(self.pr.values(), _ZERO) / den
        return Fraction(u), Fraction(v)

    # -- display ------------------------------------------------------------

    def _poly_str(self, p):
        if not p:
            return "0"
        parts = []
        for e in sorted(p):
            c = p[e]
            if e == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append("s^%d" % e)
            elif c == -1:
                parts.append("-s^%d" % e)
            else:
                parts.append("%s*s^%d" % (c, e))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        self._reduce()
        if not self:
            return "0"
        num = self._poly_str(self.pe)
        if self.pr:
            rpart = "(%s)*r" % self._poly_str(self.pr)
            num = rpart if not self.pe else "%s + %s" % (num, rpart)
        if self.den == _PONE:
            return num
        return "(%s)/(%s)" % (num, self._poly_str(self.den))


def _scalar(pe, pr, den, n):
    """The Scalar (pe + pr*r)/den for int dicts that hold n times the
    coefficients of its stored form.

    While den has at most _LAZY_DEN_TERMS terms the scalar stays
    unreduced, one Fraction per coefficient; past that it is reduced
    straight from the ints, where n cancels.
    """
    if not den:
        raise ZeroDivisionError("zero denominator in scalar")
    if not pe and not pr:
        return ZERO
    if len(den) <= _LAZY_DEN_TERMS:
        return Scalar(_fracs(pe, n), _fracs(pr, n), _fracs(den, n))
    return Scalar(*_normalise(pe, pr, den), _normal=True)


def _normalise(pe, pr, den):
    """Canonical stored form of (pe + pr*r)/den, a nonzero scalar given
    by int dicts.

    den is shifted to lowest exponent 0, the numerators and den are
    divided by their common gcd and den is made monic.  Only the last step,
    the division by den's leading coefficient, makes Fractions.  Where the
    gcd is nontrivial the dicts come out with ascending exponents;
    otherwise they keep their keys' order.
    """
    # pull the denominator's s-power into the numerators
    dshift = min(den)
    if dshift:
        den = _pshift(den, -dshift)
        pe = _pshift(pe, -dshift)
        pr = _pshift(pr, -dshift)
    if len(den) == 1:
        # monomial denominator: nothing to cancel beyond the constant
        c = den[0]
        return _fracs(pe, c), _fracs(pr, c), _PONE
    g = _poly_gcd(_int_dense(pe if pe else pr), _int_dense(den))
    if pr and pe and len(g) > 1:
        g = _poly_gcd(g, _int_dense(pr))  # gcd of all three
    if len(g) > 1:
        # den has a nonzero constant term, so g and den/g have one too
        pe = _pdiv_exact(pe, g)
        pr = _pdiv_exact(pr, g)
        den = _pdiv_exact(den, g)
    lead = den[max(den)]
    return _fracs(pe, lead), _fracs(pr, lead), _fracs(den, lead)


ZERO = Scalar({}, {}, _PONE, _normal=True)
ONE = Scalar({0: _ONE}, {}, _PONE, _normal=True)
ROOT_TWO_Q = Scalar.root_two_q()


def rational(x) -> Scalar:
    return Scalar.from_rational(x)


def s_pow(k: int) -> Scalar:
    return Scalar.s_power(k)


def q_pow(k: int) -> Scalar:
    return Scalar.q_power(k)


def qnum(two_x: int) -> Scalar:
    return Scalar.qnumber(two_x)
