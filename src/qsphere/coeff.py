"""Exact scalar arithmetic for the quantum sphere.

Every constant that appears in the differential geometry of the standard
quantum sphere lies in the field

    K = Q(s)[r] / (r^2 - s^2 - s^{-2}),

where ``s`` is a formal square root of the deformation parameter ``q`` and
``r`` is a square root of the q-integer ``[2]_q = q + q^{-1}``.  Working in
K keeps half-integer powers of q and the frame normalisation ``[2]_q^{1/2}``
exact, so every identity in the package is decided by arithmetic rather
than by numerics.

A scalar is ``(pe + pr * r) / den`` with ``pe``, ``pr`` Laurent
polynomials in ``s`` and ``den`` a polynomial in ``s``.  Its reduced form
has den of lowest exponent 0 and leading coefficient 1, with no common
factor with the numerators; that form is unique, so equality is a tuple
comparison and scalars can be dictionary keys.

The q -> 1 limit is taken by substituting s = 1 into the reduced form,
never by differentiating: q-integers are Laurent polynomials once reduced,
so ``[n]_q`` at q = 1 is literally the integer n.  Values with a nonzero
r-part pick up an exact multiple of sqrt(2) at q = 1 and are returned as a
pair of rationals.

Storage is integer: three {exponent: int} dicts and one positive int n,
every coefficient being divided by n, with the integer content of the
dicts and n divided out.  Sums, products, inverses and the reduction read
and write ints only.  The gcd is a primitive remainder sequence, and the
division by it needs no fractions: by Gauss's lemma the quotient by a
primitive divisor is integral, so every step of the long division divides
exactly by the divisor's leading coefficient.  Before the gcd each
polynomial p is written s^lo * f(s^k), with k the gcd of the exponent
differences within all three polynomials, and the gcd and the divisions
run on f(t), t = s^k.  That is exact, because gcd(f(s^k), h(s^k)) =
gcd(f, h)(s^k) (Euclid's algorithm commutes with t -> s^k), and the
polynomials of the curvature pipeline come out 4 to 8 times shorter.

Four kernels take the shapes the program makes most, each giving the
value of the general arithmetic exactly, and each kept because the
benchmark workload named with it is slower without it:

1. A unit factor shifts (curvature, connection, spectra).  A scalar
   stored as +-s^k or +-r s^k over den {0: 1} (every frame entry and its
   star) multiplies by moving the other factor's exponents, negated for
   -1, with r (pe + pr r) = pr (s^2 + s^-2) + pe r for r.  The s-power
   of a PBW product (``mul_s``) joins the shift.  An s-power shift of a
   reduced scalar is reduced, so over a den of more than
   ``_LAZY_DEN_TERMS`` terms it skips the reduction the product would
   run.
2. Equal denominators add (curvature, connection).  Two scalars with the
   same den dict and n add their numerator dicts.
3. A binomial divisor folds (curvature).  The remainder by b0 + bm t^m,
   bm = +-1, is one Horner pass per residue class mod m at t^m = -b0 bm,
   not one long division step per degree; the gcd comes out the same up
   to sign.  The reduced denominators of the curvature pipeline, such as
   1 + s^8, are of this shape.
4. A dot product reduces once (spectra).  ``dot`` sums x_i y_i over one
   common denominator, built from the primitive parts of the product
   denominators with their s-powers and integer contents taken out, and
   runs one reduction, where the sum taken term by term reduces after
   each product and each partial sum.  Every Haar value is one
   (``HaarState.__call__``).

``pe``, ``pr`` and ``den`` are read-only views: a fresh {exponent:
Fraction} dict per call, the keys in stored order.  ``tests/test_coeff.py``
pins them for fixed and random scalars, reduced or not.  ``repr``,
equality and hashing read only the reduced value.  Only ``eval_float``
depends on dict order: it sums the reduced form in stored order, so the
float values of the spectra's block matrices depend on that order to the
last bit.  Every sparse sum of the package, of polynomials, elements,
corners or frame coefficients, follows ``accumulate``, and kernels 1 to 3
keep its stored form, key insertions and deletions included.  ``dot``
stores its sum reduced with ascending exponents, the order a reduction
with a nontrivial gcd gives; for every Haar value of the spin blocks the
reduced form of the sum taken term by term has that order too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

# ---------------------------------------------------------------------------
# Laurent polynomials in s as {exponent: int} dicts (zero coeffs absent)
# ---------------------------------------------------------------------------


def accumulate(out, items):
    """Add each (key, value) of items into the dict out and return out.

    The one sparse-sum rule of the package, for ints, scalars and
    elements alike: a key whose sum is zero is deleted, so out never holds
    a zero, and a cancelled key that comes back goes in at the end.  Key
    order is insertion order otherwise, which is what ``eval_float`` reads
    (module docstring)."""
    for key, value in items:
        prev = out.get(key)
        if prev is not None:
            value = prev + value
        if value:
            out[key] = value
        elif prev is not None:
            del out[key]
    return out


def _padd(p1, p2):
    return accumulate(dict(p1), p2.items())


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
    # accumulate's rule, inlined: routed through it, a curvature cycle
    # took 3% and a spectra cycle 8% longer (ROADMAP item 8)
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


def _pmove(p, k, sign):
    """p times sign * s^k, for sign = +-1."""
    if sign > 0:
        return _pshift(p, k)
    return {e + k: -c for e, c in p.items()}


def _pscale(p, f):
    if f == 1:
        return p
    return {e: c * f for e, c in p.items()}


def _same(p1, n1, p2, n2):
    """Whether p1/n1 and p2/n2 are the same polynomial."""
    return p1.keys() == p2.keys() and all(
        c * n2 == p2[e] * n1 for e, c in p1.items())


# -- Fraction dicts in and out ------------------------------------------------


def _ints(*ps):
    """Fraction (or int) dicts -> (int dicts, d) with p == ints / d for
    each p, d the lcm of every coefficient denominator.  Keys and their
    order are kept."""
    d = lcm(*{c.denominator for p in ps for c in p.values()})
    return [{e: c.numerator * (d // c.denominator) for e, c in p.items()}
            for p in ps], d


def _fracs(p, d):
    """Int dict over the common denominator d -> Fraction dict, keys and
    their order kept."""
    return {e: Fraction(c, d) for e, c in p.items()}


# -- integer polynomial kernels ----------------------------------------------


def _step(*ps):
    """The largest k such that each nonempty p is s^lo * f(s^k)."""
    k = 0
    for p in ps:
        if p:
            lo = min(p)
            k = gcd(k, *(e - lo for e in p))
            if k == 1:
                break
    return k


def _dense(p, step):
    """Int Laurent dict s^lo * f(s^step) -> dense list of the coefficients
    of f from the constant term up; its last entry is nonzero."""
    lo = min(p)
    out = [0] * ((max(p) - lo) // step + 1)
    for e, c in p.items():
        out[(e - lo) // step] = c
    return out


def _int_dense(p, step):
    """``_dense``, content-stripped.  s is a unit in the Laurent ring and
    the content is a unit over Q, so neither changes a gcd."""
    return _primitive(_dense(p, step))


def _primitive(a):
    g = 0
    for v in a:
        g = gcd(g, v)
        if g == 1:
            return a
    return [v // g for v in a] if g > 1 else a


def _int_prem(a, b):
    """Pseudo-remainder of dense integer polys, content-stripped; a
    binomial divisor b0 + bm t^m with bm = +-1 folds (``_fold_rem``).

    a's last entry is nonzero, as every dense list of this module has it,
    so each step cancels the leading term."""
    db = len(b) - 1
    if db == 0:
        return []
    if b[-1] in (1, -1) and not any(b[1:-1]):
        return _fold_rem(a, b)
    r = list(a)
    lb = b[-1]
    while len(r) - 1 >= db:
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


def _fold_rem(a, b):
    """The remainder of a by b = b0 + bm t^m, bm = +-1, content-stripped.

    Modulo b, t^m = -b0 bm, so coefficient j < m of the remainder is
    sum_i a[j + m i] (-b0 bm)^i: one Horner pass per residue class mod m,
    where long division takes one step per degree.  It equals the
    pseudo-remainder of ``_int_prem`` up to sign."""
    m = len(b) - 1
    z = -b[0] * b[-1]
    r = []
    for j in range(m):
        v = 0
        for c in reversed(a[j::m]):
            v = v * z + c
        r.append(v)
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


def _pdiv_exact(p, g, step):
    """Divide the int Laurent dict p = s^lo * f(s^step) by G(s^step), for
    the primitive dense integer poly G.

    By Gauss's lemma the quotient of an integer polynomial by a primitive
    divisor has integer coefficients, so every step of the long division
    divides exactly by G's leading coefficient; a step that leaves a
    remainder, or a nonzero remainder at the end, means G does not divide
    f.  The quotient comes back with its exponents ascending.
    """
    if not p:
        return {}
    shift = min(p)
    num = _dense(p, step)
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
    return {shift + step * i: c for i, c in enumerate(quot) if c}


# ---------------------------------------------------------------------------
# the field K
# ---------------------------------------------------------------------------

# r^2 = s^2 + s^{-2}
_RSQ = {2: 1, -2: 1}

# Reduction is deferred while the denominator has at most this many terms
# (a monomial, or a binomial like q - q^-1 or q^2 + q^-2, which is where
# nearly all the gcd time used to go).  Once a product of such denominators
# piles up it is cancelled right away, otherwise denominators grow
# multiplicatively through long chains of arithmetic and the final
# reduction becomes hopeless.  The stored form of an unreduced scalar
# depends on this threshold.  One in-process cycle of the benchmark's
# workloads (seed 1, Python 3.11, 2 shared vCPUs; two rounds) took, for a
# threshold of 1 / 2 / 3 / none: curvature 1.12-1.22 / 0.78-0.82 /
# 1.18-1.26 / 1.17 s, spectra 0.38-0.55 / 0.37-0.48 / 0.35-0.43 / 16.8 s.
# 3 is a little faster on spectra but half again slower on curvature.
_LAZY_DEN_TERMS = 2


class Scalar:
    """An element (pe + pr*r)/den of K = Q(s)[r]/(r^2 - s^2 - s^{-2}).

    Stored as int dicts ``_pe``, ``_pr``, ``_den`` and one int ``_n`` > 0
    that divides every coefficient (see the module docstring);
    ``pe``, ``pr`` and ``den`` give the same dicts with Fraction
    coefficients.  Arithmetic keeps the raw numerator/denominator dicts
    and defers the gcd reduction until a canonical form is actually needed
    (equality, hashing, limits, display), or until the denominator has
    more than ``_LAZY_DEN_TERMS`` terms.  The intermediate scalars of a
    big tensor computation vastly outnumber the surviving ones, so
    reducing lazily is worth an order of magnitude on the curvature
    pipeline.

    The module docstring's first three kernels sit in ``mul_s`` (a unit
    factor shifts, taking the s-power of a monomial product into its
    shift), ``__add__`` (equal denominators add) and the gcd (a binomial
    divisor folds); the fourth is the function ``dot``.  ``*`` is
    ``mul_s`` with no s-power.
    """

    __slots__ = ("_pe", "_pr", "_den", "_n", "_key", "_reduced")

    def __init__(self, pe, pr=None, den=None):
        """(pe + pr*r)/den from {exponent: Fraction or int} dicts."""
        (pe, pr, den), n = _ints(pe, {} if pr is None else pr,
                                 {0: 1} if den is None else den)
        x = _scalar(pe, pr, den, n)
        _init(self, x._pe, x._pr, x._den, x._n, x._reduced)

    def reduced(self) -> "Scalar":
        """This scalar, its storage reduced in place (``forms.frame``
        stores its entries so); the value is unchanged."""
        if not self._reduced:
            self._pe, self._pr, self._den, self._n = _normalise(
                self._pe, self._pr, self._den)
            self._reduced = True
        return self

    # -- the Fraction views -------------------------------------------------

    @property
    def pe(self):
        return _fracs(self._pe, self._n)

    @property
    def pr(self):
        return _fracs(self._pr, self._n)

    @property
    def den(self):
        return _fracs(self._den, self._n)

    # -- canonical key, equality, hashing -----------------------------------

    def _freeze(self):
        key = self._key
        if key is None:
            self.reduced()
            key = (
                tuple(sorted(self._pe.items())),
                tuple(sorted(self._pr.items())),
                tuple(sorted(self._den.items())),
                self._n,
            )
            self._key = key
        return key

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, (int, Fraction)):
            other = rational(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        return self._freeze() == other._freeze()

    def __hash__(self):
        # a rational constant hashes like the number, since it equals it
        pe, pr, den, n = key = self._freeze()
        if not pr and den == ((0, n),):
            if not pe:
                return hash(0)
            if len(pe) == 1 and pe[0][0] == 0:
                return hash(Fraction(pe[0][1], n))
        return hash(key)

    def __bool__(self):
        return bool(self._pe) or bool(self._pr)

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
        pe1, pr1, d1, n1 = self._pe, self._pr, self._den, self._n
        pe2, pr2, d2, n2 = other._pe, other._pr, other._den, other._n
        if n1 == n2 and d1 == d2:  # equal denominators add
            return _scalar(_padd(pe1, pe2), _padd(pr1, pr2), d1, n1)
        if _same(d1, n1, d2, n2):
            # one common denominator n for both numerators and the den
            n = lcm(n1, n2)
            k1, k2 = n // n1, n // n2
            return _scalar(_padd(_pscale(pe1, k1), _pscale(pe2, k2)),
                           _padd(_pscale(pr1, k1), _pscale(pr2, k2)),
                           _pscale(d1, k1), n)
        pe = _padd(_pmul(pe1, d2), _pmul(pe2, d1))
        pr = _padd(_pmul(pr1, d2), _pmul(pr2, d1))
        return _scalar(pe, pr, _pmul(d1, d2), n1 * n2)

    def __neg__(self):
        return _make(_pneg(self._pe), _pneg(self._pr), self._den, self._n,
                     self._reduced)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.mul_s(other, 0)

    def mul_s(self, other: "Scalar", e: int) -> "Scalar":
        """self * other * s^e, stored as (self * other).scale_s(e) is.

        A unit factor (``_unit``) takes no product: the other factor
        shifts by k + e, negated for -1, and r (pe + pr r) = pr (s^2 +
        s^-2) + pe r.  An s-power shift of a factor reduced over more than
        ``_LAZY_DEN_TERMS`` den terms needs no new reduction.  Any other
        pair forms the product and then shifts it by e."""
        if not self or not other:
            return ZERO
        unit, x = _unit(self), other
        if unit is None:
            unit, x = _unit(other), self
        if unit is not None:
            k, sign, with_r = unit
            pe, pr = _pmove(x._pe, k + e, sign), _pmove(x._pr, k + e, sign)
            if not with_r:
                # reduced exactly when _scalar would reduce it
                return _make(pe, pr, x._den, x._n,
                             len(x._den) > _LAZY_DEN_TERMS)
            return _scalar(_pmul(_RSQ, pr), pe, x._den, x._n)
        a, b = self, other
        pe = _padd(_pmul(a._pe, b._pe), _pmul(_RSQ, _pmul(a._pr, b._pr)))
        pr = _padd(_pmul(a._pe, b._pr), _pmul(a._pr, b._pe))
        out = _scalar(pe, pr, _pmul(a._den, b._den), a._n * b._n)
        return out.scale_s(e) if e else out

    def scale_s(self, k: int) -> "Scalar":
        """Fast multiplication by s^k."""
        if not self:
            return self
        return _make(_pshift(self._pe, k), _pshift(self._pr, k), self._den,
                     self._n, self._reduced)

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("inverse of zero scalar")
        # 1/((pe + pr r)/den) = den (pe - pr r) / (pe^2 - pr^2 (s^2+s^-2))
        pe, pr, den, n = self._pe, self._pr, self._den, self._n
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
        """Numerical value at a given q > 0, from the reduced form, so that
        a removable pole (such as 0/0 at q = 1) never shows.

        Each coefficient is the correctly rounded c / n, which is
        float(Fraction(c, n)), summed in stored order."""
        self.reduced()
        n = self._n
        s = q ** 0.5
        r = (q + 1.0 / q) ** 0.5
        pe = sum(c / n * s ** e for e, c in self._pe.items())
        pr = sum(c / n * s ** e for e, c in self._pr.items())
        den = sum(c / n * s ** e for e, c in self._den.items())
        return (pe + pr * r) / den

    def limit_q_one(self):
        """Exact q -> 1 limit by substituting s = 1 into the reduced form.

        Returns (u, v) with value u + v*sqrt(2) as exact rationals.  The
        substitution is legal because scalars are kept gcd-reduced; a pole
        at q = 1 surfaces as a vanishing denominator and raises.
        """
        self.reduced()
        den = sum(self._den.values())
        if not den:
            raise ZeroDivisionError("pole at q = 1")
        return (Fraction(sum(self._pe.values()), den),
                Fraction(sum(self._pr.values()), den))

    # -- display ------------------------------------------------------------

    def _poly_str(self, p):
        if not p:
            return "0"
        n = self._n
        parts = []
        for e in sorted(p):
            c = p[e] if n == 1 else Fraction(p[e], n)
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
        self.reduced()
        if not self:
            return "0"
        num = self._poly_str(self._pe)
        if self._pr:
            rpart = "(%s)*r" % self._poly_str(self._pr)
            num = rpart if not self._pe else "%s + %s" % (num, rpart)
        if self._den == {0: self._n}:
            return num
        return "(%s)/(%s)" % (num, self._poly_str(self._den))


def _init(x, pe, pr, den, n, reduced):
    x._pe, x._pr, x._den, x._n = pe, pr, den, n
    x._key = None
    x._reduced = reduced


def _make(pe, pr, den, n, reduced):
    x = object.__new__(Scalar)
    _init(x, pe, pr, den, n, reduced)
    return x


def _unit(x):
    """(k, sign, r) for a nonzero x stored as sign * s^k (r False) or
    sign * r s^k (r True) over den {0: 1} with n = 1, sign = +-1; None for
    every other x.  A product with such a unit is a shift (``mul_s``)."""
    pe, pr, den = x._pe, x._pr, x._den
    if len(pe) + len(pr) != 1 or x._n != 1 or len(den) != 1 \
            or den.get(0) != 1:
        return None
    (k, c), = (pe or pr).items()
    if c != 1 and c != -1:
        return None
    return k, c, not pe


def _content(pe, pr, den, n):
    """The same value with n > 0 and the integer content gcd(n,
    coefficients) divided out."""
    g = abs(n)
    if g != 1:
        for c in chain(den.values(), pe.values(), pr.values()):
            g = gcd(g, c)
            if g == 1:
                break
    if n < 0:
        g = -g
    if g == 1:
        return pe, pr, den, n
    return ({e: c // g for e, c in pe.items()},
            {e: c // g for e, c in pr.items()},
            {e: c // g for e, c in den.items()}, n // g)


def _scalar(pe, pr, den, n):
    """The Scalar (pe + pr*r)/den for int dicts that hold n times its
    coefficients: unreduced while den has at most _LAZY_DEN_TERMS terms,
    reduced past that."""
    if not den:
        raise ZeroDivisionError("zero denominator in scalar")
    if not pe and not pr:
        return ZERO
    if len(den) <= _LAZY_DEN_TERMS:
        return _make(*_content(pe, pr, den, n), False)
    return _make(*_normalise(pe, pr, den), True)


def _normalise(pe, pr, den):
    """Reduced int storage (pe, pr, den, n) of (pe + pr*r)/den, a nonzero
    scalar given by int dicts (over any common divisor, which cancels).

    den is shifted to lowest exponent 0, the numerators and den are
    divided by their common gcd, computed on f(t), t = s^k (see the module
    docstring), and den's leading coefficient becomes n.  Where the gcd is
    nontrivial the dicts come out with ascending exponents; otherwise they
    keep their keys' order.
    """
    # pull the denominator's s-power into the numerators
    dshift = min(den)
    if dshift:
        den = _pshift(den, -dshift)
        pe = _pshift(pe, -dshift)
        pr = _pshift(pr, -dshift)
    if len(den) > 1:
        step = _step(den, pe, pr)
        g = _poly_gcd(_int_dense(pe if pe else pr, step),
                      _int_dense(den, step))
        if pr and pe and len(g) > 1:
            g = _poly_gcd(g, _int_dense(pr, step))  # gcd of all three
        if len(g) > 1:
            # den has a nonzero constant term, so g and den/g have one too
            pe = _pdiv_exact(pe, g, step)
            pr = _pdiv_exact(pr, g, step)
            den = _pdiv_exact(den, g, step)
    return _content(pe, pr, den, den[max(den)])


def _split(den):
    """(lo, c, p) with den = s^lo * c * p, for p primitive, of lowest
    exponent 0 and with a positive leading coefficient."""
    lo = min(den)
    c = gcd(*den.values())
    if den[max(den)] < 0:
        c = -c
    return lo, c, {e - lo: v // c for e, v in den.items()}


def _ascending(p):
    return dict(sorted(p.items()))


def dot(xs, ys) -> Scalar:
    """sum(x * y for x, y in zip(xs, ys)), stored reduced, with ascending
    exponents.

    Each product's numerator and denominator are formed without a
    reduction.  The denominators d1 d2 = s^lo c p (``_split``) go over
    one common denominator C L: L the lcm of the primitive parts p, C
    the lcm of the contents c, and the s-powers move into the
    numerators.  So the sum runs ``_normalise`` once, where summing
    product by product reduces each product and each partial sum.  The
    operands are not touched."""
    parts = []
    dens = {}
    for x, y in zip(xs, ys):
        if not x or not y:
            continue
        key = (tuple(x._den.items()), tuple(y._den.items()))
        if key not in dens:
            lo1, c1, p1 = _split(x._den)
            lo2, c2, p2 = _split(y._den)
            dens[key] = lo1 + lo2, c1 * c2, _pmul(p1, p2)
        parts.append((
            _padd(_pmul(x._pe, y._pe), _pmul(_RSQ, _pmul(x._pr, y._pr))),
            _padd(_pmul(x._pe, y._pr), _pmul(x._pr, y._pe)), key))
    if not parts:
        return ZERO
    # the gcds and divisions run in t = s^step, as in _normalise
    step = _step(*(p for _, _, p in dens.values()))
    common = {0: 1}
    for _, _, p in dens.values():
        if len(p) > 1:
            g = _poly_gcd(_int_dense(common, step), _int_dense(p, step))
            common = _pmul(common,
                           p if len(g) == 1 else _pdiv_exact(p, g, step))
    scale = lcm(*(c for _, c, _ in dens.values()))
    factors = {}
    for key, (lo, c, p) in dens.items():
        quot = _pdiv_exact(common, _int_dense(p, step), step) \
            if len(p) > 1 else common
        factors[key] = _pshift(_pscale(quot, scale // c), -lo)
    pe, pr = {}, {}
    for pe_i, pr_i, key in parts:
        f = factors[key]
        pe = _padd(pe, _pmul(pe_i, f))
        pr = _padd(pr, _pmul(pr_i, f))
    if not pe and not pr:
        return ZERO
    return _make(*_normalise(_ascending(pe), _ascending(pr),
                             _ascending(_pscale(common, scale))), True)


ZERO = _make({}, {}, {0: 1}, 1, True)
ONE = _make({0: 1}, {}, {0: 1}, 1, True)
ROOT_TWO_Q = _make({}, {0: 1}, {0: 1}, 1, True)  # r = [2]_q^{1/2}


def rational(x) -> Scalar:
    c = Fraction(x)
    if not c:
        return ZERO
    d = c.denominator
    return _make({0: c.numerator}, {}, {0: d}, d, True)


def s_pow(k: int) -> Scalar:
    """s^k, i.e. q^(k/2)."""
    return _make({k: 1}, {}, {0: 1}, 1, True)


def q_pow(k: int) -> Scalar:
    return _make({2 * k: 1}, {}, {0: 1}, 1, True)


def qnum(two_x: int) -> Scalar:
    """The q-number [x]_q = (q^{-x} - q^x)/(q^{-1} - q) for x = two_x/2.

    Integer x gives the familiar Laurent polynomial
    q^{-(x-1)} + q^{-(x-3)} + ... + q^{x-1}; half-integer x stays a
    rational function of s.
    """
    if two_x == 0:
        return ZERO
    return _scalar({-two_x: 1, two_x: -1}, {}, {-2: 1, 2: -1}, 1)
