"""Exact scalar arithmetic for the quantum sphere.

Every constant that appears in the differential geometry of the standard
quantum sphere lies in the field

    K = Q(s)[r] / (r^2 - s^2 - s^{-2}),

where ``s`` is a formal square root of the deformation parameter ``q`` and
``r`` is a square root of the q-integer ``[2]_q = q + q^{-1}``.  Working in
K keeps half-integer powers of q and the frame normalisation ``[2]_q^{1/2}``
exact, so every identity in the package is decided by arithmetic rather
than by numerics.

The package computes in the subring K_cyc of K whose denominators are
products of cyclotomic polynomials Phi_N(s): q-numbers, r^-1 = r s^2/(1 +
s^4), the Haar values (-q)^n/[n+1]_{q^2} and the Gram norms built from
them all lie in it.  A scalar is

    (pe + pr * r) / (n * prod_N Phi_N(s)^e_N),

``pe``, ``pr`` Laurent polynomials in ``s`` with integer coefficients,
``n`` a positive integer and the denominator held as its exponents e_N.
Every scalar is stored reduced: no Phi_N of the denominator divides both
numerators, and n shares no factor with all their coefficients.  That
form is unique, so equality is a tuple comparison and scalars can be
dictionary keys.  A product adds the exponents and a sum takes the larger
of each, the lcm, with no gcd; the reduction then divides out a Phi_N
only where a test mod p (``_vanishes``) finds it in both numerators.

A denominator is born factored, in ``inverse()`` (the norm pe^2 - pr^2
(s^2 + s^-2)), in ``Scalar(pe, pr, den)``, in ``rational`` and in
``qnum``, by trial division over the Phi_N of degree at most its own, in
t = s^k (``_factor``).  A factor that is not cyclotomic raises
``ValueError`` naming the value: there is no fallback.

The q -> 1 limit substitutes s = 1 into the reduced form, never
differentiating: only Phi_1 vanishes at s = 1, so a reduced scalar has a
pole there exactly when its denominator holds Phi_1.  Values with a
nonzero r-part pick up an exact multiple of sqrt(2) at q = 1 and are
returned as a pair of rationals.

Three kernels take the shapes the program makes most, each giving the
value of the general arithmetic exactly and each kept because the
benchmark workload named with it is slower without it (ROADMAP item 8):

1. A unit factor shifts (curvature, connection, spectra).  A product
   with +-s^k or +-r s^k over denominator 1 (every frame entry and its
   star) moves the other factor's exponents, negated for -1, with r (pe +
   pr r) = pr (s^2 + s^-2) + pe r for r; the s-power of a PBW product
   (``mul_s``) joins the shift.  An s-shift needs no reduction, an
   r-shift only a test of Phi_8 = s^4 + 1.
2. Equal denominators add (curvature, connection): same factors and n.
3. A dot product reduces once (spectra): ``dot`` sums x_i y_i over one
   common denominator, where the sum taken term by term reduces after
   each product and each partial sum.  Every Haar value is one.

``pe``, ``pr`` and ``den`` are read-only views: a fresh {exponent:
Fraction} dict per call, exponents ascending.  Outputs read only the
canonical form: ``repr``, equality, hashing and ``eval_float`` each read
the reduced value in ascending exponent order, so no output depends on
how a scalar was built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from types import MappingProxyType

# ---------------------------------------------------------------------------
# Laurent polynomials in s as {exponent: int} dicts (zero coeffs absent)
# ---------------------------------------------------------------------------


def accumulate(out, items):
    """Add each (key, value) of items into the dict out and return out.

    The one sparse-sum rule of the package, for ints, scalars and
    elements alike: a key whose sum is zero is deleted, so out never holds
    a zero."""
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
    # took 7% and a spectra cycle 17% longer (ROADMAP item 8)
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


# -- Fraction dicts in and out ------------------------------------------------


def _ints(*ps):
    """Fraction (or int) dicts -> int dicts, each p times the lcm d of every
    coefficient denominator."""
    d = lcm(*{c.denominator for p in ps for c in p.values()})
    return [{e: c.numerator * (d // c.denominator) for e, c in p.items()}
            for p in ps]


def _fracs(p, d):
    """Int dict over the common denominator d -> Fraction dict, exponents
    ascending."""
    return {e: Fraction(p[e], d) for e in sorted(p)}


# -- dense polynomials --------------------------------------------------------


def _step(p):
    """The largest k with p = s^lo * f(s^k); 0 for a monomial."""
    lo = min(p)
    return gcd(*(e - lo for e in p))


def _dense(p, step):
    """Int Laurent dict s^lo * f(s^step) -> dense list of the coefficients
    of f from the constant term up; its last entry is nonzero."""
    lo = min(p)
    out = [0] * ((max(p) - lo) // step + 1)
    for e, c in p.items():
        out[(e - lo) // step] = c
    return out


def _divide(a, b):
    """a / b for dense int lists, a nonzero and b monic of degree >= 1: the
    quotient, its last entry nonzero, or None when b does not divide a."""
    db = len(b) - 1
    if len(a) <= db:
        return None
    r = list(a)
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i]
        if c:
            off = i - db
            quot[off] = c
            for j in range(db):
                r[off + j] -= c * b[j]
    return None if any(r[:db]) else quot


# -- cyclotomic polynomials and factored denominators -------------------------


@cache
def _cyclotomic(N):
    """Phi_N(t) as a dense int tuple: t^N - 1 divided by the Phi_d of every
    proper divisor d of N."""
    p = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d == 0:
            p = _divide(p, _cyclotomic(d))
    return tuple(p)


def _totient(N):
    out, m, p = N, N, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    return out - out // m if m > 1 else out


@cache
def _orders(degree):
    """Every N with Phi_N of degree phi(N) <= degree, ascending.  phi(N) >=
    sqrt(N) but for N = 2 and 6, so N <= max(degree^2, 6)."""
    return tuple(N for N in range(1, max(degree * degree, 6) + 1)
                 if _totient(N) <= degree)


def _family(M, k):
    """The N with Phi_N(s) dividing Phi_M(s^k), those with N / gcd(N, k) =
    M; Phi_M(s^k) is their product."""
    return [M * d for d in range(1, k + 1)
            if k % d == 0 and gcd(M * d, k) == d]


def _factors_mul(f1, f2):
    """The factor tuple of a product: exponents add."""
    out = dict(f1)
    for N, e in f2:
        out[N] = out.get(N, 0) + e
    return tuple(sorted(out.items()))


@cache
def _expansion(factors):
    """prod_N Phi_N(s)^e_N as a read-only {exponent: int} mapping,
    exponents ascending, for a factor tuple ((N, e_N), ...)."""
    p = {0: 1}
    for N, e in factors:
        phi = {i: c for i, c in enumerate(_cyclotomic(N)) if c}
        for _ in range(e):
            p = _pmul(p, phi)
    return MappingProxyType(dict(sorted(p.items())))


def _factor(p):
    """(lo, c, factors) with the int Laurent dict p = c s^lo prod_N
    Phi_N(s)^e_N, c a nonzero int and factors the tuple ((N, e_N), ...);
    None when p is not of that form.

    A product of cyclotomic polynomials is monic with constant term +-1 and
    a palindrome up to sign, so most other polynomials fail at once.  The
    trial division runs in t = s^k, k = ``_step(p)``, by each Phi_M(t) of
    degree at most f's that passes ``_vanishes``; each that divides takes
    out the family Phi_M(s^k) at once (``_family``)."""
    k = _step(p)
    lo = min(p)
    f = _dense(p, k) if k else [p[lo]]
    c = gcd(*f)
    if f[-1] < 0:
        c = -c
    f = [v // c for v in f]
    if f[-1] != 1 or f[0] not in (1, -1) \
            or (f != f[::-1] and f != [-v for v in reversed(f)]):
        return None
    found = {}
    for M in _orders(len(f) - 1):
        b = _cyclotomic(M)
        e = 0
        while len(b) <= len(f) and _vanishes(dict(enumerate(f)), M):
            g = _divide(f, b)
            if g is None:
                break
            f, e = g, e + 1
        if e:
            for N in _family(M, k):
                found[N] = e
        if len(f) == 1:
            break
    return (lo, c, tuple(sorted(found.items()))) if f == [1] else None


@cache
def _root(N):
    """(p, w^0, ..., w^(N-1) mod p) with w^N = 1 and Phi_N(w) = 0 mod p,
    both checked, so ``_vanishes`` is sound for any p; p = 1 mod N is
    chosen near 2^31, where such a w exists if p is prime and a false
    pass of ``_vanishes`` is rare."""
    phi = _cyclotomic(N)
    p = (2 ** 31 // N + 1) * N + 1
    while True:
        for a in range(2, 40 if pow(2, p - 1, p) == 1 else 2):
            w = pow(a, (p - 1) // N, p)
            if pow(w, N, p) == 1 and \
                    sum(c * pow(w, j, p) for j, c in enumerate(phi)) % p == 0:
                return (p, *(pow(w, j, p) for j in range(N)))
        p += N


def _vanishes(f, N):
    """Whether f(w) = 0 mod p for ``_root(N)``: true when Phi_N(s) divides
    the int Laurent dict f, and tested in one pass over f's terms before
    any division."""
    p, *powers = _root(N)
    return not f or sum(c * powers[e % N] for e, c in f.items()) % p == 0


def _reduce(pe, pr, n, factors, trial):
    """Reduced storage (pe, pr, n, factors) of the nonzero scalar (pe + pr
    r) / (n prod Phi_N^e_N): each Phi_N of the denominator with N in trial
    (every N when trial is None) that passes ``_vanishes`` for both
    numerators divides out of both as often as it divides both; then the
    integer content of n and the numerators divides out."""
    exps = dict(factors)
    for N in (exps if trial is None else trial):
        if N not in exps or not (_vanishes(pe, N) and _vanishes(pr, N)):
            continue
        b = _cyclotomic(N)
        lo_e, lo_r = (min(p) if p else 0 for p in (pe, pr))
        fe, fr = (_dense(p, 1) if p else [] for p in (pe, pr))
        while exps[N]:
            ge = _divide(fe, b) if fe else fe
            gr = _divide(fr, b) if fr else fr
            if ge is None or gr is None:
                break
            fe, fr = ge, gr
            exps[N] -= 1
        pe = {lo_e + i: c for i, c in enumerate(fe) if c}
        pr = {lo_r + i: c for i, c in enumerate(fr) if c}
        factors = tuple(sorted((N, e) for N, e in exps.items() if e))
    g = gcd(n, *pe.values(), *pr.values()) if n != 1 else 1
    if g == 1:
        return pe, pr, n, factors
    return ({e: c // g for e, c in pe.items()},
            {e: c // g for e, c in pr.items()}, n // g, factors)


# ---------------------------------------------------------------------------
# the field K
# ---------------------------------------------------------------------------

# r^2 = s^2 + s^{-2}
_RSQ = {2: 1, -2: 1}


class Scalar:
    """An element (pe + pr*r)/(n prod Phi_N^e_N) of K_cyc, inside K =
    Q(s)[r]/(r^2 - s^2 - s^{-2}) (module docstring).

    Stored reduced as int dicts ``_pe``, ``_pr``, one int ``_n`` > 0 and
    the factor tuple ``_factors`` = ((N, e_N), ...), N ascending; ``pe``,
    ``pr`` and ``den`` are Fraction views of the numerators over n and of
    the expanded monic denominator.  The module docstring's kernels sit in
    ``mul_s`` (a unit factor shifts; ``*`` is ``mul_s`` with no s-power),
    ``__add__`` (equal denominators add) and the function ``dot``.
    """

    __slots__ = ("_pe", "_pr", "_n", "_factors")

    def __init__(self, pe, pr=None, den=None):
        """(pe + pr*r)/den from {exponent: Fraction or int} dicts; den must
        be a product of cyclotomic polynomials up to c s^k."""
        pe, pr, den = _ints(pe, {} if pr is None else pr,
                            {0: 1} if den is None else den)
        if not den:
            raise ZeroDivisionError("zero denominator in scalar")
        x = _over_factored(pe, pr, den)
        if x is None:
            raise ValueError("denominator %r is outside the cyclotomic ring: "
                             "it has a non-cyclotomic factor" % (den,))
        self._pe, self._pr, self._n, self._factors = \
            x._pe, x._pr, x._n, x._factors

    # -- the Fraction views -------------------------------------------------

    @property
    def pe(self):
        return _fracs(self._pe, self._n)

    @property
    def pr(self):
        return _fracs(self._pr, self._n)

    @property
    def den(self):
        return _fracs(_expansion(self._factors), 1)

    # -- canonical key, equality, hashing -----------------------------------

    def _freeze(self):
        return (tuple(sorted(self._pe.items())),
                tuple(sorted(self._pr.items())),
                self._factors, self._n)

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
        pe, pr, factors, n = key = self._freeze()
        if not pr and not factors:
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
        pe1, pr1, n1, f1 = self._pe, self._pr, self._n, self._factors
        pe2, pr2, n2, f2 = other._pe, other._pr, other._n, other._factors
        if f1 == f2:  # equal denominators add
            n = lcm(n1, n2)
            k1, k2 = n // n1, n // n2
            return _scalar(_padd(_pscale(pe1, k1), _pscale(pe2, k2)),
                           _padd(_pscale(pr1, k1), _pscale(pr2, k2)), n, f1)
        # a Phi_N can only divide out where both exponents are equal:
        # elsewhere the sum is one reduced numerator times a unit modulo
        # Phi_N
        e2 = dict(f2)
        return _over_lcm([(pe1, pr1, n1, f1), (pe2, pr2, n2, f2)],
                         [N for N, e in f1 if e2.get(N) == e])

    def __neg__(self):
        return _make(_pneg(self._pe), _pneg(self._pr), self._n,
                     self._factors)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.mul_s(other, 0)

    def mul_s(self, other: "Scalar", e: int) -> "Scalar":
        """self * other * s^e.

        A unit factor (``_unit``) takes no product: the other factor
        shifts by k + e, negated for -1, and r (pe + pr r) = pr (s^2 +
        s^-2) + pe r, where only Phi_8 = s^4 + 1 can divide out.  Any other
        pair forms the product, shifted by e, and reduces it."""
        if not self or not other:
            return ZERO
        unit, x = _unit(self), other
        if unit is None:
            unit, x = _unit(other), self
        if unit is not None:
            k, sign, with_r = unit
            pe, pr = _pmove(x._pe, k + e, sign), _pmove(x._pr, k + e, sign)
            if not with_r:
                return _make(pe, pr, x._n, x._factors)
            return _scalar(_pmul(_RSQ, pr), pe, x._n, x._factors, (8,))
        a, b = self, other
        pe = _padd(_pmul(a._pe, b._pe), _pmul(_RSQ, _pmul(a._pr, b._pr)))
        pr = _padd(_pmul(a._pe, b._pr), _pmul(a._pr, b._pe))
        return _scalar(_pshift(pe, e), _pshift(pr, e), a._n * b._n,
                       _factors_mul(a._factors, b._factors))

    def scale_s(self, k: int) -> "Scalar":
        """Fast multiplication by s^k."""
        if not self:
            return self
        return _make(_pshift(self._pe, k), _pshift(self._pr, k), self._n,
                     self._factors)

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("inverse of zero scalar")
        # 1/((pe + pr r)/(n D)) = n D (pe - pr r) / (pe^2 - pr^2 (s^2+s^-2));
        # with no r-part, n D / pe, reduced as it stands: no Phi_N of D
        # divides pe, and n shares no factor with pe's content
        pe, pr = self._pe, self._pr
        num = _pscale(_expansion(self._factors), self._n)
        x = _over_factored(num, {}, pe, ()) if not pr else _over_factored(
            _pmul(num, pe), _pneg(_pmul(num, pr)),
            _padd(_pmul(pe, pe), _pneg(_pmul(_RSQ, _pmul(pr, pr)))))
        if x is None:
            raise ValueError("%r is outside the cyclotomic ring: its norm "
                             "has a non-cyclotomic factor" % self)
        return x

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out, base = ONE, self
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

        Each numerator coefficient is the correctly rounded c / n, which is
        float(Fraction(c, n)), summed with exponents ascending; so is the
        expanded monic denominator."""
        n = self._n
        s = q ** 0.5
        r = (q + 1.0 / q) ** 0.5
        pe = sum([c / n * s ** e for e, c in sorted(self._pe.items())])
        pr = sum([c / n * s ** e for e, c in sorted(self._pr.items())])
        if not self._factors:  # den = 1.0, and x / 1.0 == x exactly
            return pe + pr * r
        den = sum([c * s ** e for e, c in _expansion(self._factors).items()])
        return (pe + pr * r) / den

    def limit_q_one(self):
        """Exact q -> 1 limit by substituting s = 1 into the reduced form.

        Returns (u, v) with value u + v*sqrt(2) as exact rationals.  Only
        Phi_1 = s - 1 vanishes at s = 1, so a pole at q = 1, which raises,
        is a denominator holding Phi_1."""
        den = self._n
        for N, e in self._factors:
            den *= sum(_cyclotomic(N)) ** e
        if not den:
            raise ZeroDivisionError("pole at q = 1")
        return (Fraction(sum(self._pe.values()), den),
                Fraction(sum(self._pr.values()), den))

    # -- display ------------------------------------------------------------

    @staticmethod
    def _poly_str(p, n):
        if not p:
            return "0"
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
        if not self:
            return "0"
        n = self._n
        num = self._poly_str(self._pe, n)
        if self._pr:
            rpart = "(%s)*r" % self._poly_str(self._pr, n)
            num = rpart if not self._pe else "%s + %s" % (num, rpart)
        if not self._factors:
            return num
        return "(%s)/(%s)" % (num, self._poly_str(
            _expansion(self._factors), 1))


def _make(pe, pr, n, factors):
    x = object.__new__(Scalar)
    x._pe, x._pr, x._n, x._factors = pe, pr, n, factors
    return x


def _unit(x):
    """(k, sign, r) for a nonzero x stored as sign * s^k (r False) or
    sign * r s^k (r True) over denominator 1, sign = +-1; None for every
    other x.  A product with such a unit is a shift (``mul_s``)."""
    pe, pr = x._pe, x._pr
    if len(pe) + len(pr) != 1 or x._n != 1 or x._factors:
        return None
    (k, c), = (pe or pr).items()
    if c != 1 and c != -1:
        return None
    return k, c, not pe


def _scalar(pe, pr, n, factors, trial=None):
    """The reduced Scalar (pe + pr*r)/(n prod Phi_N^e_N) for int dicts and
    a factor tuple; only the Phi_N of trial (all when None) are tried."""
    if not pe and not pr:
        return ZERO
    return _make(*_reduce(pe, pr, n, factors, trial))


def _over_factored(pe, pr, den, trial=None):
    """The reduced Scalar (pe + pr*r)/den for int dicts, den factored here
    (``_factor``); None when den is outside the cyclotomic ring."""
    born = _factor(den)
    if born is None:
        return None
    lo, c, factors = born
    sign = 1 if c > 0 else -1
    return _scalar(_pmove(pe, -lo, sign), _pmove(pr, -lo, sign), abs(c),
                   factors, trial)


def _over_lcm(parts, trial=None):
    """The reduced sum of the (pe, pr, n, factors) quotients in parts, over
    their lcm: the lcm of the n and the largest exponent of each Phi_N;
    ``_scalar`` tries the Phi_N of trial."""
    n = lcm(*(part[2] for part in parts))
    top = {}
    for *_, factors in parts:
        for N, e in factors:
            top[N] = max(e, top.get(N, 0))
    pe, pr = {}, {}
    for pe_i, pr_i, n_i, factors in parts:
        exps = dict(factors)
        cofactor = tuple((N, e - exps.get(N, 0)) for N, e in sorted(top.items())
                         if e > exps.get(N, 0))
        f = _pscale(_expansion(cofactor), n // n_i)
        accumulate(pe, _pmul(pe_i, f).items())
        accumulate(pr, _pmul(pr_i, f).items())
    return _scalar(pe, pr, n, tuple(sorted(top.items())), trial)


def dot(xs, ys) -> Scalar:
    """sum(x * y for x, y in zip(xs, ys)), reduced once.

    Each product's numerators and factors are formed without a reduction
    and the sum reduces once over their lcm (``_over_lcm``), where summing
    product by product reduces each product and each partial sum.  The
    operands are not touched."""
    parts = [(_padd(_pmul(x._pe, y._pe), _pmul(_RSQ, _pmul(x._pr, y._pr))),
              _padd(_pmul(x._pe, y._pr), _pmul(x._pr, y._pe)),
              x._n * y._n, _factors_mul(x._factors, y._factors))
             for x, y in zip(xs, ys) if x and y]
    return _over_lcm(parts) if parts else ZERO


ZERO = _make({}, {}, 1, ())
ONE = _make({0: 1}, {}, 1, ())
ROOT_TWO_Q = _make({}, {0: 1}, 1, ())  # r = [2]_q^{1/2}


def rational(x) -> Scalar:
    c = Fraction(x)
    if not c:
        return ZERO
    return _make({0: c.numerator}, {}, c.denominator, ())


def s_pow(k: int) -> Scalar:
    """s^k, i.e. q^(k/2)."""
    return _make({k: 1}, {}, 1, ())


def q_pow(k: int) -> Scalar:
    return _make({2 * k: 1}, {}, 1, ())


def qnum(two_x: int) -> Scalar:
    """The q-number [x]_q = (q^{-x} - q^x)/(q^{-1} - q) for x = two_x/2.

    Integer x gives the familiar Laurent polynomial
    q^{-(x-1)} + q^{-(x-3)} + ... + q^{x-1}; half-integer x stays a
    rational function of s.
    """
    if two_x == 0:
        return ZERO
    return Scalar({-two_x: 1, two_x: -1}, {}, {-2: 1, 2: -1})
