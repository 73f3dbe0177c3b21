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
s^4) and the Haar values (-q)^n/[n+1]_{q^2} all lie in it.  A scalar is

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
``ValueError`` naming the value: there is no fallback.  Where a product
prod_N Phi_N^e_N is needed expanded (the ``den`` view, ``inverse()``, the
Phi_N a quotient leaves over, ``eval_float``, ``repr``, the cofactors of a
sum over the lcm, and the Phi_N table itself), it is expanded as a
product of binomials by Phi_N(s) = prod_{d | N} (s^d - 1)^mu(N/d), mu the
Moebius function (Lang, *Algebra*, VI §3), in ``_expansion``: every
multiplication by an s^d - 1 runs before the divisions, so each division
is exact, and each checks its remainder, raising ``ArithmeticError`` if
it is not.

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
3. A sum of products reduces once (curvature, spectra): ``dot`` sums
   x_i y_i s^e_i, where the sum taken term by term reduces after each
   product and each partial sum.  When every product has a factor with
   no denominator and the other factors share one denominator, the
   products' numerators add into one pair, reduced once (a unit factor
   is the one-term case); otherwise the products are formed unreduced
   and summed over their lcm.  Its callers: each coefficient of an
   ``Element`` product that several term pairs reach
   (``algebra.mul_sum``), so each coefficient of the inner products of
   one-forms and spinors, summed over both corners; every Haar value;
   and each coefficient of a spin-block basis vector and of del_f del_e
   on its monomials (``spectra._reduced``).  The leg walk of ``tensors``
   keeps its every product on this path: it ``clear``s each leg of its
   denominators and ``divide``s each entry once.

``pe``, ``pr`` and ``den`` are read-only views: a fresh {exponent:
Fraction} dict per call, exponents ascending.  Outputs read only the
canonical form: ``repr``, equality, hashing and ``eval_float`` each read
the reduced value in ascending exponent order, so no output depends on
how a scalar was built.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import neg, sub
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
    """Phi_N(t) as a dense int tuple, the constant term first."""
    return tuple(_dense(_expansion(((N, 1),)), 1))


def _primes(N):
    """The distinct prime factors of N, ascending."""
    out, p = [], 2
    while p * p <= N:
        if N % p == 0:
            out.append(p)
            while N % p == 0:
                N //= p
        p += 1
    return out + [N] if N > 1 else out


def _totient(N):
    for p in _primes(N):
        N -= N // p
    return N


def _binomials(N):
    """The pairs (d, mu(N/d)) for the d | N with N/d squarefree, one per
    squarefree divisor of N: Phi_N(s) = prod (s^d - 1)^mu(N/d)."""
    out = [(N, 1)]
    for p in _primes(N):
        out += [(d // p, -mu) for d, mu in out]
    return out


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
    exponents ascending, for a factor tuple ((N, e_N), ...).

    The product is one of binomials: s^d - 1 has the exponent sum_N e_N
    mu(N/d) (``_binomials``), so binomials that the Phi_N share cancel
    before any arithmetic, as in Phi_1 Phi_2 Phi_4 Phi_8 = s^8 - 1.  A
    dense list is multiplied by each binomial of positive exponent, one
    shift and subtraction each, and then divided by each of negative
    exponent (``_over_binomial``).  Each quotient is the expansion times
    the binomials still to divide, so each division is exact; one that
    is not raises ArithmeticError and caches nothing."""
    exps = {}
    for N, e in factors:
        for d, mu in _binomials(N):
            exps[d] = exps.get(d, 0) + mu * e
    p = [1]
    for d, e in exps.items():
        pad = [0] * d
        for _ in range(e):
            p = list(map(sub, pad + p, p + pad))
    for d, e in exps.items():
        for _ in range(-e):
            p = _over_binomial(p, d, factors)
    return MappingProxyType({i: c for i, c in enumerate(p) if c})


def _over_binomial(p, d, factors):
    """The dense quotient p / (s^d - 1): coefficient i is minus the running
    sum of p_i, p_(i-d), p_(i-2d), ..., one sum per residue class mod d.
    The top d coefficients of p, which the quotient drops, must equal its
    own top d (p_i = q_(i-d)), or the division is not exact and raises
    ArithmeticError naming the factor tuple being expanded."""
    n = len(p) - d
    q = [0] * max(n, 0)
    for r in range(min(d, n)):
        q[r::d] = itertools.accumulate(map(neg, p[r:n:d]))
    if n < 1 or p[n:] != ([0] * d + q)[-d:]:
        raise ArithmeticError("s^%d - 1 does not divide the expansion of %r"
                              % (d, factors))
    return q


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
    ``__add__`` (equal denominators add) and the function ``dot`` (a sum
    of products reduces once).
    """

    __slots__ = ("_pe", "_pr", "_n", "_factors")

    def __init__(self, pe, pr, den):
        """(pe + pr*r)/den from three {exponent: Fraction or int} dicts
        (``{}`` for no r part, ``{0: 1}`` for den = 1); den must be a
        product of cyclotomic polynomials up to c s^k."""
        pe, pr, den = _ints(pe, pr, den)
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
        return _over_lcm([self, other], [N for N, e in f1 if e2.get(N) == e])

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
        return _scalar(*_product(self, other, e))

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
        """self * other.inverse(); a zero divisor raises
        ``ZeroDivisionError``."""
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


def clear(xs):
    """(d, [x d for x in xs]) for scalars xs, reduced or not: d their lcm,
    held as (n, factors) for ``divide``, and each x d, its numerators times
    its cofactor in d, held with no denominator and not reduced."""
    n = lcm(*(x._n for x in xs))
    top = {}
    for x in xs:
        for N, e in x._factors:
            top[N] = max(e, top.get(N, 0))
    out = []
    for x in xs:
        exps = dict(x._factors)
        cofactor = tuple((N, e - exps.get(N, 0)) for N, e in sorted(top.items())
                         if e > exps.get(N, 0))
        f = _pscale(_expansion(cofactor), n // x._n)
        out.append(_make(_pmul(x._pe, f), _pmul(x._pr, f), 1, ()))
    return (n, tuple(sorted(top.items()))), out


def _over_lcm(xs, trial=None):
    """The reduced sum of the scalars xs, reduced or not, over their lcm
    (``clear``); ``_scalar`` tries the Phi_N of trial."""
    (n, factors), xs = clear(xs)
    return _scalar(accumulate({}, (t for x in xs for t in x._pe.items())),
                   accumulate({}, (t for x in xs for t in x._pr.items())),
                   n, factors, trial)


def divide(terms, dens):
    """The dict terms, its values with no denominator, each divided by the
    product of the dens from ``clear`` and reduced once."""
    n, factors = 1, ()
    for n_i, f_i in dens:
        n, factors = n * n_i, _factors_mul(factors, f_i)
    return {key: _scalar(x._pe, x._pr, n, factors)
            for key, x in terms.items()}


def _product(x, y, e):
    """The unreduced storage (pe, pr, n, factors) of x * y * s^e, by
    (pe1 + pr1 r)(pe2 + pr2 r) with r^2 = s^2 + s^-2."""
    pe = _padd(_pmul(x._pe, y._pe), _pmul(_RSQ, _pmul(x._pr, y._pr)))
    pr = _padd(_pmul(x._pe, y._pr), _pmul(x._pr, y._pe))
    return (_pshift(pe, e), _pshift(pr, e), x._n * y._n,
            _factors_mul(x._factors, y._factors))


def dot(triples) -> Scalar:
    """sum(x * y * s^e for x, y, e in triples), reduced once.  triples is
    read twice when a product leaves the first path, so it must be a
    sequence; an iterator raises TypeError.

    When every product has a factor with no denominator (n = 1, no Phi_N)
    and the other factors share one denominator, each product adds into
    one numerator pair over it, reduced once over its every Phi_N; a unit
    +-s^k or +-r s^k is the one-term case, a shift.  Else the products are
    formed unreduced and the sum reduces once over their lcm
    (``_over_lcm``).  Summing product by product would reduce each product
    and each partial sum.  The operands are not touched."""
    items = iter(triples)
    if items is triples:
        raise TypeError("dot needs a sequence of (x, y, e), not an iterator")
    pe, pr, n, factors = {}, {}, None, None
    get_e, get_r = pe.get, pr.get
    for x, y, e in items:
        other = x if y._n == 1 and not y._factors else y
        if other is y and (x._n != 1 or x._factors):
            break
        if n is None:
            n, factors = other._n, other._factors
        elif other._n != n or other._factors != factors:
            break
        # (pe1 + pr1 r)(pe2 + pr2 r), r^2 = s^2 + s^-2; accumulate's sum
        # inlined, zeros kept to the end (10% faster on curvature, item 8)
        pe2, pr2 = y._pe, y._pr
        for j1, c1 in x._pe.items():
            j1 += e
            for j2, c2 in pe2.items():
                j = j1 + j2
                pe[j] = get_e(j, 0) + c1 * c2
            for j2, c2 in pr2.items():
                j = j1 + j2
                pr[j] = get_r(j, 0) + c1 * c2
        for j1, c1 in x._pr.items():
            j1 += e
            for j2, c2 in pe2.items():
                j = j1 + j2
                pr[j] = get_r(j, 0) + c1 * c2
            for j2, c2 in pr2.items():
                j, c = j1 + j2, c1 * c2
                pe[j + 2] = get_e(j + 2, 0) + c
                pe[j - 2] = get_e(j - 2, 0) + c
    else:
        return _scalar({e: c for e, c in pe.items() if c},
                       {e: c for e, c in pr.items() if c}, n, factors)
    return _over_lcm([_make(*_product(x, y, e)) for x, y, e in triples
                      if x and y])


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
