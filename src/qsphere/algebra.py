"""The quantum group coordinate algebra and the quantum sphere inside it.

Elements of O(SU_q(2)) are kept in Poincare-Birkhoff-Witt normal form: every
element is a K-linear combination of monomials

    a^i b^j c^k        or        d^i b^j c^k   (i >= 1),

using the defining relations

    ab = q ba,  ac = q ca,  bd = q db,  cd = q dc,  bc = cb,
    ad = 1 + q bc,  da = 1 + q^{-1} bc,

and the star structure a* = d, b* = -q c, c* = -q^{-1} b, d* = a.  Reduction
to normal form happens inside monomial multiplication, so equality of
elements is literal equality of coefficient dictionaries.

The circle action grades the algebra: deg(a) = deg(c) = -1 and
deg(b) = deg(d) = +1 (twice the right spin weight).  The degree-0 subalgebra
is the coordinate algebra of the quantum sphere, generated by

    A = -q^{-1} b c,   B = -q^{-1} a b,   B* = c d.

The twisted derivations del_e, del_f (raising/lowering the column index of
matrix elements) and the group-like del_k implement the Dirac calculus:

    del_e(xy) = del_e(x) del_k(y) + del_k^{-1}(x) del_e(y),

and similarly for del_f.  On the generators: del_e sends a -> b, c -> d and
kills b, d; del_f sends b -> a, d -> c and kills a, c; del_k scales a
degree-n element by q^{n/2}.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

from .coeff import (ONE, ROOT_TWO_Q, Scalar, accumulate, dot, q_pow, qnum,
                    rational, s_pow)

# monomial: (branch, i, j, k); branch 0 = a^i b^j c^k, branch 1 = d^i b^j c^k
MONO_ID = (0, 0, 0, 0)

_M_A = (0, 1, 0, 0)
_M_B = (0, 0, 1, 0)
_M_C = (0, 0, 0, 1)
_M_D = (1, 1, 0, 0)


def mono_length(m) -> int:
    return m[1] + m[2] + m[3]


def mono_degree(m) -> int:
    t, i, j, k = m
    return (i if t else -i) + j - k


# ---------------------------------------------------------------------------
# normal-form monomial products
# ---------------------------------------------------------------------------

@functools.cache
def _cross_pow(t1, i, m):
    """a^i d^m (t1 = 0) or d^i a^m (t1 = 1) as ((monomial, s-exponent), ...)
    using ad = 1 + q bc and da = 1 + q^{-1} bc."""
    if i == 0 or m == 0:
        # a single power: of the second letter if i = 0, else of the first
        t, p = (1 - t1, m) if i == 0 else (t1, i)
        return (((t, p, 0, 0) if p else MONO_ID, 0),)
    step = 4 * m - 2 if t1 == 0 else 2 - 4 * m
    out = []
    for (t, p, j, k), e in _cross_pow(t1, i - 1, m - 1):
        out.append(((t, p, j, k), e))
        out.append(((t, p, j + 1, k + 1), e + step))
    return tuple(out)


@functools.cache
def mono_mul(m1, m2):
    """Product of two normal-form monomials: ((monomial, s-exponent), ...)."""
    t1, i1, j1, k1 = m1
    t2, i2, j2, k2 = m2
    if i2 == 0:
        return (((t1, i1, j1 + j2, k1 + k2), 0),)
    bc1 = j1 + k1
    sexp = 2 * i2 * bc1 if t2 else -2 * i2 * bc1
    if i1 == 0:
        return (((t2, i2, j1 + j2, k1 + k2), sexp),)
    if t1 == t2:
        return (((t1, i1 + i2, j1 + j2, k1 + k2), sexp),)
    return tuple(((t, p, j + j1 + j2, k + k1 + k2), e + sexp)
                 for (t, p, j, k), e in _cross_pow(t1, i1, i2))


def mono_star(m):
    """Star of a monomial: (monomial, sign, s-exponent)."""
    t, i, j, k = m
    if t == 0:
        return (1, i, k, j) if i else (0, 0, k, j), (-1) ** (j + k), \
            2 * (j - k) + 2 * i * (j + k)
    return (0, i, k, j), (-1) ** (j + k), 2 * (j - k) - 2 * i * (j + k)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class Element:
    """A K-linear combination of normal-form monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    @staticmethod
    def from_mono(m, coeff=ONE) -> "Element":
        if coeff.is_zero():
            return Element()
        return Element({m: coeff})

    @staticmethod
    def scalar(c: Scalar) -> "Element":
        return Element.from_mono(MONO_ID, c)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return Element(accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return Element({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """The PBW product, one ``mul_sum``: each output coefficient is
        reduced once."""
        if not isinstance(other, Element):
            return NotImplemented
        return mul_sum(((self, other, 0),))

    def scale(self, c: Scalar) -> "Element":
        if c.is_zero():
            return Element()
        return Element({m: c * v for m, v in self.terms.items()})

    def scale_s(self, e: int) -> "Element":
        if e == 0:
            return self
        return Element({m: v.scale_s(e) for m, v in self.terms.items()})

    def star(self) -> "Element":
        """Term by term: ``mono_star`` is one-to-one, so no two terms
        merge."""
        out = {}
        for m, c in self.terms.items():
            sm, sign, e = mono_star(m)
            v = c.scale_s(e)
            out[sm] = v if sign > 0 else -v
        return Element(out)

    # -- grading ------------------------------------------------------------

    def degrees(self):
        return {mono_degree(m) for m in self.terms}

    # -- display ------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (mono_length(m), m)):
            c = self.terms[m]
            word = mono_str(m)
            cs = repr(c)
            if word == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(word)
            elif cs == "-1":
                parts.append("-%s" % word)
            else:
                parts.append("(%s)*%s" % (cs, word))
        return " + ".join(parts).replace("+ -", "- ")


def mul_sum(triples) -> Element:
    """sum(x * y * s^e for x, y, e in triples) for elements x, y: the PBW
    product and the sums of products that the inner products form.

    The contributions c1 c2 s^(e + e') of every term pair to one output
    monomial (``mono_mul`` gives e') are summed by one ``coeff.dot``,
    reduced once; a monomial with one contribution is ``mul_s``."""
    groups = {}
    for x, y, e in triples:
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                for m, e12 in mono_mul(m1, m2):
                    group = groups.get(m)
                    if group is None:
                        groups[m] = [(c1, c2, e + e12)]
                    else:
                        group.append((c1, c2, e + e12))
    out = {}
    for m, group in groups.items():
        if len(group) == 1:
            (c1, c2, e), = group
            c = c1.mul_s(c2, e)
        else:
            c = dot(group)
        if c:
            out[m] = c
    return Element(out)


def mono_str(m) -> str:
    t, i, j, k = m
    parts = []
    for letter, p in (("d" if t else "a", i), ("b", j), ("c", k)):
        if p == 1:
            parts.append(letter)
        elif p > 1:
            parts.append("%s^%d" % (letter, p))
    return "*".join(parts) if parts else "1"


ZERO_EL = Element()
ONE_EL = Element.from_mono(MONO_ID)

GEN_A = Element.from_mono(_M_A)
GEN_B = Element.from_mono(_M_B)
GEN_C = Element.from_mono(_M_C)
GEN_D = Element.from_mono(_M_D)

# sphere generators: A = -q^{-1} bc, B = -q^{-1} ab, B* = cd
SPHERE_A = Element.from_mono((0, 0, 1, 1), -q_pow(-1))
SPHERE_B = Element.from_mono((0, 1, 1, 0), -q_pow(-1))
SPHERE_BSTAR = GEN_C * GEN_D


# ---------------------------------------------------------------------------
# pairs of elements
# ---------------------------------------------------------------------------

class Pair:
    """Two elements (plus, minus): the shared componentwise structure of the
    one-forms, spinors and diagonal matrices that act on S+ (+) S-.

    Sums, scaling and the left action of the algebra work entry by entry
    and keep the operand's type; values of different subclasses never
    compare equal.
    """

    __slots__ = ("plus", "minus")

    def __init__(self, plus: Element = ZERO_EL, minus: Element = ZERO_EL):
        self.plus = plus
        self.minus = minus

    @classmethod
    def slot(cls, sign: int, x: Element):
        """x in the plus entry for sign > 0, else in the minus entry."""
        return cls(plus=x) if sign > 0 else cls(minus=x)

    def is_zero(self) -> bool:
        return self.plus.is_zero() and self.minus.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.plus == other.plus and self.minus == other.minus

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(self.plus + other.plus, self.minus + other.minus)

    def __neg__(self):
        return type(self)(-self.plus, -self.minus)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(self.plus - other.plus, self.minus - other.minus)

    def scale(self, c: Scalar):
        return type(self)(self.plus.scale(c), self.minus.scale(c))

    def __rmul__(self, other):
        """Left action of the algebra."""
        if isinstance(other, Element):
            return type(self)(other * self.plus, other * self.minus)
        return NotImplemented

    def __repr__(self):
        return "%s(plus=%r, minus=%r)" % (type(self).__name__, self.plus,
                                          self.minus)


# ---------------------------------------------------------------------------
# twisted derivations
# ---------------------------------------------------------------------------

# del_e: a -> b, c -> d; del_f: b -> a, d -> c
_DEL_LETTER = {"e": {_M_A: _M_B, _M_C: _M_D}, "f": {_M_B: _M_A, _M_D: _M_C}}

_LETTER_DEG = {_M_A: -1, _M_B: 1, _M_C: -1, _M_D: 1}


def _mono_split(m):
    """Strip the leftmost letter: (letter monomial, remainder monomial)."""
    t, i, j, k = m
    if i:
        if t == 0:
            return _M_A, (0, i - 1, j, k)
        return _M_D, (1, i - 1, j, k) if i > 1 else (0, 0, j, k)
    if j:
        return _M_B, (0, 0, j - 1, k)
    return _M_C, (0, 0, 0, k - 1)


@functools.cache
def _mono_del(m, which):
    """del_e (which = "e") or del_f ("f") of a monomial, as a dict
    monomial -> Scalar, by the twisted Leibniz rule on its leftmost
    letter."""
    if m == MONO_ID:
        return {}
    letter, rest = _mono_split(m)
    ldeg = _LETTER_DEG[letter]
    out = {}
    hit = _DEL_LETTER[which].get(letter)
    if hit is not None:
        rdeg = mono_degree(rest)
        accumulate(out, ((mm, s_pow(e + rdeg))
                         for mm, e in mono_mul(hit, rest)))
    return accumulate(out, ((mmm, c.scale_s(e - ldeg))
                            for mm, c in _mono_del(rest, which).items()
                            for mmm, e in mono_mul(letter, mm)))


def _apply_del(x: Element, which) -> Element:
    return Element(accumulate({}, ((mm, c * d)
                                   for m, c in x.terms.items()
                                   for mm, d in _mono_del(m, which).items())))


def del_e(x: Element) -> Element:
    """Raising derivation: the upper-right entry of the Dirac commutator."""
    return _apply_del(x, "e")


def del_f(x: Element) -> Element:
    """Lowering derivation: the lower-left entry of the Dirac commutator."""
    return _apply_del(x, "f")


def del_k(x: Element, power: int = 1) -> Element:
    """Group-like twist: scales the degree-n part by q^{power*n/2}."""
    out = {}
    for m, c in x.terms.items():
        out[m] = c.scale_s(power * mono_degree(m))
    return Element(out)


# ---------------------------------------------------------------------------
# matrix elements of the two smallest corepresentations
# ---------------------------------------------------------------------------


_SPIN_HALF = {(-1, -1): GEN_A, (-1, 1): GEN_B, (1, -1): GEN_C, (1, 1): GEN_D}


def spin_half(i2: int, j2: int) -> Element:
    """Matrix element of the defining corepresentation; indices are doubled,
    so (i2, j2) ranges over {-1, +1}^2 and spin_half(-1, -1) = a."""
    return _SPIN_HALF[(i2, j2)]


def spin_one(m: int, j: int) -> Element:
    """Matrix element t(m, j) of the vector corepresentation, m, j in
    {-1, 0, 1}.

    The middle column is fixed by the sphere generators together with
    orthogonality of the corepresentation matrix (the j = 0, m = 0 entry
    carries a constant term, pinned by Haar-orthogonality to the identity);
    the j = +-1 columns are [2]_q^{-1/2} del_{e/f} of the middle one.
    """
    if m not in (-1, 0, 1) or j not in (-1, 0, 1):
        raise ValueError("spin_one needs m, j in {-1, 0, 1}, got (%r, %r)"
                         % (m, j))
    if j == 1:
        return del_e(spin_one(m, 0)).scale(ROOT_TWO_Q.inverse())
    if j == -1:
        return del_f(spin_one(m, 0)).scale(ROOT_TWO_Q.inverse())
    if m == -1:
        return (GEN_A * GEN_B).scale(ROOT_TWO_Q.scale_s(-1))
    if m == 0:
        return ONE_EL + (GEN_B * GEN_C).scale(qnum(4))
    return (GEN_C * GEN_D).scale(ROOT_TWO_Q.scale_s(-1))


class Verdict(NamedTuple):
    """The outcome of an exact check, falsy on failure: ok, and for a
    failure the first case that failed and its nonzero residual lhs - rhs."""

    ok: bool
    case: str | None = None
    residual: object = None

    def __bool__(self):
        return self.ok


def exact_check(cases):
    """Turn a generator function of (case, lhs, rhs) triples into a check
    returning a ``Verdict``.  The triples are drawn one at a time and the
    first with lhs != rhs stops the check; only then is lhs - rhs
    computed, so a passing check costs its comparisons."""
    @functools.wraps(cases)
    def check() -> Verdict:
        for case, lhs, rhs in cases():
            if lhs != rhs:
                return Verdict(False, case, lhs - rhs)
        return Verdict(True)
    return check


@exact_check
def check_podles_relations():
    """The defining relations of the sphere generators A, B, B*."""
    a, b, bs = SPHERE_A, SPHERE_B, SPHERE_BSTAR
    yield "B A = q^2 A B", b * a, (a * b).scale(q_pow(2))
    yield "A B* = q^2 B* A", a * bs, (bs * a).scale(q_pow(2))
    yield "B* B = A - A^2", bs * b, a - a * a
    yield "B B* = q^2 A - q^4 A^2", b * bs, \
        a.scale(q_pow(2)) - (a * a).scale(q_pow(4))


# ---------------------------------------------------------------------------
# monomial enumeration (for solvers and the spectral backend)
# ---------------------------------------------------------------------------


def pbw_monomials(max_length: int, degree: int):
    """The normal-form monomials of length <= max_length and of one
    circle-action degree: ``_pbw_of_length`` of each length in turn,
    shortest first."""
    return [m for n in range(max_length + 1)
            for m in _pbw_of_length(n, degree)]


def _pbw_of_length(n: int, degree: int):
    """The normal-form monomials of length exactly n and of one
    circle-action degree, in a deterministic order."""
    out = []
    for i in range(n + 1):
        for j in range(n - i + 1):
            k = n - i - j
            m = (0, i, j, k)
            if mono_degree(m) == degree:
                out.append(m)
            if i:
                m = (1, i, j, k)
                if mono_degree(m) == degree:
                    out.append(m)
    return out


# ---------------------------------------------------------------------------
# a small parser for words in the generators
# ---------------------------------------------------------------------------

_NAMED = {
    "a": GEN_A, "b": GEN_B, "c": GEN_C, "d": GEN_D, "A": SPHERE_A,
    "B": SPHERE_B, "Bstar": SPHERE_BSTAR, "Bs": SPHERE_BSTAR,
}


# an integer, a name, or any other non-space character on its own
_TOKEN = re.compile(r"\d+|[A-Za-z][A-Za-z0-9]*|\S")


def parse(text: str) -> Element:
    """Parse expressions like ``'a*b^2 - q^-1*c*d'`` or ``'r*A*Bstar'``.

    Understood atoms: the letters a, b, c, d, the sphere generators A, B
    and Bstar (alias Bs), integers, the scalars q, s, r, and
    parenthesised expressions, each with an optional integer exponent
    (negative only on q, s, r and integers).  Factors are joined by an
    explicit ``*`` or ``/``: juxtaposition, as in ``ab``, ``2a`` or
    ``a(b)``, is not a product.  Any other name or character raises
    ValueError; matrix elements of the corepresentations are
    ``spin_half`` and ``spin_one``, not atoms.  A
    factor may be divided by a scalar factor, as in the repr
    ``'((-1)/(1 + s^4))*b*c'`` of an element whose coefficients
    have denominators, so ``parse(repr(x)) == x``.  A fraction is such a
    division, and the exponent binds first: ``2/3^2`` is 2/9.
    """
    tokens = _TOKEN.findall(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        tok = peek()
        pos[0] += 1
        return tok

    def parse_exponent():
        if peek() != "^":
            return 1
        take()
        sign = 1
        if peek() == "-":
            take()
            sign = -1
        tok = take()
        if tok is None or not tok.isdecimal():
            raise ValueError("expected integer exponent in %r" % text)
        return sign * int(tok)

    def parse_atom():
        tok = take()
        if tok == "(":
            inner = parse_sum()
            if take() != ")":
                raise ValueError("unbalanced parentheses in %r" % text)
            base = inner
        elif tok == "q":
            return Element.scalar(q_pow(parse_exponent()))
        elif tok == "s":
            return Element.scalar(s_pow(parse_exponent()))
        elif tok == "r":
            return Element.scalar(ROOT_TWO_Q ** parse_exponent())
        elif tok in _NAMED:
            base = _NAMED[tok]
        elif tok is not None and tok.isdecimal():
            return Element.scalar(rational(tok) ** parse_exponent())
        else:
            raise ValueError("unexpected token %r in %r" % (tok, text))
        exp = parse_exponent()
        if exp < 0:
            raise ValueError("negative powers of algebra elements in %r" % text)
        out = ONE_EL
        for _ in range(exp):
            out = out * base
        return out

    def parse_divisor():
        el = parse_atom()
        if not el:
            raise ValueError("division by zero in %r" % text)
        c = el.terms.get(MONO_ID)
        if c is None or len(el.terms) != 1:
            raise ValueError("division by a non-scalar in %r" % text)
        try:
            return c.inverse()
        except ValueError as exc:  # outside the cyclotomic ring
            raise ValueError("%s, in %r" % (exc, text)) from None

    def parse_product():
        out = parse_atom()
        while peek() in ("*", "/"):
            if take() == "/":
                out = out.scale(parse_divisor())
            else:
                out = out * parse_atom()
        return out

    def parse_sum():
        negate = False
        if peek() in ("+", "-"):
            negate = take() == "-"
        out = parse_product()
        if negate:
            out = -out
        while peek() in ("+", "-"):
            sign = take()
            term = parse_product()
            out = out - term if sign == "-" else out + term
        return out

    try:
        result = parse_sum()
    except (ZeroDivisionError, RecursionError) as exc:  # 2/0, 0^-1, ((((...
        raise ValueError("%s in %r" % (type(exc).__name__, text)) from None
    if pos[0] != len(tokens):
        raise ValueError("trailing input in %r" % text)
    return result
