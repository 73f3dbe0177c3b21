"""Tensor powers of the one-form bimodule and the quantum metric.

A k-tensor (k = 2, 3, 4) is a formal sum of simple tensors of one-forms
(k-tuples), or only its corners.  Equality over the sphere algebra B is not
decidable term by term; it is decided from the 2^k corners

    T^eps = sum_terms leg_1^{eps_1} ... leg_k^{eps_k},    eps in {+1, -1}^k,

where +1 picks the plus entry of a leg and -1 the minus entry.  Each corner
is one element of O(SU_q(2)), and a balanced move (rho b) (x) eta ->
rho (x) (b eta) leaves it unchanged.  The corners are a complete invariant,
because they and the frame coefficients

    coeff(T)[i_1 ... i_k] = <w_{i_1} (x) ... (x) w_{i_k}, T>

(nested right inner products) determine each other, for every term list,
proper legs or not:

    coeff(T)[I] = sum_eps q^{-sum eps} (w_I^eps)* T^eps,
    T^eps       = sum_I w_I^eps coeff(T)[I].

The first is the nesting of ``ip_right``, multiplied out; the second is
the frame identity rho = sum_j w_j <w_j, rho>, which holds for every
off-diagonal matrix, applied leg by leg.  So ``==``, the zero test and the
inner products on tensor powers all read corners:

    <S, T>   = sum_eps q^{-sum eps} (S^eps)* T^eps    (right, nested from
                                                       the first leg)
    B<S, T>  = sum_eps q^{sum eps} S^eps (T^eps)*     (left, nested from
                                                       the last leg)

and so do products and contractions.  A one-form is the one-leg tensor
with corners (1,) -> plus, (-1,) -> minus; a tensor product over B has
(S (x) T)^{(e, f)} = S^e T^f (``product_corners``, summed over the terms
by ``Tensor.corners``); ``pair_first_legs`` and ``pair_last_legs`` pair
into the first or last legs as above, keeping the other corner indices.

Every operation is a map on corners that returns a tensor keeping only its
corners (``from_corners``), as are the braiding in ``calculus``, ``select``,
``contract_left`` and the curvature:

    (S + T)^eps = S^eps + T^eps,    (T c)^eps = T^eps c,
    (x T)^eps = x T^eps,  (T x)^eps = T^eps x,  (T^dag)^eps = (T^{-rev eps})*,

the last as dag(w) = (minus*, plus*).  Legs are an input format, taken
only by ``Tensor(k, terms)``, ``tensor(*legs)`` and ``pair_terms``, which
pairs a tensor with a term list on the tensor's corners alone.  The frame
coefficients, read by ``coeff_json`` and the command line, are paired from
the corners or walked from the legs; the terms of a corner-built tensor
are its frame terms (``canonical()``).

The walk from the legs pairs each leg with the frame in turn, sharing the
partial pairing across the frame indices with a common prefix.  It runs on
scalars with no denominator: each leg is multiplied by the lcm d of its
entries' denominators (``coeff.clear``, each numerator times its cofactor,
no gcd), and the frame has none, each coefficient a unit (``forms.frame``),
so no product or sum of the walk tests a Phi_N (``coeff.dot``).  Each final
entry is divided once by the product of the legs' d (``coeff.divide``).

The module also provides the multiplication map m onto diagonal 2x2
matrices (the two mixed corners of a two-tensor) and the metric two-tensor

    G = sum_j w_j (x) dag(w_j),        e^beta = <G, G> = q^2 + q^{-2},

whose corners are the constants G^{+-} = q and G^{-+} = q^{-1}.  A
diagonal matrix ``Diag`` is an ``algebra.Pair`` like ``OneForm`` and
``Spinor``: plus is the entry acting on S+, minus the one on S-.  On the
left it multiplies any pair entry by entry; a one-form times a ``Diag``
crosses the entries, (w diag(x, y)) = (w_plus y, w_minus x).
"""

from __future__ import annotations

import functools
from itertools import chain

from .algebra import MONO_ID, Element, ONE_EL, Pair, ZERO_EL, mul_sum
from .coeff import Scalar, accumulate, clear, divide, rational
from .forms import OneForm, frame, ip_right


class Tensor:
    """A formal sum of simple k-fold tensors of one-forms, k in {2, 3, 4},
    or only its corners when built by ``from_corners``.

    Equality, the zero test, the pairings and the operations read the
    corners (see the module docstring); the frame coefficients and the
    terms of a corner-built tensor are derived views, not kept.
    """

    __slots__ = ("k", "_terms", "_corners")

    def __init__(self, k: int, terms=()):
        if k not in (2, 3, 4):
            raise ValueError("only 2-, 3- and 4-tensors are supported")
        self.k = k
        kept = []
        for term in terms:
            if len(term) != k:
                raise ValueError("term has %d legs, expected %d"
                                 % (len(term), k))
            if not any(leg.is_zero() for leg in term):
                kept.append(tuple(term))
        self._terms = kept
        self._corners = None

    @property
    def terms(self):
        """The legs, or the frame terms of a corner-built tensor (not kept)."""
        if self._terms is None:
            return self.canonical()._terms
        return self._terms

    # -- corners ------------------------------------------------------------

    def corners(self):
        """The nonzero corners as a dict eps -> Element, eps a k-tuple of
        +1/-1: the sum of ``product_corners`` over the terms."""
        if self._corners is None:
            self._corners = sum_corners(product_corners(*term)
                                        for term in self._terms)
        return self._corners

    # -- canonical coefficients ---------------------------------------------

    def coeffs(self):
        """Frame coefficient array as a dict multi-index -> Element,
        holding only the nonzero entries (``_frame_coeffs``)."""
        return _frame_coeffs(self)

    def canonical(self) -> "Tensor":
        """Re-express through the frame: the tensor with the same corners
        and its frame terms w_{i_1} (x) ... (x) w_{i_k} coeff[I], in sorted
        multi-index order, set now.  The coefficients come from
        ``_frame_coeffs``, not the method, so that a wrapper of
        ``coeffs()`` that reads ``terms`` does not re-enter itself."""
        out = from_corners(self.k, self.corners())
        ws = frame()
        out._terms = [tuple(ws[i] for i in idx[:-1]) + (ws[idx[-1]] * c,)
                      for idx, c in sorted(_frame_coeffs(self).items())]
        return out

    def is_proper(self) -> bool:
        """True when the frame coefficients lie in B.  Legs are checked leg
        by leg, since E21 (x) E12 has a corner of the right degree; a
        corner-built tensor is proper when each corner T^eps has degree
        2 sum eps, which is coeff(T)[I] in B by the module docstring."""
        if self._terms is None:
            return all(x.degrees() == {2 * sum(eps)}
                       for eps, x in self._corners.items())
        return all(leg.is_proper() for term in self._terms for leg in term)

    def is_zero(self) -> bool:
        return not self.corners()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.k == other.k and self.corners() == other.corners()

    # -- linear structure and involution, on corners -----------------------

    def _map(self, fn) -> "Tensor":
        """The tensor with corners fn(T^eps), eps by eps."""
        return from_corners(self.k, {eps: fn(x)
                                     for eps, x in self.corners().items()})

    def __add__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.k != other.k:
            raise ValueError("cannot add tensors of different rank")
        return from_corners(self.k, sum_corners((self.corners(),
                                                 other.corners())))

    def __neg__(self):
        return self._map(Element.__neg__)

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self + (-other)

    def scale(self, c: Scalar) -> "Tensor":
        return self._map(lambda x: x.scale(c))

    def __mul__(self, other):
        """Right action of the algebra on the last leg."""
        if isinstance(other, Element):
            return self._map(lambda x: x * other)
        return NotImplemented

    def __rmul__(self, other):
        """Left action of the algebra on the first leg."""
        if isinstance(other, Element):
            return self._map(lambda x: other * x)
        return NotImplemented

    def dag(self) -> "Tensor":
        """Reverse the legs and dag each one."""
        return from_corners(self.k, {tuple(-e for e in reversed(eps)): x.star()
                                     for eps, x in self.corners().items()})

    def __repr__(self):
        if self._terms is None:
            return "Tensor(k=%d, %d corners)" % (self.k, len(self._corners))
        return "Tensor(k=%d, %d terms)" % (self.k, len(self._terms))


def _frame_coeffs(t: Tensor):
    """coeff[I] = <w_{i_1} (x) ... (x) w_{i_k}, T>: paired one first leg
    at a time from the corners of a corner-built tensor, or walked over
    the terms (module docstring)."""
    if t._terms is None:
        ws = frame()
        states = {(): t._corners}
        for _ in range(t.k):
            states = {idx + (i,): pair_first_legs(w, c)
                      for idx, c in states.items() if c
                      for i, w in enumerate(ws)}
        return {idx: c[()] for idx, c in states.items() if c}
    out = {}
    for term in t._terms:
        _walk_term(term, out)
    return out


def _walk_term(term, out):
    """Add <w_{i_1} (x) ... (x) w_{i_k}, term> to out[I] for every I
    (``accumulate``), walked on the legs cleared of their denominators and
    divided once at the end (module docstring)."""
    ws = frame()
    states = {(): None}
    dens = []
    for leg in term:
        plus, minus = leg.plus.terms, leg.minus.terms
        den, xs = clear([*plus.values(), *minus.values()])
        dens.append(den)
        leg = OneForm(Element(dict(zip(plus, xs))),
                      Element(dict(zip(minus, xs[len(plus):]))))
        nxt = {}
        for prefix, x in states.items():
            moved = leg if x is None else x * leg
            for i, w in enumerate(ws):
                y = ip_right(w, moved)
                if not y.is_zero():
                    nxt[prefix + (i,)] = y
        states = nxt
    accumulate(out, ((idx, Element(divide(x.terms, dens)))
                     for idx, x in states.items()))


def tensor(*legs) -> Tensor:
    """A single simple tensor from its one-form legs."""
    return Tensor(len(legs), [legs])


def product_corners(*factors):
    """The corners of the tensor product over B of one-forms and tensors,
    (S (x) T)^{(e, f)} = S^e T^f, as a dict holding only the nonzero
    entries.  Each partial product is shared by the corners with its
    prefix."""
    states = [((), None)]
    for factor in factors:
        parts = factor.corners().items()
        nxt = []
        for eps, x in states:
            for e, part in parts:
                y = part if x is None else x * part
                if not y.is_zero():
                    nxt.append((eps + e, y))
        states = nxt
    return dict(states)


def sum_corners(parts):
    """The entrywise sum of corner dicts, holding only the nonzero
    entries (``accumulate``)."""
    return accumulate({}, chain.from_iterable(part.items()
                                              for part in parts))


# ---------------------------------------------------------------------------
# inner products on tensor powers
# ---------------------------------------------------------------------------


def pair_first_legs(s, tc):
    """<S, T> on the first legs of T, given by its corners tc: the corners
    f -> sum_eps q^{-sum eps} (S^eps)* T^{(eps, f)} of what is left."""
    m, sc = s.k, s.corners()
    return sum_corners(
        {eps[m:]: sc[eps[:m]].star().scale_s(-2 * sum(eps[:m])) * y}
        for eps, y in tc.items() if eps[:m] in sc)


def pair_last_legs(r, g):
    """{}_B<R, g> on the last legs of R, g a one-form or tensor: the corners
    e -> sum_eps q^{sum eps} R^{(e, eps)} (g^eps)* of what is left."""
    m, gc = g.k, g.corners()
    return sum_corners(
        {eps[:-m]: x * gc[eps[-m:]].star().scale_s(2 * sum(eps[-m:]))}
        for eps, x in r.corners().items() if eps[-m:] in gc)


def ip_T(s: Tensor, t: Tensor) -> Element:
    """The right inner product <S, T> of two k-tensors (module docstring)."""
    if s.k != t.k:
        raise ValueError("rank mismatch in inner product")
    return pair_first_legs(s, t.corners()).get((), ZERO_EL)


def pair_terms(s: Tensor, terms) -> Element:
    """<S, Tensor(k, terms)> formed only on the corners S holds:

        sum_{eps in corners(S)} q^{-sum eps} (S^eps)* sum_terms leg_1^{eps_1} ... leg_k^{eps_k}.

    (S^eps)* leg_1^{eps_1} ... leg_{k-1}^{eps_{k-1}} is multiplied out, and
    its products with the last legs are one ``mul_sum``, so each output
    coefficient is reduced once.  For G and C, which hold only the two
    mixed corners, that is half the leg products of ``ip_T``.  ``ip_T``
    forms every corner of the right tensor and keeps them on it, which
    pays where the tensor is paired again (forming only the needed ones
    slowed ``connection`` by 22%, ROADMAP item 8); here the terms are
    paired once."""
    if any(len(term) != s.k for term in terms):
        raise ValueError("rank mismatch in inner product")
    triples = []
    for eps, x in s.corners().items():
        x = x.star()
        for term in terms:
            y = x
            for e, leg in zip(eps, term[:-1]):
                y = y * (leg.plus if e > 0 else leg.minus)
            last = term[-1].plus if eps[-1] > 0 else term[-1].minus
            triples.append((y, last, -2 * sum(eps)))
    return mul_sum(triples)


def ip_left_T(s: Tensor, t: Tensor) -> Element:
    """The left inner product B<S, T> of two k-tensors (module docstring)."""
    if s.k != t.k:
        raise ValueError("rank mismatch in inner product")
    return pair_last_legs(s, t).get((), ZERO_EL)


def contract_left(r: Tensor, g) -> Tensor:
    """{}_B<R, g>: pair the last legs of R against the two-tensor or one-form
    g with the left inner product, keeping at least two legs in front."""
    if r.k - g.k < 2:
        raise ValueError("contract_left must leave two legs or more")
    return from_corners(r.k - g.k, pair_last_legs(r, g))


# ---------------------------------------------------------------------------
# multiplication map and diagonal matrices
# ---------------------------------------------------------------------------


class Diag(Pair):
    """A diagonal 2x2 matrix over the quantum group algebra: plus acts on
    S+, minus on S-."""

    __slots__ = ()

    def __mul__(self, other):
        """Entry by entry on any pair (Diag, OneForm or Spinor), or the
        right action of the algebra."""
        if isinstance(other, Pair):
            return type(other)(self.plus * other.plus,
                               self.minus * other.minus)
        if isinstance(other, Element):
            return Diag(self.plus * other, self.minus * other)
        return NotImplemented

    def __rmul__(self, other):
        """OneForm times Diag, whose entries cross; else the left action."""
        if isinstance(other, OneForm):
            return OneForm(other.plus * self.minus, other.minus * self.plus)
        return super().__rmul__(other)

    def trace(self) -> Element:
        return self.plus + self.minus


def diag_scalars(plus: Scalar, minus: Scalar) -> Diag:
    return Diag(ONE_EL.scale(plus), ONE_EL.scale(minus))


def mul_map(t: Tensor) -> Diag:
    """The multiplication map m on two-tensors: the matrix product of the
    two legs, which is diagonal with the mixed corners (T^{+-}, T^{-+})."""
    if t.k != 2:
        raise ValueError("mul_map is defined on two-tensors")
    c = t.corners()
    return Diag(c.get((1, -1), ZERO_EL), c.get((-1, 1), ZERO_EL))


# ---------------------------------------------------------------------------
# tensors from their corners
# ---------------------------------------------------------------------------


def from_corners(k: int, corners) -> Tensor:
    """The k-tensor with the given corners, a dict eps -> Element, kept as
    its only data: ``Tensor.coeffs`` and ``Tensor.terms`` derive the rest."""
    out = Tensor(k)
    out._terms, out._corners = None, {}
    for eps, x in sorted(corners.items()):
        if len(eps) != k or not set(eps) <= {1, -1}:
            raise ValueError("corner %r is not a %d-tuple of +1/-1" % (eps, k))
        if not x.is_zero():
            out._corners[eps] = x
    return out


def select(t: Tensor, pattern: str) -> Tensor:
    """Keep one corner: pattern is a string of '+'/'-', one per leg."""
    if len(pattern) != t.k or not set(pattern) <= {"+", "-"}:
        raise ValueError("select needs one '+' or '-' per leg of a %d-tensor,"
                         " got %r" % (t.k, pattern))
    eps = tuple(1 if ch == "+" else -1 for ch in pattern)
    return from_corners(t.k, {eps: t.corners().get(eps, ZERO_EL)})


# ---------------------------------------------------------------------------
# the metric
# ---------------------------------------------------------------------------

@functools.cache
def metric() -> Tensor:
    """G = sum_j w_j (x) dag(w_j)."""
    return Tensor(2, [(w, w.dag()) for w in frame()])


def as_scalar(x: Element) -> Scalar:
    """The coefficient of a scalar multiple of 1; raises otherwise."""
    if x.is_zero():
        return rational(0)
    if set(x.terms) != {MONO_ID}:
        raise ValueError("element is not a scalar: %r" % (x,))
    return x.terms[MONO_ID]


def e_beta() -> Scalar:
    """e^beta = <G, G> = q^2 + q^{-2}."""
    return as_scalar(ip_T(metric(), metric()))


# ---------------------------------------------------------------------------
# JSON export of canonical coefficients
# ---------------------------------------------------------------------------


def coeff_json(t: Tensor):
    """Frame coefficient array as a JSON-ready dict: the number of legs,
    and each nonzero entry keyed by its 0-based multi-index "i,j,..." and
    rendered through the parseable Element repr."""
    return {
        "legs": t.k,
        "coeffs": {",".join(str(i) for i in idx): repr(c)
                   for idx, c in sorted(t.coeffs().items())},
    }
