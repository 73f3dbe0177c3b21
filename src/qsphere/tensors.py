"""Tensor powers of the one-form bimodule and the quantum metric.

A k-tensor (k = 2, 3, 4) is a formal sum of simple tensors of one-forms,
stored as a list of k-tuples.  Equality over the sphere algebra B is not
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

The frame coefficients stay as a derived view: ``canonical()`` re-expresses
a tensor through them as at most 3^k simple terms, and the golden files,
``coeff_json`` and the command line read them.  Sums only concatenate term
lists.

The module also provides the multiplication map m onto diagonal 2x2
matrices (the two mixed corners of a two-tensor), the corner selector
``select``, and the metric two-tensor

    G = sum_j w_j (x) dag(w_j),        e^beta = <G, G> = q^2 + q^{-2},

whose corners are the constants G^{+-} = q and G^{-+} = q^{-1}.
"""

from __future__ import annotations

import functools

from .algebra import Element, ONE_EL, ZERO_EL
from .coeff import Scalar, rational
from .forms import OneForm, frame, ip_right

_MINUS_ONE = rational(-1)


class Tensor:
    """A formal sum of simple k-fold tensors of one-forms, k in {2, 3, 4}.

    Equality, the zero test and the pairings read the corners (see the
    module docstring); the frame coefficients are a derived view for
    ``canonical()`` and the exported coefficient arrays.  Both are computed
    once per tensor.
    """

    __slots__ = ("k", "terms", "_coeffs", "_corners")

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
        self.terms = kept
        self._coeffs = None
        self._corners = None

    # -- corners ------------------------------------------------------------

    def corners(self):
        """The corners as a dict eps -> Element, eps a k-tuple of +1/-1,
        holding only the nonzero entries.

        Walks the legs once per term, sharing each partial product across
        the corners with a common prefix.
        """
        if self._corners is None:
            out = {}
            for term in self.terms:
                states = [((), None)]
                for leg in term:
                    nxt = []
                    for eps, x in states:
                        for sign, part in ((1, leg.plus), (-1, leg.minus)):
                            if part.is_zero():
                                continue
                            y = part if x is None else x * part
                            if not y.is_zero():
                                nxt.append((eps + (sign,), y))
                    states = nxt
                for eps, x in states:
                    acc = out.get(eps)
                    out[eps] = x if acc is None else acc + x
            self._corners = {e: x for e, x in out.items() if not x.is_zero()}
        return self._corners

    # -- canonical coefficients ---------------------------------------------

    def coeffs(self):
        """Frame coefficient array as a dict multi-index -> Element,
        holding only the nonzero entries.

        Walks the legs once per term, sharing the partial pairing across
        all frame indices with a common prefix; this matters for the
        four-tensors of the curvature pipeline.
        """
        if self._coeffs is None:
            ws = frame()
            out = {}
            for term in self.terms:
                states = {}
                for i, w in enumerate(ws):
                    x = ip_right(w, term[0])
                    if not x.is_zero():
                        states[(i,)] = x
                for pos in range(1, self.k):
                    nxt = {}
                    for prefix, x in states.items():
                        moved = x * term[pos]
                        if moved.is_zero():
                            continue
                        for i, w in enumerate(ws):
                            y = ip_right(w, moved)
                            if not y.is_zero():
                                nxt[prefix + (i,)] = y
                    states = nxt
                for idx, x in states.items():
                    acc = out.get(idx)
                    out[idx] = x if acc is None else acc + x
            self._coeffs = {i: x for i, x in out.items() if not x.is_zero()}
        return self._coeffs

    def canonical(self) -> "Tensor":
        """Re-express through the frame: one simple term
        w_{i_1} (x) ... (x) w_{i_k} coeff[I] per nonzero coefficient, in
        sorted multi-index order, so at most 3^k terms."""
        ws = frame()
        terms = []
        for idx, c in sorted(self.coeffs().items()):
            legs = [ws[i] for i in idx]
            legs[-1] = legs[-1] * c
            terms.append(tuple(legs))
        out = Tensor(self.k, terms)
        out._coeffs = self.coeffs()
        out._corners = self._corners
        return out

    def is_zero(self) -> bool:
        return not self.corners()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.k == other.k and self.corners() == other.corners()

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.k != other.k:
            raise ValueError("cannot add tensors of different rank")
        return Tensor(self.k, self.terms + other.terms)

    def __neg__(self):
        return self.scale(_MINUS_ONE)

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self + (-other)

    def scale(self, c: Scalar) -> "Tensor":
        return Tensor(self.k,
                      [(term[0].scale(c),) + term[1:] for term in self.terms])

    def __mul__(self, other):
        """Right action of the algebra on the last leg, or scaling."""
        if isinstance(other, Element):
            return Tensor(self.k,
                          [term[:-1] + (term[-1] * other,)
                           for term in self.terms])
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        """Left action of the algebra on the first leg, or scaling."""
        if isinstance(other, Element):
            return Tensor(self.k,
                          [(other * term[0],) + term[1:]
                           for term in self.terms])
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    # -- involution ----------------------------------------------------------

    def dag(self) -> "Tensor":
        """Reverse the legs and dag each one."""
        return Tensor(self.k,
                      [tuple(leg.dag() for leg in reversed(term))
                       for term in self.terms])

    def __repr__(self):
        return "Tensor(k=%d, %d terms)" % (self.k, len(self.terms))


def tensor(*legs) -> Tensor:
    """A single simple tensor from its one-form legs."""
    return Tensor(len(legs), [legs])


# ---------------------------------------------------------------------------
# inner products on tensor powers
# ---------------------------------------------------------------------------


def ip_T(s: Tensor, t: Tensor) -> Element:
    """Right inner product of two k-tensors, nested from the first leg:
    sum_eps q^{-sum eps} (S^eps)* T^eps."""
    if s.k != t.k:
        raise ValueError("rank mismatch in inner product")
    tc = t.corners()
    acc = ZERO_EL
    for eps, x in s.corners().items():
        y = tc.get(eps)
        if y is not None:
            acc = acc + (x.star() * y).scale_s(-2 * sum(eps))
    return acc


def ip_left_T(s: Tensor, t: Tensor) -> Element:
    """Left inner product of two k-tensors, nested from the last leg:
    sum_eps q^{sum eps} S^eps (T^eps)*."""
    if s.k != t.k:
        raise ValueError("rank mismatch in inner product")
    tc = t.corners()
    acc = ZERO_EL
    for eps, x in s.corners().items():
        y = tc.get(eps)
        if y is not None:
            acc = acc + (x * y.star()).scale_s(2 * sum(eps))
    return acc


def contract_left(r: Tensor, g: Tensor) -> Tensor:
    """{}_B<R, g> for a four-tensor R: pair the last two legs of R against
    the two-tensor g with the left inner product, leaving a two-tensor."""
    if r.k != 4 or g.k != 2:
        raise ValueError("contract_left pairs a four-tensor with a two-tensor")
    terms = []
    for a, b, c, d in r.terms:
        z = ip_left_T(Tensor(2, [(c, d)]), g)
        if not z.is_zero():
            terms.append((a, b * z))
    return Tensor(2, terms)


# ---------------------------------------------------------------------------
# multiplication map and diagonal matrices
# ---------------------------------------------------------------------------


class Diag:
    """A diagonal 2x2 matrix over the quantum group algebra."""

    __slots__ = ("top", "bot")

    def __init__(self, top: Element = ZERO_EL, bot: Element = ZERO_EL):
        self.top = top
        self.bot = bot

    def is_zero(self) -> bool:
        return self.top.is_zero() and self.bot.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Diag):
            return NotImplemented
        return self.top == other.top and self.bot == other.bot

    def __add__(self, other):
        return Diag(self.top + other.top, self.bot + other.bot)

    def __neg__(self):
        return Diag(-self.top, -self.bot)

    def __sub__(self, other):
        return Diag(self.top - other.top, self.bot - other.bot)

    def __mul__(self, other):
        if isinstance(other, Diag):
            return Diag(self.top * other.top, self.bot * other.bot)
        if isinstance(other, OneForm):
            return OneForm(self.top * other.plus, self.bot * other.minus)
        if isinstance(other, Element):
            return Diag(self.top * other, self.bot * other)
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, OneForm):
            return OneForm(other.plus * self.bot, other.minus * self.top)
        if isinstance(other, Element):
            return Diag(other * self.top, other * self.bot)
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar) -> "Diag":
        return Diag(self.top.scale(c), self.bot.scale(c))

    def star(self) -> "Diag":
        return Diag(self.top.star(), self.bot.star())

    def trace(self) -> Element:
        return self.top + self.bot

    def __repr__(self):
        return "Diag(top=%r, bot=%r)" % (self.top, self.bot)


def diag_scalars(top: Scalar, bot: Scalar) -> Diag:
    return Diag(ONE_EL.scale(top), ONE_EL.scale(bot))


def mul_map(t: Tensor) -> Diag:
    """The multiplication map m on two-tensors: the matrix product of the
    two legs, which is diagonal with the mixed corners (T^{+-}, T^{-+})."""
    if t.k != 2:
        raise ValueError("mul_map is defined on two-tensors")
    c = t.corners()
    return Diag(c.get((1, -1), ZERO_EL), c.get((-1, 1), ZERO_EL))


# ---------------------------------------------------------------------------
# corner selection
# ---------------------------------------------------------------------------


_COMPONENT = {
    "+": lambda w: OneForm(plus=w.plus),
    "-": lambda w: OneForm(minus=w.minus),
}


def select(t: Tensor, pattern: str) -> Tensor:
    """Keep one matrix corner per leg: pattern is a string of '+'/'-'."""
    if len(pattern) != t.k or not set(pattern) <= set(_COMPONENT):
        raise ValueError("select needs one '+' or '-' per leg of a %d-tensor,"
                         " got %r" % (t.k, pattern))
    pickers = [_COMPONENT[ch] for ch in pattern]
    return Tensor(t.k,
                  [tuple(pick(leg) for pick, leg in zip(pickers, term))
                   for term in t.terms])


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
    from .algebra import MONO_ID
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
