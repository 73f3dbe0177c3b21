"""Spectra of D, D^2 and the laplacian on total-spin blocks.

The chiral summands are filtered by monomial length: the degree +1
normal-form monomials of length at most 2l span the first blocks of S+,
and the orthogonal complement of the length 2l-2 subspace inside the
length 2l subspace (with respect to the Haar inner product
<x, y> = h({}_B<x, y>)) is the total-spin-l block.  Blocks are therefore
generated by products of the algebra generators; no corepresentation
theory enters.

The reduction is exact, in the field K, and does not involve q0.  Write
the row weight of a monomial a^i b^j c^k (or d^i b^j c^k) as
-i - j + k (or i - j + k): the Haar state is invariant under the left
circle action, so <x, y> vanishes unless x and y lie in the same chiral
sector and have the same row weight.  Degree, row weight and length fix
a monomial, so such a component holds one monomial of each length
2l, 2l-2, ... down to |row weight|; with t the one of the top length
2l, the block basis vector is

    t' = t - (orthogonal projection of t onto the shorter monomials),

found by Gaussian elimination on the component's exact Gram matrix
(``_reduced``; a zero pivot means a singular Gram matrix and raises).
An operator maps t'_j to a combination of the t'_i; its coefficients are
the top-monomial coefficients of op(t'_j), and the closure
op(t'_j) = sum_i M_ij t'_i is checked exactly (``_block_matrix``).  D^2
is not applied: D maps the block into itself, so its matrix is M_D^2.  The
reduction is cached per process once per spin, the matrix once per (spin,
operator), and the image of each monomial spinor once per operator
(``_image``): the t' of spin l holds the shorter monomials of its
component, which the smaller blocks have already mapped, so a block
applies the operator only to its new monomials, and a block met before
pays only the evaluation of M's nonzero entries at q0.

Every block matrix is monomial: one nonzero entry per row and column.
The block holds one t' per (sector, row weight), D and the laplacian
commute with the left circle action (they are left U_q(su(2))-equivariant,
Dabrowski-Sitarz, "Dirac operator on the standard Podles quantum sphere",
2003), D exchanges the sectors and the laplacian keeps them; so M_D pairs
the two t' of each row weight, a product of 2l+1 2-cycles, and M_D2 and
M_lap are diagonal.  That argument is cited, not decided; the structure
itself is checked exactly on every block built (``SpinBlock._build``
raises otherwise), and the tests build every D, D2 and lap block up to
l = 11/2 (``test_op_matrix_is_the_dense_evaluation``).  The eigenvalues
are read off the cycles of the permutation: a fixed point gives its
entry, a 2-cycle with entry product p >= 0 gives +-sqrt(p), and any
other cycle has a non-real eigenvalue and raises.  For a monomial matrix
this is exact, so no dense eigensolver is needed.

Eigenvalues of D on the block of total spin l come out as +-[l+1/2]_{q0},
each with multiplicity 2l+1; this value is derived from the action of the
derivations, not quoted, and M_D^2 = [l+1/2]_q^2 holds exactly in K.
The laplacian spectrum is nonnegative, which is the numeric face of its
positivity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .algebra import Element, _pbw_of_length
from .coeff import ONE, ZERO, dot
from .haar import haar
from .spinor import Spinor, dirac, ip_spin_left, laplacian

# the operators a block can take; D2 is the square of the D block matrix
_OPERATORS = ("D", "D2", "lap")


def _half_integer(l) -> Fraction:
    fl = Fraction(l)
    if fl.denominator != 2 or fl < 0:
        raise ValueError("total spin must be a positive half odd integer: %r" % (l,))
    return fl


def qnum_float(two_x: int, q0: float) -> float:
    """[x]_{q0} for doubled argument, matching the symbolic convention.

    (q^x - q^-x)/(q - q^-1) is sinh(x ln q)/sinh(ln q): the quotient of
    differences cancels as q0 -> 1, the quotient of sinh does not."""
    if q0 == 1.0:
        return two_x / 2.0
    log_q = math.log(q0)
    return math.sinh(two_x / 2.0 * log_q) / math.sinh(log_q)


def _row_weight(m) -> int:
    """Twice the row (left) weight of a monomial: a, b count -1, c, d +1."""
    branch, i, j, k = m
    return (i if branch else -i) - j + k


@cache
def _reduced(n: int):
    """The basis of the total-spin n/2 block, exactly in K.

    Returns ((sign, t), t', <t', t'>) triples: t runs over the monomials
    of length n in the plus (sign +1) and then the minus (sign -1) sector,
    and t' is t minus its projection onto the shorter monomials of its
    Gram component, the monomials of the same sector and row weight.

    This is Gaussian elimination on the component's Gram matrix, ordered
    by length.  Its earlier rows reduce the shorter monomials of the
    component, one of each length n-2, n-4, ..., and those reductions are
    the t'_y of the smaller blocks, which are mutually orthogonal (the
    form is symmetric: K is real and h(z*) is the conjugate of h(z)); so
    they are taken from ``_reduced(n - 2)`` and below, and only the row
    of t is eliminated here.

    The row is the Gram row G(t, m) = h(<t, m>) over t and the shorter
    monomials m of the component: Haar values of monomial pairs.  The
    form is linear in each slot over K, so <t, t'_y> = sum_m (t'_y)_m
    G(t, m) is one ``coeff.dot``, and c_y = <t, t'_y> / <t'_y, t'_y>
    divides by a norm that is a monomial over cyclotomic factors
    (``Scalar.__truediv__`` cancels its exponents).  Each coefficient
    (t')_m = -sum_y c_y (t'_y)_m of m != t is one ``dot``.  The norm is
    <t', t'> = <t', t>, as t' is orthogonal to the t'_y, and by the
    symmetry G(m, t) = G(t, m) it is sum_m (t')_m G(t, m): one more
    ``dot`` over the row, with no further Haar value.  A zero pivot,
    <t', t'> = 0, raises.
    """
    lower = {}
    for m in range(n - 2, 0, -2):
        for key, t_prime, norm in _reduced(m):
            sign, t = key
            part = t_prime.plus if sign > 0 else t_prime.minus
            lower.setdefault((sign, _row_weight(t)), []).append(
                (t, part.terms, norm))
    out = []
    for sign in (1, -1):
        for t in _pbw_of_length(n, sign):
            ys = lower.get((sign, _row_weight(t)), ())
            x = Spinor.slot(sign, Element.from_mono(t))
            row = {m: haar(ip_spin_left(
                x, Spinor.slot(sign, Element.from_mono(m))))
                for m in (t, *(y for y, _, _ in ys))}
            columns = {}
            for _, terms, norm in ys:
                c = -(dot([(v, row[m], 0) for m, v in terms.items()]) / norm)
                for m, v in terms.items():
                    columns.setdefault(m, []).append((c, v, 0))
            terms = {t: ONE}
            for m, triples in columns.items():
                v = dot(triples)
                if v:
                    terms[m] = v
            norm = dot([(v, row[m], 0) for m, v in terms.items()])
            if norm.is_zero():
                raise ArithmeticError("Gram matrix is singular at l=%s "
                                      "(pivot of %r)" % (Fraction(n, 2), t))
            out.append(((sign, t), Spinor.slot(sign, Element(terms)), norm))
    if len(out) != 2 * (n + 1):
        raise ArithmeticError("block dimension %d does not match 2(2l+1) = %d"
                              % (len(out), 2 * (n + 1)))
    return tuple(out)


@cache
def _image(operator: str, sign: int, m):
    """D ("D") or the laplacian ("lap") applied to the monomial spinor
    with m in the plus (sign +1) or the minus (sign -1) entry.

    The t' of spin n/2 holds every shorter monomial of its component, and
    the smaller blocks of the same operator map those too, so the blocks
    share these images.  An image depends on (operator, sign, m) alone,
    so a block that fails its closure check leaves only true images
    behind.  The operator is looked up by its module name at each call,
    not bound once, so a rebinding of ``dirac`` or ``laplacian`` in this
    module (a tracer's wrapper) is seen."""
    apply = dirac if operator == "D" else laplacian
    return apply(Spinor.slot(sign, Element.from_mono(m)))


@cache
def _block_matrix(n: int, operator: str):
    """The matrix M of an operator on the spin-n/2 block basis, exactly:
    op(t'_j) = sum_i M_ij t'_i, checked term by term.  Rows of scalars,
    in the order of ``_reduced(n)``.

    The image of t'_j is the sum of the cached monomial images
    ``_image(operator, sign, m)`` scaled by the coefficients of t'_j; each
    monomial lies in exactly one t', so each image is read once per block.
    The closure check runs on every block, whichever images it reads.

    The D^2 matrix is the square of the D matrix: the closure check of D
    gives D(t'_i) = sum_k (M_D)_ki t'_k, so D^2(t'_j) = sum_k (M_D^2)_kj
    t'_k.  M_D has one entry per row, so the square costs a small part of
    applying D twice to the basis."""
    if operator == "D2":
        m = _block_matrix(n, "D")
        rows = [[(k, c) for k, c in enumerate(row) if not c.is_zero()]
                for row in m]
        return tuple(tuple(sum((c * m[k][j] for k, c in row), ZERO)
                           for j in range(len(m)))
                     for row in rows)
    block = _reduced(n)
    columns = []
    for _, t_prime, _ in block:
        image = Spinor()
        for sign, part in ((1, t_prime.plus), (-1, t_prime.minus)):
            for m, c in part.terms.items():
                image = image + _image(operator, sign, m).scale(c)
        col = [(image.plus if sign > 0 else image.minus).terms.get(t, ZERO)
               for (sign, t), _, _ in block]
        span = Spinor()
        for c, (_, t_i, _) in zip(col, block):
            span = span + t_i.scale(c)
        if image != span:
            raise ArithmeticError("operator %s does not preserve the l=%s block"
                                  % (operator, Fraction(n, 2)))
        columns.append(col)
    return tuple(tuple(columns[j][i] for j in range(len(block)))
                 for i in range(len(block)))


class SpinBlock:
    """One total-spin block of the spinor space at a numeric parameter,
    for one operator: "D", "D2" or "lap".

    The operator's exact block matrix (in the basis of the t', see the
    module docstring) is monomial, so it is held as a permutation and its
    entries: row i has its one nonzero in column ``columns[i]``, and that
    entry at q0 is ``entries[i]``.  A row with no nonzero or several, or a
    column met twice, raises ArithmeticError naming the row; an entry
    that overflows a float at q0 raises ValueError naming q0 and l.  The
    exact reduction, the exact matrix and the operator's image of each
    monomial spinor are cached per process, so a spin or a (spin,
    operator) met before costs only the evaluation of its nonzero
    entries, and a new block of an operator applies it only to the
    monomials that no smaller block holds; q0 enters nowhere else.  The
    t' are mutually orthogonal, so the matrix is the orthonormal-basis
    one up to a positive diagonal similarity, and has the same
    eigenvalues.
    """

    def __init__(self, l, q0: float, operator: str):
        self.l = _half_integer(l)
        if not 0.0 < q0 <= 1.0:
            raise ValueError("q0 must lie in (0, 1]: %r" % (q0,))
        self.q0 = q0
        self.operator = operator
        if operator not in _OPERATORS:
            raise ValueError("unknown operator %r; pick one of %r"
                             % (operator, _OPERATORS))
        self._build()

    def _build(self):
        matrix = _block_matrix(int(2 * self.l), self.operator)
        columns, entries = [], []
        for i, row in enumerate(matrix):
            nonzero = [j for j, c in enumerate(row) if c]
            if len(nonzero) != 1 or nonzero[0] in columns:
                raise ArithmeticError(
                    "the %s block at l=%s is not monomial: row %d has "
                    "nonzero entries in columns %r; the rows above use "
                    "columns %r" % (self.operator, self.l, i, nonzero,
                                    columns))
            columns.append(nonzero[0])
            try:
                entries.append(row[nonzero[0]].eval_float(self.q0))
            except OverflowError as exc:  # an s ** e beyond the float range
                raise ValueError(
                    "q0 = %r is too small to evaluate the %s block at l=%s "
                    "in floats" % (self.q0, self.operator, self.l)) from exc
        self.columns, self.entries = columns, entries

    def eigenvalues(self):
        """The block spectrum, sorted, from the cycles of ``columns``: the
        cycle of row i is a fixed point, a 2-cycle (i, j) with
        ``columns[j] == i``, or longer."""
        vals = []
        for i, j in enumerate(self.columns):
            if i == j:
                vals.append(self.entries[i])
                continue
            p = self.entries[i] * self.entries[j]
            if self.columns[j] != i or p < 0:
                raise ArithmeticError("block spectrum is not real")
            if i < j:
                vals += [-math.sqrt(p), math.sqrt(p)]
        return sorted(vals)


def spectrum(l_max, q0: float, operator: str):
    """Per-block eigenvalue lists of an operator ("D", "D2" or "lap") for
    l = 1/2, 3/2, ..., l_max.

    Returns a list of dicts {l, q, operator, eigenvalues}, ready for JSON.
    """
    lm = _half_integer(l_max)
    out = []
    l = Fraction(1, 2)
    while l <= lm:
        block = SpinBlock(l, q0, operator)
        out.append({
            "l": float(l),
            "q": q0,
            "operator": operator,
            "eigenvalues": block.eigenvalues(),
        })
        l += 1
    return out


def spectra_table(results) -> str:
    """Plain-text table, one block per row."""
    lines = ["%-5s %-6s %-4s %s" % ("l", "q", "op", "eigenvalues")]
    for row in results:
        vals = ", ".join("%.6f" % v for v in row["eigenvalues"])
        lines.append("%-5s %-6s %-4s [%s]"
                     % (row["l"], row["q"], row["operator"], vals))
    return "\n".join(lines)
