"""Spectra of D, D^2 and the laplacian on total-spin blocks.

The chiral summands are filtered by monomial length: F_n, the degree +-1
normal-form monomials of length at most n (n odd), is spanned by the
blocks of spin 1/2, 3/2, ..., n/2, and the block of spin l = n/2 is a
complement V_n of F_{n-2} in F_n with one basis vector t' per monomial t
of length n.  Blocks are therefore generated by products of the algebra
generators; no corepresentation theory enters.

The basis is fixed by the algebra alone, exactly in K and with no q0.
Write the row weight of a monomial a^i b^j c^k (or d^i b^j c^k) as
-i - j + k (or i - j + k).  Degree, row weight and length fix a
monomial, so a Gram component, one sector and one row weight, holds one
monomial of each length n, n-2, ... down to |row weight|.  The
derivations del_e and del_f are the right U_q(su(2)) action
(Dabrowski-Sitarz, "Dirac operator on the standard Podles quantum
sphere", 2003), so they keep the row weight, and on a sector of degree
+-1 the Casimir is

    C = del_f del_e + c_sector,    c_sector = [(degree + 1)/2]_q^2,

which D^2 equals there (probed, not yet decided: ROADMAP item 16).  C is
triangular by length on each component: on a monomial of length L it is
c_L = [(L+1)/2]_q^2 times that monomial plus shorter ones.  So t' is the
one solution of

    (C - c_n) t' = 0    with (t')_t = 1,

solved top-down (``_reduced``): the coefficient of the monomial of length
L = n - 2r is one sum over the longer ones, divided by
c_n - c_L = [r]_q [n+1-r]_q, which is not zero.  The solve checks both
premises, the diagonal and the shortening, on every monomial it meets,
and raises ``ArithmeticError`` naming the monomial if either fails.

An operator maps t'_j to a combination of the t'_i; its coefficients are
the top-monomial coefficients of op(t'_j), and the closure
op(t'_j) = sum_i M_ij t'_i is checked exactly (``_block_matrix``).  That
check makes the spectrum sound without item 16's proof: it shows that the
operator maps V_n into itself, and, the smaller blocks having passed it
too, F_{n-2}; V_n complements F_{n-2} in F_n, so the spectrum of M is that
of the operator on F_n / F_{n-2}, whatever the basis.  The t' are
orthogonal for the Haar inner product <x, y> = h({}_B<x, y>), as the tests
check to l = 9/2, but nothing here uses it: deciding it needs D to be
symmetric and the form positive (ROADMAP items 16 and 13).  D^2 is not
applied: D maps the block into itself, so its matrix is M_D^2.  The basis
is cached per process once per spin, the matrix once per (spin,
operator), and per monomial both the image of del_f del_e that the solve
reads (``_casimir``) and the image of the monomial spinor under each
operator (``_image``): the t' of spin l holds the shorter monomials of
its component, which the smaller blocks have already met, so a block
solves with and applies the operator to its new monomials only.  M is
also cached as its permutation and nonzero entries (``_monomial_form``),
so a (spin, operator) met before pays only the evaluation of those
2(2l+1) entries at q0, not a scan of M's (2(2l+1))^2.

Every block matrix is monomial: one nonzero entry per row and column.
The block holds one t' per (sector, row weight), D and the laplacian
commute with the left circle action (they are left U_q(su(2))-equivariant,
Dabrowski-Sitarz), D exchanges the sectors and the laplacian keeps them;
so M_D pairs the two t' of each row weight, a product of 2l+1 2-cycles,
and M_D2 and M_lap are diagonal.  That argument is cited, not decided; the
structure itself is checked exactly on every exact block, once per
(spin, operator) and process, when ``_monomial_form`` reads M (it raises
otherwise), and the tests build every D, D2 and lap block up to l = 11/2
(``test_op_matrix_is_the_dense_evaluation``).
The eigenvalues are read off the cycles of the permutation: a fixed point
gives its entry, a 2-cycle with entry product p >= 0 gives +-sqrt(p), and
any other cycle has a non-real eigenvalue and raises.  For a monomial matrix
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

from .algebra import Element, _pbw_of_length, del_e, del_f, mono_length
from .coeff import ONE, ZERO, accumulate, dot, qnum
from .spinor import Spinor, dirac, laplacian

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


@cache
def _reduced(n: int):
    """The basis of the total-spin n/2 block, exactly in K.

    Returns ((sign, t), t') pairs: t runs over the monomials of length n
    in the plus (sign +1) and then the minus (sign -1) sector, and t' is
    the solution of (C - c_n) t' = 0 with (t')_t = 1 (module docstring).

    The solve runs top-down.  Each monomial m of t', once its coefficient
    x_m is decided, adds x_m (del_f del_e m)_u to the row of every
    shorter u; the longest open row is decided next, as one ``dot`` over
    its entries divided by c_n - c_L, L the length of u.  It checks its
    two premises on every monomial it decides, and raises
    ``ArithmeticError`` naming l and the monomial if either fails: the
    diagonal entry of del_f del_e on m is c_L - c_sector, and every other
    monomial of the image is shorter than m.  A block that is not
    2(2l+1) vectors raises too."""
    # c_L for the odd lengths L <= n, and c_-1 = 0: c_sector is c_degree
    c = {length: qnum(length + 1) ** 2 for length in range(-1, n + 1, 2)}
    over = {length: (c[n] - c[length]).inverse() for length in range(1, n, 2)}
    out = []
    for sign in (1, -1):
        diagonal = {length: c[length] - c[sign]
                    for length in range(1, n + 1, 2)}
        for t in _pbw_of_length(n, sign):
            terms, rows, m, x = {}, {}, t, ONE
            while True:
                if x:
                    terms[m] = x
                    image = dict(_casimir(m).terms)
                    length = mono_length(m)
                    if image.pop(m, ZERO) != diagonal[length] \
                            or any(mono_length(u) >= length for u in image):
                        raise ArithmeticError(
                            "the Casimir solve fails at l=%s on %r: del_f "
                            "del_e is not c_L - c_sector on it plus shorter "
                            "monomials" % (Fraction(n, 2), m))
                    for u, v in image.items():
                        rows.setdefault(u, []).append((x, v, 0))
                if not rows:
                    break
                m = max(rows, key=mono_length)
                x = dot(rows.pop(m)) * over[mono_length(m)]
            out.append(((sign, t), Spinor.slot(sign, Element(terms))))
    if len(out) != 2 * (n + 1):
        raise ArithmeticError("block dimension %d does not match 2(2l+1) = %d"
                              % (len(out), 2 * (n + 1)))
    return tuple(out)


@cache
def _casimir(m) -> Element:
    """del_f del_e on the monomial m, the part of the Casimir that the
    solve of ``_reduced`` reads.  A monomial of length L lies in the t' of
    every block of spin n/2 >= L/2 of its component, so the blocks share
    these images."""
    return del_f(del_e(Element.from_mono(m)))


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


def _add_scaled(out, c, psi: Spinor):
    """Add the terms of c psi into the plus and minus term dicts out."""
    for terms, x in zip(out, (psi.plus, psi.minus)):
        accumulate(terms, ((u, c * v) for u, v in x.terms.items()))


@cache
def _block_matrix(n: int, operator: str):
    """The matrix M of an operator on the spin-n/2 block basis, exactly:
    op(t'_j) = sum_i M_ij t'_i, checked term by term.  Rows of scalars,
    in the order of ``_reduced(n)``.

    The image of t'_j is the sum of the cached monomial images
    ``_image(operator, sign, m)`` scaled by the coefficients of t'_j,
    summed in one pass per component; each monomial lies in exactly one
    t', so each image is read once per block.  The span
    sum_i M_ij t'_i is summed over the nonzero M_ij only, and the closure
    check compares it with the full image, every monomial of both, on
    every block, whichever images it reads: a zero M_ij adds nothing to
    the span, so skipping it leaves the check as strong.

    The D^2 matrix is the square of the D matrix: the closure check of D
    gives D(t'_i) = sum_k (M_D)_ki t'_k, so D^2(t'_j) = sum_k (M_D^2)_kj
    t'_k.  The square runs over the nonzero entries of M_D only, one per
    row when M_D is monomial, so it costs a small part of applying D
    twice to the basis."""
    if operator == "D2":
        rows = [[(k, c) for k, c in enumerate(row) if c]
                for row in _block_matrix(n, "D")]
        square = []
        for row in rows:
            out = {}
            for k, c in row:
                accumulate(out, ((j, c * d) for j, d in rows[k]))
            square.append(tuple(out.get(j, ZERO) for j in range(len(rows))))
        return tuple(square)
    block = _reduced(n)
    columns = []
    for _, t_prime in block:
        image = ({}, {})  # the plus and the minus terms
        for sign, part in ((1, t_prime.plus), (-1, t_prime.minus)):
            for m, c in part.terms.items():
                _add_scaled(image, c, _image(operator, sign, m))
        col = [image[sign < 0].get(t, ZERO) for (sign, t), _ in block]
        span = ({}, {})
        for c, (_, t_i) in zip(col, block):
            if c:
                _add_scaled(span, c, t_i)
        if image != span:
            raise ArithmeticError("operator %s does not preserve the l=%s block"
                                  % (operator, Fraction(n, 2)))
        columns.append(col)
    return tuple(tuple(columns[j][i] for j in range(len(block)))
                 for i in range(len(block)))


@cache
def _monomial_form(n: int, operator: str):
    """The block matrix of ``_block_matrix(n, operator)`` as a permutation
    and its exact entries: ``(columns, entries)``, two tuples, where row i
    has its one nonzero ``entries[i]`` in column ``columns[i]``.

    It reads the dense exact matrix once and checks that it is monomial:
    a row with no nonzero or several, or a column met twice, raises
    ArithmeticError naming the operator, l, the row and its nonzero
    columns.  So the check runs once per (spin, operator) and process,
    and a ``SpinBlock`` met before reads only these 2(2l+1) entries."""
    columns, entries = [], []
    for i, row in enumerate(_block_matrix(n, operator)):
        nonzero = [j for j, c in enumerate(row) if c]
        if len(nonzero) != 1 or nonzero[0] in columns:
            raise ArithmeticError(
                "the %s block at l=%s is not monomial: row %d has "
                "nonzero entries in columns %r; the rows above use "
                "columns %r" % (operator, Fraction(n, 2), i, nonzero,
                                columns))
        columns.append(nonzero[0])
        entries.append(row[nonzero[0]])
    return tuple(columns), tuple(entries)


class SpinBlock:
    """One total-spin block of the spinor space at a numeric parameter,
    for one operator: "D", "D2" or "lap".

    The operator's exact block matrix (in the basis of the t', see the
    module docstring) is monomial, so it is held as a permutation and its
    entries: row i has its one nonzero in column ``columns[i]``, and that
    entry at q0 is ``entries[i]``.  ``_monomial_form`` checks the exact
    matrix once per (spin, operator) and process: a row with no nonzero
    or several, or a column met twice, raises ArithmeticError naming the
    row.  An entry that is not a finite float at q0 (it overflows, or is
    nan where 1/q0 is inf at a subnormal q0) raises ValueError naming q0
    and l.  The exact basis, the exact matrix, its monomial form and the
    operator's image of each monomial spinor are cached per process, so
    a (spin, operator) met before costs only the evaluation of its
    2(2l+1) nonzero entries, and a new block of an operator applies it
    only to the monomials that no smaller block holds; q0 enters nowhere
    else.  The eigenvalues are those of the operator on the block whether
    or not the t' are orthogonal (module docstring): that they are, so
    that the matrix is the orthonormal-basis one up to a positive
    diagonal similarity, is tested but not used, and deciding it needs
    ROADMAP items 16 and 13.
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
        columns, exact = _monomial_form(int(2 * self.l), self.operator)
        entries = []
        for c in exact:
            try:
                entry = c.eval_float(self.q0)
            except OverflowError:  # an s ** e beyond the float range
                entry = math.inf
            if not math.isfinite(entry):  # 1/q0 is inf at a subnormal q0
                raise ValueError(
                    "q0 = %r is too small to evaluate the %s block at l=%s "
                    "in floats" % (self.q0, self.operator, self.l))
            entries.append(entry)
        self.columns, self.entries = list(columns), entries

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
