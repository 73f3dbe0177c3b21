"""An independent numeric oracle: O(SU_q(2)) acting on l^2(N) (x) l^2(Z).

Woronowicz (1987) gives a faithful representation on the basis e_{n,k},
n >= 0, k in Z:

    alpha e_{n,k} = sqrt(1 - q^{2n}) e_{n-1,k},    gamma e_{n,k} = q^n e_{n,k+1},

with alpha e_{0,k} = 0.  In the conventions of ``algebra.py`` the
generators are a = alpha, d = alpha*, c = gamma and b = -q gamma*, and the
Haar state is the weighted trace

    h(x) = (1 - q^2) sum_n q^{2n} <e_{n,0}, x e_{n,0}>.

The operators, the words of the PBW monomials, the adjoints and the trace
are written out here.  Of the package this module reads only
``Element.terms`` and ``Scalar.eval_float``: the products, ``star``, the
solved Haar table and the Haar norms of the spin-block basis are checked
against arithmetic that shares no code with ``algebra.py`` or ``haar.py``.
"""

import math
import random

import pytest

from qsphere.algebra import Element
from qsphere.coeff import ONE, ROOT_TWO_Q, qnum, rational, s_pow
from qsphere.haar import haar
from qsphere.spectra import _reduced

from gram import norm

QS = (0.3, 0.7)
TRACE_TERMS = 400
BASIS = [(n, k) for n in range(7) for k in (-1, 0, 1)]


def _letter(letter, q, n, k):
    """One generator on e_{n,k}: (coefficient, (n', k')), or None for 0."""
    if letter == "a":
        return (math.sqrt(1 - q ** (2 * n)), (n - 1, k)) if n else None
    if letter == "d":
        return math.sqrt(1 - q ** (2 * n + 2)), (n + 1, k)
    if letter == "c":
        return q ** n, (n, k + 1)
    return -q * q ** n, (n, k - 1)  # b = -q gamma*


# a* = d, d* = a, c* = gamma* = -b/q, b* = -q gamma = -q c
def _adjoint(letter, q):
    return {"a": (1.0, "d"), "d": (1.0, "a"), "c": (-1 / q, "b"),
            "b": (-q, "c")}[letter]


def _word(m):
    """The letters of a PBW monomial (branch, i, j, k): a^i b^j c^k for
    branch 0, d^i b^j c^k for branch 1, leftmost first."""
    branch, i, j, k = m
    return ("d" if branch else "a") * i + "b" * j + "c" * k


def _apply_letters(letters, q, v):
    """The operator letters[0] letters[1] ... on a vector {(n, k): float}:
    the last letter acts first."""
    for letter in reversed(letters):
        out = {}
        for (n, k), c in v.items():
            hit = _letter(letter, q, n, k)
            if hit is not None:
                f, idx = hit
                out[idx] = out.get(idx, 0.0) + c * f
        v = out
    return v


def _apply(x, q, v):
    """The element x, read through ``terms`` and ``eval_float``, on v."""
    out = {}
    for m, c in x.terms.items():
        f = c.eval_float(q)
        for idx, w in _apply_letters(_word(m), q, v).items():
            out[idx] = out.get(idx, 0.0) + f * w
    return out


def _apply_adjoint(x, q, v):
    """x* on v, from the adjoints of the letters: (L1 ... Lm)* = Lm* ... L1*."""
    out = {}
    for m, c in x.terms.items():
        w = dict(v)
        for letter in _word(m):  # L1* acts last, so it is applied first here
            f, adj = _adjoint(letter, q)
            w = {idx: f * u for idx, u in _apply_letters(adj, q, w).items()}
        f = c.eval_float(q)
        for idx, u in w.items():
            out[idx] = out.get(idx, 0.0) + f * u
    return out


def _close(got, want, tol=1e-12):
    keys = set(got) | set(want)
    scale = max([1.0] + [abs(u) for u in want.values()])
    return all(abs(got.get(i, 0.0) - want.get(i, 0.0)) <= tol * scale
               for i in keys)


def _monomials(max_length):
    """Every PBW monomial of length at most max_length."""
    out = []
    for length in range(max_length + 1):
        for i in range(length + 1):
            for j in range(length - i + 1):
                k = length - i - j
                out.append((0, i, j, k))
                if i:
                    out.append((1, i, j, k))
    return out


def _mono(m, c=ONE):
    return Element({m: c})


def _haar_trace(diagonal, q):
    """(1 - q^2) sum_{n < TRACE_TERMS} q^{2n} diagonal(n), for diagonal(n)
    the entry <e_{n,0}, x e_{n,0}> of an operator x."""
    return (1 - q * q) * sum(q ** (2 * n) * diagonal(n)
                             for n in range(TRACE_TERMS))


# ---------------------------------------------------------------------------
# the oracle itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", QS)
def test_the_operators_satisfy_the_defining_relations(q):
    # ab = q ba, ac = q ca, bd = q db, cd = q dc, bc = cb,
    # ad = 1 + q bc, da = 1 + q^-1 bc, on every basis vector
    relations = [("ab", q, "ba", 0.0), ("ac", q, "ca", 0.0),
                 ("bd", q, "db", 0.0), ("cd", q, "dc", 0.0),
                 ("bc", 1.0, "cb", 0.0), ("ad", q, "bc", 1.0),
                 ("da", 1 / q, "bc", 1.0)]
    for lhs, f, rhs, one in relations:
        for idx in BASIS:
            v = {idx: 1.0}
            want = {i: f * c for i, c in _apply_letters(rhs, q, v).items()}
            want[idx] = want.get(idx, 0.0) + one
            assert _close(_apply_letters(lhs, q, v), want), (lhs, idx)


# ---------------------------------------------------------------------------
# products and star
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", QS)
def test_pbw_products_are_operator_products(q):
    # every product of two monomials of length <= 2, and 150 random pairs
    # of length <= 4: the normal form acts as the operator product
    short, longer = _monomials(2), _monomials(4)
    rng = random.Random(7)
    pairs = [(m1, m2) for m1 in short for m2 in short]
    pairs += [(rng.choice(longer), rng.choice(longer)) for _ in range(150)]
    for m1, m2 in pairs:
        x, y = _mono(m1), _mono(m2)
        xy = x * y
        for idx in BASIS:
            v = {idx: 1.0}
            assert _close(_apply(xy, q, v), _apply(x, q, _apply(y, q, v))), \
                (m1, m2, idx)


_COEFFS = [ONE, rational(-3), s_pow(3), ROOT_TWO_Q, qnum(3),
           ROOT_TWO_Q * s_pow(-1) + qnum(4)]


@pytest.mark.parametrize("q", QS)
def test_star_is_the_adjoint(q):
    # <e_u, x* e_v> = <x e_u, e_v> for sums of monomials with coefficients
    # in K, which are real at real q
    rng = random.Random(11)
    monos = _monomials(4)
    for _ in range(60):
        x = sum((_mono(rng.choice(monos), rng.choice(_COEFFS))
                 for _ in range(rng.randint(1, 3))), Element())
        xs = x.star()
        for idx in BASIS:
            v = {idx: 1.0}
            assert _close(_apply(xs, q, v), _apply_adjoint(x, q, v)), \
                (x, idx)


# ---------------------------------------------------------------------------
# the Haar state and the Gram pivots
# ---------------------------------------------------------------------------


def _degree(m):
    branch, i, j, k = m
    return (i if branch else -i) + j - k


@pytest.mark.parametrize("q", QS)
def test_haar_state_is_the_weighted_trace(q):
    # every degree-0 monomial of length <= 8
    monos = [m for m in _monomials(8) if _degree(m) == 0]
    assert len(monos) == 25
    for m in monos:
        x = _mono(m)
        want = _haar_trace(
            lambda n: _apply(x, q, {(n, 0): 1.0}).get((n, 0), 0.0), q)
        got = haar(x).eval_float(q)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15), m


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", [1, 3, 5])
def test_gram_pivots_are_norms(n, q):
    # <t', t'> = h(q t'+ t'+* + q^-1 t'- t'-*), and h(x x*) is the
    # weighted trace of |x* e_{n,0}|^2
    def norm_sq(x):
        return lambda n: sum(
            u * u for u in _apply_adjoint(x, q, {(n, 0): 1.0}).values())

    for _, t_prime in _reduced(n):
        want = q * _haar_trace(norm_sq(t_prime.plus), q) \
            + _haar_trace(norm_sq(t_prime.minus), q) / q
        assert norm(t_prime).eval_float(q) == pytest.approx(want, rel=1e-12)
