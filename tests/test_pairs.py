"""One pair type: one-forms, spinors and diagonal matrices share their
componentwise structure through algebra.Pair.

The products are checked against explicit 2x2 matrices multiplied out in
this file, and a guard keeps the shared methods from being redefined in
the subclasses."""

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.algebra import ZERO_EL, Pair
from qsphere.forms import OneForm
from qsphere.spinor import Spinor, clifford
from qsphere.tensors import Diag, mul_map, tensor

from test_algebra import elements, small_coeffs

PAIR_TYPES = (OneForm, Spinor, Diag)
SHARED = ("__init__", "__eq__", "__add__", "__neg__", "__sub__", "scale",
          "is_zero", "__bool__", "__repr__")

entries = elements(max_terms=2)


def pairs_of(cls):
    return st.builds(cls, entries, entries)


# ---------------------------------------------------------------------------
# the shared structure keeps the type
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls", PAIR_TYPES, ids=lambda c: c.__name__)
@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_linear_structure_keeps_the_type(cls, data):
    a = data.draw(pairs_of(cls))
    b = data.draw(pairs_of(cls))
    x = data.draw(entries)
    c = data.draw(small_coeffs)
    cases = [
        (a + b, a.plus + b.plus, a.minus + b.minus),
        (a - b, a.plus - b.plus, a.minus - b.minus),
        (-a, -a.plus, -a.minus),
        (a.scale(c), a.plus.scale(c), a.minus.scale(c)),
        (x * a, x * a.plus, x * a.minus),
    ]
    for got, plus, minus in cases:
        assert type(got) is cls
        assert got.plus == plus and got.minus == minus
    assert (a - a).is_zero() and not (a - a)
    assert repr(a).startswith(cls.__name__ + "(plus=")
    for other in PAIR_TYPES:
        if other is not cls:
            twin = other(a.plus, a.minus)
            assert a != twin and not (a == twin)
            with pytest.raises(TypeError):
                a + twin


# ---------------------------------------------------------------------------
# products against explicit 2x2 matrices
# ---------------------------------------------------------------------------

def _matrix(p):
    """The 2x2 matrix (or the column, for a spinor) of a pair."""
    if isinstance(p, OneForm):
        return ((ZERO_EL, p.plus), (p.minus, ZERO_EL))
    if isinstance(p, Diag):
        return ((p.plus, ZERO_EL), (ZERO_EL, p.minus))
    if isinstance(p, Spinor):
        return ((p.plus,), (p.minus,))
    raise TypeError(p)


def _matmul(x, y):
    return tuple(
        tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(len(y[0])))
        for i in range(2))


@settings(deadline=None, max_examples=15)
@given(pairs_of(OneForm), pairs_of(OneForm), pairs_of(Diag), pairs_of(Diag),
       pairs_of(Spinor))
def test_products_are_matrix_products(v, w, d, e, psi):
    V, W, D, E, PSI = (_matrix(p) for p in (v, w, d, e, psi))
    assert _matrix(d * w) == _matmul(D, W)
    assert _matrix(w * d) == _matmul(W, D)
    assert _matrix(d * psi) == _matmul(D, PSI)
    assert _matrix(d * e) == _matmul(D, E)
    assert _matrix(clifford(w, psi)) == _matmul(W, PSI)
    assert _matrix(mul_map(tensor(v, w))) == _matmul(V, W)
    assert type(d * w) is OneForm and type(w * d) is OneForm
    assert type(d * psi) is Spinor and type(d * e) is Diag


# ---------------------------------------------------------------------------
# guard: the shared methods live on Pair only
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls", PAIR_TYPES, ids=lambda c: c.__name__)
def test_pair_types_do_not_fork_the_shared_methods(cls):
    assert issubclass(cls, Pair)
    assert cls.__slots__ == ()
    forked = [name for name in SHARED if name in vars(cls)]
    assert not forked, (cls.__name__, forked)
