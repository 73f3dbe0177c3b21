"""Every memo in qsphere is a functools.cache: no hand-rolled module
caches, a cache_clear on each memoised entry point, and clearing them all
rebuilds the same objects with no stale pieces left behind."""

import ast
import importlib
import inspect
import pkgutil

import qsphere
from qsphere import (algebra, calculus, coeff, forms, haar, levicivita, spectra,
                     spinor, tensors)
from qsphere.coeff import ROOT_TWO_Q, q_pow

MEMOISED = [
    algebra._cross_pow, algebra.mono_mul, algebra._mono_del, algebra.spin_one,
    forms.frame, tensors.metric, calculus.chern2, calculus.volume_form,
    levicivita.riemann, levicivita.ricci,
    spinor._metric_diag, spectra._reduced, spectra._block_matrix,
    haar.haar_state,
]


def _modules():
    return [importlib.import_module("qsphere." + info.name)
            for info in pkgutil.iter_modules(qsphere.__path__)]


def test_no_hand_rolled_module_caches():
    for module in _modules():
        names = [name for name in vars(module) if name.endswith("_cache")]
        assert not names, (module.__name__, names)
        tree = ast.parse(inspect.getsource(module))
        globals_ = [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Global)]
        assert not globals_, (module.__name__, globals_)


def test_every_memoised_entry_point_can_be_cleared():
    for fn in MEMOISED:
        assert callable(getattr(fn, "cache_clear", None)), fn
        assert callable(getattr(fn, "cache_info", None)), fn


def _assert_frame_is_stored_as_units(ws):
    # every coefficient reduced to +-s^k or +-r s^k over den 1, the shape
    # that coeff._unit turns into a shift
    for w in ws:
        for x in (w.plus, w.minus):
            for c in x.terms.values():
                assert c._reduced and c._n == 1 and c._den == {0: 1}
                assert coeff._unit(c) is not None


def test_clearing_every_memo_rebuilds_the_same_objects():
    ws = forms.frame()
    _assert_frame_is_stored_as_units(ws)
    c_terms = repr(calculus.volume_form().C.terms)
    assert len(calculus.volume_form().C.terms) == 9
    for fn in MEMOISED:
        fn.cache_clear()
    assert all(fn.cache_info().currsize == 0 for fn in MEMOISED)

    vf = calculus.volume_form()
    fresh = forms.frame()
    assert fresh is not ws and fresh == ws
    # w_j = kappa_j u_j, kappa_j = q^{j-2} [2]_q^{-1/2}, u_j = dee(t(j-2, 0));
    # the fresh frame is integral, stored as units again
    kappa = [q_pow(j - 2) * ROOT_TWO_Q.inverse() for j in (1, 2, 3)]
    for j, w in enumerate(fresh):
        assert w == forms.dee(algebra.spin_one(j - 1, 0)).scale(kappa[j])
    _assert_frame_is_stored_as_units(fresh)
    assert repr(vf.C.terms) == c_terms
    # the rebuilt objects refer to each other, not to the cleared ones
    assert vf.G is tensors.metric()
    legs = [leg for leg, _ in tensors.metric().terms]
    assert len(legs) == 3 and all(a is b for a, b in zip(legs, fresh))
