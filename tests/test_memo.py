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
    algebra._cross_pow, algebra.mono_mul, algebra._mono_del,
    forms.frame, tensors.metric, calculus.volume_form,
    levicivita.riemann, levicivita.ricci,
    spinor._metric_weight, spinor._frame_second, spinor._monomial_second,
    spectra._reduced,
    spectra._casimir, spectra._block_matrix, spectra._image,
    haar.haar_state, haar._solve,
    coeff._cyclotomic, coeff._orders, coeff._expansion, coeff._root,
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


def test_memoised_is_every_functools_cache():
    # a new memo joins this list, and with it the hit-rate audit
    found = set()
    for module in _modules():
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    if getattr(dec, "attr", getattr(dec, "id", None)) in (
                            "cache", "lru_cache", "cached_property"):
                        found.add((module.__name__, node.name))
    assert found == {(fn.__module__, fn.__name__) for fn in MEMOISED}


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
                assert c._n == 1 and not c._factors
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
    # the rebuilt metric refers to the fresh frame, not to the cleared one
    legs = [leg for leg, _ in tensors.metric().terms]
    assert len(legs) == 3 and all(a is b for a, b in zip(legs, fresh))
