"""One sparse-sum rule: every dict sum in qsphere goes through
coeff.accumulate, which deletes a key whose sum is zero, so that no stored
dict of polynomials, elements or corners holds a zero."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import qsphere
from qsphere.algebra import Element, mono_star, pbw_monomials
from qsphere.coeff import ONE, ROOT_TWO_Q, accumulate, q_pow, qnum, rational

# the functions that may delete a dict entry: the rule itself, and _pmul,
# which inlines it on the hot path of Scalar products
DELETERS = {"qsphere.coeff.accumulate", "qsphere.coeff._pmul"}


def _del_sites(tree, module):
    """(function, line) of every `del <name>[...]` in a module's source."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            where = "%s.%s" % (where, node.name)
        if isinstance(node, ast.Delete):
            sites.extend((where, node.lineno) for t in node.targets
                         if isinstance(t, ast.Subscript)
                         and isinstance(t.value, ast.Name))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, module)
    return sites


def test_only_accumulate_deletes_dict_entries():
    sites = []
    for info in pkgutil.iter_modules(qsphere.__path__):
        name = "qsphere." + info.name
        module = importlib.import_module(name)
        sites += _del_sites(ast.parse(inspect.getsource(module)), name)
    assert {where for where, _ in sites} == DELETERS, sites


def test_the_guard_finds_a_hand_rolled_sum():
    source = ("def add(p, q):\n"
              "    out = dict(p)\n"
              "    for k, v in q.items():\n"
              "        out[k] = out.get(k, 0) + v\n"
              "        if not out[k]:\n"
              "            del out[k]\n"
              "    return out\n")
    assert _del_sites(ast.parse(source), "m") == [("m.add", 6)]


@pytest.mark.parametrize("one, two", [
    (1, 2),
    (ONE, q_pow(1) + ROOT_TWO_Q),
    (Element.from_mono((0, 0, 1, 1)), Element.from_mono((0, 1, 0, 0), qnum(3))),
], ids=["int", "Scalar", "Element"])
def test_a_cancelled_key_is_deleted_and_comes_back_last(one, two):
    out = {"a": one}
    assert accumulate(out, [("b", two), ("c", one)]) is out
    assert list(out) == ["a", "b", "c"]
    accumulate(out, [("a", -one), ("b", two)])
    assert list(out) == ["b", "c"]
    assert out["b"] == two + two
    accumulate(out, [("a", two), ("c", -one), ("c", one)])
    assert list(out) == ["b", "a", "c"]
    assert out["a"] == two and out["c"] == one
    assert all(v for v in out.values())


@pytest.mark.parametrize("zero", [0, rational(0), Element()],
                         ids=["int", "Scalar", "Element"])
def test_no_zero_is_stored(zero):
    assert accumulate({}, [("a", zero), ("b", zero), ("a", zero)]) == {}


def test_mono_star_is_one_to_one():
    # Element.star maps term by term into a fresh dict, which merges
    # nothing only because mono_star is injective
    monos = [m for degree in range(-8, 9) for m in pbw_monomials(8, degree)]
    stars = {mono_star(m)[0] for m in monos}
    assert len(stars) == len(monos)
    assert stars == set(monos)
