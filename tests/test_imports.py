"""Every name that a module of qsphere imports is used in that module."""

import ast
from pathlib import Path

import pytest

import qsphere

SOURCES = sorted(Path(qsphere.__file__).parent.glob("*.py"))


def _annotation_names(tree):
    """Names inside string annotations such as -> "Tensor"."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations.append(node.returns)
            annotations += [a.annotation for a in
                            args.posonlyargs + args.args + args.kwonlyargs
                            + [args.vararg, args.kwarg] if a is not None]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            for sub in ast.walk(ast.parse(ann.value, mode="eval")):
                if isinstance(sub, ast.Name):
                    yield sub.id


def unused_imports(source: str):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_annotation_names(tree))
    return [(line, name) for line, name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from .a import B, C as D\n"
              "def f(x: \"B\") -> int:\n"
              "    return os.sep\n")
    assert unused_imports(source) == [(3, "D")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_module_imports_sympy():
    # sympy is an oracle of the tests only: the package decides K without it
    for path in SOURCES:
        modules = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules.add(node.module)
        assert not any(m.split(".")[0] == "sympy" for m in modules), path.name
