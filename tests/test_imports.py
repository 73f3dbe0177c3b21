"""Every name that a module of qsphere imports is used in that module."""

import ast
import os
import subprocess
import sys
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
    # sympy and numpy are oracles of the tests only: the package decides K
    # without sympy, and reads block spectra off monomial matrices
    # without numpy
    for path in SOURCES:
        modules = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules.add(node.module)
        roots = {m.split(".")[0] for m in modules}
        assert not roots & {"sympy", "numpy"}, path.name


def test_the_command_line_loads_without_numpy():
    # nothing the command line imports pulls numpy in indirectly
    code = "import sys, qsphere.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(qsphere.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_spectra_forms_no_haar_value():
    # the block basis comes from the Casimir, not from Haar Gram rows, so
    # spectra imports neither the Haar state nor the inner product it reads
    tree = ast.parse((SOURCES[0].parent / "spectra.py").read_text())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            names.update(alias.name for alias in node.names)
    assert not any("haar" in module.split(".") for module in modules)
    assert not names & {"haar", "ip_spin_left"}
