"""Every public name of qsphere has a caller in the program.

A public top-level function or class of ``src/qsphere``, and every public
method or property of such a class, must be referenced in ``src/qsphere``
outside its own definition, or by a benchmark module ``bench/*.py``
(which also names what it wraps in strings such as "HaarState.__call__";
the benchmark's own tests do not count).  Names are matched by
spelling: a call ``x.scale(c)`` counts for every method named ``scale``.

The only exceptions are the second routes on ``REFERENCE_ROUTES``, which
exist so that tests can compare the program against them.  The list cannot
go stale: a listed name that gains a caller in the program, that no test
uses, or that no longer exists fails the guard too."""

import ast
from pathlib import Path

import qsphere

PACKAGE = Path(qsphere.__file__).parent
ROOT = PACKAGE.parent.parent

# "module.name" or "module.Class.name" -> its role
REFERENCE_ROUTES = {
    # cross-checks: a second computation of what the program computes
    "calculus.ext_d_via_junk":
        "d(a dee(b)) by its definition (1 - Psi)(dee(a) (x) dee(b)), "
        "against the closed form ext_d",
    "calculus.psi_decomposed":
        "Psi as corner selectors plus the metric line, against JunkData.psi",
    "levicivita.riemann_pre_projection":
        "the curvature sum before the junk projection, against its "
        "collapsed pattern",
    "levicivita.curvature_of":
        "the defining curvature composite on one one-form, against "
        "riemann_contract",
    "levicivita.riemann_contract":
        "riemann() paired with a one-form, the other side of curvature_of",
    # identity references: the other side of an identity the program uses
    "calculus.sigma_inv": "the inverse braiding, against sigma",
    "forms.frame_expand_right":
        "sum_j w_j <w_j, rho>, the right frame identity",
    "forms.frame_expand_left":
        "sum_j <rho, w_j^dag> w_j^dag, the left frame identity",
    "spinor.dirac_commutator":
        "[D, b] psi, against clifford(dee(b), psi)",
    "algebra.del_k": "the twist in the twisted Leibniz rule of del_e, del_f",
    # oracle views: Fraction dicts for the sympy and float oracles
    "coeff.Scalar.pe": "the numerator's rational part as a Fraction dict",
    "coeff.Scalar.pr": "the numerator's r part as a Fraction dict",
    "coeff.Scalar.den": "the denominator as a Fraction dict",
}


def public_definitions(module: str, tree):
    """(qualified name, node) of each public top-level function and class
    of a module's tree, and of each public method or property of those
    classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield "%s.%s" % (module, node.name), node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield "%s.%s.%s" % (module, node.name, sub.name), sub


def references(tree, skip=None, strings=False):
    """(names, attributes) that a tree reads, outside its subtree skip;
    with strings, also the parts of each dotted-identifier string."""
    skipped = set() if skip is None else {id(n) for n in ast.walk(skip)}
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
                attrs.update(parts)
    return names, attrs


def _is_read(qualname, names, attrs):
    """A method is read as an attribute; a function or class by name too."""
    name = qualname.split(".")[-1]
    return name in attrs or (qualname.count(".") == 1 and name in names)


def uncalled(program, bench):
    """The public names of program (module -> tree) that neither program,
    outside their definitions, nor bench (file -> tree) reads, sorted."""
    whole = {module: references(tree) for module, tree in program.items()}
    bench_refs = [references(tree, strings=True) for tree in bench.values()]
    out = []
    for module, tree in program.items():
        others = [r for other, r in whole.items() if other != module]
        for qualname, node in public_definitions(module, tree):
            refs = [references(tree, skip=node)] + others + bench_refs
            if not any(_is_read(qualname, n, a) for n, a in refs):
                out.append(qualname)
    return sorted(out)


def stale_routes(routes, program, bench, tests):
    """(name, why) for each listed route that does not exist, has a caller
    in the program or bench, or is used by no test (file -> tree)."""
    defined = {q for module, tree in program.items()
               for q, _ in public_definitions(module, tree)}
    idle = set(uncalled(program, bench))
    test_refs = [references(tree) for tree in tests.values()]
    out = []
    for qualname in routes:
        if qualname not in defined:
            out.append((qualname, "not defined"))
        elif qualname not in idle:
            out.append((qualname, "has a caller in the program"))
        elif not any(_is_read(qualname, n, a) for n, a in test_refs):
            out.append((qualname, "no test uses it"))
    return out


def _trees(paths, key=str):
    return {key(p): ast.parse(p.read_text()) for p in paths}


def _parsed(sources):
    return {key: ast.parse(text) for key, text in sources.items()}


PROGRAM = _trees(sorted(PACKAGE.glob("*.py")), lambda p: p.stem)
BENCH = _trees(sorted((ROOT / "bench").glob("*.py")))
TESTS = _trees(sorted(Path(__file__).parent.glob("*.py")))


def test_the_guard_sees_a_name_only_tests_use():
    program = _parsed({
        "m": ("def used():\n    return 1\n"
              "def spare():\n    return spare()\n"
              "class K:\n"
              "    def run(self):\n        return used()\n"
              "    def idle(self):\n        return self.idle()\n"
              "    @property\n    def view(self):\n        return 1\n"),
        "n": "from .m import K\nK().run()\n",
    })
    bench = _parsed({"b.py": 'TARGETS = ("K.view",)\n'})
    assert uncalled(program, bench) == ["m.K.idle", "m.spare"]
    tests = _parsed({"t.py": "from m import spare\nspare()\n"})
    routes = {"m.spare": "", "m.K.run": "", "m.K.idle": "", "m.gone": ""}
    assert stale_routes(routes, program, bench, tests) == [
        ("m.K.run", "has a caller in the program"),
        ("m.K.idle", "no test uses it"),
        ("m.gone", "not defined"),
    ]


def test_every_public_name_has_a_caller():
    missing = [q for q in uncalled(PROGRAM, BENCH)
               if q not in REFERENCE_ROUTES]
    assert missing == []


def test_the_reference_routes_are_current():
    assert stale_routes(REFERENCE_ROUTES, PROGRAM, BENCH, TESTS) == []
