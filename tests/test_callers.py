"""Every public name of qsphere has a caller in the program, and so does
every default it declares: some call leaves it out.

A public top-level function or class of ``src/qsphere``, and every public
method or property of such a class, must be referenced in ``src/qsphere``
outside its own definition, or by a benchmark module ``bench/*.py``
(which also names what it wraps in strings such as "HaarState.__call__";
the benchmark's own tests do not count).  Names are matched by
spelling: a call ``x.scale(c)`` counts for every method named ``scale``.

The only exceptions are the second routes on ``REFERENCE_ROUTES``, which
exist so that tests can compare the program against them.  The list cannot
go stale: a listed name that gains a caller in the program, that no test
uses, or that no longer exists fails the guard too.

The same holds for defaults: every defaulted parameter of a public
function, method or class constructor must be omitted by at least one
call in ``src/qsphere``, outside its own definition, or in ``bench/*.py``.
Calls are matched by name as above, and their positional arguments are
counted after self or cls, but for a static method.  A call through a
subclass counts for the constructor it inherits, and a call with
``*args`` or ``**kwargs`` counts as omitting every parameter.  The
``REFERENCE_ROUTES`` are exempt."""

import ast
from collections import defaultdict
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


def calls(tree, skip=None):
    """(by name, by attribute): the calls of a tree outside its subtree
    skip, listed under the name or the attribute they call."""
    skipped = set() if skip is None else {id(n) for n in ast.walk(skip)}
    by_name, by_attr = defaultdict(list), defaultdict(list)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in skipped:
            if isinstance(node.func, ast.Name):
                by_name[node.func.id].append(node)
            elif isinstance(node.func, ast.Attribute):
                by_attr[node.func.attr].append(node)
    return by_name, by_attr


def _named(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _is_init(node):
    return isinstance(node, ast.FunctionDef) and node.name == "__init__"


def _defaulted(fn, bound):
    """(position, name) of each defaulted parameter of a function node,
    the position counted after its first bound parameters (self or cls),
    and None for a keyword-only one."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[bound:]
    first = len(positional) - len(args.defaults)
    return ([(i, a.arg) for i, a in enumerate(positional) if i >= first]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _fields(cls):
    """(position, name) of each defaulted field of a NamedTuple, whose
    constructor takes its annotated fields in order; None for any other
    class."""
    if "NamedTuple" not in map(_named, cls.bases):
        return None
    fields = [n for n in cls.body if isinstance(n, ast.AnnAssign)]
    return [(i, n.target.id) for i, n in enumerate(fields) if n.value]


def _omits(call, position, name):
    """Whether a call leaves out the parameter at position (None for a
    keyword-only one) named name."""
    if any(isinstance(a, ast.Starred) for a in call.args) \
            or any(k.arg is None for k in call.keywords):
        return True
    if position is not None and len(call.args) > position:
        return False
    return all(k.arg != name for k in call.keywords)


def defaults(module, tree, inherits):
    """(qualified name, definition node, defaulted parameters, the names a
    call is matched by, whether only an attribute call counts) for each
    public function, method and constructor of a module's tree; inherits
    maps each class of the program without an ``__init__`` of its own to
    the names of its bases."""
    for qualname, node in public_definitions(module, tree):
        if isinstance(node, ast.FunctionDef):
            method = qualname.count(".") == 2
            bound = method and "staticmethod" not in map(_named,
                                                         node.decorator_list)
            yield qualname, node, _defaulted(node, bound), {node.name}, method
            continue
        names = {node.name}
        while True:  # the subclasses that inherit the constructor
            more = {c for c, bases in inherits.items() if names & bases}
            if more <= names:
                break
            names |= more
        init = [n for n in node.body if _is_init(n)]
        if init:
            yield (qualname + ".__init__", init[0], _defaulted(init[0], 1),
                   names, False)
        elif _fields(node) is not None:
            yield qualname, node, _fields(node), names, False


def unomitted(program, bench):
    """"qualified name.parameter" of each defaulted parameter of a public
    function, method or constructor of program (module -> tree) that no
    call omits, in program outside its definition or in bench (file ->
    tree), sorted."""
    inherits = {node.name: set(map(_named, node.bases))
                for tree in program.values() for node in tree.body
                if isinstance(node, ast.ClassDef)
                and not any(map(_is_init, node.body))}
    whole = {module: calls(tree) for module, tree in program.items()}
    bench_calls = [calls(tree) for tree in bench.values()]
    out = []
    for module, tree in program.items():
        others = [c for other, c in whole.items() if other != module]
        for qualname, node, params, names, method in \
                defaults(module, tree, inherits):
            if not params:
                continue
            found = [call for by_name, by_attr
                     in [calls(tree, skip=node)] + others + bench_calls
                     for name in names for call
                     in by_attr[name] + ([] if method else by_name[name])]
            out += ["%s.%s" % (qualname, param) for position, param in params
                    if not any(_omits(c, position, param) for c in found)]
    return sorted(out)


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


def test_the_guard_sees_a_default_only_tests_use():
    program = _parsed({
        "m": ("from typing import NamedTuple\n"
              "def used(x, y=1):\n    return x + y\n"
              "def spare(n, acc=0):\n    return spare(n - 1) if n else acc\n"
              "def starred(x, y=1, *, z=2):\n    return x\n"
              "def keyed(x, *, z=2):\n    return x\n"
              "class K:\n"
              "    def __init__(self, a, b=None):\n        self.a = a\n"
              "    def run(self, k=0):\n        return k\n"
              "    @staticmethod\n"
              "    def make(x, y=1):\n        return K(x, y)\n"
              "class L(K):\n    pass\n"
              "class V(NamedTuple):\n    ok: bool\n    case: str = ''\n"),
        "n": ("from .m import K, L, V, keyed, starred, used\n"
              "used(1, 2)\nstarred(*(1,))\nL(1).run(k=1)\nK.make(1)\n"
              "V(True, 'x')\nkeyed(1, z=3)\n"),
    })
    bench = _parsed({"b.py": "from m import used\nused(1)\n"})
    assert unomitted(program, bench) == [
        "m.K.run.k", "m.V.case", "m.keyed.z", "m.spare.acc"]


def test_every_public_name_has_a_caller():
    missing = [q for q in uncalled(PROGRAM, BENCH)
               if q not in REFERENCE_ROUTES]
    assert missing == []


def test_every_default_has_a_caller_that_omits_it():
    idle = [p for p in unomitted(PROGRAM, BENCH)
            if p.rsplit(".", 1)[0] not in REFERENCE_ROUTES]
    assert idle == []


def test_the_reference_routes_are_current():
    assert stale_routes(REFERENCE_ROUTES, PROGRAM, BENCH, TESTS) == []
