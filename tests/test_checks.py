"""One Verdict for every exact check.

Each ``qsphere check`` entry is a generator of (case, lhs, rhs) triples run
by ``algebra.exact_check``.  With a defect patched into the library, every
entry must fail, name the case that failed and return its nonzero
residual; a guard keeps every zero-argument check_* on the command line."""

import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import qsphere
from qsphere import algebra, calculus, cli, levicivita, spinor, tensors
from qsphere.algebra import Verdict, exact_check
from qsphere.coeff import ONE, q_pow, rational


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

class Probe:
    """A value that counts its comparisons and subtractions."""

    log = []

    def __init__(self, value):
        self.value = value

    def __ne__(self, other):
        Probe.log.append("!=")
        return self.value != other.value

    def __sub__(self, other):
        Probe.log.append("-")
        return self.value - other.value


def test_runner_stops_at_the_first_failure_and_only_then_subtracts():
    drawn = []

    @exact_check
    def check_probe():
        """Three cases, the second false."""
        for case, lhs, rhs in (("one", 1, 1), ("two", 5, 2), ("three", 0, 1)):
            drawn.append(case)
            yield case, Probe(lhs), Probe(rhs)

    Probe.log.clear()
    verdict = check_probe()
    assert verdict == Verdict(False, "two", 3) and not verdict
    assert drawn == ["one", "two"]
    assert Probe.log == ["!=", "!=", "-"]
    assert check_probe.__name__ == "check_probe"
    assert check_probe.__doc__ == "Three cases, the second false."

    Probe.log.clear()
    passing = exact_check(lambda: iter([("a", Probe(1), Probe(1))]))()
    assert passing == Verdict(True, None, None) and passing
    assert Probe.log == ["!="]


# ---------------------------------------------------------------------------
# guard: every check is an entry and returns a Verdict
# ---------------------------------------------------------------------------

def _checks():
    for info in pkgutil.iter_modules(qsphere.__path__):
        module = importlib.import_module("qsphere." + info.name)
        for name, fn in vars(module).items():
            if (name.startswith("check_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not inspect.signature(fn).parameters):
                yield fn


def test_every_check_is_a_cli_entry_and_returns_a_verdict():
    checks = list(_checks())
    assert len(checks) == len(cli.CHECKS) == 10
    for fn in checks:
        assert fn in cli.CHECKS.values(), fn.__qualname__
        verdict = fn()
        assert type(verdict) is Verdict and verdict, (fn.__qualname__,
                                                      verdict)


# ---------------------------------------------------------------------------
# each entry fails on a defect
# ---------------------------------------------------------------------------

def _sigma_q4(t):
    """The braiding with q^4 in place of q^2 on the (-,-) and (+,+)
    corners."""
    return calculus._braid(t, 4)


def _defect(name, monkeypatch):
    """Patch a defect into the library that entry name must detect."""
    if name == "podles-relations":  # a perturbed generator
        monkeypatch.setattr(algebra, "SPHERE_B",
                            algebra.SPHERE_B.scale(q_pow(1)))
    elif name == "hermitian":  # q times the right connection
        conn = levicivita.conn_right
        monkeypatch.setattr(levicivita, "conn_right",
                            lambda rho: conn(rho).scale(q_pow(1)))
    elif name == "torsion-free":  # a sign in the volume form C
        vf = calculus.volume_form()
        monkeypatch.setattr(vf, "C", -vf.C)
    elif name == "bimodule":
        monkeypatch.setattr(levicivita, "sigma", _sigma_q4)
    elif name == "compatibility":  # the flip in place of the braiding
        monkeypatch.setattr(spinor, "sigma", lambda t: tensors.from_corners(
            2, {eps[::-1]: x for eps, x in t.corners().items()}))
    elif name == "divergence":  # a state that is not invariant
        haar = spinor.haar
        monkeypatch.setattr(spinor, "haar",
                            lambda x: haar(algebra.SPHERE_A * x))
    elif name in ("riemann", "ricci"):  # a sign in the closed forms
        monkeypatch.setattr(levicivita, "diag_scalars", lambda plus, minus:
                            tensors.diag_scalars(plus, -minus))
    elif name == "scalar-curvature":
        scal = levicivita.scalar_curvature
        monkeypatch.setattr(levicivita, "scalar_curvature",
                            lambda: scal() * q_pow(1))
    elif name == "weitzenbock":  # a perturbed W
        w = spinor.weitzenbock_correction
        monkeypatch.setattr(spinor, "weitzenbock_correction",
                            lambda psi: w(psi) + algebra.SPHERE_A * psi)
    else:
        raise KeyError(name)


@pytest.mark.parametrize("name", list(cli.CHECKS))
def test_each_entry_fails_on_a_defect(name, monkeypatch):
    assert cli.CHECKS[name]()
    _defect(name, monkeypatch)
    verdict = cli.CHECKS[name]()
    assert not verdict and verdict.ok is False
    assert isinstance(verdict.case, str) and verdict.case
    assert verdict.residual is not None and verdict.residual, verdict


def test_a_wrong_braiding_fails_bimodule_naming_the_one_form(
        monkeypatch, capsys):
    monkeypatch.setattr(levicivita, "sigma", _sigma_q4)
    monkeypatch.setattr(cli, "CHECKS",
                        {"bimodule": levicivita.check_bimodule_connection})
    assert cli.main(["check"]) == 1
    line = capsys.readouterr().out
    assert line.startswith("FAIL bimodule (")
    verdict = levicivita.check_bimodule_connection()
    corners = verdict.residual.corners()
    assert line.endswith("): sigma nabla->(1 dee(B) A): residual %r\n"
                         % corners)
    # q^4 in place of q^2 acts on the (-,-) and (+,+) corners only
    assert list(corners) == [(-1, -1), (1, 1)]


def test_a_defect_in_a_q_one_limit_is_named(monkeypatch):
    # the q = 1 cases of weitzenbock compare W with a quarter of the scalar
    # curvature, so a scalar curvature off by one fails them
    scal = levicivita.scalar_curvature
    monkeypatch.setattr(spinor, "scalar_curvature", lambda: scal() + ONE)
    verdict = spinor.check_weitzenbock()
    assert verdict == Verdict(False, "W+ at q = 1 is scal/4",
                              Fraction(1, 2) - Fraction(3, 4))


def _failing_cases(check, prefix):
    """The cases of an exact check whose name starts with prefix, each
    with whether it fails."""
    return [(case, lhs != rhs) for case, lhs, rhs in check.__wrapped__()
            if case.startswith(prefix)]


def test_a_dropped_sign_in_the_left_connection_fails_hermitian(monkeypatch):
    # the frame-sum case cannot see this: each of its halves vanishes
    conn = levicivita.conn_left
    monkeypatch.setattr(levicivita, "conn_left", lambda rho: -conn(rho))
    verdict = levicivita.check_hermitian()
    w1 = levicivita.frame()[0]
    assert verdict == Verdict(False, "nabla<-(w1) = conn_left_direct(w1)",
                              conn(w1).scale(rational(-2)))
    cases = _failing_cases(levicivita.check_hermitian, "nabla<-(")
    assert len(cases) == 5 and all(fails for _, fails in cases), cases


def test_a_wrong_curvature_spinor_fails_weitzenbock(monkeypatch):
    # D^2 - lap = W does not read the curvature; the new cases do
    curv = spinor.spinor_curvature
    monkeypatch.setattr(spinor, "spinor_curvature",
                        lambda psi: curv(psi).scale(q_pow(1)))
    verdict = spinor.check_weitzenbock()
    assert not verdict
    assert verdict.case == "Phi = (q/2) diag(-q^-1, q) psi on s(-1/2,+)"
    for prefix in ("Phi = ", "m(sigma(C)) Phi = W on "):
        cases = _failing_cases(spinor.check_weitzenbock, prefix)
        assert len(cases) == 6 and all(fails for _, fails in cases), cases
