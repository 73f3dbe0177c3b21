"""Numeric spectra on total-spin blocks."""

import json

import numpy as np
import pytest

from qsphere.spectra import (
    SpinBlock, qnum_float, spectra_json, spectra_table, spectrum,
)


def test_smallest_block_dirac_eigenvalues():
    for q0 in (0.5, 0.9, 1.0):
        b = SpinBlock(0.5, q0, "D")
        assert b.op_matrix.shape == (4, 4)
        vals = b.eigenvalues()
        assert vals == pytest.approx([-1, -1, 1, 1], abs=1e-8)


def test_second_block_at_one_half():
    vals = SpinBlock(1.5, 0.5, "D").eigenvalues()
    assert vals == pytest.approx([-2.5] * 4 + [2.5] * 4, abs=1e-8)


@pytest.mark.parametrize("q0", [0.5, 0.9])
def test_dirac_eigenvalues_are_q_integers(q0):
    for row in spectrum(2.5, q0, "D"):
        two_l = int(2 * row["l"])
        want = qnum_float(two_l + 1, q0)
        assert len(row["eigenvalues"]) == 2 * (two_l + 1)
        for v in row["eigenvalues"]:
            assert abs(abs(v) - want) < 1e-8


@pytest.mark.parametrize("q0", [0.5, 0.9])
def test_laplacian_is_nonnegative(q0):
    for row in spectrum(2.5, q0, "lap"):
        assert min(row["eigenvalues"]) >= -1e-9


def test_dirac_squared_matches_squares():
    d = SpinBlock(1.5, 0.7, "D").eigenvalues()
    d2 = SpinBlock(1.5, 0.7, "D2").eigenvalues()
    assert sorted(v * v for v in d) == pytest.approx(d2, abs=1e-8)


def test_gram_is_positive():
    g = SpinBlock(1.5, 0.5, "D").gram
    assert np.allclose(g, g.T, atol=1e-12)
    assert np.linalg.eigvalsh(g).min() > 0


def test_block_construction_errors():
    with pytest.raises(ValueError):
        SpinBlock(0.5, 0.5, "curl")
    with pytest.raises(ValueError):
        SpinBlock(0.5, 1.5, "D")
    with pytest.raises(ValueError):
        SpinBlock(0.5, 0.0, "D")
    with pytest.raises(ValueError):
        SpinBlock(1.0, 0.5, "D")
    with pytest.raises(ValueError):
        SpinBlock(6.5, 0.5, "D")


def test_singular_gram_is_an_error(monkeypatch):
    import qsphere.spectra as spectra_mod
    from qsphere.coeff import ZERO

    monkeypatch.setattr(spectra_mod, "haar", lambda x: ZERO)
    with pytest.raises(ArithmeticError):
        SpinBlock(0.5, 0.5, "D")


def test_json_and_table_round_trip():
    res = spectrum(1.5, 0.5, "D")
    back = json.loads(spectra_json(res))
    assert back == res
    text = spectra_table(res)
    assert "eigenvalues" in text.splitlines()[0]
    assert len(text.splitlines()) == 3


def test_cli_spectra_table_and_json(capsys):
    from qsphere.cli import main
    assert main(["spectra", "--l-max", "3/2", "--q", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["l", "q", "op", "eigenvalues"]
    assert [row.split()[:3] for row in lines[1:]] == [["0.5", "0.5", "D"],
                                                      ["1.5", "0.5", "D"]]
    assert main(["spectra", "--l-max", "1.5", "--q", "0.9", "--operator",
                 "D2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["l"], r["operator"]) for r in rows] == [(0.5, "D2"), (1.5, "D2")]
    want = qnum_float(4, 0.9) ** 2  # [2]_q0^2 on the spin-3/2 block
    assert rows[1]["eigenvalues"] == pytest.approx([want] * 8, rel=1e-8)


def test_cli_rejects_bad_input(capsys):
    from qsphere.cli import main
    for argv in (["spectra", "--l-max", "1"], ["spectra", "--l-max=-1/2"],
                 ["spectra", "--q", "1.5"]):
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err
    for argv in (["spectra", "--l-max", "x"], ["spectra", "--operator", "X"],
                 ["nothing"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_cli_spectra_reports_a_numeric_failure(monkeypatch, capsys):
    from qsphere import cli

    def singular(*args):
        raise ArithmeticError("Gram matrix is singular")

    monkeypatch.setattr(cli, "spectrum", singular)
    assert cli.main(["spectra"]) == 1
    assert "failed: Gram matrix is singular" in capsys.readouterr().err


def test_cli_check_runs_the_checks(monkeypatch, capsys):
    # the full list takes minutes; one real check shows the wiring
    from qsphere import cli
    monkeypatch.setattr(cli, "CHECKS",
                        {"podles-relations": cli.CHECKS["podles-relations"]})
    assert cli.main(["check"]) == 0
    assert capsys.readouterr().out.startswith("PASS podles-relations (")


def test_cli_check_reports_a_failure(monkeypatch, capsys):
    from qsphere import cli
    monkeypatch.setattr(cli, "CHECKS", {
        "hermitian": lambda: (False, "residual x"),
        "torsion-free": lambda: (True, ""),
    })
    assert cli.main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL hermitian (")
    assert lines[0].endswith("): residual x")
    assert lines[1].startswith("PASS torsion-free (")


def test_cli_curvature_formats(monkeypatch, capsys):
    # the cold curvature computation takes minutes; the command's wiring
    # is checked on a stand-in with the same serialisers
    from qsphere import cli

    class Data:
        def to_json(self):
            return "{json}"

        def to_latex(self):
            return "latex"

    monkeypatch.setattr(cli, "CurvatureData", Data)
    for argv, want in ((["curvature"], "{json}"),
                       (["curvature", "--json"], "{json}"),
                       (["curvature", "--latex"], "latex")):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want + "\n"
    with pytest.raises(SystemExit):
        cli.main(["curvature", "--json", "--latex"])
