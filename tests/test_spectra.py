"""Spectra on total-spin blocks: the exact block matrices in K and their
values at numeric q0."""

import hashlib
import json
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from qsphere.algebra import (Element, _pbw_of_length, del_e, del_f,
                             mono_length, pbw_monomials)
from qsphere.coeff import ZERO, q_pow, qnum, rational
from qsphere.haar import haar
from qsphere.spectra import (
    _OPERATORS, SpinBlock, _block_matrix, _half_integer, _image,
    _monomial_form, _reduced, qnum_float, spectra_table, spectrum,
)
from qsphere.spinor import Spinor, dirac, ip_spin_left, laplacian

from gram import norm, row_weight


def test_smallest_block_dirac_eigenvalues():
    for q0 in (0.5, 0.9, 1.0):
        b = SpinBlock(0.5, q0, "D")
        assert len(b.columns) == len(b.entries) == 4
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


def _monomial_spinors(n):
    """(sign, monomial, spinor) for every monomial spinor of length <= n."""
    return [(sign, m, Spinor(plus=Element.from_mono(m)) if sign > 0
             else Spinor(minus=Element.from_mono(m)))
            for sign in (1, -1) for m in pbw_monomials(n, sign)]


def test_gram_is_positive():
    basis = [x for _, _, x in _monomial_spinors(3)]
    g = np.array([[haar(ip_spin_left(x, y)).eval_float(0.5) for y in basis]
                  for x in basis])
    assert np.allclose(g, g.T, atol=1e-12)
    assert np.linalg.eigvalsh(g).min() > 0


def test_row_weight_filter_skips_only_zero_pairs():
    # a Gram component holds the monomials of one sector and row weight;
    # every pair across components is orthogonal, exactly
    for n in (1, 3, 5):
        spinors = _monomial_spinors(n)
        skipped = 0
        for sign, m, x in spinors:
            for sign2, m2, y in spinors:
                if sign == sign2 and row_weight(m) != row_weight(m2):
                    assert haar(ip_spin_left(x, y)) == 0, (m, m2)
                    skipped += 1
        assert skipped > 0


def test_reduced_basis_is_orthogonal_to_shorter_monomials():
    for n in range(1, 10, 2):
        block = _reduced(n)
        assert len(block) == 2 * (n + 1)
        for (sign, t), t_prime in block:
            assert mono_length(t) == n
            assert (t_prime.plus if sign > 0 else t_prime.minus).terms[t] == 1
            assert norm(t_prime).eval_float(0.5) > 0
            for _, _, x in _monomial_spinors(n - 2):
                assert haar(ip_spin_left(t_prime, x)) == 0
                assert haar(ip_spin_left(x, t_prime)) == 0


def test_gram_row_is_symmetric_on_each_component():
    # G(m, t) = G(t, m) on a component (one sector and row weight): the
    # form is symmetric there, as the orthogonality of the t' needs
    spinors = _monomial_spinors(5)
    pairs = 0
    for i, (sign, m, x) in enumerate(spinors):
        for sign2, m2, y in spinors[i + 1:]:
            if sign == sign2 and row_weight(m) == row_weight(m2):
                assert haar(ip_spin_left(x, y)) == \
                    haar(ip_spin_left(y, x)), (m, m2)
                pairs += 1
    assert pairs > 0


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11])
def test_each_monomial_lies_in_exactly_one_t_prime(n):
    # so a block reads each monomial's cached image (_image) once, scaled
    # by the one t' coefficient of that monomial
    seen = []
    for _, t_prime in _reduced(n):
        seen += [(1, m) for m in t_prime.plus.terms]
        seen += [(-1, m) for m in t_prime.minus.terms]
    assert len(seen) == len(set(seen))


def _matmul(a, b):
    return [[reduce(lambda acc, k: acc + a[i][k] * b[k][j], range(len(b)), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11, 13])
def test_exact_block_identities(n):
    size = 2 * (n + 1)
    m_d, m_d2, m_lap = (_block_matrix(n, op) for op in ("D", "D2", "lap"))
    square = _matmul(m_d, m_d)
    # D^2 = [l + 1/2]_q^2 on the block, and D is traceless
    top = qnum(n + 1) * qnum(n + 1)
    assert square == [[top if i == j else 0 for j in range(size)]
                      for i in range(size)]
    assert reduce(lambda acc, i: acc + m_d[i][i], range(size), ZERO) == 0
    assert [list(row) for row in m_d2] == square
    # the Weitzenbock defect diag(q^2, q^-2)/(q^2 + q^-2), block by block
    e_beta = q_pow(2) + q_pow(-2)
    defect = [q_pow(2) / e_beta] * (n + 1) + [q_pow(-2) / e_beta] * (n + 1)
    for i in range(size):
        for j in range(size):
            want = defect[i] if i == j else 0
            assert m_d2[i][j] - m_lap[i][j] == want, (i, j)
    # each t' solves (C - c_n) t' = 0, C = del_f del_e + [(degree + 1)/2]_q^2
    for (sign, t), t_prime in _reduced(n):
        x = t_prime.plus if sign > 0 else t_prime.minus
        c_sector = qnum(sign + 1) * qnum(sign + 1)
        assert del_f(del_e(x)) + x.scale(c_sector) == x.scale(top), t


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_d2_block_is_dirac_applied_twice(n):
    # the D^2 matrix is squared from the D matrix, not applied; applying
    # D twice to each basis vector must give the same columns
    block = _reduced(n)
    m_d2 = _block_matrix(n, "D2")
    for j, (_, t_j) in enumerate(block):
        span = Spinor()
        for i, (_, t_i) in enumerate(block):
            span = span + t_i.scale(m_d2[i][j])
        assert dirac(dirac(t_j)) == span, j


def _frozen(matrix):
    return [[c._freeze() for c in row] for row in matrix]


def test_lap_blocks_do_not_depend_on_the_order_they_are_built():
    # a block reads the images its smaller blocks left in _image; built
    # from the largest down, every image is made by the largest block
    _clear_caches()
    try:
        down = {n: _frozen(_block_matrix(n, "lap")) for n in (5, 3, 1)}
        _clear_caches()
        up = {n: _frozen(_block_matrix(n, "lap")) for n in (1, 3, 5)}
        assert down == up
    finally:
        _clear_caches()


def _monomials_of_blocks(ns):
    """Every (sign, m) that a t' of the spin-n/2 blocks holds."""
    return {(sign, m) for n in ns for _, t_prime in _reduced(n)
            for sign, part in ((1, t_prime.plus), (-1, t_prime.minus))
            for m in part.terms}


@pytest.mark.parametrize("operator, ns, calls", [
    ("lap", (1, 3, 5), 24), ("D", (3, 5, 7, 9, 11), 84)])
def test_each_monomial_spinor_is_mapped_once(operator, ns, calls,
                                             monkeypatch):
    # the operator is resolved through the module's name at each call,
    # so a wrapper bound there (as a tracer binds one) sees every call
    import qsphere.spectra as spectra_mod
    name = {"D": "dirac", "lap": "laplacian"}[operator]
    apply, seen = getattr(spectra_mod, name), []

    def counted(psi):
        seen.append(psi)
        return apply(psi)

    _clear_caches()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(spectra_mod, name, counted)
            for n in ns:
                _block_matrix(n, operator)
        keys = _monomials_of_blocks(ns)
        # every monomial spinor of odd length <= max(ns) in both sectors
        assert len(seen) == len(keys) == calls
        assert _image.cache_info().currsize == calls
        for sign, m in keys:
            psi = Spinor.slot(sign, Element.from_mono(m))
            assert psi in seen
    finally:
        _clear_caches()


@pytest.mark.parametrize("operator, apply, ns", [
    ("lap", laplacian, (1, 3, 5)), ("D", dirac, (1, 3, 5, 7))])
def test_cached_images_are_the_operator_applied_afresh(operator, apply, ns):
    _clear_caches()
    try:
        for n in ns:
            _block_matrix(n, operator)
        keys = _monomials_of_blocks(ns)
        cached = _image.cache_info()
        # the keys read below are every entry of the memo, each a hit
        assert cached.currsize == len(keys)
        for sign, m in keys:
            psi = Spinor.slot(sign, Element.from_mono(m))
            assert _image(operator, sign, m) == apply(psi), (sign, m)
        assert _image.cache_info().misses == cached.misses
    finally:
        _clear_caches()


@pytest.mark.parametrize("q0", [0.01, 0.3, 0.58, 0.97, 1.0])
def test_large_blocks_at_every_q0(q0):
    # the float Gram route failed here: singular at 0.3, a coupling of
    # 5e-2 at 0.58
    for l in (4.5, 5.5):
        v = qnum_float(int(2 * l + 1), q0)
        size = int(2 * l + 1)
        d = SpinBlock(l, q0, "D").eigenvalues()
        assert d == pytest.approx([-v] * size + [v] * size, rel=1e-8)
        d2 = SpinBlock(l, q0, "D2").eigenvalues()
        assert d2 == pytest.approx([v * v] * (2 * size), rel=1e-8)


def _dense(n, op, q0):
    return np.array([[c.eval_float(q0) for c in row]
                     for row in _block_matrix(n, op)])


@pytest.mark.parametrize("q0", [0.37, 0.6, 1.0])
def test_op_matrix_is_the_dense_evaluation(q0):
    # only the nonzero exact entries are evaluated; they are the nonzeros
    # of the dense evaluation, bit for bit, one per row and column
    for n in range(1, 12, 2):
        for op in ("D", "D2", "lap"):
            b = SpinBlock(Fraction(n, 2), q0, op)
            dense = _dense(n, op, q0)
            rows = np.arange(len(dense))
            sparse = np.zeros_like(dense)
            sparse[rows, b.columns] = b.entries
            assert sorted(b.columns) == list(rows)
            assert sparse.tobytes() == dense.tobytes()


_EIGEN_Q0 = [0.05, 0.37, 0.6, 0.9, 1.0]


@pytest.mark.parametrize("q0", _EIGEN_Q0)
def test_cycle_eigenvalues_match_the_dense_eigensolver(q0):
    # the cycle rule against numpy on the dense evaluation; the laplacian
    # blocks above l = 7/2 cost seconds each and are left out
    for n in range(1, 12, 2):
        for op in ("D", "D2") if n > 7 else _OPERATORS:
            got = SpinBlock(Fraction(n, 2), q0, op).eigenvalues()
            want = np.linalg.eigvals(_dense(n, op, q0))
            assert np.abs(want.imag).max() == 0
            want = sorted(want.real)
            assert len(got) == len(want) == 2 * (n + 1)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-15 * abs(w), (n, op, g, w)


@pytest.mark.parametrize("q0", _EIGEN_Q0)
def test_cycle_eigenvalues_of_d_are_q_integers(q0):
    # against [l + 1/2]_q0 in 50 digits; the error is that of eval_float
    # on the two entries of a 2-cycle, about five units in the last place
    # at worst (1.05e-15 at l = 11/2, q0 = 0.37, where the dense
    # eigensolver is off by 1.22e-15)
    for n in range(1, 12, 2):
        want = _qnum_reference(n + 1, q0)
        vals = SpinBlock(Fraction(n, 2), q0, "D").eigenvalues()
        assert [v > 0 for v in vals] == [False] * (n + 1) + [True] * (n + 1)
        for v in vals:
            err = abs(Decimal(abs(v)) - want) / want
            assert err <= Decimal("2e-15"), (n, v)


# the monomial check without its memo, taken before any test patches the
# module: a cached (1, "D") form would hide a fake matrix
_uncached_monomial_form = _monomial_form.__wrapped__


def _fake_block(monkeypatch, rows):
    """SpinBlock(1/2, 0.5, "D") built on the given matrix of integers."""
    import qsphere.spectra as spectra_mod
    matrix = tuple(tuple(rational(c) for c in row) for row in rows)
    monkeypatch.setattr(spectra_mod, "_block_matrix", lambda n, op: matrix)
    monkeypatch.setattr(spectra_mod, "_monomial_form", _uncached_monomial_form)
    return SpinBlock(0.5, 0.5, "D")


def test_cycle_rule_on_small_monomial_matrices(monkeypatch):
    # a fixed point gives its entry, a 2-cycle +-sqrt of its product
    b = _fake_block(monkeypatch, [[0, 2, 0], [8, 0, 0], [0, 0, -3]])
    assert b.columns == [1, 0, 2]
    assert b.eigenvalues() == [-4.0, -3.0, 4.0]


def test_a_block_that_is_not_monomial_names_the_row(monkeypatch):
    for rows, row in (([[1, 0], [1, 1]], 1), ([[0, 1], [0, 0]], 1),
                      ([[0, 1, 0], [0, 2, 0], [0, 0, 1]], 1)):
        with pytest.raises(ArithmeticError, match="not monomial: row %d " % row):
            _fake_block(monkeypatch, rows)


def test_a_cycle_with_no_real_spectrum_raises(monkeypatch):
    # a 2-cycle with a negative product, and a 3-cycle
    for rows in ([[0, 1], [-1, 0]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                 [[5, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]]):
        b = _fake_block(monkeypatch, rows)
        with pytest.raises(ArithmeticError, match="block spectrum is not real"):
            b.eigenvalues()


def _qnum_reference(two_x, q0):
    """[x]_q0 in 50 digits: with s = q0^(1/2), (s^n - s^-n)/(s - s^-1) is
    a sum of positive powers of s, and s^2 - s^-2 = (s - s^-1)(s + s^-1)."""
    with localcontext() as ctx:
        ctx.prec = 50
        s = Decimal(q0).sqrt()
        powers = sum(s ** (two_x - 1 - 2 * k) for k in range(two_x))
        return powers / (s + 1 / s)


@pytest.mark.parametrize("q0", [0.05, 0.5, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
def test_qnum_float_keeps_its_digits_near_one(q0):
    for two_x in range(1, 15):
        want = _qnum_reference(two_x, q0)
        got = qnum_float(two_x, q0)
        assert abs((Decimal(got) - want) / want) <= Decimal("1e-12"), two_x


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
        SpinBlock(-0.5, 0.5, "D")
    with pytest.raises(ValueError):
        SpinBlock(6.25, 0.5, "D")


def test_unknown_operator_names_the_three():
    for build in (SpinBlock, spectrum):
        with pytest.raises(ValueError) as err:
            build(Fraction(3, 2), 0.5, "X")
        assert all(repr(name) in str(err.value)
                   for name in ("D", "D2", "lap"))


def test_half_integer_spins():
    for l in ("5/2", 2.5, Fraction(5, 2)):
        assert _half_integer(l) == Fraction(5, 2)
    for l in ("1/3", 2, "-1/2", 0.3):
        with pytest.raises(ValueError):
            _half_integer(l)


def test_dirac_beyond_eleven_halves():
    # no fixed cap on the spin: l = 13/2 gives +-[7]_q, 14 times each
    v = qnum_float(14, 0.7)
    vals = SpinBlock(6.5, 0.7, "D").eigenvalues()
    assert vals == pytest.approx([-v] * 14 + [v] * 14, rel=1e-10)


def _clear_caches():
    _reduced.cache_clear()
    _block_matrix.cache_clear()
    _monomial_form.cache_clear()
    _image.cache_clear()


@pytest.mark.parametrize("operator", _OPERATORS)
def test_a_warm_block_reads_only_its_monomial_form(operator, monkeypatch):
    # a (spin, operator) met before evaluates its cached nonzero entries:
    # with the dense matrix unreadable, a block at another q0 builds, bit
    # for bit as it builds cold
    import qsphere.spectra as spectra_mod

    def unreadable(n, op):
        raise AssertionError("the dense matrix was read again")

    l, q0 = Fraction(3, 2), 0.37
    _clear_caches()
    try:
        first = SpinBlock(l, 0.6, operator)
        want = list(first.columns)
        with monkeypatch.context() as patch:
            patch.setattr(spectra_mod, "_block_matrix", unreadable)
            warm = SpinBlock(l, q0, operator)
            # each block owns its columns: changing one changes no other
            first.columns[0] = -1
            assert SpinBlock(l, q0, operator).columns == want
        _clear_caches()
        cold = SpinBlock(l, q0, operator)
        assert warm.columns == cold.columns == want
        assert [x.hex() for x in warm.entries] == \
            [x.hex() for x in cold.entries]
    finally:
        _clear_caches()


def test_a_broken_casimir_premise_is_an_error(monkeypatch):
    # q-numbers shifted by one step break the diagonal c_L - c_sector of
    # del_f del_e: at l = 1/2 first on the minus sector's c, whose
    # diagonal [1]_q^2 is then read as [2]_q^2 - [1]_q^2
    import qsphere.spectra as spectra_mod

    _clear_caches()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(spectra_mod, "qnum", lambda two_x: qnum(two_x + 2))
            for l, mono in ((0.5, r"\(0, 0, 0, 1\)"), (1.5, r"\(\d, ")):
                with pytest.raises(ArithmeticError,
                                   match=r"solve fails at l=%s on %s"
                                   % (Fraction(l), mono)):
                    SpinBlock(l, 0.5, "D")
        # a failed solve stores nothing, so a real block builds after
        assert _reduced.cache_info().currsize == 0
        assert _block_matrix.cache_info().currsize == 0
        assert _monomial_form.cache_info().currsize == 0
        vals = SpinBlock(1.5, 0.5, "D").eigenvalues()
        assert vals == pytest.approx([-2.5] * 4 + [2.5] * 4, abs=1e-8)
    finally:
        _clear_caches()


@pytest.mark.parametrize("operator", ["D", "lap"])
def test_an_image_outside_the_block_fails_the_closure_check(operator,
                                                           monkeypatch):
    # one image gains a monomial of length n - 2 of another component:
    # F_{n-2} holds no t' of the block, so the span of the nonzero entries
    # cannot reach it and the full comparison must fail
    import qsphere.spectra as spectra_mod

    n = 3
    want = _block_matrix(n, operator)
    (sign, top), _ = _reduced(n)[0]
    stray = next(u for u in _pbw_of_length(n - 2, sign)
                 if row_weight(u) != row_weight(top))
    image = spectra_mod._image

    def stray_image(op, s, m):
        out = image(op, s, m)
        if (s, m) == (sign, top):
            out = out + Spinor.slot(sign, Element.from_mono(stray))
        return out

    _clear_caches()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(spectra_mod, "_image", stray_image)
            with pytest.raises(ArithmeticError, match=r"operator %s does not "
                               r"preserve the l=3/2 block" % operator):
                SpinBlock(Fraction(n, 2), 0.5, operator)
        # the failed block stores nothing, and a clean rebuild passes
        assert _block_matrix.cache_info().currsize == 0
        assert _monomial_form.cache_info().currsize == 0
        assert _block_matrix(n, operator) == want
    finally:
        _clear_caches()


def test_json_and_table_round_trip():
    res = spectrum(1.5, 0.5, "D")
    back = json.loads(json.dumps(res, indent=2))
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
    assert main(["spectra", "--l-max", "11/2", "--q", "0.3", "--operator",
                 "D2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    want = qnum_float(12, 0.3) ** 2
    assert rows[-1]["eigenvalues"] == pytest.approx([want] * 24, rel=1e-8)


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


@pytest.mark.parametrize("argv", [
    ["--q", "5e-324", "--operator", "lap"], ["--q", "1e-310", "--operator", "D"]])
def test_a_nan_entry_at_a_subnormal_q0_is_an_input_error(argv, capsys):
    # 1/q0 is inf at a subnormal q0, so an entry evaluates to nan; that
    # exits 2 with the q0 error, not 0 with [NaN, ...] (not valid JSON)
    from qsphere.cli import main
    assert main(["spectra", "--l-max", "1/2", *argv, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qsphere spectra: error: q0 = %s is too "
                                   "small" % argv[1]), captured.err


@pytest.mark.parametrize("operator", ["D", "D2", "lap"])
def test_a_float_overflow_at_tiny_q0_is_an_input_error(operator, capsys):
    # an entry's s ** e overflows a float at q0 = 1e-40 from l = 9/2 on;
    # that is a q0 out of the float range, not a failed exact identity
    from qsphere.cli import main
    with pytest.raises(ValueError, match=r"q0 = 1e-40 .* %s block at l=9/2"
                       % operator):
        spectrum(Fraction(11, 2), 1e-40, operator)
    assert spectrum(Fraction(1, 2), 1e-40, operator)[0]["eigenvalues"]
    assert main(["spectra", "--l-max", "11/2", "--q", "1e-40",
                 "--operator", operator]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qsphere spectra: error: q0 = 1e-40"), err


def test_cli_spectra_reports_a_numeric_failure(monkeypatch, capsys):
    from qsphere import cli

    def broken(*args):
        raise ArithmeticError("the Casimir solve fails")

    monkeypatch.setattr(cli, "spectrum", broken)
    assert cli.main(["spectra"]) == 1
    assert "failed: the Casimir solve fails" in capsys.readouterr().err


def test_cli_check_runs_the_checks(capsys):
    # every entry takes under a second, so the real list runs
    from qsphere import cli
    assert cli.main(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == \
        [["PASS", name] for name in cli.CHECKS]


def test_cli_check_reports_a_failure(monkeypatch, capsys):
    from qsphere import cli
    from qsphere.algebra import SPHERE_A, Verdict
    from qsphere.tensors import from_corners
    corners = {(-1, -1): -SPHERE_A, (1, 1): SPHERE_A}
    monkeypatch.setattr(cli, "CHECKS", {
        "hermitian": lambda: Verdict(False, "case x", SPHERE_A),
        "bimodule": lambda: Verdict(False, "case y",
                                    from_corners(2, corners)),
        "torsion-free": lambda: Verdict(True),
    })
    assert cli.main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL hermitian (")
    assert lines[0].endswith("): case x: residual %r" % SPHERE_A)
    # a tensor residual is printed as its nonzero corners
    assert lines[1].startswith("FAIL bimodule (")
    assert lines[1].endswith("): case y: residual %r" % corners)
    assert lines[2].startswith("PASS torsion-free (")


def test_cli_curvature_formats(capsys):
    # the real export; the two formats are pinned by SHA-256 in
    # test_curvature_data_serialisation
    from qsphere import cli
    from qsphere.levicivita import curvature_json, curvature_latex
    for argv, want in ((["curvature"], curvature_json()),
                       (["curvature", "--json"], curvature_json()),
                       (["curvature", "--latex"], curvature_latex())):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want + "\n"
    with pytest.raises(SystemExit):
        cli.main(["curvature", "--json", "--latex"])


@pytest.mark.parametrize("argv, digest", [
    (["--l-max", "7/2", "--q", "0.6", "--operator", "lap"],
     "c92114686cd468e0d159c64d609cadda1d26277728aadd05e903b96ad4bd3716"),
    (["--l-max", "11/2", "--q", "0.6", "--operator", "D"],
     "681d657031123d51101fdca67f94deb3dba6420962be59772aee6626e6d3d3d7"),
    (["--l-max", "11/2", "--q", "0.37", "--operator", "lap"],
     "15545241b61d0245fce776b67efea0452d877e983b6475324981817779233fb1"),
    (["--l-max", "9/2", "--q", "0.9", "--operator", "D2"],
     "096c2a44e27efae6a41f48d6670523027ff9200744cd55be2d8fb48a5e92017b"),
], ids=["lap-7/2", "D-11/2", "lap-11/2-q0.37", "D2-9/2-q0.9"])
def test_cli_spectra_json_bytes_are_pinned(argv, digest, capsys):
    # each eigenvalue is an evaluated entry (the laplacian) or +-sqrt of
    # the product of a 2-cycle's two (D), and an entry is a sum over the
    # canonical form of its scalar, exponents ascending (Scalar.eval_float);
    # so this pins the arithmetic to the last bit whatever route built the
    # scalars
    from qsphere.cli import main
    assert main(["spectra", *argv, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
