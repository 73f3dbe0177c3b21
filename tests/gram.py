"""Haar values of the spin-block basis for the tests: the Gram pairs of a
component and the norm <t', t'>, formed from the Haar state and the left
spinor inner product, which the block solve does not use."""

from qsphere.algebra import Element, _pbw_of_length, pbw_monomials
from qsphere.haar import haar
from qsphere.spinor import Spinor, ip_spin_left


def row_weight(m) -> int:
    """Twice the row (left) weight of a monomial: a, b count -1, c, d +1.
    Sector, row weight and length fix a monomial (``spectra``)."""
    branch, i, j, k = m
    return (i if branch else -i) - j + k


def norm(t_prime):
    """<t', t'> = h({}_B<t', t'>)."""
    return haar(ip_spin_left(t_prime, t_prime))


def gram_pairs(n):
    """{}_B<t, m> for every monomial t of length n in either sector and
    every m of its Gram component (same sector and row weight) of length
    at most n: the elements whose Haar values form the component's Gram
    row."""
    out = []
    for sign in (1, -1):
        for t in _pbw_of_length(n, sign):
            x = Spinor.slot(sign, Element.from_mono(t))
            out += [ip_spin_left(x, Spinor.slot(sign, Element.from_mono(m)))
                    for m in pbw_monomials(n, sign)
                    if row_weight(m) == row_weight(t)]
    return out
