"""The metric's two halves, G = q t_pm + q^{-1} t_mp, built straight from
the vector corepresentation so that tests can state the metric, the Chern
character, the volume form and the braiding through them."""

from qsphere.algebra import spin_one
from qsphere.forms import OneForm
from qsphere.tensors import Tensor


def t_pm() -> Tensor:
    """sum_j t(2-j,-1)* E12 (x) t(2-j,-1) E21."""
    return Tensor(2, [(OneForm(plus=spin_one(m, -1).star()),
                       OneForm(minus=spin_one(m, -1)))
                      for m in (1, 0, -1)])


def t_mp() -> Tensor:
    """sum_j t(2-j,1)* E21 (x) t(2-j,1) E12."""
    return Tensor(2, [(OneForm(minus=spin_one(m, 1).star()),
                       OneForm(plus=spin_one(m, 1)))
                      for m in (1, 0, -1)])
