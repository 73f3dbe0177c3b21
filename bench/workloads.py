"""The three benchmark workloads: seeded inputs, one operation each, and
the check of its output.

A workload object is built by ``setup()``, which imports ``qsphere`` and
forces the shared lazy objects the operations need; that is the cost
reported as ``setup_s``.  ``cycle(rng)`` draws one cycle of inputs, and
``run(item)`` performs one operation and returns a list of problems
(empty when the output is correct).  An ``ArithmeticError`` or
``ValueError`` raised by the library is caught by the caller and counted
as a failed operation.  Only on a workload whose ``ERRORS_EXPECTED`` is
true (``spectra``, with its known numerical failures) does such an error
leave the run's outputs correct; on the others it is a defect.

Every cycle has the same mix of operation kinds, and the seed draws the
data inside each kind.  The cost of an operation is set far more by its
kind (Riemann block, word shape, spin and operator) than by the data, so
runs with different seeds measure the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_curvature.json"


def entry_digests(coeffs) -> dict:
    """The canonical repr of each entry of a coefficient array, as the
    first 16 hex digits of its SHA-256, keyed by ``"i,j,k,l"``."""
    return {",".join(map(str, idx)):
            hashlib.sha256(repr(c).encode()).hexdigest()[:16]
            for idx, c in coeffs.items()}


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


class Curvature:
    """Frame slices of the Riemann blocks of the cold curvature pipeline.

    Block (k, p) is -w_k (x) (1 - Psi)(sum_j dee(<w_k,w_j>) (x)
    dee(<w_j,w_p>)) (x) w_p^dag; the junk complement has one term per
    frame component of the volume form C, so the block is a sum of nine
    simple four-tensors.  One operation builds the block's middle
    two-tensor, applies the complement, forms the four-tensor of slice t
    and takes its coefficient array.  A cycle visits all nine blocks in a
    seeded order, each at a seeded slice.
    """

    BLOCKS = tuple((k, p) for k in range(3) for p in range(3))
    SLICES = 9
    ERRORS_EXPECTED = False

    def __init__(self, golden):
        from qsphere.calculus import volume_form
        from qsphere.coeff import rational
        from qsphere.forms import dee, frame, ip_right
        from qsphere.tensors import Tensor

        self.vf = volume_form()
        self.ws = frame()
        self._dee, self._ip, self._tensor = dee, ip_right, Tensor
        self._minus = rational(-1)
        self.golden = golden

    @classmethod
    def cycle(cls, rng):
        blocks = list(cls.BLOCKS)
        rng.shuffle(blocks)
        return [(k, p, rng.randrange(cls.SLICES)) for k, p in blocks]

    def four_tensor(self, k, p, t):
        ws, dee, ip = self.ws, self._dee, self._ip
        mid = self._tensor(2, [(dee(ip(ws[k], ws[j])), dee(ip(ws[j], ws[p])))
                               for j in range(3)])
        c1, c2 = self.vf.complement(mid).terms[t]
        return self._tensor(4, [(ws[k].scale(self._minus), c1, c2,
                                 ws[p].dag())])

    def run(self, item):
        k, p, t = item
        got = entry_digests(self.four_tensor(k, p, t).coeffs())
        want = self.golden["%d,%d,%d" % (k, p, t)]
        return ["block (%d,%d) slice %d entry %s: repr digest %s, golden %s"
                % (k, p, t, idx, got.get(idx), want.get(idx))
                for idx in sorted(set(got) | set(want))
                if got.get(idx) != want.get(idx)]


# ---------------------------------------------------------------------------
# connection
# ---------------------------------------------------------------------------


class Connection:
    """Torsion-freeness and the bimodule property of the Levi-Civita
    connection on seeded one-forms rho = q^m x dee(y) z.

    x, y, z are words in the sphere generators A, B, B*; x and z may be
    empty.  The letters set an operation's cost: on the machine in the
    README, 1 s with x and z empty, about 3 s with one of them and 3 to
    6 s with both, by letter.  So every cycle runs the same nine words,
    three of each shape, and the seed draws the power m of each and their
    order.  The median then falls among the three words with one side
    and the 90th percentile among the three with both.
    """

    WORDS = (("", "A", ""), ("", "B", ""), ("", "*", ""),
             ("B", "A", ""), ("", "*", "A"), ("*", "*", ""),
             ("A", "B", "A"), ("B", "*", "A"), ("A", "A", "A"))
    ERRORS_EXPECTED = False

    def __init__(self):
        from qsphere.algebra import ONE_EL, SPHERE_A, SPHERE_B, SPHERE_BSTAR
        from qsphere.calculus import ext_d, sigma, volume_form
        from qsphere.coeff import q_pow
        from qsphere.forms import dee, frame
        from qsphere.levicivita import conn_left, conn_right

        self.vf = volume_form()
        frame()
        self._one = ONE_EL
        self._gens = {"A": SPHERE_A, "B": SPHERE_B, "*": SPHERE_BSTAR}
        self._q_pow, self._dee, self._ext_d, self._sigma = q_pow, dee, ext_d, sigma
        self._conn_right, self._conn_left = conn_right, conn_left

    @classmethod
    def cycle(cls, rng):
        items = [(x, y, z, rng.randint(-2, 2)) for x, y, z in cls.WORDS]
        rng.shuffle(items)
        return items

    def _word(self, letters):
        el = self._one
        for ch in letters:
            el = el * self._gens[ch]
        return el

    def run(self, item):
        xs, ys, zs, m = item
        x = self._word(xs).scale(self._q_pow(m))
        y, z = self._word(ys), self._word(zs)
        rho = (x * self._dee(y)) * z
        # d(x dee(y) z) via x dee(y) z = x dee(yz) - (xy) dee(z)
        d_rho = self._ext_d(x, y * z) - self._ext_d(x * y, z)
        right = self._conn_right(rho)
        left = self._conn_left(rho)
        problems = []
        if self.vf.complement(right) != -d_rho:
            problems.append("(1 - Psi) conn_right(rho) != -d rho")
        if self.vf.complement(left) != d_rho:
            problems.append("(1 - Psi) conn_left(rho) != d rho")
        if self._sigma(right) != left:
            problems.append("sigma(conn_right(rho)) != conn_left(rho)")
        return problems


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


class Spectra:
    """Numeric spectra of D, D^2 and the laplacian on total-spin blocks.

    An operation's cost is set by its spin and operator; on the machine
    in the README D and D^2 take milliseconds up to l = 5/2, about 0.1 s
    at 7/2, 0.3 s at 9/2 and 0.9 s at 11/2, and the laplacian 0.3 s at
    l = 1/2, 1.5 s at 3/2 and 4 s at 5/2 (above that, 10 to 26 s, a
    whole run's budget, so the cycle stops at 5/2).  The quantiles are
    placed in the middle of groups of operations of one cost, so that
    they do not hang on one or two operations of another kind: of the
    28 blocks, the 9 cheapest (D and D^2 at 3/2 ... 9/2, the laplacian
    at 1/2) lie below the 10 D and D^2 blocks at 11/2, whose middle is
    the median; the 90th percentile falls among the 8
    laplacian blocks at 3/2, below the single one at 5/2.  D and D^2 at
    l = 1/2, 4x4 blocks that take milliseconds and never fail, are left
    out so that the median stays in that group.  The n runs of one
    (l, operator) cell draw q0 from the n equal strata of (0, 1], so
    every cycle meets small, middle and large q0 alike: where a block
    fails, and so how long it takes, then varies little from seed to
    seed.
    """

    # (l, operator, runs per cycle), from (2l, operator, runs)
    KINDS = tuple((Fraction(n, 2), op, runs) for n, op, runs in (
        (3, "D", 1), (3, "D2", 1), (5, "D", 1), (5, "D2", 1),
        (7, "D", 1), (7, "D2", 1), (9, "D", 1), (9, "D2", 1),
        (1, "lap", 1),
        (11, "D", 5), (11, "D2", 5),
        (3, "lap", 8),
        (5, "lap", 1)))
    REL_TOL = 1e-6
    # SpinBlock raises on its known singular-Gram and coupling points
    ERRORS_EXPECTED = True

    def __init__(self):
        from qsphere.haar import haar_state
        from qsphere.spectra import SpinBlock, qnum_float

        # a Gram entry pairs two monomials of length <= 2l, so the state
        # is needed on words of length up to 4l
        haar_state().ensure(int(4 * max(l for l, _, _ in self.KINDS)))
        self._block, self._qnum = SpinBlock, qnum_float

    @classmethod
    def cycle(cls, rng):
        items = [(str(l), (i + 1 - rng.random()) / n, op)
                 for l, op, n in cls.KINDS for i in range(n)]
        rng.shuffle(items)
        return items

    def run(self, item):
        l, q0, op = item
        l = Fraction(l)
        vals = self._block(l, q0, op).eigenvalues()
        size = int(4 * l + 2)
        if len(vals) != size:
            return ["%d eigenvalues, expected %d" % (len(vals), size)]
        v = self._qnum(int(2 * l + 1), q0)
        if op == "D":
            want = [-v] * (size // 2) + [v] * (size // 2)
        elif op == "D2":
            want = [v * v] * size
        else:
            floor = -self.REL_TOL * max(1.0, max(abs(x) for x in vals))
            if min(vals) < floor:
                return ["laplacian eigenvalue %.6g < 0" % min(vals)]
            return []
        scale = max(1.0, abs(want[-1]))
        worst = max(abs(a - b) for a, b in zip(vals, want))
        if worst > self.REL_TOL * scale:
            return ["%s eigenvalue off by %.3g from %.10g" % (op, worst, want[-1])]
        return []


CLASSES = {"curvature": Curvature, "connection": Connection,
           "spectra": Spectra}


def cycle_items(name, seed, pass_index):
    """The inputs of one pass; the same arguments give the same inputs."""
    rng = random.Random("%s:%d:%d" % (name, seed, pass_index))
    return CLASSES[name].cycle(rng)


def setup(name):
    """Import the program and build the named workload's shared state."""
    if name == "curvature":
        return Curvature(json.loads(GOLDEN_PATH.read_text())["slices"])
    return CLASSES[name]()
