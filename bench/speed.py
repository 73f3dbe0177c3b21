"""Host-speed adjustment of measured times.

The benchmark shares its cores with other work on the host, and the
speed at which this process runs moves with it: a fixed piece of
pure-Python arithmetic takes up to twice as long in a slow spell as in a
fast one, spells last from a second to minutes, and process CPU time
slows down with wall time.  Raw wall times of one run then say as much
about the host as about the program.

While a pass runs, a ``Sampler`` interrupts it every ``SAMPLE_EVERY_S``
seconds of wall time and times a fixed piece of ``Fraction``
arithmetic, the probe, which uses nothing from the program.
``REF_PROBE_S / probe`` is the host's relative speed at that instant.
A timed interval's adjusted time is its wall time, less the probes run
inside it, times the mean relative speed of the samples taken within
``WINDOW_S`` of it: the time the interval would have taken at the
reference speed.  The program's operations and the probe are both
interpreted Python doing rational arithmetic, so a slow spell stretches
both alike and cancels out of the adjusted time, while a change to the
program moves only the interval.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# the probe's typical time, on the machine in the README, in a pass
REF_PROBE_S = 0.0004
SAMPLE_EVERY_S = 0.025
WINDOW_S = 0.25


def probe():
    """A fixed piece of ``fractions.Fraction`` arithmetic, 0.3–0.4 ms:
    the standard library's rationals, which the program's scalars are
    built on, but nothing from the program itself."""
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 7) * Fraction(3 * i + 1, 2 * i + 5)
    return acc


class Sampler:
    """Times the probe on SIGALRM; ``samples`` holds (start, seconds)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        start = self.clock()
        probe()
        self.samples.append((start, self.clock() - start))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start=None, end=None):
        """Mean relative speed of the samples within WINDOW_S of
        [start, end], or of all samples."""
        if start is None:
            near = self.samples
        else:
            near = [(t, s) for t, s in self.samples
                    if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = self.samples
        if not near:
            raise RuntimeError("no speed samples were taken")
        return statistics.fmean(REF_PROBE_S / s for _, s in near)

    def adjust(self, start, end):
        """The wall time of [start, end], probes excluded, at the reference
        speed."""
        probed = sum(s for t, s in self.samples if start <= t <= end)
        return (end - start - probed) * self.speed(start, end)
