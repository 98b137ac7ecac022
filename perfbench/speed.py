"""How fast the host runs Python while ops run, and op times scaled to a fixed speed.

The benchmark runs on a few CPUs of a shared host.  Other tenants slow
every process down, by up to two thirds, in spells that last from a second
to minutes, and the slowdown shows in CPU time as much as in wall time, so
neither is steady by itself.  The benchmark therefore samples the host's
speed while it times ops: a wall-clock timer (SIGALRM, every ``TICK_S``)
interrupts the running op between two bytecodes and times a fixed piece
of exact rational elimination, written here and independent of the
program.  The op's wall time, less the time spent in these samples, is
then scaled by how much slower the samples ran than ``NOMINAL_S``:

    scaled = (wall - sampling) * NOMINAL_S / typical(samples)

with the samples taken during the op itself if there are at least
``MIN_OWN_SAMPLES`` of them, otherwise those taken during its whole pass.
Because the samples are evenly spaced in time, their (trimmed) mean
weighs every moment of the op equally, including spells that begin or
end in the middle of it.  A scaled time is the op's wall time at the host
speed at which a sample takes ``NOMINAL_S``, about its time on an idle CPU
of the host the bounds were set on (2 vCPUs, Python 3.11).  A change to
the program moves the op's wall time and not the samples, so it moves the
scaled time by the same share.
"""

from __future__ import annotations

import random
import signal
from fractions import Fraction
from time import perf_counter

# One sample: Gaussian elimination of a fixed rational matrix over
# fractions.Fraction, the same kind of exact arithmetic the program's
# linear algebra does.  Of the references tried on the host the bounds
# were set on (integer-only elimination, dict and string work, this one),
# this one tracked the slowdown of the program's own ops most closely.
_rng = random.Random("perfbench reference")
_MATRIX = [[Fraction(_rng.randint(-99, 99), _rng.randint(1, 9)) for _ in range(5)] for _ in range(5)]
TICK_S = 0.01
NOMINAL_S = 0.0002
MIN_OWN_SAMPLES = 10
TRIM = 0.1  # share of samples dropped at each end before averaging


def _determinant(matrix: list[list[Fraction]]) -> Fraction:
    rows = [row[:] for row in matrix]
    det = Fraction(1)
    for k in range(len(rows)):
        piv = rows[k][k]  # nonzero for this fixed matrix
        det *= piv
        for i in range(k + 1, len(rows)):
            f = rows[i][k] / piv
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return det


REFERENCE_DET = _determinant(_MATRIX)


def sample_seconds() -> float:
    """Wall time of one sample at the host's current speed."""
    t0 = perf_counter()
    if _determinant(_MATRIX) != REFERENCE_DET:
        raise AssertionError("reference elimination gave a different result")
    return perf_counter() - t0


def typical(samples: list[float]) -> float:
    """Mean of the samples without the top and bottom ``TRIM`` of them."""
    s = sorted(samples)
    k = int(len(s) * TRIM)
    s = s[k:len(s) - k]
    return sum(s) / len(s)


class HostSpeed:
    """Samples the host's speed every ``TICK_S`` of wall time while active.

    ``mark()`` before an op and ``measure(mark)`` after it give the op's
    samples and the wall time they took.  With ``tick=0`` it takes no
    samples while active.  A pass that ends with no sample takes one on
    exit, so ``samples`` is never empty afterwards."""

    def __init__(self, tick: float = TICK_S):
        self.tick = tick
        self.samples: list[float] = []
        self.spent = 0.0

    def __enter__(self) -> HostSpeed:
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick, self.tick)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        if not self.samples:
            self.samples.append(sample_seconds())

    def _tick(self, signum, frame) -> None:
        t = sample_seconds()
        self.samples.append(t)
        self.spent += t

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def measure(self, mark: tuple[int, float]) -> tuple[list[float], float]:
        """Samples taken since ``mark`` and the wall time they took."""
        return self.samples[mark[0]:], self.spent - mark[1]


def scaled(seconds: float, own: list[float], pass_samples: list[float]) -> float:
    """``seconds`` of wall time (without sampling) at the speed where a
    sample takes ``NOMINAL_S``, judged by the op's own samples if there are
    enough of them, else by those of its pass."""
    samples = own if len(own) >= MIN_OWN_SAMPLES else pass_samples
    return seconds * NOMINAL_S / typical(samples)
