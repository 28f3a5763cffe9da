"""Machine-speed probe for one pass process.

On a virtual machine that shares its host with other tenants, the speed one
virtual core gives a process can swing by a third or more within seconds and
drift over minutes, in CPU time as much as in wall time.  Where the cores do
not swing together (measured on a 2-vCPU Xeon guest: no correlation between
the two), the swing cannot be measured from another process: it has to be
sampled in the process that runs the pass, while it runs.

``SpeedProbe`` does that with an interval timer.  Every ``INTERVAL_S`` of
wall time a SIGALRM handler runs ``kernel``, a fixed piece of work written
here (it calls no stratopt code, so no change to the program moves it), and
records how long it took.  The handler's own time is kept apart, so it can
be taken out of any window the pass times.

``speed(t0, t1)`` is the mean over the samples taken in ``[t0, t1)`` of
``REFERENCE_S`` over the sample's kernel time: 1.0 at the reference speed,
below 1 when the core is slower.  A time multiplied by it is the time the
same work would have taken at the reference speed: the work done in a window
is the integral of the speed over it, which the mean of evenly spaced samples
estimates.  (On per-item windows of ``figures`` and ``varieties`` this cut the
spread a little more than scaling by the mean kernel time, and clearly more
than by the median.)
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.01
# a round value near the kernel's time on a 2.0 GHz Xeon vCPU with
# Python 3.11 and numpy 2.4 (95-130 us); it only sets the scale of the
# reported times
REFERENCE_S = 1.0e-4

_DATA = np.linspace(0.0, 1.0, 64)


def kernel() -> float:
    """Small numpy calls from an interpreted loop, as in an optimizer step.

    Of the kernels tried (a pure-Python loop, this one, a 4096-element
    transcendental, a 2 MiB streaming multiply, and their sums), this one's
    time tracked the time of ``sweep`` and ``varieties`` items best: scaled by
    it, the spread of per-item times fell three- to fivefold, where the
    streaming multiply cut it by less than half."""
    acc = 0.0
    v = _DATA
    for _ in range(20):
        v = np.sin(v) * 0.5 + 0.25
        acc += float(v[0])
    return acc


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self.handler_s: list[tuple[float, float]] = []  # (start, handler seconds)

    def _tick(self, signum, frame):
        enter = time.perf_counter()
        kernel()
        done = time.perf_counter()
        self.samples.append((enter, done - enter))
        self.handler_s.append((enter, time.perf_counter() - enter))

    def start(self):
        kernel()  # warm: first-call costs stay out of the samples
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def overhead(self, t0: float, t1: float) -> float:
        """Seconds the handler took inside ``[t0, t1)``."""
        return sum(d for t, d in self.handler_s if t0 <= t < t1)

    def speed(self, t0: float, t1: float) -> tuple[float, int]:
        """(speed relative to the reference, samples used) over ``[t0, t1)``."""
        inside = [REFERENCE_S / d for t, d in self.samples if t0 <= t < t1]
        if not inside:
            return float("nan"), 0
        return sum(inside) / len(inside), len(inside)
