"""The host's speed while a pass runs, measured by a fixed reference kernel.

On a shared host the CPU time of one computation swings by up to 2x within
seconds, as neighbours load the machine.  While a timed pass runs, an
interval timer interrupts the process every ``SAMPLE_EVERY_S`` and runs
the kernel, which gives the host's speed at that moment.  The timer counts
wall time: a process-wide CPU timer (``ITIMER_PROF``) would make Linux
update the process's CPU clock only once per scheduler tick.  The pass's
CPU time, less the time spent in the kernel, times the mean speed is its
time at the reference speed.  The kernel imports numpy only, so a
change to lcwcheck cannot move it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

clock = time.process_time

# CPU seconds that ``reference_work`` takes at the reference speed: its
# typical time on the 2-vCPU host the bounds were set on, at times when no
# neighbour slowed that host down.
REFERENCE_S = 0.0035
SAMPLE_EVERY_S = 0.05

_REF_RNG = np.random.default_rng(20150908)
_REF_VECTORS = [_REF_RNG.standard_normal(k) for k in (4, 10, 20)]
_REF_TENSOR = _REF_RNG.standard_normal((4, 4, 4, 4))
_REF_MATRIX = _REF_RNG.standard_normal((6, 6)) + _REF_RNG.standard_normal((6, 6)).T


def reference_work() -> float:
    """CPU seconds of a fixed kernel that does not use lcwcheck.

    It mixes what lcwcheck spends its time on (Python-level arithmetic on
    small numpy arrays, ``einsum``, a small symmetric eigensolve), so it
    slows down with the program when the host does.
    """
    a, b, c = _REF_VECTORS
    start = clock()
    for i in range(640):
        x = a * 0.5 + a * a
        y = b * x[0] - b * 0.25
        (c + c * y[1]) * 0.5
        if i % 20 == 0:
            np.einsum("abcd,cd->ab", _REF_TENSOR, _REF_TENSOR[0, 0])
            np.linalg.eigvalsh(_REF_MATRIX)
    return clock() - start


class HostSpeed:
    """Samples the host's speed while the ``with`` block runs.

    Entering takes one sample at once and yields the list of speeds (the
    reference speed is 1), which grows by one every ``SAMPLE_EVERY_S``.
    ``spent`` accumulates the CPU time of all samples, so a caller can take
    it out of what it measures.
    """

    def __init__(self):
        self.speeds: list[float] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        start = clock()
        self.speeds.append(REFERENCE_S / reference_work())
        self.spent += clock() - start

    def __enter__(self) -> list[float]:
        self.speeds = []
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self.speeds

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
