"""The machine-speed probe that ``wall_adj_s`` and ``setup_s`` are scaled by.

A probe unit is a fixed piece of work of the kind a debondwave pass does
(Python-level loops; numpy stencils, products and solves on arrays of the
solvers' sizes) that uses nothing from debondwave, so a change to the program
cannot move it.  On a shared host the same code runs up to twice as slow
for seconds to minutes at a time.  Probe slices taken at a fixed cadence
during the passes see the same slowdown, and the pass time divided by the
probe's time per unit does not.
"""

import signal
import time

import numpy as np

_X = np.linspace(0.0, 1.0, 801)
_A = np.eye(64) * 4.0 + np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64) / 64.0


def unit():
    """One probe unit, about 2.5 ms on a 2.1 GHz Xeon core: about half of
    it interpreter work, half numpy on arrays of the solvers' sizes."""
    counts = {}
    acc = 0.0
    for i in range(6000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        acc += (i * 0.5) ** 0.5
    x = _X.copy()
    for _ in range(25):
        lap = np.zeros_like(x)
        lap[1:-1] = x[2:] - 2.0 * x[1:-1] + x[:-2]
        x = x + 1e-3 * lap
        acc += float(np.linalg.solve(_A, _A @ x[:64])[0])
    return acc + sum(counts.values())


def window(seconds):
    """(elapsed seconds, units) of whole units run for at least ``seconds``."""
    units = 0
    t0 = time.perf_counter()
    while units == 0 or time.perf_counter() - t0 < seconds:
        unit()
        units += 1
    return time.perf_counter() - t0, units


class Sampler:
    """Probe slices taken while armed: a SIGALRM timer makes the main thread
    run a window of ``slice_s`` every ``gap_s`` seconds of wall time.

    The handler runs between two bytecodes of whatever the thread is doing,
    so slices land inside passes; ``spent`` adds up their seconds so that a
    caller can take them out of the time it measures.
    """

    def __init__(self, gap_s, slice_s):
        self.gap_s = gap_s
        self.slice_s = slice_s
        self.slices = []  # (elapsed seconds, units) of each slice
        self.spent = 0.0
        self.armed = False
        signal.signal(signal.SIGALRM, self._slice)

    def __enter__(self):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.gap_s)
        return self

    def __exit__(self, *exc):
        self.armed = False  # a signal already on its way is then ignored
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _slice(self, signum, frame):
        if not self.armed:
            return
        elapsed, units = window(self.slice_s)
        self.slices.append((elapsed, units))
        self.spent += elapsed
        signal.setitimer(signal.ITIMER_REAL, self.gap_s)
