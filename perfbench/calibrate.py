"""Fixed reference work that measures how fast the machine runs right now.

On a shared host the speed of one core changes by tens of percent with
the load that other tenants put on the other cores, in phases that last
from under a second to a few seconds.  While operations are timed,
SpeedProbe runs one round of this work every PROBE_EVERY_S from a timer
signal, so the speed is sampled during each operation, not only between
operations.  Each operation's time, less the probe's, is scaled by
REF_S / (mean round time around it): time on a reference machine on which
one round takes REF_S.

The work mixes the kinds that pdp spends its time on: interpreted scalar
loops (Sturm counts, Wronskian march), float formatting (CSV artifacts),
NumPy arithmetic on grid-sized arrays, and LAPACK banded solves.  It uses no pdp code, so a
change to pdp moves the scaled times and leaves the reference alone.
"""
import signal
import time

import numpy as np
from scipy.linalg import solve_banded

# wall time of one round of _work on the reference machine: a shared 2-vCPU
# x86-64 VM (Python 3.11.7, NumPy 2.4.6, SciPy 1.17.1, one OpenBLAS thread)
REF_S = 0.010
PROBE_EVERY_S = 0.25
# an operation shorter than this is scaled by the rounds of the window of
# this length centred on it
WINDOW_S = 1.0

_N = 3001


def _work() -> float:
    q, count = 1.0, 0
    for i in range(12000):  # scalar recurrence, as in a Sturm sequence
        q = (2.0 + 1e-4 * (i % 7)) - 1.0 / q
        count += q < 0.0
    x = np.linspace(-60.0, 60.0, _N)
    # float formatting, as in the CSV artifacts
    text = ",".join(format(v, ".17g") for v in (x * 1.000001).tolist())
    ab = np.empty((3, _N), dtype=np.complex128)
    ab[0] = ab[2] = -0.25j
    phi = np.exp(-(x * x)).astype(np.complex128)
    for _ in range(25):  # Crank-Nicolson-like step: vector ops plus a banded solve
        ab[1] = 1.0 + 0.5j * (2.0 + np.cos(x) * 0.1)
        rhs = phi - 0.25j * (np.roll(phi, 1) + np.roll(phi, -1))
        phi = solve_banded((1, 1), ab, rhs)
    return float(count) + len(text) + float(np.abs(phi).sum())


def calibrate(rounds: int = 5) -> float:
    """Mean wall time of `rounds` runs of the reference work."""
    t0 = time.perf_counter()
    for _ in range(rounds):
        _work()
    return (time.perf_counter() - t0) / rounds


class SpeedProbe:
    """Samples the machine's speed while timed operations run.

    Use as a context manager; it owns SIGALRM while active.  ``clock()``
    is perf_counter minus the time spent in the probe, so operations timed
    with it exclude the probe.  ``samples`` holds (clock() at the round,
    round wall time).
    """

    def __init__(self, every_s: float = PROBE_EVERY_S):
        self.every_s = every_s
        self.stolen = 0.0
        self.samples: list[tuple[float, float]] = []
        self._old = None

    def clock(self) -> float:
        return time.perf_counter() - self.stolen

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _work()
        dt = time.perf_counter() - t0
        self.samples.append((t0 - self.stolen, dt))
        self.stolen += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def round_time(self, start: float, end: float) -> float:
        """Mean round time over [start, end] (clock() units), widened to
        WINDOW_S; the nearest round when none falls inside."""
        pad = max(0.0, 0.5 * (WINDOW_S - (end - start)))
        inside = [dt for t, dt in self.samples if start - pad <= t <= end + pad]
        if inside:
            return sum(inside) / len(inside)
        mid = 0.5 * (start + end)
        return min(self.samples, key=lambda s: abs(s[0] - mid))[1]
