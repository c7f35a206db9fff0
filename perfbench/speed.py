"""Speed-normalized timing for a shared machine.

On a 2-core VM that shares its host with other tenants, the speed of a
single-threaded Python process swung by up to 1.8x within seconds (CPU time
swung with wall time, so it was slower execution, not time stolen from the
process), and raw pass times spread by 20-45% from run to run, which no
number of passes removed.

While a pass runs, a SIGALRM handler times a fixed reference loop in the main
thread every INTERVAL_S seconds. The loop mixes Python calls with small numpy
calls in about the shares cartanlab spends on each, so it slows down as the
program does. A measured time is reported net of the handler's own time and
rescaled by NOMINAL_CHUNK_S / (mean loop time during the pass): seconds at
the loop's nominal speed. The loop is the benchmark's own code, so a change
to cartanlab cannot move it.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.02
NOMINAL_CHUNK_S = 0.75e-3  # the loop's usual time on a 2-core Xeon VM

_M = np.eye(5) * 4.0 + 0.25
_V = np.linspace(-1.0, 1.0, 5)


def _affine(a, b):
    return a * b + 1.0


def reference_chunk() -> float:
    """Seconds of one fixed reference loop (about NOMINAL_CHUNK_S)."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(1300):
        acc += _affine(i * 0.5, acc * 1e-9)
        table[i & 63] = acc
        acc += table.get(i & 31, 0.0) * 1e-12
    for i in range(35):
        x = np.linalg.solve(_M, _V + i * 1e-3)
        acc += float(np.max(np.abs(np.asarray(x, dtype=float) * 0.5 - _V)))
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager that samples reference_chunk() while it is open.

    `spent` is the wall time taken by the handler so far; clock() is
    perf_counter() without it, for timing the sampled work."""

    def __init__(self):
        self.chunks = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.chunks.append(reference_chunk())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def factor(self, first=0) -> float:
        """Factor turning seconds measured while chunks[first:] were sampled
        into seconds at nominal speed."""
        return scale(self.chunks[first:])


def scale(chunks) -> float:
    """NOMINAL_CHUNK_S over the mean of the sampled loop times; with no
    sample, the loop is timed a few times now."""
    if not chunks:
        chunks = [reference_chunk() for _ in range(5)]
    return NOMINAL_CHUNK_S / (sum(chunks) / len(chunks))
