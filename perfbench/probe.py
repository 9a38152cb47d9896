"""Host-speed probe: a fixed reference kernel timed all through a run.

The benchmark's host is a share of a machine whose speed drifts by up to 1.4x
over seconds to minutes as its neighbours' load changes, so two runs of the
same code can differ by more than a regression worth catching. The probe is a
small fixed computation that uses nothing from ``src/``: the same mix of
per-call Python overhead, small float32 array ops and single-threaded GEMMs
that a workload step makes. A run times it in bursts every ``EVERY_S``
seconds and reports its time metrics both as measured and scaled to the
reference host, where the probe takes ``REFERENCE_MS``: each step, pass or
set-up is multiplied by ``REFERENCE_MS`` over the interquartile mean of the
probes taken during it (or of the ``LEAST_PROBES`` nearest in time). The
scaled figures move with the code under test, not with the host's speed.

In an untraced run an interval timer (SIGALRM) starts the bursts, so they
sample the host evenly, in the middle of steps and passes too. A traced run
starts them only between steps, passes and set-ups (``maybe``), so that no
probe lands inside a traced span. Either way the time spent in probes is
kept out of every measured interval: ``clock`` is wall time minus probe time.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

# the probe time that defines the reference host: a round figure in the range the
# probe reads on a 2-vCPU host with OpenBLAS and one BLAS thread (6-10 ms)
REFERENCE_MS = 10.0
# seconds between probe bursts, and probes per burst
EVERY_S = 0.25
BURST = 1
# the fewest probes an interval is scaled by: the nearest ones in time
LEAST_PROBES = 8


class _Entry:
    __slots__ = ("index", "inputs", "rule")

    def __init__(self, index, inputs, rule):
        self.index, self.inputs, self.rule = index, inputs, rule


def interquartile_mean(samples: list) -> float:
    """Mean of the middle half of the samples: continuous in how a run splits
    between a host's fast and slow spells, and blind to its rare stalls."""
    ordered = sorted(samples)
    cut = len(ordered) // 4
    middle = ordered[cut: len(ordered) - cut]
    return sum(middle) / len(middle)


class HostProbe:
    """Times the reference kernel and keeps its time out of ``clock``."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.tokens = rng.standard_normal((64, 9, 64)).astype(np.float32)
        self.w_small = (rng.standard_normal((64, 64)) * 0.1).astype(np.float32)
        self.x_big = rng.standard_normal((256, 384)).astype(np.float32)
        self.w_big = (rng.standard_normal((384, 384)) * 0.05).astype(np.float32)
        self.times_ms: list[float] = []
        self.at: list[float] = []  # clock() when each probe ended
        self.spent_s = 0.0
        self._timed = False
        self._busy = False
        self.run(1)  # the first call pays for allocation and dispatch caches
        self.times_ms.clear()
        self.at.clear()

    # -- the reference kernel ---------------------------------------------------

    def interp(self) -> float:
        """Per-call Python overhead: objects, closures and lists, as a tape makes."""
        tape = []
        for i in range(1500):
            entry = _Entry(i, (i, i + 1), lambda g, i=i: g + i)
            tape.append(entry)
        total = 0.0
        for entry in reversed(tape):
            total = entry.rule(total * 0.5) if entry.inputs[0] % 3 else total
        return total

    def small(self) -> float:
        """Small float32 array ops, as a desk-sized layer makes."""
        x = self.tokens
        total = 0.0
        for _ in range(8):
            h = x @ self.w_small
            h = np.maximum(h, 0.0) + 0.5 * h
            e = np.exp(h - h.max(axis=-1, keepdims=True))
            p = e / e.sum(axis=-1, keepdims=True)
            s = p.swapaxes(0, 1).reshape(9, -1).sum(axis=0)
            g = (p * s.reshape(64, 1, 64)).transpose(0, 2, 1)
            total += float(np.sqrt((g * g).mean() + 1e-6))
        return total

    def gemm(self) -> float:
        """Single-threaded GEMMs of a wide layer's size."""
        y = self.x_big
        for _ in range(2):
            y = np.tanh(y @ self.w_big)
        return float(y[0, 0])

    # -- scheduling ---------------------------------------------------------------

    def run(self, count: int = BURST) -> None:
        burst_start = perf_counter()
        for _ in range(count):
            start = perf_counter()
            self.interp()
            self.small()
            self.gemm()
            self.times_ms.append((perf_counter() - start) * 1e3)
        self._last = perf_counter()
        self.spent_s += self._last - burst_start
        self.at.extend([self._last - self.spent_s] * count)

    def maybe(self, count: int = BURST) -> None:
        """Between steps of a traced run: a burst, if one is due."""
        if not self._timed and perf_counter() - self._last >= EVERY_S:
            self.run(count)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a burst slower than EVERY_S is not re-entered
            self._busy = True
            try:
                self.run()
            finally:
                self._busy = False

    def start_timer(self) -> None:
        self._timed = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop_timer(self) -> None:
        if self._timed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._timed = False

    def clock(self) -> float:
        """Seconds of wall time not spent in probes."""
        if not self._timed:
            return perf_counter() - self.spent_s
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return perf_counter() - self.spent_s
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    # -- the result ---------------------------------------------------------------

    def mean_ms(self) -> float:
        return interquartile_mean(self.times_ms) if self.times_ms else float("nan")

    def to_reference(self, start: float, end: float, elapsed: float = None) -> float:
        """``elapsed`` (by default ``end - start``, in clock seconds) as it would
        read on the reference host: scaled by the probes taken from ``start`` to
        ``end``, or by the ``LEAST_PROBES`` nearest to that window if fewer."""
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        while hi - lo < LEAST_PROBES and (lo > 0 or hi < len(self.at)):
            if hi == len(self.at) or (lo > 0 and start - self.at[lo - 1] <= self.at[hi] - end):
                lo -= 1
            else:
                hi += 1
        mean = interquartile_mean(self.times_ms[lo:hi]) if hi > lo else REFERENCE_MS
        return (end - start if elapsed is None else elapsed) * REFERENCE_MS / mean
