"""Host speed probe: fixed pieces of pure-Python and numpy work, timed.

The benchmark runs on shared hosts whose CPU speed drifts by a quarter and
more over tens of seconds, which no run length within the benchmark's time
budget averages out.  The runner times this fixed work between smplab calls,
so each cycle of a workload has a measure of how fast the host ran during
it, and reports times scaled to a reference host: a time t measured while
the pieces took p_k is reported as t times the geometric mean over pieces
of REFERENCE_S[k] / p_k.

A neighbour on the host slows interpreted loops, object allocation, small
numpy calls, LAPACK and memory traffic by different amounts, and smplab's
layers mix all of them, so the probe times one piece of each.  On a
2-vCPU VM the geometric mean of the six left a fifth (transfer-mc) to a
half (grid-mc) less of the cycle to cycle drift unexplained than the loop
and the sort alone did.

The probe calls nothing in smplab, so a change to smplab moves the scaled
times exactly as it moves the raw ones.  It runs in the benchmark's own
process, between calls, while no smplab work is in flight; the timed runs
pin workers=1 and one BLAS thread, so there is no other thread of the
program for it to race.  The garbage collector is off while it runs, so its
allocations never start a collection that smplab's heap would lengthen.
"""

from __future__ import annotations

import gc
import math
import statistics
from time import perf_counter

import numpy as np

# Seconds each piece takes on the reference host, a 2-vCPU VM, between the
# calls of a workload.
REFERENCE_S = {
    "loop": 0.00075,
    "alloc": 0.0007,
    "ufunc": 0.00058,
    "qr": 0.00078,
    "sort": 0.00086,
    "sweep": 0.00125,
}


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._vector = rng.random(64)
        self._matrix = rng.random((32, 16))
        self._unsorted = rng.random(1 << 15)
        self._large = rng.random(1 << 19)  # 4 MB, past the per-core caches
        self.time()  # the first call pays for page faults and lazy set-up

    def time(self) -> dict[str, float]:
        """Seconds each piece of the fixed work takes now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return {name: self._timed(getattr(self, "_" + name)) for name in REFERENCE_S}
        finally:
            if enabled:
                gc.enable()

    @staticmethod
    def _timed(piece) -> float:
        start = perf_counter()
        piece()
        return perf_counter() - start

    @staticmethod
    def _loop():
        total = 0
        for i in range(10_000):
            total += i * i % 7

    @staticmethod
    def _alloc():
        table = {}
        for i in range(2_000):
            table[i] = _Pair(i, (i, i + 1))

    def _ufunc(self):
        for _ in range(200):
            (self._vector * 2.0 + 1.0).sum()

    def _qr(self):
        for _ in range(20):
            np.linalg.qr(self._matrix)

    def _sort(self):
        for _ in range(4):
            np.sort(self._unsorted)

    def _sweep(self):
        for _ in range(4):
            self._large.sum()

    @staticmethod
    def scale(probes: list[dict[str, float]]) -> float:
        """Factor that turns times measured while the probe took `probes`
        into times on the reference host.  Each piece's median over the
        probes keeps one that an interrupt or a neighbour's burst hit from
        counting."""
        logs = [math.log(REFERENCE_S[name] / statistics.median(p[name] for p in probes))
                for name in REFERENCE_S]
        return math.exp(statistics.fmean(logs))
