"""Host-speed calibration, so host timings compare across runs.

A shared virtual machine changes speed by tens of percent over tens of
seconds, as neighbours come and go on the caches and cores it shares,
and a run's median cannot average that out.  Before every repetition
the benchmark times four fixed kernels that call nothing in the
program — a one-thread GEMM, interpreter lookups in a dict too large for
the core's own caches, a random gather over a 64 MB array, and starting
and joining 128 threads (as every repetition starts a world) — and
divides the repetition's host times by the host's *slowness*: the
geometric mean of the kernels' times over their times on the reference
host.  Timings so scaled are reference-host seconds: a change to the
program moves them, a change in the host's speed mostly does not.  The
kernels were chosen by how well they cancel the spread between separate
runs of the workloads; a small-working-set interpreter loop, a
two-thread handoff and first-touch page faults cancelled it less well.
"""

from __future__ import annotations

import gc
import threading
import time

import numpy as np

#: Median kernel times on the reference host (2-vCPU x86_64 VM, one BLAS
#: thread, process bound to one CPU; Python 3.11.7, numpy 2.4.6).
REFERENCE_S = {"gemm": 0.0241, "dict": 0.115, "gather": 0.1021, "spawn": 0.0085}


class Calibrator:
    """Holds the kernels' fixed operands (about 100 MB) and times them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._square = rng.standard_normal((384, 384))
        keys = [int(k) for k in rng.integers(0, 1 << 40, 1 << 18)]
        self._table = {k: i for i, k in enumerate(keys)}
        self._lookups = [keys[i] for i in rng.integers(0, len(keys), 200_000)]
        self._array = rng.standard_normal(1 << 23)
        self._index = rng.integers(0, 1 << 23, 1 << 21)
        self.kernels = {"gemm": self._gemm, "dict": self._dict,
                        "gather": self._gather, "spawn": self._spawn}

    def _gemm(self) -> None:
        for _ in range(10):
            self._square @ self._square

    def _dict(self) -> None:
        table = self._table
        total = 0
        for k in self._lookups:
            total += table[k]

    def _gather(self) -> None:
        for _ in range(3):
            self._array[self._index].sum()

    @staticmethod
    def _spawn() -> None:
        threads = [threading.Thread(target=int) for _ in range(128)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

    def kernel_times(self) -> dict[str, float]:
        """Seconds each kernel takes now (collector off, so the program's
        live heap does not change them)."""
        times = {}
        gc.disable()
        try:
            for name, kernel in self.kernels.items():
                t0 = time.perf_counter()
                kernel()
                times[name] = time.perf_counter() - t0
        finally:
            gc.enable()
        return times

    def slowness(self) -> float:
        """How much slower this host is now than the reference host."""
        times = self.kernel_times()
        ratios = [times[k] / REFERENCE_S[k] for k in self.kernels]
        return float(np.prod(ratios) ** (1.0 / len(ratios)))
