"""Reference measurements that pair every timed op with the host's speed.

On a shared host the same op can run 1.5-2x slower for seconds at a time,
and CPU time slows with wall time, so neither finer timers nor CPU clocks
remove it. The benchmark therefore takes a reference reading next to the
ops and rescales each op time by nominal / (mean of the readings taken
just before and just after it): an op timed while the reference ran at its
nominal time keeps its raw time. The reference is fixed benchmark code, so
a change to risim moves the op times and never the readings.

The slow-down differs between kinds of work, so each workload pairs with
the reference closest to its own work:
- `calls`: many small NumPy calls and interpreted Python (`sweep`, `coverage`)
- `bulk`: one large complex-exponential reduction and float formatting (`cuts`)
- `spawn`: starting `python -I -S -c pass`, which loads neither
  site-packages nor risim (`cli` calls and every set-up probe)
"""

from __future__ import annotations

import bisect
import subprocess
import sys
import time

import numpy as np

# nominal readings, in seconds: the median reading of the fastest run of
# each reference seen on the 2-core x86-64 reference host (Python 3.11,
# NumPy 2.4). They only set the scale: times at that speed stay unscaled.
NOMINAL_S = {"calls": 0.0015, "bulk": 0.0076, "spawn": 0.0115}

_XS = np.arange(16) * 0.016
_YS = np.arange(10) * 0.016
_SIN_THETA = np.sin(np.radians(np.linspace(-90.0, 90.0, 721)))
_W = np.arange(160) * 0.0016


def calls_kernel() -> float:
    """Many small NumPy calls on 16x10 grids plus interpreted Python, like
    one link-budget evaluation repeated."""
    acc = 0.0
    for i in range(40):
        X, Y = np.meshgrid(_XS, _YS, indexing="ij")
        r = np.sqrt((X - 0.003 * i) ** 2 + (Y - 0.05) ** 2 + 0.09)
        acc += float(abs((np.sqrt(0.3 / r) / r * np.exp(1j * 115.0 * r)).sum()))
    table = {}
    for i in range(1000):
        table[i % 37] = table.get(i % 37, 0.0) + i * 0.5
    return acc + sum(table.values())


def bulk_kernel() -> int:
    """One 721 x 160 complex-exponential row sum and 721 formatted rows,
    like one pattern cut and its CSV."""
    field = (np.exp(1j * 115.0 * _SIN_THETA[:, None] * _W[None, :]) * np.exp(-3j * _W)).sum(axis=1)
    rows = [f"{t:.4f},{abs(f):.6f},{f.real:.9e},{f.imag:.9e}" for t, f in zip(_SIN_THETA, field)]
    return len("\n".join(rows))


def kernel_reading(kernel) -> float:
    """Wall time in seconds of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def spawn_reading() -> float:
    """Wall time in seconds to start and reap a bare interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
    return time.perf_counter() - start


class Pairing:
    """Readings taken between ops; `scale` maps raw op times to reference speed.

    A reading is taken before an op once the time since the last one is at
    least GAP times that reading's own duration, so readings cost about a
    tenth of a run whatever the op and reference sizes: every CLI call, and
    every few milliseconds between short in-process ops.
    """

    GAP = 9

    def __init__(self, reference: str) -> None:
        kernels = {"calls": calls_kernel, "bulk": bulk_kernel}
        if reference == "spawn":
            self.read = spawn_reading
        else:
            self.read = lambda: kernel_reading(kernels[reference])
        self.reference = reference
        self.nominal = NOMINAL_S[reference]
        self.at: list[int] = []  # a reading was taken before op at[i]
        self.values: list[float] = []
        self._end = -float("inf")

    def maybe_read(self, op_index: int, force: bool = False) -> None:
        if force or time.perf_counter() - self._end >= self.GAP * (self.values or [0.0])[-1]:
            self.at.append(op_index)
            self.values.append(self.read())
            self._end = time.perf_counter()

    def scale(self, durations) -> list:
        """Each duration times nominal / mean(reading before, reading after)."""
        out = []
        for k, d in enumerate(durations):
            j = bisect.bisect_right(self.at, k) - 1
            after = self.values[min(j + 1, len(self.values) - 1)]
            out.append(d * self.nominal / ((self.values[j] + after) / 2))
        return out
