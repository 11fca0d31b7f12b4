"""Machine-speed calibration.

This 2-core virtual machine changes speed by 10-20% over seconds to
minutes, and by half over a day, and CPU time follows wall time, so the
slowdowns are real.  A run therefore also times, every so often, a fixed
reference task that never touches modxl.  It reports times in *reference
seconds*: measured times scaled by ``REFERENCE_S / (median reference task
time of the run)``.  The raw times are printed beside the scaled ones.

Two reference tasks follow two kinds of work:

* ``startup``: a fresh interpreter that imports numpy, for ``setup_s`` and
  the ``cli`` workload, whose commands are mostly interpreter start and
  imports;
* ``compute``: a pure-Python loop and a few numpy passes, in the workload's
  own process, for ``grid`` and ``large_array``.

``verify`` is not scaled.  The README ("Why reference seconds, and where")
gives the checks behind these choices.  ``REFERENCE_S`` holds typical
timings of each task on the reference machine.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

REFERENCE_S = {"compute": 0.015, "startup": 0.145}


class ComputeTask:
    """A pure-Python loop and numpy passes over buffers allocated once, so
    the timing does not depend on the allocator state a workload leaves
    (fresh large temporaries would cost page faults in one process and not
    in another)."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._values = np.arange(100_000, dtype=float)
        self._buffer = np.empty_like(self._values)

    def __call__(self) -> float:
        np, values, buffer = self._np, self._values, self._buffer
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(10):
            np.multiply(values, values, out=buffer)
            buffer += 1.0
            np.sqrt(buffer, out=buffer)
            float(buffer.sum())
        return time.perf_counter() - start


class StartupTask:
    "A fresh interpreter that imports numpy."

    def __call__(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)
        return time.perf_counter() - start


#: Reference task classes by kind; a workload process makes one instance.
TASKS = {"compute": ComputeTask, "startup": StartupTask}


def scale(kind, marks) -> float:
    "Reference seconds per measured second; 1 for a run with no reference timings."
    return REFERENCE_S[kind] / statistics.median(marks) if marks else 1.0
