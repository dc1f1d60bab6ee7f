"""Host calibration: the CPU time of a fixed loop, recorded in each run's meta.

The loop is pure Python plus numpy and lives in this file, so it is the
same for every version of the program.  A run executes it before the
programs start and records the median of :data:`REPEATS` samples; a
slow host shows up as a slow loop.  The metrics are not scaled by it.
"""

import statistics
import time

import numpy as np

REPEATS = 25


def sample():
    """``(python_s, numpy_s)``: thread CPU seconds of the fixed loops."""
    started = time.thread_time()
    total = 0
    for value in range(15_000):
        total += value * value % 7
    python_s = time.thread_time() - started

    started = time.thread_time()
    vector = np.linspace(0.0, 1.0, 4_000)
    for _ in range(20):
        vector = np.tanh(vector * 1.5 + 0.1) * vector.mean()
    return python_s, time.thread_time() - started


def calibrate(repeats=REPEATS):
    """Median milliseconds of the Python and the numpy loop."""
    samples = [sample() for _ in range(repeats)]
    return {
        "python_ms": 1000.0 * statistics.median(s[0] for s in samples),
        "numpy_ms": 1000.0 * statistics.median(s[1] for s in samples),
        "repeats": repeats,
    }
