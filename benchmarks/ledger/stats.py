"""Summary statistics of the ledger: percentiles and quartiles."""

import math
import statistics

#: A percentile is only reported when at least this many samples lie
#: beyond it (p50 needs 20 samples, p90 needs 100).
MIN_BEYOND = 10

#: Half-width, in quantile units, of the order-statistic window a
#: percentile averages over.
WINDOW = 0.05


def samples_beyond(count, q):
    """How many of ``count`` sorted samples rank above the ``q`` quantile."""
    return count - math.ceil(q * count)


def percentile(values, q, window=WINDOW):
    """Smoothed ``q`` quantile of ``values``, or ``None`` when too few.

    The estimate is the mean of the order statistics ranked within
    ``q ± window``.  Client latencies sit on the 50 ms status-poll grid,
    so a plain order statistic jumps a whole poll step when a little mass
    moves between two grid points; the window average moves smoothly.
    ``None`` unless at least :data:`MIN_BEYOND` samples lie beyond ``q``.
    """
    count = len(values)
    if count == 0 or samples_beyond(count, q) < MIN_BEYOND:
        return None
    ordered = sorted(values)
    # Rounded first so that 0.55 * 100 counts as 55, not 55.000...01.
    lo = max(0, math.floor(round((q - window) * count, 9)))
    hi = min(count, max(lo + 1, math.ceil(round((q + window) * count, 9))))
    return sum(ordered[lo:hi]) / (hi - lo)


def grouped_percentile(values, q, size):
    """Median of the ``q`` percentiles of consecutive groups of ``values``.

    Groups hold ``size`` values each; a shorter remainder joins the last
    group.  ``None`` when no group has enough samples for a percentile.
    """
    count = max(1, len(values) // size)
    bounds = [index * size for index in range(count)] + [len(values)]
    estimates = [percentile(values[lo:hi], q) for lo, hi in zip(bounds, bounds[1:])]
    estimates = [value for value in estimates if value is not None]
    return statistics.median(estimates) if estimates else None


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)
