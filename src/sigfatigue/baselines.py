"""Reference change point detectors for benchmarking.

Deliberately simple, deterministic implementations of the classical
techniques the signature detector is compared against.  Each reads the
series' analysis metric as one array and returns the list of dates it
flags.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .detector import ols_slope_test
from .errors import DegenerateInputError, InsufficientDataError, check_number
from .windowing import TimeSeries

__all__ = ["ma_crossover", "cusum", "rolling_regression"]

BURN_IN = 14  # observations that calibrate cusum's standardization


def ma_crossover(series: TimeSeries, short_window: int = 7, long_window: int = 28) -> list:
    """Dates where the short moving average crosses below the long one.

    Decline-oriented: a flag fires on each day the short average moves
    from at-or-above the long average to strictly below it.  Averages
    are trailing and counted in observations.
    """
    check_number("long_window", long_window, 2, math.inf, integer=True)
    check_number("short_window", short_window, 1, long_window, integer=True, open_hi=True)
    n = len(series)
    if n < long_window + 1:
        raise InsufficientDataError(
            f"series has {n} observations, need at least {long_window + 1}"
        )
    values = series.metric_values()
    # trailing means at observations long_window - 1 .. n - 1; fsum keeps
    # equal-valued windows exactly equal, so flat stretches do not produce
    # spurious crossings from accumulated rounding
    means = []
    for width in (short_window, long_window):
        rows = sliding_window_view(values[long_window - width :], width).tolist()
        means.append(np.array([math.fsum(row) for row in rows]) / width)
    above = means[0] >= means[1]
    return series.dates[np.flatnonzero(above[:-1] & ~above[1:]) + long_window].tolist()


def cusum(series: TimeSeries, reference_k: float = 0.5, decision_h: float = 5.0) -> list:
    """Two-sided standardized CUSUM with burn-in calibration.

    Observations are standardized by the mean and population standard
    deviation of the first ``BURN_IN`` points; the usual one-sided
    recursions accumulate standardized drift beyond ``reference_k`` and
    flag (then reset) when either side exceeds ``decision_h``.
    """
    check_number("decision_h", decision_h, 0, math.inf, open_lo=True)
    check_number("reference_k", reference_k, 0, math.inf)
    n = len(series)
    if n < 10:
        raise InsufficientDataError(f"series has {n} observations, need at least 10")
    values = series.metric_values()
    if np.all(values == values[0]):
        return []  # nothing ever deviates; no change points by definition
    burn = values[:BURN_IN]
    with np.errstate(all="ignore"):
        z = (values - burn.mean()) / burn.std()
    # equal values can have a mean that rounds, and so a tiny nonzero std
    if np.all(burn == burn[0]) or not np.isfinite(z).all():
        raise DegenerateInputError("burn-in variance is zero or underflows; cannot standardize")
    flags = []
    s_hi = s_lo = 0.0
    for i, zi in enumerate(z.tolist()):
        s_hi = max(0.0, s_hi + zi - reference_k)
        s_lo = max(0.0, s_lo - zi - reference_k)
        if s_hi > decision_h or s_lo > decision_h:
            flags.append(i)
            s_hi = s_lo = 0.0
    return series.dates[flags].tolist()


def rolling_regression(series: TimeSeries, window: int = 7, alpha: float = 0.05) -> list:
    """Dates where a trailing-window slope first turns significantly negative.

    Ordinary least squares of the metric on day offsets over each
    trailing window of ``window`` observations; a flag fires on the day
    a window's slope becomes significantly negative (p < alpha) after a
    window that was not.
    """
    check_number("window", window, 3, math.inf, integer=True)
    check_number("alpha", alpha, 0, 1, open_lo=True, open_hi=True)
    if len(series) < window:
        return []
    slope, p = ols_slope_test(
        sliding_window_view(series.day_offsets(), window),
        sliding_window_view(series.metric_values(), window),
    )
    significant = (p < alpha) & (slope < 0)
    # window i ends at observation i + window - 1 and flags if window i - 1 did not
    turns = significant & ~np.concatenate(([False], significant[:-1]))
    return series.dates[np.flatnonzero(turns) + window - 1].tolist()
