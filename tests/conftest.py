import datetime as dt

import numpy as np
import pytest

from sigfatigue.synth import generate_batch
from sigfatigue.windowing import TimeSeries

START = dt.date(2024, 1, 1)


def daily_dates(n, start=START):
    """``n`` consecutive days from ``start``."""
    return [start + dt.timedelta(days=i) for i in range(n)]


def series_from_ctr(ctrs, impressions=50_000, start=START, cost_per_click=None, dates=None):
    """Series with clicks chosen to hit the requested rates exactly.

    ``dates`` (default: consecutive days from ``start``) allows gaps.
    """
    ctrs = np.asarray(ctrs, dtype=float)
    clicks = np.array([int(round(impressions * ctr)) for ctr in ctrs], dtype=np.int64)
    return TimeSeries(
        dates=daily_dates(len(ctrs), start) if dates is None else dates,
        impressions=np.full(len(ctrs), impressions),
        clicks=clicks,
        cost=None if cost_per_click is None else cost_per_click * clicks,
    )


def sharp_drop_ctrs(total=120, drop_day=61, high=0.02, low=0.008):
    return [high if day < drop_day else low for day in range(1, total + 1)]


@pytest.fixture(scope="session")
def sharp_series():
    return series_from_ctr(sharp_drop_ctrs())


@pytest.fixture(scope="session")
def constant_series():
    return series_from_ctr([0.02] * 120)


@pytest.fixture(scope="session")
def sharp_corpus():
    """Default-noise sharp-decline corpus, fixed duration and seed."""
    return generate_batch(
        "sharp_drop", 50, master_seed=101, overrides={"duration_days": 120}
    )


@pytest.fixture(scope="session")
def gradual_corpus():
    """Default-noise gradual-decline corpus, fixed duration and seed."""
    return generate_batch(
        "gradual_linear_decay", 50, master_seed=303, overrides={"duration_days": 120}
    )


@pytest.fixture(scope="session")
def lownoise_sharp_corpus():
    return generate_batch(
        "sharp_drop",
        50,
        master_seed=202,
        overrides={"duration_days": 120, "noise_cv": 0.05},
    )


def assert_tensorseq_close(a, b, atol=1e-12):
    from oracle_utils import flatten

    assert a.dim == b.dim and a.depth == b.depth
    np.testing.assert_allclose(flatten(a), flatten(b), rtol=0, atol=atol)
