"""Property tests on random portfolios (hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
stats = pytest.importorskip("scipy.stats")

from hypothesis import given, settings, strategies as st  # noqa: E402

from pdcalib.benchmarks import PTConfig, pluto_tasche  # noqa: E402
from pdcalib.cohorts import CohortSnapshot, GradeCount  # noqa: E402


@st.composite
def portfolios(draw):
    """2-20 grades of 0-1e6 obligors each, with 0..N defaults."""
    rows = []
    for order in range(1, draw(st.integers(2, 20)) + 1):
        n = draw(st.integers(0, 1_000_000))
        d = draw(st.integers(0, n))
        rows.append(GradeCount(order, f"g{order}", n, d))
    return CohortSnapshot("t", tuple(rows))


@settings(max_examples=60, deadline=None)
@given(portfolios(), st.floats(0.5, 0.99, exclude_min=True))
def test_pluto_tasche_on_random_portfolios(snapshot, confidence):
    raw = pluto_tasche(snapshot, PTConfig(confidence=confidence, enforce_monotone=False))
    floored = pluto_tasche(snapshot, PTConfig(confidence=confidence))
    assert all(a <= b for a, b in zip(floored, floored[1:]))
    assert floored == list(np.maximum.accumulate(raw))
    n = np.cumsum([g.performing_start for g in snapshot.grades[::-1]])[::-1]
    d = np.cumsum([g.defaults_end for g in snapshot.grades[::-1]])[::-1]
    for bound, pooled_n, pooled_d in zip(raw, n, d):
        if pooled_n == 0 or pooled_d == pooled_n:
            assert bound == 1.0
            continue
        assert bound >= pooled_d / pooled_n
        want = stats.beta.ppf(confidence, pooled_d + 1, pooled_n - pooled_d)
        assert bound == pytest.approx(want, rel=1e-9)
