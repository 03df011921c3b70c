import numpy as np
import pytest

from pdcalib.cohorts import CohortSnapshot, GradeCount, compute_posterior
from pdcalib.statdist import BetaParams


def snap(rows):
    return CohortSnapshot("t", tuple(GradeCount(o, lbl, n, d) for o, lbl, n, d in rows))


def test_fixture_2016_bb(snapshot_2016):
    assert compute_posterior(snapshot_2016)["BB"] == BetaParams(61.0, 1411.0)


def test_fixture_2017_cc(snapshot_2017):
    cc = compute_posterior(snapshot_2017)["CC"]
    assert cc == BetaParams(5.0, 25.0)
    assert cc.alpha / (cc.alpha + cc.beta) == pytest.approx(5 / 30)


def test_no_data_returns_prior():
    post = compute_posterior(snap([(1, "A", 0, 0), (2, "B", 10, 1)]))
    assert post["A"] == BetaParams(1.0, 1.0)


def test_order_preserved(snapshot_2016):
    assert list(compute_posterior(snapshot_2016)) == [g.label for g in snapshot_2016.grades]


def test_shrinkage_between_observed_and_prior_mean():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 5000))
        d = int(rng.integers(0, n + 1))
        post = compute_posterior(snap([(1, "A", n, d), (2, "B", n, d)]))
        params = post["A"]
        mean = params.alpha / (params.alpha + params.beta)
        observed = d / n
        lo, hi = sorted((observed, 0.5))
        if observed != 0.5:
            assert lo < mean < hi
        else:
            assert mean == pytest.approx(0.5)


def test_one_more_default_shifts_one_count():
    base = compute_posterior(snap([(1, "A", 100, 3), (2, "B", 100, 3)]))["A"]
    bumped = compute_posterior(snap([(1, "A", 100, 4), (2, "B", 100, 3)]))["A"]
    assert bumped.alpha == base.alpha + 1
    assert bumped.beta == base.beta - 1
