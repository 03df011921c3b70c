"""Tests of the benchmark's own code: references pinned to closed forms,
repeatable generators, span self times and the compare verdicts.

    python3 -m pytest perfbench -q
"""

import pytest

import gen
import reference
from compare import verdict
from run import WORKLOADS
from spans import Span, self_times


def test_two_flat_grades_give_one_third_and_two_thirds():
    limit = reference.sweep_limit([(0, 0), (0, 0)])
    assert limit.passes == 1
    assert limit.means == pytest.approx((1 / 3, 2 / 3), abs=1e-7)
    # min and max of two uniforms are Beta(1, 2) and Beta(2, 1)
    assert limit.variances == pytest.approx((1 / 18, 1 / 18), abs=1e-7)
    assert limit.steps[0][2] == pytest.approx(0.5, abs=1e-12)


def test_ordered_limit_needs_more_passes_when_inverted():
    limit = reference.sweep_limit([(20, 8), (200, 10), (50, 2)])
    assert limit.passes > 1
    assert list(limit.means) == sorted(limit.means)


def test_limit_stops_below_floor():
    limit = reference.sweep_limit([(5, 4), (400, 1)], stop_below=0.01)
    assert not limit.converged
    assert limit.steps[-1][2] < 0.01


@pytest.mark.parametrize("n", [1, 14, 1000, 10 ** 6])
@pytest.mark.parametrize("confidence", [0.5, 0.75, 0.99])
def test_zero_defaults_clopper_pearson(n, confidence):
    got = reference.most_prudent([(n, 0)], confidence)[0]
    assert got == pytest.approx(1 - (1 - confidence) ** (1 / n), rel=1e-10)


def test_counts_pool_toward_the_worst_grade():
    got = reference.most_prudent([(900, 0), (100, 0)], 0.75)
    assert got == pytest.approx([1 - 0.25 ** (1 / 1000), 1 - 0.25 ** (1 / 100)], rel=1e-10)
    # a running maximum keeps the column monotone
    assert reference.most_prudent([(10, 5), (1000, 1)], 0.75)[1] == \
        reference.most_prudent([(10, 5), (1000, 1)], 0.75)[0]


def test_scaling_hits_the_central_tendency():
    counts = [(100, 1), (300, 6), (50, 4)]
    scaled = reference.scale_to_central_tendency([0.01, 0.02, 0.05], counts)
    assert sum(n * pd for (n, _), pd in zip(counts, scaled)) / 450 == pytest.approx(11 / 450)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generators_repeat_by_seed(workload):
    make = WORKLOADS[workload].generate
    first, again, other = make(5), make(5), make(6)
    assert first.files == again.files
    assert first.files != other.files


def test_thin_history_has_an_empty_cohort_per_period():
    inputs = WORKLOADS["thin-history"].generate(3)
    assert all(any(n == 0 for _, n, _ in rows) for rows in inputs.periods.values())
    assert all(len(rows) == len(gen.NOTCHED) for rows in inputs.periods.values())


def test_self_time_subtracts_direct_children():
    spans = [Span("a", 0.0, 10.0, -1, 0), Span("b", 1.0, 4.0, 0, 0),
             Span("c", 2.0, 3.0, 1, 0), Span("d", 5.0, 6.0, 0, 0)]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert verdict("lower", 0.1, parent, [v * 0.8 for v in parent], 10, 10, False) == "better"
    assert verdict("lower", 0.1, parent, [v * 0.8 for v in parent], 10, 10, True) == "same"
    assert verdict("lower", 0.1, parent, [v * 1.2 for v in parent], 0, 10, False) == "worse"
    assert verdict("higher", 0.1, parent, [v * 0.8 for v in parent], 0, 10, False) == "worse"
    assert verdict("lower", 0.1, parent, list(parent), 0, 10, False) == "same"
    # outputs that fail their checks are never better, however fast
    assert verdict("lower", 0.1, parent, [v * 0.8 for v in parent], 10, 10, False,
                   True) == "incorrect"
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 1.0, 0.9, 1.1]
    # every pair won, but by less than the parent's own spread, which exceeds the bound
    assert verdict("lower", 0.1, noisy, [v * 0.97 for v in noisy], 10, 10, False) == "unresolved"
