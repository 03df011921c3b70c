import io
import math

import numpy as np
import pytest

from pdcalib import benchmarks
from pdcalib.benchmarks import (align_external, build_comparison, central_tendency,
                                parse_external_csv, pluto_tasche, scale_to_ct)
from pdcalib.cohorts import CohortSnapshot, GradeCount


def snap(rows, period="t"):
    return CohortSnapshot(period, tuple(GradeCount(o, lbl, n, d) for o, lbl, n, d in rows))


def raw_bound(snapshot, i, confidence=0.75):
    """Grade i's own most-prudent bound, before the monotone floor: the first
    entry of the snapshot cut down to grades i and worse."""
    return pluto_tasche(CohortSnapshot(snapshot.period, snapshot.grades[i:]), confidence)[0]


class TestCentralTendency:
    def test_fixture_years(self, snapshot_2016, snapshot_2017):
        assert central_tendency(snapshot_2016) == 124 / 5968
        assert central_tendency(snapshot_2017) == 51 / 7773

    def test_single_grade(self):
        assert central_tendency(snap([(1, "A", 100, 1), (2, "B", 0, 0)])) == pytest.approx(0.01)

    def test_empty_portfolio(self):
        with pytest.raises(ValueError, match="empty portfolio"):
            central_tendency(snap([(1, "A", 0, 0), (2, "B", 0, 0)]))


class TestPlutoTasche:
    def test_zero_default_closed_form(self):
        # single effective grade, no defaults: (1 - pd)^100 = 0.25
        pds = pluto_tasche(snap([(1, "A", 100, 0), (2, "B", 0, 0)]))
        assert pds[0] == pytest.approx(1.0 - 0.25 ** 0.01, abs=1e-9)

    def test_one_default_closed_form(self):
        # cumulated (29, 1): bisect (1-t)^28 (1 + 28 t) = 0.25 independently
        lo, hi = 1e-9, 0.999
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (1.0 - mid) ** 28 * (1.0 + 28.0 * mid) > 0.25:
                lo = mid
            else:
                hi = mid
        expected = 0.5 * (lo + hi)
        pds = pluto_tasche(snap([(1, "A", 29, 1), (2, "B", 0, 0)]))
        assert pds[0] == pytest.approx(expected, abs=1e-8)
        assert pds[0] == pytest.approx(0.090, abs=1e-3)

    def test_fixture_2016_unscaled_top_grade(self, snapshot_2016):
        pds = pluto_tasche(snapshot_2016)
        assert pds[0] == pytest.approx(0.022, abs=5e-4)  # ~2.2% before scaling

    def test_upper_bound_property(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            rows = []
            for order in range(1, 5):
                n = int(rng.integers(10, 2000))
                d = int(rng.integers(0, max(1, n // 10)))
                rows.append((order, f"g{order}", n, d))
            snapshot = snap(rows)
            conf = float(rng.uniform(0.5, 0.99))
            for i in range(4):
                pooled_n = sum(r[2] for r in rows[i:])
                pooled_d = sum(r[3] for r in rows[i:])
                assert raw_bound(snapshot, i, conf) >= pooled_d / pooled_n - 1e-9

    def test_monotone_flooring(self, snapshot_2016):
        floored = pluto_tasche(snapshot_2016)
        assert all(a <= b + 1e-15 for a, b in zip(floored, floored[1:]))
        # the worst grade's own bound sits below grade 7's: flooring equalizes them
        assert raw_bound(snapshot_2016, 7) < raw_bound(snapshot_2016, 6)
        assert floored[7] == floored[6]

    def test_all_defaults_bound_is_one(self):
        assert raw_bound(snap([(1, "A", 10, 1), (2, "B", 5, 5)]), 1) == 1.0

    @staticmethod
    def large_portfolio():
        """20 grades of 1e5-1e6 obligors with 0.05-5% defaults: (n, d, snapshot)."""
        rng = np.random.default_rng(2005)
        n = rng.integers(100_000, 1_000_001, 20)
        d = (n * rng.uniform(0.0005, 0.05, 20)).astype(np.int64)
        rows = [(i + 1, f"g{i + 1}", int(a), int(b)) for i, (a, b) in enumerate(zip(n, d))]
        return n, d, snap(rows)

    def test_matches_scipy_beta_quantile(self):
        stats = pytest.importorskip("scipy.stats")
        n, d, snapshot = self.large_portfolio()
        pds = pluto_tasche(snapshot)
        pooled_n, pooled_d = np.cumsum(n[::-1])[::-1], np.cumsum(d[::-1])[::-1]
        want = stats.beta.ppf(0.75, pooled_d + 1, pooled_n - pooled_d)
        np.testing.assert_allclose(pds, np.maximum.accumulate(want), rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, float("nan")])
    def test_confidence_outside_unit_interval(self, confidence):
        with pytest.raises(ValueError, match=r"confidence must lie in \(0, 1\)"):
            pluto_tasche(snap([(1, "A", 100, 1), (2, "B", 100, 2)]), confidence)

    @pytest.mark.parametrize("n", [10, 1_000, 54_321, 100_000, 999_983, 1_000_000])
    def test_zero_default_closed_form_large_cohorts(self, n):
        # (1 - pd)^n = 1 - c  =>  pd = 1 - (1 - c)^(1/n)
        pds = pluto_tasche(snap([(1, "A", n, 0), (2, "B", 0, 0)]))
        assert pds[0] == pytest.approx(-math.expm1(math.log(0.25) / n), rel=1e-9)

    def test_one_solve_per_snapshot(self, monkeypatch, snapshot_2016):
        # one solve per grade whose pooled defaults fall short of its pooled cohort
        calls = []
        solve = benchmarks.solve_monotone

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(benchmarks, "solve_monotone", counted)
        pluto_tasche(snapshot_2016)
        assert len(calls) == len(snapshot_2016.grades)
        # a snapshot with no grade to solve makes no call
        assert pluto_tasche(snap([(1, "A", 0, 0), (2, "B", 5, 5)])) == [1.0, 1.0]
        assert len(calls) == len(snapshot_2016.grades)

    def test_newton_start_needs_at_most_four_tail_calls(self, monkeypatch):
        # per grade: the two bracket ends, then two Newton steps from the Cornish-Fisher start
        tail_calls = []  # one count per solve
        solve, tail = benchmarks.solve_monotone, benchmarks.binomial_tail_le

        def counted_solve(*args, **kwargs):
            tail_calls.append(0)
            return solve(*args, **kwargs)

        def counted_tail(*args):
            tail_calls[-1] += 1
            return tail(*args)

        monkeypatch.setattr(benchmarks, "solve_monotone", counted_solve)
        monkeypatch.setattr(benchmarks, "binomial_tail_le", counted_tail)
        pluto_tasche(self.large_portfolio()[2])
        assert len(tail_calls) == 20
        assert max(tail_calls) <= 4


class TestScaleToCT:
    def test_weighted_mean_hits_ct(self, snapshot_2016):
        scaled = scale_to_ct([0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08], snapshot_2016)
        weights = [g.performing_start for g in snapshot_2016.grades]
        weighted = sum(w * s for w, s in zip(weights, scaled)) / sum(weights)
        assert weighted == pytest.approx(central_tendency(snapshot_2016), abs=1e-12)

    def test_fixed_point(self):
        snapshot = snap([(1, "A", 100, 1), (2, "B", 300, 3)])
        pds = [0.01, 0.01]
        assert scale_to_ct(pds, snapshot) == pytest.approx(pds, rel=1e-14)

    def test_positively_homogeneous(self, snapshot_2016):
        base = [0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128]
        doubled = [2.0 * v for v in base]
        assert scale_to_ct(base, snapshot_2016) == pytest.approx(
            scale_to_ct(doubled, snapshot_2016), rel=1e-14)

    def test_preserves_ordering(self, snapshot_2016):
        base = [0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128]
        scaled = scale_to_ct(base, snapshot_2016)
        assert all(a < b for a, b in zip(scaled, scaled[1:]))

    def test_all_zero_rejected(self, snapshot_2016):
        with pytest.raises(ValueError, match="all-zero"):
            scale_to_ct([0.0] * 8, snapshot_2016)

    def test_length_mismatch(self, snapshot_2016):
        with pytest.raises(ValueError, match="entries"):
            scale_to_ct([0.01, 0.02], snapshot_2016)


class TestBuildComparison:
    def test_two_method_table(self, snapshot_2016):
        sim = [0.0005, 0.0009, 0.0013, 0.0022, 0.03, 0.0348, 0.1077, 0.1564]
        table = build_comparison(snapshot_2016, sim, pluto_tasche(snapshot_2016))
        assert list(table) == ["simulated", "pluto_tasche"]

    def test_external_passthrough_identical(self, snapshot_2016):
        sim = [0.0005, 0.0009, 0.0013, 0.0022, 0.03, 0.0348, 0.1077, 0.1564]
        table = build_comparison(snapshot_2016, sim, pluto_tasche(snapshot_2016),
                                 external={"copy": list(sim)})
        assert table["copy"] == table["simulated"]

    def test_every_column_scaled_to_ct(self, snapshot_2016):
        sim = [0.001, 0.002, 0.003, 0.004, 0.03, 0.035, 0.1, 0.2]
        table = build_comparison(snapshot_2016, sim, pluto_tasche(snapshot_2016),
                                 external={"x": [0.01] * 8})
        weights = [g.performing_start for g in snapshot_2016.grades]
        for name, column in table.items():
            weighted = sum(w * v for w, v in zip(weights, column)) / sum(weights)
            assert weighted == pytest.approx(central_tendency(snapshot_2016), abs=1e-12), name

    def test_column_mismatch_by_name(self, snapshot_2016):
        sim = [0.01] * 8
        with pytest.raises(ValueError, match="'short'"):
            build_comparison(snapshot_2016, sim, pluto_tasche(snapshot_2016),
                             external={"short": [0.01] * 5})


class TestExternalCsv:
    CSV = ("grade_order,method_name,pd\n"
           "1,qmm,0.0003\n2,qmm,0.0009\n1,cap,0.0026\n2,cap,0.0026\n")

    def test_parse_and_align(self):
        methods = parse_external_csv(io.StringIO(self.CSV))
        assert set(methods) == {"qmm", "cap"}
        snapshot = snap([(1, "A", 10, 0), (2, "B", 10, 0)])
        aligned = align_external(methods, snapshot)
        assert aligned["qmm"] == [0.0003, 0.0009]

    def test_missing_order_reported_by_name(self):
        methods = parse_external_csv(io.StringIO(self.CSV))
        snapshot = snap([(1, "A", 10, 0), (2, "B", 10, 0), (3, "C", 10, 0)])
        with pytest.raises(ValueError, match="'qmm'.*order 3"):
            align_external(methods, snapshot)

    def test_bad_header(self):
        with pytest.raises(ValueError, match="expected header"):
            parse_external_csv(io.StringIO("a,b,c\n1,m,0.1\n"))

    def test_pd_bounds_accepted(self):
        methods = parse_external_csv(io.StringIO("grade_order,method_name,pd\n1,m,0\n2,m,1\n"))
        assert methods == {"m": {1: 0.0, 2: 1.0}}

    def test_duplicate_order(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_external_csv(io.StringIO("grade_order,method_name,pd\n1,m,0.1\n1,m,0.2\n"))
