import math
from statistics import NormalDist

import numpy as np
import pytest
from numpy.random import SFC64, Generator, SeedSequence

from pdcalib import statdist
from pdcalib.statdist import (BetaParams, BracketError, ConvergenceError, _beta_cont_frac,
                              _normal_quantile, binomial_tail_le, log_beta, rng_stream,
                              sample_beta, solve_monotone)


class TestBetaParams:
    def test_valid(self):
        p = BetaParams(1.0, 2700.0)
        assert 0.0 < p.alpha / (p.alpha + p.beta) < 1.0

    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0),
                                            (float("nan"), 1.0), (1.0, float("inf"))])
    def test_rejects_bad_shapes(self, alpha, beta):
        with pytest.raises(ValueError):
            BetaParams(alpha, beta)


class TestRngStream:
    def test_same_key_is_bit_identical(self):
        a = rng_stream(123, 7).random(10_000)
        b = rng_stream(123, 7).random(10_000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = rng_stream(123, 0).random(1000)
        b = rng_stream(123, 1).random(1000)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = rng_stream(1, 0).random(1000)
        b = rng_stream(2, 0).random(1000)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -1), (1 << 64, 0), (0, 1 << 64)])
    def test_key_bounds(self, seed, stream):
        with pytest.raises(ValueError):
            rng_stream(seed, stream)

    @pytest.mark.parametrize("seed,stream", [(0, 0), (42, 3), ((1 << 64) - 1, (1 << 64) - 1)])
    def test_keyed_by_seed_sequence_spawn_key(self, seed, stream):
        want = Generator(SFC64(SeedSequence(seed, spawn_key=(stream,)))).random(1000)
        assert np.array_equal(rng_stream(seed, stream).random(1000), want)

    def test_swapped_keys_differ(self):
        assert not np.array_equal(rng_stream(1, 2).random(1000), rng_stream(2, 1).random(1000))

    def test_first_draws_across_streams_are_uniform_and_uncorrelated(self):
        # the first uniform of each of 20,000 streams of one seed: KS statistic
        # below the 0.1% critical value, and adjacent streams' lag-1
        # correlation within 4 standard errors of 0
        n = 20_000
        first = np.array([rng_stream(2024, k).random() for k in range(n)])
        grid = np.arange(1, n + 1) / n
        ordered = np.sort(first)
        d_stat = max(np.max(np.abs(ordered - grid)), np.max(np.abs(ordered - (grid - 1.0 / n))))
        assert d_stat < 1.94947 / math.sqrt(n)
        lag1 = np.corrcoef(first[:-1], first[1:])[0, 1]
        assert abs(lag1) < 4.0 / math.sqrt(n - 1)


class TestSampleBeta:
    def test_uniform_case(self):
        draws = sample_beta(BetaParams(1, 1), rng_stream(42, 0), size=1_000_000)
        assert draws.min() > 0.0 and draws.max() < 1.0
        assert draws.mean() == pytest.approx(0.5, abs=0.002)

    # empty-cohort prior, zero-default grade, fixture grade, prudent-report scale
    @pytest.mark.parametrize("alpha,beta", [(1, 1), (1, 1815), (61, 1411), (50001, 950001)])
    def test_heavy_cohort_mean(self, alpha, beta):
        mean = alpha / (alpha + beta)
        var = mean * (1.0 - mean) / (alpha + beta + 1.0)
        draws = sample_beta(BetaParams(alpha, beta), rng_stream(42, 1), size=1_000_000)
        se = math.sqrt(var / 1_000_000)
        assert abs(draws.mean() - mean) < 4.0 * se
        assert draws.min() > 0.0 and draws.max() < 1.0

    def test_shape_below_one(self):
        draws = sample_beta(BetaParams(0.5, 0.5), rng_stream(42, 2), size=200_000)
        assert draws.min() > 0.0 and draws.max() < 1.0
        se = math.sqrt(0.125 / 200_000)
        assert abs(draws.mean() - 0.5) < 4.0 * se

    def test_negative_size_raises(self):
        with pytest.raises(ValueError):
            sample_beta(BetaParams(2, 3), rng_stream(42, 0), size=-1)

    def test_matches_cdf_by_ks(self):
        # distributional consistency between the sampler and scipy's beta cdf:
        # KS statistic below the 0.1% critical value for 20 parameter pairs
        stats = pytest.importorskip("scipy.stats")
        n = 100_000
        critical = 1.94947 / math.sqrt(n)
        meta = np.random.default_rng(2024)
        for trial in range(20):
            a = float(10.0 ** meta.uniform(-0.3, 2.7))
            b = float(10.0 ** meta.uniform(-0.3, 2.7))
            p = BetaParams(a, b)
            draws = np.sort(sample_beta(p, rng_stream(1000 + trial, 0), size=n))
            cdf = stats.beta.cdf(draws, a, b)
            grid = np.arange(1, n + 1) / n
            d_stat = max(np.max(np.abs(cdf - grid)), np.max(np.abs(cdf - (grid - 1.0 / n))))
            assert d_stat < critical, f"KS {d_stat:.5f} for Beta({a:.3g},{b:.3g})"


class TestBinomialTailComplement:
    # I_theta(d + 1, n - d), the Beta(d + 1, n - d) cdf at theta, is
    # 1 - binomial_tail_le(n, d, theta)

    def test_against_quadrature(self):
        # 1e7-point trapezoid of the Beta(3, 12) density as an independent oracle
        x = np.linspace(0.0, 0.2, 10_000_001)
        log_norm = math.lgamma(15.0) - math.lgamma(3.0) - math.lgamma(12.0)
        density = np.zeros_like(x)
        density[1:] = np.exp(log_norm + 2.0 * np.log(x[1:]) + 11.0 * np.log1p(-x[1:]))
        oracle = np.trapezoid(density, x)
        assert 1.0 - binomial_tail_le(14, 2, 0.2) == pytest.approx(oracle, abs=1e-6)

    def test_extreme_shapes(self):
        # the lopsided shapes this package actually produces: the median of
        # Beta(1, b) is about ln 2 / b
        mid = 1.0 - binomial_tail_le(2716, 0, math.log(2.0) / 2716.0)
        assert mid == pytest.approx(0.5, abs=1e-3)


class TestLogBeta:
    @pytest.mark.parametrize("n", [1.0, 9.0, 10.0, 1e3, 1e6, 1e7, 1e8])
    def test_closed_forms(self, n):
        # B(1, n) = 1/n and B(2, n) = 1/(n (n + 1)), either argument order
        assert log_beta(1.0, n) == pytest.approx(-math.log(n), rel=1e-14, abs=1e-15)
        assert log_beta(n, 1.0) == pytest.approx(-math.log(n), rel=1e-14, abs=1e-15)
        assert log_beta(2.0, n) == pytest.approx(-math.log(n) - math.log1p(n), rel=1e-14)

    def test_matches_lgamma_sum_for_small_shapes(self):
        for a, b in [(0.5, 0.5), (3.0, 12.0), (61.0, 1411.0), (20.0, 20.0)]:
            naive = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
            assert log_beta(a, b) == pytest.approx(naive, rel=1e-13)


class TestContinuedFraction:
    def test_tiny_budget_raises(self, monkeypatch):
        monkeypatch.setattr(statdist, "_cont_frac_budget", lambda a, b: 5)
        with pytest.raises(ConvergenceError, match="did not converge in 5 iterations"):
            _beta_cont_frac(1e6, 1e6, 0.4999)
        with pytest.raises(ConvergenceError):
            binomial_tail_le(2_000_000, 1_000_000, 0.5)

    def test_default_budget_converges_at_worst_measured_shapes(self):
        # just below the symmetry switch, where the fraction is slowest
        for a, b in [(9.2e6, 3.1e5), (1e6, 1e6), (1e8, 1e7)]:
            x = (a + 1.0) / (a + b + 2.0) * (1.0 - 1e-9)
            assert math.isfinite(_beta_cont_frac(a, b, x))

    def test_converged_fraction_stops_updating(self, monkeypatch):
        # the fraction returns once converged, so a larger budget gives the same value
        points = [(3.0, 12.0, 0.05), (3.0, 12.0, 0.1), (1e6, 1e6, 0.4999)]
        want = [_beta_cont_frac(*point) for point in points]
        monkeypatch.setattr(statdist, "_cont_frac_budget", lambda a, b: 100_000)
        assert [_beta_cont_frac(*point) for point in points] == want

    def test_each_point_keeps_its_shape_and_its_own_failure(self, monkeypatch):
        points = [(3.0, 12.0, 0.05), (3.0, 12.0, 0.1), (40.0, 7.0, 0.7)]
        want = [_beta_cont_frac(*point) for point in points]
        # only the large shapes' budget is too small; the error names their call
        monkeypatch.setattr(statdist, "_cont_frac_budget", lambda a, b: 5 if b > 1e5 else 200)
        assert [_beta_cont_frac(*point) for point in points] == want
        with pytest.raises(ConvergenceError, match=r"did not converge in 5 iterations "
                                                   r"for a=1e\+06, b=1e\+06, x=0\.4999"):
            _beta_cont_frac(1e6, 1e6, 0.4999)


class TestBinomialTail:
    def test_full_support(self):
        assert binomial_tail_le(29, 29, 0.5) == 1.0

    def test_single_trial(self):
        assert binomial_tail_le(1, 0, 0.3) == pytest.approx(0.7, abs=1e-12)

    def test_closed_form(self):
        # P(X <= 1) for Binomial(29, t) is (1-t)^28 (1 + 28 t)
        theta = 0.09
        expected = (1.0 - theta) ** 28 * (1.0 + 28.0 * theta)
        assert binomial_tail_le(29, 1, theta) == pytest.approx(expected, abs=1e-10)

    def test_complements_sum_to_one(self):
        meta = np.random.default_rng(7)
        for _ in range(200):
            n = int(meta.integers(1, 3000))
            d = int(meta.integers(0, n))  # keep d < n so both tails are proper
            theta = float(meta.uniform(0.001, 0.999))
            le = binomial_tail_le(n, d, theta)
            ge_next = binomial_tail_le(n, n - d - 1, 1.0 - theta)  # P(X >= d + 1)
            assert le + ge_next == pytest.approx(1.0, abs=1e-9)

    def test_matches_scipy_above_one_half(self):
        # above theta = 1/2 the front factor's logs come from theta, not from 1 - theta
        stats = pytest.importorskip("scipy.stats")
        meta = np.random.default_rng(20)
        for _ in range(400):
            n = int(meta.choice([10, 100, 1_000, 10_000]))
            theta = float(meta.uniform(0.5, 0.999))
            sd = math.sqrt(n * theta * (1.0 - theta))
            d = min(max(round(n * theta + meta.uniform(-3.0, 3.0) * sd), 0), n)
            want = stats.binom.cdf(d, n, theta)
            assert binomial_tail_le(n, d, theta) == pytest.approx(want, rel=1e-11, abs=0.0), \
                (n, d, theta)

    @pytest.mark.parametrize("n,d,theta", [(10, 11, 0.5), (10, -1, 0.5), (-1, 0, 0.5),
                                           (-1, -1, 0.5), (10, 5, 0.0), (10, 5, 1.0)])
    def test_domain_errors(self, n, d, theta):
        with pytest.raises(ValueError):
            binomial_tail_le(n, d, theta)


class TestSolveMonotone:
    def test_identity(self):
        root = solve_monotone(lambda x: x, 0.25, 0.0, 1.0, fprime=lambda x: 1.0, x0=0.5)
        assert root == pytest.approx(0.25, abs=1e-12)

    def test_decreasing_closed_form(self):
        # (1 - x)^100 = 0.25  =>  x = 1 - 0.25^(1/100)
        root = solve_monotone(lambda x: (1.0 - x) ** 100, 0.25, 0.0, 1.0,
                              fprime=lambda x: -100.0 * (1.0 - x) ** 99, x0=0.5)
        assert root == pytest.approx(1.0 - 0.25 ** 0.01, abs=1e-10)

    def test_binomial_tail_inversion(self):
        def slope(t):
            # d/dt (1 - t)^28 (1 + 28 t)
            return -812.0 * t * (1.0 - t) ** 27

        root = solve_monotone(lambda t: binomial_tail_le(29, 1, t), 0.25, 1e-9, 1.0 - 1e-9,
                              fprime=slope, x0=0.5)
        expected = solve_monotone(lambda t: (1.0 - t) ** 28 * (1.0 + 28.0 * t),
                                  0.25, 1e-9, 1.0 - 1e-9, fprime=slope, x0=0.5)
        assert root == pytest.approx(expected, abs=1e-9)
        assert root == pytest.approx(0.0900, abs=5e-4)

    def test_bracket_error(self):
        with pytest.raises(BracketError, match="target 2.0 not enclosed"):
            solve_monotone(lambda x: x, 2.0, 0.0, 1.0, fprime=lambda x: 1.0, x0=0.5)

    @pytest.mark.parametrize("lo, hi, x0, message", [
        (1.0, 1.0, 1.0, r"need lo < hi, got \[1.0, 1.0\]"),
        (1.0, 0.0, 0.5, r"need lo < hi, got \[1.0, 0.0\]"),
        (0.0, 1.0, 1.5, "x0 must lie inside"),
        (0.0, 1.0, -0.5, "x0 must lie inside"),
    ])
    def test_bad_bracket_or_start(self, lo, hi, x0, message):
        with pytest.raises(ValueError, match=message):
            solve_monotone(lambda x: x, 0.25, lo, hi, fprime=lambda x: 1.0, x0=x0)

    def test_endpoint_hit(self):
        assert solve_monotone(lambda x: x, 0.0, 0.0, 1.0, fprime=lambda x: 1.0, x0=0.5) == 0.0

    def test_newton_needs_few_evaluations(self):
        # (1 - x)^100 = 0.25 from the Beta(1, 100) mean, as pluto_tasche starts;
        # a zero slope makes every step the bracket midpoint
        calls = {"newton": 0, "bisection": 0}

        def counted(kind):
            def f(x):
                calls[kind] += 1
                return (1.0 - x) ** 100
            return f

        newton = solve_monotone(counted("newton"), 0.25, 0.0, 1.0, x0=1.0 / 101.0,
                                fprime=lambda x: -100.0 * (1.0 - x) ** 99)
        bisection = solve_monotone(counted("bisection"), 0.25, 0.0, 1.0, x0=1.0 / 101.0,
                                   fprime=lambda x: 0.0)
        root = -math.expm1(math.log(0.25) / 100.0)
        assert newton == pytest.approx(root, rel=1e-13)
        assert bisection == pytest.approx(root, rel=1e-11)
        assert calls["newton"] <= 10
        assert calls["bisection"] >= 35

    def test_step_cap_raises_instead_of_returning_midpoint(self):
        # bisection from [0, 1] needs ~1000 halvings to reach 1e-300
        with pytest.raises(ConvergenceError, match="after 200 steps"):
            solve_monotone(lambda x: x, 1e-300, 0.0, 1.0, fprime=lambda x: 0.0, x0=0.5)


class TestNormalQuantile:
    def test_matches_statistics_inv_cdf(self):
        for p in [1e-300, 1e-12, 1e-6, 1e-3, 0.25, 0.5, 0.75, 1 - 1e-3, 1 - 1e-6, 1 - 1e-12,
                  1 - 2 ** -53]:
            assert abs(_normal_quantile(p) - NormalDist().inv_cdf(p)) <= 1e-13, p
