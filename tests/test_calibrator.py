import math
import os
import threading

import numpy as np
import pytest

from pdcalib import calibrator
from pdcalib.calibrator import (CalibrationConfig, InsufficientAcceptanceError,
                                SweepNotConvergedError, VarianceTooLargeError, calibrate,
                                export_histograms, fit_beta_moments,
                                oracle_conditional_means_2grade, run_sweep)
from pdcalib.cohorts import compute_posterior
from pdcalib.statdist import BetaParams, rng_stream, sample_beta

FAST = dict(n_sim=2000, k_reps=3, seed=9)


def portfolio(*params):
    return {f"g{i + 1}": p for i, p in enumerate(params)}


class TestFitBetaMoments:
    def test_uniform_moments(self):
        p = fit_beta_moments(0.5, math.sqrt(1.0 / 12.0))
        assert p.alpha == pytest.approx(1.0, rel=1e-12)
        assert p.beta == pytest.approx(1.0, rel=1e-12)

    def test_direct_arithmetic(self):
        p = fit_beta_moments(0.2, 0.1)  # variance 0.01
        assert p.alpha == pytest.approx(3.0, rel=1e-12)
        assert p.beta == pytest.approx(12.0, rel=1e-12)

    def test_monte_carlo_round_trip(self):
        target = BetaParams(61.0, 1411.0)
        draws = sample_beta(target, rng_stream(77, 0), size=1_000_000)
        fitted = fit_beta_moments(float(draws.mean()), float(draws.std()))
        assert fitted.alpha == pytest.approx(61.0, rel=0.05)
        assert fitted.beta == pytest.approx(1411.0, rel=0.05)

    def test_algebraic_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = BetaParams(float(10 ** rng.uniform(-1, 3)), float(10 ** rng.uniform(-1, 3)))
            total = p.alpha + p.beta
            var = p.alpha * p.beta / (total * total * (total + 1.0))
            fitted = fit_beta_moments(p.alpha / total, math.sqrt(var))
            assert fitted.alpha == pytest.approx(p.alpha, rel=1e-9)
            assert fitted.beta == pytest.approx(p.beta, rel=1e-9)

    def test_variance_too_large(self):
        with pytest.raises(VarianceTooLargeError):
            fit_beta_moments(0.5, 0.5)  # variance equals the 0.25 bound

    @pytest.mark.parametrize("mean,sd", [(0.0, 0.1), (1.0, 0.1), (0.5, 0.0), (0.5, -0.1)])
    def test_bad_inputs(self, mean, sd):
        with pytest.raises(ValueError):
            fit_beta_moments(mean, sd)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(n_sim=999), dict(k_reps=0), dict(ci_level=0.0), dict(ci_level=1.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CalibrationConfig(**kwargs)


class TestOracle:
    def test_two_uniforms(self):
        m1, m2 = oracle_conditional_means_2grade(BetaParams(1, 1), BetaParams(1, 1))
        assert m1 == pytest.approx(1.0 / 3.0, rel=1e-13)
        assert m2 == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_order_statistics_closed_form(self):
        # for F(x) = x^2: E[min] = 8/15, E[max] = 4/5
        m1, m2 = oracle_conditional_means_2grade(BetaParams(2, 1), BetaParams(2, 1))
        assert m1 == pytest.approx(8.0 / 15.0, rel=1e-13)
        assert m2 == pytest.approx(0.8, rel=1e-13)

    # the 2016 fixture's A/BBB and AAA/AA pairs, a pair already in order, a far-inverted
    # one and AAA/AA's refit lower grade Beta(1, 169) as the next pass meets it; each also
    # with its shape of 1 as a moment refit in floats can round it, 1 - 3.6e-14
    @pytest.mark.parametrize("b,c", [(935, 1815), (15, 154), (10, 3), (50, 5000), (169, 154)])
    def test_zero_default_pair_closed_form(self, b, c):
        # Beta(1, b) below Beta(1, c): the lower grade is exactly Beta(1, b + c)
        for a in (1.0, 1.0 - 3.6e-14):
            m1, m2 = oracle_conditional_means_2grade(BetaParams(a, b), BetaParams(1, c))
            assert m1 == pytest.approx(1.0 / (b + c + 1), rel=1e-13)
            assert m2 == pytest.approx((b + c) / b * (1.0 / (c + 1) - c / ((b + c) * (b + c + 1))),
                                       rel=1e-13)

    def test_unbounded_density_closed_form(self):
        # Beta(0.5, 2) below a uniform: the lower mean is a / (a + b + 1) and the upper
        # (1 - E[theta_1^2]) / (2 (1 - E[theta_1])), with a density like t^-0.5 at 0
        m1, m2 = oracle_conditional_means_2grade(BetaParams(0.5, 2), BetaParams(1, 1))
        assert m1 == pytest.approx(1.0 / 7.0, rel=1e-13)
        assert m2 == pytest.approx(4.0 / 7.0, rel=1e-13)

    def test_refuses_a_vanishing_acceptance(self):
        # P(theta_1 <= theta_2) is about 9e-145 here; the cells miss the overlap
        with pytest.raises(ValueError, match=r"Beta\(639, 6850\) below Beta\(352, 20516\)"):
            oracle_conditional_means_2grade(BetaParams(639, 6850), BetaParams(352, 20516))


class TestFilteredPair:
    @staticmethod
    def replay(lower, upper, n_sim, rng):
        """The kept draws of one pair step, collected and concatenated: each
        block of n_sim pairs in full chunks and a remainder, each chunk's
        lower-grade draws before its upper-grade ones."""
        chunk = calibrator._CHUNK
        sizes = [chunk] * (n_sim // chunk) + ([n_sim % chunk] if n_sim % chunk else [])
        kept_x, kept_y = [], []
        blocks = 0
        while sum(k.size for k in kept_x) < calibrator._MIN_ACCEPTED:
            blocks += 1
            for size in sizes:
                x = sample_beta(lower, rng, size=size)
                y = sample_beta(upper, rng, size=size)
                keep = x <= y
                kept_x.append(x[keep])
                kept_y.append(y[keep])
        return np.concatenate(kept_x), np.concatenate(kept_y), n_sim * blocks

    @pytest.mark.parametrize("lower,upper,n_sim,topup", [
        (BetaParams(5, 95), BetaParams(5, 95), 2000, False),
        (BetaParams(60, 940), BetaParams(40, 960), 1000, True),  # about 2% kept
        (BetaParams(50001, 950001), BetaParams(50001, 950001), 20_000, False),
        (BetaParams(5, 95), BetaParams(5, 95), 2 * calibrator._CHUNK + 1, False),
        (BetaParams(145, 855), BetaParams(100, 900), 40_000, True),  # about 0.1% kept
    ], ids=["one-block", "top-up", "tight-shapes", "chunked", "chunked-top-up"])
    def test_refit_from_sums_matches_kept_draws(self, lower, upper, n_sim, topup):
        cfg = CalibrationConfig(n_sim=n_sim, k_reps=1, seed=8)
        new_lower, new_upper, accepted, drawn = calibrator._filtered_pair(
            lower, upper, cfg, rng_stream(8, 3), 0)
        x, y, replay_drawn = self.replay(lower, upper, n_sim, rng_stream(8, 3))
        assert (accepted, drawn) == (x.size, replay_drawn)
        assert (drawn > n_sim) == topup
        if topup:
            assert accepted / drawn < calibrator._MIN_ACCEPTED / n_sim
        for got, kept in ((new_lower, x), (new_upper, y)):
            want = fit_beta_moments(float(kept.mean()), float(kept.std()))
            assert got.alpha == pytest.approx(want.alpha, rel=1e-12)
            assert got.beta == pytest.approx(want.beta, rel=1e-12)


class TestRunSweep:
    def test_needs_two_grades(self):
        cfg = CalibrationConfig(**FAST)
        with pytest.raises(ValueError):
            run_sweep(portfolio(BetaParams(1, 10)), cfg, rng_stream(1, 0))

    def test_ordered_pair_barely_moves(self):
        # means 0.98% and 8.3%, far apart: filtering removes almost nothing
        p1, p2 = BetaParams(1, 101), BetaParams(1, 11)
        cfg = CalibrationConfig(n_sim=100_000, k_reps=1, seed=3)
        sweep = run_sweep(portfolio(p1, p2), cfg, rng_stream(3, 0))
        o1, o2 = oracle_conditional_means_2grade(p1, p2)
        u1, u2 = (p.alpha / (p.alpha + p.beta) for p in (p1, p2))
        for got, want in ((sweep.means[0], o1), (sweep.means[1], o2)):
            assert got == pytest.approx(want, rel=0.02)
        assert abs(sweep.means[0] - u1) / u1 < 0.25
        assert abs(sweep.means[1] - u2) / u2 < 0.25

    def test_identical_grades_split_symmetrically(self):
        p = BetaParams(5, 95)
        cfg = CalibrationConfig(n_sim=100_000, k_reps=1, seed=4)
        sweep = run_sweep(portfolio(p, p), cfg, rng_stream(4, 0))
        assert sweep.means[0] < 0.05 < sweep.means[1]
        assert sweep.means[0] + sweep.means[1] == pytest.approx(0.10, abs=1e-3)
        o1, o2 = oracle_conditional_means_2grade(p, p)
        assert sweep.means[0] == pytest.approx(o1, abs=1e-3)
        assert sweep.means[1] == pytest.approx(o2, abs=1e-3)

    def test_mean_equals_shape_ratio(self):
        cfg = CalibrationConfig(**FAST)
        sweep = run_sweep(portfolio(BetaParams(4, 150), BetaParams(2, 200), BetaParams(9, 100)),
                          cfg, rng_stream(9, 0))
        for mean, params in zip(sweep.means, sweep.params):
            assert mean == pytest.approx(params.alpha / (params.alpha + params.beta), abs=1e-12)

    def test_monotone_after_convergence(self):
        cfg = CalibrationConfig(**FAST)
        sweep = run_sweep(portfolio(BetaParams(4, 150), BetaParams(2, 200), BetaParams(9, 100)),
                          cfg, rng_stream(2, 0))
        assert all(a <= b for a, b in zip(sweep.means, sweep.means[1:]))
        assert sweep.passes >= 1

    def test_pass_budget_exhausted_raises(self, monkeypatch):
        # counts 400/16, 200/4, 400/10: the second pair step pulls the middle
        # grade back below the first, so one pass never leaves them in order
        post = portfolio(BetaParams(17, 385), BetaParams(5, 197), BetaParams(11, 391))
        cfg = CalibrationConfig(n_sim=2000, k_reps=1, seed=5)
        assert run_sweep(post, cfg, rng_stream(5, 0)).passes == 2
        monkeypatch.setattr(calibrator, "_MAX_PASSES", 1)
        with pytest.raises(SweepNotConvergedError, match="after 1 passes"):
            run_sweep(post, cfg, rng_stream(5, 0))

    def test_already_monotone_is_near_fixed_point(self):
        # adjacent means separated by far more than 6 posterior sds
        params = [BetaParams(101, 9901), BetaParams(301, 9701), BetaParams(901, 9101)]
        cfg = CalibrationConfig(n_sim=50_000, k_reps=1, seed=6)
        sweep = run_sweep(portfolio(*params), cfg, rng_stream(6, 0))
        assert sweep.passes == 1
        for got, p in zip(sweep.means, params):
            mean = p.alpha / (p.alpha + p.beta)
            assert abs(got - mean) / mean < 0.01

    def test_draw_counts_match_the_sampler_calls(self, monkeypatch):
        sizes = []

        def counting(p, rng, size):
            sizes.append(size)
            return sample_beta(p, rng, size=size)

        monkeypatch.setattr(calibrator, "sample_beta", counting)
        for post, n_sim in [
            # pair 1 keeps about 2% of 1,000 pairs, so it needs top-up blocks
            (portfolio(BetaParams(60, 940), BetaParams(40, 960), BetaParams(9, 100)), 1000),
            # about 0.1% of 40,000 pairs: blocks of two chunks, the second partial
            (portfolio(BetaParams(145, 855), BetaParams(100, 900), BetaParams(30, 100)), 40_000),
        ]:
            sizes.clear()
            cfg = CalibrationConfig(n_sim=n_sim, k_reps=1, seed=8)
            sweep = run_sweep(post, cfg, rng_stream(8, 0))
            calls_per_block = 2 * math.ceil(n_sim / calibrator._CHUNK)
            assert max(sizes) == min(n_sim, calibrator._CHUNK)
            assert sweep.draws_total == sum(sizes)
            assert len(sizes) % calls_per_block == 0
            assert sweep.topup_blocks_total == len(sizes) // calls_per_block - 2 * sweep.passes
            assert sweep.topup_blocks_total > 0

    def test_insufficient_acceptance_fails_loudly(self):
        # hugely inverted, tight grades: the order constraint is never met
        post = portfolio(BetaParams(5001, 5001), BetaParams(1, 10001))
        cfg = CalibrationConfig(n_sim=1000, k_reps=1, seed=1)
        with pytest.raises(InsufficientAcceptanceError, match="pair 1"):
            run_sweep(post, cfg, rng_stream(1, 0))


class TestCalibrate:
    def make_post(self):
        return portfolio(BetaParams(4, 150), BetaParams(2, 200), BetaParams(9, 100))

    def test_deterministic_across_worker_counts(self):
        # 40,000 pairs are drawn as a full chunk and a partial one
        for n_sim in (2000, 40_000):
            cfg = CalibrationConfig(n_sim=n_sim, k_reps=6, seed=12)
            serial = calibrate(self.make_post(), cfg, workers=1)
            parallel = calibrate(self.make_post(), cfg, workers=2)
            assert serial.grade_means == parallel.grade_means
            assert serial.alpha_hat == parallel.alpha_hat
            assert serial.beta_hat == parallel.beta_hat
            assert np.array_equal(serial.sweep_means, parallel.sweep_means)
            assert serial.pair_acceptance == parallel.pair_acceptance

    def test_draws_happen_in_this_process(self, monkeypatch):
        # a wrapper on the module global sees every draw at any worker count
        calls = []
        lock = threading.Lock()

        def counting(p, rng, size):
            with lock:
                calls[-1] += 1
            return sample_beta(p, rng, size=size)

        monkeypatch.setattr(calibrator, "sample_beta", counting)
        cfg = CalibrationConfig(n_sim=2000, k_reps=6, seed=12)
        for workers in (1, 2):
            calls.append(0)
            calibrate(self.make_post(), cfg, workers=workers)
        assert calls[0] > 0
        assert calls[1] == calls[0]

    def test_repeat_run_bit_identical(self):
        cfg = CalibrationConfig(n_sim=2000, k_reps=4, seed=33)
        a = calibrate(self.make_post(), cfg)
        b = calibrate(self.make_post(), cfg)
        assert a.grade_means == b.grade_means
        assert np.array_equal(a.sweep_means, b.sweep_means)

    def test_single_rep_degenerate_quantiles(self):
        cfg = CalibrationConfig(n_sim=2000, k_reps=1, seed=2)
        res = calibrate(self.make_post(), cfg)
        assert res.grade_means == res.grade_medians == res.ci_lower == res.ci_upper
        assert res.mc_se == (None,) * len(res.grade_means)

    def test_quantile_ordering_and_monotone_means(self):
        cfg = CalibrationConfig(n_sim=2000, k_reps=12, seed=5)
        res = calibrate(self.make_post(), cfg)
        for lo, med, hi in zip(res.ci_lower, res.grade_medians, res.ci_upper):
            assert lo <= med <= hi
        assert all(a <= b for a, b in zip(res.grade_means, res.grade_means[1:]))

    @pytest.mark.parametrize("k_reps", [*range(1, 13), 300])
    def test_median_and_ci_match_numpy(self, k_reps):
        post = portfolio(BetaParams(3, 97), BetaParams(5, 95))
        for ci_level in (0.5, 0.8, 0.9, 0.95, 0.99):
            res = calibrate(post, CalibrationConfig(n_sim=1000, k_reps=k_reps, seed=k_reps,
                                                    ci_level=ci_level))
            tail = (1.0 - ci_level) / 2.0
            for got, want in ((res.grade_medians, np.median(res.sweep_means, axis=0)),
                              (res.ci_lower, np.quantile(res.sweep_means, tail, axis=0)),
                              (res.ci_upper, np.quantile(res.sweep_means, 1.0 - tail, axis=0))):
                assert got == tuple(float(v) for v in want)

    def test_error_annotated_with_repetition(self):
        post = portfolio(BetaParams(5001, 5001), BetaParams(1, 10001))
        cfg = CalibrationConfig(n_sim=1000, k_reps=2, seed=1)
        with pytest.raises(InsufficientAcceptanceError, match="repetition 0"):
            calibrate(post, cfg)

    def test_ci_width_shrinks_with_more_reps(self):
        # standard error of the mean-of-means should halve from 300 to 1200 reps
        post = portfolio(BetaParams(3, 97), BetaParams(5, 95))
        small = calibrate(post, CalibrationConfig(n_sim=1000, k_reps=300, seed=21))
        large = calibrate(post, CalibrationConfig(n_sim=1000, k_reps=1200, seed=21))
        for se_small, se_large in zip(small.mc_se, large.mc_se):
            assert se_small / se_large == pytest.approx(2.0, rel=0.25)

    def test_ci_width_is_monte_carlo_noise(self, snapshot_2017):
        # ci_lo/ci_hi are the spread of the repetition means, so at 4x the n_sim the width
        # should about halve: a ratio near 1 would not shrink, one near 4 would go like 1/n_sim
        post = compute_posterior(snapshot_2017)
        widths = [np.subtract(res.ci_upper, res.ci_lower) for res in (
            calibrate(post, CalibrationConfig(n_sim=n_sim, k_reps=40, seed=11),
                      workers=os.cpu_count() or 1) for n_sim in (20_000, 80_000))]
        assert 1.5 <= float(np.median(widths[0] / widths[1])) <= 3.2


class TestHistograms:
    def test_degenerate_single_bin(self):
        (hist,) = export_histograms(np.full((300, 1), 0.05))
        assert hist == ((0.05, 0.05), (300,))

    def test_counts_conserved(self):
        rng = np.random.default_rng(8)
        for edges, counts in export_histograms(rng.uniform(0.01, 0.09, size=(300, 2))):
            assert sum(counts) == 300
            assert len(counts) == calibrator._HIST_BINS
            assert len(edges) == len(counts) + 1

    def test_span_covers_all_values(self):
        rng = np.random.default_rng(9)
        matrix = rng.normal(0.1, 0.005, size=(200, 1)).clip(0.01, 0.99)
        ((edges, _),) = export_histograms(matrix)
        assert edges[0] == pytest.approx(matrix.min())
        assert edges[-1] == pytest.approx(matrix.max())
