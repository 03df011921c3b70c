import io
import math

import numpy as np
import pytest

from pdcalib.betareg import (RegressionModel, fit, inv_logit, logit, parse_history_csv,
                             predict_mean)


class TestPredict:
    def test_zero_intercept_no_regressors(self):
        mu = predict_mean(RegressionModel(0.0, ()), [])
        assert mu == pytest.approx(0.5, abs=1e-15)

    def test_negative_intercept(self):
        mu = predict_mean(RegressionModel(-3.0, ()), [])
        assert mu == pytest.approx(1.0 / (1.0 + math.exp(3.0)), rel=1e-12)

    def test_linear_predictor_combines(self):
        mu = predict_mean(RegressionModel(-4.0, (0.5,)), [2.0])
        assert mu == pytest.approx(1.0 / (1.0 + math.exp(3.0)), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="expects 1"):
            predict_mean(RegressionModel(0.0, (1.0,)), [1.0, 2.0])

    def test_monotone_in_positive_coefficient(self):
        model = RegressionModel(-1.0, (0.8,))
        values = [predict_mean(model, [y]) for y in np.linspace(-5, 5, 41)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestFit:
    def test_single_point_intercept_only(self):
        model = fit([((), 0.5)])
        assert model.intercept == pytest.approx(0.0, abs=1e-12)
        assert model.coefficients == ()

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(14)
        ys = rng.uniform(-2, 2, size=20)
        history = [((float(y),), inv_logit(-4.0 + 0.8 * y)) for y in ys]
        model = fit(history)
        assert model.intercept == pytest.approx(-4.0, abs=1e-8)
        assert model.coefficients[0] == pytest.approx(0.8, abs=1e-8)

    def test_two_point_exact_fit(self):
        # single indicator regressor: intercept and slope come out in closed form
        history = [((0.0,), 0.1077), ((1.0,), 0.0847)]
        model = fit(history)
        assert model.intercept == pytest.approx(logit(0.1077), abs=1e-10)
        assert model.coefficients[0] == pytest.approx(logit(0.0847) - logit(0.1077), abs=1e-10)

    def test_round_trip_on_link_surface(self):
        rng = np.random.default_rng(15)
        true = RegressionModel(-3.0, (0.4, -0.7))
        history = []
        for _ in range(25):
            y = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            history.append((y, predict_mean(true, y)))
        model = fit(history)
        for y, mu in history:
            assert predict_mean(model, y) == pytest.approx(mu, abs=1e-8)

    def test_noisy_fit_precision_is_moderate(self):
        rng = np.random.default_rng(16)
        history = []
        for _ in range(60):
            y = float(rng.uniform(-2, 2))
            mu = inv_logit(-2.0 + 0.5 * y) + float(rng.normal(0, 0.01))
            history.append(((y,), float(np.clip(mu, 0.001, 0.999))))
        model = fit(history)
        assert 1.0 < model.precision < 1e7

    def test_rank_deficient(self):
        history = [((1.0,), 0.1), ((1.0,), 0.2), ((1.0,), 0.3)]
        with pytest.raises(ValueError, match="rank-deficient"):
            fit(history)

    def test_mu_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            fit([((0.0,), 1.0), ((1.0,), 0.5)])

    def test_too_few_observations(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit([((1.0,), 0.2)])


class TestHistoryCsv:
    def test_parse(self):
        periods, history = parse_history_csv(io.StringIO(
            "period,mu,y1,y2\n2016,0.1077,0.0,1.0\n2017,0.0847,1.0,-0.5\n"))
        assert periods == ["2016", "2017"]
        assert history[0] == ((0.0, 1.0), 0.1077)

    def test_intercept_only_history(self):
        _, history = parse_history_csv(io.StringIO("period,mu\n2016,0.5\n"))
        assert history == [((), 0.5)]

    def test_bad_header(self):
        with pytest.raises(ValueError, match="expected header"):
            parse_history_csv(io.StringIO("time,mu\n2016,0.5\n"))

    def test_malformed_value(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_history_csv(io.StringIO("period,mu,y1\n2016,zzz,1.0\n"))
