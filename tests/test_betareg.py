import io
import math

import numpy as np
import pytest

from pdcalib.betareg import (RegressionModel, fit, inv_logit, logit, parse_history_csv,
                             parse_newdata_csv, predict_mean)

NO_REGRESSORS = np.empty((1, 0))


class TestPredict:
    def test_zero_intercept_no_regressors(self):
        (mu,) = predict_mean(RegressionModel(0.0, ()), NO_REGRESSORS)
        assert mu == pytest.approx(0.5, abs=1e-15)

    def test_negative_intercept(self):
        (mu,) = predict_mean(RegressionModel(-3.0, ()), NO_REGRESSORS)
        assert mu == pytest.approx(1.0 / (1.0 + math.exp(3.0)), rel=1e-12)

    def test_linear_predictor_combines(self):
        (mu,) = predict_mean(RegressionModel(-4.0, (0.5,)), [[2.0]])
        assert mu == pytest.approx(1.0 / (1.0 + math.exp(3.0)), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="expects 1"):
            predict_mean(RegressionModel(0.0, (1.0,)), [[1.0, 2.0]])

    def test_needs_a_two_dimensional_array(self):
        with pytest.raises(ValueError, match="n x k array"):
            predict_mean(RegressionModel(0.0, (1.0,)), [1.0])

    def test_monotone_in_positive_coefficient(self):
        model = RegressionModel(-1.0, (0.8,))
        values = predict_mean(model, np.linspace(-5, 5, 41)[:, None])
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_equals_the_row_by_row_sum(self):
        # the scalar loop predict_mean ran before it took arrays, bit for bit
        model = RegressionModel(-2.5, (0.3, -1.1, 0.7))
        y = np.random.default_rng(17).uniform(-3, 3, size=(50, 3))
        want = [inv_logit(model.intercept + sum(c * v for c, v in zip(model.coefficients, row)))
                for row in y.tolist()]
        assert predict_mean(model, y).tolist() == want

    def test_no_rows(self):
        assert predict_mean(RegressionModel(-1.0, (0.8,)), np.empty((0, 1))).shape == (0,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
class TestNonFiniteRegressors:
    # LAPACK would print DLASCL complaints to the process stderr on a nan design
    def test_fit_rejects(self, bad, capfd):
        with pytest.raises(ValueError, match="regressors must be finite"):
            fit([[bad], [1.0], [2.0]], [0.1, 0.2, 0.3])
        assert capfd.readouterr().err == ""

    def test_predict_rejects(self, bad, capfd):
        with pytest.raises(ValueError, match="regressors must be finite"):
            predict_mean(RegressionModel(0.0, (1.0,)), [[1.0], [bad]])
        assert capfd.readouterr().err == ""


class TestFit:
    def test_single_point_intercept_only(self):
        model = fit(NO_REGRESSORS, [0.5])
        assert model.intercept == pytest.approx(0.0, abs=1e-12)
        assert model.coefficients == ()

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(14)
        ys = rng.uniform(-2, 2, size=20)
        model = fit(ys[:, None], [inv_logit(-4.0 + 0.8 * y) for y in ys])
        assert model.intercept == pytest.approx(-4.0, abs=1e-8)
        assert model.coefficients[0] == pytest.approx(0.8, abs=1e-8)

    def test_two_point_exact_fit(self):
        # single indicator regressor: intercept and slope come out in closed form
        model = fit([[0.0], [1.0]], [0.1077, 0.0847])
        assert model.intercept == pytest.approx(logit(0.1077), abs=1e-10)
        assert model.coefficients[0] == pytest.approx(logit(0.0847) - logit(0.1077), abs=1e-10)

    def test_round_trip_on_link_surface(self):
        rng = np.random.default_rng(15)
        true = RegressionModel(-3.0, (0.4, -0.7))
        y = np.array([(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))) for _ in range(25)])
        mu = predict_mean(true, y)
        model = fit(y, mu)
        assert predict_mean(model, y) == pytest.approx(mu, abs=1e-8)

    def test_noisy_fit_precision_is_moderate(self):
        rng = np.random.default_rng(16)
        ys, mus = [], []
        for _ in range(60):
            y = float(rng.uniform(-2, 2))
            mu = inv_logit(-2.0 + 0.5 * y) + float(rng.normal(0, 0.01))
            ys.append([y])
            mus.append(float(np.clip(mu, 0.001, 0.999)))
        model = fit(ys, mus)
        assert 1.0 < model.precision < 1e7

    def test_rank_deficient(self):
        with pytest.raises(ValueError, match="rank-deficient"):
            fit([[1.0], [1.0], [1.0]], [0.1, 0.2, 0.3])

    def test_mu_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            fit([[0.0], [1.0]], [1.0, 0.5])

    def test_too_few_observations(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit([[1.0]], [0.2])

    def test_means_must_match_rows(self):
        with pytest.raises(ValueError, match="2 means for 3 regressor rows"):
            fit([[0.0], [1.0], [2.0]], [0.1, 0.2])


class TestHistoryCsv:
    def test_parse(self):
        y, mu = parse_history_csv(io.StringIO(
            "period,mu,y1,y2\n2016,0.1077,0.0,1.0\n2017,0.0847,1.0,-0.5\n"))
        assert y.tolist() == [[0.0, 1.0], [1.0, -0.5]]
        assert mu.tolist() == [0.1077, 0.0847]

    def test_intercept_only_history(self):
        y, mu = parse_history_csv(io.StringIO("period,mu\n2016,0.5\n"))
        assert y.shape == (1, 0)
        assert mu.tolist() == [0.5]

    def test_bad_header(self):
        with pytest.raises(ValueError, match="expected header"):
            parse_history_csv(io.StringIO("time,mu\n2016,0.5\n"))

    def test_malformed_value(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_history_csv(io.StringIO("period,mu,y1\n2016,zzz,1.0\n"))


class TestNewdataCsv:
    def test_parse(self):
        periods, y = parse_newdata_csv(io.StringIO("period,y1,y2\n2018,0.5,-1\n2019,2,3\n"), 2)
        assert periods == ["2018", "2019"]
        assert y.tolist() == [[0.5, -1.0], [2.0, 3.0]]

    def test_no_rows(self):
        periods, y = parse_newdata_csv(io.StringIO("period,y1\n"), 1)
        assert periods == [] and y.shape == (0, 1)

    def test_header_follows_the_model(self):
        with pytest.raises(ValueError, match="expected header period,y1,y2"):
            parse_newdata_csv(io.StringIO("period,y1\n2018,0.5\n"), 2)
