import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pdcalib.betareg import (RegressionModel, fit, inv_logit, logit, parse_history_csv,
                             parse_newdata_csv, predict_mean)

NO_REGRESSORS = [()]


def exact_least_squares(rows, b):
    """argmin |A x - b| for A's ``rows``: the normal equations in exact rationals, by
    Gauss-Jordan elimination, rounded to floats at the end."""
    a = [[Fraction(v) for v in row] for row in rows]
    rhs = [Fraction(v) for v in b]
    p = len(a[0])
    m = [[sum(r[i] * r[j] for r in a) for j in range(p)]
         + [sum(r[i] * t for r, t in zip(a, rhs))] for i in range(p)]
    for i in range(p):
        m[i] = [v / m[i][i] for v in m[i]]
        for r in range(p):
            if r != i:
                m[r] = [v - m[r][i] * w for v, w in zip(m[r], m[i])]
    return [float(row[p]) for row in m]


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
        with pytest.raises(ValueError, match="rows of numbers"):
            predict_mean(RegressionModel(0.0, (1.0,)), [1.0])

    def test_monotone_in_positive_coefficient(self):
        model = RegressionModel(-1.0, (0.8,))
        values = predict_mean(model, [[-5.0 + 0.25 * i] for i in range(41)])
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_equals_the_row_by_row_sum(self):
        # each row's products added in coefficient order from 0.0, then the intercept, bit for
        # bit; a loop, since the builtin sum() of floats is compensated from Python 3.12 on
        model = RegressionModel(-2.5, (0.3, -1.1, 0.7))
        y = np.random.default_rng(17).uniform(-3, 3, size=(50, 3)).tolist()
        want = []
        for row in y:
            z = 0.0
            for c, v in zip(model.coefficients, row):
                z += c * v
            want.append(inv_logit(model.intercept + z))
        assert predict_mean(model, y) == want

    def test_no_rows(self):
        assert predict_mean(RegressionModel(-1.0, (0.8,)), []) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
class TestNonFiniteRegressors:
    # a non-finite regressor is refused before any arithmetic, and nothing reaches the
    # process stderr
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
        ys = rng.uniform(-2, 2, size=20).tolist()
        model = fit([[y] for y in ys], [inv_logit(-4.0 + 0.8 * y) for y in ys])
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
        y = [(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))) for _ in range(25)]
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

    @pytest.mark.parametrize("seed", range(5))
    def test_collinear_regressors_are_rank_deficient(self, seed):
        rng = random.Random(seed)
        y1 = [rng.uniform(-3.0, 3.0) for _ in range(12)]
        with pytest.raises(ValueError, match="rank-deficient"):
            fit([(v, 2.0 * v) for v in y1], [rng.uniform(0.01, 0.3) for _ in y1])

    def test_matches_exact_least_squares(self):
        # 100 random designs, columns scaled by 1e-3..1e3, against the normal equations
        # solved in exact rational arithmetic on the same link-scale targets
        rng = random.Random(2024)
        for _ in range(100):
            n, k = rng.randint(4, 40), rng.randint(0, 3)
            scales = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(k)]
            y = [tuple(s * rng.uniform(-1.0, 1.0) for s in scales) for _ in range(n)]
            mu = [rng.uniform(0.001, 0.5) for _ in range(n)]
            model = fit(y, mu)
            want = exact_least_squares([(1.0, *row) for row in y], [logit(v) for v in mu])
            got = (model.intercept, *model.coefficients)
            largest = max(map(abs, want))
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-13 * largest, (n, k)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_logit_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match=r"logit argument must lie in \(0, 1\)"):
            logit(p)

    def test_mu_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            fit([[0.0], [1.0]], [1.0, 0.5])

    def test_too_few_observations(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit([[1.0]], [0.2])

    def test_rows_of_one_length(self):
        with pytest.raises(ValueError, match="have 2 entries, model expects 1"):
            fit([[0.0], [1.0, 2.0], [2.0]], [0.1, 0.2, 0.3])

    def test_means_must_match_rows(self):
        with pytest.raises(ValueError, match="2 means for 3 regressor rows"):
            fit([[0.0], [1.0], [2.0]], [0.1, 0.2])

    def test_empty_history(self):
        with pytest.raises(ValueError, match="history is empty"):
            fit([], [])


class TestHistoryCsv:
    def test_parse(self, csv_file):
        y, mu = parse_history_csv(csv_file(
            "period,mu,y1,y2\n2016,0.1077,0.0,1.0\n2017,0.0847,1.0,-0.5\n"))
        assert y == [(0.0, 1.0), (1.0, -0.5)]
        assert mu == [0.1077, 0.0847]

    def test_intercept_only_history(self, csv_file):
        y, mu = parse_history_csv(csv_file("period,mu\n2016,0.5\n"))
        assert y == [()]
        assert mu == [0.5]

    def test_bad_header(self, csv_file):
        with pytest.raises(ValueError, match="expected header"):
            parse_history_csv(csv_file("time,mu\n2016,0.5\n"))

    def test_malformed_value(self, csv_file):
        with pytest.raises(ValueError, match="line 2"):
            parse_history_csv(csv_file("period,mu,y1\n2016,zzz,1.0\n"))


class TestNewdataCsv:
    def test_parse(self, csv_file):
        periods, y = parse_newdata_csv(csv_file("period,y1,y2\n2018,0.5,-1\n2019,2,3\n"), 2)
        assert periods == ["2018", "2019"]
        assert y == [(0.5, -1.0), (2.0, 3.0)]

    def test_no_rows(self, csv_file):
        periods, y = parse_newdata_csv(csv_file("period,y1\n"), 1)
        assert periods == [] and y == []

    def test_header_follows_the_model(self, csv_file):
        with pytest.raises(ValueError, match="expected header period,y1,y2"):
            parse_newdata_csv(csv_file("period,y1\n2018,0.5\n"), 2)
