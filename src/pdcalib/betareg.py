"""Unit-interval regression on a logit link for projecting calibrated PDs.

Once historical periods have calibrated means, those means can be related
to exogenous variables (macro factors and the like) so PDs can be
predicted for periods without default data.  The response is treated as
beta distributed with mean inverse-link(linear predictor); fitting is
plain least squares on the link scale, the smallest estimator that is
exact whenever the data sit on the link surface.  The link is always
``LINK``.  The dispersion is moment matched and only reported (in
``model.json``); it never shapes the predicted mean.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce
from itertools import chain, filterfalse
from operator import add, mul

from .csvio import CohortError, bare_cell, finite_row, read_rows

__all__ = ["LINK", "RegressionModel", "fit", "predict_mean", "parse_history_csv",
           "parse_newdata_csv", "logit", "inv_logit"]

LINK = "logit"

_MU_CLIP = 1e-15
_PRECISION_CAP = 1e12
_PRECISION_FLOOR = 1e-6


def logit(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError(f"logit argument must lie in (0, 1), got {p}")
    return math.log(p / (1.0 - p))


def inv_logit(z: float) -> float:
    # evaluate the saturating side with exp(-|z|) to avoid overflow
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


class RegressionModel(namedtuple("RegressionModel", "intercept coefficients precision")):
    """Intercept, slope coefficients and beta dispersion."""

    __slots__ = ()

    def __new__(cls, intercept: float, coefficients: tuple[float, ...],
                precision: float = 1.0) -> RegressionModel:
        if not precision > 0.0:
            raise ValueError(f"precision must be positive, got {precision}")
        return super().__new__(cls, intercept, tuple(map(float, coefficients)), precision)


def predict_mean(model: RegressionModel, y) -> list[float]:
    """Predicted means inv_logit(intercept + sum(coef * y)), one per row of ``y``.

    A row's products are added in coefficient order from 0.0, then the
    intercept, so a mean does not depend on the rows around it.  Each mean is
    clipped a hair inside (0, 1), so that ``fit`` accepts it back as history.
    """
    lo, hi = _MU_CLIP, 1.0 - _MU_CLIP
    return [lo if mu < lo else hi if mu > hi else mu
            for mu in _means(model, _regressors(y, len(model.coefficients)))]


def fit(y, mu) -> RegressionModel:
    """Least-squares fit of link(mu) on the regressors.

    ``y`` holds n rows of k regressor values and ``mu`` the n calibrated
    means, all strictly in (0, 1); the design must have full column rank.
    Data on the link surface is recovered exactly.  The dispersion is moment
    matched from the response-scale residual variance, capped for an exact fit.
    """
    rows, mu = _regressors(y), list(map(float, mu))
    n = len(rows)
    if len(mu) != n:
        raise ValueError(f"{len(mu)} means for {n} regressor rows")
    if not n:
        raise ValueError("history is empty")
    outside = [v for v in mu if not 0.0 < v < 1.0]
    if outside:
        raise ValueError(f"calibrated mean must lie in (0, 1), got {outside[0]}")
    k = len(rows[0])
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} observations for {k} regressors, got {n}")
    intercept, *coefficients = _least_squares([[1.0] * n, *map(list, zip(*rows))],
                                              [logit(v) for v in mu])
    fitted = _means(RegressionModel(intercept, coefficients), rows)
    residual_var = math.fsum((m - f) ** 2 for m, f in zip(mu, fitted)) / n
    mean_bernoulli_var = math.fsum(f * (1.0 - f) for f in fitted) / n
    exact = residual_var < 1e-18 * max(mean_bernoulli_var, 1e-30)
    precision = _PRECISION_CAP if exact else min(
        max(mean_bernoulli_var / residual_var - 1.0, _PRECISION_FLOOR), _PRECISION_CAP)
    return RegressionModel(intercept, coefficients, precision)


def _least_squares(columns: list[list[float]], b: list[float]) -> list[float]:
    """The x minimising |A x - b| for the n x p matrix A of ``columns``, n >= p, by
    Householder QR with exact (``math.fsum``) dot products.  Rank-deficient, as by
    ``numpy.linalg.lstsq``'s default cutoff, when min|R_jj| <= max|R_jj| n 2**-52."""
    rest, r = [*columns, b], []  # rest: the columns from j on and b, rows j..n-1
    for _ in columns:
        x, *rest = rest
        norm = math.hypot(*x)
        alpha = -math.copysign(norm, x[0])
        v = [x[0] - alpha, *x[1:]]  # I - v v^T / half maps x to alpha e_1, half = v^T v / 2
        half = norm * (norm + abs(x[0])) or 1.0  # a zero column stays zero
        dots = [math.fsum(map(mul, v, c)) / half for c in rest]
        rest = [[ci - f * vi for ci, vi in zip(c, v)] for c, f in zip(rest, dots)]
        r.append([alpha, *(c.pop(0) for c in rest)])  # row j of R, then (Q^T b)_j
    diagonal = [abs(row[0]) for row in r]
    if min(diagonal) <= max(diagonal) * len(b) * 2.0 ** -52:
        raise ValueError("rank-deficient design: regressors are collinear or constant")
    solution: list[float] = []
    for row in reversed(r):
        solution.insert(0, (row[-1] - math.fsum(map(mul, row[1:-1], solution))) / row[0])
    return solution


def _means(model: RegressionModel, rows: list[tuple[float, ...]]) -> list[float]:
    """inv_logit(the row's products added in order from 0.0, plus the intercept), per row."""
    return [inv_logit(reduce(add, map(mul, model.coefficients, row), 0.0) + model.intercept)
            for row in rows]


def _regressors(y, k: int | None = None) -> list[tuple[float, ...]]:
    """``y`` as tuples; ValueError unless each row holds k finite numbers, or as
    many as the first row when ``k`` is None."""
    try:
        rows = list(map(tuple, y))
        bad = list(filterfalse(math.isfinite, chain.from_iterable(rows)))
    except TypeError:
        raise ValueError("regressors must be rows of numbers") from None
    if bad:
        raise ValueError(f"regressors must be finite, got {bad[0]}")
    k = len(rows[0]) if k is None and rows else k
    wrong = [len(row) for row in rows if len(row) != k]
    if wrong:
        raise ValueError(f"regressor rows have {wrong[0]} entries, model expects {k}")
    return rows


def parse_history_csv(source) -> tuple[list[tuple[float, ...]], list[float]]:
    """Read fitting history from `period,mu,y1,...,yk` rows.

    Returns (n regressor rows, n means); the periods only label the rows.
    ``k`` may be zero (an intercept-only model).  Every number must be finite.
    """
    rows = read_rows(source, lambda w: ("period", "mu", *(f"y{i}" for i in range(1, w - 1))),
                     lambda cells: finite_row(cells[1:]))
    if not rows:
        raise CohortError("history has no data rows")
    return [row[1:] for row in rows], [row[0] for row in rows]


def parse_newdata_csv(source, k: int) -> tuple[list[str], list[tuple[float, ...]]]:
    """Read regressor rows to predict from `period,y1,...,yk` rows.

    Returns (period labels, n regressor rows); zero rows is fine.  A period
    is written into predictions.csv, so it must need no CSV quoting.
    """
    rows = read_rows(source, ("period", *(f"y{i}" for i in range(1, k + 1))),
                     lambda cells: (bare_cell(cells[0], "period"), finite_row(cells[1:])))
    return [period for period, _ in rows], [y for _, y in rows]
