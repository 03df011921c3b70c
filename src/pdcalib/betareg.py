"""Unit-interval regression on a logit link for projecting calibrated PDs.

Once historical periods have calibrated means, those means can be related
to exogenous variables (macro factors and the like) so PDs can be
predicted for periods without default data.  The response is treated as
beta distributed with mean inverse-link(linear predictor); fitting is
plain least squares on the link scale, the smallest estimator that is
exact whenever the data sit on the link surface.  The link is always
``LINK``.  The dispersion is moment matched and only reported (in
``model.json``); it never shapes the predicted mean.

``fit`` and ``predict_mean`` work on an n x k float array of regressor
rows, as ``parse_history_csv`` and ``parse_newdata_csv`` return it; only
the link functions run per value, on ``math``, so a fitted model and
its predictions do not change with numpy's vectorised ``log``/``exp``.
A function imports numpy when called, so importing the module loads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .csvio import CohortError, bare_cell, finite_row, read_rows

if TYPE_CHECKING:
    import numpy as np

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


@dataclass(frozen=True)
class RegressionModel:
    """Intercept, slope coefficients and beta dispersion."""

    intercept: float
    coefficients: tuple[float, ...]
    precision: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if not self.precision > 0.0:
            raise ValueError(f"precision must be positive, got {self.precision}")


def predict_mean(model: RegressionModel, y) -> np.ndarray:
    """Predicted means inv_logit(intercept + sum(coef * y)), one per row of ``y``.

    ``y`` is an n x k array of regressor rows.  The linear predictor is
    summed column by column in coefficient order from 0.0, then the
    intercept is added, and ``inv_logit`` runs on each value with
    ``math.exp``, so a mean does not depend on how many rows come with it.
    Each mean is clipped a hair inside (0, 1), so even a saturating
    predictor gives a mean that ``fit`` accepts back as history.
    """
    import numpy as np
    y = _regressors(y)
    if y.shape[1] != len(model.coefficients):
        raise ValueError(f"regressor rows have {y.shape[1]} entries, "
                         f"model expects {len(model.coefficients)}")
    z = np.zeros(len(y))
    for j, c in enumerate(model.coefficients):
        z += c * y[:, j]
    z += model.intercept
    return np.clip([inv_logit(v) for v in z.tolist()], _MU_CLIP, 1.0 - _MU_CLIP)


def fit(y, mu) -> RegressionModel:
    """Least-squares fit of link(mu) on the regressors.

    ``y`` is an n x k array of regressor rows and ``mu`` the n calibrated
    means, all strictly in (0, 1); the design must have full column rank.
    Data generated exactly on the link surface is recovered exactly.  The
    dispersion is moment matched from the response-scale residual
    variance and capped when the fit is (numerically) exact.
    """
    import numpy as np
    y = _regressors(y)
    mu = np.asarray(mu, dtype=np.float64)
    n, k = y.shape
    if mu.shape != (n,):
        raise ValueError(f"{mu.size} means for {n} regressor rows")
    if not n:
        raise ValueError("history is empty")
    outside = (mu <= 0.0) | (mu >= 1.0)
    if outside.any():
        raise ValueError(f"calibrated mean must lie in (0, 1), got {mu[outside][0]}")
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} observations for {k} regressors, got {n}")
    design = np.column_stack((np.ones(n), y))
    target = np.array([logit(v) for v in mu.tolist()])
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise ValueError("rank-deficient design: regressors are collinear or constant")
    fitted_mu = np.array([inv_logit(v) for v in (design @ coef).tolist()])
    residual_var = float(np.mean((mu - fitted_mu) ** 2))
    mean_bernoulli_var = float(np.mean(fitted_mu * (1.0 - fitted_mu)))
    if residual_var < 1e-18 * max(mean_bernoulli_var, 1e-30):
        precision = _PRECISION_CAP
    else:
        precision = min(max(mean_bernoulli_var / residual_var - 1.0, _PRECISION_FLOOR),
                        _PRECISION_CAP)
    return RegressionModel(
        intercept=float(coef[0]),
        coefficients=tuple(float(c) for c in coef[1:]),
        precision=precision,
    )


def _regressors(y) -> np.ndarray:
    import numpy as np
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError(f"regressors must be an n x k array, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError(f"regressors must be finite, got {y[~np.isfinite(y)][0]}")
    return y


def parse_history_csv(source) -> tuple[np.ndarray, np.ndarray]:
    """Read fitting history from `period,mu,y1,...,yk` rows.

    Returns (n x k regressor array, n means); the periods only label the
    rows.  ``k`` may be zero (an intercept-only model).  Every number must
    be finite.
    """
    import numpy as np

    def header(width: int) -> tuple[str, ...]:
        return ("period", "mu", *(f"y{i}" for i in range(1, width - 1)))

    rows = read_rows(source, header, lambda cells: finite_row(cells[1:]))
    if not rows:
        raise CohortError("history has no data rows")
    table = np.array(rows)
    return table[:, 1:], table[:, 0]


def parse_newdata_csv(source, k: int) -> tuple[list[str], np.ndarray]:
    """Read regressor rows to predict from `period,y1,...,yk` rows.

    Returns (period labels, n x k regressor array); zero rows is fine.  A
    period is written into predictions.csv, so it must need no CSV quoting.
    """
    import numpy as np
    header = ("period", *(f"y{i}" for i in range(1, k + 1)))
    rows = read_rows(source, header,
                     lambda cells: (bare_cell(cells[0], "period"), finite_row(cells[1:])))
    return ([period for period, _ in rows],
            np.array([y for _, y in rows], dtype=np.float64).reshape(len(rows), k))
