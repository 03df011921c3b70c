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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .csvio import CohortError, finite, read_rows

__all__ = ["LINK", "RegressionModel", "fit", "predict_mean", "parse_history_csv", "logit",
           "inv_logit"]

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


def predict_mean(model: RegressionModel, y: Sequence[float]) -> float:
    """Predicted mean inv_logit(intercept + sum(coef * y)) for one regressor vector.

    The mean is clipped a hair inside (0, 1), so even a saturating
    predictor gives a mean that ``fit`` accepts back as history.
    """
    if len(y) != len(model.coefficients):
        raise ValueError(
            f"regressor vector has {len(y)} entries, model expects {len(model.coefficients)}")
    z = model.intercept + sum(c * float(v) for c, v in zip(model.coefficients, y))
    return min(max(inv_logit(z), _MU_CLIP), 1.0 - _MU_CLIP)


def fit(history: Sequence[tuple[Sequence[float], float]]) -> RegressionModel:
    """Least-squares fit of link(mu) on the regressors.

    ``history`` holds (regressor vector, calibrated mean) pairs; all means
    must lie strictly in (0, 1) and the design must have full column rank.
    Data generated exactly on the link surface is recovered exactly.  The
    dispersion is moment matched from the response-scale residual
    variance and capped when the fit is (numerically) exact.
    """
    if not history:
        raise ValueError("history is empty")
    k = len(history[0][0])
    rows = []
    z = []
    for y_vec, mu in history:
        if len(y_vec) != k:
            raise ValueError("inconsistent regressor vector lengths in history")
        if not 0.0 < mu < 1.0:
            raise ValueError(f"calibrated mean must lie in (0, 1), got {mu}")
        rows.append([1.0, *(float(v) for v in y_vec)])
        z.append(logit(mu))
    if len(rows) < k + 1:
        raise ValueError(f"need at least {k + 1} observations for {k} regressors, got {len(rows)}")
    design = np.array(rows)
    target = np.array(z)
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise ValueError("rank-deficient design: regressors are collinear or constant")
    fitted_mu = np.array([inv_logit(v) for v in design @ coef])
    observed_mu = np.array([mu for _, mu in history])
    residual_var = float(np.mean((observed_mu - fitted_mu) ** 2))
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


def parse_history_csv(source) -> tuple[list[str], list[tuple[tuple[float, ...], float]]]:
    """Read fitting history from `period,mu,y1,...,yk` rows.

    Returns (period labels, [(regressor vector, mu), ...]).  ``k`` may be
    zero (an intercept-only model).  Every number must be finite.
    """
    def header(width: int) -> tuple[str, ...]:
        return ("period", "mu", *(f"y{i}" for i in range(1, width - 1)))

    periods: list[str] = []

    def convert(cells: list[str]) -> tuple[tuple[float, ...], float]:
        periods.append(cells[0])
        return tuple(finite(c) for c in cells[2:]), finite(cells[1])

    history = read_rows(source, header, convert)
    if not history:
        raise CohortError("history has no data rows")
    return periods, history
