"""Benchmark PDs and central-tendency scaling for method comparison tables.

Implements the Pluto & Tasche (2005) most-prudent estimation: grade i is
assigned the largest default probability still compatible, at the chosen
confidence level, with the defaults observed in the pooled cohort of grade
i and everything worse.  That PD is the upper Clopper-Pearson bound, a
quantile of Beta(D + 1, N - D) for the pooled counts; every grade's
quantile comes from one elementwise safeguarded Newton solve on the
binomial tail.  All method columns are put on a common footing by
scaling each one so its count-weighted average equals the portfolio
central tendency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calibrator import CalibrationResult
from .cohorts import CohortSnapshot
from .csvio import CohortError, read_rows
from .statdist import binomial_tail_le, log_beta, solve_monotone

__all__ = [
    "PTConfig",
    "ScaledComparison",
    "central_tendency",
    "pluto_tasche",
    "scale_to_ct",
    "build_comparison",
    "parse_external_csv",
]

EXTERNAL_HEADER = ("grade_order", "method_name", "pd")

_THETA_LO = 1e-12
_THETA_HI = 1.0 - 1e-12


@dataclass(frozen=True)
class PTConfig:
    """Most-prudent estimation settings."""

    confidence: float = 0.75
    enforce_monotone: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence}")


@dataclass(frozen=True)
class ScaledComparison:
    """Per-grade PDs from several methods, all scaled to the central tendency."""

    labels: tuple[str, ...]
    grade_orders: tuple[int, ...]
    central_tendency: float
    columns: dict[str, tuple[float, ...]]
    total_performing: int
    total_defaults: int


def central_tendency(snapshot: CohortSnapshot) -> float:
    """Portfolio average default rate over the non-default grades."""
    n = snapshot.total_performing
    if n == 0:
        raise ValueError(f"period {snapshot.period}: empty portfolio")
    return snapshot.total_defaults / n


def pluto_tasche(snapshot: CohortSnapshot, cfg: PTConfig = PTConfig()) -> list[float]:
    """Most-prudent per-grade PDs from cumulated counts.

    Grade i pools the counts of grades i..m (toward the worst grade) and
    takes the upper confidence bound: the largest theta with
    P(X <= D_i | N_i, theta) >= 1 - confidence, i.e. the ``confidence``
    quantile of Beta(D_i + 1, N_i - D_i).  When the pooled defaults equal
    the pooled cohort the bound is 1.  All other grades are solved together
    by one safeguarded Newton iteration on the binomial tail, whose
    derivative in theta is minus that beta density; each grade starts at
    the beta mean and stops on a relative step of 1e-12.  With
    ``enforce_monotone`` a running maximum is applied from best to worst.
    """
    grades = snapshot.grades[::-1]
    n_pool = np.cumsum([g.performing_start for g in grades])[::-1]
    d_pool = np.cumsum([g.defaults_end for g in grades])[::-1]
    solved = (n_pool > 0) & (d_pool < n_pool)
    n, d = n_pool[solved], d_pool[solved]
    log_norm = log_beta(d + 1.0, n - d)

    def tail_slope(theta):
        # d/dtheta P(X <= d | n, theta) = -(Beta(d + 1, n - d) density at theta)
        return -np.exp(d * np.log(theta) + (n - d - 1) * np.log1p(-theta) - log_norm)

    pds = np.ones(len(n_pool))
    pds[solved] = solve_monotone(
        lambda theta: binomial_tail_le(n, d, theta), 1.0 - cfg.confidence,
        _THETA_LO, _THETA_HI, tol=1e-12, fprime=tail_slope, x0=(d + 1.0) / (n + 1.0))
    if cfg.enforce_monotone:
        pds = np.maximum.accumulate(pds)
    return pds.tolist()


def scale_to_ct(pds: Sequence[float], snapshot: CohortSnapshot) -> list[float]:
    """Rescale PDs so their count-weighted average equals the central tendency.

    Multiplicative, so relative ordering is preserved, and invariant to a
    positive rescaling of the input vector: ``c * pds`` gives the same result.
    """
    if len(pds) != len(snapshot.grades):
        raise ValueError(
            f"PD vector has {len(pds)} entries but snapshot has {len(snapshot.grades)} grades")
    ct = central_tendency(snapshot)
    weights = [g.performing_start for g in snapshot.grades]
    total = sum(weights)
    weighted_mean = sum(w * pd for w, pd in zip(weights, pds)) / total
    if weighted_mean <= 0.0:
        raise ValueError("cannot scale an all-zero PD vector")
    factor = ct / weighted_mean
    return [pd * factor for pd in pds]


def build_comparison(
    snapshot: CohortSnapshot,
    calib: CalibrationResult | Sequence[float],
    pt_pds: Sequence[float],
    external: dict[str, Sequence[float]] | None = None,
) -> ScaledComparison:
    """Assemble a scaled comparison table: simulated, most-prudent, externals.

    ``calib`` may be a CalibrationResult or a plain per-grade mean vector.
    External columns (PDs transcribed from other methods) pass through the
    identical scaling.  Column lengths are validated by name.
    """
    simulated = list(calib.grade_means) if isinstance(calib, CalibrationResult) else list(calib)
    raw_columns: dict[str, Sequence[float]] = {"simulated": simulated, "pluto_tasche": list(pt_pds)}
    for name, col in (external or {}).items():
        raw_columns[name] = list(col)
    m = len(snapshot.grades)
    columns: dict[str, tuple[float, ...]] = {}
    for name, col in raw_columns.items():
        if len(col) != m:
            raise ValueError(f"column {name!r} has {len(col)} entries, expected {m}")
        columns[name] = tuple(scale_to_ct(col, snapshot))
    return ScaledComparison(
        labels=snapshot.labels,
        grade_orders=tuple(g.order for g in snapshot.grades),
        central_tendency=central_tendency(snapshot),
        columns=columns,
        total_performing=snapshot.total_performing,
        total_defaults=snapshot.total_defaults,
    )


def parse_external_csv(source) -> dict[str, dict[int, float]]:
    """Read external method columns from `grade_order,method_name,pd` rows.

    Returns method name -> {grade_order: pd}; alignment with a snapshot's
    grade orders happens at comparison time.
    """
    methods: dict[str, dict[int, float]] = {}

    def convert(cells: list[str]) -> None:
        order, name, pd = int(cells[0]), cells[1], float(cells[2])
        if not name:
            raise ValueError("empty method name")
        column = methods.setdefault(name, {})
        if order in column:
            raise ValueError(f"duplicate grade order {order} for {name!r}")
        column[order] = pd

    read_rows(source, EXTERNAL_HEADER, convert)
    if not methods:
        raise CohortError("no external method rows found")
    return methods


def align_external(methods: dict[str, dict[int, float]], snapshot: CohortSnapshot) -> dict[str, list[float]]:
    """Order external columns along the snapshot's grades, erroring by name."""
    aligned: dict[str, list[float]] = {}
    for name, column in methods.items():
        values = []
        for g in snapshot.grades:
            if g.order not in column:
                raise ValueError(f"column {name!r}: missing grade order {g.order}")
            values.append(column[g.order])
        aligned[name] = values
    return aligned
