"""Per-grade beta posteriors for the default-rate parameter.

With the flat Beta(1, 1) prior and an observed cohort of n performing
entities of which d defaulted, the conjugate update gives
Beta(1 + d, 1 + n - d); a grade without data keeps the prior.  Grades are
treated as independent, so the portfolio posterior is just the ordered
collection of per-grade distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohorts import CohortSnapshot
from .statdist import BetaParams

__all__ = ["GradePosterior", "PortfolioPosterior", "compute_posterior"]


@dataclass(frozen=True)
class GradePosterior:
    label: str
    params: BetaParams
    performing_start: int
    defaults_end: int


@dataclass(frozen=True)
class PortfolioPosterior:
    """Ordered per-grade posteriors, best credit quality first."""

    grades: tuple[GradePosterior, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "grades", tuple(self.grades))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(g.label for g in self.grades)


def compute_posterior(snapshot: CohortSnapshot) -> PortfolioPosterior:
    """Posterior Beta(1 + d, 1 + n - d) for every grade in the snapshot."""
    grades = tuple(
        GradePosterior(
            label=g.label,
            params=BetaParams(1.0 + g.defaults_end, 1.0 + g.performing_start - g.defaults_end),
            performing_start=g.performing_start,
            defaults_end=g.defaults_end,
        )
        for g in snapshot.grades)
    return PortfolioPosterior(grades)
