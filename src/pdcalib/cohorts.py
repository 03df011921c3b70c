"""Cohort count data: model, CSV ingestion, observed rates and posteriors.

Input CSV schema, in the shared dialect of ``csvio`` (UTF-8, header
first, blank and ``#`` lines ignored, errors named by line)::

    period,grade_order,grade_label,performing_start,defaults_end

One row per (period, grade).  ``grade_order`` is 1 for the best credit
quality.  A grade label is written bare into result files, so it must be
non-empty, need no CSV quoting and hold no control character.  A row
labelled ``C/D``, the default bucket, is validated and then dropped: the
default bucket is an absorbing state, not a calibratable grade.

With the flat Beta(1, 1) prior, a grade with n performing entities of
which d defaulted has the conjugate posterior Beta(1 + d, 1 + n - d); a
grade without data keeps the prior.  Grades are treated as independent,
so the portfolio posterior maps each label to its own, best grade first.
"""

from __future__ import annotations

from collections import namedtuple

from .csvio import CohortError, bare_cell, read_rows
from .statdist import BetaParams

COHORT_HEADER = ("period", "grade_order", "grade_label", "performing_start", "defaults_end")

DEFAULT_BUCKET_LABEL = "C/D"


class GradeCount(namedtuple("GradeCount", "order label performing_start defaults_end")):
    """Cohort counts for one grade: performing at period start, defaulted by period end."""

    __slots__ = ()

    def __new__(cls, order: int, label: str, performing_start: int,
                defaults_end: int) -> GradeCount:
        bare_cell(label, "grade label")
        if performing_start < 0 or defaults_end < 0:
            raise ValueError(f"grade {label}: counts must be nonnegative")
        if defaults_end > performing_start:
            raise ValueError(f"grade {label}: defaults exceed performing "
                             f"({defaults_end} > {performing_start})")
        return super().__new__(cls, order, label, performing_start, defaults_end)


class CohortSnapshot(namedtuple("CohortSnapshot", "period grades")):
    """All grade counts observed over one period, best grade first."""

    __slots__ = ()

    def __new__(cls, period: str, grades: tuple[GradeCount, ...]) -> CohortSnapshot:
        grades = tuple(grades)
        orders = [g.order for g in grades]
        if sorted(orders) != orders or len(set(orders)) != len(orders):
            raise ValueError(f"period {period}: grade orders must be strictly increasing")
        labels = [g.label for g in grades]
        if len(set(labels)) != len(labels):
            raise ValueError(f"period {period}: duplicate grade labels")
        return super().__new__(cls, period, grades)

    @property
    def total_performing(self) -> int:
        return sum(g.performing_start for g in self.grades)

    @property
    def total_defaults(self) -> int:
        return sum(g.defaults_end for g in self.grades)


def parse_cohort_csv(path) -> list[CohortSnapshot]:
    """Parse the cohort counts at ``path`` into one snapshot per period (sorted by label).

    Rows labelled ``DEFAULT_BUCKET_LABEL`` are validated then excluded.
    Raises CohortError with the offending line number on malformed rows,
    labels that need CSV quoting, duplicate (period, grade) pairs or grade
    orders, and counts that are negative or have defaults exceeding
    performing.
    """
    per_period: dict[str, dict[int, GradeCount]] = {}
    seen: set[tuple[str, str]] = set()

    def convert(cells: list[str]) -> None:
        period, label = cells[0], cells[2]
        grade = GradeCount(int(cells[1]), label, int(cells[3]), int(cells[4]))
        if (period, label) in seen:
            raise ValueError(f"duplicate (period, grade) pair ({period}, {label})")
        seen.add((period, label))
        if label == DEFAULT_BUCKET_LABEL:
            return  # absorbing state: accepted, never calibrated
        bucket = per_period.setdefault(period, {})
        if grade.order in bucket:
            raise ValueError(f"duplicate grade order {grade.order} in period {period}")
        bucket[grade.order] = grade

    read_rows(path, COHORT_HEADER, convert)
    snapshots = [CohortSnapshot(period, tuple(bucket[o] for o in sorted(bucket)))
                 for period, bucket in sorted(per_period.items())]
    if not snapshots:
        raise CohortError("no cohort rows found", source=str(path))
    return snapshots


def observed_default_rates(snapshot: CohortSnapshot) -> list[float]:
    """Per-grade observed rate d/n; 0.0 for an empty cohort."""
    return [g.defaults_end / g.performing_start if g.performing_start else 0.0
            for g in snapshot.grades]


def compute_posterior(snapshot: CohortSnapshot) -> dict[str, BetaParams]:
    """Posterior Beta(1 + d, 1 + n - d) of every grade by label, best grade first."""
    return {g.label: BetaParams(1.0 + g.defaults_end, 1.0 + g.performing_start - g.defaults_end)
            for g in snapshot.grades}
