"""Benchmark PDs and central-tendency scaling for method comparison tables.

Implements the Pluto & Tasche (2005) most-prudent estimation: grade i is
assigned the largest default probability still compatible, at the chosen
confidence level, with the defaults observed in the pooled cohort of grade
i and everything worse.  That PD is the upper Clopper-Pearson bound, a
quantile of Beta(D + 1, N - D) for the pooled counts; each grade's
quantile comes from one Newton solve of its own, in floats on ``math``,
and a running maximum from best to worst grade keeps the bounds
monotone.  All method columns (simulated, most-prudent and any
external ones read by ``parse_external_csv``) are put on a common footing
by scaling each one so its count-weighted average equals the portfolio
central tendency.
"""

from __future__ import annotations

import math
from typing import Sequence

from .cohorts import CohortSnapshot
from .csvio import CohortError, bare_cell, probability, read_rows
from .statdist import _normal_quantile, binomial_tail_le, log_beta, solve_monotone

__all__ = [
    "central_tendency",
    "pluto_tasche",
    "scale_to_ct",
    "build_comparison",
    "parse_external_csv",
]

EXTERNAL_HEADER = ("grade_order", "method_name", "pd")

# the columns of comparison.csv that are not external methods
RESERVED_METHOD_NAMES = frozenset(("grade_order", "label", "simulated", "pluto_tasche"))

_THETA_LO = 1e-12
_THETA_HI = 1.0 - 1e-12


def central_tendency(snapshot: CohortSnapshot) -> float:
    """Portfolio average default rate over the non-default grades."""
    n = snapshot.total_performing
    if n == 0:
        raise ValueError(f"period {snapshot.period}: empty portfolio")
    return snapshot.total_defaults / n


def pluto_tasche(snapshot: CohortSnapshot, confidence: float = 0.75) -> list[float]:
    """Most-prudent per-grade PDs from cumulated counts.

    Grade i pools the counts of grades i..m (toward the worst grade) and
    takes the upper confidence bound: the largest theta with
    P(X <= D_i | N_i, theta) >= 1 - confidence, i.e. the ``confidence``
    quantile of Beta(D_i + 1, N_i - D_i).  When the pooled defaults equal
    the pooled cohort the bound is 1.  Every other grade gets one
    safeguarded Newton solve on the binomial tail, whose derivative in
    theta is minus that beta density; it starts at the grade's
    Cornish-Fisher (skew-corrected normal) quantile and stops on a relative
    step of 1e-12.  A running maximum from best to worst grade then keeps
    the bounds monotone.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    z = _normal_quantile(confidence)
    pools, n, d = [], 0, 0
    for g in reversed(snapshot.grades):
        n, d = n + g.performing_start, d + g.defaults_end
        pools.append((n, d))
    pds, floor = [], 0.0
    for n, d in reversed(pools):
        pd = 1.0
        if d < n:  # so n > 0
            a, b, s = d + 1.0, float(n - d), n + 1.0
            log_norm = log_beta(a, b)

            def tail_slope(theta):
                # d/dtheta P(X <= d | n, theta) = -(Beta(d + 1, n - d) density at theta)
                return -math.exp(d * math.log(theta) + (n - d - 1) * math.log1p(-theta) - log_norm)

            # Cornish-Fisher start: mean + sd (z + skew (z^2 - 1) / 6)
            sd = math.sqrt(a * b / (s * s * (s + 1.0)))
            skew = 2.0 * (b - a) * math.sqrt(s + 1.0) / ((s + 2.0) * math.sqrt(a * b))
            x0 = min(max(a / s + sd * (z + skew * (z * z - 1.0) / 6.0), _THETA_LO), _THETA_HI)
            pd = solve_monotone(lambda theta: binomial_tail_le(n, d, theta), 1.0 - confidence,
                                _THETA_LO, _THETA_HI, fprime=tail_slope, x0=x0)
        floor = max(floor, pd)
        pds.append(floor)
    return pds


def scale_to_ct(pds: Sequence[float], snapshot: CohortSnapshot) -> list[float]:
    """Rescale PDs so their count-weighted average equals the central tendency.

    Multiplicative, so relative ordering is preserved, and invariant to a
    positive rescaling of the input vector: ``c * pds`` gives the same result.
    The weighted sum is ``math.fsum``'s, correctly rounded on every Python.
    """
    if len(pds) != len(snapshot.grades):
        raise ValueError(
            f"PD vector has {len(pds)} entries but snapshot has {len(snapshot.grades)} grades")
    ct = central_tendency(snapshot)
    weights = [g.performing_start for g in snapshot.grades]
    weighted_mean = math.fsum(w * pd for w, pd in zip(weights, pds)) / sum(weights)
    if weighted_mean <= 0.0:
        raise ValueError("cannot scale an all-zero PD vector")
    factor = ct / weighted_mean
    return [pd * factor for pd in pds]


def build_comparison(
    snapshot: CohortSnapshot,
    simulated: Sequence[float],
    pt_pds: Sequence[float],
    external: dict[str, Sequence[float]] | None = None,
) -> dict[str, list[float]]:
    """Scaled columns by method name: simulated, most-prudent, then externals.

    External columns (PDs transcribed from other methods) pass through the
    identical scaling.  Column lengths are validated by name.
    """
    raw_columns = {"simulated": simulated, "pluto_tasche": pt_pds, **(external or {})}
    m = len(snapshot.grades)
    for name, col in raw_columns.items():
        if len(col) != m:
            raise ValueError(f"column {name!r} has {len(col)} entries, expected {m}")
    return {name: scale_to_ct(col, snapshot) for name, col in raw_columns.items()}


def parse_external_csv(source) -> dict[str, dict[int, float]]:
    """Read external method columns from `grade_order,method_name,pd` rows.

    Returns method name -> {grade_order: pd}; alignment with a snapshot's
    grade orders happens at comparison time.  A method name becomes a
    header cell of comparison.csv, so it must need no CSV quoting and must
    not be one of that file's own columns (``RESERVED_METHOD_NAMES``); a
    pd must be a number in [0, 1].
    """
    methods: dict[str, dict[int, float]] = {}

    def convert(cells: list[str]) -> None:
        order, name = int(cells[0]), bare_cell(cells[1], "method name")
        pd = probability(cells[2], "pd")
        if name in RESERVED_METHOD_NAMES:
            raise ValueError(f"method name {name!r} is reserved for a comparison.csv column")
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
    for name, column in methods.items():
        missing = [g.order for g in snapshot.grades if g.order not in column]
        if missing:
            raise ValueError(f"column {name!r}: missing grade order {missing[0]}")
    return {name: [column[g.order] for g in snapshot.grades] for name, column in methods.items()}
