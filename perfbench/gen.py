"""Seeded inputs for the benchmark workloads, in pdcalib's own CSV schemas.

Every generator takes the workload seed and returns file name -> text; the
same seed gives the same bytes.  The program under test only ever sees
these files.  Numbers are written with ``repr`` so they round-trip exactly
and the references can be computed from the very values the program reads.

Run ``python3 perfbench/gen.py WORKLOAD SEED DIR`` to write one set.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

COHORT_HEADER = "period,grade_order,grade_label,performing_start,defaults_end"
CALIBRATION_HEADER = ("grade_order,label,n,d,observed_rate,alpha_hat,beta_hat,"
                      "mean,median,ci_lo,ci_hi")
MANIFEST_LINE = "# manifest: manifest.json"

NOTCHED = ("AAA", "AA+", "AA", "AA-", "A+", "A", "A-", "BBB+", "BBB", "BBB-",
           "BB+", "BB", "BB-", "B+", "B", "B-", "CCC")

# One seeded stream per purpose, so changing one input leaves the others alone.
_STREAM_THIN, _STREAM_PRUDENT, _STREAM_REGRESSION = 1, 2, 3


@dataclass
class Inputs:
    """Generated files plus the facts the checks need about them."""

    files: dict[str, str] = field(default_factory=dict)
    periods: dict[str, list[tuple[str, int, int]]] = field(default_factory=dict)  # label, n, d
    coefficients: tuple[float, ...] = ()     # intercept first
    newdata: list[tuple[str, tuple[float, ...]]] = field(default_factory=list)
    calibration_means: dict[str, list[float]] = field(default_factory=dict)
    external: dict[str, dict[str, list[float]]] = field(default_factory=dict)


def cohort_text(periods: dict[str, list[tuple[str, int, int]]]) -> str:
    lines = [COHORT_HEADER]
    for period, rows in periods.items():
        lines.extend(f"{period},{order},{label},{n},{d}"
                     for order, (label, n, d) in enumerate(rows, start=1))
    return "\n".join(lines) + "\n"


def counts(rows) -> list[tuple[int, int]]:
    return [(n, d) for _, n, d in rows]


def acceptance_floor(n_sim: int, min_accepted: int, max_rounds: int) -> float:
    """Pair acceptance below which a pair step can fail even after every top-up."""
    return min_accepted / (n_sim * (max_rounds + 1))


def _screened_period(rng, draw, floor: float) -> tuple[list[tuple[str, int, int]], float]:
    """Draw periods until the limit sweep keeps every pair step at or above
    ``floor``; returns the period and its smallest step acceptance.  A
    401-point grid puts each step's acceptance within 0.3% of the 4001-point
    value (thin-history seeds 1-5), ample beside the screening margins."""
    while True:
        rows = draw(rng)
        limit = reference.sweep_limit(counts(rows), points=401, stop_below=floor)
        if limit.converged:
            return rows, min(p for _, _, p in limit.steps)


def regression(rng, n_history: int, n_new: int, k: int, inputs: Inputs) -> None:
    """History and new rows lying exactly on a logit surface with known coefficients."""
    coef = (float(rng.uniform(-5.0, -3.0)), *(float(c) for c in rng.uniform(-0.5, 0.5, k)))
    names = ",".join(f"y{i}" for i in range(1, k + 1))

    def row(index: int):
        y = tuple(float(v) for v in rng.normal(0.0, 1.0, k))
        z = coef[0] + sum(c * v for c, v in zip(coef[1:], y))
        return f"p{index:05d}", y, 1.0 / (1.0 + math.exp(-z))

    history = [f"period,mu,{names}"]
    for i in range(n_history):
        period, y, mu = row(i)
        history.append(",".join([period, repr(mu), *map(repr, y)]))
    newdata = [f"period,{names}"]
    for i in range(n_new):
        period, y, _ = row(n_history + i)
        newdata.append(",".join([period, *map(repr, y)]))
        inputs.newdata.append((period, y))
    inputs.coefficients = coef
    inputs.files["history.csv"] = "\n".join(history) + "\n"
    inputs.files["newdata.csv"] = "\n".join(newdata) + "\n"


def paper_2016(seed: int) -> Inputs:
    """Only the regression files: the cohort input is the committed reference dataset."""
    inputs = Inputs()
    regression(np.random.default_rng([seed, _STREAM_REGRESSION]), 40, 40, 2, inputs)
    return inputs


def thin_history(seed: int, periods: int, n_sim: int, min_accepted: int, max_rounds: int,
                 margin: float) -> Inputs:
    """Notched 17-grade scale, cohorts of a handful to a few hundred obligors.

    True rates rise geometrically from 0.05% to 30%; defaults are binomial,
    so thin grades bring zero-default runs and noise inversions.  One
    cohort per period is empty.  Each period is redrawn until its limit
    sweep keeps every pair step ``margin`` times above the acceptance that
    could exhaust the top-ups at ``n_sim``, and the last period is redrawn
    until the history holds a step that is sure to need a top-up block.
    """
    rng = np.random.default_rng([seed, _STREAM_THIN])
    rates = np.geomspace(0.0005, 0.30, len(NOTCHED))

    def draw(rng):
        sizes = np.rint(np.exp(rng.uniform(math.log(3), math.log(400), len(NOTCHED)))).astype(int)
        sizes[rng.integers(len(NOTCHED))] = 0
        return [(label, int(n), int(rng.binomial(n, rate)))
                for label, n, rate in zip(NOTCHED, sizes, rates)]

    floor = margin * acceptance_floor(n_sim, min_accepted, max_rounds)
    # a step expected to keep 60% of min_accepted in its first block tops up
    topup = 0.6 * min_accepted / n_sim
    inputs = Inputs()
    lowest = 1.0
    for p in range(periods):
        while True:
            rows, worst = _screened_period(rng, draw, floor)
            if p < periods - 1 or min(lowest, worst) <= topup:
                break
        lowest = min(lowest, worst)
        inputs.periods[str(2011 + p)] = rows
    inputs.files["cohorts.csv"] = cohort_text(inputs.periods)
    regression(np.random.default_rng([seed, _STREAM_REGRESSION]), 40, 40, 2, inputs)
    return inputs


def _calibration_text(rows, means) -> str:
    """A calibration.csv as `pdcalib calibrate` writes it, with the given means."""
    lines = [MANIFEST_LINE, CALIBRATION_HEADER]
    for order, ((label, n, d), mean) in enumerate(zip(rows, means), start=1):
        concentration = n + 2.0
        alpha, beta = mean * concentration, (1.0 - mean) * concentration
        lines.append(",".join([str(order), label, str(n), str(d), repr(d / n if n else 0.0),
                               repr(alpha), repr(beta), repr(mean), repr(mean),
                               repr(0.9 * mean), repr(1.1 * mean)]))
    return "\n".join(lines) + "\n"


def prudent_report(seed: int, periods: int, grades: int, n_sim: int, min_accepted: int,
                   max_rounds: int, margin: float) -> Inputs:
    """Large-count portfolio: ``grades`` grades of 1e5 to 1e6 obligors each.

    True rates rise geometrically from 0.02% to 25%.  Per period there is a
    calibration.csv with jittered, sorted means and an external method
    file with two columns.  Periods are screened like the thin ones, so a
    short calibration at ``n_sim`` cannot exhaust its top-ups.
    """
    rng = np.random.default_rng([seed, _STREAM_PRUDENT])
    rates = np.geomspace(0.0002, 0.25, grades)
    labels = [f"G{g:02d}" for g in range(1, grades + 1)]

    def draw(rng):
        sizes = np.rint(np.exp(rng.uniform(math.log(1e5), math.log(1e6), grades))).astype(int)
        return [(label, int(n), int(rng.binomial(n, rate)))
                for label, n, rate in zip(labels, sizes, rates)]

    inputs = Inputs()
    for p in range(periods):
        period = str(2011 + p)
        rows, _ = _screened_period(
            rng, draw, margin * acceptance_floor(n_sim, min_accepted, max_rounds))
        inputs.periods[period] = rows
        means = sorted(float((d + 1) / (n + 2) * math.exp(rng.normal(0.0, 0.1)))
                       for _, n, d in rows)
        inputs.calibration_means[period] = means
        inputs.files[f"calibration_{period}.csv"] = _calibration_text(rows, means)
        external = {name: [float(m * math.exp(rng.normal(0.0, 0.3))) for m in means]
                    for name in ("cap", "qmm")}
        inputs.external[period] = external
        ext_lines = ["grade_order,method_name,pd"]
        for name, column in external.items():
            ext_lines.extend(f"{order},{name},{pd!r}" for order, pd in enumerate(column, start=1))
        inputs.files[f"external_{period}.csv"] = "\n".join(ext_lines) + "\n"
    inputs.files["cohorts.csv"] = cohort_text(inputs.periods)
    regression(np.random.default_rng([seed, _STREAM_REGRESSION]), 5000, 5000, 4, inputs)
    return inputs


def write(inputs: Inputs, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in inputs.files.items():
        (directory / name).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    import run
    if len(sys.argv) != 4:
        raise SystemExit("usage: gen.py WORKLOAD SEED DIR")
    write(run.WORKLOADS[sys.argv[1]].generate(int(sys.argv[2])), Path(sys.argv[3]))
