"""Reference values for the benchmark, computed apart from pdcalib.

Nothing here imports pdcalib: the references are built on scipy alone, so
a fault in the package cannot hide in the values its outputs are checked
against.

* ``sweep_limit`` is the n_sim -> infinity limit of the pairwise
  simulate-filter-refit sweep.  For an adjacent pair the refit needs the
  first two moments of each grade conditional on theta_i <= theta_{i+1}.
  Those are 1-D integrals, taken here by product integration: on each grid
  cell the moment integrals of the beta density are exact (through the
  identity t^k f_{a,b} = c_k f_{a+k,b} and the beta cdf), and only the
  other grade's cdf is read at the cell midpoint.  The grid is the union of
  an even grid over the two densities' quantile span and the quantile grids
  of each density, so very concentrated shapes such as Beta(1, 1815) are
  resolved.  Passes repeat until the fitted means are in order.
* ``most_prudent`` is the Pluto-Tasche (2005) bound in its closed form: the
  upper Clopper-Pearson limit ``beta.ppf(c, D+1, N-D)`` of the counts pooled
  toward the worst grade, with a running maximum.

Run ``python3 perfbench/reference.py`` to print both for every period of
the reference dataset (or of ``--input FILE``).
"""

from __future__ import annotations

import argparse
import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special, stats

# Mass left outside the fitted span; far below any tolerance the checks use.
_TAIL = 1e-15
_Z_SPAN = 8.0


@dataclass(frozen=True)
class PairMoments:
    """Order-constrained moments of one adjacent pair."""

    accept: float      # P(theta_i <= theta_{i+1})
    lower: tuple[float, float]   # (mean, variance) of theta_i given the order
    upper: tuple[float, float]   # (mean, variance) of theta_{i+1} given the order


@dataclass(frozen=True)
class LimitSweep:
    """Deterministic limit of one sweep."""

    means: tuple[float, ...]
    variances: tuple[float, ...]
    passes: int
    # (pass, pair index, acceptance probability) for every pair step
    steps: tuple[tuple[int, int, float], ...]
    converged: bool = True


def _grid(a1: float, b1: float, a2: float, b2: float, points: int) -> np.ndarray:
    lo = min(stats.beta.ppf(_TAIL, a1, b1), stats.beta.ppf(_TAIL, a2, b2))
    hi = max(stats.beta.isf(_TAIL, a1, b1), stats.beta.isf(_TAIL, a2, b2))
    probs = special.ndtr(np.linspace(-_Z_SPAN, _Z_SPAN, points // 2))
    edges = np.concatenate([
        [0.0, 1.0], np.linspace(lo, hi, points),
        stats.beta.ppf(probs, a1, b1), stats.beta.ppf(probs, a2, b2)])
    return np.unique(np.clip(edges, 0.0, 1.0))


def _cell_moments(edges: np.ndarray, a: float, b: float) -> tuple[np.ndarray, ...]:
    """Exact integrals of t^k f_{a,b}(t), k = 0, 1, 2, over each grid cell."""
    out = []
    coeff = 1.0
    for k in range(3):
        cdf = special.betainc(a + k, b, edges)
        out.append(coeff * np.diff(cdf))
        coeff *= (a + k) / (a + b + k)
    return tuple(out)


def pair_moments(a1: float, b1: float, a2: float, b2: float, points: int = 4001) -> PairMoments:
    """Moments of Beta(a1, b1) and Beta(a2, b2) conditional on theta_1 <= theta_2."""
    edges = _grid(a1, b1, a2, b2, points)
    mid = 0.5 * (edges[1:] + edges[:-1])
    above = special.betaincc(a2, b2, mid)    # P(theta_2 > t) for the lower grade
    below = special.betainc(a1, b1, mid)     # P(theta_1 < t) for the upper grade
    m0, m1, m2 = _cell_moments(edges, a1, b1)
    n0, n1, n2 = _cell_moments(edges, a2, b2)
    accept = float(np.sum(m0 * above))
    lower_mean = float(np.sum(m1 * above)) / accept
    lower_var = float(np.sum(m2 * above)) / accept - lower_mean ** 2
    upper_mean = float(np.sum(n1 * below)) / accept
    upper_var = float(np.sum(n2 * below)) / accept - upper_mean ** 2
    return PairMoments(accept, (lower_mean, lower_var), (upper_mean, upper_var))


def _refit(mean: float, variance: float) -> tuple[float, float]:
    concentration = mean * (1.0 - mean) / variance - 1.0
    return mean * concentration, (1.0 - mean) * concentration


def sweep_limit(counts, max_passes: int = 500, points: int = 4001,
                stop_below: float = 0.0) -> LimitSweep:
    """n_sim -> infinity limit of the ascending sweep over ``(n, d)`` counts.

    Flat-prior posteriors Beta(1 + d, 1 + n - d) are refit pair by pair from
    the order-constrained moments; passes repeat until the means are in order.
    A pair step whose acceptance falls below ``stop_below`` ends the sweep
    early, with ``converged`` False and that step last in ``steps``.
    """
    shapes = [(1.0 + d, 1.0 + n - d) for n, d in counts]
    moments = [(a / (a + b), a * b / ((a + b) ** 2 * (a + b + 1.0))) for a, b in shapes]
    steps = []
    for sweep_pass in range(1, max_passes + 1):
        for i in range(len(shapes) - 1):
            pm = pair_moments(*shapes[i], *shapes[i + 1], points=points)
            steps.append((sweep_pass, i, pm.accept))
            if pm.accept < stop_below:
                return LimitSweep((), (), sweep_pass, tuple(steps), converged=False)
            moments[i], moments[i + 1] = pm.lower, pm.upper
            shapes[i] = _refit(*pm.lower)
            shapes[i + 1] = _refit(*pm.upper)
        means = [m for m, _ in moments]
        if all(x <= y for x, y in zip(means, means[1:])):
            return LimitSweep(tuple(means), tuple(v for _, v in moments), sweep_pass, tuple(steps))
    raise RuntimeError(f"limit sweep still out of order after {max_passes} passes")


def most_prudent(counts, confidence: float) -> list[float]:
    """Pluto-Tasche PDs: upper Clopper-Pearson bounds of counts pooled toward the worst grade."""
    pds = []
    for i in range(len(counts)):
        n_pool = sum(n for n, _ in counts[i:])
        d_pool = sum(d for _, d in counts[i:])
        if n_pool == 0 or d_pool == n_pool:
            pds.append(1.0)
        else:
            pds.append(float(stats.beta.ppf(confidence, d_pool + 1, n_pool - d_pool)))
    return [float(v) for v in np.maximum.accumulate(pds)]


def scale_to_central_tendency(pds, counts) -> list[float]:
    """Multiply ``pds`` so their count-weighted mean equals total defaults / total count."""
    n_total = sum(n for n, _ in counts)
    d_total = sum(d for _, d in counts)
    weighted = sum(n * pd for (n, _), pd in zip(counts, pds)) / n_total
    return [pd * (d_total / n_total) / weighted for pd in pds]


def read_cohorts(path: Path, default_bucket: str = "C/D") -> dict[str, list[tuple[str, int, int]]]:
    """Period -> [(label, n, d), ...] in grade order, read without pdcalib."""
    rows: dict[str, list[tuple[int, str, int, int]]] = {}
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(line for line in handle if not line.startswith("#"))
        for row in reader:
            if row["grade_label"] == default_bucket:
                continue
            rows.setdefault(row["period"], []).append(
                (int(row["grade_order"]), row["grade_label"], int(row["performing_start"]),
                 int(row["defaults_end"])))
    return {p: [grade[1:] for grade in sorted(r)] for p, r in sorted(rows.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--input", default="data/sp_2016_2017.csv", help="cohort CSV")
    parser.add_argument("--confidence", type=float, default=0.75)
    args = parser.parse_args(argv)
    for period, rows in read_cohorts(Path(args.input)).items():
        counts = [(n, d) for _, n, d in rows]
        limit = sweep_limit(counts)
        prudent = most_prudent(counts, args.confidence)
        scaled = scale_to_central_tendency(prudent, counts)
        print(f"period {period}: limit sweep converged in {limit.passes} passes")
        print("grade  n      d    limit_mean          limit_sd            most_prudent        scaled")
        for g, ((n, d), mean, var, pt, sc) in enumerate(
                zip(counts, limit.means, limit.variances, prudent, scaled), start=1):
            print(f"{g:<6d} {n:<6d} {d:<4d} {mean:<19.12g} {var ** 0.5:<19.12g} {pt:<19.12g} {sc:.12g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
