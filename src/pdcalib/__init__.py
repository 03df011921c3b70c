"""Monotone probability-of-default calibration from cohort count data.

The pipeline: ingest per-period cohort counts and map each grade's label
to its beta posterior (`cohorts`), restore the grade ordering with the
simulate-filter-refit sweep and build sampling distributions
(`calibrator`), benchmark against most-prudent estimates and scale
everything to the portfolio central tendency (`benchmarks`), and project
calibrated means onto exogenous variables (`betareg`).  `cli` wires the
pieces into the `pdcalib` command.
"""

__version__ = "0.1.0"

from .calibrator import (CalibrationConfig, CalibrationResult, SweepResult, calibrate,
                         export_histograms, fit_beta_moments, run_sweep)
from .cohorts import (CohortSnapshot, GradeCount, compute_posterior, observed_default_rates,
                      parse_cohort_csv)
from .benchmarks import build_comparison, central_tendency, pluto_tasche, scale_to_ct
from .statdist import BetaParams, binomial_tail_le, rng_stream, sample_beta, solve_monotone

__all__ = [
    "__version__",
    "BetaParams", "rng_stream", "sample_beta",
    "binomial_tail_le", "solve_monotone",
    "GradeCount", "CohortSnapshot", "parse_cohort_csv", "observed_default_rates",
    "compute_posterior",
    "CalibrationConfig", "SweepResult", "CalibrationResult",
    "fit_beta_moments", "run_sweep", "calibrate", "export_histograms",
    "central_tendency", "pluto_tasche", "scale_to_ct", "build_comparison",
]
