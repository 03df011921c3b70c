"""Monotone probability-of-default calibration from cohort count data.

The pipeline: ingest per-period cohort counts and map each grade's label
to its beta posterior (`cohorts`), restore the grade ordering with the
simulate-filter-refit sweep and build sampling distributions
(`calibrator`; their `ci_lo`/`ci_hi` bounds are Monte-Carlo noise that
shrinks like 1/sqrt(n_sim), not a default rate's uncertainty), benchmark
against most-prudent estimates and scale everything to the portfolio
central tendency (`benchmarks`), and project calibrated means onto
exogenous variables (`betareg`).  `cli` wires the pieces into the
`pdcalib` command, which `python -m pdcalib` also runs.  Each name is
imported from the module that defines it: importing the package loads
none of them.
"""

__version__ = "0.1.0"
