"""Monotone probability-of-default calibration from cohort count data.

The pipeline: ingest per-period cohort counts and map each grade's label
to its beta posterior (`cohorts`), restore the grade ordering with the
simulate-filter-refit sweep and build sampling distributions
(`calibrator`), benchmark against most-prudent estimates and scale
everything to the portfolio central tendency (`benchmarks`), and project
calibrated means onto exogenous variables (`betareg`).  `cli` wires the
pieces into the `pdcalib` command, which `python -m pdcalib` also runs.
Each name is imported from the module that defines it: importing the
package loads none of them.
"""

__version__ = "0.1.0"
