"""Command-line front end: ingestion -> posterior -> calibration -> reports.

Subcommands
-----------
calibrate   order-constrained calibration of one period, written as
            calibration.csv (+ manifest.json, optional per-grade histograms)
compare     scaled side-by-side of the calibrated means, the most-prudent
            benchmark and any external method columns, as comparison.csv
predict     fit the link-scale regression on a calibrated history and
            predict means for new regressor rows

Each input file is opened by its reader, in the one CSV dialect of
``csvio``, so a missing file is an input error like a malformed one.  All
machine-readable outputs store probabilities as plain decimals (0.0300,
never "3.00%"); ``--pretty`` additionally prints a formatted table to
stdout.  Every result file references its manifest, and a command's
files are written together or not at all (``csvio.write_outputs``).
Exit codes: 0 success, 2 input validation, 3 numeric/algorithmic failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter
from pathlib import Path

from . import __version__

# Only the hooks the benchmark's trace wraps on this module.  ``__getattr__`` keeps no copy: a
# command calls a wrapper set here, or else what the defining module holds when it runs.  A
# command imports every other name it runs in its body, from the module that defines it.
_DEFINED_IN = {name: f"{module}.{name}" for module, names in (
    ("benchmarks", "align_external build_comparison parse_external_csv pluto_tasche"),
    ("betareg", "parse_history_csv predict_mean"),
    ("calibrator", "calibrate export_histograms"),
    ("cohorts", "compute_posterior parse_cohort_csv"),
) for name in names.split()} | {"fit_regression": "betareg.fit"}


def __getattr__(name: str):
    if name not in _DEFINED_IN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module, _, attr = _DEFINED_IN[name].rpartition(".")
    return getattr(import_module(f"{__package__}.{module}"), attr)


EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

CALIBRATION_HEADER = ("grade_order", "label", "n", "d", "observed_rate",
                      "alpha_hat", "beta_hat", "mean", "median", "ci_lo", "ci_hi")
_MEAN = CALIBRATION_HEADER.index("mean")


def _select_snapshot(snapshots, period: str):
    from .csvio import CohortError
    for snap in snapshots:
        if snap.period == period:
            return snap
    available = ", ".join(s.period for s in snapshots)
    raise CohortError(f"period {period!r} not in input (available: {available})")


def _pct(value: float) -> str:
    return f"{100.0 * value:.2f}%"


def _print_pretty(title: str, header, rows) -> None:
    """``title``, then ``rows`` as an aligned table with float cells as percentages."""
    print(title)
    rows = [[_pct(cell) if isinstance(cell, float) else str(cell) for cell in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    for cells in (header, *rows):  # the last cell unpadded: no line ends in a space
        print("  ".join([*map(str.ljust, cells[:-1], widths), cells[-1]]))


def _numbered(prefix: str, values) -> dict:
    """``values`` keyed ``<prefix>1``, ``<prefix>2``, ... in order."""
    return {f"{prefix}{i}": value for i, value in enumerate(values, start=1)}


def cmd_calibrate(args: argparse.Namespace) -> int:
    from .calibrator import _MAX_PASSES, _MAX_RESAMPLE_ROUNDS, _MIN_ACCEPTED, CalibrationConfig
    from .cli import calibrate, compute_posterior, export_histograms, parse_cohort_csv
    from .cohorts import observed_default_rates
    from .csvio import csv_text, envelope, write_outputs
    started = time.perf_counter()
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    # refused before a run that can take minutes; created only by a run that succeeds
    out = Path(args.out)
    nearest = next(path for path in (out, *out.parents) if path.exists())
    if not nearest.is_dir():
        below = "" if nearest == out else f" lies below {nearest}, which"
        raise ValueError(f"--out {out}{below} exists and is not a directory")
    snapshot = _select_snapshot(parse_cohort_csv(args.input), args.period)
    cfg = CalibrationConfig(**{key: value for key, value in vars(args).items()
                               if key in CalibrationConfig._fields})
    # numpy's OpenBLAS starts cpu_count - 1 idle threads when numpy loads; no command calls BLAS
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    result = calibrate(compute_posterior(snapshot), cfg, workers=args.threads)
    warnings = [f"grade {g.label}: empty cohort, posterior equals the prior"
                for g in snapshot.grades if g.performing_start == 0]
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)

    # per-grade cells in CALIBRATION_HEADER order
    rows = [[gc.order, gc.label, gc.performing_start, gc.defaults_end, *cells]
            for gc, *cells in zip(snapshot.grades, observed_default_rates(snapshot),
                                  result.alpha_hat, result.beta_hat, result.grade_means,
                                  result.grade_medians, result.ci_lower, result.ci_upper)]
    files = {"calibration.csv": csv_text(CALIBRATION_HEADER, rows)}
    if args.emit_histograms:
        for gc, (edges, counts) in zip(snapshot.grades, export_histograms(result.sweep_means)):
            files[f"hist_{gc.order}.csv"] = csv_text(("bin_lo", "bin_hi", "count"),
                                                     zip(edges, edges[1:], counts))
    from numpy import __version__ as numpy_version  # loaded by now; input errors exit before
    manifest = envelope("calibrate", started, input=args.input) | {
        "numpy_version": numpy_version,
        "period": snapshot.period,
        "n_grades": len(snapshot.grades),
        **cfg._asdict(),
        "min_accepted": _MIN_ACCEPTED,
        "max_resample_rounds": _MAX_RESAMPLE_ROUNDS,
        "max_passes": _MAX_PASSES,
        "threads": args.threads,
        "emit_histograms": bool(args.emit_histograms),
        "passes_min": min(result.passes),
        "passes_max": max(result.passes),
        "passes_histogram": {str(p): n for p, n in Counter(result.passes).items()},
        "draws_total": result.draws_total,
        "topup_blocks_total": result.topup_blocks_total,
        "warnings": "; ".join(warnings),
        **_numbered("acceptance_rate_pair_", result.pair_acceptance),
        **_numbered("mc_se_grade_", result.mc_se),
    }
    write_outputs(out, files, manifest)
    # histograms of an earlier run into this directory no longer match its manifest
    for stale in out.glob("hist_*.csv"):
        if stale.name not in files:
            stale.unlink()

    if args.pretty:
        _print_pretty(f"Calibrated PDs, period {snapshot.period} "
                      f"(n_sim={cfg.n_sim}, k_reps={cfg.k_reps})",
                      ("order", "label", *CALIBRATION_HEADER[_MEAN:]),
                      [row[:2] + row[_MEAN:] for row in rows])
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    from .benchmarks import central_tendency
    from .cli import (align_external, build_comparison, parse_cohort_csv, parse_external_csv,
                      pluto_tasche)
    from .csvio import CohortError, csv_text, envelope, probability, read_rows, write_outputs
    started = time.perf_counter()
    snapshot = _select_snapshot(parse_cohort_csv(args.input), args.period)
    # (grade order, label, n, d, mean) of each calibrated grade
    calibrated = read_rows(args.calibration, CALIBRATION_HEADER, lambda cells: (
        int(cells[0]), cells[1], int(cells[2]), int(cells[3]), probability(cells[_MEAN], "mean")))
    if [row[:4] for row in calibrated] != list(snapshot.grades):
        raise CohortError(f"calibration mismatch: grade orders, labels or counts differ from "
                          f"period {snapshot.period} of the input", source=str(args.calibration))

    pt_pds = pluto_tasche(snapshot, args.pt_confidence)
    external = (align_external(parse_external_csv(args.external), snapshot)
                if args.external else None)
    columns = build_comparison(snapshot, [row[-1] for row in calibrated], pt_pds, external)
    ct = central_tendency(snapshot)

    methods = list(columns)
    header = ("grade_order", "label", *methods)
    rows = [[g.order, g.label, *(columns[m][i] for m in methods)]
            for i, g in enumerate(snapshot.grades)]

    manifest = envelope("compare", started, input=args.input, calibration=args.calibration,
                        external=args.external) | {
        "period": snapshot.period,
        "pt_confidence": args.pt_confidence,
        "pt_enforce_monotone": True,
        "central_tendency": ct,
        "total_performing": snapshot.total_performing,
        "total_defaults": snapshot.total_defaults,
        "methods": ",".join(methods),
    }
    write_outputs(args.out, {"comparison.csv": csv_text(header, rows)}, manifest)

    if args.pretty:
        _print_pretty(f"Scaled PD comparison, period {snapshot.period} "
                      f"(central tendency {_pct(ct)})", ("order", "label", *methods), rows)
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    from .betareg import LINK, parse_newdata_csv
    from .cli import fit_regression, parse_history_csv, predict_mean
    from .csvio import MANIFEST, csv_text, envelope, json_text, write_outputs
    started = time.perf_counter()
    y_history, mu_history = parse_history_csv(args.history)
    model = fit_regression(y_history, mu_history)
    periods, y_new = parse_newdata_csv(args.newdata, len(model.coefficients))

    model_doc = {
        "manifest": MANIFEST,
        "intercept": model.intercept,
        "link": LINK,
        "precision": model.precision,
        **_numbered("coefficient_", model.coefficients),
    }
    rows = list(zip(periods, predict_mean(model, y_new)))

    manifest = envelope("predict", started, history=args.history, newdata=args.newdata) | {
        "n_observations": len(mu_history),
        "n_regressors": len(model.coefficients),
        "n_predictions": len(rows),
        "link": LINK,
    }
    write_outputs(args.out, {"model.json": json_text(model_doc),
                             "predictions.csv": csv_text(("period", "mu"), rows)}, manifest)

    if args.pretty:
        _print_pretty("Predicted means", ("period", "mu"), rows or [("(none)", "-")])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdcalib",
        description="Monotone PD calibration from cohort counts, with benchmark comparison.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="calibrate one period's PDs")
    cal.add_argument("--input", required=True, type=Path, help="cohort CSV")
    cal.add_argument("--period", required=True, help="period label to calibrate")
    # dests named as CalibrationConfig's fields: an option not given takes its default there
    cal.add_argument("--n-sim", dest="n_sim", type=int, default=argparse.SUPPRESS)
    cal.add_argument("--k-reps", dest="k_reps", type=int, default=argparse.SUPPRESS)
    cal.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    cal.add_argument("--ci", dest="ci_level", metavar="CI", type=float, default=argparse.SUPPRESS,
                     help="level of ci_lo/ci_hi, the spread of the k_reps repetition means: "
                          "Monte-Carlo noise shrinking like 1/sqrt(n_sim), not a default "
                          "rate's uncertainty")
    cal.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                     help="threads running the repetitions, the calling one included "
                          "(affects speed only)")
    cal.add_argument("--out", required=True, help="output directory")
    cal.add_argument("--emit-histograms", action="store_true")
    cal.add_argument("--pretty", action="store_true")
    cal.set_defaults(func=cmd_calibrate)

    cmp_ = sub.add_parser("compare", help="scaled comparison against benchmark methods")
    cmp_.add_argument("--input", required=True, type=Path, help="cohort CSV")
    cmp_.add_argument("--period", required=True)
    cmp_.add_argument("--calibration", required=True, type=Path,
                      help="calibration.csv from `calibrate`")
    cmp_.add_argument("--pt-confidence", dest="pt_confidence", type=float, default=0.75)
    cmp_.add_argument("--external", type=Path, help="optional grade_order,method_name,pd CSV")
    cmp_.add_argument("--out", required=True)
    cmp_.add_argument("--pretty", action="store_true")
    cmp_.set_defaults(func=cmd_compare)

    pred = sub.add_parser("predict", help="fit the regression and predict new means")
    pred.add_argument("--history", required=True, type=Path, help="period,mu,y1,...,yk CSV")
    pred.add_argument("--newdata", required=True, type=Path, help="period,y1,...,yk CSV")
    pred.add_argument("--out", required=True)
    pred.add_argument("--pretty", action="store_true")
    pred.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        from .statdist import NumericError  # loaded only once a command has failed
        if not isinstance(exc, (NumericError, OSError, ValueError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        # NumericError first, since BracketError and VarianceTooLargeError are also ValueErrors
        return EXIT_NUMERIC if isinstance(exc, NumericError) else EXIT_INPUT
