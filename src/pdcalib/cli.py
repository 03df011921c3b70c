"""Command-line front end: ingestion -> posterior -> calibration -> reports.

Subcommands
-----------
calibrate   order-constrained calibration of one period, written as
            calibration.csv (+ manifest.json, optional per-grade histograms)
compare     scaled side-by-side of the calibrated means, the most-prudent
            benchmark and any external method columns, as comparison.csv
predict     fit the link-scale regression on a calibrated history and
            predict means for new regressor rows

All machine-readable outputs store probabilities as plain decimals
(0.0300, never "3.00%"); ``--pretty`` additionally prints a formatted
table to stdout.  Every result file references its manifest.  Exit codes:
0 success, 2 input validation, 3 numeric/algorithmic failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import (PTConfig, align_external, build_comparison, parse_external_csv,
                         pluto_tasche)
from .betareg import fit as fit_regression
from .betareg import parse_history_csv, predict_mean
from .calibrator import (CalibrationConfig, InsufficientAcceptanceError, SweepNotConvergedError,
                         VarianceTooLargeError, calibrate, export_histograms)
from .cohorts import CohortError, CohortSnapshot, parse_cohort_csv
from .posterior import compute_posterior
from .statdist import BracketError, ConvergenceError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

_NUMERIC_ERRORS = (InsufficientAcceptanceError, SweepNotConvergedError,
                   VarianceTooLargeError, BracketError, ConvergenceError)

CALIBRATION_HEADER = ("grade_order", "label", "n", "d", "observed_rate",
                      "alpha_hat", "beta_hat", "mean", "median", "ci_lo", "ci_hi")


def _digest(path: Path) -> str:
    """64-bit content hash of a file, hex encoded."""
    return hashlib.blake2b(path.read_bytes(), digest_size=8).hexdigest()


def _require_file(raw: str) -> Path:
    path = Path(raw)
    if not path.is_file():
        raise CohortError(f"input file not found: {path}")
    return path


def _select_snapshot(snapshots, period: str) -> CohortSnapshot:
    for snap in snapshots:
        if snap.period == period:
            return snap
    available = ", ".join(s.period for s in snapshots)
    raise CohortError(f"period {period!r} not in input (available: {available})")


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_rows(path: Path, header, rows) -> None:
    lines = ["# manifest: manifest.json", ",".join(header)]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_manifest(out_dir: Path, entries: dict) -> None:
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(entries, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _print_pretty(title: str, header, rows) -> None:
    print(title)
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) for i, h in enumerate(header)]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))


def _pct(value: float) -> str:
    return f"{100.0 * value:.2f}%"


def cmd_calibrate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    input_path = _require_file(args.input)
    snapshots = parse_cohort_csv(input_path)
    snapshot = _select_snapshot(snapshots, args.period)
    cfg = CalibrationConfig(
        n_sim=args.n_sim,
        k_reps=args.k_reps,
        seed=args.seed,
        ci_level=args.ci,
        min_accepted=args.min_accepted,
        max_resample_rounds=args.max_resample_rounds,
    )
    post = compute_posterior(snapshot)
    result = calibrate(post, cfg, workers=args.threads)
    for message in result.warnings:
        print(f"warning: {message}", file=sys.stderr)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for idx, gc in enumerate(snapshot.grades):
        observed = gc.defaults_end / gc.performing_start if gc.performing_start else 0.0
        rows.append([
            gc.order, gc.label, gc.performing_start, gc.defaults_end, _fmt(observed),
            _fmt(result.alpha_hat[idx]), _fmt(result.beta_hat[idx]),
            _fmt(result.grade_means[idx]), _fmt(result.grade_medians[idx]),
            _fmt(result.ci_lower[idx]), _fmt(result.ci_upper[idx]),
        ])
    _write_rows(out_dir / "calibration.csv", CALIBRATION_HEADER, rows)

    if args.emit_histograms:
        for gc, hist in zip(snapshot.grades, export_histograms(result)):
            hist_rows = []
            if len(hist.bin_edges) == 2 and hist.bin_edges[0] == hist.bin_edges[1]:
                hist_rows.append([_fmt(hist.bin_edges[0]), _fmt(hist.bin_edges[1]), hist.counts[0]])
            else:
                for b in range(len(hist.counts)):
                    hist_rows.append([_fmt(hist.bin_edges[b]), _fmt(hist.bin_edges[b + 1]),
                                      hist.counts[b]])
            _write_rows(out_dir / f"hist_{gc.order}.csv", ("bin_lo", "bin_hi", "count"), hist_rows)

    manifest = {
        "command": "calibrate",
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "input_path": str(input_path),
        "input_digest": _digest(input_path),
        "period": snapshot.period,
        "n_grades": len(snapshot.grades),
        "n_sim": cfg.n_sim,
        "k_reps": cfg.k_reps,
        "seed": cfg.seed,
        "ci_level": cfg.ci_level,
        "min_accepted": cfg.min_accepted,
        "max_resample_rounds": cfg.max_resample_rounds,
        "max_passes": cfg.max_passes,
        "direction": cfg.direction,
        "threads": args.threads,
        "emit_histograms": bool(args.emit_histograms),
        "passes_min": min(result.passes),
        "passes_max": max(result.passes),
        "warnings": "; ".join(result.warnings),
        "duration_seconds": round(time.perf_counter() - started, 3),
    }
    for i, rate in enumerate(result.pair_acceptance, start=1):
        manifest[f"acceptance_rate_pair_{i}"] = rate
    _write_manifest(out_dir, manifest)

    if args.pretty:
        pretty = [[gc.order, gc.label, _pct(result.grade_means[i]), _pct(result.grade_medians[i]),
                   _pct(result.ci_lower[i]), _pct(result.ci_upper[i])]
                  for i, gc in enumerate(snapshot.grades)]
        _print_pretty(f"Calibrated PDs, period {snapshot.period} "
                      f"(n_sim={cfg.n_sim}, k_reps={cfg.k_reps})",
                      ("order", "label", "mean", "median", "ci_lo", "ci_hi"), pretty)
    return EXIT_OK


def _parse_calibration_csv(path: Path) -> tuple[list[int], list[str], list[float]]:
    orders: list[int] = []
    labels: list[str] = []
    means: list[float] = []
    header = None
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = tuple(cells)
            if header != CALIBRATION_HEADER:
                raise CohortError(f"{path}: unexpected calibration header at line {line_no}")
            continue
        if len(cells) != len(CALIBRATION_HEADER):
            raise CohortError(f"{path}: malformed row at line {line_no}")
        orders.append(int(cells[0]))
        labels.append(cells[1])
        means.append(float(cells[7]))
    if header is None or not orders:
        raise CohortError(f"{path}: no calibration rows found")
    return orders, labels, means


def cmd_compare(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    input_path = _require_file(args.input)
    calibration_path = _require_file(args.calibration)
    snapshots = parse_cohort_csv(input_path)
    snapshot = _select_snapshot(snapshots, args.period)
    orders, labels, means = _parse_calibration_csv(calibration_path)
    if orders != [g.order for g in snapshot.grades] or labels != list(snapshot.labels):
        raise CohortError(
            "calibration column mismatch: grade orders/labels differ from the input period")

    pt_cfg = PTConfig(confidence=args.pt_confidence)
    pt_pds = pluto_tasche(snapshot, pt_cfg)
    external_cols = None
    external_digest = ""
    if args.external:
        external_path = _require_file(args.external)
        external_digest = _digest(external_path)
        try:
            external_cols = align_external(parse_external_csv(external_path), snapshot)
        except ValueError as exc:
            raise CohortError(f"{external_path}: {exc}") from None
    comparison = build_comparison(snapshot, means, pt_pds, external_cols)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    methods = list(comparison.columns)
    header = ("grade_order", "label", *methods)
    rows = []
    for i, (order, label) in enumerate(zip(comparison.grade_orders, comparison.labels)):
        rows.append([order, label, *(_fmt(comparison.columns[m][i]) for m in methods)])
    _write_rows(out_dir / "comparison.csv", header, rows)

    manifest = {
        "command": "compare",
        "tool_version": __version__,
        "input_path": str(input_path),
        "input_digest": _digest(input_path),
        "calibration_path": str(calibration_path),
        "calibration_digest": _digest(calibration_path),
        "external_digest": external_digest,
        "period": snapshot.period,
        "pt_confidence": pt_cfg.confidence,
        "pt_enforce_monotone": pt_cfg.enforce_monotone,
        "central_tendency": comparison.central_tendency,
        "total_performing": comparison.total_performing,
        "total_defaults": comparison.total_defaults,
        "methods": ",".join(methods),
        "duration_seconds": round(time.perf_counter() - started, 3),
    }
    _write_manifest(out_dir, manifest)

    if args.pretty:
        pretty = [[order, label, *(_pct(comparison.columns[m][i]) for m in methods)]
                  for i, (order, label) in enumerate(zip(comparison.grade_orders, comparison.labels))]
        _print_pretty(f"Scaled PD comparison, period {snapshot.period} "
                      f"(central tendency {_pct(comparison.central_tendency)})",
                      ("order", "label", *methods), pretty)
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    history_path = _require_file(args.history)
    newdata_path = _require_file(args.newdata)
    try:
        _, history = parse_history_csv(history_path)
        model = fit_regression(history)
        new_periods, new_rows = _parse_newdata_csv(newdata_path, len(model.coefficients))
    except ValueError as exc:
        if isinstance(exc, CohortError):
            raise
        raise CohortError(str(exc)) from None

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_doc = {
        "manifest": "manifest.json",
        "intercept": model.intercept,
        "link": model.link,
        "precision": model.precision,
    }
    for i, coefficient in enumerate(model.coefficients, start=1):
        model_doc[f"coefficient_{i}"] = coefficient
    (out_dir / "model.json").write_text(json.dumps(model_doc, sort_keys=True, indent=2) + "\n",
                                        encoding="utf-8")
    rows = []
    for period, y_vec in zip(new_periods, new_rows):
        mu, _ = predict_mean(model, y_vec)
        rows.append([period, _fmt(mu)])
    _write_rows(out_dir / "predictions.csv", ("period", "mu"), rows)

    manifest = {
        "command": "predict",
        "tool_version": __version__,
        "history_path": str(history_path),
        "history_digest": _digest(history_path),
        "newdata_path": str(newdata_path),
        "newdata_digest": _digest(newdata_path),
        "n_observations": len(history),
        "n_regressors": len(model.coefficients),
        "n_predictions": len(rows),
        "link": model.link,
        "duration_seconds": round(time.perf_counter() - started, 3),
    }
    _write_manifest(out_dir, manifest)

    if args.pretty:
        _print_pretty("Predicted means", ("period", "mu"),
                      [[p, _pct(float(m))] for p, m in rows] or [["(none)", "-"]])
    return EXIT_OK


def _parse_newdata_csv(path: Path, k: int) -> tuple[list[str], list[tuple[float, ...]]]:
    """Read prediction rows from `period,y1,...,yk`; zero data rows is fine."""
    periods: list[str] = []
    rows: list[tuple[float, ...]] = []
    header = None
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            expected = ["period"] + [f"y{i}" for i in range(1, k + 1)]
            if [c.strip() for c in cells] != expected:
                raise ValueError(f"line {line_no}: expected header {','.join(expected)}")
            header = cells
            continue
        if len(cells) != k + 1:
            raise ValueError(f"line {line_no}: expected {k + 1} fields, got {len(cells)}")
        try:
            rows.append(tuple(float(c) for c in cells[1:]))
        except ValueError as exc:
            raise ValueError(f"line {line_no}: malformed row: {exc}") from None
        periods.append(cells[0].strip())
    if header is None:
        raise ValueError(f"{path}: missing header")
    return periods, rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdcalib",
        description="Monotone PD calibration from cohort counts, with benchmark comparison.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="calibrate one period's PDs")
    cal.add_argument("--input", required=True, help="cohort CSV")
    cal.add_argument("--period", required=True, help="period label to calibrate")
    cal.add_argument("--n-sim", dest="n_sim", type=int, default=100_000)
    cal.add_argument("--k-reps", dest="k_reps", type=int, default=300)
    cal.add_argument("--seed", type=int, default=42)
    cal.add_argument("--ci", type=float, default=0.90)
    cal.add_argument("--min-accepted", dest="min_accepted", type=int, default=100)
    cal.add_argument("--max-resample-rounds", dest="max_resample_rounds", type=int, default=10)
    cal.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                     help="worker processes for the repetitions (affects speed only)")
    cal.add_argument("--out", required=True, help="output directory")
    cal.add_argument("--emit-histograms", action="store_true")
    cal.add_argument("--pretty", action="store_true")
    cal.set_defaults(func=cmd_calibrate)

    cmp_ = sub.add_parser("compare", help="scaled comparison against benchmark methods")
    cmp_.add_argument("--input", required=True, help="cohort CSV")
    cmp_.add_argument("--period", required=True)
    cmp_.add_argument("--calibration", required=True, help="calibration.csv from `calibrate`")
    cmp_.add_argument("--pt-confidence", dest="pt_confidence", type=float, default=0.75)
    cmp_.add_argument("--external", help="optional grade_order,method_name,pd CSV")
    cmp_.add_argument("--out", required=True)
    cmp_.add_argument("--pretty", action="store_true")
    cmp_.set_defaults(func=cmd_compare)

    pred = sub.add_parser("predict", help="fit the regression and predict new means")
    pred.add_argument("--history", required=True, help="period,mu,y1,...,yk CSV")
    pred.add_argument("--newdata", required=True, help="period,y1,...,yk CSV")
    pred.add_argument("--out", required=True)
    pred.add_argument("--pretty", action="store_true")
    pred.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CohortError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
