"""End-to-end benchmark of the pdcalib CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark calls the CLI the
way a user does, as ``python3 -m pdcalib`` with ``src`` on the path, in a
closed loop: one process issues one call after another, and a call at the
CLI's default thread count uses at most ``os.cpu_count()`` workers.  A run
repeats whole rounds of the workload's calls until ``--seconds`` have
passed and checks every output against references computed apart from
the program (``reference.py``).

With ``--trace 0`` each end-to-end metric is the median over the run's
calls.  With ``--trace 1`` the run makes one round through the CLI for the
parallel and CPU figures, then alternates untraced and traced rounds in
process at ``--threads 1``; per-layer figures are per round, taken from the
spans ``spans.py`` records.  The tracing overhead is the cost of one
wrapper, timed on a no-op, times the spans of a round; the traced minus
untraced round time is kept on the ``#`` line beside it.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import reference
from spans import Tracer, self_times, span_cost

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATASET = ROOT / "data" / "sp_2016_2017.csv"
WORK = ROOT / ".perfbench_work"

WORKERS = os.cpu_count() or 1     # the CLI's default --threads
SETUP_PROBES = 4                  # `pdcalib --version` processes before the rounds; one more per round
CALL_TIMEOUT_S = 150.0
PT_CONFIDENCE = 0.75
MIN_ACCEPTED = 100                # CLI defaults the generators screen against
MAX_RESAMPLE_ROUNDS = 10

# Published 2016 table and the acceptance suite's tolerances (tests/test_acceptance.py).
MEANS_2016 = (0.0005, 0.0009, 0.0013, 0.0022, 0.0300, 0.0348, 0.1077, 0.1564)
TOL_2016 = (0.0005, 0.0005, 0.0005, 0.0005, 0.0015, 0.0015, 0.0035, 0.0100)
# Standard deviation of one repetition's calibrated mean per 2016 grade at
# n_sim=100000, from 96 repetitions (seed 11).  The input is fixed, so this
# does not depend on the workload seed; a mean over k_reps repetitions has
# Monte-Carlo standard error SIGMA_2016 / sqrt(k_reps).
SIGMA_2016 = (1.84e-05, 2.59e-05, 3.12e-05, 3.99e-05, 3.56e-04, 3.63e-04, 1.95e-04, 4.37e-04)
SE_MULTIPLE = 6.0

CALIBRATION_HEADER = gen.CALIBRATION_HEADER.split(",")
# End-to-end metrics timed per CLI call; every workload's round makes all four.
CALL_METRICS = ("calibrate_s", "calibrate_serial_s", "compare_s", "predict_s")


class CheckError(Exception):
    """An output differs from what the references say it must be."""


@dataclass
class Call:
    """Outcome of one CLI call."""

    returncode: int
    stderr: str
    wall_s: float
    maxrss_kb: int = 0
    user_s: float = 0.0
    sys_s: float = 0.0


@dataclass
class Op:
    """One CLI call of a round, the metric its wall time feeds and its check."""

    metric: str
    args: list[str]
    out: Path
    check: Callable[[Call], None]
    serial_in_process: bool = False   # add --threads 1 when called in process


@dataclass
class Plan:
    ops: list[Op]
    rows: dict[str, int] = field(default_factory=dict)   # cohort CSV path -> data rows


# ---------------------------------------------------------------- running


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """CLI calls made through ``launch.py``, which keeps their rusage honest."""

    def __init__(self, log_dir: Path) -> None:
        self.log_dir = log_dir
        log_dir.mkdir(parents=True, exist_ok=True)
        self.env = cli_env()
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("launch.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, args: list[str]) -> Call:
        """Run ``python3 -m pdcalib ARGS``: wall time, peak RSS and CPU of the call."""
        stdout, stderr = self.log_dir / "stdout.txt", self.log_dir / "stderr.txt"
        request = {"argv": [sys.executable, "-m", "pdcalib", *args], "cwd": str(ROOT),
                   "env": self.env, "stdout": str(stdout), "stderr": str(stderr),
                   "timeout": CALL_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Call(reply["returncode"], stderr.read_text(encoding="utf-8"), reply["wall_s"],
                    reply["maxrss_kb"], reply["user_s"], reply["sys_s"])


def run_in_process(main, args: list[str]) -> Call:
    err = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    return Call(code, err.getvalue(), time.perf_counter() - started)


class Tally:
    """Attempted and failed operations, and whether every check passed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, op: Op | None, call: Call) -> bool:
        self.attempted += 1
        if call.returncode != 0:
            self.failed += 1
            print(f"failed ({call.returncode}): {' '.join(op.args if op else [])}\n{call.stderr}",
                  file=sys.stderr)
            return False
        if op is not None:
            try:
                op.check(call)
            except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
                # a missing or malformed output file is a wrong output, not a crash
                self.errors.append(f"{op.args[0]} -> {op.out.name}: {type(exc).__name__}: {exc}")
        return True


# ---------------------------------------------------------------- checks


def data_rows(path: Path) -> list[list[str]]:
    """Rows of a CSV written by pdcalib: comment lines dropped, header first."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    return [line.split(",") for line in lines]


def close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(got - want) <= max(rel * abs(want), abs_tol)


def check_calibration(out: Path, rows, k_reps: int, histograms: bool) -> list[float]:
    """Echo of the counts, ordered means and CI, histogram totals; returns the means."""
    table = data_rows(out / "calibration.csv")
    if table[0] != CALIBRATION_HEADER:
        raise CheckError(f"calibration header {table[0]}")
    if len(table) - 1 != len(rows):
        raise CheckError(f"{len(table) - 1} grades, expected {len(rows)}")
    means = []
    for order, (cells, (label, n, d)) in enumerate(zip(table[1:], rows), start=1):
        if cells[:4] != [str(order), label, str(n), str(d)]:
            raise CheckError(f"grade {order} echoes {cells[:4]}, input has {label},{n},{d}")
        if float(cells[4]) != (d / n if n else 0.0):
            raise CheckError(f"grade {label}: observed rate {cells[4]} is not d/n")
        mean, median, lo, hi = (float(c) for c in cells[7:11])
        if not lo <= median <= hi:
            raise CheckError(f"grade {label}: median {median} outside [{lo}, {hi}]")
        means.append(mean)
        if histograms:
            total = sum(int(c[2]) for c in data_rows(out / f"hist_{order}.csv")[1:])
            if total != k_reps:
                raise CheckError(f"hist_{order}.csv counts sum to {total}, not {k_reps}")
    if any(a > b for a, b in zip(means, means[1:])):
        raise CheckError(f"calibrated means out of order: {means}")
    return means


def check_warnings(call: Call, rows) -> None:
    warned = {line.split(":")[1].split()[-1] for line in call.stderr.splitlines()
              if line.startswith("warning: grade ") and "empty cohort" in line}
    empty = {label for label, n, _ in rows if n == 0}
    if warned != empty:
        raise CheckError(f"empty-cohort warnings for {sorted(warned)}, empty cohorts {sorted(empty)}")


def check_same_bytes(first: Path, second: Path) -> None:
    for path in sorted(first.glob("*.csv")):
        if path.read_bytes() != (second / path.name).read_bytes():
            raise CheckError(f"{path.name} differs between thread counts")


def check_comparison(out: Path, rows, inputs: dict[str, list[float]]) -> None:
    """Most-prudent column against the Clopper-Pearson reference; every column
    scaled to the central tendency by one factor from its input."""
    counts = gen.counts(rows)
    table = data_rows(out / "comparison.csv")
    header, body = table[0], table[1:]
    if header[:2] != ["grade_order", "label"] or [c[1] for c in body] != [r[0] for r in rows]:
        raise CheckError("comparison rows do not follow the input grades")
    columns = {name: [float(c[i]) for c in body] for i, name in enumerate(header) if i >= 2}
    if set(columns) != {"pluto_tasche", *inputs}:
        raise CheckError(f"comparison columns {sorted(columns)}")
    want = reference.scale_to_central_tendency(reference.most_prudent(counts, PT_CONFIDENCE), counts)
    for got, ref in zip(columns["pluto_tasche"], want):
        if not close(got, ref, 1e-8):
            raise CheckError(f"pluto_tasche {got!r} vs Clopper-Pearson {ref!r}")
    n_total = sum(n for n, _ in counts)
    ct = sum(d for _, d in counts) / n_total
    for name, column in columns.items():
        weighted = sum(n * pd for (n, _), pd in zip(counts, column)) / n_total
        if not close(weighted, ct, 1e-12, 1e-15):
            raise CheckError(f"{name}: weighted mean {weighted!r} is not D/N = {ct!r}")
    for name, raw in inputs.items():
        factors = [got / given for got, given in zip(columns[name], raw)]
        if any(not close(f, factors[0], 1e-12) for f in factors):
            raise CheckError(f"{name}: not one scaling factor ({min(factors)!r}..{max(factors)!r})")


def check_prediction(out: Path, inputs: gen.Inputs) -> None:
    model = json.loads((out / "model.json").read_text(encoding="utf-8"))
    fitted = (model["intercept"], *(model[f"coefficient_{i}"]
                                    for i in range(1, len(inputs.coefficients))))
    for got, want in zip(fitted, inputs.coefficients):
        if not close(got, want, 0.0, 1e-9):
            raise CheckError(f"coefficient {got!r}, logit surface has {want!r}")
    predicted = data_rows(out / "predictions.csv")[1:]
    if [p for p, _ in predicted] != [p for p, _ in inputs.newdata]:
        raise CheckError("prediction periods differ from newdata")
    b0, *b = inputs.coefficients
    for (period, mu), (_, y) in zip(predicted, inputs.newdata):
        want = 1.0 / (1.0 + math.exp(-(b0 + sum(c * v for c, v in zip(b, y)))))
        if not close(float(mu), want, 1e-9):
            raise CheckError(f"{period}: predicted {mu}, surface gives {want!r}")


# ---------------------------------------------------------------- workloads


def calibrate_pair(input_path: Path, period: str, n_sim: int, k_reps: int, seed: int,
                   work: Path, check: Callable[[Path, Call], None],
                   histograms: bool = False) -> list[Op]:
    """The same calibration at the CLI default thread count and at --threads 1;
    the serial call's outputs must match the default call's byte for byte."""
    base = ["calibrate", "--input", str(input_path), "--period", period, "--n-sim", str(n_sim),
            "--k-reps", str(k_reps), "--seed", str(seed)] + (["--emit-histograms"] if histograms else [])
    default_out, serial_out = work / f"cal-{period}", work / f"cal-{period}-serial"

    def serial_check(call: Call) -> None:
        check(serial_out, call)
        check_same_bytes(default_out, serial_out)

    return [Op("calibrate_s", base + ["--out", str(default_out)], default_out,
               lambda call: check(default_out, call), serial_in_process=True),
            Op("calibrate_serial_s", base + ["--threads", "1", "--out", str(serial_out)],
               serial_out, serial_check)]


def each_followed(pair: list[Op], follow: Callable[[Path], list[Op]]) -> list[Op]:
    """Both calibrations of a pair, each followed by the calls that use its output."""
    return [pair[0], *follow(pair[0].out), pair[1], *follow(pair[1].out)]


def compare_op(input_path: Path, period: str, calibration: Path, external: Path | None,
               work: Path, rows, columns: Callable[[], dict[str, list[float]]]) -> Op:
    out = work / f"cmp-{period}"
    args = ["compare", "--input", str(input_path), "--period", period, "--calibration",
            str(calibration), "--pt-confidence", repr(PT_CONFIDENCE), "--out", str(out)]
    if external is not None:
        args[-2:-2] = ["--external", str(external)]
    return Op("compare_s", args, out, lambda call: check_comparison(out, rows, columns()))


def predict_op(inputs: gen.Inputs, in_dir: Path, work: Path) -> Op:
    out = work / "predict"
    return Op("predict_s", ["predict", "--history", str(in_dir / "history.csv"),
                            "--newdata", str(in_dir / "newdata.csv"), "--out", str(out)],
              out, lambda call: check_prediction(out, inputs))


def calibrated_means(out: Path) -> list[float]:
    return [float(c[7]) for c in data_rows(out / "calibration.csv")[1:]]


class Paper2016:
    name = "paper-2016"
    N_SIM = 100_000
    K_REPS = 2     # the paper runs 300; 2 keeps a round near 4 s on 2 cores

    def generate(self, seed: int) -> gen.Inputs:
        return gen.paper_2016(seed)

    def prepare(self, seed: int, work: Path) -> Plan:
        inputs = self.generate(seed)
        gen.write(inputs, work / "in")
        periods = reference.read_cohorts(DATASET)
        rows = periods["2016"]
        counts = gen.counts(rows)
        limit = reference.sweep_limit(counts)

        def check(out: Path, call: Call) -> None:
            means = check_calibration(out, rows, self.K_REPS, histograms=True)
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            # A repetition whose noisy means happen to be in order one pass
            # early (1 of 196 repetitions seen) stops before the limit's pass count;
            # the limit and SIGMA_2016 describe only sweeps of the same length.
            same_passes = manifest["passes_min"] == manifest["passes_max"] == limit.passes
            for g, (mean, lim, sigma, pub, tol) in enumerate(
                    zip(means, limit.means, SIGMA_2016, MEANS_2016, TOL_2016), start=1):
                se = sigma / math.sqrt(self.K_REPS)
                if same_passes and abs(mean - lim) > SE_MULTIPLE * se:
                    raise CheckError(f"grade {g}: mean {mean!r} is {abs(mean - lim) / se:.1f} "
                                     f"standard errors from the limit {lim!r}")
                if abs(mean - pub) > tol:
                    raise CheckError(f"grade {g}: mean {mean!r} outside {pub} +- {tol}")

        pair = calibrate_pair(DATASET, "2016", self.N_SIM, self.K_REPS, seed, work, check,
                              histograms=True)
        ops = each_followed(pair, lambda out: [
            compare_op(DATASET, "2016", out / "calibration.csv", None, work, rows,
                       lambda: {"simulated": calibrated_means(out)}),
            predict_op(inputs, work / "in", work)])
        return Plan(ops, {str(DATASET): sum(len(r) for r in periods.values())})


class ThinHistory:
    name = "thin-history"
    PERIODS = 3
    # At n_sim=1000 a random thin portfolio exhausted its top-ups (80 of 11000
    # pairs accepted); at 5000 the generator keeps every limit step 4x above
    # the acceptance min_accepted / (11 n_sim) that could do so.
    N_SIM = 5000
    K_REPS = 4
    MARGIN = 4.0

    def generate(self, seed: int) -> gen.Inputs:
        return gen.thin_history(seed, self.PERIODS, self.N_SIM, MIN_ACCEPTED,
                                MAX_RESAMPLE_ROUNDS, self.MARGIN)

    def prepare(self, seed: int, work: Path) -> Plan:
        inputs = self.generate(seed)
        gen.write(inputs, work / "in")
        cohorts = work / "in" / "cohorts.csv"
        ops: list[Op] = []
        for period, rows in inputs.periods.items():
            def check(out: Path, call: Call, rows=rows) -> None:
                check_calibration(out, rows, self.K_REPS, histograms=False)
                check_warnings(call, rows)

            pair = calibrate_pair(cohorts, period, self.N_SIM, self.K_REPS, seed, work, check)
            ops.extend(each_followed(pair, lambda out, rows=rows, period=period: [
                compare_op(cohorts, period, out / "calibration.csv", None, work, rows,
                           lambda: {"simulated": calibrated_means(out)}),
                predict_op(inputs, work / "in", work)]))
        return Plan(ops, {str(cohorts): sum(len(r) for r in inputs.periods.values())})


class PrudentReport:
    name = "prudent-report"
    PERIODS = 2
    GRADES = 20
    # compare does no Monte Carlo; the short calibration beside it keeps
    # calibrate_s defined here and stays a small share of the round
    N_SIM = 2000
    K_REPS = 2
    MARGIN = 4.0

    def generate(self, seed: int) -> gen.Inputs:
        return gen.prudent_report(seed, self.PERIODS, self.GRADES, self.N_SIM, MIN_ACCEPTED,
                                  MAX_RESAMPLE_ROUNDS, self.MARGIN)

    def prepare(self, seed: int, work: Path) -> Plan:
        inputs = self.generate(seed)
        in_dir = work / "in"
        gen.write(inputs, in_dir)
        cohorts = in_dir / "cohorts.csv"
        ops: list[Op] = []
        for period, rows in inputs.periods.items():
            def check(out: Path, call: Call, rows=rows) -> None:
                check_calibration(out, rows, self.K_REPS, histograms=False)
                check_warnings(call, rows)

            ops.append(compare_op(cohorts, period, in_dir / f"calibration_{period}.csv",
                                  in_dir / f"external_{period}.csv", work, rows,
                                  lambda period=period: {"simulated": inputs.calibration_means[period],
                                                         **inputs.external[period]}))
            pair = calibrate_pair(cohorts, period, self.N_SIM, self.K_REPS, seed, work, check)
            ops.extend(each_followed(pair, lambda out: [predict_op(inputs, in_dir, work)]))
        return Plan(ops, {str(cohorts): self.PERIODS * self.GRADES})


WORKLOADS = {w.name: w for w in (Paper2016(), ThinHistory(), PrudentReport())}


# ---------------------------------------------------------------- untraced run


def more_rounds(started: float, rounds: int, seconds: float) -> bool:
    """Whole rounds, as many as bring the run nearest to ``seconds``."""
    elapsed = time.perf_counter() - started
    return rounds == 0 or elapsed + 0.5 * elapsed / rounds < seconds


def measure(plan: Plan, cli: Launcher, seconds: float) -> tuple[Tally, dict]:
    tally = Tally()
    cli.run(["--version"])          # compiles bytecode before the timed probes
    setup = []

    def probe() -> None:
        call = cli.run(["--version"])
        if tally.record(None, call):
            setup.append(call.wall_s)

    for _ in range(SETUP_PROBES):
        probe()
    samples: dict[str, list[float]] = {name: [] for name in CALL_METRICS}
    peak_kb = 0
    rounds = 0
    started = time.perf_counter()
    while more_rounds(started, rounds, seconds):
        probe()
        for op in plan.ops:
            call = cli.run(op.args)
            if tally.record(op, call):
                samples[op.metric].append(call.wall_s)
            peak_kb = max(peak_kb, call.maxrss_kb)
        rounds += 1
    metrics = {"setup_s": (statistics.median(setup), "s")}
    for name, values in samples.items():
        metrics[name] = (statistics.median(values) if values else float("nan"), "s")
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    samples["setup_s"] = setup
    info = {"rounds": rounds,
            "calls_s": {name: [round(v, 4) for v in values] for name, values in samples.items()}}
    return tally, {"metrics": metrics, "info": info}


# ---------------------------------------------------------------- traced run


def beta_draws(args, kwargs, result) -> dict[str, int]:
    """Variates one ``sample_beta(p, rng, size=None)`` call returned."""
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return {"draws": 1 if size is None else int(size)}


def install(tracer: Tracer, plan: Plan) -> None:
    from pdcalib import benchmarks, calibrator, cli

    def sweep_attrs(args, kwargs, result):
        return {"passes": result.passes, "pairs": len(result.labels) - 1,
                "accept_min": min(result.acceptance_rates)}

    for attr in ("cmd_calibrate", "cmd_compare", "cmd_predict"):
        tracer.wrap(cli, attr, f"cli.{attr}")
    tracer.wrap(cli, "parse_cohort_csv", "cohorts.parse_cohort_csv",
                lambda a, k, r: {"rows": plan.rows.get(str(a[0]), 0)})
    tracer.wrap(cli, "compute_posterior", "posterior.compute_posterior")
    tracer.wrap(cli, "calibrate", "calibrator.calibrate")
    tracer.wrap(cli, "export_histograms", "calibrator.export_histograms")
    tracer.wrap(calibrator, "run_sweep", "calibrator.run_sweep", sweep_attrs)
    tracer.wrap(calibrator, "fit_beta_moments", "calibrator.fit_beta_moments")
    tracer.wrap(calibrator, "sample_beta", "statdist.sample_beta", beta_draws)
    tracer.wrap(cli, "pluto_tasche", "benchmarks.pluto_tasche",
                lambda a, k, r: {"grades": len(a[0].grades)})
    tracer.wrap(benchmarks, "solve_monotone", "statdist.solve_monotone")
    tracer.wrap(benchmarks, "binomial_tail_le", "statdist.binomial_tail_le")
    tracer.wrap(cli, "parse_external_csv", "benchmarks.parse_external_csv")
    tracer.wrap(cli, "align_external", "benchmarks.align_external")
    tracer.wrap(cli, "build_comparison", "benchmarks.build_comparison")
    tracer.wrap(cli, "parse_history_csv", "betareg.parse_history_csv")
    tracer.wrap(cli, "fit_regression", "betareg.fit")
    tracer.wrap(cli, "predict_mean", "betareg.predict_mean")


def ancestor(spans, span, levels: int) -> str:
    """Name of the span ``levels`` up from ``span``, or "" above the top."""
    for _ in range(levels):
        if span.parent < 0:
            return ""
        span = spans[span.parent]
    return span.name


def layer_metrics(spans, own, first: int, last: int) -> dict[str, float]:
    """Per-layer figures of the spans with index in [first, last)."""
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    count: dict[str, int] = {}
    for i in range(first, last):
        name = spans[i].name
        total[name] = total.get(name, 0.0) + spans[i].duration
        self_total[name] = self_total.get(name, 0.0) + own[i]
        count[name] = count.get(name, 0) + 1
    sweeps = [s for s in spans[first:last] if s.name == "calibrator.run_sweep"]
    samples = [s for s in spans[first:last] if s.name == "statdist.sample_beta"]
    in_sweep = sum(1 for s in samples if ancestor(spans, s, 1) == "calibrator.run_sweep")
    pair_steps = sum(s.attrs["passes"] * s.attrs["pairs"] for s in sweeps)
    draws = sum(s.attrs["draws"] for s in samples)
    rows = sum(s.attrs["rows"] for s in spans[first:last] if s.name == "cohorts.parse_cohort_csv")
    grades = sum(s.attrs["grades"] for s in spans[first:last] if s.name == "benchmarks.pluto_tasche")
    pt_tails = sum(1 for s in spans[first:last] if s.name == "statdist.binomial_tail_le"
                   and ancestor(spans, s, 2) == "benchmarks.pluto_tasche")
    t = total.get
    parse_s = t("cohorts.parse_cohort_csv", 0.0)
    return {
        "cohorts.parse_s": parse_s,
        "cohorts.rows_per_s": rows / parse_s if parse_s else 0.0,
        "posterior.compute_s": t("posterior.compute_posterior", 0.0),
        "statdist.sample_beta_s": t("statdist.sample_beta", 0.0),
        "statdist.draws": draws,
        "statdist.ns_per_draw": 1e9 * t("statdist.sample_beta", 0.0) / draws if draws else 0.0,
        "statdist.binomial_tail_s": t("statdist.binomial_tail_le", 0.0),
        "statdist.binomial_tail_calls": count.get("statdist.binomial_tail_le", 0),
        "statdist.solve_monotone_self_s": self_total.get("statdist.solve_monotone", 0.0),
        "calibrator.sweep_s": t("calibrator.run_sweep", 0.0),
        "calibrator.sweep_self_s": self_total.get("calibrator.run_sweep", 0.0),
        "calibrator.pair_steps": pair_steps,
        "calibrator.topup_blocks": in_sweep // 2 - pair_steps,
        "calibrator.passes_mean": statistics.fmean(s.attrs["passes"] for s in sweeps) if sweeps else 0.0,
        "calibrator.accept_ratio_min": min((s.attrs["accept_min"] for s in sweeps), default=0.0),
        "calibrator.fit_s": t("calibrator.fit_beta_moments", 0.0),
        "calibrator.aggregate_s": self_total.get("calibrator.calibrate", 0.0),
        "calibrator.histogram_s": t("calibrator.export_histograms", 0.0),
        "benchmarks.pluto_tasche_s": t("benchmarks.pluto_tasche", 0.0),
        "benchmarks.tail_evals_per_grade": pt_tails / grades if grades else 0.0,
        "benchmarks.build_comparison_s": t("benchmarks.build_comparison", 0.0),
        "betareg.parse_s": t("betareg.parse_history_csv", 0.0),
        "betareg.fit_s": t("betareg.fit", 0.0),
        "betareg.predict_s": t("betareg.predict_mean", 0.0),
        "cli.self_s": sum(v for k, v in self_total.items() if k.startswith("cli.cmd_")),
    }


LAYER_UNITS = {"rows_per_s": "1/s", "draws": "count", "ns_per_draw": "ns",
               "binomial_tail_calls": "count", "pair_steps": "count", "topup_blocks": "count",
               "passes_mean": "count", "accept_ratio_min": "ratio", "parallel_efficiency": "ratio",
               "tail_evals_per_grade": "count", "bytes_written": "B"}


def traced(plan: Plan, launcher: Launcher, seconds: float, trace_file: Path) -> tuple[Tally, dict]:
    tally = Tally()
    started = time.perf_counter()
    # One untraced round through the CLI: parallel efficiency, CPU and bytes.
    walls: dict[str, list[float]] = {}
    cpu_user = cpu_sys = 0.0
    written = 0
    for op in plan.ops:
        call = launcher.run(op.args)
        tally.record(op, call)
        walls.setdefault(op.metric, []).append(call.wall_s)
        cpu_user += call.user_s
        cpu_sys += call.sys_s
        written += sum(p.stat().st_size for p in op.out.iterdir())
    efficiency = (statistics.median(walls["calibrate_serial_s"])
                  / (WORKERS * statistics.median(walls["calibrate_s"])))

    sys.path.insert(0, str(SRC))
    from pdcalib import cli

    def in_process_args(op: Op) -> list[str]:
        return op.args + (["--threads", "1"] if op.serial_in_process else [])

    tracer = Tracer()
    plain, traced_walls, bounds = [], [], []
    while more_rounds(started, len(bounds), seconds):
        round_start = time.perf_counter()
        for op in plan.ops:
            tally.record(op, run_in_process(cli.main, in_process_args(op)))
        plain.append(time.perf_counter() - round_start)
        first = len(tracer.spans)
        install(tracer, plan)
        round_start = time.perf_counter()
        try:
            for op in plan.ops:
                tally.record(op, run_in_process(cli.main, in_process_args(op)))
                tracer.call_id += 1
        finally:
            traced_walls.append(time.perf_counter() - round_start)
            tracer.uninstall()
        bounds.append((first, len(tracer.spans)))
    tracer.write_jsonl(trace_file)

    own = self_times(tracer.spans)
    per_round = [layer_metrics(tracer.spans, own, a, b) for a, b in bounds]
    metrics = {}
    for name in per_round[0]:
        value = statistics.median(r[name] for r in per_round)
        metrics[name] = (value, LAYER_UNITS.get(name.split(".", 1)[1], "s"))
    metrics["calibrator.parallel_efficiency"] = (efficiency, "ratio")
    metrics["cli.bytes_written"] = (written, "B")
    metrics["cli.user_cpu_s"] = (cpu_user, "s")
    metrics["cli.sys_cpu_s"] = (cpu_sys, "s")
    spans_per_round = statistics.median(b - a for a, b in bounds)
    metrics["trace.overhead_s"] = (span_cost() * spans_per_round, "s")
    info = {"traced_rounds": len(bounds), "spans": len(tracer.spans),
            "traced_minus_untraced_s": statistics.median(traced_walls) - statistics.median(plain),
            "trace_file": str(trace_file.relative_to(ROOT))}
    return tally, {"metrics": metrics, "info": info}


# ---------------------------------------------------------------- entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pdcalib end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pdcalib" / "cli.py").is_file() or not DATASET.is_file():
        print(f"error: no pdcalib source tree at {ROOT} (need src/pdcalib and {DATASET.name})",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 63:
        print(f"error: seed must lie in [0, 2**63), got {args.seed}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workload.prepare(args.seed, work)
        with Launcher(work / "log") as launcher:
            if args.trace:
                trace_file = WORK / f"trace-{workload.name}-{args.seed}.jsonl"
                tally, result = traced(plan, launcher, args.seconds, trace_file)
            else:
                tally, result = measure(plan, launcher, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {"workload": workload.name, "seed": args.seed, "cores": os.cpu_count(),
            "workers": WORKERS, "python": sys.version.split()[0], "numpy": np.__version__,
            **result["info"]}
    print("# " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    for error in tally.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
