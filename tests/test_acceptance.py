"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (run pytest with ``-s`` to see them
live).  The expensive full-size calibration runs once per session and is
shared.  Expected wall time for the whole module: a few minutes on a
2-core box.
"""

import math
import os
from statistics import NormalDist

import numpy as np
import pytest

from pdcalib.benchmarks import central_tendency, pluto_tasche, scale_to_ct
from pdcalib.calibrator import (CalibrationConfig, calibrate, export_histograms,
                                fit_beta_moments, oracle_conditional_means_2grade, run_sweep)
from pdcalib.cli import main
from pdcalib.cohorts import CohortSnapshot, GradeCount, compute_posterior
from pdcalib.statdist import BetaParams, rng_stream

WORKERS = os.cpu_count() or 1  # the CLI's --threads default

# published reference values (decimals) and this suite's tolerances
MEANS_2016 = (0.0005, 0.0009, 0.0013, 0.0022, 0.0300, 0.0348, 0.1077, 0.1564)
TOL_2016 = (0.0005, 0.0005, 0.0005, 0.0005, 0.0015, 0.0015, 0.0035, 0.0100)
PT_SCALED_2016_HEAD = (0.0117, 0.0117, 0.0120, 0.0143)   # grades 1-4, tol 0.0015
PT_SCALED_2016_TAIL = (0.0642, 0.0642)                   # grades 7-8, tol 0.0030
CAP_2016 = (0.0026, 0.0026, 0.0028, 0.0052, 0.0167, 0.0429, 0.0944, 0.1167)
QMM_2016 = (0.0003, 0.0009, 0.0027, 0.0071, 0.0163, 0.0368, 0.0982, 0.2489)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


@pytest.fixture(scope="module")
def calib_2016_full(snapshot_2016):
    cfg = CalibrationConfig(n_sim=100_000, k_reps=300, seed=42)
    return calibrate(compute_posterior(snapshot_2016), cfg, workers=WORKERS)


def test_01_table_reproduction_2016(calib_2016_full):
    diffs = [m - t for m, t in zip(calib_2016_full.grade_means, MEANS_2016)]
    ok = all(abs(d) <= tol for d, tol in zip(diffs, TOL_2016))
    detail = " ".join(f"g{i + 1}:{100 * d:+.3f}pp" for i, d in enumerate(diffs))
    report("01 calibrated-means-2016 (n_sim=100k, k_reps=300)", ok, detail)
    # reported interval sits inside each grade's histogram span by construction
    for (edges, _), lo, hi in zip(export_histograms(calib_2016_full.sweep_means),
                                  calib_2016_full.ci_lower, calib_2016_full.ci_upper):
        assert edges[0] <= lo <= hi <= edges[-1]


def test_02_stability_in_simulation_count(snapshot_2017):
    post = compute_posterior(snapshot_2017)
    # the criterion pins n_sim; 40 repetitions keep the per-arm standard
    # error far below the 0.3pp band
    small = calibrate(post, CalibrationConfig(n_sim=100_000, k_reps=40, seed=1001),
                      workers=WORKERS)
    large = calibrate(post, CalibrationConfig(n_sim=500_000, k_reps=40, seed=1002),
                      workers=WORKERS)
    diffs = [a - b for a, b in zip(large.grade_means, small.grade_means)]
    ok = all(abs(d) <= 0.003 for d in diffs)
    detail = " ".join(f"g{i + 1}:{100 * d:+.3f}pp" for i, d in enumerate(diffs))
    report("02 mean-stability-100k-vs-500k (2017)", ok, detail)


def test_03_central_tendencies(snapshot_2016, snapshot_2017):
    ct16 = central_tendency(snapshot_2016)
    ct17 = central_tendency(snapshot_2017)
    # exact fractions from the fixture counts; the quoted 4-decimal values
    # (2.0778% and 0.6561%) are display roundings of those fractions
    ok = ct16 == 124 / 5968 and ct17 == 51 / 7773 \
        and abs(100 * ct16 - 2.0778) < 1e-3 and abs(100 * ct17 - 0.6561) < 1e-3
    report("03 central-tendencies", ok, f"2016={100 * ct16:.4f}% 2017={100 * ct17:.4f}%")


def test_04_scaling_of_published_means(snapshot_2016):
    scaled = scale_to_ct(list(MEANS_2016), snapshot_2016)
    ok = abs(scaled[4] - 0.0282) <= 0.0002 and abs(scaled[5] - 0.0327) <= 0.0002
    report("04 scaling-check-grades-5-6", ok,
           f"g5={100 * scaled[4]:.3f}% g6={100 * scaled[5]:.3f}%")


def test_05_most_prudent_benchmark(snapshot_2016):
    scaled = scale_to_ct(pluto_tasche(snapshot_2016, 0.75), snapshot_2016)
    head_ok = all(abs(scaled[i] - PT_SCALED_2016_HEAD[i]) <= 0.0015 for i in range(4))
    tail_ok = all(abs(scaled[6 + i] - PT_SCALED_2016_TAIL[i]) <= 0.0030 for i in range(2))
    report("05 pluto-tasche-2016-scaled", head_ok and tail_ok,
           " ".join(f"g{i + 1}={100 * v:.3f}%" for i, v in enumerate(scaled)))


def test_06_two_grade_oracle_equivalence():
    # single-pair sweeps against the independent quadrature of the
    # order-constrained marginal means: ten random cohort pairs, then the
    # 2016 fixture's zero-default pairs A/BBB, BBB/BB and AAA/AA
    rng = np.random.default_rng(606)
    pairs = []
    for _ in range(10):
        n1, n2 = (int(rng.integers(50, 2000)) for _ in range(2))
        r1 = float(rng.uniform(0.01, 0.15))
        r2 = float(np.clip(r1 + rng.uniform(-0.005, 0.08), 0.005, 0.3))
        d1, d2 = round(r1 * n1), round(r2 * n2)
        pairs.append((BetaParams(1.0 + d1, 1.0 + n1 - d1), BetaParams(1.0 + d2, 1.0 + n2 - d2)))
    pairs += [(BetaParams(1, 935), BetaParams(1, 1815)), (BetaParams(1, 1815), BetaParams(61, 1411)),
              (BetaParams(1, 15), BetaParams(1, 154))]
    # The whole family of z-values (two per pair) may raise a false alarm as
    # often as one 3-SE check does, 0.27%; Bonferroni splits that rate evenly,
    # so each value is held to 3.88 SE.
    family_rate = 2.0 * NormalDist().cdf(-3.0)
    bound = NormalDist().inv_cdf(1.0 - family_rate / (2.0 * 2 * len(pairs)))
    worst = 0.0
    for trial, (p1, p2) in enumerate(pairs):
        cfg = CalibrationConfig(n_sim=100_000, k_reps=1, seed=7000 + trial)
        sweep = run_sweep({"a": p1, "b": p2}, cfg, rng_stream(cfg.seed, 0))
        oracle = oracle_conditional_means_2grade(p1, p2)
        kept = max(sweep.acceptance_rates[0] * cfg.n_sim, 1.0)
        for got, want, params in zip(sweep.means, oracle, sweep.params):
            mean = params.alpha / (params.alpha + params.beta)
            se = math.sqrt(mean * (1.0 - mean) / (params.alpha + params.beta + 1.0) / kept)
            worst = max(worst, abs(got - want) / se)
            assert abs(got - want) <= bound * se, (trial, got, want, se)
    report("06 oracle-equivalence-13-pairs", worst <= bound,
           f"worst |dev|/SE={worst:.2f}, bound {bound:.2f}")


def test_07_monotonicity_on_random_portfolios():
    # random cohort portfolios with noise-induced rank inversions
    rng = np.random.default_rng(707)
    violations = 0
    for trial in range(50):
        m = int(rng.integers(3, 11))
        base_rates = np.sort(rng.uniform(0.002, 0.25, size=m))
        grades = []
        for order in range(1, m + 1):
            n = int(rng.integers(0, 5001))
            d = int(rng.binomial(n, base_rates[order - 1])) if n else 0
            grades.append(GradeCount(order, f"g{order}", n, d))
        post = compute_posterior(CohortSnapshot(f"p{trial}", tuple(grades)))
        cfg = CalibrationConfig(n_sim=20_000, k_reps=1, seed=9000 + trial)
        sweep = run_sweep(post, cfg, rng_stream(cfg.seed, 0))
        if any(a > b for a, b in zip(sweep.means, sweep.means[1:])):
            violations += 1
    report("07 monotonicity-50-random-portfolios", violations == 0,
           f"violations={violations}")


def test_08_moment_matching_inverse():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(1000):
        mean = float(rng.uniform(0.001, 0.999))
        bound = mean * (1.0 - mean)
        variance = float(rng.uniform(1e-6, 0.999)) * bound
        fitted = fit_beta_moments(mean, math.sqrt(variance))
        total = fitted.alpha + fitted.beta
        mean_back = fitted.alpha / total
        var_back = mean_back * (1.0 - mean_back) / (total + 1.0)
        worst = max(worst, abs(mean_back - mean) / mean, abs(var_back - variance) / variance)
        assert abs(mean_back - mean) <= 1e-9 * mean
        assert abs(var_back - variance) <= 1e-9 * variance
    report("08 moment-matching-inverse-1000", worst <= 1e-9, f"worst rel err={worst:.2e}")


def test_09_cli_determinism_across_threads(fixture_csv, tmp_path):
    outputs = []
    for threads, sub in ((1, "a"), (8, "b")):
        out = tmp_path / sub
        rc = main(["calibrate", "--input", str(fixture_csv), "--period", "2016",
                   "--n-sim", "20000", "--k-reps", "8", "--seed", "42",
                   "--threads", str(threads), "--out", str(out)])
        assert rc == 0
        outputs.append((out / "calibration.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    report("09 cli-byte-determinism-threads-1-vs-8", ok, f"{len(outputs[0])} bytes")


def test_10_undefined_methods_are_passthrough_only(snapshot_2016):
    # CAP and QMM are display-only columns supplied externally; the package
    # deliberately implements neither, and no output reproduces the
    # internally inconsistent reported per-grade default-rate column.
    import pdcalib
    from pdcalib.benchmarks import build_comparison
    exposed = {name.lower() for name in dir(pdcalib)}
    ok = not any(key in name for name in exposed for key in ("qmm", "cap_", "vdb"))
    table = build_comparison(snapshot_2016, list(MEANS_2016), pluto_tasche(snapshot_2016),
                             external={"cap": list(CAP_2016), "qmm": list(QMM_2016)})
    ok = ok and set(table) == {"simulated", "pluto_tasche", "cap", "qmm"}
    from pdcalib.cli import CALIBRATION_HEADER
    ok = ok and "default_rate" not in CALIBRATION_HEADER  # observed_rate comes from counts
    report("10 cap-qmm-passthrough-only", ok, "external columns scale and display")
