import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdcalib
from pdcalib import calibrator, cli, csvio, statdist
from pdcalib.cli import main
from pdcalib.cohorts import compute_posterior, parse_cohort_csv

TAME_CSV = """period,grade_order,grade_label,performing_start,defaults_end
T1,1,A,800,8
T1,2,B,900,7
T1,3,C,400,20
"""


@pytest.fixture()
def tame_csv(tmp_path: Path) -> Path:
    path = tmp_path / "cohorts.csv"
    path.write_text(TAME_CSV, encoding="utf-8")
    return path


def run_calibrate(csv_path: Path, out: Path, **overrides) -> int:
    args = ["calibrate", "--input", str(csv_path), "--period", "T1",
            "--n-sim", "1000", "--k-reps", "4", "--seed", "7", "--threads", "1",
            "--out", str(out)]
    for flag, value in overrides.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    return main(args)


def read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [l for l in path.read_text(encoding="utf-8").splitlines()
             if l and not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


class TestCalibrateCommand:
    def test_writes_results(self, tame_csv, tmp_path):
        out = tmp_path / "out"
        assert run_calibrate(tame_csv, out) == 0
        header, rows = read_csv_rows(out / "calibration.csv")
        assert header == ["grade_order", "label", "n", "d", "observed_rate", "alpha_hat",
                          "beta_hat", "mean", "median", "ci_lo", "ci_hi"]
        assert [r[1] for r in rows] == ["A", "B", "C"]
        means = [float(r[7]) for r in rows]
        assert all(a <= b for a, b in zip(means, means[1:]))
        assert all(0.0 < m < 1.0 for m in means)  # decimals, not percentages
        assert rows[0][2] == "800" and rows[0][3] == "8"
        assert float(rows[0][4]) == pytest.approx(8 / 800)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "calibrate"
        assert manifest["period"] == "T1"
        assert manifest["n_sim"] == 1000 and manifest["k_reps"] == 4
        assert manifest["numpy_version"] == np.__version__
        assert "acceptance_rate_pair_1" in manifest and "input_digest" in manifest
        assert (out / "calibration.csv").read_text().startswith("# manifest: manifest.json\n")
        # noise figures: sd of the per-repetition means over sqrt(k_reps), and passes
        histogram = manifest["passes_histogram"]
        assert sum(histogram.values()) == 4
        assert min(map(int, histogram)) == manifest["passes_min"]
        assert max(map(int, histogram)) == manifest["passes_max"]
        post = compute_posterior(parse_cohort_csv(tame_csv)[0])
        sweeps = calibrator.calibrate(post, calibrator.CalibrationConfig(1000, 4, 7)).sweep_means
        for i, want in enumerate(sweeps.std(axis=0, ddof=1) / 2.0, start=1):
            assert manifest[f"mc_se_grade_{i}"] == pytest.approx(want, rel=1e-12)
            assert 0.0 < want < float(rows[i - 1][10]) - float(rows[i - 1][9])
        assert "mc_se_grade_4" not in manifest
        assert not any("mc_se" in line or "passes" in line or "draws" in line or "topup" in line
                       for line in (out / "calibration.csv").read_text().splitlines())

    def test_draw_counts_match_the_sampler_calls(self, tame_csv, tmp_path, monkeypatch):
        sizes = []

        def counting(p, rng, size):
            sizes.append(size)
            return statdist.sample_beta(p, rng, size=size)

        monkeypatch.setattr(calibrator, "sample_beta", counting)
        # 40,000 pairs are drawn as a full chunk and a partial one
        for n_sim in (1000, 40_000):
            sizes.clear()
            out = tmp_path / f"out{n_sim}"
            assert run_calibrate(tame_csv, out, n_sim=n_sim) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["draws_total"] == sum(sizes) > 0
            calls_per_block = 2 * math.ceil(n_sim / calibrator._CHUNK)
            assert len(sizes) % calls_per_block == 0
            pair_steps = 2 * sum(int(p) * n for p, n in manifest["passes_histogram"].items())
            assert manifest["topup_blocks_total"] == len(sizes) // calls_per_block - pair_steps

    def test_single_rep_has_no_standard_error(self, tame_csv, tmp_path):
        out = tmp_path / "out"
        assert run_calibrate(tame_csv, out, k_reps=1) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [manifest[f"mc_se_grade_{i}"] for i in (1, 2, 3)] == [None, None, None]
        assert sum(manifest["passes_histogram"].values()) == 1

    def test_single_rep_collapses_interval(self, tame_csv, tmp_path):
        out = tmp_path / "out"
        assert run_calibrate(tame_csv, out, k_reps=1) == 0
        _, rows = read_csv_rows(out / "calibration.csv")
        for row in rows:
            assert row[7] == row[8] == row[9] == row[10]

    def test_empty_cohort_warning(self, tmp_path, capsys):
        cohorts = tmp_path / "cohorts.csv"
        cohorts.write_text(f"{TAME_CSV.splitlines()[0]}\nT1,1,A,0,0\nT1,2,B,500,5\n",
                           encoding="utf-8")
        out = tmp_path / "out"
        assert run_calibrate(cohorts, out, n_sim=2000, k_reps=2, seed=3) == 0
        warning = "grade A: empty cohort, posterior equals the prior"
        assert capsys.readouterr().err.splitlines() == [f"warning: {warning}"]
        assert json.loads((out / "manifest.json").read_text())["warnings"] == warning

    def test_unknown_period_exits_2(self, tame_csv, tmp_path, capsys):
        rc = main(["calibrate", "--input", str(tame_csv), "--period", "T9",
                   "--n-sim", "1000", "--k-reps", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "T9" in capsys.readouterr().err

    def test_calibration_failure_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "inverted.csv"
        bad.write_text("period,grade_order,grade_label,performing_start,defaults_end\n"
                       "T1,1,A,10000,5000\nT1,2,B,10000,0\n", encoding="utf-8")
        rc = main(["calibrate", "--input", str(bad), "--period", "T1", "--n-sim", "1000",
                   "--k-reps", "1", "--threads", "1", "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "order constraint" in err and "too far inverted" in err

    def test_variance_error_exits_3_with_its_repetition(self, tame_csv, tmp_path, monkeypatch,
                                                        capsys):
        def fail(mean, sd):
            raise calibrator.VarianceTooLargeError("no beta distribution has this variance")

        # a ValueError too, so the numeric exit must be chosen before the input one
        monkeypatch.setattr(calibrator, "fit_beta_moments", fail)
        assert run_calibrate(tame_csv, tmp_path / "out", k_reps=1) == 3
        assert "repetition 0: no beta distribution" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_thin_acceptance_names_a_workable_n_sim(self, fixture_csv, tmp_path, capsys):
        # period 2016 keeps about 0.1% of pair 5's draws: 2000 is too few
        args = ["calibrate", "--input", str(fixture_csv), "--period", "2016", "--k-reps", "1",
                "--threads", "1", "--out", str(tmp_path / "o")]
        assert main(args + ["--n-sim", "2000"]) == 3
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert "pair 5" in err and "too far inverted" not in err
        needed = int(re.search(r"n_sim needs to be about (\d+) or more", err).group(1))
        assert needed > 2000 and needed % 1000 == 0
        assert main(args + ["--n-sim", str(needed)]) == 0

    def test_thread_count_does_not_change_bytes(self, tame_csv, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert run_calibrate(tame_csv, out1, threads=1) == 0
        assert run_calibrate(tame_csv, out2, threads=2) == 0
        assert (out1 / "calibration.csv").read_bytes() == (out2 / "calibration.csv").read_bytes()

    def test_no_threads_exits_2(self, tame_csv, tmp_path, capsys):
        assert run_calibrate(tame_csv, tmp_path / "out", threads=0) == 2
        assert capsys.readouterr().err == "error: --threads must be at least 1, got 0\n"
        assert not (tmp_path / "out").exists()

    def test_negative_threads_exit_2_before_the_input_is_read(self, tmp_path, capsys):
        assert run_calibrate(tmp_path / "missing.csv", tmp_path / "out", threads=-1) == 2
        assert capsys.readouterr().err == "error: --threads must be at least 1, got -1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("k_reps", [5, 1])
    def test_histograms_emitted(self, tame_csv, tmp_path, k_reps):
        out = tmp_path / "out"
        args = ["calibrate", "--input", str(tame_csv), "--period", "T1", "--n-sim", "1000",
                "--k-reps", str(k_reps), "--seed", "1", "--threads", "1", "--out", str(out),
                "--emit-histograms"]
        assert main(args) == 0
        for order in (1, 2, 3):
            header, rows = read_csv_rows(out / f"hist_{order}.csv")
            assert header == ["bin_lo", "bin_hi", "count"]
            assert sum(int(r[2]) for r in rows) == k_reps

    def test_rerun_without_histograms_removes_old_ones(self, tame_csv, tmp_path):
        out = tmp_path / "out"
        args = ["calibrate", "--input", str(tame_csv), "--period", "T1", "--n-sim", "1000",
                "--k-reps", "3", "--threads", "1", "--out", str(out)]
        assert main(args + ["--emit-histograms"]) == 0
        assert sorted(p.name for p in out.glob("hist_*.csv")) == [
            "hist_1.csv", "hist_2.csv", "hist_3.csv"]
        (out / "notes.txt").write_text("kept\n", encoding="utf-8")
        assert main(args) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "calibration.csv", "manifest.json", "notes.txt"]
        assert json.loads((out / "manifest.json").read_text())["emit_histograms"] is False

    def test_failed_write_leaves_previous_outputs(self, tame_csv, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert run_calibrate(tame_csv, out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(before) == {"calibration.csv", "manifest.json"}

        def fail(doc):
            raise OSError("disk full")

        monkeypatch.setattr(csvio, "json_text", fail)
        assert run_calibrate(tame_csv, out, seed=8) == 2
        assert "disk full" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_out_that_is_a_file_exits_2_before_the_run(self, tame_csv, tmp_path, capsys,
                                                        monkeypatch):
        out = tmp_path / "out"
        out.write_text("kept\n", encoding="utf-8")
        monkeypatch.setattr(cli, "parse_cohort_csv", None)  # the input is not even read
        assert run_calibrate(tame_csv, out) == 2
        assert capsys.readouterr().err == f"error: --out {out} exists and is not a directory\n"
        assert out.read_text(encoding="utf-8") == "kept\n"

    def test_pass_budget_exhausted_exits_3(self, tmp_path, monkeypatch, capsys):
        # the portfolio of test_calibrator's pass-budget test, as counts
        path = tmp_path / "cohorts.csv"
        path.write_text("period,grade_order,grade_label,performing_start,defaults_end\n"
                        "T1,1,A,400,16\nT1,2,B,200,4\nT1,3,C,400,10\n", encoding="utf-8")
        monkeypatch.setattr(calibrator, "_MAX_PASSES", 1)
        assert run_calibrate(path, tmp_path / "out", n_sim=2000, k_reps=1, seed=5) == 3
        assert "after 1 passes" in capsys.readouterr().err

    def test_pretty_prints_percentages(self, tmp_path, capsys):
        # grade C near 15%: its cells are wider than the header "ci_hi"
        path = tmp_path / "cohorts.csv"
        path.write_text(TAME_CSV.replace("400,20", "400,60"), encoding="utf-8")
        rc = main(["calibrate", "--input", str(path), "--period", "T1", "--n-sim", "1000",
                   "--k-reps", "2", "--threads", "1", "--out", str(tmp_path / "out"), "--pretty"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"3 +C +(1\d\.\d\d% +){3}1\d\.\d\d%", lines[-1])
        assert not [line for line in lines if line.endswith(" ")]


class TestCompareCommand:
    def setup_outputs(self, tame_csv, tmp_path):
        calib_out = tmp_path / "calib"
        assert run_calibrate(tame_csv, calib_out) == 0
        return calib_out / "calibration.csv"

    def test_two_method_table(self, tame_csv, tmp_path):
        calibration = self.setup_outputs(tame_csv, tmp_path)
        out = tmp_path / "cmp"
        rc = main(["compare", "--input", str(tame_csv), "--period", "T1",
                   "--calibration", str(calibration), "--out", str(out)])
        assert rc == 0
        header, rows = read_csv_rows(out / "comparison.csv")
        assert header == ["grade_order", "label", "simulated", "pluto_tasche"]
        assert len(rows) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["central_tendency"] == pytest.approx(35 / 2100)
        assert manifest["pt_confidence"] == 0.75

    def test_external_column_passthrough(self, tame_csv, tmp_path):
        calibration = self.setup_outputs(tame_csv, tmp_path)
        external = tmp_path / "ext.csv"
        external.write_text("grade_order,method_name,pd\n1,qmm,0.004\n2,qmm,0.009\n3,qmm,0.08\n",
                            encoding="utf-8")
        out = tmp_path / "cmp"
        rc = main(["compare", "--input", str(tame_csv), "--period", "T1",
                   "--calibration", str(calibration), "--external", str(external),
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv_rows(out / "comparison.csv")
        assert header[-1] == "qmm"
        qmm = [float(r[4]) for r in rows]
        # scaled copy preserves the input's relative ordering
        assert qmm[0] < qmm[1] < qmm[2]

    def test_external_missing_grade_exits_2(self, tame_csv, tmp_path, capsys):
        calibration = self.setup_outputs(tame_csv, tmp_path)
        external = tmp_path / "ext.csv"
        external.write_text("grade_order,method_name,pd\n1,qmm,0.004\n", encoding="utf-8")
        rc = main(["compare", "--input", str(tame_csv), "--period", "T1",
                   "--calibration", str(calibration), "--external", str(external),
                   "--out", str(tmp_path / "cmp")])
        assert rc == 2
        assert "qmm" in capsys.readouterr().err

    def test_unconverged_tail_exits_3(self, tame_csv, tmp_path, monkeypatch, capsys):
        calibration = self.setup_outputs(tame_csv, tmp_path)
        monkeypatch.setattr(statdist, "_cont_frac_budget", lambda a, b: 2)
        rc = main(["compare", "--input", str(tame_csv), "--period", "T1",
                   "--calibration", str(calibration), "--out", str(tmp_path / "cmp")])
        assert rc == 3
        assert "did not converge" in capsys.readouterr().err

    def test_bracket_error_exits_3_not_2(self, tame_csv, tmp_path, monkeypatch, capsys):
        calibration = self.setup_outputs(tame_csv, tmp_path)

        def fail(snapshot, confidence):
            raise statdist.BracketError("target 0.75 not enclosed")

        # BracketError is also a ValueError, which alone would mean exit 2
        monkeypatch.setattr(cli, "pluto_tasche", fail)
        rc = main(["compare", "--input", str(tame_csv), "--period", "T1",
                   "--calibration", str(calibration), "--out", str(tmp_path / "cmp")])
        assert rc == 3
        assert "error: target 0.75 not enclosed" in capsys.readouterr().err

    def test_mismatched_calibration_exits_2(self, tame_csv, tmp_path, capsys):
        calibration = self.setup_outputs(tame_csv, tmp_path)
        other = tmp_path / "other.csv"
        other.write_text("period,grade_order,grade_label,performing_start,defaults_end\n"
                         "T1,1,X,800,8\nT1,2,Y,900,7\n", encoding="utf-8")
        rc = main(["compare", "--input", str(other), "--period", "T1",
                   "--calibration", str(calibration), "--out", str(tmp_path / "cmp")])
        assert rc == 2
        assert "mismatch" in capsys.readouterr().err

    def test_calibration_of_another_period_exits_2(self, tame_csv, tmp_path, capsys):
        # T2 has T1's grade orders and labels but its own counts
        calibration = self.setup_outputs(tame_csv, tmp_path)
        with tame_csv.open("a", encoding="utf-8") as handle:
            handle.write("T2,1,A,600,3\nT2,2,B,900,7\nT2,3,C,400,20\n")
        rc = main(["compare", "--input", str(tame_csv), "--period", "T2",
                   "--calibration", str(calibration), "--out", str(tmp_path / "cmp")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "calibration.csv: calibration mismatch" in err and "period T2" in err
        assert not (tmp_path / "cmp").exists()

    def test_pretty_prints_percentages(self, tame_csv, tmp_path, capsys):
        calibration = self.setup_outputs(tame_csv, tmp_path)
        capsys.readouterr()
        rc = main(["compare", "--input", str(tame_csv), "--period", "T1",
                   "--calibration", str(calibration), "--out", str(tmp_path / "cmp"), "--pretty"])
        assert rc == 0
        title, header, *rows = capsys.readouterr().out.splitlines()
        assert title == "Scaled PD comparison, period T1 (central tendency 1.67%)"
        assert header.split() == ["order", "label", "simulated", "pluto_tasche"]
        assert [row.split()[:2] for row in rows] == [["1", "A"], ["2", "B"], ["3", "C"]]
        assert all(re.fullmatch(r"\d+\.\d\d%", cell) for row in rows for cell in row.split()[2:])
        assert not [line for line in (header, *rows) if line.endswith(" ")]


class TestPredictCommand:
    def write_history(self, tmp_path, text):
        path = tmp_path / "history.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_noiseless_coefficients_echoed(self, tmp_path):
        import math
        rows = ["period,mu,y1"]
        for i, y in enumerate([-2.0, -1.0, 0.0, 1.0, 2.0]):
            mu = 1.0 / (1.0 + math.exp(-(-3.0 + 0.6 * y)))
            rows.append(f"p{i},{mu!r},{y}")
        history = self.write_history(tmp_path, "\n".join(rows) + "\n")
        newdata = tmp_path / "new.csv"
        newdata.write_text("period,y1\nf1,0.5\n", encoding="utf-8")
        out = tmp_path / "pred"
        assert main(["predict", "--history", str(history), "--newdata", str(newdata),
                     "--out", str(out)]) == 0
        model = json.loads((out / "model.json").read_text())
        assert model["intercept"] == pytest.approx(-3.0, abs=1e-8)
        assert model["coefficient_1"] == pytest.approx(0.6, abs=1e-8)
        _, rows = read_csv_rows(out / "predictions.csv")
        expected = 1.0 / (1.0 + math.exp(-(-3.0 + 0.6 * 0.5)))
        assert float(rows[0][1]) == pytest.approx(expected, abs=1e-8)

    def test_empty_newdata_gives_model_only(self, tmp_path):
        history = self.write_history(tmp_path, "period,mu,y1\na,0.2,0\nb,0.3,1\nc,0.4,2\n")
        newdata = tmp_path / "new.csv"
        newdata.write_text("period,y1\n", encoding="utf-8")
        out = tmp_path / "pred"
        assert main(["predict", "--history", str(history), "--newdata", str(newdata),
                     "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "predictions.csv")
        assert rows == []
        assert (out / "model.json").is_file()

    def test_malformed_history_exits_2(self, tmp_path, capsys):
        history = self.write_history(tmp_path, "period,mu,y1\na,not-a-number,0\n")
        newdata = tmp_path / "new.csv"
        newdata.write_text("period,y1\n", encoding="utf-8")
        rc = main(["predict", "--history", str(history), "--newdata", str(newdata),
                   "--out", str(tmp_path / "pred")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_pretty_prints_percentages(self, tmp_path, capsys):
        # noiseless history on logit(mu) = -1 + y / 2
        history = self.write_history(tmp_path, "period,mu,y1\n" + "".join(
            f"p{y},{1.0 / (1.0 + math.exp(1.0 - y / 2.0))!r},{y}\n" for y in (0, 1, 3)))
        newdata = tmp_path / "new.csv"
        for text, want in (("period,y1\nf1,2\nf2,4\n", [["f1", "50.00%"], ["f2", "73.11%"]]),
                           ("period,y1\n", [["(none)", "-"]])):
            newdata.write_text(text, encoding="utf-8")
            assert main(["predict", "--history", str(history), "--newdata", str(newdata),
                         "--out", str(tmp_path / "pred"), "--pretty"]) == 0
            title, header, *rows = capsys.readouterr().out.splitlines()
            assert title == "Predicted means"
            assert header.split() == ["period", "mu"]
            assert [row.split() for row in rows] == want
            assert not [line for line in (header, *rows) if line.endswith(" ")]


ENVELOPE_KEYS = {"command", "tool_version", "duration_seconds"}


def input_keys(*names):
    return {f"{name}_{part}" for name in names for part in ("path", "digest")}


class TestOutputKeys:
    """Exact key sets of every command's manifest.json and model.json."""

    CALIBRATE_KEYS = ENVELOPE_KEYS | input_keys("input") | {
        "numpy_version", "period", "n_grades", "n_sim", "k_reps", "seed", "ci_level",
        "min_accepted", "max_resample_rounds", "max_passes", "threads", "emit_histograms",
        "passes_min", "passes_max", "passes_histogram", "draws_total", "topup_blocks_total",
        "warnings", "acceptance_rate_pair_1", "acceptance_rate_pair_2", "mc_se_grade_1",
        "mc_se_grade_2", "mc_se_grade_3"}
    COMPARE_KEYS = ENVELOPE_KEYS | input_keys("input", "calibration", "external") | {
        "period", "pt_confidence", "pt_enforce_monotone", "central_tendency",
        "total_performing", "total_defaults", "methods"}

    @pytest.mark.parametrize("histograms", [False, True])
    def test_calibrate(self, tame_csv, tmp_path, histograms):
        out = tmp_path / "out"
        args = ["calibrate", "--input", str(tame_csv), "--period", "T1", "--n-sim", "1000",
                "--k-reps", "2", "--threads", "1", "--out", str(out)]
        assert main(args + ["--emit-histograms"] * histograms) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == self.CALIBRATE_KEYS
        hists = {"hist_1.csv", "hist_2.csv", "hist_3.csv"} if histograms else set()
        assert {p.name for p in out.iterdir()} == {"calibration.csv", "manifest.json"} | hists

    @pytest.mark.parametrize("external", [False, True])
    def test_compare(self, tame_csv, tmp_path, external):
        assert run_calibrate(tame_csv, tmp_path / "calib") == 0
        args = ["compare", "--input", str(tame_csv), "--period", "T1",
                "--calibration", str(tmp_path / "calib" / "calibration.csv"),
                "--out", str(tmp_path / "cmp")]
        if external:
            path = tmp_path / "ext.csv"
            path.write_text("grade_order,method_name,pd\n1,q,0.004\n2,q,0.009\n3,q,0.08\n",
                            encoding="utf-8")
            args += ["--external", str(path)]
        assert main(args) == 0
        manifest = json.loads((tmp_path / "cmp" / "manifest.json").read_text())
        assert set(manifest) == self.COMPARE_KEYS
        assert manifest["pt_enforce_monotone"] is True
        assert manifest["methods"] == "simulated,pluto_tasche" + ",q" * external

    def test_predict(self, tmp_path):
        history = tmp_path / "history.csv"
        history.write_text("period,mu,y1,y2\na,0.2,0,1\nb,0.3,1,0\nc,0.4,2,2\nd,0.1,0,0\n",
                           encoding="utf-8")
        newdata = tmp_path / "new.csv"
        newdata.write_text("period,y1,y2\nf,0.5,0.5\n", encoding="utf-8")
        out = tmp_path / "pred"
        assert main(["predict", "--history", str(history), "--newdata", str(newdata),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == ENVELOPE_KEYS | input_keys("history", "newdata") | {
            "n_observations", "n_regressors", "n_predictions", "link"}
        model = json.loads((out / "model.json").read_text())
        assert set(model) == {"manifest", "intercept", "link", "precision",
                              "coefficient_1", "coefficient_2"}
        assert manifest["link"] == model["link"] == "logit"


@pytest.mark.parametrize("cls,base", [
    (statdist.BracketError, ValueError), (calibrator.VarianceTooLargeError, ValueError),
    (statdist.ConvergenceError, RuntimeError),
    (calibrator.InsufficientAcceptanceError, RuntimeError),
    (calibrator.SweepNotConvergedError, RuntimeError)])
def test_numeric_errors_share_one_base_and_keep_their_own(cls, base):
    assert issubclass(cls, statdist.NumericError) and issubclass(cls, base)


@pytest.mark.parametrize("option,text,message", [
    *(pytest.param(option, None, "{path}", id=option)
      for option in ("--input", "--calibration", "--external", "--history", "--newdata")),
    pytest.param("--input", "", "{path}: missing header", id="--input-empty"),
    pytest.param("--input", TAME_CSV.splitlines()[0] + "\n", "no cohort rows found",
                 id="--input-header-only"),
    pytest.param("--external", "grade_order,method_name,pd\n", "no external method rows found",
                 id="--external-header-only"),
    pytest.param("--history", "period,mu,y1\n", "history has no data rows",
                 id="--history-header-only"),
])
def test_missing_input_exits_2(tame_csv, tmp_path, capsys, option, text, message):
    """An input file that is missing, empty or without data rows."""
    missing = tmp_path / "nope.csv"
    if text is not None:
        missing.write_text(text, encoding="utf-8")
    assert run_calibrate(tame_csv, tmp_path / "calib") == 0
    calibration = tmp_path / "calib" / "calibration.csv"
    history = tmp_path / "history.csv"
    history.write_text("period,mu,y1\na,0.2,0\nb,0.3,1\n", encoding="utf-8")
    compare = ["compare", "--input", tame_csv, "--period", "T1", "--calibration", calibration]
    argv = {
        "--input": ["calibrate", "--input", missing, "--period", "T1"],
        "--calibration": compare[:-1] + [missing],
        "--external": compare + ["--external", missing],
        "--history": ["predict", "--history", missing, "--newdata", history],
        "--newdata": ["predict", "--history", history, "--newdata", missing],
    }[option]
    assert main([*map(str, argv), "--out", str(tmp_path / "out")]) == 2
    assert message.format(path=missing) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def run_with_bad_input(tame_csv, tmp_path, kind, row):
    """Exit code of the command reading ``row`` as the data row on line 3 of
    its ``kind`` input (cohort, external, history, newdata or calibration)."""
    bad = tmp_path / f"{kind}.csv"
    if kind == "cohort":
        bad.write_text(f"{TAME_CSV.splitlines()[0]}\nT1,1,A,800,8\n{row}\n", encoding="utf-8")
        return run_calibrate(bad, tmp_path / "out")
    if kind in ("history", "newdata"):
        history = tmp_path / "history.csv"
        history.write_text("period,mu,y1\na,0.2,0\nb,0.3,1\nc,0.4,2\n", encoding="utf-8")
        newdata = tmp_path / "new.csv"
        newdata.write_text("period,y1\nf,0.5\n", encoding="utf-8")
        header = "period,mu,y1" if kind == "history" else "period,y1"
        first = "a,0.2,0" if kind == "history" else "f,0.5"
        bad.write_text(f"{header}\n{first}\n{row}\n", encoding="utf-8")
        paths = {"history": history, "newdata": newdata, kind: bad}
        return main(["predict", "--history", str(paths["history"]),
                     "--newdata", str(paths["newdata"]), "--out", str(tmp_path / "out")])
    assert run_calibrate(tame_csv, tmp_path / "calib") == 0
    calibration = tmp_path / "calib" / "calibration.csv"
    args = ["compare", "--input", str(tame_csv), "--period", "T1", "--out", str(tmp_path / "out")]
    if kind == "external":
        bad.write_text(f"grade_order,method_name,pd\n1,q,0.004\n{row}\n", encoding="utf-8")
        return main(args + ["--calibration", str(calibration), "--external", str(bad)])
    lines = calibration.read_text(encoding="utf-8").splitlines()
    # line 3 is grade A's row; its mean is the eighth cell
    cells = lines[2].split(",")
    cells[7] = row
    lines[2] = ",".join(cells)
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return main(args + ["--calibration", str(bad)])


class TestBadInputCells:
    @pytest.mark.parametrize("kind,row,message", [
        ("cohort", 'T1,2,"B,x",900,7', "invalid grade label 'B,x'"),
        ("external", '2,"m,x",0.01', "invalid method name 'm,x'"),
        ("newdata", '"x,y",0.3', "invalid period 'x,y'"),
    ], ids=["cohort-label", "external-method", "newdata-period"])
    def test_name_needing_csv_quotes_exits_2(self, tame_csv, tmp_path, capsys, kind, row, message):
        assert run_with_bad_input(tame_csv, tmp_path, kind, row) == 2
        err = capsys.readouterr().err
        assert f"{kind}.csv: line 3: {message}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind,row,name", [
        ("cohort", "T1,2,A\0x,900,7", "grade label 'A\\x00x'"),
        ("external", "2,m\x1fx,0.01", "method name 'm\\x1fx'"),
        ("newdata", "x\x7fy,0.3", "period 'x\\x7fy'"),
    ], ids=["cohort-label-nul", "external-method-unit-separator", "newdata-period-del"])
    def test_name_with_a_control_character_exits_2(self, tame_csv, tmp_path, capsys, kind, row,
                                                    name):
        # Python 3.10's csv module refuses a NUL before the reader's converter sees it
        message = ("line contains NUL" if "\0" in row and sys.version_info < (3, 11)
                   else f"invalid {name}")
        assert run_with_bad_input(tame_csv, tmp_path, kind, row) == 2
        err = capsys.readouterr().err
        assert f"{kind}.csv: line 3: {message}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["cohort", "external", "history", "calibration"])
    def test_cell_over_the_csv_field_limit_exits_2(self, tame_csv, tmp_path, capsys, kind):
        # the csv module refuses a cell of more than 131,072 characters
        row = {"cohort": "T1,2,B,900,{}", "external": "2,q,{}", "history": "b,0.3,{}",
               "calibration": "{}"}[kind].format("1" * 200_000)
        assert run_with_bad_input(tame_csv, tmp_path, kind, row) == 2
        err = capsys.readouterr().err
        assert f"{kind}.csv: line 3: field larger than field limit" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["grade_order", "label", "simulated", "pluto_tasche"])
    def test_method_named_like_a_comparison_column_exits_2(self, tame_csv, tmp_path, capsys, name):
        assert run_with_bad_input(tame_csv, tmp_path, "external", f"2,{name},0.01") == 2
        err = capsys.readouterr().err
        assert f"external.csv: line 3: method name {name!r} is reserved" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind,row,message", [
        ("cohort", "T1,1,B,900,7", "duplicate grade order 1 in period T1"),
        ("external", "2,q,nan", "non-finite number 'nan'"),
        ("external", "2,q,inf", "non-finite number 'inf'"),
        ("external", "2,q,-0.01", "pd must lie in [0, 1], got -0.01"),
        ("history", "b,0.3,nan", "non-finite number 'nan'"),
        ("history", "b,inf,1", "non-finite number 'inf'"),
        ("newdata", "g,nan", "non-finite number 'nan'"),
        ("newdata", "g,-inf", "non-finite number '-inf'"),
        ("calibration", "nan", "non-finite number 'nan'"),
        ("calibration", "-0.01", "mean must lie in [0, 1], got -0.01"),
        ("calibration", "1.5", "mean must lie in [0, 1], got 1.5"),
    ])
    def test_bad_number_exits_2(self, tame_csv, tmp_path, capfd, kind, row, message):
        assert run_with_bad_input(tame_csv, tmp_path, kind, row) == 2
        err = capfd.readouterr().err  # LAPACK writes to the process stderr
        assert f"{kind}.csv: line 3: {message}" in err
        assert "DLASCL" not in err and "converge" not in err
        assert not (tmp_path / "out").exists()


class TestImportFootprint:
    """Only `calibrate` draws random numbers, so only it loads the sampler and the pool;
    only the test oracle's quadrature loads `numpy.polynomial`, and no command loads
    `numpy.ma`, which `np.median` and `np.quantile` import.  `compare` and `predict` work
    on scalars, so they load neither numpy nor `statistics`; only `calibrate` loads numpy,
    and only once its input is valid.  The records are named tuples, so nothing loads
    `dataclasses`, and only a command that writes loads `hashlib` and `json`."""

    MODULES = ("numpy.random", "concurrent.futures", "numpy.polynomial", "numpy.ma", "numpy",
               "statistics", "dataclasses", "hashlib", "json")
    WRITER = ["hashlib", "json"]

    @classmethod
    def modules_loaded(cls, code: str) -> list[str]:
        """Those of ``MODULES`` that ``code`` loads, in that order."""
        src = str(Path(pdcalib.__file__).resolve().parents[1])
        probe = (f"import sys; sys.path.insert(0, {src!r})\n{code}\n"
                 f"print([m for m in {cls.MODULES!r} if m in sys.modules])")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True)
        return ast.literal_eval(done.stdout.splitlines()[-1])

    @staticmethod
    def main_code(argv, status: int = 0) -> str:
        return f"from pdcalib.cli import main\nassert main({list(map(str, argv))!r}) == {status}"

    def test_importing_the_cli_loads_neither(self):
        assert self.modules_loaded("import pdcalib, pdcalib.cli") == []

    def test_importing_the_package_loads_none_of_its_modules(self):
        src = str(Path(pdcalib.__file__).resolve().parents[1])
        probe = (f"import sys; sys.path.insert(0, {src!r})\nimport pdcalib\n"
                 "print(sorted(m for m in sys.modules if m.startswith('pdcalib')))")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True)
        assert done.stdout == "['pdcalib']\n"

    def test_version_loads_none(self):
        code = ("from pdcalib.cli import main\ntry:\n    main(['--version'])\n"
                "except SystemExit as exc:\n    assert exc.code == 0")
        assert self.modules_loaded(code) == []

    def test_version_as_a_module_loads_none(self):
        # `python -m pdcalib` runs `__main__`, which the in-process calls above skip
        src = str(Path(pdcalib.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-X", "importtime", "-m", "pdcalib", "--version"],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.stdout == f"pdcalib {pdcalib.__version__}\n"
        # each importtime line ends in "| <indent><module name>"
        loaded = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()}
        assert [m for m in self.MODULES if m in loaded] == []

    def test_calibrate_loads_both(self, tame_csv, tmp_path):
        argv = ["calibrate", "--input", tame_csv, "--period", "T1", "--n-sim", "1000",
                "--k-reps", "1", "--threads", "1", "--out", tmp_path / "out"]
        assert self.modules_loaded(self.main_code(argv)) == [
            "numpy.random", "concurrent.futures", "numpy", *self.WRITER]

    @pytest.mark.parametrize("option, value", [("--period", "T9"), ("--threads", "0"),
                                               ("--input", "missing.csv"), ("--seed", "-1"),
                                               ("--out", "a-file")])
    def test_calibrate_input_error_loads_no_numpy(self, tame_csv, tmp_path, option, value):
        (tmp_path / "a-file").write_text("", encoding="utf-8")
        args = {"--input": tame_csv, "--period": "T1", "--threads": 1, "--out": tmp_path / "o"}
        args[option] = tmp_path / value if option in ("--input", "--out") else value
        argv = ["calibrate", *(x for pair in args.items() for x in pair)]
        assert self.modules_loaded(self.main_code(argv, status=2)) == []

    def test_compare_loads_no_numpy(self, tame_csv, tmp_path):
        assert run_calibrate(tame_csv, tmp_path / "calib") == 0
        argv = ["compare", "--input", tame_csv, "--period", "T1",
                "--calibration", tmp_path / "calib" / "calibration.csv", "--out", tmp_path / "cmp"]
        assert self.modules_loaded(self.main_code(argv)) == self.WRITER

    def test_predict_loads_no_numpy(self, tmp_path):
        history = tmp_path / "history.csv"
        history.write_text("period,mu,y1\na,0.2,0\nb,0.3,1\nc,0.4,2\n", encoding="utf-8")
        newdata = tmp_path / "newdata.csv"
        newdata.write_text("period,y1\nd,3\n", encoding="utf-8")
        argv = ["predict", "--history", history, "--newdata", newdata, "--out", tmp_path / "p"]
        assert self.modules_loaded(self.main_code(argv)) == self.WRITER


def test_traced_benchmark_hooks(fixture_csv, tmp_path, monkeypatch):
    # `perfbench/run.py --trace 1` wraps pdcalib functions by the names it
    # looks up; a rename or deletion that breaks those hooks fails here too
    pytest.importorskip("scipy")
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import run  # perfbench/run.py, itself rather than a copy

    tracer = run.Tracer()
    run.install(tracer, run.Plan(ops=[]))
    try:
        # one thread: the tracer keeps one stack of open spans
        cal = ["calibrate", "--input", str(fixture_csv), "--period", "2017", "--n-sim", "2000",
               "--k-reps", "2", "--threads", "1", "--emit-histograms", "--out", str(tmp_path / "c")]
        assert main(cal) == 0
        external = tmp_path / "external.csv"
        external.write_text("grade_order,method_name,pd\n"
                            + "".join(f"{i},ext,0.0{i}\n" for i in range(1, 9)), encoding="utf-8")
        assert main(["compare", "--input", str(fixture_csv), "--period", "2017",
                     "--calibration", str(tmp_path / "c" / "calibration.csv"),
                     "--external", str(external), "--out", str(tmp_path / "m")]) == 0
        history = tmp_path / "history.csv"
        history.write_text("period,mu,y1\na,0.2,0\nb,0.3,1\nc,0.4,2\n", encoding="utf-8")
        newdata = tmp_path / "newdata.csv"
        newdata.write_text("period,y1\nd,3\n", encoding="utf-8")
        assert main(["predict", "--history", str(history), "--newdata", str(newdata),
                     "--out", str(tmp_path / "p")]) == 0
    finally:
        tracer.uninstall()
    sweeps = [s for s in tracer.spans if s.name == "calibrator.run_sweep"]
    assert len(sweeps) == 2 and all(s.attrs["pairs"] == 7 for s in sweeps)
    metrics = run.layer_metrics(tracer.spans, run.self_times(tracer.spans), 0, len(tracer.spans))
    assert metrics["statdist.draws"] > 0 and metrics["betareg.fit_s"] > 0.0
