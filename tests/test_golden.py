"""`compare` and `predict` outputs, recomputed and held byte for byte to committed copies.

Neither command takes a number from numpy, so their bytes must not depend on the
numpy or Python version.  The inputs are in ``golden/inputs``:

- the fixture's two periods, each with a fixed ``calibration.csv`` (one
  ``calibrate --n-sim 20000 --k-reps 8 --threads 1`` run) and an external file;
- ``perfbench/gen.py``'s seed-1 prudent-report cohorts, calibrations and external
  files, whose weighted sums round differently under an uncompensated sum;
- its seed-1 regression history and new data, for ``predict``.

Each case's expected files (``manifest.json`` aside, which holds paths and times)
are in ``golden/<case>``.  A change meant to move these bytes rewrites them with
``python tests/test_golden.py`` and says so.
"""

from pathlib import Path

import pytest

from pdcalib.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
FIXTURE = Path(__file__).parent.parent / "data" / "sp_2016_2017.csv"


def _cases() -> dict[str, list]:
    """Case name -> the command line that makes its files, less ``--out``."""
    cases = {}
    for confidence in ("0.75", "0.99"):
        for period in ("2016", "2017"):
            args = ["compare", "--input", FIXTURE, "--period", period, "--calibration",
                    INPUTS / f"calibration_{period}.csv", "--pt-confidence", confidence]
            cases[f"fixture-{period}-{confidence}"] = args
            cases[f"fixture-{period}-{confidence}-external"] = args + [
                "--external", INPUTS / "external.csv"]
        for period in ("2011", "2012"):
            cases[f"prudent-{period}-{confidence}-external"] = [
                "compare", "--input", INPUTS / "prudent_cohorts.csv", "--period", period,
                "--calibration", INPUTS / f"prudent_calibration_{period}.csv",
                "--external", INPUTS / f"prudent_external_{period}.csv",
                "--pt-confidence", confidence]
    cases["predict"] = ["predict", "--history", INPUTS / "history.csv",
                        "--newdata", INPUTS / "newdata.csv"]
    return cases


CASES = _cases()


def _run(case: str, out: Path) -> dict[str, bytes]:
    """The files ``case`` writes into ``out``, by name, its manifest aside."""
    assert main([*map(str, CASES[case]), "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


@pytest.mark.parametrize("case", CASES)
def test_output_bytes(case, tmp_path):
    expected = {p.name: p.read_bytes() for p in sorted((GOLDEN / case).iterdir())}
    assert _run(case, tmp_path / "out") == expected


if __name__ == "__main__":
    for name in CASES:
        directory = GOLDEN / name
        _run(name, directory)
        (directory / "manifest.json").unlink()
