"""Inputs the tests share, each written in one place.

Fixtures: ``fixture_csv`` and its parsed ``snapshots``, ``snapshot_2016`` and
``snapshot_2017``; ``csv_file``, which writes a test's own text to a file;
``tame_csv``, the file ``TAME_CSV`` (three grades of period T1), written per test
since a test may append a period to it; ``tame_calibration``, its ``calibration.csv``
from one ``run_calibrate`` on the fixture's own copy of ``TAME_CSV``, computed once per
module and only read; ``history_csv`` (three periods on one regressor), ``newdata_csv``
(period d at y1 = 3) and ``external_csv`` (method qmm on the three tame grades).
Helpers the test modules import: ``run_cli``, ``run_calibrate`` and ``snap``.
After every test ``restore_process_state`` undoes what a command or the benchmark's
trace leaves in the process; a fixture that runs a command keeps the environment itself.
"""

import os
from contextlib import contextmanager
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_CSV = REPO_ROOT / "data" / "sp_2016_2017.csv"

COHORT_HEADER = "period,grade_order,grade_label,performing_start,defaults_end\n"
TAME_CSV = COHORT_HEADER + "T1,1,A,800,8\nT1,2,B,900,7\nT1,3,C,400,20\n"


def run_cli(argv) -> int:
    """Exit status of ``pdcalib`` on ``argv``, each argument turned into a string."""
    from pdcalib.cli import main
    return main([str(arg) for arg in argv])


def run_calibrate(csv_path: Path, out: Path, **overrides) -> int:
    args = ["calibrate", "--input", csv_path, "--period", "T1",
            "--n-sim", 1000, "--k-reps", 4, "--seed", 7, "--threads", 1, "--out", out]
    for flag, value in overrides.items():
        args += [f"--{flag.replace('_', '-')}", value]
    return run_cli(args)


def snap(rows):
    """A snapshot of period ``t`` from ``(order, label, n, d)`` rows."""
    from pdcalib.cohorts import CohortSnapshot, GradeCount
    return CohortSnapshot("t", tuple(GradeCount(o, lbl, n, d) for o, lbl, n, d in rows))


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


@contextmanager
def environ_kept():
    """Puts back ``os.environ`` as it was, to which an in-process ``calibrate`` adds
    ``OPENBLAS_NUM_THREADS``."""
    environ = os.environ.copy()
    try:
        yield
    finally:
        for key in os.environ.keys() - environ.keys():
            del os.environ[key]
        os.environ.update(environ)


@pytest.fixture(autouse=True)
def restore_process_state():
    """Puts back ``os.environ`` and removes from ``pdcalib.cli`` the hooks that the trace's
    ``uninstall`` sets there, where they would shadow their defining modules."""
    with environ_kept():
        yield
    from pdcalib import cli
    for name in cli._DEFINED_IN:
        vars(cli).pop(name, None)


@pytest.fixture(scope="session")
def fixture_csv() -> Path:
    return FIXTURE_CSV


@pytest.fixture(scope="session")
def snapshots():
    from pdcalib.cohorts import parse_cohort_csv
    return parse_cohort_csv(FIXTURE_CSV)


@pytest.fixture(scope="session")
def snapshot_2016(snapshots):
    return next(s for s in snapshots if s.period == "2016")


@pytest.fixture(scope="session")
def snapshot_2017(snapshots):
    return next(s for s in snapshots if s.period == "2017")


@pytest.fixture
def csv_file(tmp_path):
    """A function that writes its text to ``name`` (``input.csv``) under ``tmp_path`` and
    returns the path."""
    return lambda text, name="input.csv": write(tmp_path / name, text)


@pytest.fixture
def tame_csv(tmp_path) -> Path:
    return write(tmp_path / "cohorts.csv", TAME_CSV)


@pytest.fixture(scope="module")
def tame_calibration(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("tame")
    with environ_kept():
        assert run_calibrate(write(root / "cohorts.csv", TAME_CSV), root / "calib") == 0
    return root / "calib" / "calibration.csv"


@pytest.fixture
def history_csv(tmp_path) -> Path:
    return write(tmp_path / "history.csv", "period,mu,y1\na,0.2,0\nb,0.3,1\nc,0.4,2\n")


@pytest.fixture
def newdata_csv(tmp_path) -> Path:
    return write(tmp_path / "newdata.csv", "period,y1\nd,3\n")


@pytest.fixture
def external_csv(tmp_path) -> Path:
    return write(tmp_path / "external.csv",
                 "grade_order,method_name,pd\n1,qmm,0.004\n2,qmm,0.009\n3,qmm,0.08\n")
