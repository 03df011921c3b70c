from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_CSV = REPO_ROOT / "data" / "sp_2016_2017.csv"


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
    """A function that writes its text to ``input.csv`` under ``tmp_path`` and returns the path."""
    def write(text: str) -> Path:
        path = tmp_path / "input.csv"
        path.write_text(text, encoding="utf-8")
        return path
    return write
