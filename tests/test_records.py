"""The seven records are named tuples: read-only, and the five that check their
fields raise the same errors whether the fields are passed by position or by name."""

import re

import numpy as np
import pytest

from pdcalib.betareg import RegressionModel
from pdcalib.calibrator import CalibrationConfig, CalibrationResult, SweepResult
from pdcalib.cohorts import CohortSnapshot, GradeCount
from pdcalib.statdist import BetaParams

PARAMS = BetaParams(3.0, 99.0)
GRADE = GradeCount(1, "A", 100, 2)

RECORDS = [
    PARAMS,
    CalibrationConfig(),
    SweepResult(("A", "B"), (PARAMS, PARAMS), (0.01, 0.02), (0.6,), 3, 4000, 0),
    CalibrationResult((0.03,), (0.03,), (0.02,), (0.04,), (None,), (3.0,), (99.0,),
                      np.full((1, 1), 0.03), (), (3,), 2000, 0),
    GRADE,
    CohortSnapshot("T1", (GRADE,)),
    RegressionModel(-1.0, (0.5,), 10.0),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_fields_are_read_only(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dictionary either


@pytest.mark.parametrize("cls, args, message", [
    (BetaParams, (0.0, 1.0), "alpha must be a positive finite number, got 0.0"),
    (BetaParams, (1.0, float("nan")), "beta must be a positive finite number, got nan"),
    (CalibrationConfig, (999, 300, 42, 0.9), "n_sim must be at least 1000, got 999"),
    (CalibrationConfig, (1000, 0, 42, 0.9), "k_reps must be at least 1, got 0"),
    (CalibrationConfig, (1000, 1, 42, 1.0), "ci_level must lie in (0, 1), got 1.0"),
    (GradeCount, (1, "A,B", 10, 1), "invalid grade label 'A,B'"),
    (GradeCount, (1, "A", -1, 0), "grade A: counts must be nonnegative"),
    (GradeCount, (1, "A", 1, 2), "grade A: defaults exceed performing (2 > 1)"),
    (CohortSnapshot, ("T1", (GradeCount(2, "B", 1, 0), GRADE)),
     "period T1: grade orders must be strictly increasing"),
    (CohortSnapshot, ("T1", (GRADE, GradeCount(2, "A", 1, 0))), "period T1: duplicate grade labels"),
    (RegressionModel, (0.0, (1.0,), 0.0), "precision must be positive, got 0.0"),
    (CalibrationConfig, (1000, 1, -1, 0.9), "seed must fit in 64 bits, got -1"),
    (CalibrationConfig, (1000, 1, 1 << 64, 0.9), f"seed must fit in 64 bits, got {1 << 64}"),
])
@pytest.mark.parametrize("by_name", [False, True], ids=["positional", "keyword"])
def test_checks_keep_their_messages(cls, args, message, by_name):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**dict(zip(cls._fields, args))) if by_name else cls(*args)


def test_records_behave_as_tuples():
    assert BetaParams(alpha=3.0, beta=99.0) == (3.0, 99.0)
    period, grades = CohortSnapshot("T1", [GRADE])
    assert (period, grades) == ("T1", (GRADE,))
    assert RegressionModel(0.0, [1]) == (0.0, (1.0,), 1.0)
    assert CalibrationConfig(n_sim=5000)._asdict() == {
        "n_sim": 5000, "k_reps": 300, "seed": 42, "ci_level": 0.9}
