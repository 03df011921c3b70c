"""Property tests on random portfolios and malformed input (hypothesis)."""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
stats = pytest.importorskip("scipy.stats")

from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402
from scipy import integrate  # noqa: E402

from conftest import snap  # noqa: E402
from pdcalib.benchmarks import (central_tendency, parse_external_csv,  # noqa: E402
                                pluto_tasche, scale_to_ct)
from pdcalib.betareg import parse_history_csv  # noqa: E402
from pdcalib.calibrator import oracle_conditional_means_2grade  # noqa: E402
from pdcalib.cohorts import CohortSnapshot, parse_cohort_csv  # noqa: E402
from pdcalib.csvio import CohortError  # noqa: E402
from pdcalib.statdist import BetaParams  # noqa: E402


@st.composite
def portfolios(draw):
    """2-20 grades of 0-1e6 obligors each, with 0..N defaults."""
    rows = []
    for order in range(1, draw(st.integers(2, 20)) + 1):
        n = draw(st.integers(0, 1_000_000))
        d = draw(st.integers(0, n))
        rows.append((order, f"g{order}", n, d))
    return snap(rows)


@settings(max_examples=60, deadline=None)
@given(portfolios(), st.floats(0.5, 0.999, exclude_min=True))
def test_pluto_tasche_on_random_portfolios(snapshot, confidence):
    floored = pluto_tasche(snapshot, confidence)
    assert all(a <= b for a, b in zip(floored, floored[1:]))
    n = np.cumsum([g.performing_start for g in snapshot.grades[::-1]])[::-1]
    d = np.cumsum([g.defaults_end for g in snapshot.grades[::-1]])[::-1]
    wants = []
    for i, (pooled_n, pooled_d) in enumerate(zip(n, d)):
        # grade i's own bound, before the floor: first entry of the cut-down snapshot
        bound = pluto_tasche(CohortSnapshot("t", snapshot.grades[i:]), confidence)[0]
        if pooled_n == 0 or pooled_d == pooled_n:
            assert bound == 1.0
            wants.append(1.0)
            continue
        assert bound >= pooled_d / pooled_n
        want = stats.beta.ppf(confidence, pooled_d + 1, pooled_n - pooled_d)
        assert bound == pytest.approx(want, rel=1e-9)
        wants.append(want)
    assert floored == pytest.approx(list(np.maximum.accumulate(wants)), rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(portfolios(), st.floats(1e-3, 1e3), st.data())
def test_scale_to_ct_ignores_rescaling_and_hits_ct(snapshot, c, data):
    assume(snapshot.total_performing > 0)
    pds = data.draw(st.lists(st.floats(1e-6, 1.0), min_size=len(snapshot.grades),
                             max_size=len(snapshot.grades)))
    weights = [g.performing_start for g in snapshot.grades]
    scaled = scale_to_ct(pds, snapshot)
    assert scale_to_ct([c * pd for pd in pds], snapshot) == pytest.approx(scaled, rel=1e-12)
    weighted_mean = sum(w * pd for w, pd in zip(weights, scaled)) / sum(weights)
    assert weighted_mean == pytest.approx(central_tendency(snapshot), rel=1e-12)


@st.composite
def posteriors(draw):
    """Beta(1 + d, 1 + n - d) of a grade with 0-1e6 obligors and 0..n defaults."""
    n = draw(st.integers(0, 1_000_000))
    d = draw(st.integers(0, n))
    return BetaParams(1.0 + d, 1.0 + n - d)


def scipy_conditional_means(p1, p2):
    """The oracle's integrals on scipy's beta kernels: 801 z per grade, 16 nodes a cell."""
    z = np.linspace(-40.0, 40.0, 801)
    logits = [np.log(p.alpha / p.beta) + z * np.sqrt(1.0 / p.alpha + 1.0 / p.beta)
              for p in (p1, p2)]
    edges = np.unique(np.concatenate([[0.0, 1.0], 1.0 / (1.0 + np.exp(-np.concatenate(logits)))]))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    half = 0.5 * np.diff(edges)[:, None]
    t = (edges[:-1, None] + half * (1.0 + nodes)).ravel()
    w = (half * weights).ravel()
    lower = w * stats.beta.pdf(t, p1.alpha, p1.beta) * stats.beta.sf(t, p2.alpha, p2.beta)
    upper = w * stats.beta.pdf(t, p2.alpha, p2.beta) * stats.beta.cdf(t, p1.alpha, p1.beta)
    return t @ lower / lower.sum(), t @ upper / upper.sum()


@settings(max_examples=100, deadline=None)
@given(posteriors(), posteriors())
def test_oracle_matches_scipy_quadrature(p1, p2):
    try:
        got = oracle_conditional_means_2grade(p1, p2)
    except ValueError:
        assume(False)  # acceptance below the oracle's 1e-8 floor
    assert got == pytest.approx(scipy_conditional_means(p1, p2), rel=1e-12)



def quad_conditional_means(p1, p2):
    """The oracle's two means by adaptive quadrature, which handles the t^(a-1)
    endpoint by extrapolation rather than by the oracle's cell layout.

    Breakpoints at each grade's mean and mean + {-2, -1, 1, 2, 4, ..., 32} sd keep quad
    from stepping over a peak narrow on the scale of the other grade.  The lower
    integrals stop where either density has 1e-30 of its mass left and the upper
    ones where the upper grade's has, so no wide stretch of near-zero integrand
    hides a missed peak.  Each span between breakpoints is its own quad call, so
    the extrapolation toward a (1 - t)^(b-1) endpoint at 1 runs on that span alone;
    one call over all spans hit roundoff in its extrapolation table on
    Beta(1, 92305) below Beta(1.196, 1.196).
    """
    lower, upper = stats.beta(p1.alpha, p1.beta), stats.beta(p2.alpha, p2.beta)
    marks = {float(d.mean() + z * d.std())
             for d in (lower, upper) for z in (-2, -1, 0, 1, 2, 4, 8, 16, 32)}

    def conditional_mean(density, hi):
        edges = [0.0, *sorted(x for x in marks if 0.0 < x < hi), hi]
        mass, first = (math.fsum(integrate.quad(lambda t, k=k: t ** k * density(t), a, b,
                                                epsabs=0.0, epsrel=1e-13, limit=200)[0]
                                 for a, b in zip(edges, edges[1:])) for k in (0, 1))
        return first / mass

    tail1, tail2 = lower.isf(1e-30), upper.isf(1e-30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return (conditional_mean(lambda t: lower.pdf(t) * upper.sf(t), min(tail1, tail2)),
                conditional_mean(lambda t: upper.pdf(t) * lower.cdf(t), tail2))


# each example costs about 0.25 s of quadrature; the upper grade's beta also comes from
# [1, 3], so its density can go like (1 - t)^(beta - 1) at 1
@settings(max_examples=20, deadline=None)
@given(st.floats(1.0, 3.0), st.floats(3.0, 1e5), st.floats(1.0, 3.0),
       st.one_of(st.floats(3.0, 1e5), st.floats(1.0, 3.0)))
@example(1.13, 40.0, 1.5, 30.0)  # 2.2e-9 off with no cells graded toward 0
@example(68.05, 256.7, 2.13, 1.41)  # 3.5e-12 off with no cells graded toward 1
@example(1.0, 92305.0, 1.196324219966698, 1.196324219966698)  # the reference's worst case
def test_oracle_matches_adaptive_quadrature_on_non_integer_shapes(a1, b1, a2, b2):
    p1, p2 = BetaParams(a1, b1), BetaParams(a2, b2)
    try:
        got = oracle_conditional_means_2grade(p1, p2)
    except ValueError:
        assume(False)  # acceptance below the oracle's 1e-8 floor
    assert got == pytest.approx(quad_conditional_means(p1, p2), rel=1e-12)


FILLERS = st.lists(st.sampled_from(["", "   ", "# comment", "#a,b,c"]), max_size=2)


@st.composite
def csv_with_one_bad_row(draw, header, good, bad):
    """(text, line of the bad row): comment and blank lines anywhere, one corrupt data row.

    ``good(i)`` is a strategy for valid data row i and ``bad(i)`` lists
    corrupt versions of it.
    """
    n_rows = draw(st.integers(1, 12))
    bad_index = draw(st.integers(0, n_rows - 1))
    lines = draw(FILLERS) + [header]
    for i in range(n_rows):
        lines += draw(FILLERS)
        if i == bad_index:
            lines.append(draw(st.sampled_from(bad(i))))
            bad_line = len(lines)
        else:
            lines.append(draw(good(i)))
    lines += draw(FILLERS)
    return "\n".join(lines) + "\n", bad_line


def cohort_row(i):
    return st.integers(0, 1000).flatmap(
        lambda n: st.integers(0, n).map(lambda d: f"T,{i + 1},g{i + 1},{n},{d}"))


def bad_cohort_rows(i):
    key = f"T,{i + 1},g{i + 1}"
    return [f"{key},x,0", f"{key},10,1.5", f"{key},10", f"{key},10,1,7",   # not an integer, width
            f"{key},5,6", f"{key},-3,0", f"{key},3,-1",                     # d > n, negative
            f'T,{i + 1},"g,{i + 1}",5,1']                                  # label needs quoting


def external_row(i):
    return st.floats(0.0, 1.0).map(lambda pd: f"{i + 1},m,{pd!r}")


def bad_external_rows(i):
    return [f"{i + 1},m,abc", "x,m,0.1", f"{i + 1},m", f"{i + 1},m,0.1,2",
            f"{i + 1},m,nan", f"{i + 1},m,inf", f"{i + 1},m,-0.01", f"{i + 1},m,1.5",
            f'{i + 1},"m,x",0.1']


def history_row(i):
    return st.tuples(st.floats(0.01, 0.99), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)).map(
        lambda t: f"p{i},{t[0]!r},{t[1]!r},{t[2]!r}")


def bad_history_rows(i):
    return [f"p{i},zzz,1,2", f"p{i},0.5,1,y", f"p{i},0.5,1", f"p{i},0.5,1,2,3",
            f"p{i},nan,1,2", f"p{i},0.5,inf,2", f"p{i},0.5,1,-inf", f"p{i},0.5,nan,2"]


@pytest.mark.parametrize("parse,header,good,bad", [
    (parse_cohort_csv, "period,grade_order,grade_label,performing_start,defaults_end",
     cohort_row, bad_cohort_rows),
    (parse_external_csv, "grade_order,method_name,pd", external_row, bad_external_rows),
    (parse_history_csv, "period,mu,y1,y2", history_row, bad_history_rows),
], ids=["cohorts", "external", "history"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_bad_row_reported_at_its_line(parse, header, good, bad, data):
    text, line = data.draw(csv_with_one_bad_row(header, good, bad))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CohortError) as excinfo:
            parse(path)
    assert str(excinfo.value).startswith(f"{path}: line {line}: ")
