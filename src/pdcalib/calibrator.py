"""Order-constrained calibration of per-grade default-rate distributions.

Raw per-grade posteriors frequently violate the ordering that grade
semantics demand (worse grade, higher default rate) because thin cohorts
produce noisy rates.  The calibrator restores the ordering with a pairwise
Monte-Carlo filter:

1. simulate ``n_sim`` draws from each grade of an adjacent pair, in chunks
   of at most ``_CHUNK`` pairs, so the memory a thread holds does not grow
   with ``n_sim``,
2. keep the index-aligned draw pairs that satisfy theta_i <= theta_{i+1},
3. refit BOTH marginals by beta moment matching of the kept draws,
4. carry the updated distributions along and slide the pair window across
   the scale; repeat whole passes until every adjacent pair of fitted
   means is in order.

One such converged sweep yields a fitted shape pair and a calibrated mean
per grade.  Repeating the sweep ``k_reps`` times from the raw posteriors
(the label -> Beta mapping of ``cohorts.compute_posterior``, best grade
first), each repetition on its own random stream, yields a sampling
distribution per grade from which the point estimate, median, confidence
bounds and Monte-Carlo standard error are reported.  The bounds are the
spread of the repetition means: Monte-Carlo noise that shrinks roughly like
1/sqrt(n_sim), not the uncertainty of a grade's default rate.  The
repetitions run on threads of this one process (the beta sampler and
numpy's array loops release the interpreter lock); results are
bit-reproducible for a fixed (seed, config, data, numpy version)
regardless of the thread count.
``calibrate`` is the only caller of ``rng_stream`` and the only user of a
thread pool.  numpy, its sampler and ``concurrent.futures`` are imported
when a function that uses them runs, not with the module.
``oracle_conditional_means_2grade`` gives one pair step's means as n_sim grows
without bound, by 1-D Gauss-Legendre quadrature: the filter's test reference.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .statdist import BetaParams, NumericError, _check_u64, log_beta, rng_stream, sample_beta

if TYPE_CHECKING:
    import numpy as np

# Guard band for the moment-matching precondition s^2 < mean*(1-mean).
_VARIANCE_GUARD = 1e-12

# Passes a single sweep may take before SweepNotConvergedError.
_MAX_PASSES = 500

# Kept pairs a pair step needs, and the extra blocks of n_sim draws it may
# take to reach them before InsufficientAcceptanceError.
_MIN_ACCEPTED = 100
_MAX_RESAMPLE_ROUNDS = 10

# Pairs drawn and filtered at once within a block of n_sim: a thread holds
# two chunk-long float arrays and a mask, about 0.56 MB, whatever n_sim is.
_CHUNK = 32_768

# Fixed-width bins of each grade's exported histogram.
_HIST_BINS = 30


class VarianceTooLargeError(NumericError, ValueError):
    """Sample variance admits no beta distribution (degenerate filtered sample)."""


class InsufficientAcceptanceError(NumericError, RuntimeError):
    """Too few simulated pairs satisfied the order constraint, even after top-ups."""


class SweepNotConvergedError(NumericError, RuntimeError):
    """Fitted means failed to become monotone within the pass budget."""


class CalibrationConfig(namedtuple("CalibrationConfig", "n_sim k_reps seed ci_level")):
    """Knobs of the simulate-filter-refit procedure.

    ``n_sim`` draws are simulated per grade per pair step; ``k_reps``
    independent sweeps build the sampling distribution; repetition ``k``
    always runs on stream ``(seed, k)``.
    """

    __slots__ = ()

    def __new__(cls, n_sim: int = 100_000, k_reps: int = 300, seed: int = 42,
                ci_level: float = 0.90) -> CalibrationConfig:
        if n_sim < 1000:
            raise ValueError(f"n_sim must be at least 1000, got {n_sim}")
        if k_reps < 1:
            raise ValueError(f"k_reps must be at least 1, got {k_reps}")
        _check_u64("seed", seed)
        if not 0.0 < ci_level < 1.0:
            raise ValueError(f"ci_level must lie in (0, 1), got {ci_level}")
        return super().__new__(cls, n_sim, k_reps, seed, ci_level)


class SweepResult(NamedTuple):
    """One converged sweep: fitted shapes and calibrated means, best grade first.

    ``draws_total`` counts the beta variates drawn, both grades of every
    pair step; ``topup_blocks_total`` the blocks of ``n_sim`` pairs drawn
    beyond the first of each pair step.
    """

    labels: tuple[str, ...]
    params: tuple[BetaParams, ...]
    means: tuple[float, ...]
    acceptance_rates: tuple[float, ...]  # per adjacent pair, pooled over passes
    passes: int
    draws_total: int
    topup_blocks_total: int


class CalibrationResult(NamedTuple):
    """Aggregate of ``k_reps`` independent sweeps.

    Point estimates are means over repetitions; the confidence bounds are
    the empirical (1-ci)/2 and 1-(1-ci)/2 quantiles of the per-repetition
    calibrated means (linear interpolation between order statistics).  They
    measure Monte-Carlo noise, which shrinks roughly like 1/sqrt(n_sim), not
    the uncertainty of a grade's default rate.
    ``mc_se`` is the Monte-Carlo standard error of each point estimate, the
    repetition means' sample sd over sqrt(k_reps), or None for every grade
    when k_reps is 1.  ``sweep_means`` keeps the full k_reps x n_grades
    matrix for histogram export.  ``alpha_hat``/``beta_hat`` are arithmetic
    means of the per-repetition fitted shapes, so the mean of
    Beta(alpha_hat, beta_hat) is not ``grade_means``; ``draws_total`` and
    ``topup_blocks_total`` are the sweeps' counts summed.  The matrix makes
    a result unhashable and its comparison ambiguous.
    """

    grade_means: tuple[float, ...]
    grade_medians: tuple[float, ...]
    ci_lower: tuple[float, ...]
    ci_upper: tuple[float, ...]
    mc_se: tuple[float | None, ...]
    alpha_hat: tuple[float, ...]
    beta_hat: tuple[float, ...]
    sweep_means: np.ndarray
    pair_acceptance: tuple[float, ...]
    passes: tuple[int, ...]
    draws_total: int
    topup_blocks_total: int


def fit_beta_moments(sample_mean: float, sample_sd: float) -> BetaParams:
    """Beta shapes recovered from a sample mean and standard deviation.

    Inverts the beta moment identities: with c = mean*(1-mean)/sd^2 - 1,
    alpha = mean*c and beta = (1-mean)*c.  Requires sd^2 strictly below
    mean*(1-mean) (minus a small numerical guard); beyond that bound no
    beta distribution has these moments.
    """
    if not 0.0 < sample_mean < 1.0:
        raise ValueError(f"sample mean must lie in (0, 1), got {sample_mean}")
    if sample_sd <= 0.0:
        raise ValueError(f"sample sd must be positive, got {sample_sd}")
    variance = sample_sd * sample_sd
    bound = sample_mean * (1.0 - sample_mean)
    if variance >= bound - _VARIANCE_GUARD:
        raise VarianceTooLargeError(
            f"variance {variance:g} too large for mean {sample_mean:g} "
            f"(must stay below {bound:g}); filtered sample is degenerate")
    concentration = bound / variance - 1.0
    return BetaParams(sample_mean * concentration, (1.0 - sample_mean) * concentration)


def _filtered_pair(lower: BetaParams, upper: BetaParams, cfg: CalibrationConfig,
                   rng: np.random.Generator,
                   pair_index: int) -> tuple[BetaParams, BetaParams, int, int]:
    """Both grades refitted from their index-aligned draws that are in order,
    with the accepted and drawn pair counts.

    Each block of ``n_sim`` pairs is drawn from ``rng`` (SFC64 on a
    SeedSequence spawn key) in chunks of at most ``_CHUNK`` pairs: a
    chunk's lower-grade values, then its upper-grade values.  At ``n_sim``
    up to ``_CHUNK`` a block is one chunk.  The moments come from running
    sums of each draw minus its distribution's mean, and of that difference
    squared; the shift keeps tight shapes from losing digits to
    cancellation.  The sums are taken in place on the chunk's arrays with
    rejected entries multiplied by zero, so no kept-draw copy is gathered
    and the memory held does not grow with ``n_sim``.  The kept-pair check
    and the top-up budget count whole blocks.
    """
    shifts = [p.alpha / (p.alpha + p.beta) for p in (lower, upper)]
    sums = [[0.0, 0.0], [0.0, 0.0]]  # per grade: sum of differences, sum of their squares
    accepted = drawn = 0
    for _ in range(_MAX_RESAMPLE_ROUNDS + 1):
        for start in range(0, cfg.n_sim, _CHUNK):
            size = min(_CHUNK, cfg.n_sim - start)
            x = sample_beta(lower, rng, size=size)
            y = sample_beta(upper, rng, size=size)
            keep = x <= y
            for grade, draws in enumerate((x, y)):
                draws -= shifts[grade]
                draws *= keep
                sums[grade][0] += float(draws.sum())
                draws *= draws
                sums[grade][1] += float(draws.sum())
            accepted += int(keep.sum())
        drawn += cfg.n_sim
        if accepted >= _MIN_ACCEPTED:
            break
    if accepted < _MIN_ACCEPTED:
        message = (f"pair {pair_index + 1}: only {accepted} of {drawn} simulated pairs satisfied "
                   f"the order constraint (need {_MIN_ACCEPTED}); ")
        if accepted == 0:
            raise InsufficientAcceptanceError(message + "grades are too far inverted")
        # the n_sim whose full top-up budget would expect _MIN_ACCEPTED kept
        # pairs at this step's acceptance rate, with a 25% noise margin
        needed = 1.25 * _MIN_ACCEPTED * drawn / (accepted * (_MAX_RESAMPLE_ROUNDS + 1))
        raise InsufficientAcceptanceError(
            message + f"at this acceptance rate n_sim needs to be about "
            f"{1000 * math.ceil(needed / 1000)} or more")
    offsets = [total / accepted for total, _ in sums]
    sds = [math.sqrt(squares / accepted - o * o) for o, (_, squares) in zip(offsets, sums)]
    lower, upper = (fit_beta_moments(c + o, sd) for c, o, sd in zip(shifts, offsets, sds))
    return lower, upper, accepted, drawn


def run_sweep(post: Mapping[str, BetaParams], cfg: CalibrationConfig,
              rng: np.random.Generator) -> SweepResult:
    """One full calibration sweep over adjacent grade pairs.

    Each pair step draws ``n_sim`` values of each grade from its current
    distribution (the raw posterior on first touch, the latest refit
    afterwards), keeps the draws with theta_i <= theta_{i+1}, and refits
    both marginals from the kept values.  Passes over all pairs repeat
    until the fitted means are nondecreasing, which is what finally makes
    every grade calibrated.
    """
    params = list(post.values())
    m = len(params)
    if m < 2:
        raise ValueError("calibration needs at least 2 grades")
    accepted_per_pair = [0] * (m - 1)
    drawn_per_pair = [0] * (m - 1)
    for passes in range(1, _MAX_PASSES + 1):
        for i in range(m - 1):
            params[i], params[i + 1], accepted, drawn = _filtered_pair(
                params[i], params[i + 1], cfg, rng, i)
            accepted_per_pair[i] += accepted
            drawn_per_pair[i] += drawn
        means = [p.alpha / (p.alpha + p.beta) for p in params]
        if all(means[j] <= means[j + 1] for j in range(m - 1)):
            break
    else:
        raise SweepNotConvergedError(
            f"calibrated means still out of order after {_MAX_PASSES} passes")
    pairs_drawn = sum(drawn_per_pair)
    return SweepResult(
        labels=tuple(post),
        params=tuple(params),
        means=tuple(means),
        acceptance_rates=tuple(a / d for a, d in zip(accepted_per_pair, drawn_per_pair)),
        passes=passes,
        draws_total=2 * pairs_drawn,
        topup_blocks_total=pairs_drawn // cfg.n_sim - passes * (m - 1),
    )


def calibrate(post: Mapping[str, BetaParams], cfg: CalibrationConfig,
              workers: int = 1) -> CalibrationResult:
    """Sampling distribution of the calibrated means over ``k_reps`` sweeps.

    Repetition ``k`` restarts from the raw posteriors on stream
    ``(cfg.seed, k)``.  Repetitions share nothing mutable, so they run on
    ``workers`` threads with the same result for any count.  The first
    failing repetition in order is raised, and those not started are cancelled.
    The median and confidence bounds are read off each grade's sorted
    repetition means by the rules of ``np.median`` and ``np.quantile``'s
    default ``linear`` method, bit for bit, without the ``numpy.ma`` import
    those functions cost.
    """
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np  # here, on the calling thread, before the pool starts

    def sweep(rep: int) -> SweepResult:
        try:
            return run_sweep(post, cfg, rng_stream(cfg.seed, rep))
        except NumericError as exc:
            raise type(exc)(f"repetition {rep}: {exc}") from None

    with ThreadPoolExecutor(max_workers=workers) as pool:
        sweeps = list(pool.map(sweep, range(cfg.k_reps)))

    mean_matrix = np.array([s.means for s in sweeps])
    alpha_hat, beta_hat = np.array([s.params for s in sweeps]).mean(axis=0).T
    acceptance = np.array([s.acceptance_rates for s in sweeps]).mean(axis=0)
    k = cfg.k_reps
    ordered = np.sort(mean_matrix, axis=0)

    def quantile(q: float) -> np.ndarray:
        index = (k - 1) * q
        j = math.floor(index)
        t = index - j
        a, b = ordered[j], ordered[min(j + 1, k - 1)]
        return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t

    tail = (1.0 - cfg.ci_level) / 2.0
    return CalibrationResult(
        grade_means=tuple(float(v) for v in mean_matrix.mean(axis=0)),
        grade_medians=tuple(float(v) for v in (ordered[(k - 1) // 2] + ordered[k // 2]) / 2),
        ci_lower=tuple(float(v) for v in quantile(tail)),
        ci_upper=tuple(float(v) for v in quantile(1.0 - tail)),
        mc_se=(tuple(float(v) for v in mean_matrix.std(axis=0, ddof=1) / math.sqrt(k))
               if k > 1 else (None,) * len(post)),
        alpha_hat=tuple(float(v) for v in alpha_hat),
        beta_hat=tuple(float(v) for v in beta_hat),
        sweep_means=mean_matrix,
        pair_acceptance=tuple(float(v) for v in acceptance),
        passes=tuple(s.passes for s in sweeps),
        draws_total=sum(s.draws_total for s in sweeps),
        topup_blocks_total=sum(s.topup_blocks_total for s in sweeps),
    )


def oracle_conditional_means_2grade(p1: BetaParams, p2: BetaParams) -> tuple[float, float]:
    """E[theta_1 | theta_1 <= theta_2] and E[theta_2 | theta_1 <= theta_2]
    by 1-D Gauss-Legendre quadrature, independent of the Monte-Carlo path.

    The acceptance P(theta_1 <= theta_2) is A = int f_2 F_1, the upper mean int t f_2 F_1 / A and,
    swapping the order of integration in int t f_1 (1 - F_2), the lower mean int f_2 G_1 / A with
    G_1(s) = int_0^s t f_1(t) dt, all over u = logit t.  There Beta(a, b) has the density
    sigma(u)^a sigma(-u)^b / B(a, b), smooth for every a, b > 0, with e^(a u) and e^(-b u) tails.
    So per grade, cells 0.24 s wide, s = sqrt(1/a + 1/b), run from max(12 s, 60/a) below log(a/b)
    to max(12 s, 60/b) above, where a tail is down to e^-60 (e^-40 of the least A taken), 8 nodes
    a cell.  F_1 and G_1 at a node add the cells below it to p1's rule from its cell start to the
    node, so no complement loses digits.  Takes every shape > 0; raises ValueError if A < 1e-8.
    """
    import numpy as np
    grids = []
    for p in (p1, p2):
        scale = math.sqrt(1.0 / p.alpha + 1.0 / p.beta)
        below, above = (math.ceil(max(12.0, 60.0 / (shape * scale)) / 0.24) for shape in p)
        grids.append(math.log(p.alpha / p.beta) + 0.24 * scale * np.arange(-below, above + 1))
    edges = np.unique(np.concatenate(grids))
    nodes, weights = np.polynomial.legendre.leggauss(8)

    def rule(p, lo, hi):
        """The 8 nodes u on each [lo, hi], t there, and p's density in u times their weights."""
        half = 0.5 * (hi - lo)[..., None]
        u = lo[..., None] + half * (1.0 + nodes)
        log_t, log_1mt = -np.logaddexp(0.0, -u), -np.logaddexp(0.0, u)
        return u, np.exp(log_t), half * weights * np.exp(
            p.alpha * log_t + p.beta * log_1mt - log_beta(p.alpha, p.beta))

    u, t, wf1 = rule(p1, edges[:-1], edges[1:])  # one row of nodes per cell
    wf2 = rule(p2, edges[:-1], edges[1:])[2]
    _, s, wfs = rule(p1, edges[:-1, None], u)  # p1's rule from each node's cell start to it
    cdf1, g1 = (np.cumsum(np.r_[0.0, w.sum(axis=1)[:-1]])[:, None] + ws.sum(axis=2)
                for w, ws in ((wf1, wfs), (wf1 * t, wfs * s)))
    upper = wf2 * cdf1
    acceptance = float(upper.sum())
    if not acceptance >= 1e-8:
        raise ValueError(
            f"Beta({p1.alpha:g}, {p1.beta:g}) below Beta({p2.alpha:g}, {p2.beta:g}): the oracle "
            f"needs an acceptance of at least 1e-8, got {acceptance:.3g}")
    return float((wf2 * g1).sum()) / acceptance, float((t * upper).sum()) / acceptance


def export_histograms(sweep_means: np.ndarray) -> list[tuple[tuple[float, ...], tuple[int, ...]]]:
    """Per-grade ``(bin edges, counts)`` of a k_reps x n_grades matrix of sweep means
    (``CalibrationResult.sweep_means``).

    ``_HIST_BINS`` fixed-width bins span that grade's min..max, so there is
    one more edge than counts; a degenerate grade (all repetitions equal)
    collapses to the edges ``(v, v)`` around a single occupied bin.
    """
    import numpy as np
    out = []
    for values in sweep_means.T:
        lo, hi = float(values.min()), float(values.max())
        if lo == hi:
            out.append(((lo, hi), (int(values.size),)))
            continue
        counts, edges = np.histogram(values, bins=_HIST_BINS, range=(lo, hi))
        out.append((tuple(edges.tolist()), tuple(counts.tolist())))
    return out
