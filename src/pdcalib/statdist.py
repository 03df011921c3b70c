"""Statistical kernels shared by the whole package.

Beta variates come from numpy's ``Generator`` on SFC64 streams seeded
by ``SeedSequence`` spawn keys (``rng_stream``), and log-gamma from
``math.lgamma``.  Only ``rng_stream`` loads ``numpy.random``, when it is
first called, so a command that draws nothing never imports the sampler.  On
top of numpy array arithmetic the module adds the log beta function (with
Stirling's series where lgamma differences would cancel), the regularized
incomplete beta function through a Lentz-style continued fraction with a
shape-scaled iteration budget, binomial tail probabilities through the
incomplete-beta identity, and a safeguarded Newton root finder for
monotone targets that falls back to bisection.  Iterative kernels
converge or raise ConvergenceError; they never return a truncated result.

``log_beta``, ``binomial_tail_le`` and ``solve_monotone`` work
elementwise on scalars or numpy arrays, so one call serves a whole
portfolio; ``sample_beta`` returns an array of draws.  ``log_beta`` also
normalises the densities of the calibrator's quadrature oracle.  The continued
fraction runs per element in plain floats, since numpy's call overhead on each
of its hundreds of terms would outweigh the arithmetic on a portfolio's few
dozen elements.  It takes x itself, so near x = 1 it is good to only about
alpha * 5e-17 relative (5e-11 for Beta(1e6, 1)), which is why that oracle
does not use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BetaParams",
    "rng_stream",
    "BracketError",
    "ConvergenceError",
    "sample_beta",
    "log_beta",
    "binomial_tail_le",
    "solve_monotone",
]

_U64_MAX = (1 << 64) - 1
_SOLVE_MAX_STEPS = 200


class BracketError(ValueError):
    """The root-finder target is not enclosed by the supplied interval."""


class ConvergenceError(RuntimeError):
    """An iterative kernel ran out of its iteration budget before converging."""


@dataclass(frozen=True)
class BetaParams:
    """Shape pair (alpha, beta) of a beta distribution.

    Both shapes must be strictly positive and finite; the implied mean
    alpha / (alpha + beta) then lies strictly inside (0, 1).
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def rng_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Reproducible, partitionable source of random variates.

    A numpy ``Generator`` on an SFC64 bit generator seeded by
    ``SeedSequence(seed, spawn_key=(stream_id,))``, numpy's scheme for
    independent parallel streams: the same ``(seed, stream_id)`` always
    replays the same sequence, and distinct pairs hash to unrelated
    256-bit starting states.  SFC64's 64-bit counter guarantees each
    stream a period of at least 2**64 draws.  A stream holds mutable
    position state and must be owned by exactly one consumer at a time;
    creating one is cheap.  For a fixed key the variates also depend on
    the numpy version, which does not promise stable distribution streams
    across releases.
    """
    seed = int(seed)
    stream_id = int(stream_id)
    if not 0 <= seed <= _U64_MAX:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    if not 0 <= stream_id <= _U64_MAX:
        raise ValueError(f"stream_id must fit in 64 bits, got {stream_id}")
    from numpy.random import SFC64, Generator, SeedSequence

    return Generator(SFC64(SeedSequence(seed, spawn_key=(stream_id,))))


def sample_beta(p: BetaParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` Beta(alpha, beta) variates from ``rng``.

    Values are clipped into the open interval in the rare event a draw
    rounds to 0 or 1.  A negative ``size`` raises numpy's ValueError.
    """
    out = rng.beta(p.alpha, p.beta, size)
    np.clip(out, 5e-324, 1.0 - 2.0 ** -53, out=out)
    return out


_lgamma = np.vectorize(math.lgamma, otypes=[np.float64])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_tail(x: np.ndarray) -> np.ndarray:
    """lgamma(x) - ((x - 1/2) log x - x + log sqrt(2 pi)), to 2e-14 for x >= 10."""
    r = 1.0 / (x * x)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (1.0 / 1680.0 - r / 1188.0)))) / x


def log_beta(a, b):
    """Log of the beta function B(a, b), elementwise over broadcast arrays.

    The sum lgamma(a) + lgamma(b) - lgamma(a + b) loses about one unit in
    the last place of lgamma(a + b): 2e-9 at a + b = 1e6, 3e-8 at 1e7.  So
    it is used only when both shapes are below 10.  Otherwise every shape
    of 10 or more enters through Stirling's series, and the large
    (x - 1/2) log x terms cancel analytically into log1p form (the scheme
    of R's ``lbeta``).
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    p, q = np.minimum(a, b), np.maximum(a, b)
    s = p + q
    lgamma_p = _lgamma(p)
    corr = _stirling_tail(q) - _stirling_tail(s)
    one_large = lgamma_p + p - p * np.log(s) + (q - 0.5) * np.log1p(-p / s) + corr
    both_large = (_HALF_LOG_2PI - 0.5 * np.log(q) + (p - 0.5) * np.log(p / s)
                  + q * np.log1p(-p / s) + _stirling_tail(p) + corr)
    return np.where(q < 10.0, lgamma_p + _lgamma(q) - _lgamma(s),
                    np.where(p < 10.0, one_large, both_large))


def _cont_frac_budget(a: float, b: float) -> int:
    """Iteration budget of the continued fraction for one element's shapes.

    The modified Lentz evaluation needs O(sqrt(max(a, b))) terms (Numerical
    Recipes, section 6.4).  Measured worst cases, just below the symmetry
    switch, took 0.5 to 1.8 sqrt(min(a, b)) terms: 518 at a = b = 1e6 and
    1,583 at (1e8, 1e7), against budgets of 2,200 and 20,200.
    """
    return 200 + int(2.0 * math.sqrt(max(a, b)))


def _cont_frac_one(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz) at one point.

    A plain-float loop that stops once its odd step lies within 3e-16 of 1,
    and raises ConvergenceError naming its shapes when the budget scaled to
    them runs out first.  ``_beta_cont_frac`` maps it over broadcast arrays.
    """
    max_iter = _cont_frac_budget(a, b)
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    # every divisor is moved to 1e-300 when it lies closer to zero than that
    d = 1.0 - qab * x / qap
    d = 1.0 / (1e-300 if abs(d) < 1e-300 else d)
    c, h = 1.0, d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        for numer in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                      -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + numer * d
            d = 1.0 / (1e-300 if abs(d) < 1e-300 else d)
            c = 1.0 + numer / c
            c = 1e-300 if abs(c) < 1e-300 else c
            step = d * c
            h *= step
        if abs(step - 1.0) < 3e-16:
            return h
    raise ConvergenceError(
        f"incomplete-beta continued fraction did not converge in {max_iter} iterations "
        f"for a={a:g}, b={b:g}, x={x:g}")


_beta_cont_frac = np.vectorize(_cont_frac_one, otypes=[np.float64])


def _inc_beta(x, y, a, b) -> np.ndarray:
    """Regularized incomplete beta I_x(a, b) for 0 < x < 1, given y = 1 - x.

    Elementwise over broadcast arrays.  Taking 1 - x from the caller lets
    one that knows the small side exactly (the binomial tail knows theta)
    keep its precision.  The continued fraction runs on I_x(a, b) below the
    symmetry switch x = (a + 1) / (a + b + 2) and on 1 - I_y(b, a) above it.
    """
    x, y, a, b = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (x, y, a, b)))
    log_x = np.where(x < 0.5, np.log(x), np.log1p(-y))
    log_y = np.where(y < 0.5, np.log(y), np.log1p(-x))
    front = np.exp(a * log_x + b * log_y - log_beta(a, b))
    direct = x < (a + 1.0) / (a + b + 2.0)
    frac = _beta_cont_frac(np.where(direct, a, b), np.where(direct, b, a), np.where(direct, x, y))
    return np.clip(np.where(direct, front / a * frac, 1.0 - front / b * frac), 0.0, 1.0)


def binomial_tail_le(n, d, theta):
    """P(X <= d) for X ~ Binomial(n, theta), via the incomplete-beta identity.

    Elementwise over broadcast arrays of ``n``, ``d`` and ``theta``; scalar
    arguments give a float.
    """
    n_arr, d_arr, t = np.broadcast_arrays(
        np.asarray(n), np.asarray(d), np.asarray(theta, dtype=np.float64))
    if np.any(n_arr < 0):
        raise ValueError(f"n must be nonnegative, got {n}")
    if np.any((d_arr < 0) | (d_arr > n_arr)):
        raise ValueError(f"d must satisfy 0 <= d <= n, got d={d}, n={n}")
    if not np.all((t > 0.0) & (t < 1.0)):
        raise ValueError(f"theta must lie strictly inside (0, 1), got {theta}")
    # P(X <= d) = I_{1-theta}(n - d, d + 1), which is 1 where d = n; those
    # elements get shape 1 so the kernel stays in its domain.
    full = d_arr == n_arr
    tail = _inc_beta(1.0 - t, t, np.where(full, 1.0, n_arr - d_arr), d_arr + 1.0)
    out = np.where(full, 1.0, tail)
    return out if out.ndim else float(out)


def solve_monotone(f, target, lo, hi, tol: float = 1e-12, fprime=None, x0=None):
    """Solve ``f(x) = target`` for monotone ``f`` on [lo, hi], elementwise.

    ``target``, ``lo``, ``hi`` and ``x0`` broadcast to the shape of the
    problem, and ``f`` (and ``fprime``) are called on arrays of that shape.
    A safeguarded Newton iteration ("rtsafe"): starting from ``x0`` (by
    default the midpoint), each element evaluates ``f``, shrinks its bracket
    to the side that holds the root, then takes the Newton step when
    ``fprime`` is given and the step lands strictly inside the bracket, and
    the bracket midpoint otherwise.  Without ``fprime`` this is bisection.
    An element is done when ``f`` hits the target exactly or its step is at
    most ``tol`` relative to the new point.  Raises BracketError when the
    target is not enclosed, and ConvergenceError when some element is not
    done within the iteration cap.  Scalar arguments give a float.
    """
    if x0 is None:
        x0 = 0.5 * (np.asarray(lo, dtype=np.float64) + np.asarray(hi, dtype=np.float64))
    target, lo, hi, x = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (target, lo, hi, x0)))
    if not np.all(lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not np.all((lo <= x) & (x <= hi)):
        raise ValueError("x0 must lie inside [lo, hi]")
    f_lo = np.asarray(f(lo), dtype=np.float64) - target
    f_hi = np.asarray(f(hi), dtype=np.float64) - target
    open_ = f_lo * f_hi > 0.0
    if np.any(open_):
        i = np.flatnonzero(open_)[0]
        raise BracketError(
            f"target {target.flat[i]} not enclosed: f(lo)-target={f_lo.flat[i]:g}, "
            f"f(hi)-target={f_hi.flat[i]:g}")
    done = (f_lo == 0.0) | (f_hi == 0.0)
    root = np.where(f_lo == 0.0, lo, hi)
    increasing = f_hi > f_lo
    for _ in range(_SOLVE_MAX_STEPS):
        if done.all():
            break
        fx = np.asarray(f(x), dtype=np.float64) - target
        above = (fx > 0.0) == increasing
        hi = np.where(above, x, hi)
        lo = np.where(above, lo, x)
        nxt = 0.5 * (lo + hi)
        if fprime is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = x - fx / np.asarray(fprime(x), dtype=np.float64)
            # a zero step leaves x at the bracket end it just became
            take = ((lo < newton) & (newton < hi)) | (newton == x)
            nxt = np.where(take, newton, nxt)
        hit = fx == 0.0
        finished = ~done & (hit | (np.abs(nxt - x) <= tol * np.abs(nxt)))
        root = np.where(finished, np.where(hit, x, nxt), root)
        done |= finished
        x = np.where(done, x, nxt)
    if not done.all():
        raise ConvergenceError(
            f"solve_monotone: {int((~done).sum())} of {done.size} roots not within "
            f"relative tolerance {tol:g} after {_SOLVE_MAX_STEPS} steps")
    return root if root.ndim else float(root)
