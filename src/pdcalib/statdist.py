"""Statistical kernels shared by the whole package.

Beta variates come from numpy's ``Generator`` on SFC64 streams seeded by
``SeedSequence`` spawn keys (``rng_stream``, which alone loads numpy, when
first called).  Every other kernel is a scalar function on ``math``: the
log beta function (``math.lgamma``, with Stirling's series where lgamma
differences would cancel), binomial tail probabilities as a regularized
incomplete beta through a Lentz-style continued fraction with a
shape-scaled iteration budget, a safeguarded Newton root finder for
monotone targets that falls back to bisection, and the standard normal
quantile it solves.  Iterative kernels converge or raise
ConvergenceError; they never return a truncated result.  ``log_beta``
also normalises the densities of the calibrator's quadrature oracle.
The continued fraction takes x itself, so near x = 1 it is good to only
about alpha * 5e-17 relative (5e-11 for Beta(1e6, 1)), which is why that
oracle does not use it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["BetaParams", "rng_stream", "NumericError", "BracketError", "ConvergenceError",
           "sample_beta", "log_beta", "binomial_tail_le", "solve_monotone"]

_U64_MAX = (1 << 64) - 1
_SOLVE_MAX_STEPS = 200
_SOLVE_TOL = 1e-12


class NumericError(Exception):
    """A numeric or algorithmic failure, exit 3 of the CLI.  Each subclass also
    keeps a built-in base, ValueError or RuntimeError."""


class BracketError(NumericError, ValueError):
    """The root-finder target is not enclosed by the supplied interval."""


class ConvergenceError(NumericError, RuntimeError):
    """An iterative kernel ran out of its iteration budget before converging."""


class BetaParams(namedtuple("BetaParams", "alpha beta")):
    """Shape pair (alpha, beta) of a beta distribution.

    Both shapes must be strictly positive and finite; the implied mean
    alpha / (alpha + beta) then lies strictly inside (0, 1).
    """

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float) -> BetaParams:
        for name, value in (("alpha", alpha), ("beta", beta)):
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        return super().__new__(cls, alpha, beta)


def _check_u64(name: str, value: int) -> int:
    """``value`` as an int, if it is one of the 2**64 keys of an ``rng_stream``."""
    value = int(value)
    if not 0 <= value <= _U64_MAX:
        raise ValueError(f"{name} must fit in 64 bits, got {value}")
    return value


def rng_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Reproducible, partitionable source of random variates.

    A numpy ``Generator`` on an SFC64 bit generator seeded by
    ``SeedSequence(seed, spawn_key=(stream_id,))``, numpy's scheme for
    independent parallel streams: the same ``(seed, stream_id)``, both
    required, always replays the same sequence, and distinct pairs hash to
    unrelated 256-bit starting states.  SFC64's 64-bit counter guarantees
    each stream a period of at least 2**64 draws.  A stream holds mutable
    position state and must be owned by exactly one consumer at a time;
    creating one is cheap.  For a fixed key the variates also depend on
    the numpy version, which does not promise stable distribution streams
    across releases.
    """
    seed, stream_id = _check_u64("seed", seed), _check_u64("stream_id", stream_id)
    from numpy.random import SFC64, Generator, SeedSequence

    return Generator(SFC64(SeedSequence(seed, spawn_key=(stream_id,))))


def sample_beta(p: BetaParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` Beta(alpha, beta) variates from ``rng``.

    Values are clipped into the open interval in the rare event a draw
    rounds to 0 or 1.  A negative ``size`` raises numpy's ValueError.
    """
    out = rng.beta(p.alpha, p.beta, size)
    return out.clip(5e-324, 1.0 - 2.0 ** -53, out=out)


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _stirling_tail(x: float) -> float:
    """lgamma(x) - ((x - 1/2) log x - x + log sqrt(2 pi)), to 2e-14 for x >= 10."""
    r = 1.0 / (x * x)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (1.0 / 1680.0 - r / 1188.0)))) / x


def log_beta(a: float, b: float) -> float:
    """Log of the beta function B(a, b).

    The sum lgamma(a) + lgamma(b) - lgamma(a + b) loses about one unit in
    the last place of lgamma(a + b): 2e-9 at a + b = 1e6, 3e-8 at 1e7.  So
    it is used only when both shapes are below 10.  Otherwise every shape
    of 10 or more enters through Stirling's series, and the large
    (x - 1/2) log x terms cancel analytically into log1p form (the scheme
    of R's ``lbeta``).
    """
    p, q = min(a, b), max(a, b)
    s = p + q
    if q < 10.0:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(s)
    corr = _stirling_tail(q) - _stirling_tail(s)
    if p < 10.0:
        return math.lgamma(p) + p - p * math.log(s) + (q - 0.5) * math.log1p(-p / s) + corr
    return (_HALF_LOG_2PI - 0.5 * math.log(q) + (p - 0.5) * math.log(p / s)
            + q * math.log1p(-p / s) + _stirling_tail(p) + corr)


def _cont_frac_budget(a: float, b: float) -> int:
    """Iteration budget of the continued fraction for the shapes (a, b).

    The modified Lentz evaluation needs O(sqrt(max(a, b))) terms (Numerical
    Recipes, section 6.4).  Measured worst cases, just below the symmetry
    switch, took 0.5 to 1.8 sqrt(min(a, b)) terms: 518 at a = b = 1e6 and
    1,583 at (1e8, 1e7), against budgets of 2,200 and 20,200.
    """
    return 200 + int(2.0 * math.sqrt(max(a, b)))


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz) at one point.

    Stops once its odd step lies within 3e-16 of 1, and raises
    ConvergenceError naming its shapes and point when the budget scaled to
    the shapes runs out first.
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


def binomial_tail_le(n: int, d: int, theta: float) -> float:
    """P(X <= d) for X ~ Binomial(n, theta), as the incomplete beta I_{1-theta}(n - d, d + 1).

    Its front factor takes the logs from theta, exact where 1 - theta is rounded.  The
    continued fraction runs on I_{1-theta}(n - d, d + 1) below the symmetry switch
    1 - theta = (n - d + 1) / (n + 3), and on 1 - I_theta(d + 1, n - d) above it."""
    if not 0 <= d <= n:
        raise ValueError(f"d must satisfy 0 <= d <= n, got d={d}, n={n}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie strictly inside (0, 1), got {theta}")
    if d == n:
        return 1.0
    a, b = float(n - d), d + 1.0
    front = math.exp(a * math.log1p(-theta) + b * math.log(theta) - log_beta(a, b))
    if 1.0 - theta < (a + 1.0) / (a + b + 2.0):
        value = front / a * _beta_cont_frac(a, b, 1.0 - theta)
    else:
        value = 1.0 - front / b * _beta_cont_frac(b, a, theta)
    return min(max(value, 0.0), 1.0)


def solve_monotone(f, target: float, lo: float, hi: float, *, fprime, x0: float) -> float:
    """Solve ``f(x) = target`` for monotone ``f`` with slope ``fprime`` on [lo, hi].

    A safeguarded Newton iteration ("rtsafe"): starting from ``x0``, each
    step evaluates ``f``, shrinks the bracket to the side that holds the
    root, then takes the Newton step when the slope is nonzero and the step
    lands strictly inside the bracket, and the bracket midpoint otherwise.
    The solve is done when ``f`` hits the target exactly or its step is at
    most ``_SOLVE_TOL`` relative to the new point.  Raises BracketError when
    the target is not enclosed, and ConvergenceError when it is not done
    within the iteration cap.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not lo <= x0 <= hi:
        raise ValueError("x0 must lie inside [lo, hi]")
    f_lo, f_hi = f(lo) - target, f(hi) - target
    if f_lo * f_hi > 0.0:
        raise BracketError(
            f"target {target} not enclosed: f(lo)-target={f_lo:g}, f(hi)-target={f_hi:g}")
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    increasing = f_hi > f_lo
    x = x0
    for _ in range(_SOLVE_MAX_STEPS):
        fx = f(x) - target
        if fx == 0.0:
            return x
        if (fx > 0.0) == increasing:
            hi = x
        else:
            lo = x
        nxt = 0.5 * (lo + hi)
        slope = fprime(x)
        if slope != 0.0:
            newton = x - fx / slope
            # a zero step leaves x at the bracket end it just became
            if lo < newton < hi or newton == x:
                nxt = newton
        if abs(nxt - x) <= _SOLVE_TOL * abs(nxt):
            return nxt
        x = nxt
    raise ConvergenceError(
        f"solve_monotone: root not within relative tolerance {_SOLVE_TOL:g} "
        f"after {_SOLVE_MAX_STEPS} steps")


def _normal_quantile(p: float) -> float:
    """The z with Phi(z) = p, 0 < p < 1: a Newton solve of 0.5 erfc(-z / sqrt 2)
    = min(p, 1 - p) in the lower tail, where erfc keeps its relative
    precision, from -sqrt(-2 log 2 min(p, 1 - p)), mirrored for p > 1/2."""
    tail = min(p, 1.0 - p)
    z = solve_monotone(lambda t: 0.5 * math.erfc(-t / _SQRT2), tail, -40.0, 0.0,
                       fprime=lambda t: math.exp(-0.5 * t * t) / _SQRT_2PI,
                       x0=-math.sqrt(-2.0 * math.log(2.0 * tail)))
    return math.copysign(z, p - 0.5)
