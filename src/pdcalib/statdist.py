"""Statistical kernels shared by the whole package.

Beta variates come from numpy's ``Generator`` on counter-based Philox
streams and log-gamma from ``math.lgamma``.  On top of numpy array
arithmetic the module adds the regularized incomplete beta function
through a Lentz-style continued fraction, binomial tail probabilities
through the incomplete-beta identity, and a bisection root finder for
monotone targets.

``beta_cdf`` accepts scalars or numpy arrays; ``sample_beta`` returns an
array of draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "BetaParams",
    "RngStream",
    "BracketError",
    "beta_mean_var",
    "sample_beta",
    "beta_cdf",
    "binomial_tail_le",
    "solve_monotone",
]

_U64_MAX = (1 << 64) - 1


class BracketError(ValueError):
    """The root-finder target is not enclosed by the supplied interval."""


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


class RngStream(Generator):
    """Reproducible, partitionable source of random variates.

    A numpy ``Generator`` keyed by ``(seed, stream_id)`` on a counter-based
    Philox generator: the same pair always replays the same sequence, and
    distinct stream ids give statistically independent sequences no matter
    how many draws each one makes.  A stream holds mutable position state
    and must be owned by exactly one consumer at a time; creating one is
    cheap.  For a fixed key the variates also depend on the numpy version,
    which does not promise stable distribution streams across releases.
    """

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        seed = int(seed)
        stream_id = int(stream_id)
        if not 0 <= seed <= _U64_MAX:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        if not 0 <= stream_id <= _U64_MAX:
            raise ValueError(f"stream_id must fit in 64 bits, got {stream_id}")
        # 128-bit Philox key: seed in the high word, stream id in the low
        # word, so the (seed, stream_id) -> key map is injective.
        super().__init__(Philox(key=(seed << 64) | stream_id))


def beta_mean_var(p: BetaParams) -> tuple[float, float]:
    """Mean and variance of Beta(alpha, beta)."""
    total = p.alpha + p.beta
    mean = p.alpha / total
    variance = p.alpha * p.beta / (total * total * (total + 1.0))
    return mean, variance


def sample_beta(p: BetaParams, rng: RngStream, size: int) -> np.ndarray:
    """``size`` Beta(alpha, beta) variates from ``rng``.

    Values are clipped into the open interval in the rare event a draw
    rounds to 0 or 1.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    out = rng.beta(p.alpha, p.beta, size)
    np.clip(out, 5e-324, 1.0 - 2.0 ** -53, out=out)
    return out


def _beta_cont_frac(a: float, b: float, x: np.ndarray, max_iter: int = 500) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz), vectorized over x."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    tiny = 1e-300
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < tiny, tiny, d)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        numer = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numer * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + numer / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        h *= d * c
        numer = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numer * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + numer / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        step = d * c
        h *= step
        if np.all(np.abs(step - 1.0) < 3e-16):
            break
    return h


def beta_cdf(x, p: BetaParams):
    """Regularized incomplete beta I_x(alpha, beta) for x in [0, 1].

    Continued-fraction evaluation with the symmetry switch at
    x = (alpha + 1) / (alpha + beta + 2); accepts scalars or arrays.
    """
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("beta_cdf argument must lie in [0, 1]")
    a, b = p.alpha, p.beta
    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    out = np.empty_like(arr)
    at_zero = arr <= 0.0
    at_one = arr >= 1.0
    out[at_zero] = 0.0
    out[at_one] = 1.0
    interior = ~(at_zero | at_one)
    if np.any(interior):
        xi = arr[interior]
        res = np.empty_like(xi)
        direct = xi < (a + 1.0) / (a + b + 2.0)
        if np.any(direct):
            xd = xi[direct]
            front = np.exp(a * np.log(xd) + b * np.log1p(-xd) - ln_beta) / a
            res[direct] = front * _beta_cont_frac(a, b, xd)
        flipped = ~direct
        if np.any(flipped):
            xf = xi[flipped]
            front = np.exp(a * np.log(xf) + b * np.log1p(-xf) - ln_beta) / b
            res[flipped] = 1.0 - front * _beta_cont_frac(b, a, 1.0 - xf)
        out[interior] = np.clip(res, 0.0, 1.0)
    return out if out.ndim else float(out)


def binomial_tail_le(n: int, d: int, theta: float) -> float:
    """P(X <= d) for X ~ Binomial(n, theta), via the incomplete-beta identity."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if d < 0 or d > n:
        raise ValueError(f"d must satisfy 0 <= d <= n, got d={d}, n={n}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie strictly inside (0, 1), got {theta}")
    if d == n:
        return 1.0
    # P(X <= d) = I_{1-theta}(n - d, d + 1)
    return float(beta_cdf(1.0 - theta, BetaParams(float(n - d), float(d + 1))))


def solve_monotone(f, target: float, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Bisection solve of ``f(x) = target`` for monotone ``f`` on [lo, hi].

    Stops when either |f(x) - target| <= tol or the bracket width drops to
    tol.  Raises BracketError when the target is not enclosed.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    f_lo = f(lo) - target
    f_hi = f(hi) - target
    if abs(f_lo) <= tol:
        return lo
    if abs(f_hi) <= tol:
        return hi
    if f_lo * f_hi > 0.0:
        raise BracketError(
            f"target {target} not enclosed: f(lo)-target={f_lo:g}, f(hi)-target={f_hi:g}")
    increasing = f_hi > f_lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid) - target
        if abs(f_mid) <= tol or (hi - lo) <= tol:
            return mid
        if (f_mid > 0.0) == increasing:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
