"""Uncertain-parameter handling: distribution fitting, inverse-CDF sampling,
and probability weights by basis-function integration.

Both distributions, a Gaussian and a kernel-density estimate, are Gaussian
mixtures, truncated to a finite support and renormalized there, so the CDF
spans exactly [0, 1] and quantile endpoints map to the support bounds.
Sample weights are integrals of piecewise-linear hat functions (constant
beyond the terminal nodes) against the density, which makes the weighted
sample sum reproduce expectations of smooth functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._compiled import qagse as _qagse

# in _qagse's argument order
_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-11, limit=200)
# dqagse's failure codes, its ier (6, invalid tolerances, cannot arise from
# _QUAD_OPTS)
_QUAD_FAILURES = {
    1: "the subdivision limit was reached",
    2: "roundoff error prevents the requested accuracy",
    3: "the density is too irregular at some point",
    4: "the extrapolation did not converge",
    5: "the integral is divergent or converges too slowly",
}


class DistributionFitError(ValueError):
    """Raised when a distribution cannot be fit from data."""


@dataclass(frozen=True)
class GaussianMixture:
    """Equal-weight mixture of normal densities of one width, one per centre,
    truncated to the centres' hull widened by `reach` widths on each side and
    renormalized there. A Gaussian is one centre; a Gaussian-kernel density
    estimate has one centre per data point."""

    centers: tuple[float, ...]
    width: float
    reach: float

    def __post_init__(self) -> None:
        if not self.width > 0.0:
            raise ValueError(f"width must be positive, got {self.width}")
        # the quadrature takes its bounds from the support
        if not all(map(math.isfinite, self.support)):
            raise ValueError(f"support {self.support} is not finite")

    @cached_property
    def support(self) -> tuple[float, float]:
        pad = self.reach * self.width
        return (min(self.centers) - pad, max(self.centers) + pad)

    @cached_property
    def _points(self) -> np.ndarray:
        return np.asarray(self.centers)

    @cached_property
    def _norm(self) -> float:
        """Untruncated mass inside the support."""
        lo, hi = self.support
        root2w = self.width * math.sqrt(2.0)
        erfs = (math.erf((hi - c) / root2w) - math.erf((lo - c) / root2w) for c in self.centers)
        return 0.5 * math.fsum(erfs) / len(self.centers)

    def pdf(self, x: float) -> float:
        """Truncated density at a scalar; scipy's compiled dqagse calls it once
        per point with a Python float."""
        lo, hi = self.support
        if not lo <= x <= hi:
            return 0.0
        z = (x - self._points) / self.width
        # the sum over the count is .mean()'s arithmetic at a third of its cost
        dens = np.exp(-0.5 * z * z).sum() / z.size / (self.width * math.sqrt(2.0 * math.pi))
        return float(dens / self._norm)


def gaussian(mu: float, sigma: float) -> GaussianMixture:
    """Normal density truncated to mu +- 5 sigma (tail mass ~6e-7)."""
    return GaussianMixture((mu,), sigma, 5.0)


def fit_kde(data) -> GaussianMixture:
    """Gaussian-kernel KDE with the Silverman bandwidth
    h = 1.06 * std * n^(-1/5), truncated to the data hull widened by four
    bandwidths on each side."""
    arr = np.asarray(list(data), dtype=float)
    if arr.size < 2:
        raise DistributionFitError(f"need at least 2 data points, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise DistributionFitError("data contains non-finite values")
    try:
        with np.errstate(over="raise", invalid="raise"):
            std = float(arr.std(ddof=1))
    except FloatingPointError:
        raise DistributionFitError("data standard deviation overflows") from None
    if std == 0.0 and arr.max() > arr.min():
        raise DistributionFitError("data standard deviation underflows")
    if std == 0.0:
        raise DistributionFitError("data has zero variance; no density to fit")
    h = 1.06 * std * arr.size ** (-0.2)
    return GaussianMixture(tuple(arr.tolist()), h, 4.0)


def _integral(f, a: float, b: float) -> float:
    """Integral of f over [a, b], a <= b (0.0 when a == b); a QUADPACK
    failure is a ValueError naming the interval and the code."""
    value, _, ier = _qagse(f, a, b, (), 0, *_QUAD_OPTS.values())
    if ier != 0:
        raise ValueError(
            f"cannot integrate the density over [{a!r}, {b!r}]: "
            f"{_QUAD_FAILURES[ier]} (QUADPACK ier={ier})"
        )
    return value


def _icdf_one(dist: GaussianMixture, p: float) -> float:
    """Quantile by bisection on the numerically integrated CDF, to 1e-10 in
    cumulative probability. Each probe integrates only from the bracket's
    low end, so total integration length stays bounded."""
    lo, hi = dist.support
    if p <= 0.0:
        return lo
    if p >= 1.0:
        return hi
    a, b = lo, hi
    fa, fb = 0.0, 1.0
    x_floor = 1e-15 * (hi - lo)
    while (fb - fa) > 1e-10 and (b - a) > x_floor:
        mid = 0.5 * (a + b)
        fmid = fa + _integral(dist.pdf, a, mid)
        if fmid < p:
            a, fa = mid, fmid
        else:
            b, fb = mid, fmid
    return 0.5 * (a + b)


def icdf_samples(dist: GaussianMixture, cdf_points) -> np.ndarray:
    """Sample values at the requested CDF positions (quantiles)."""
    return np.array([_icdf_one(dist, float(p)) for p in cdf_points])


def basis_weights(samples, dist: GaussianMixture) -> np.ndarray:
    """Probability weights theta_i = integral of hat_i times the density.

    Integration runs piecewise between adjacent nodes (and from the support
    bounds to the terminal nodes) with absolute tolerance well under 1e-8;
    the result is renormalized after checking the drift from 1 is <= 1e-6.
    """
    nodes = np.asarray(list(samples), dtype=float)
    # close CDF points can give equal samples
    if np.any(np.diff(nodes) <= 0.0):
        raise ValueError("samples must be strictly increasing")
    lo, hi = dist.support

    m = nodes.size
    theta = np.zeros(m)
    pts = nodes.tolist()  # Python floats keep the integrands' arithmetic off NumPy scalars
    # terminal flats
    theta[0] += _integral(dist.pdf, lo, pts[0])
    theta[-1] += _integral(dist.pdf, pts[-1], hi)
    # ramps between adjacent nodes: down-ramp feeds hat i, up-ramp hat i+1
    for i in range(m - 1):
        a, b = pts[i], pts[i + 1]
        width = b - a
        theta[i] += _integral(lambda x: (b - x) / width * dist.pdf(x), a, b)
        theta[i + 1] += _integral(lambda x: (x - a) / width * dist.pdf(x), a, b)

    total = float(theta.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"basis weights sum to {total}; quadrature drift exceeds 1e-6")
    return theta / total


def quadrature_rule(dist: GaussianMixture, cdf_points) -> tuple[np.ndarray, np.ndarray]:
    """Samples at the given CDF positions and their basis-function weights; a
    lone sample weighs its two terminal flats over their own sum, 1.0."""
    samples = icdf_samples(dist, cdf_points)
    return samples, basis_weights(samples, dist)


def expectation(weights: np.ndarray, values) -> float:
    """Weighted sample sum approximating the expectation integral."""
    return float(np.dot(weights, np.asarray(list(values), dtype=float)))


# Nested CDF-point ladder used by the sample-count convergence study; odd
# counts keep the median and each level refines the previous one. Other
# counts fall back to uniform spacing across [0, 1].
_NESTED_CDF_SETS = {
    2: (0.0, 1.0),
    3: (0.0, 0.5, 1.0),
    5: (0.0, 0.3, 0.5, 0.7, 1.0),
    7: (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0),
    9: (0.0, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9, 1.0),
}


def cdf_points_for(m: int) -> np.ndarray:
    if m < 2:
        raise ValueError(f"need at least 2 samples, got {m}")
    if m in _NESTED_CDF_SETS:
        return np.array(_NESTED_CDF_SETS[m])
    return np.linspace(0.0, 1.0, m)


def ladder_rules(dist: GaussianMixture, counts) -> list[tuple[np.ndarray, np.ndarray]]:
    """`quadrature_rule` at each count's `cdf_points_for` points, sampling the
    union of the points once: the inverse CDF maps each point on its own, so
    every rule keeps its own samples' bits."""
    levels = [cdf_points_for(m).tolist() for m in counts]
    union = sorted(set().union(*levels))
    sample_at = dict(zip(union, icdf_samples(dist, union).tolist()))
    samples = [np.array([sample_at[p] for p in points]) for points in levels]
    return [(xs, basis_weights(xs, dist)) for xs in samples]
