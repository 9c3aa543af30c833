"""Uncertain-parameter handling: distribution fitting, inverse-CDF sampling,
and probability weights by basis-function integration.

A distribution is truncated to a finite support and renormalized there, so
its CDF spans exactly [0, 1] and quantile endpoints map to the support
bounds. Sample weights are integrals of piecewise-linear hat functions
(constant beyond the terminal nodes) against the density, which makes the
weighted sample sum reproduce expectations of smooth functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quadpack import quad

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-11, limit=200)
# QUADPACK's failure codes, as quadpack.quad documents them (6, invalid
# tolerances, cannot arise from _QUAD_OPTS)
_QUAD_FAILURES = {
    1: "the subdivision limit was reached",
    2: "roundoff error prevents the requested accuracy",
    3: "the density is too irregular at some point",
    4: "the extrapolation did not converge",
    5: "the integral is divergent or converges too slowly",
}


class DistributionFitError(ValueError):
    """Raised when a distribution cannot be fit from data."""


class Distribution:
    """Base: truncated, renormalized density on a finite support."""

    support: tuple[float, float]

    def _raw_pdf(self, x):
        """Untruncated density at a NumPy float64 scalar."""
        raise NotImplementedError

    def _raw_mass(self) -> float:
        """Untruncated mass inside the support (analytic, for normalization)."""
        raise NotImplementedError

    @cached_property
    def _norm(self) -> float:
        return self._raw_mass()

    def pdf(self, x: float) -> float:
        """Truncated density at a scalar; `quadpack.quad` calls it once per
        point with a Python float."""
        lo, hi = self.support
        x = np.float64(x)
        return float(self._raw_pdf(x) / self._norm) if lo <= x <= hi else 0.0


@dataclass(frozen=True)
class Gaussian(Distribution):
    """Normal density truncated to mu +- 5 sigma (tail mass ~6e-7)."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def support(self) -> tuple[float, float]:
        return (self.mu - 5.0 * self.sigma, self.mu + 5.0 * self.sigma)

    def _raw_pdf(self, x):
        z = (x - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def _raw_mass(self) -> float:
        lo, hi = self.support
        a = (lo - self.mu) / (self.sigma * math.sqrt(2.0))
        b = (hi - self.mu) / (self.sigma * math.sqrt(2.0))
        return 0.5 * (math.erf(b) - math.erf(a))


@dataclass(frozen=True)
class GaussianKde(Distribution):
    """Gaussian-kernel density estimate truncated to the data hull
    extended by four bandwidths on each side."""

    data: tuple[float, ...]
    bandwidth: float

    def __post_init__(self) -> None:
        if len(self.data) < 2:
            raise ValueError("KDE needs at least 2 data points")
        if self.bandwidth <= 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")

    @property
    def support(self) -> tuple[float, float]:
        return (min(self.data) - 4.0 * self.bandwidth, max(self.data) + 4.0 * self.bandwidth)

    def _raw_pdf(self, x):
        z = np.subtract.outer(x, self._points) / self.bandwidth
        dens = np.exp(-0.5 * z * z).mean(axis=-1)
        return dens / (self.bandwidth * math.sqrt(2.0 * math.pi))

    @cached_property
    def _points(self) -> np.ndarray:
        return np.asarray(self.data)

    def _raw_mass(self) -> float:
        # scipy's erf, not math.erf: the two differ in the last bit on about
        # a fifth of arguments. Imported here, so only KDE runs load it.
        from scipy.special import erf

        lo, hi = self.support
        pts = self._points
        root2h = self.bandwidth * math.sqrt(2.0)
        return float(0.5 * (erf((hi - pts) / root2h) - erf((lo - pts) / root2h)).mean())


def fit_kde(data) -> GaussianKde:
    """Gaussian-kernel KDE with the Silverman bandwidth
    h = 1.06 * std * n^(-1/5)."""
    arr = np.asarray(list(data), dtype=float)
    if arr.size < 2:
        raise DistributionFitError(f"need at least 2 data points, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise DistributionFitError("data contains non-finite values")
    std = float(arr.std(ddof=1))
    if std == 0.0:
        raise DistributionFitError("data has zero variance; no density to fit")
    h = 1.06 * std * arr.size ** (-0.2)
    return GaussianKde(data=tuple(arr.tolist()), bandwidth=h)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Sample values and their probability weights."""

    samples: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        m = self.samples.shape[0]
        if self.weights.shape != (m,):
            raise ValueError("samples and weights must share one length")
        if np.any(np.diff(self.samples) <= 0.0):
            raise ValueError("samples must be strictly increasing")
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be non-negative")
        if abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {self.weights.sum()}, expected 1")


def _integral(f, a: float, b: float) -> float:
    """Integral of f over [a, b] (0 when b <= a); a QUADPACK failure is a
    ValueError naming the interval and the code."""
    if b <= a:
        return 0.0
    value, _, ier = quad(f, a, b, **_QUAD_OPTS)
    if ier != 0:
        raise ValueError(
            f"cannot integrate the density over [{a!r}, {b!r}]: "
            f"{_QUAD_FAILURES[ier]} (QUADPACK ier={ier})"
        )
    return value


def _icdf_one(dist: Distribution, p: float) -> float:
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


def icdf_samples(dist: Distribution, cdf_points) -> np.ndarray:
    """Sample values at the requested CDF positions (quantiles)."""
    pts = np.asarray(list(cdf_points), dtype=float)
    if pts.size == 0:
        raise ValueError("need at least one cdf point")
    if np.any(pts < 0.0) or np.any(pts > 1.0):
        raise ValueError("cdf points must lie in [0, 1]")
    if np.any(np.diff(pts) <= 0.0):
        raise ValueError("cdf points must be strictly increasing")
    return np.array([_icdf_one(dist, float(p)) for p in pts])


def basis_weights(samples, dist: Distribution) -> np.ndarray:
    """Probability weights theta_i = integral of hat_i times the density.

    Integration runs piecewise between adjacent nodes (and from the support
    bounds to the terminal nodes) with absolute tolerance well under 1e-8;
    the result is renormalized after checking the drift from 1 is <= 1e-6.
    """
    nodes = np.asarray(list(samples), dtype=float)
    if nodes.size < 2:
        raise ValueError("need at least 2 samples")
    if np.any(np.diff(nodes) <= 0.0):
        raise ValueError("samples must be strictly increasing")
    lo, hi = dist.support
    if nodes[0] < lo or nodes[-1] > hi:
        raise ValueError("samples must lie inside the distribution support")

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


def quadrature_rule(dist: Distribution, cdf_points) -> QuadratureRule:
    """Samples at the given CDF positions plus their basis-function weights.

    A single sample carries the whole probability mass (its hat function is
    identically 1 on the support)."""
    samples = icdf_samples(dist, cdf_points)
    if samples.size == 1:
        weights = np.array([1.0])
    else:
        weights = basis_weights(samples, dist)
    return QuadratureRule(samples=samples, weights=weights)


def expectation(rule: QuadratureRule, values) -> float:
    """Weighted sample sum approximating the expectation integral."""
    vals = np.asarray(list(values), dtype=float)
    if vals.shape != rule.weights.shape:
        raise ValueError(
            f"got {vals.shape[0] if vals.ndim else 1} values for {rule.samples.size} samples"
        )
    return float(np.dot(rule.weights, vals))


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
