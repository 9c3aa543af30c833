import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from pfsensor import uncertainty
from pfsensor.uncertainty import (
    DistributionFitError,
    basis_weights,
    cdf_points_for,
    expectation,
    fit_kde,
    gaussian,
    icdf_samples,
    quadrature_rule,
)

from oracles import PoleDensity, ReferenceGaussian

TABLE_POINTS = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


def hat_functions(samples, support):
    """Return f(x) -> (M, len(x)) matrix of hat-function values.

    Hat i is 1 at sample i, falls linearly to 0 at its neighbors, and is
    extended with its end value (1 for the terminal hats, 0 otherwise)
    beyond the sample hull out to the support bounds. The hats sum to 1
    everywhere on the support.
    """
    nodes = np.asarray(samples, dtype=float)

    def evaluate(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty((nodes.size, x.size))
        for i in range(nodes.size):
            one_hot = np.zeros(nodes.size)
            one_hot[i] = 1.0
            out[i] = np.interp(x, nodes, one_hot)
        return out

    return evaluate


def test_fit_kde_symmetric_data_gives_symmetric_pdf():
    kde = fit_kde([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    t = np.linspace(0.0, 0.45, 10)
    left = [kde.pdf(float(x)) for x in 0.5 - t]
    right = [kde.pdf(float(x)) for x in 0.5 + t]
    assert np.allclose(left, right, atol=1e-9)


def test_fit_kde_normalized_over_support():
    kde = fit_kde([0.1, 0.4, 0.45, 0.8, 1.3])
    lo, hi = kde.support
    total, _ = integrate.quad(kde.pdf, lo, hi, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_fit_kde_mean_close_to_sample_mean():
    rng = np.random.default_rng(7)
    data = rng.standard_normal(400)
    kde = fit_kde(data)
    lo, hi = kde.support
    mean, _ = integrate.quad(lambda x: x * kde.pdf(x), lo, hi, limit=200)
    sigma_hat = data.std(ddof=1)
    assert abs(mean) < 3.0 * sigma_hat / np.sqrt(data.size)


def test_fit_kde_rejects_degenerate_data():
    with pytest.raises(DistributionFitError):
        fit_kde([1.0])
    with pytest.raises(DistributionFitError, match="zero variance"):
        fit_kde([2.0, 2.0, 2.0])
    with pytest.raises(DistributionFitError):
        fit_kde([0.0, np.nan])
    # and with no RuntimeWarning, which the suite turns into an error
    with pytest.raises(DistributionFitError, match="standard deviation overflows"):
        fit_kde([1e308, -1e308])
    # distinct values whose squared deviations underflow are not constant data
    for tiny in (1e-300, 5e-324):
        with pytest.raises(DistributionFitError, match="standard deviation underflows"):
            fit_kde([0.0, tiny])


def test_gaussian_normalized_over_support():
    dist = gaussian(0.5, 0.05)
    lo, hi = dist.support
    total, _ = integrate.quad(dist.pdf, lo, hi, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "dist",
    [gaussian(0.5, 0.05), gaussian(-3.0, 2.0), fit_kde([0.1, 0.4, 0.45, 0.9, 1.3])],
    ids=["gaussian", "gaussian-wide", "kde"],
)
def test_float_pdf_is_positive_on_support_and_zero_outside(dist):
    # dqagse calls pdf once per point with a Python float
    lo, hi = dist.support
    rng = np.random.default_rng(0)
    inside = [*rng.uniform(lo, hi, 200).tolist(), lo, hi]
    outside = [np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), lo - (hi - lo), hi + (hi - lo)]
    values = [dist.pdf(float(x)) for x in inside + outside]
    assert all(type(v) is float for v in values)
    assert all(v > 0.0 for v in values[: len(inside)])
    assert all(v == 0.0 for v in values[len(inside) :])


def test_gaussian_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gaussian(0.0, 0.0)
    # the quadrature takes its bounds from the support
    with pytest.raises(ValueError, match=r"support \(-inf, inf\) is not finite"):
        gaussian(1e308, 1e308)


def test_icdf_median_of_symmetric_distribution():
    dist = gaussian(0.5, 0.05)
    (median,) = icdf_samples(dist, [0.5])
    assert median == pytest.approx(0.5, abs=1e-9)


def test_icdf_endpoints_map_to_support():
    dist = gaussian(0.5, 0.05)
    lo, hi = dist.support
    samples = icdf_samples(dist, [0.0, 1.0])
    assert samples[0] == lo and samples[1] == hi


def test_icdf_standard_normal_quantile():
    # Phi^-1(0.9) = 1.2815515655; x = 0.5 + 0.05 * Phi^-1(0.9)
    dist = gaussian(0.5, 0.05)
    (x,) = icdf_samples(dist, [0.9])
    assert x == pytest.approx(0.56407757, abs=1e-5)


def test_icdf_monotone():
    dist = gaussian(0.0, 1.0)
    pts = [0.05, 0.2, 0.5, 0.77, 0.95]
    samples = icdf_samples(dist, pts)
    assert np.all(np.diff(samples) > 0.0)


def test_two_endpoint_samples_split_symmetric_mass_evenly():
    dist = gaussian(0.5, 0.05)
    lo, hi = dist.support
    theta = basis_weights([lo, hi], dist)
    assert theta == pytest.approx([0.5, 0.5], abs=1e-8)


def test_basis_weights_reject_equal_samples():
    dist = gaussian(0.5, 0.05)
    with pytest.raises(ValueError, match="samples must be strictly increasing"):
        basis_weights([0.5, 0.5], dist)


def test_partition_of_unity_on_dense_grid():
    dist = gaussian(0.5, 0.05)
    samples, _ = quadrature_rule(dist, TABLE_POINTS)
    hats = hat_functions(samples, dist.support)
    xs = np.linspace(*dist.support, 1501)
    assert np.allclose(hats(xs).sum(axis=0), 1.0, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 6))
def test_basis_weights_positive_and_normalized(seed, m):
    dist = gaussian(0.0, 1.0)
    lo, hi = dist.support
    rng = np.random.default_rng(seed)
    samples = np.sort(rng.uniform(lo + 0.1, hi - 0.1, size=m))
    if np.any(np.diff(samples) < 1e-3):
        samples = np.linspace(lo + 0.5, hi - 0.5, m)
    theta = basis_weights(samples, dist)
    assert np.all(theta >= 0.0)
    assert theta.sum() == pytest.approx(1.0, abs=1e-12)


def test_expectation_table_reproduction():
    # weighted sums with the 7-point rule against the reported approximate
    # column (0.499, 0.259, 1.656); exact values 0.5, 0.2525, 1.6508
    samples, weights = quadrature_rule(gaussian(0.5, 0.05), TABLE_POINTS)
    assert expectation(weights, samples) == pytest.approx(0.499, abs=0.01)
    assert expectation(weights, samples**2) == pytest.approx(0.259, abs=0.01)
    assert expectation(weights, np.exp(samples)) == pytest.approx(1.656, abs=0.01)


def test_expectation_of_constant_is_exact():
    _, weights = quadrature_rule(gaussian(0.5, 0.05), (0.0, 0.5, 1.0))
    assert expectation(weights, np.full(3, 4.2)) == pytest.approx(4.2, rel=1e-12)


def test_expectation_count_mismatch():
    _, weights = quadrature_rule(gaussian(0.5, 0.05), (0.0, 0.5, 1.0))
    with pytest.raises(ValueError):
        expectation(weights, [1.0, 2.0])


def test_quadrature_error_decreases_with_sample_count():
    # smooth convex integrand: hat interpolation error shrinks as nodes fill in
    dist = gaussian(0.5, 0.05)
    exact = np.exp(0.5 + 0.05**2 / 2.0)
    errors = []
    for m in (3, 5, 7, 9):
        samples, weights = quadrature_rule(dist, cdf_points_for(m))
        errors.append(abs(expectation(weights, np.exp(samples)) - exact))
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_cdf_points_for_counts():
    assert cdf_points_for(7).tolist() == list(TABLE_POINTS)
    assert cdf_points_for(4).tolist() == [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]
    with pytest.raises(ValueError):
        cdf_points_for(1)


def test_kde_quadrature_pipeline_end_to_end():
    rng = np.random.default_rng(11)
    data = 0.5 + 0.05 * rng.standard_normal(200)
    kde = fit_kde(data)
    samples, weights = quadrature_rule(kde, TABLE_POINTS)
    # expectation of xi under the rule tracks the sample mean
    assert expectation(weights, samples) == pytest.approx(float(data.mean()), abs=0.01)


def scipy_backed_qagse(f, a, b, args, full_output, epsabs, epsrel, limit):
    """_qagse's signature on scipy.integrate.quad (which only warns on
    failure), pinning the order and values of the options the rule passes."""
    assert (args, full_output, epsabs, epsrel, limit) == ((), 0, 1e-13, 1e-11, 200)
    result, abserr = integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-11, limit=200)
    return result, abserr, 0


@pytest.mark.parametrize(
    "dist",
    [gaussian(0.5, 0.05), fit_kde([0.1, 0.4, 0.45, 0.9, 1.3])],
    ids=["gaussian", "kde"],
)
def test_rule_is_bitwise_the_rule_scipy_quad_gives(dist, monkeypatch):
    samples, weights = quadrature_rule(dist, TABLE_POINTS)
    monkeypatch.setattr(uncertainty, "_qagse", scipy_backed_qagse)
    oracle_samples, oracle_weights = quadrature_rule(dist, TABLE_POINTS)
    assert samples.tobytes() == oracle_samples.tobytes()
    assert weights.tobytes() == oracle_weights.tobytes()


@settings(max_examples=20, deadline=None)
@given(
    mu=st.floats(-10.0, 10.0),
    sigma=st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
    points=st.integers(2, 17).map(lambda m: tuple(cdf_points_for(m).tolist())),
)
@example(mu=0.5, sigma=0.05, points=(0.0, 0.5, 1.0))
@example(mu=0.5, sigma=0.05, points=TABLE_POINTS)
def test_gaussian_rule_is_bitwise_the_reference_gaussians(mu, sigma, points):
    samples, weights = quadrature_rule(gaussian(mu, sigma), points)
    oracle_samples, oracle_weights = quadrature_rule(ReferenceGaussian(mu, sigma), points)
    assert [x.hex() for x in samples.tolist()] == [x.hex() for x in oracle_samples.tolist()]
    assert [w.hex() for w in weights.tolist()] == [w.hex() for w in oracle_weights.tolist()]


@settings(max_examples=30, deadline=None)
@given(
    dist=st.one_of(
        st.builds(gaussian, st.floats(-10.0, 10.0), st.floats(-3.0, 1.0).map(lambda e: 10.0**e)),
        # data 0.01 apart at least, so the fit never sees zero or underflowing spread
        st.lists(st.integers(-1000, 1000), min_size=2, max_size=8, unique=True).map(
            lambda ints: fit_kde([i / 100 for i in ints])
        ),
    ),
    p=st.floats(0.0, 1.0),
)
@example(dist=gaussian(0.5, 0.05), p=0.0)
@example(dist=gaussian(0.5, 0.05), p=1.0)
def test_single_point_rule_weighs_exactly_one(dist, p):
    # the general rule: the two terminal flats over their own sum
    _, weights = quadrature_rule(dist, [p])
    assert [w.hex() for w in weights.tolist()] == [(1.0).hex()]


def test_kde_rule_weights_are_pinned():
    # the normaliser sums its components with math.fsum, so these bits hold
    # on every Python version
    _, weights = quadrature_rule(fit_kde([0.28, 0.52, 1.05, 1.66, 1.72]), cdf_points_for(5))
    assert [w.hex() for w in weights.tolist()] == [
        "0x1.e547b1a5bf067p-5",
        "0x1.5c5c60ccabec6p-2",
        "0x1.9b0a5639ef2a5p-3",
        "0x1.5be225cd83d5cp-2",
        "0x1.ec9ac0a1063fbp-5",
    ]


def test_quadpack_failure_is_an_error_naming_interval_and_code():
    with pytest.raises(ValueError) as err:
        quadrature_rule(PoleDensity(), [0.0, 0.5, 1.0])
    assert str(err.value) == (
        "cannot integrate the density over [0.0, 0.5]: "
        "the density is too irregular at some point (QUADPACK ier=3)"
    )
    with pytest.raises(ValueError, match=r"over \[0.25, 0.5\].*ier=3"):
        basis_weights([0.25, 0.5], PoleDensity())


# scipy reports a nonzero ier only through the message that replaces it
SCIPY_MESSAGES = {
    1: "The maximum number of subdivisions",
    3: "Extremely bad integrand behavior",
    5: "The integral is probably divergent",
}
SMOOTH = gaussian(0.5, 0.05)


@pytest.mark.parametrize(
    "f, a, b, ier",
    [
        (lambda x: (0.5 - x) / 0.05 * SMOOTH.pdf(x), 0.45, 0.5, 0),
        (lambda x: 1.0 / x, 0.0, 1.0, 1),
        (lambda x: 1.0 / abs(x - 1.0 / 3.0), 0.0, 1.0, 3),
        (lambda x: math.sin(1e4 * x), 0.0, 1.0, 5),
        # the terminal flat of CDF point 0: [lo, lo] at the support's low end
        (SMOOTH.pdf, 0.25, 0.25, 0),
    ],
    ids=["smooth", "divergent", "pole", "fast-sine", "zero-length"],
)
def test_integral_is_scipy_quad_or_the_failure_scipy_reports(f, a, b, ier):
    value, _, _, *message = integrate.quad(f, a, b, **uncertainty._QUAD_OPTS, full_output=1)
    if ier == 0:
        assert message == []
        assert uncertainty._integral(f, a, b).hex() == value.hex()
        assert a < b or value.hex() == "0x0.0p+0"
        return
    assert message[0].startswith(SCIPY_MESSAGES[ier])
    want = f"{uncertainty._QUAD_FAILURES[ier]} (QUADPACK ier={ier})"
    with pytest.raises(ValueError, match=re.escape(want)):
        uncertainty._integral(f, a, b)
