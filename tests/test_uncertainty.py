import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from pfsensor import uncertainty
from pfsensor.uncertainty import (
    DistributionFitError,
    Gaussian,
    QuadratureRule,
    basis_weights,
    cdf_points_for,
    expectation,
    fit_kde,
    icdf_samples,
    quadrature_rule,
)

from oracles import PoleDensity

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
    with pytest.raises(DistributionFitError):
        fit_kde([2.0, 2.0, 2.0])
    with pytest.raises(DistributionFitError):
        fit_kde([0.0, np.nan])


def test_gaussian_normalized_over_support():
    dist = Gaussian(0.5, 0.05)
    lo, hi = dist.support
    total, _ = integrate.quad(dist.pdf, lo, hi, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "dist",
    [Gaussian(0.5, 0.05), Gaussian(-3.0, 2.0), fit_kde([0.1, 0.4, 0.45, 0.9, 1.3])],
    ids=["gaussian", "gaussian-wide", "kde"],
)
def test_float_pdf_is_positive_on_support_and_zero_outside(dist):
    # quad calls pdf once per point with a Python float
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
        Gaussian(0.0, 0.0)


def test_icdf_median_of_symmetric_distribution():
    dist = Gaussian(0.5, 0.05)
    (median,) = icdf_samples(dist, [0.5])
    assert median == pytest.approx(0.5, abs=1e-9)


def test_icdf_endpoints_map_to_support():
    dist = Gaussian(0.5, 0.05)
    lo, hi = dist.support
    samples = icdf_samples(dist, [0.0, 1.0])
    assert samples[0] == lo and samples[1] == hi


def test_icdf_standard_normal_quantile():
    # Phi^-1(0.9) = 1.2815515655; x = 0.5 + 0.05 * Phi^-1(0.9)
    dist = Gaussian(0.5, 0.05)
    (x,) = icdf_samples(dist, [0.9])
    assert x == pytest.approx(0.56407757, abs=1e-5)


def test_icdf_monotone():
    dist = Gaussian(0.0, 1.0)
    pts = [0.05, 0.2, 0.5, 0.77, 0.95]
    samples = icdf_samples(dist, pts)
    assert np.all(np.diff(samples) > 0.0)


def test_icdf_rejects_invalid_points():
    dist = Gaussian(0.0, 1.0)
    with pytest.raises(ValueError):
        icdf_samples(dist, [0.2, 0.2, 0.5])
    with pytest.raises(ValueError):
        icdf_samples(dist, [-0.1, 0.5])
    with pytest.raises(ValueError):
        icdf_samples(dist, [0.5, 1.2])


def test_two_endpoint_samples_split_symmetric_mass_evenly():
    dist = Gaussian(0.5, 0.05)
    lo, hi = dist.support
    theta = basis_weights([lo, hi], dist)
    assert theta == pytest.approx([0.5, 0.5], abs=1e-8)


def test_basis_weights_reject_outside_support():
    dist = Gaussian(0.5, 0.05)
    lo, hi = dist.support
    with pytest.raises(ValueError):
        basis_weights([lo - 1.0, hi], dist)


def test_partition_of_unity_on_dense_grid():
    dist = Gaussian(0.5, 0.05)
    rule = quadrature_rule(dist, TABLE_POINTS)
    hats = hat_functions(rule.samples, dist.support)
    xs = np.linspace(*dist.support, 1501)
    assert np.allclose(hats(xs).sum(axis=0), 1.0, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 6))
def test_basis_weights_positive_and_normalized(seed, m):
    dist = Gaussian(0.0, 1.0)
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
    rule = quadrature_rule(Gaussian(0.5, 0.05), TABLE_POINTS)
    assert expectation(rule, rule.samples) == pytest.approx(0.499, abs=0.01)
    assert expectation(rule, rule.samples**2) == pytest.approx(0.259, abs=0.01)
    assert expectation(rule, np.exp(rule.samples)) == pytest.approx(1.656, abs=0.01)


def test_expectation_of_constant_is_exact():
    rule = quadrature_rule(Gaussian(0.5, 0.05), (0.0, 0.5, 1.0))
    assert expectation(rule, np.full(3, 4.2)) == pytest.approx(4.2, rel=1e-12)


def test_expectation_count_mismatch():
    rule = quadrature_rule(Gaussian(0.5, 0.05), (0.0, 0.5, 1.0))
    with pytest.raises(ValueError):
        expectation(rule, [1.0, 2.0])


def test_quadrature_error_decreases_with_sample_count():
    # smooth convex integrand: hat interpolation error shrinks as nodes fill in
    dist = Gaussian(0.5, 0.05)
    exact = np.exp(0.5 + 0.05**2 / 2.0)
    errors = []
    for m in (3, 5, 7, 9):
        rule = quadrature_rule(dist, cdf_points_for(m))
        errors.append(abs(expectation(rule, np.exp(rule.samples)) - exact))
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_quadrature_rule_validates():
    with pytest.raises(ValueError):
        QuadratureRule(
            samples=np.array([0.0, 0.0]),
            weights=np.array([0.5, 0.5]),
        )
    with pytest.raises(ValueError):
        QuadratureRule(
            samples=np.array([0.0, 1.0]),
            weights=np.array([0.9, 0.3]),
        )


def test_cdf_points_for_counts():
    assert cdf_points_for(7).tolist() == list(TABLE_POINTS)
    assert cdf_points_for(4).tolist() == [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]
    with pytest.raises(ValueError):
        cdf_points_for(1)


def test_kde_quadrature_pipeline_end_to_end():
    rng = np.random.default_rng(11)
    data = 0.5 + 0.05 * rng.standard_normal(200)
    kde = fit_kde(data)
    rule = quadrature_rule(kde, TABLE_POINTS)
    # expectation of xi under the rule tracks the sample mean
    assert expectation(rule, rule.samples) == pytest.approx(float(data.mean()), abs=0.01)


def scipy_backed_quad(f, a, b, epsabs, epsrel, limit):
    """quadpack.quad's signature on scipy's dqagse (which only warns on failure)."""
    result, abserr = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)
    return result, abserr, 0


@pytest.mark.parametrize(
    "dist",
    [Gaussian(0.5, 0.05), fit_kde([0.1, 0.4, 0.45, 0.9, 1.3])],
    ids=["gaussian", "kde"],
)
def test_rule_is_bitwise_the_rule_scipy_quad_gives(dist, monkeypatch):
    rule = quadrature_rule(dist, TABLE_POINTS)
    monkeypatch.setattr(uncertainty, "quad", scipy_backed_quad)
    oracle = quadrature_rule(dist, TABLE_POINTS)
    assert rule.samples.tobytes() == oracle.samples.tobytes()
    assert rule.weights.tobytes() == oracle.weights.tobytes()


def test_quadpack_failure_is_an_error_naming_interval_and_code():
    with pytest.raises(ValueError) as err:
        quadrature_rule(PoleDensity(), [0.0, 0.5, 1.0])
    assert str(err.value) == (
        "cannot integrate the density over [0.0, 0.5]: "
        "the density is too irregular at some point (QUADPACK ier=3)"
    )
    with pytest.raises(ValueError, match=r"over \[0.25, 0.5\].*ier=3"):
        basis_weights([0.25, 0.5], PoleDensity())
