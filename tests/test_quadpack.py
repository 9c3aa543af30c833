"""The QUADPACK port against scipy.integrate.quad as a bitwise oracle.

Both run the same dqagse, so the result, the error estimate, the number of
subintervals and the failure code must agree exactly, not to a tolerance.
The subinterval count is read from the port's function evaluations: dqagse
makes 21 per rule and two rules per bisection, 42 * last - 21 in all.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from pfsensor.quadpack import quad
from pfsensor.uncertainty import _QUAD_OPTS, Gaussian, fit_kde

# tier-1 runs 60 examples; `pytest --hypothesis-profile=ci` (tests/conftest.py) ten times as many
QUAD_ORACLE = settings(
    max_examples=600 if settings.get_current_profile_name() == "ci" else 60,
    deadline=None,
)

# scipy reports a nonzero ier only through the message that replaces it
SCIPY_IER = {
    "The maximum number of subdivisions": 1,
    "The occurrence of roundoff error": 2,
    "Extremely bad integrand behavior": 3,
    "The algorithm does not converge": 4,
    "The integral is probably divergent": 5,
}


def scipy_quad(f, a, b, epsabs, epsrel, limit):
    """(result, abserr, neval, last, ier) from scipy's dqagse, the floats
    as hex."""
    result, abserr, info, *message = integrate.quad(
        f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1
    )
    ier = 0
    if message:
        ier = next(code for text, code in SCIPY_IER.items() if message[0].startswith(text))
    return result.hex(), abserr.hex(), info["neval"], info["last"], ier


def assert_bitwise(f, a, b, epsabs=_QUAD_OPTS["epsabs"], epsrel=_QUAD_OPTS["epsrel"], limit=200):
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return f(x)

    result, abserr, ier = quad(counted, a, b, epsabs, epsrel, limit)
    last, rest = divmod(calls + 21, 42)
    assert rest == 0
    got = (result.hex(), abserr.hex(), calls, last, ier)
    assert got == scipy_quad(f, a, b, epsabs, epsrel, limit)
    return ier, last


def hat_pieces(dist, a, b):
    """The integrands basis_weights hands to quad on one node interval."""
    width = b - a
    return [
        dist.pdf,
        lambda x: (b - x) / width * dist.pdf(x),
        lambda x: (x - a) / width * dist.pdf(x),
    ]


def interval(dist, u, v):
    lo, hi = dist.support
    a, b = sorted((lo + u * (hi - lo), lo + v * (hi - lo)))
    return a, b


FRACTIONS = st.floats(0.0, 1.0)


@QUAD_ORACLE
@given(
    mu=st.floats(-10.0, 10.0),
    log_sigma=st.floats(-4.0, 2.0),
    u=FRACTIONS,
    v=FRACTIONS,
)
def test_gaussian_pieces_match_scipy_bitwise(mu, log_sigma, u, v):
    dist = Gaussian(mu, 10.0**log_sigma)
    a, b = interval(dist, u, v)
    if b > a:
        for f in hat_pieces(dist, a, b):
            assert_bitwise(f, a, b)


@QUAD_ORACLE
@given(
    data=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=30).filter(
        lambda d: max(d) - min(d) > 1e-3
    ),
    u=FRACTIONS,
    v=FRACTIONS,
)
def test_kde_pieces_match_scipy_bitwise(data, u, v):
    dist = fit_kde(data)
    a, b = interval(dist, u, v)
    if b > a:
        for f in hat_pieces(dist, a, b):
            assert_bitwise(f, a, b)


HARD = {
    "inverse-sqrt": (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0),
    "log": (math.log, 0.0, 1.0),
    "cusp": (lambda x: abs(x - 0.3) ** 0.2, 0.0, 1.0),
    "oscillating": (lambda x: math.sin(50.0 * x) ** 2, 0.0, 1.0),
    "lorentzian": (lambda x: 1e-4 / ((x - 0.37) ** 2 + 1e-8), 0.0, 1.0),
    "two-cusps": (lambda x: abs(x - 0.3) ** -0.5 + abs(x - 0.71) ** -0.4, 0.0, 1.0),
    "damped-cosine": (lambda x: math.cos(200.0 * x) * math.exp(-x), 0.0, 3.0),
    "cosine-over-sqrt": (lambda x: math.cos(1e3 * x) / math.sqrt(x), 0.0, 1.0),
    "odd-pole": (lambda x: 1.0 / (x - 0.5) if x != 0.5 else 0.0, 0.0, 1.0),
    "pole": (lambda x: 1.0 / abs(x - 1.0 / 3.0), 0.0, 1.0),
    "divergent": (lambda x: 1.0 / x, 0.0, 1.0),
    "log-squared-pole": (lambda x: 1.0 / (x * math.log(x) ** 2), 0.0, 0.5),
    "fast-sine": (lambda x: math.sin(1e4 * x), 0.0, 1.0),
}
# (epsabs, epsrel): the quadrature rule's, scipy's default, and purely relative
TOLERANCES = [(_QUAD_OPTS["epsabs"], _QUAD_OPTS["epsrel"]), (1.49e-8, 1.49e-8), (0.0, 1e-13)]


@pytest.mark.parametrize("limit", [1, 2, 3, 10, 200])
@pytest.mark.parametrize("name", HARD)
def test_hard_integrands_match_scipy_bitwise(name, limit):
    f, a, b = HARD[name]
    for epsabs, epsrel in TOLERANCES:
        assert_bitwise(f, a, b, epsabs, epsrel, limit)


@QUAD_ORACLE
@given(
    c=st.floats(0.0, 1.0),
    power=st.floats(-0.95, 0.5),
    wavenumber=st.floats(0.0, 2e3),
    tolerances=st.sampled_from(TOLERANCES),
    limit=st.integers(1, 200),
)
def test_cusps_times_waves_match_scipy_bitwise(c, power, wavenumber, tolerances, limit):
    def f(x):
        return abs(x - c) ** power * math.cos(wavenumber * x) if x != c else 0.0

    assert_bitwise(f, 0.0, 1.0, *tolerances, limit=limit)


def test_hard_integrands_reach_extrapolation_and_every_failure_code():
    """(ier, subintervals) of the cases above: between them they run the
    epsilon extrapolation (converging, cut short and dropping its oldest
    entries at 50), the reordering of the error list, the roundoff counters
    and each exit of dqagse."""
    default, _, relative = TOLERANCES
    outcome = {
        name: assert_bitwise(f, a, b, *default) for name, (f, a, b) in HARD.items()
    }
    assert outcome["inverse-sqrt"] == outcome["log"] == (0, 6)
    assert outcome["cusp"] == (0, 9)
    assert outcome["two-cusps"] == (0, 73)
    assert outcome["odd-pole"] == (0, 1)
    assert outcome["divergent"] == outcome["log-squared-pole"] == (1, 200)
    assert outcome["pole"] == (3, 48)
    assert outcome["fast-sine"] == (5, 200)
    assert assert_bitwise(*HARD["oscillating"], *default, limit=3) == (1, 3)
    assert assert_bitwise(*HARD["odd-pole"], *relative) == (2, 1)
    assert assert_bitwise(*HARD["damped-cosine"], *relative) == (2, 129)
    assert assert_bitwise(*HARD["cosine-over-sqrt"], *relative) == (2, 141)
    assert assert_bitwise(*HARD["two-cusps"], *relative) == (4, 121)


def test_invalid_tolerances_or_limit_return_ier_6():
    assert quad(math.exp, 0.0, 1.0, 0.0, 1e-20, 50) == (0.0, 0.0, 6)
    assert quad(math.exp, 0.0, 1.0, 1e-10, 1e-10, 0) == (0.0, 0.0, 6)
