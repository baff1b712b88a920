import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from levykit import subexp as sx
from levykit.diffusions import bessel_spec, brownian_spec, \
    spec_from_expressions
from levykit.errors import (DomainError, IntegrabilityError, RangeError)


# ---------------------------------------------------------------------------
# tail objects
# ---------------------------------------------------------------------------

def test_pareto_tail_values():
    P = sx.pareto_tail(0.5)
    assert P.value(0.5) == 1.0
    assert math.isclose(float(P.value(4.0)), 0.5)
    assert P.x_max == math.inf


def test_exponential_tail_values():
    E = sx.exponential_tail(2.0)
    assert math.isclose(float(E.value(1.0)), math.exp(-2.0))
    assert float(E.value(-3.0)) == 1.0


def test_table_tail_validation():
    with pytest.raises(DomainError):
        sx.TailDistribution([1, 2, 3], [0.5, 0.6, 0.1])  # not monotone
    with pytest.raises(DomainError):
        sx.TailDistribution([1, 2], [0.5, 0.4])  # too short
    grid = np.linspace(1, 10, 40)
    with pytest.raises(DomainError):
        sx.TailDistribution(grid, np.linspace(1.2, 0.1, 40))  # > 1
    with pytest.raises(DomainError):
        sx.TailDistribution(grid, np.full(40, math.nan))  # not finite


def test_table_tail_range_guard():
    grid = np.linspace(0.5, 20, 64)
    F = sx.TailDistribution(grid, np.exp(-grid))
    assert math.isclose(float(F.value(3.0)), math.exp(-3.0), rel_tol=1e-3)
    with pytest.raises(RangeError):
        F.value(25.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda v: sx.pareto_tail(v),
    lambda v: sx.pareto_tail(1.0, scale=v),
    lambda v: sx.exponential_tail(v),
    lambda v: sx.scaled_tail(sx.pareto_tail(1.0), v),
    lambda v: sx.tauberian_ratio(lambda g: 1.0, lambda g: 1.0,
                                 lambda g: 1.0, v),
], ids=["pareto", "pareto_scale", "exponential", "scaled", "tauberian"])
def test_non_finite_parameters_are_domain_errors(call, value):
    # a NaN passed every sign check and built a table of NaNs; an infinite
    # rate gave a zero tail, an infinite scale a divide warning
    with pytest.raises(DomainError, match="finite"):
        call(value)


def test_scaled_tail_clips_at_one():
    P = sx.pareto_tail(0.5)
    G = sx.scaled_tail(P, 3.0)
    assert float(G.value(1.0)) == 1.0          # 3 * 1 clipped
    assert math.isclose(float(G.value(100.0)), 0.3)


def test_tail_from_samples_frozen():
    rng = np.random.default_rng(0)
    samples = rng.exponential(size=200_000)
    # the empirical survival function on a fixed grid
    grid = np.geomspace(1e-3, 10, 600)
    s = np.sort(samples)
    F = sx.TailDistribution(
        grid=grid, tail=1.0 - np.searchsorted(s, grid, side="right") / s.size)
    r = sx.subexp_ratio(F, 5.0)
    assert r == 6.069354638760227  # deterministic given the seed
    assert abs(r - 6.0) < 0.2      # empirical estimate of the exact 1 + x


# ---------------------------------------------------------------------------
# convolution tail
# ---------------------------------------------------------------------------

def test_conv_tail_exponential_closed_form():
    E = sx.exponential_tail(1.0)
    got = sx.conv_tail(E, E, 2.0)
    assert got == 0.40600584970976417  # frozen; equals 3 e^{-2}
    assert abs(got - 3 * math.exp(-2.0)) < 1e-12


def test_conv_tail_error_estimate_brackets_truth():
    E = sx.exponential_tail(1.0)
    for x in (2.0, 5.0, 20.0):
        val, err = sx.conv_tail(E, E, x, with_error=True)
        truth = (1.0 + x) * math.exp(-x)
        assert abs(val - truth) <= max(err, 1e-12)


_RATES = st.floats(0.25, 4.0)


@settings(max_examples=300, deadline=None)
@given(a=_RATES, b=st.one_of(st.none(), _RATES), x=st.floats(0.05, 30.0))
def test_conv_tail_error_brackets_two_exponentials(a, b, x):
    # Exp(a) + Exp(b) has tail (b e^{-ax} - a e^{-bx}) / (b - a), written
    # with expm1 so that it stays exact as b -> a, where it is (1 + ax) e^{-ax}
    b = a if b is None else b
    d = b - a
    ratio = x if d == 0.0 else -math.expm1(-d * x) / d
    exact = math.exp(-a * x) * (1.0 + a * ratio)
    val, err = sx.conv_tail(sx.exponential_tail(a), sx.exponential_tail(b),
                            x, with_error=True)
    assert abs(val - exact) <= err + 8 * np.finfo(float).eps * abs(exact)


def test_conv_tail_structural_bounds():
    P = sx.pareto_tail(0.5)
    E = sx.exponential_tail(1.0)
    for F, G, x in ((P, P, 7.0), (P, E, 3.0), (E, E, 1.0)):
        v = sx.conv_tail(F, G, x)
        assert max(float(F.value(x)), float(G.value(x))) <= v <= 1.0
    assert sx.conv_tail(P, P, 0.0) == 1.0


def test_conv_tail_error_counts_the_clip():
    # on a coarse table the Richardson step overshoots 1 at x = 2.2; the
    # value is clipped to 1 and the error covers the unclipped sum too
    F = sx.TailDistribution([1.6, 2.0, 2.2, 6.0, 7.0, 8.0, 9.5, 9.75],
                            [0.99, 0.9, 0.56, 0.56, 0.49, 0.25, 0.25, 0.19])
    x = 2.2
    half, half_err = sx._half_stieltjes(F, F, x)
    raw = float(F.value(x / 2)) ** 2 + half + half
    val, err = sx.conv_tail(F, F, x, with_error=True)
    assert raw > 1.0 + 1e-5 and val == 1.0
    assert err == half_err + half_err + (raw - 1.0)


def test_subexp_ratio_pareto_frozen():
    P = sx.pareto_tail(0.5)
    assert sx.subexp_ratio(P, 1e4) == 1.9998999974998815
    assert abs(sx.subexp_ratio(P, 1e4) - 2.0) < 1e-3


def test_subexp_ratio_exponential_negative_control():
    E = sx.exponential_tail(1.0)
    # exact ratio is 1 + x: light tails fail the doubling law
    assert abs(sx.subexp_ratio(E, 5.0) - 6.0) < 1e-6
    r20 = sx.subexp_ratio(E, 20.0)
    assert r20 == 20.999999945342427
    assert r20 > 10.0


def test_subexp_ratio_vanishing_tail_raises():
    E = sx.exponential_tail(1.0)
    with pytest.raises(RangeError):
        sx.subexp_ratio(E, 800.0)


def test_mixed_ratio_scaled_pareto_frozen():
    P = sx.pareto_tail(0.5)
    G = sx.scaled_tail(P, 3.0)
    r = sx.mixed_ratio(P, G, 1e4)
    assert r == 0.9998499737185701
    assert abs(r - 1.0) < 5e-3


def test_mixed_ratio_with_hitting_tail():
    bm = brownian_spec()
    H = sx.hitting_tail_distribution(bm, 1.0)
    P = sx.pareto_tail(0.5)
    r = sx.mixed_ratio(P, H, 1e4)
    assert abs(r - 0.9999500008801683) < 1e-12


# ---------------------------------------------------------------------------
# hitting-time tails as distributions
# ---------------------------------------------------------------------------

def test_hitting_tail_distribution_preset_analytic():
    bm = brownian_spec()
    H = sx.hitting_tail_distribution(bm, 1.0)
    assert abs(float(H.value(1.0)) - 0.682689492137087) < 1e-12
    assert H.x_max == math.inf
    b15 = bessel_spec(1.5)
    H15 = sx.hitting_tail_distribution(b15, 1.0)
    ts = np.array([0.5, 1, 5, 50.0])
    vals = np.array([float(H15.value(t)) for t in ts])
    assert np.all(np.diff(vals) < 0)


def test_hitting_tail_distribution_custom_tabulated():
    from levykit import spectral as sp
    custom = spec_from_expressions("x", "2")
    H = sx.hitting_tail_distribution(custom, 1.0,
                                     grid=np.geomspace(2.0, 50, 16),
                                     measure=sp.bessel_killed_measure(0.5))
    assert abs(float(H.value(2.0)) - erf(0.5)) < 1e-6  # P_1(H0 > 2)
    with pytest.raises(RangeError):
        H.value(60.0)


# ---------------------------------------------------------------------------
# Laplace-quotient comparator
# ---------------------------------------------------------------------------

def test_tauberian_ratio_frozen():
    r = sx.tauberian_ratio(lambda g: np.exp(-g), lambda g: 1.0 + g,
                           lambda g: np.ones_like(g), 100.0)
    assert abs(r - 1.0099009900990097) < 1e-12
    assert abs(r - (1.0 + 1.0 / 101.0)) < 1e-12


def test_tauberian_ratio_identical_weights_is_one():
    r = sx.tauberian_ratio(lambda g: np.exp(-g), lambda g: 2.0 + g,
                           lambda g: 2.0 + g, 7.0)
    assert r == 1.0


def test_tauberian_ratio_bad_denominator():
    with pytest.raises(IntegrabilityError):
        sx.tauberian_ratio(lambda g: np.exp(-g), lambda g: 1.0 + g,
                           lambda g: np.zeros_like(g), 5.0)
