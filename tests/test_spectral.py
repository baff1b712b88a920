import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline, PchipInterpolator
from scipy.special import erf, gammainc, gammaln, jv
from scipy.special import gamma as gamma_fn

from levykit import spectral as sp
from levykit.diffusions import bessel_exponent_constant, bessel_spec, \
    brownian_spec, spec_from_expressions
from levykit.errors import DomainError, IntegrabilityError, LevykitError, \
    ToleranceError, TruncationError, UnsupportedSpecError

BM = brownian_spec()
B15 = bessel_spec(1.5)
M_FULL_BM = sp.bessel_principal_measure(0.5)
M_KILL_BM = sp.bessel_killed_measure(0.5)
M_KILL_B15 = sp.bessel_killed_measure(0.25)


# ---------------------------------------------------------------------------
# frozen closed-form values (independent derivations, fixed once)
# ---------------------------------------------------------------------------

def test_brownian_transition_density_frozen():
    # reflected BM density wrt speed: (phi_t(x-y) + phi_t(x+y)) / 2
    got = sp.transition_density(BM, 0.5, 0.7, 1.0)
    assert abs(got - 0.2926143744793346) < 1e-9


def test_brownian_killed_density_frozen():
    got = sp.transition_density(BM, 0.5, 0.7, 1.0, killed=True)
    assert abs(got - 0.09842831949612159) < 1e-9


def test_brownian_density_from_boundary_frozen():
    got = sp.transition_density(BM, 0.0, 0.7, 1.0)
    assert abs(got - 0.31225393336676127) < 1e-9


def test_brownian_hitting_density_frozen():
    # x e^{-x^2/2t} / sqrt(2 pi t^3) at x = t = 1
    got = sp.hitting_density(BM, 1.0, 1.0)
    assert abs(got - math.exp(-0.5) / math.sqrt(2 * math.pi)) < 1e-12


def test_brownian_levy_density_frozen():
    assert abs(sp.levy_density(BM, 1.0) - 1 / math.sqrt(2 * math.pi)) < 1e-12


def test_brownian_hitting_tail_is_gaussian_band():
    got = sp.hitting_tail(BM, 1.0, 1.0)
    assert abs(got - 0.682689492137087) < 1e-12


def test_bessel_levy_tail_frozen_values():
    assert abs(sp.levy_tail(B15, 2.0) - 0.39006225108940673) < 1e-12
    assert abs(sp.levy_tail(B15, 10.0) - 0.2608503487533196) < 1e-12
    assert abs(sp.levy_tail(B15, 1e4) - 0.04638648042895005) < 1e-12


def test_bessel_levy_density_frozen():
    assert abs(sp.levy_density(B15, 2.0) - 0.04875778138617584) < 1e-12


def test_bessel_hitting_density_frozen():
    assert abs(sp.hitting_density(B15, 1.0, 2.0)
               - 0.07594519664875624) < 1e-12


def test_bessel_boundary_diagonal_frozen():
    assert abs(sp.transition_density(B15, 0.0, 0.0, 2.0)
               - 0.2885168693082349) < 1e-12


# ---------------------------------------------------------------------------
# quadrature route against the closed forms
# ---------------------------------------------------------------------------

def test_quadrature_matches_closed_transition():
    got = sp.transition_density(BM, 0.5, 0.7, 1.0, measure=M_FULL_BM)
    assert abs(got - 0.2926143744793346) < 1e-8


def test_quadrature_reports_honest_error():
    val, err = sp.transition_density(BM, 0.5, 0.7, 1.0, measure=M_FULL_BM,
                                     with_error=True)
    assert abs(val - 0.2926143744793346) <= max(err, 1e-8)
    assert 0 <= err < 1e-6


def test_quadrature_killed_and_hitting():
    got = sp.transition_density(BM, 0.5, 0.7, 1.0, killed=True,
                                measure=M_KILL_BM)
    assert abs(got - 0.09842831949612159) < 1e-8
    got = sp.hitting_density(BM, 1.0, 1.0, measure=M_KILL_BM)
    assert abs(got - 0.24197072451914337) < 1e-8


def test_quadrature_bessel_routes():
    for t in (0.5, 2.0):
        assert abs(sp.levy_tail(B15, t, measure=M_KILL_B15)
                   - B15.oracles.levy_tail(t)) < 1e-9
        assert abs(sp.hitting_density(B15, 1.0, t, measure=M_KILL_B15)
                   - B15.oracles.hitting_density(1.0, t)) < 1e-9


def test_generic_route_custom_brownian():
    # fully generic path: series eigenfunctions + explicit measure
    custom = spec_from_expressions("x", "2")
    got = sp.hitting_tail(custom, 1.0, 2.0, measure=M_KILL_BM)
    assert abs(got - erf(0.5)) < 1e-9


def test_generic_route_custom_bessel_density():
    custom = spec_from_expressions("x^0.5/0.5", "2*x^0.5")
    got = sp.hitting_density(custom, 1.0, 2.0, measure=M_KILL_B15)
    assert abs(got - 0.07594519664875624) < 1e-8


def test_table_measure_with_series_eigenfunctions():
    # the Gauss-cell branch of a table measure evaluates the series
    # eigenfunctions on a 2-d node array
    custom = spec_from_expressions("x", "2")
    g = np.geomspace(1e-14, 20.0, 400)
    tab = sp.measure_from_table(g, M_KILL_BM.density(g), kind="killed")
    got = sp.hitting_tail(custom, 1.0, 2.0, measure=tab)
    assert abs(got - erf(0.5)) < 1e-6


def test_small_t_points_certified():
    # a gamma^{-3/4} principal density (bessel:0.5) and a t = 0.01 killed
    # density, both integrated against an explicit measure
    b05 = bessel_spec(0.5)
    got = sp.transition_density(b05, 0.6, 1.35, 0.0566,
                                measure=sp.bessel_principal_measure(0.75))
    assert abs(got - b05.oracles.transition_density(0.0566, 0.6, 1.35)) \
        < 1e-12
    x, y = 0.7046417640953688, 1.4913218816773697
    got = sp.transition_density(B15, x, y, 0.01, killed=True,
                                measure=M_KILL_B15)
    assert abs(got - B15.oracles.killed_density(0.01, x, y)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(delta=st.sampled_from([1.0, 1.5, 0.5]),
       t=st.floats(math.log(0.01), math.log(1e3)).map(math.exp),
       x=st.floats(0.3, 3.0), y=st.floats(0.3, 3.0),
       explicit=st.booleans())
def test_reported_error_brackets_oracle(delta, t, x, y, explicit):
    spec = bessel_spec(delta)
    a, o = spec.alpha, spec.oracles
    principal = sp.bessel_principal_measure(a) if explicit else None
    killed = sp.bessel_killed_measure(a) if explicit else None
    cases = (
        (sp.transition_density(spec, x, y, t, measure=principal,
                               with_error=True),
         o.transition_density(t, x, y)),
        (sp.transition_density(spec, x, y, t, killed=True, measure=killed,
                               with_error=True),
         o.killed_density(t, x, y)),
        (sp.hitting_density(spec, x, t, measure=killed, with_error=True),
         o.hitting_density(x, t)),
        # H_0 = x^2 / (2 G) with G ~ Gamma(alpha, 1)
        (sp.hitting_tail(spec, x, t, measure=killed, with_error=True),
         gammainc(a, x * x / (2.0 * t))),
        (sp.levy_density(spec, t, measure=killed, with_error=True),
         o.levy_density(t)),
        (sp.levy_tail(spec, t, measure=killed, with_error=True),
         o.levy_tail(t)),
    )
    eps = np.finfo(float).eps
    for (val, err), oracle in cases:
        oracle = float(oracle)
        assert abs(val - oracle) <= err + 8 * eps * abs(oracle), \
            (val, err, oracle)


def test_table_gauss_rules_match_numpy():
    for n, (nodes, weights) in sp._GAUSS_LEGENDRE.items():
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(weights, ref_weights)


def test_custom_without_measure_is_rejected():
    custom = spec_from_expressions("x", "2")
    with pytest.raises(UnsupportedSpecError):
        sp.hitting_tail(custom, 1.0, 2.0)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_transition_symmetry():
    for spec in (BM, B15):
        a = sp.transition_density(spec, 0.4, 1.1, 0.8)
        b = sp.transition_density(spec, 1.1, 0.4, 0.8)
        assert math.isclose(a, b, rel_tol=1e-12)


def test_killed_below_full():
    for spec in (BM, B15):
        for (x, y, t) in ((0.3, 0.6, 0.5), (1.0, 1.0, 2.0)):
            full = sp.transition_density(spec, x, y, t)
            killed = sp.transition_density(spec, x, y, t, killed=True)
            assert 0.0 <= killed <= full


def test_chapman_kolmogorov_brownian():
    x, y, t = 0.4, 0.9, 0.6
    lhs = sp.transition_density(BM, x, y, 2 * t)

    def integrand(z):
        return sp.transition_density(BM, x, z, t) \
            * sp.transition_density(BM, z, y, t) * 2.0  # m'(z) = 2

    val, _ = quad(integrand, 0.0, 12.0, limit=200)
    assert abs(val - lhs) < 1e-8


def test_hitting_tail_monotone_and_bounded():
    ts = [0.25, 0.5, 1.0, 2.0, 8.0]
    vals = [sp.hitting_tail(B15, 1.0, t) for t in ts]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


PRESET_POINTS = dict(
    delta=st.sampled_from([1.0, 1.5, 0.5]),
    t=st.floats(math.log(0.01), math.log(100.0)).map(math.exp),
    x=st.floats(0.3, 3.0), y=st.floats(0.3, 3.0))
ULPS = 8 * np.finfo(float).eps   # rounding slack, as in the bracket test


@settings(max_examples=20, deadline=None)
@given(**PRESET_POINTS)
def test_transition_symmetry_within_reported_errors(delta, t, x, y):
    spec = bessel_spec(delta)
    for killed in (False, True):
        a, ea = sp.transition_density(spec, x, y, t, killed=killed,
                                      with_error=True)
        b, eb = sp.transition_density(spec, y, x, t, killed=killed,
                                      with_error=True)
        assert abs(a - b) <= ea + eb + ULPS * abs(a), (killed, a, b)


@settings(max_examples=20, deadline=None)
@given(**PRESET_POINTS)
def test_killed_below_full_within_reported_errors(delta, t, x, y):
    spec = bessel_spec(delta)
    p, ep = sp.transition_density(spec, x, y, t, with_error=True)
    q, eq = sp.transition_density(spec, x, y, t, killed=True,
                                  with_error=True)
    assert q <= p + ep + eq + ULPS * abs(p), (q, p)


@settings(max_examples=20, deadline=None)
@given(delta=PRESET_POINTS["delta"], t=PRESET_POINTS["t"],
       x=PRESET_POINTS["x"], later=st.floats(1.0, 4.0))
def test_hitting_tail_in_unit_interval_and_nonincreasing(delta, t, x, later):
    spec = bessel_spec(delta)
    v1, e1 = sp.hitting_tail(spec, x, t, with_error=True)
    v2, e2 = sp.hitting_tail(spec, x, t * later, with_error=True)
    for v, e in ((v1, e1), (v2, e2)):
        assert -e <= v <= 1.0 + e + ULPS, (v, e)
    assert v2 <= v1 + e1 + e2 + ULPS * v1, (v1, v2)


def test_levy_tail_integrates_density():
    t = 1.5
    val, _ = quad(lambda s: sp.levy_density(B15, s), t, np.inf)
    assert abs(val - sp.levy_tail(B15, t)) < 1e-9


def test_total_transition_mass_is_one():
    # int p(t; x, y) m(dy) = 1 (recurrence, reflecting boundary)
    for spec in (BM, B15):
        val, _ = quad(lambda y: sp.transition_density(spec, 0.7, y, 0.9)
                      * spec.speed_density(y), 0.0, 15.0, limit=200)
        assert abs(val - 1.0) < 1e-8


def test_killed_mass_is_survival():
    # int phat(t; x, y) m(dy) = P_x(H_0 > t)
    x, t = 0.8, 0.7
    val, _ = quad(lambda y: sp.transition_density(BM, x, y, t, killed=True)
                  * 2.0, 0.0, 12.0, limit=200)
    assert abs(val - sp.hitting_tail(BM, x, t)) < 1e-8


# ---------------------------------------------------------------------------
# eigenfunction series
# ---------------------------------------------------------------------------

def test_eigenfunctions_at_zero_spectral_parameter():
    for spec in (BM, B15):
        for x in (0.5, 1.0, 2.0):
            assert math.isclose(sp.eigenfunction(spec, x, 0.0, kind="A"),
                                1.0)
            assert math.isclose(sp.eigenfunction(spec, x, 0.0, kind="C"),
                                float(spec.scale(x)))


def test_custom_series_matches_preset_eigenfunction():
    custom = spec_from_expressions("x^0.5/0.5", "2*x^0.5")
    for gamma in (0.5, 7.0, 60.0):
        for kind in ("A", "C"):
            a = sp.eigenfunction(custom, 1.0, gamma, kind=kind, tol=1e-10)
            b = sp.eigenfunction(B15, 1.0, gamma, kind=kind)
            assert abs(a - b) < 1e-8, (gamma, kind)


EPS = float(np.finfo(float).eps)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(0.01, 4.0), gamma=st.floats(0.0, 200.0))
def test_brownian_kernel_is_trigonometric(x, gamma):
    # at alpha = 1/2, A = cos(z) and C = sin(z) / sqrt(2 gamma) with
    # z = x sqrt(2 gamma); rounding z alone moves either by eps z
    s = math.sqrt(2.0 * gamma)
    z = x * s
    ulps = 16.0 * EPS * max(1.0, z)
    assert abs(sp.eigenfunction(BM, x, gamma, "A") - math.cos(z)) <= ulps
    c = math.sin(z) / s if gamma > 0.0 else x
    assert abs(sp.eigenfunction(BM, x, gamma, "C") - c) <= ulps * x


def _jv_eigen(alpha, kind, x, gamma):
    """The Bessel-J forms the 0F1 kernel replaced: with s = sqrt(2 gamma),
    A = Gamma(1-a) 2^-a (xs)^a J_-a(xs), C = Gamma(a) 2^(a-1) x^a s^-a
    J_a(xs)."""
    s = np.sqrt(2.0 * gamma)
    if kind == "A":
        return gamma_fn(1.0 - alpha) * 2.0 ** -alpha * (x * s) ** alpha \
            * jv(-alpha, x * s)
    return gamma_fn(alpha) * 2.0 ** (alpha - 1.0) * x ** alpha \
        * s ** -alpha * jv(alpha, x * s)


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(0.02, 0.98), x=st.floats(0.05, 5.0),
       q=st.one_of(st.floats(1e-12, 1.0), st.floats(1.0, 1e4)))
def test_preset_kernel_matches_bessel_j_forms(alpha, x, q):
    # the two agree to the rounding of the jv route, measured against the
    # envelope max(1, q)^(+-a/2 - 1/4) of A and C / S(x) at q = x^2 g / 2
    spec = bessel_spec(2.0 - 2.0 * alpha)
    a, gamma = spec.alpha, 2.0 * q / (x * x)
    for kind, tol, power in (("A", 1e-11, a / 2.0 - 0.25),
                             ("C", 1e-13, -a / 2.0 - 0.25)):
        front = 1.0 if kind == "A" else float(spec.scale(x))
        got = sp._bessel_eigen(spec, kind, x)(np.array([gamma]))[0]
        want = _jv_eigen(a, kind, x, gamma)
        assert abs(got - want) <= tol * front * max(1.0, q) ** power, kind


@pytest.mark.parametrize("spec", [BM, B15, bessel_spec(0.1),
                                  bessel_spec(1.9)])
def test_preset_kernel_exact_at_zero(spec):
    # q = 0 at gamma = 0 or x = 0: A = 1 and C = S(x), to the bit
    for x in (0.3, 1.0, 2.5):
        assert sp.eigenfunction(spec, x, 0.0, "A") == 1.0
        assert sp.eigenfunction(spec, x, 0.0, "C") == float(spec.scale(x))
    g = np.array([0.0, 1e-3, 1.0, 1e3])
    for gamma in g:
        assert sp.eigenfunction(spec, 0.0, gamma, "A") == 1.0
        assert sp.eigenfunction(spec, 0.0, gamma, "C") == 0.0
    assert sp._bessel_eigen(spec, "A", 0.0)(g).tolist() == [1.0] * 4
    assert sp._bessel_eigen(spec, "C", 0.0)(g).tolist() == [0.0] * 4


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("call", [
    lambda v: sp.transition_density(BM, v, 1.0, 1.0),
    lambda v: sp.transition_density(BM, 1.0, v, 1.0),
    lambda v: sp.transition_density(BM, 1.0, 1.0, v, killed=True),
    lambda v: sp.hitting_density(BM, v, 1.0),
    lambda v: sp.hitting_density(B15, 1.0, v),
    lambda v: sp.levy_density(BM, v),
    lambda v: sp.levy_tail(B15, v),
    lambda v: sp.hitting_tail(BM, v, 1.0),
    lambda v: sp.hitting_tail(BM, 1.0, v),
    lambda v: sp.eigenfunction(BM, v, 1.0),
    lambda v: sp.eigenfunction(B15, 1.0, v, "C"),
    lambda v: sp.eigenfunction(spec_from_expressions("x", "2"), 1.0, v),
])
def test_non_finite_spectral_inputs_are_domain_errors(call, bad):
    # NaN passed the sign checks: a NaN t ran the quadrature into a
    # roundoff ToleranceError, a NaN gamma returned NaN
    with pytest.raises(DomainError, match="finite"):
        call(bad)


def test_truncation_error_carries_minimal_terms():
    series = sp.eigen_coefficients(BM, 1.0, kind="A", n_terms=3)
    with pytest.raises(TruncationError) as err:
        sp.eigen_value(series, 5.0, tol=1e-10)
    assert err.value.minimal_terms == 29
    longer = sp.eigen_coefficients(BM, 1.0, kind="A",
                                   n_terms=err.value.minimal_terms)
    val = sp.eigen_value(longer, 5.0, tol=1e-10)
    assert abs(val - sp.eigenfunction(BM, 1.0, 5.0, kind="A")) < 1e-9


def test_eigen_series_certification_cap():
    custom = spec_from_expressions("x", "2")
    with pytest.raises(ToleranceError):
        sp.eigenfunction(custom, 1.0, 1e9, kind="A", tol=1e-12)


def _spline_cumulative(z, h):
    """The recursion's cumulative integral through scipy: the power-law
    head as in ``_cumulative_integral``, then the ``CubicSpline``
    antiderivative in ``log z`` at its own nodes; also the magnitudes of
    the summed pieces."""
    zi, hi = z[1:], h[1:]
    w = np.log(zi)
    cum = CubicSpline(w, hi * zi).antiderivative()(w)
    s = math.log(hi[1] / hi[0]) / (w[1] - w[0])
    first = hi[0] * zi[0] / (min(max(s, -0.999), 80.0) + 1.0)
    return np.concatenate([[0.0], first + cum]), \
        abs(first) + np.cumsum(np.abs(np.diff(cum, prepend=0.0)))


@settings(max_examples=60, deadline=None)
@given(x=st.floats(0.05, 20.0), n=st.integers(4, 4096),
       power=st.floats(-0.95, 3.0), wiggle=st.floats(0.0, 0.9),
       freq=st.floats(0.0, 5.0))
def test_cumulative_integral_matches_spline_antiderivative(x, n, power,
                                                           wiggle, freq):
    zi = np.geomspace(x * 1e-4, x, n)
    hi = zi ** power * (1.0 + wiggle * np.sin(freq * np.log(zi)))
    # the value at z = 0 is never read
    z, h = np.concatenate([[0.0], zi]), np.concatenate([[math.nan], hi])
    ref, magnitude = _spline_cumulative(z, h)
    got = sp._cumulative_integral(z, h)
    assert got[0] == 0.0
    eps = np.finfo(float).eps
    assert np.all(np.abs(got[1:] - ref[1:]) <= 64 * eps * magnitude)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def test_measure_from_table_reproduces_closed_forms():
    g = np.geomspace(1e-12, 2e3, 8000)
    tab = sp.measure_from_table(g, M_KILL_BM.density(g), kind="killed")
    assert abs(sp.levy_density(BM, 1.0, measure=tab)
               / BM.oracles.levy_density(1.0) - 1.0) < 1e-9
    tab15 = sp.measure_from_table(g, M_KILL_B15.density(g), kind="killed")
    for t in (2.0, 10.0):
        rel = abs(sp.levy_tail(B15, t, measure=tab15)
                  / B15.oracles.levy_tail(t) - 1.0)
        assert rel < 5e-3, t


# the 2000-knot table of the reflected Brownian killed measure, and values
# of the Brownian Levy tail on it, as hex; here the 8- and 4-point cell sums
# agree to the last bit, so |v8 - v4| alone would report a zero error; at
# t = 1 and 10 the damping cuts the table below its end, at t = 0.1 not
TABLE_GRID = np.geomspace(1e-14, 2e3, 2000)
TABLE_LEVY_TAIL = {0.1: "0x1.42f600e7f3fddp+1", 1.0: "0x1.988450388de26p-1",
                   10.0: "0x1.025e61afe76b8p-2"}


@pytest.mark.parametrize("t", sorted(TABLE_LEVY_TAIL))
def test_table_measure_error_covers_summation_rounding(t):
    tab = sp.measure_from_table(TABLE_GRID, M_KILL_BM.density(TABLE_GRID),
                                kind="killed")
    val, err = sp.levy_tail(BM, t, measure=tab, with_error=True)
    assert val.hex() == TABLE_LEVY_TAIL[t]
    assert err > 0.0


# the table drops the measure's mass below its first knot, 1e-14: for the
# Brownian killed density sqrt(2 gamma) / pi that is 9.0e-8 of every value
# below, which the error now counts
@pytest.mark.parametrize("t", sorted(TABLE_LEVY_TAIL))
def test_table_measure_error_covers_mass_below_first_knot(t):
    tab = sp.measure_from_table(TABLE_GRID, M_KILL_BM.density(TABLE_GRID),
                                kind="killed")
    val, err = sp.levy_tail(BM, t, measure=tab, with_error=True)
    miss = BM.oracles.levy_tail(t) - val
    assert 8.9e-8 < miss <= err < 9.1e-8, (miss, err)


# with zero density at the first knot the head is 0, and the 8- and 4-point
# cell sums still agree to the last bit: only the rounding term keeps the
# error above 0
@pytest.mark.parametrize("t", sorted(TABLE_LEVY_TAIL))
def test_table_error_covers_summation_rounding_without_a_head(t):
    d = M_KILL_BM.density(TABLE_GRID)
    d[0] = 0.0
    tab = sp.measure_from_table(TABLE_GRID, d, kind="killed")
    val, err = sp.levy_tail(BM, t, measure=tab, with_error=True)
    assert 0.0 < err < 1e-10


# a table from gamma = 0.1 misses most of the measure at large t, and its
# error must still cover that: at t = 5 and 20 the power through the
# damped integrand at the first two knots falls to -1 and below
@pytest.mark.parametrize("t", [1.0, 4.0, 5.0, 20.0])
def test_table_from_a_coarse_first_knot_brackets_closed_form(t):
    g = np.geomspace(0.1, 20.0, 100)
    tab = sp.measure_from_table(g, M_KILL_BM.density(g), kind="killed")
    val, err = sp.levy_tail(BM, t, measure=tab, with_error=True)
    assert abs(val - BM.oracles.levy_tail(t)) <= err
    val, err = sp.hitting_tail(spec_from_expressions("x", "2"), 1.0, t,
                               measure=tab, with_error=True)
    assert abs(val - erf(1.0 / math.sqrt(2.0 * t))) <= err


@pytest.mark.parametrize("t", [2.0, 4.0, 8.0])
def test_custom_table_hitting_tail_error_brackets_closed_form(t):
    custom = spec_from_expressions("x", "2")
    g = np.geomspace(1e-14, 20.0, 400)
    tab = sp.measure_from_table(g, M_KILL_BM.density(g), kind="killed")
    val, err = sp.hitting_tail(custom, 1.0, t, measure=tab, with_error=True)
    assert abs(val - erf(1.0 / math.sqrt(2.0 * t))) <= err < 1e-7


# the damping, not the end of the table, sets the cutoff: certifying the
# series up to the table's end, gamma = 2000, would take over 400 terms
@pytest.mark.parametrize("t", [2.0, 4.0, 16.0])
def test_custom_hitting_tail_on_a_far_reaching_table(t):
    custom = spec_from_expressions("x", "2")
    tab = sp.measure_from_table(TABLE_GRID, M_KILL_BM.density(TABLE_GRID),
                                kind="killed")
    val, err = sp.hitting_tail(custom, 1.0, t, measure=tab, with_error=True)
    assert abs(val - erf(1.0 / math.sqrt(2.0 * t))) <= err < 1e-7


# a probe where a table's density is 0 (below its first knot, or in a
# stretch where it vanishes) is no cutoff: the mass beyond it counts
def _table_starting_at_5():
    g = np.geomspace(5.0, 100.0, 50)
    return g, M_KILL_BM.density(g)


def _table_vanishing_on_2_to_10():
    g = np.geomspace(1e-14, 100.0, 400)
    d = M_KILL_BM.density(g)
    d[(g > 2.0) & (g < 10.0)] = 0.0
    return g, d


@pytest.mark.parametrize("t", [1.0, 4.0])
@pytest.mark.parametrize("table", [_table_starting_at_5,
                                   _table_vanishing_on_2_to_10])
def test_zero_density_probe_does_not_cut_a_table(table, t):
    g, d = table()
    tab = sp.measure_from_table(g, d, kind="killed")
    val, err = sp.levy_tail(BM, t, measure=tab, with_error=True)
    full = quad(lambda x: tab.density(x) / x * math.exp(-x * t), g[0], g[-1],
                points=g[1:-1], limit=1000, epsabs=1e-16, epsrel=1e-12)[0]
    assert full > 1e-11
    assert abs(val - full) <= err + 1e-12 * full, (val, err, full)


def test_table_head_that_diverges_is_refused():
    # a killed density ~ gamma^{-1/2} from gamma = 1e-3 on: nu((t, inf))
    # integrates gamma^{-3/2} near 0
    g = np.geomspace(1e-3, 20.0, 200)
    tab = sp.measure_from_table(g, g ** -0.5, kind="killed")
    with pytest.raises(IntegrabilityError):
        sp.levy_tail(BM, 1.0, measure=tab)
    # a zero density at a first knot says the measure vanishes below it
    tab = sp.measure_from_table(np.r_[5e-4, g], np.r_[0.0, g ** -0.5],
                                kind="killed")
    assert sp.levy_tail(BM, 1.0, measure=tab) > 0.0


@st.composite
def pchip_tables(draw):
    """Strictly increasing nodes at one scale and monotone, flat or
    sign-changing data, with queries at the knots, the ends, between them,
    outside the range and NaN."""
    n = draw(st.integers(2, 60))
    scale = 10.0 ** draw(st.floats(-14.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = scale * (draw(st.floats(-2.0, 2.0))
                 + np.cumsum(rng.uniform(0.01, 1.0, n)))
    shape = draw(st.sampled_from(["monotone", "flat", "signs"]))
    if shape == "monotone":
        y = np.cumsum(rng.exponential(scale, n)) * draw(st.sampled_from(
            [1.0, -1.0]))
    elif shape == "flat":
        y = np.repeat(rng.normal(0.0, scale, n), rng.integers(1, 4, n))[:n]
    else:
        y = rng.normal(0.0, scale, n)
    span = x[-1] - x[0]
    q = np.concatenate([x, [x[0], x[-1], math.nan, x[0] - 0.1 * span,
                            x[-1] + 0.1 * span, np.nextafter(x[0], -1e300),
                            np.nextafter(x[-1], 1e300)],
                        rng.uniform(x[0], x[-1], 40)])
    return x, y, q


@settings(max_examples=200, deadline=None)
@given(pchip_tables())
def test_pchip_matches_scipy_bit_for_bit(table):
    x, y, q = table
    ref = PchipInterpolator(x, y, extrapolate=False)
    got = sp._pchip(x, y)
    assert got(q).tobytes() == ref(q).tobytes()
    for qi in (q[0], q[-1], math.nan):      # scalars give 0-d arrays
        a, b = got(qi), ref(qi)
        assert a.shape == b.shape == () and a.tobytes() == b.tobytes()


# the knots branch sums each series only over the prefix its cell block
# needs; over this corpus every value and error keeps its bits when the
# full series is summed instead (a tail level of 0 keeps every term)
def _table_corpus():
    twins = {("x", "2"): 0.5, ("x^0.5/0.5", "2*x^0.5"): 0.25}
    out = {}
    for expressions, alpha in twins.items():
        custom = spec_from_expressions(*expressions)
        for n in (120, 400, 2000):
            g = np.geomspace(1e-14, 20.0, n)
            for kind, measure in (
                    ("killed", sp.bessel_killed_measure(alpha)),
                    ("principal", sp.bessel_principal_measure(alpha))):
                tab = sp.measure_from_table(g, measure.density(g), kind=kind)
                for x in (0.5, 1.0, 2.0):
                    for t in (1.0, 2.0, 4.0, 8.0, 32.0):
                        key = (expressions, n, kind, x, t)
                        try:
                            if kind == "killed":
                                got = sp.hitting_tail(custom, x, t,
                                                      measure=tab,
                                                      with_error=True)
                            else:
                                got = sp.transition_density(
                                    custom, x, 1.0, t, measure=tab,
                                    with_error=True)
                            out[key] = (got[0].hex(), float(got[1]).hex())
                        except LevykitError as exc:
                            out[key] = type(exc).__name__
    return out


def test_table_cells_sum_series_prefixes_without_moving_bits(monkeypatch):
    prefixes = _table_corpus()
    monkeypatch.setattr(sp, "_PREFIX_TAIL", 0.0)
    assert _table_corpus() == prefixes


def test_levy_exponent_from_measure():
    got = sp.levy_exponent_from_measure(M_KILL_BM, 2.0)
    assert abs(got - 2.0) < 1e-9


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("lam", [0.5, 2.0, 16.0])
def test_levy_exponent_from_measure_error_brackets_closed_form(alpha, lam):
    val, err = sp.levy_exponent_from_measure(sp.bessel_killed_measure(alpha),
                                             lam, with_error=True)
    oracle = bessel_exponent_constant(alpha) * lam ** alpha
    assert abs(val - oracle) <= err + 8 * np.finfo(float).eps * oracle, \
        (val, err, oracle)


# ---------------------------------------------------------------------------
# eigen recursion store
# ---------------------------------------------------------------------------

def _series_bits(series):
    return (series.coefficients.tobytes(), series.bound_base, series.front)


def _cold_series(spec, x, kind, n_terms):
    sp._LADDERS.clear()
    return sp.eigen_coefficients(spec, x, kind, n_terms=n_terms)


def _live_ladders():
    return sum(len(ladders) for ladders in sp._LADDERS.values())


def test_series_bits_independent_of_earlier_requests():
    custom = spec_from_expressions("x", "2")
    short = _series_bits(_cold_series(custom, 1.0, "C", 8))
    long = _series_bits(_cold_series(custom, 1.0, "C", 40))
    # longer first: the short series reads a prefix of stored levels
    assert _series_bits(sp.eigen_coefficients(custom, 1.0, "C", 8)) == short
    # shorter first: the long series extends the stored levels
    _cold_series(custom, 1.0, "C", 8)
    assert _series_bits(sp.eigen_coefficients(custom, 1.0, "C", 40)) == long


_COLD_A = {}


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=1, max_size=4))
def test_series_bits_over_request_sequences(requests):
    custom = spec_from_expressions("x^0.5/0.5", "2*x^0.5")
    for n in requests:
        if n not in _COLD_A:
            _COLD_A[n] = _series_bits(_cold_series(custom, 0.7, "A", n))
    sp._LADDERS.clear()
    for n in requests:
        got = sp.eigen_coefficients(custom, 0.7, "A", n_terms=n)
        assert _series_bits(got) == _COLD_A[n], requests


# (value, error) hex, each recorded on a cold ladder and evaluated here with
# the shorter series first so the longer ones extend it
_PINNED = {
    ("x", "2"): (
        ("hitting_tail", 4.0, "0x1.881d788cab1dfp-2", "0x1.676f97f733abcp-36"),
        ("hitting_density", 4.0,
         "0x1.6883d022086b2p-5", "0x1.bf9e9a7582a74p-41"),
        ("hitting_tail", 2.0, "0x1.0a7ef5c18edd5p-1", "0x1.233b0e7e1192bp-38"),
        ("hitting_density", 2.0,
         "0x1.c1efca49a5020p-4", "0x1.262ed9a4a2d2bp-38"),
    ),
    ("x^0.5/0.5", "2*x^0.5"): (
        ("hitting_tail", 4.0, "0x1.47c2af70d9e59p-1", "0x1.7433392f91654p-38"),
        ("hitting_density", 4.0,
         "0x1.286863002a6ddp-5", "0x1.ee25b5271bf76p-43"),
        ("hitting_tail", 2.0, "0x1.7cc35b06c1994p-1", "0x1.8891a4f60cd3cp-41"),
        ("hitting_density", 2.0,
         "0x1.37124f7e50aebp-4", "0x1.84742fc0e54bcp-41"),
    ),
}


@pytest.mark.parametrize("expressions", list(_PINNED))
def test_custom_spectral_values_pinned(expressions):
    custom = spec_from_expressions(*expressions)
    measure = M_KILL_BM if expressions == ("x", "2") else M_KILL_B15
    for fn, t, value, error in _PINNED[expressions]:
        got = getattr(sp, fn)(custom, 1.0, t, measure=measure,
                              with_error=True)
        assert (got[0].hex(), float(got[1]).hex()) == (value, error), (fn, t)


# the knots branch: (value, error) hex of the custom Brownian twin against
# the killed Brownian density tabulated on geomspace(1e-14, 20, 400), with
# Horner sums on the cell blocks and the series rounding in the errors
_PINNED_KNOTS = (
    ("hitting_tail", 4.0, "0x1.881d73748e1a0p-2", "0x1.82b035e0d5451p-24"),
    ("hitting_tail", 2.0, "0x1.0a7ef36115af9p-1", "0x1.82af88ccd0ebbp-24"),
    ("hitting_density", 4.0, "0x1.6883d1011969fp-5", "0x1.dda25a7af5591p-41"),
    ("hitting_density", 2.0, "0x1.c1efcb600a462p-4", "0x1.3a5af2f328bc7p-43"),
)


def test_custom_table_values_pinned():
    custom = spec_from_expressions("x", "2")
    g = np.geomspace(1e-14, 20.0, 400)
    tab = sp.measure_from_table(g, M_KILL_BM.density(g), kind="killed")
    for fn, t, value, error in _PINNED_KNOTS:
        got = getattr(sp, fn)(custom, 1.0, t, measure=tab, with_error=True)
        assert (got[0].hex(), float(got[1]).hex()) == (value, error), (fn, t)


def test_ladder_dies_with_its_spec():
    custom = spec_from_expressions("x", "2")
    sp.eigen_coefficients(custom, 0.5, "C", n_terms=2)
    # only this spec's own ladders: other specs' ladders may die in the
    # same collection (a spec held by an earlier test's traceback)
    ladders, ref = sp._LADDERS[custom], weakref.ref(custom)
    assert (0.5, "C") in ladders
    del custom
    gc.collect()
    assert ref() is None
    assert all(owner is not ladders for owner in sp._LADDERS.values())


def test_live_ladders_stay_within_bound():
    sp._LADDERS.clear()
    custom = spec_from_expressions("x", "2")
    xs = np.linspace(0.2, 2.0, sp._MAX_LADDERS + 3)
    for x in xs:
        sp.eigen_coefficients(custom, float(x), "C", n_terms=0)
        assert _live_ladders() <= sp._MAX_LADDERS
    # the least recently used ladders went first
    kept = set(sp._LADDERS[custom])
    assert kept == {(float(x), "C") for x in xs[-sp._MAX_LADDERS:]}


def test_threads_on_one_key_get_identical_bits():
    custom = spec_from_expressions("x", "2")
    cold = {n: _series_bits(_cold_series(custom, 1.0, "C", n))
            for n in (6, 12)}
    sp._LADDERS.clear()
    got = {}

    def work(i, n):
        got[i] = _series_bits(sp.eigen_coefficients(custom, 1.0, "C", n))

    threads = [threading.Thread(target=work, args=(i, (6, 12)[i % 2]))
               for i in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert got == {i: cold[(6, 12)[i % 2]] for i in range(4)}


def test_second_call_reuses_ladder_constants(monkeypatch):
    custom = spec_from_expressions("x", "2")
    sp.hitting_tail(custom, 1.0, 4.0, measure=M_KILL_BM)
    calls = []
    real = sp.series_bound_base
    monkeypatch.setattr(sp, "series_bound_base",
                        lambda *a: calls.append(a) or real(*a))
    warm = sp.hitting_tail(custom, 1.0, 8.0, measure=M_KILL_BM,
                           with_error=True)
    assert calls == []
    sp._LADDERS.clear()
    cold = sp.hitting_tail(custom, 1.0, 8.0, measure=M_KILL_BM,
                           with_error=True)
    assert calls == [(custom, 1.0)]
    assert [float(v).hex() for v in warm] == [float(v).hex() for v in cold]


def test_ladder_keeps_recent_series_read_only():
    sp._LADDERS.clear()
    custom = spec_from_expressions("x", "2")
    series = sp.eigen_coefficients(custom, 1.0, "C", n_terms=3)
    assert sp.eigen_coefficients(custom, 1.0, "C", n_terms=3) is series
    with pytest.raises(ValueError):
        series.coefficients[0] = 1.0
    # a caller's array is copied, not frozen
    mine = np.array([1.0, 0.5])
    sp.EigenSeries(x=1.0, kind="A", coefficients=mine, bound_base=1.0,
                   front=1.0)
    mine[0] = 1.0
    # only the most recently used lengths stay
    for n in range(4, 6 + sp._SERIES_KEPT):
        sp.eigen_coefficients(custom, 1.0, "C", n_terms=n)
    sp.eigen_coefficients(custom, 1.0, "C", n_terms=6)
    kept = sp._LADDERS[custom][(1.0, "C")].kept
    assert len(kept) == sp._SERIES_KEPT
    assert list(kept)[-1] == 6 and 3 not in kept


def test_custom_boundary_point_takes_no_ladder():
    sp._LADDERS.clear()
    custom = spec_from_expressions("x", "2")
    for kind, edge in (("A", 1.0), ("C", 0.0)):
        series = sp.eigen_coefficients(custom, 0.0, kind)
        assert series.coefficients.tolist() == [edge] + [0.0] * 24
        assert sp.eigenfunction(custom, 0.0, 2.5, kind) == edge
    # the Brownian kernel from the boundary, w.r.t. the speed 2 dy
    for y in (0.7, 0.0):
        val, err = sp.transition_density(custom, 0.0, y, 1.0,
                                         measure=M_FULL_BM, with_error=True)
        assert abs(val - math.exp(-y * y / 2) / math.sqrt(2 * math.pi)) \
            <= err < 1e-12
    assert all(x != 0.0 for ladders in sp._LADDERS.values()
               for x, _ in ladders)
    # one boundary ladder per kind serves every spec
    other = spec_from_expressions("x^0.5/0.5", "2*x^0.5")
    assert sp._ladder(custom, 0.0, "C") is sp._ladder(other, 0.0, "C")


def test_warm_custom_call_looks_each_ladder_up_once(monkeypatch):
    custom = spec_from_expressions("x", "2")

    def call():
        return sp.transition_density(custom, 0.5, 1.0, 4.0, killed=True,
                                     measure=M_KILL_BM, with_error=True)

    cold = call()
    seen = []
    real = sp._ladder
    monkeypatch.setattr(sp, "_ladder",
                        lambda *a: seen.append(a[1:]) or real(*a))
    assert call() == cold
    assert seen == [(0.5, "C"), (1.0, "C")]


def _signed_series_eval(coefficients, gamma):
    """The per-call evaluator that ``EigenSeries.value`` replaced, kept as
    the reference its bits must match."""
    shape = np.shape(gamma)
    g = np.asarray(gamma, dtype=float).ravel()
    c = np.asarray(coefficients, dtype=float)
    ns = np.arange(c.size, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logc = np.log(np.maximum(c, 0.0))
        logs = logc[None, :] + ns[None, :] * np.log(np.abs(g))[:, None]
    logs = np.where(np.isnan(logs), -np.inf, logs)
    m = np.max(logs, axis=1)
    m = np.where(np.isfinite(m), m, 0.0)
    signs = (-np.sign(g))[:, None] ** ns[None, :]
    signs[:, 0] = 1.0
    vals = np.einsum("ij,ij->i", np.exp(logs - m[:, None]), signs) \
        * np.exp(m)
    vals = np.where(g == 0.0, c[0], vals)
    return vals[0] if not shape else vals.reshape(shape)


@st.composite
def factorial_coefficients(draw):
    """``c_n = u_n B^n / n!`` with ``u_n`` uniform on [0, 1], some zero."""
    n = draw(st.integers(1, 400))
    base = draw(st.floats(1e-3, 50.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = np.arange(n, dtype=float)
    c = np.exp(k * math.log(base) - gammaln(k + 1.0)) * rng.random(n)
    c[rng.random(n) < draw(st.floats(0.0, 0.5))] = 0.0
    return c


GAMMAS = st.one_of(st.just(0.0), st.just(math.nan), st.floats(0.0, 1e3),
                   st.floats(-50.0, 0.0))


@st.composite
def gamma_arguments(draw, elements=GAMMAS):
    form = draw(st.sampled_from(["float", "0-d", "1-d", "2-d"]))
    if form == "float":
        return draw(elements)
    if form == "0-d":
        return np.array(draw(elements))
    rows = draw(st.integers(1, 3)) if form == "2-d" else 1
    cols = draw(st.integers(1, 4))
    g = np.array(draw(st.lists(elements, min_size=rows * cols,
                               max_size=rows * cols)))
    return g.reshape(rows, cols) if form == "2-d" else g


@settings(max_examples=300, deadline=None)
@given(c=factorial_coefficients(), gamma=gamma_arguments())
def test_series_evaluator_matches_reference_bits(c, gamma):
    with np.errstate(all="ignore"):
        got = sp.EigenSeries(1.0, "A", c, 50.0, 1.0).value(gamma)
        ref = _signed_series_eval(c, gamma)
    assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
    # a NaN gamma gives NaN (the reference gave 0 for a one-term series)
    nan = np.isnan(gamma)
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.all(np.isnan(got[nan])), (got, gamma)
    assert got[~nan].tobytes() == ref[~nan].tobytes(), (got, ref)


def _matrix_series_eval(series, gamma, terms=None):
    """The evaluator ``EigenSeries.value`` had before it worked in place:
    a sign matrix, a matrix-wide NaN repair and fresh temporaries.  Kept as
    the reference its bits must match."""
    g = np.asarray(gamma, dtype=float)
    shape, g = g.shape, g.ravel()
    logc, n = series._logc[:terms], series._n[:terms]
    logs = logc[None, :] + n[None, :] * np.log(np.abs(g))[:, None]
    logs = np.where(np.isnan(logs), -np.inf, logs)
    signs = np.where(g[:, None] < 0.0, 1.0, series._alternating[:terms])
    m = logs.max(axis=1)
    m = np.where(np.isfinite(m), m, 0.0)
    sums = np.einsum("ij,ij->i", np.exp(logs - m[:, None]), signs) \
        * np.exp(m)
    vals = np.where(g == 0.0, series.coefficients[0], sums)
    vals = np.where(np.isnan(g), np.nan, vals)
    return vals[0] if not shape else vals.reshape(shape)


EXTREME_GAMMAS = st.one_of(
    GAMMAS, st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.inf, -math.inf, 5e-324, 1e-300, 1e300,
                     -1e300, 1.7e308, -1e-8]))


# the in-place evaluator, with its alternating-row contraction when no
# gamma is negative, keeps every bit of the matrix one, NaNs included
@settings(max_examples=400, deadline=None)
@given(c=factorial_coefficients(),
       gamma=gamma_arguments(elements=EXTREME_GAMMAS),
       data=st.data())
def test_in_place_evaluator_matches_matrix_evaluator_bits(c, gamma, data):
    series = sp.EigenSeries(1.0, "A", c, 50.0, 1.0)
    terms = data.draw(st.one_of(st.none(), st.integers(0, c.size + 3)))
    with np.errstate(all="ignore"):
        try:
            ref = _matrix_series_eval(series, gamma, terms)
        except ValueError:            # no terms: an empty row has no max
            with pytest.raises(ValueError):
                series.value(gamma, terms)
            return
        got = series.value(gamma, terms)
    assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
    assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), \
        (got, ref, terms)


def _terms_needed_full_scan(front, z, tol):
    """``_terms_needed`` as one scan of every ``n`` up to the cap."""
    if z <= 0.0:
        return 1
    ns = np.arange(1, sp._SERIES_CAP + 1)
    hit = np.flatnonzero(gammainc(ns, z) < tol * np.exp(-z) / front)
    return int(ns[hit[0]]) if hit.size else None


@settings(max_examples=500, deadline=None)
@given(front=st.floats(1e-300, 1e6), z=st.one_of(
    st.floats(-1.0, 2000.0), st.floats(0.0, 1e-3), st.floats(50.0, 400.0)),
    tol=st.floats(1e-300, 10.0))
def test_windowed_terms_scan_matches_full_scan(front, z, tol):
    with np.errstate(all="ignore"):
        assert sp._terms_needed(front, z, tol) \
            == _terms_needed_full_scan(front, z, tol)


TWINS = (("x", "2"), ("x^0.5/0.5", "2*x^0.5"))


# Horner's rule and the log route agree within Horner's bound gamma_2n sum
# c_n |gamma|^n wherever the series is certified
@settings(max_examples=30, deadline=None)
@given(twin=st.sampled_from(TWINS), kind=st.sampled_from("AC"),
       x=st.sampled_from([0.5, 2.0]), z_top=st.floats(1e-3, 24.0),
       size=st.integers(1, 600), seed=st.integers(0, 2 ** 32 - 1),
       prefix=st.sampled_from(["all", "library", "random"]))
def test_horner_matches_log_route_within_its_rounding(
        twin, kind, x, z_top, size, seed, prefix):
    custom = spec_from_expressions(*twin)
    ladder = sp._ladder(custom, x, kind)
    base, front = ladder.constants(custom)
    top = z_top / base
    series = ladder.certified(custom, top, 1e-9)
    c = series.coefficients
    # the prefix a table-cell block sums at its largest gamma, or longer
    least = min(sp._terms_needed(front, z_top, sp._PREFIX_TAIL), c.size)
    rng = np.random.default_rng(seed)
    terms = {"all": None, "library": least,
             "random": int(rng.integers(least, c.size + 1))}[prefix]
    g = rng.uniform(-top, top, size + 5)
    g[rng.integers(0, g.size, 3)] = 0.0
    g[rng.integers(0, g.size, 2)] = math.nan
    horner, logs = series.horner(g, terms), series.value(g, terms)
    nan = np.isnan(g)
    assert np.all(np.isnan(horner[nan])) and np.all(np.isnan(logs[nan]))
    assert np.all(horner[g == 0.0] == c[0])
    assert np.all(logs[g == 0.0] == c[0])
    kept = c[:terms]
    n = kept.size
    u = np.finfo(float).eps / 2.0
    magnitude = np.polynomial.polynomial.polyval(np.abs(g[~nan]),
                                                 np.maximum(kept, 0.0))
    bound = 2 * n * u / (1.0 - 2 * n * u) * magnitude
    assert np.all(np.abs(horner[~nan] - logs[~nan]) <= bound), \
        (twin, kind, x, top, terms)


def test_horner_on_one_term_and_zero_series():
    # nothing positive past c_0: the value is c_0, and NaN at a NaN gamma
    c = np.array([0.7, 0.0, -1e-320])
    series = sp.EigenSeries(1.0, "A", c, 1.0, 1.0)
    g = np.linspace(-3.0, 3.0, 50)
    g[5] = math.nan
    got = series.horner(g)
    assert np.isnan(got[5]) and np.all(np.delete(got, 5) == 0.7)
    assert series.horner(2.0) == 0.7 and math.isnan(series.horner(math.nan))
    zero = sp.EigenSeries(0.0, "C", np.zeros(4), 0.0, 0.0)
    assert np.all(zero.horner(np.delete(g, 5)) == 0.0)
    with pytest.raises(DomainError):
        series.horner(g, 0)


def test_horner_scalar_matches_array():
    custom = spec_from_expressions("x", "2")
    series = sp._ladder(custom, 1.0, "C").certified(custom, 4.0, 1e-9)
    g = np.array([0.0, 0.5, 4.0, -1.0])
    assert [series.horner(float(v)) for v in g] == list(series.horner(g))


def test_short_table_sums_every_cell_block_by_horner(monkeypatch):
    # 10 knots: the last block holds a few cells, under 160 nodes, and must
    # take Horner's rule like the full blocks, since the error bounds
    # Horner's rounding; the log route sees only the head node
    seen = {"value": [], "horner": []}
    for name in seen:
        real = getattr(sp.EigenSeries, name)

        def spy(self, gamma, terms=None, real=real, log=seen[name]):
            log.append(np.size(gamma))
            return real(self, gamma, terms)
        monkeypatch.setattr(sp.EigenSeries, name, spy)
    custom = spec_from_expressions("x", "2")
    g = np.geomspace(1e-14, 20.0, 10)
    tab = sp.measure_from_table(g, M_KILL_BM.density(g), kind="killed")
    val, err = sp.hitting_tail(custom, 1.0, 2.0, measure=tab,
                               with_error=True)
    assert math.isfinite(val) and err > 0.0
    assert seen["value"] and set(seen["value"]) == {1}
    assert min(seen["horner"]) < 160
    cells = sum(seen["horner"]) // 12      # every cell at 8 + 4 nodes
    assert sum(seen["horner"]) == 12 * cells and cells > 256


def test_eigen_series_equality_is_identity():
    c = np.array([1.0, 0.5, 0.1])
    series, twin = (sp.EigenSeries(1.0, "A", c, 1.0, 1.0) for _ in range(2))
    assert hash(series) == hash(series)
    assert series == series and series != twin
    assert len({series, twin, series}) == 2


@pytest.mark.parametrize("terms", [0, -1, -3])
def test_series_value_needs_at_least_one_term(terms):
    series = sp.EigenSeries(1.0, "A", np.array([1.0, 0.5, 0.1]), 1.0, 1.0)
    with pytest.raises(DomainError, match="at least 1"):
        series.value(np.array([0.5, 2.0]), terms)
    assert series.value(2.0, 1) == 1.0
    assert series.value(2.0, 3) == series.value(2.0)


def test_underflowing_gamma_nodes_contribute_zero():
    seen = []

    def f(g):
        seen.append(g.copy())
        return np.ones_like(g)

    # gamma = v^4 / 2 underflows at the panel's smallest nodes only
    val, err = sp._integrate_gamma(f, 1e-320)
    assert all(np.all(g > 0.0) for g in seen)
    assert sum(g.size for g in seen) < 21 * len(seen)
    assert 0.0 < val <= 1e-320 and math.isfinite(err)


def test_nonpositive_tol_is_a_domain_error():
    with pytest.raises(DomainError, match="tol"):
        sp.levy_tail(BM, 1.0, tol=0)
    g = np.geomspace(1e-14, 20.0, 400)
    tab = sp.measure_from_table(g, M_KILL_BM.density(g), kind="killed")
    for tol in (-1.0, 0.0, math.nan):
        with pytest.raises(DomainError, match="tol"):
            sp.levy_tail(BM, 1.0, measure=tab, tol=tol)
    custom = spec_from_expressions("x", "2")
    with pytest.raises(DomainError, match="tol"):
        sp.hitting_tail(custom, 1.0, 4.0, measure=M_KILL_BM, tol=-1e-9)


def test_domain_errors():
    with pytest.raises(DomainError):
        sp.transition_density(BM, -0.1, 0.5, 1.0)
    with pytest.raises(DomainError):
        sp.transition_density(BM, 0.1, 0.5, 0.0)
    with pytest.raises(DomainError):
        sp.hitting_density(BM, 0.0, 1.0)
