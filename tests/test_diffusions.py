import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf, gamma

from levykit.diffusions import (band_occupancy_probability,
                                bessel_exponent_constant, bessel_spec,
                                brownian_spec, cumulative_speed,
                                levy_exponent, parse_spec_argument,
                                series_bound_base, spec_from_expressions,
                                spec_from_json)
from levykit.errors import DomainError, UnsupportedSpecError
from levykit.exprlang import compile_expression
from levykit.quadrature import DEFAULT_QUADRATURE, integrate


def test_bessel_preset_basic_functions():
    spec = bessel_spec(1.5)
    assert spec.alpha == 0.25
    assert spec.delta == 1.5
    assert spec.is_preset
    # S(x) = x^{2a}/(2a), m'(x) = 2 x^{1-2a}
    assert math.isclose(spec.scale(1.0), 2.0)
    assert math.isclose(spec.scale(4.0), 2.0 * 2.0)
    assert math.isclose(spec.speed_density(1.0), 2.0)
    assert math.isclose(spec.speed_density(4.0), 2.0 * 2.0)


def test_brownian_is_bessel_delta_one():
    bm = brownian_spec()
    assert bm.alpha == 0.5
    assert bm.delta == 1.0
    assert math.isclose(bm.scale(0.7), 0.7)
    assert math.isclose(bm.speed_density(123.0), 2.0)


def test_bessel_delta_range_is_open():
    for bad in (0.0, 2.0, -1.0, 2.5):
        with pytest.raises(DomainError):
            bessel_spec(bad)


def test_scale_vanishes_at_origin():
    for spec in (brownian_spec(), bessel_spec(0.5), bessel_spec(1.7)):
        assert spec.scale(0.0) == 0.0


def test_cumulative_speed_closed_forms():
    # M(x) = x^{2-2a}/(1-a)
    bm = brownian_spec()
    assert math.isclose(cumulative_speed(bm, 1.5), 3.0)
    b15 = bessel_spec(1.5)
    assert math.isclose(cumulative_speed(b15, 1.0), 4.0 / 3.0)


def test_series_bound_base_closed_forms():
    # B(x) = x^2 / (2(1-a))
    assert math.isclose(series_bound_base(brownian_spec(), 1.0), 1.0)
    assert math.isclose(series_bound_base(bessel_spec(1.5), 1.0), 2.0 / 3.0)


def test_series_bound_base_matches_definition_for_custom():
    # B = M(x) S(x) - int_0^x S dm, assembled from quadrature pieces
    spec = spec_from_expressions("x^0.5/0.5", "2*x^0.5")
    b = series_bound_base(spec, 1.3)
    ref = series_bound_base(bessel_spec(1.5), 1.3)
    assert abs(b - ref) < 1e-9


def test_levy_exponent_closed_forms():
    bm = brownian_spec()
    # Phi(lam) = sqrt(2 lam)
    assert abs(levy_exponent(bm, 2.0) - 2.0) < 1e-9
    assert abs(levy_exponent(bm, 0.5) - 1.0) < 1e-9
    assert levy_exponent(bm, 0.0) == 0.0
    # Phi(lam) = kappa_a lam^a
    b15 = bessel_spec(1.5)
    kappa = bessel_exponent_constant(0.25)
    assert abs(kappa - 0.5684276788620944) < 1e-14
    assert abs(levy_exponent(b15, 1.0) - kappa) < 1e-9
    assert abs(levy_exponent(b15, 16.0) - 2.0 * kappa) < 1e-8


@pytest.mark.parametrize("lam", [0.5, 2.0, 16.0])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_levy_exponent_matches_quadrature_of_levy_density(alpha, lam):
    # oracle: Phi(lam) = int_0^inf (1 - e^{-lam v}) nu-dot(v) dv
    spec = bessel_spec(2.0 - 2.0 * alpha)
    nu = spec.oracles.levy_density

    def integrand(v):
        return -math.expm1(-lam * v) * nu(v)

    head, _ = quad(integrand, 0.0, 1.0 / lam, epsabs=1e-13, epsrel=1e-12,
                   limit=400)
    tail, _ = quad(integrand, 1.0 / lam, np.inf, epsabs=1e-13,
                   epsrel=1e-12, limit=400)
    assert math.isclose(levy_exponent(spec, lam), head + tail,
                        rel_tol=1e-12)


def test_levy_exponent_needs_a_preset():
    with pytest.raises(UnsupportedSpecError):
        levy_exponent(spec_from_expressions("x", "2"), 1.0)


def test_bessel_exponent_constant_formula():
    for a in (0.25, 0.5, 0.75):
        expected = gamma(1.0 - a) * 2.0 ** (1.0 - a) / gamma(a)
        assert math.isclose(bessel_exponent_constant(a), expected)


def test_band_occupancy_matches_erf_for_brownian():
    bm = brownian_spec()
    s, eps = 0.37, 0.05
    got = band_occupancy_probability(bm, s, eps)
    assert abs(float(got) - erf(eps / math.sqrt(2.0 * s))) < 1e-12


def test_band_occupancy_keeps_the_input_shape():
    bm = brownian_spec()
    s = np.array([[0.0, 0.37], [1.2, 4.0]])
    got = band_occupancy_probability(bm, s, 0.05)
    assert got.shape == (2, 2)
    assert got.tolist() == [[band_occupancy_probability(bm, v, 0.05)
                             for v in row] for row in s.tolist()]
    one = band_occupancy_probability(bm, np.array([0.37]), 0.05)
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert isinstance(band_occupancy_probability(bm, 0.37, 0.05), float)


def test_band_occupancy_custom_unsupported():
    spec = spec_from_expressions("x", "2")
    with pytest.raises(UnsupportedSpecError):
        band_occupancy_probability(spec, 1.0, 0.1)


def test_custom_spec_matches_equivalent_preset():
    custom = spec_from_expressions("x^0.5/0.5", "2*x^0.5")
    preset = bessel_spec(1.5)
    for x in (0.1, 0.9, 2.7):
        assert math.isclose(custom.scale(x), preset.scale(x), rel_tol=1e-12)
        assert math.isclose(custom.speed_density(x),
                            preset.speed_density(x), rel_tol=1e-12)
    assert not custom.is_preset
    assert custom.oracles is None


def test_spec_from_json_both_shapes():
    b = spec_from_json({"kind": "bessel", "delta": 1.5})
    assert b.alpha == 0.25
    c = spec_from_json('{"kind": "custom", "scale": "x", '
                       '"speed_density": "2"}')
    assert math.isclose(c.scale(0.4), 0.4)


def test_spec_from_json_rejects_garbage():
    with pytest.raises(DomainError):
        spec_from_json('{"kind": "bessel"')  # malformed
    with pytest.raises(DomainError):
        spec_from_json({"kind": "pendulum"})
    with pytest.raises(DomainError):
        spec_from_json({"kind": "custom", "scale": "x"})
    with pytest.raises(DomainError):
        spec_from_json([1, 2, 3])


def test_parse_spec_argument_forms(tmp_path):
    assert parse_spec_argument("brownian").delta == 1.0
    assert parse_spec_argument("bessel:1.5").alpha == 0.25
    assert parse_spec_argument('{"kind": "bessel", "delta": 0.5}').alpha \
        == 0.75
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "bessel", "delta": 1.2}))
    assert parse_spec_argument(str(path)).delta == 1.2
    with pytest.raises(DomainError):
        parse_spec_argument("bessel:two")
    with pytest.raises(DomainError):
        parse_spec_argument("no/such/file.json")


def test_expression_language_is_fenced():
    f = compile_expression("exp(-x) + sqrt(x)")
    assert math.isclose(f(1.0), math.exp(-1) + 1.0)
    for bad in ("__import__('os')", "x.real", "lambda y: y", "open('f')"):
        with pytest.raises((DomainError, UnsupportedSpecError, ValueError)):
            compile_expression(bad)


def test_expression_constants_broadcast():
    f = compile_expression("2")
    out = f(np.array([1.0, 2.0, 3.0]))
    assert out.shape == (3,)
    assert np.all(out == 2.0)
    assert isinstance(f(1.5), float)


def test_custom_spec_validation_rejects_bad_shapes():
    # decreasing "scale"
    with pytest.raises(DomainError):
        spec_from_expressions("-x", "2")
    # scale not vanishing at the origin
    with pytest.raises(DomainError):
        spec_from_expressions("x + 1", "2")
    # negative speed density
    with pytest.raises(DomainError):
        spec_from_expressions("x", "-2")


def test_custom_spec_with_overflowing_scale_builds_without_warnings():
    # S(1e6) = inf is unbounded growth: the recurrence probe must accept it
    # without leaking numpy's overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = spec_from_expressions("exp(x)-1", "2")
    assert math.isclose(spec.scale(1.0), math.e - 1.0)


def test_oracle_tail_matches_density_by_quadrature():
    from scipy.integrate import quad
    spec = bessel_spec(1.5)
    t = 2.0
    val, _ = quad(lambda s: spec.oracles.levy_density(s), t, np.inf)
    assert abs(val - spec.oracles.levy_tail(t)) < 1e-10


def test_oracle_kernels_near_the_boundary():
    # scipy's ive(nu, w) is nan (nu < 0) or 0 (nu > 0) once w nears the
    # least normal float; there the kernels take their leading terms
    for delta in (0.2, 1.0, 1.8):
        p = bessel_spec(delta).oracles.transition_density
        assert p(1.0, 1e-310, 1.0) == p(1.0, 0.0, 1.0)
    spec = bessel_spec(1.8)
    a = spec.alpha
    lead = 0.5 * 1e-310 ** (2 * a) * 2.0 ** -a * math.exp(-0.5) \
        / (a * gamma(a))
    assert math.isclose(spec.oracles.killed_density(1.0, 1e-310, 1.0), lead,
                        rel_tol=1e-13)


# QUADPACK's error is an estimate, not a bound: on these integrals it falls
# short of the true error about once in 1,500 uniform draws, and a targeted
# search finds misses of up to twice the requested tolerance, so the
# identity is checked within the reported error plus ten tolerances
@settings(max_examples=40, deadline=None)
@given(delta=st.floats(0.1, 1.9), s=st.floats(0.05, 4.0),
       t=st.floats(0.05, 4.0), x=st.floats(0.0, 3.0), y=st.floats(0.0, 3.0))
def test_oracle_kernels_are_chapman_kolmogorov(delta, s, t, x, y):
    # int_0^inf p(s; x, z) p(t; z, y) m(dz) = p(s + t; x, y), with the
    # integral over [0, inf) mapped onto (0, 1]
    spec, q = bessel_spec(delta), DEFAULT_QUADRATURE
    for p in (spec.oracles.transition_density, spec.oracles.killed_density):
        val, err = integrate(
            lambda z: p(s, x, z) * p(t, z, y) * spec.speed_density(z),
            0.0, np.inf)
        exact = p(s + t, x, y)
        tol = max(q.epsabs, q.epsrel * exact)
        assert abs(val - exact) <= err + 10.0 * tol, \
            (p.__name__, val, err, exact)
