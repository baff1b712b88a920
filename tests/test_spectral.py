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
from scipy.special import erf, gammainc

from levykit import spectral as sp
from levykit.diffusions import bessel_exponent_constant, bessel_spec, \
    brownian_spec, spec_from_expressions
from levykit.errors import DomainError, ToleranceError, TruncationError, UnsupportedSpecError

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


# (value, error) hex recorded before the recursion was stored, evaluated
# here with the shorter series first so the longer ones extend it
_PINNED = {
    ("x", "2"): (
        ("hitting_tail", 4.0, "0x1.881d788cab1dcp-2", "0x1.676f8df0211bcp-36"),
        ("hitting_density", 4.0,
         "0x1.6883d022086a8p-5", "0x1.bf9e811e28874p-41"),
        ("hitting_tail", 2.0, "0x1.0a7ef5c18edd1p-1", "0x1.233b09f77892bp-38"),
        ("hitting_density", 2.0,
         "0x1.c1efca49a5004p-4", "0x1.262edad56852bp-38"),
    ),
    ("x^0.5/0.5", "2*x^0.5"): (
        ("hitting_tail", 4.0, "0x1.47c2af70d9e56p-1", "0x1.743364de08154p-38"),
        ("hitting_density", 4.0,
         "0x1.286863002a6ccp-5", "0x1.ee25a4dda0176p-43"),
        ("hitting_tail", 2.0, "0x1.7cc35b06c198dp-1", "0x1.8891b7f0bb13cp-41"),
        ("hitting_density", 2.0,
         "0x1.37124f7e50ac5p-4", "0x1.8473fc09b38bcp-41"),
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


def test_ladder_dies_with_its_spec():
    custom = spec_from_expressions("x", "2")
    sp.eigen_coefficients(custom, 0.5, "C", n_terms=2)
    assert custom in sp._LADDERS
    before, ref = _live_ladders(), weakref.ref(custom)
    del custom
    gc.collect()
    assert ref() is None
    assert _live_ladders() == before - 1


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


def test_domain_errors():
    with pytest.raises(DomainError):
        sp.transition_density(BM, -0.1, 0.5, 1.0)
    with pytest.raises(DomainError):
        sp.transition_density(BM, 0.1, 0.5, 0.0)
    with pytest.raises(DomainError):
        sp.hitting_density(BM, 0.0, 1.0)
