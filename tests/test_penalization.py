import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from levykit import montecarlo as mc
from levykit import penalization as pz
from levykit import spectral as sp
from levykit.diffusions import (bessel_spec, brownian_spec,
                                spec_from_expressions)
from levykit.errors import (DomainError, ResolutionError,
                            UnsupportedSpecError)

BM = brownian_spec()
B15 = bessel_spec(1.5)


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------

def test_indicator_weight_shapes():
    w = pz.indicator_weight(1.0)
    assert w.name == "indicator(1)"
    assert float(w.h(0.5)) == 1.0
    assert float(w.h(1.5)) == 0.0
    assert float(w.cdf(0.25)) == 0.25
    assert float(w.cdf(3.0)) == 1.0


def test_triangular_weight_shapes():
    w = pz.triangular_weight(2.0)
    assert float(w.h(0.0)) == 1.0
    assert float(w.h(2.0)) == 0.0
    assert float(w.cdf(1.0)) == 0.75
    qs = w.quantile(np.array([0.0, 0.75, 1.0]))
    assert np.allclose(qs, [0.0, 1.0, 2.0])


def test_weight_sampling_matches_cdf():
    w = pz.triangular_weight(2.0)
    rng = np.random.default_rng(8)
    ys = w.sample(200_000, rng)
    emp = float((ys <= 1.0).mean())
    assert abs(emp - 0.75) < 4 * math.sqrt(0.75 * 0.25 / 200_000)


def test_weight_validation():
    # density that integrates to 1/2
    with pytest.raises(DomainError):
        pz.WeightFunction(h=lambda y: np.full_like(np.asarray(y, float),
                                                   0.5),
                          cdf=lambda y: np.asarray(y, float) * 0.5,
                          support_end=1.0)
    # increasing density violates the shape requirement
    with pytest.raises(DomainError):
        pz.WeightFunction(h=lambda y: 2.0 * np.asarray(y, float),
                          cdf=lambda y: np.asarray(y, float) ** 2,
                          support_end=1.0)
    with pytest.raises(DomainError):
        pz.indicator_weight(0.0)


def test_weight_from_table_roundtrip():
    xs = np.linspace(0.0, 2.0, 200)
    w = pz.weight_from_table(xs, 1.0 - xs / 2.0)
    ref = pz.triangular_weight(2.0)
    probe = np.array([0.2, 0.9, 1.7])
    assert np.allclose(w.h(probe), ref.h(probe), atol=1e-6)
    assert np.allclose(w.cdf(probe), ref.cdf(probe), atol=1e-6)
    rng = np.random.default_rng(0)
    ys = w.sample(1000, rng)
    assert np.all((ys >= 0) & (ys <= 2.0))


def test_weight_from_json_kinds():
    w = pz.weight_from_json({"kind": "indicator", "ell0": 2.0})
    assert w.support_end == 2.0
    w = pz.weight_from_json({"kind": "triangular", "K": 1.5})
    assert w.support_end == 1.5
    w = pz.weight_from_json({"kind": "table",
                             "xs": list(np.linspace(0, 1, 50)),
                             "hs": list(np.full(50, 1.0))})
    assert abs(float(w.cdf(0.5)) - 0.5) < 1e-9
    with pytest.raises(DomainError):
        pz.weight_from_json({"kind": "cauchy"})


# ---------------------------------------------------------------------------
# the martingale itself
# ---------------------------------------------------------------------------

def test_martingale_value_at_origin_is_one():
    for w in (pz.indicator_weight(1.0), pz.triangular_weight(2.0)):
        assert float(pz.martingale_value(BM, w, 0.0, 0.0)) == 1.0


def test_martingale_value_vanishes_past_support():
    w = pz.triangular_weight(2.0)
    assert float(pz.martingale_value(BM, w, 0.0, 2.0)) == 0.0
    assert float(pz.martingale_value(BM, w, 1.3, 5.0)) == 0.0


def test_martingale_value_broadcasts():
    w = pz.indicator_weight(1.0)
    out = pz.martingale_value(BM, w, np.linspace(0, 2, 5),
                              np.linspace(0, 2, 5))
    assert out.shape == (5,)


def test_unit_mean_exact_route():
    est = pz.penalized_expectation(BM, pz.indicator_weight(1.0), 1.0,
                                   lambda x, ell: 1.0, n=200_000, seed=0)
    assert abs(est.mean - 1.0) < 3 * est.std_error


def test_unit_mean_pathwise_route_brownian():
    row, = pz.martingale_property_mc(BM, [pz.indicator_weight(1.0)], [0.5],
                                     n_paths=20_000, dt=1e-3, seed=0)
    assert abs(row["mean"] - 1.0) < 4 * row["std_error"]


def test_exact_route_is_brownian_only():
    with pytest.raises(UnsupportedSpecError):
        pz.penalized_expectation(B15, pz.indicator_weight(1.0), 1.0,
                                 lambda x, ell: 1.0, n=100)


def test_penalized_expectation_vs_stopped_form():
    # E_0[M_u 1{L_u >= l}] = (1 - H(l)) P(tau_l <= u), exact both sides
    w = pz.indicator_weight(1.0)
    ell, u = 0.5, 2.0
    est = pz.penalized_expectation(BM, w, u,
                                   lambda x, lt: (lt >= ell).astype(float),
                                   n=100_000, seed=2)
    target = (1.0 - float(w.cdf(ell))) \
        * 2.0 * (1.0 - norm.cdf(ell / math.sqrt(u)))
    assert abs(est.mean - target) < 3 * est.std_error


def test_horizon_doubling_frozen():
    assert pz.penalization_horizon(BM, pz.indicator_weight(1.0),
                                   seed=4) == 2048.0
    assert pz.penalization_horizon(BM, pz.triangular_weight(2.0),
                                   seed=4) == 4096.0
    assert pz.penalization_horizon(B15, pz.indicator_weight(1.0),
                                   seed=4) == 524288.0


def test_horizon_full_reports_leftover():
    res = pz.penalization_horizon(BM, pz.indicator_weight(1.0), seed=4,
                                  full=True)
    assert res["u"] == 2048.0
    assert 0.0 < res["leftover"] < 0.01
    assert res["leftover_se"] > 0.0


@pytest.mark.parametrize("n", [0, -1])
def test_horizon_without_paths_is_a_domain_error(n):
    with pytest.raises(DomainError, match="at least one path"):
        pz.penalization_horizon(BM, pz.indicator_weight(1.0), n=n, seed=4)


@pytest.mark.parametrize("n", [2.5, 20.5])
@pytest.mark.parametrize("check", [
    lambda n: pz.penalization_horizon(BM, pz.indicator_weight(1.0), 0.01,
                                      n=n, seed=0),
    lambda n: pz.post_lastzero_marginal_check(pz.indicator_weight(1.0),
                                              u=5.0, n=n, seed=0),
], ids=["horizon", "post_lastzero"])
def test_a_fractional_path_count_is_a_domain_error(check, n):
    # these draw one stream, not chunks, and raised numpy's TypeError
    with pytest.raises(DomainError):
        check(n)


@settings(max_examples=200, deadline=None)
@given(ell0=st.floats(0.1, 10.0), log_u=st.floats(-2.0, 8.0))
def test_leftover_error_brackets_the_indicator_closed_form(ell0, log_u):
    # the mean of erf(a y) over uniform y on [0, ell0)
    u = 10.0 ** log_u
    a = 1.0 / math.sqrt(2.0 * u)
    exact = (ell0 * math.erf(a * ell0) + math.expm1(-(a * ell0) ** 2)
             / (a * math.sqrt(math.pi))) / ell0
    val, err = pz.penalization_leftover(BM, pz.indicator_weight(ell0), u,
                                        with_error=True)
    assert abs(val - exact) <= err + 8 * math.ulp(exact)


@pytest.mark.parametrize("weight, u", [(pz.indicator_weight(1.0), 2048.0),
                                       (pz.triangular_weight(2.0), 4096.0)])
def test_certified_horizon_is_the_frozen_monte_carlo_one(weight, u):
    assert pz._certified_horizon(BM, weight, 0.01) == u
    val, err = pz.penalization_leftover(BM, weight, u, with_error=True)
    assert val + err < 0.01 <= pz.penalization_leftover(BM, weight, u / 2)


def test_leftover_is_brownian_only():
    for spec in (B15, spec_from_expressions("x", "2")):
        with pytest.raises(UnsupportedSpecError, match="positive stable"):
            pz.penalization_leftover(spec, pz.indicator_weight(1.0), 10.0)


@pytest.mark.parametrize("u", [math.nan, 0.0, -1.0, math.inf])
def test_leftover_needs_a_positive_finite_horizon(u):
    with pytest.raises(DomainError, match="u must be positive"):
        pz.penalization_leftover(BM, pz.indicator_weight(1.0), u)


def test_law_checks_default_to_the_certified_horizon():
    ind = pz.indicator_weight(1.0)
    auto = pz.linfty_law_check(BM, ind, n=2000, seed=5)
    fixed = pz.linfty_law_check(BM, ind, n=2000, u=2048.0, seed=5)
    assert auto["u"] == 2048.0
    for key in ("max_gap", "weighted_cdf", "target_cdf", "cdf_se"):
        assert np.asarray(auto[key]).tobytes() \
            == np.asarray(fixed[key]).tobytes()
    auto = pz.post_lastzero_marginal_check(ind, n=2000, seed=5)
    fixed = pz.post_lastzero_marginal_check(ind, u=2048.0, n=2000, seed=5)
    assert auto["u"] == 2048.0
    for key in ("tv_distance", "bin_probs", "corr", "corr_se"):
        assert np.asarray(auto[key]).tobytes() \
            == np.asarray(fixed[key]).tobytes()


def test_weight_without_quantile_runs_both_checks():
    bare = dataclasses.replace(pz.triangular_weight(2.0), quantile=None)
    with pytest.raises(UnsupportedSpecError, match="no quantile"):
        pz.penalization_horizon(BM, bare, n=100, seed=0)
    assert pz.linfty_law_check(BM, bare, n=500, seed=0)["u"] == 4096.0
    assert pz.post_lastzero_marginal_check(bare, n=500, seed=0)["u"] \
        == 4096.0


@pytest.mark.parametrize("grid_points", [0, 1])
def test_linfty_law_check_needs_two_grid_points(grid_points):
    with pytest.raises(DomainError, match="grid_points"):
        pz.linfty_law_check(BM, pz.indicator_weight(1.0), n=100, u=4.0,
                            seed=0, grid_points=grid_points)


def test_linfty_law_check_converges():
    res = pz.linfty_law_check(BM, pz.indicator_weight(1.0), n=20_000,
                              seed=0)
    assert res["max_gap"] < 0.08
    assert res["weighted_cdf"].shape == res["target_cdf"].shape
    # self-normalization pins both ends
    assert res["weighted_cdf"][0] == pytest.approx(0.0, abs=1e-12)
    assert res["weighted_cdf"][-1] == pytest.approx(1.0, abs=1e-12)
    gaps = np.abs(res["weighted_cdf"] - res["target_cdf"])
    inner = slice(5, -5)
    z = gaps[inner] / np.maximum(res["cdf_se"][inner], 1e-12)
    assert float(z.max()) < 4.0


def test_linfty_law_check_brownian_only():
    with pytest.raises(UnsupportedSpecError):
        pz.linfty_law_check(B15, pz.indicator_weight(1.0), n=100)


@st.composite
def _binned_draws(draw):
    grid = np.linspace(0.0, draw(st.floats(0.1, 10.0)),
                       draw(st.integers(2, 12)))
    # exactly on a grid point, between points, or beyond the support end
    on = st.sampled_from(grid.tolist())
    off = st.floats(0.0, 2.0 * grid[-1])
    values = draw(st.lists(on | off, max_size=50))
    w = draw(st.lists(st.floats(0.0, 10.0), min_size=len(values),
                      max_size=len(values)))
    return grid, np.array(values, dtype=float), np.array(w, dtype=float)


@settings(max_examples=60, deadline=None)
@given(_binned_draws())
@example((np.linspace(0.0, 1.0, 2), np.array([0.0, 1.0, 1.5, 0.5]),
          np.array([1.0, 2.0, 4.0, 8.0])))
def test_weights_below_match_the_direct_sums(case):
    grid, values, w = case
    num, num2 = pz._weights_below(grid, values, w, w * w)
    for got, v in ((num, w), (num2, w * w)):
        want = np.array([v[values <= g].sum() for g in grid])
        tol = 4 * np.finfo(float).eps * np.sum(np.abs(v))
        assert np.all(np.abs(got - want) <= tol), (got, want)


def test_linfty_law_check_memory_is_linear_in_n():
    # the grid-by-draw boolean matrix and its float copy for BLAS peaked
    # at 46 MB here; the binned running sums hold O(n) at a time
    tracemalloc.start()
    try:
        pz.linfty_law_check(BM, pz.indicator_weight(1.0), n=25_000,
                            u=2048.0, seed=1, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_post_lastzero_marginal_and_independence():
    res = pz.post_lastzero_marginal_check(pz.indicator_weight(1.0), v=1.0,
                                          n=100_000, seed=0)
    assert res["tv_distance"] < 0.05
    assert abs(res["corr"]) < 3 * res["corr_se"]
    assert abs(sum(res["bin_probs"]) - 1.0) < 1e-9


@pytest.mark.parametrize("n", [-1, 0, 1, 19])
def test_post_lastzero_needs_a_path_per_batch(n):
    with pytest.raises(DomainError, match="n >= 20"):
        pz.post_lastzero_marginal_check(pz.indicator_weight(1.0), v=1.0,
                                        u=5.0, n=n, seed=0)
    assert pz.post_lastzero_marginal_check(
        pz.indicator_weight(1.0), v=1.0, u=5.0, n=20, seed=0)["n_paths"] == 20


@pytest.mark.parametrize("v,u", [(math.nan, 10.0), (1.0, math.nan),
                                 (1.0, math.inf)])
def test_post_lastzero_needs_finite_times(v, u):
    with pytest.raises(DomainError, match="finite"):
        pz.post_lastzero_marginal_check(pz.indicator_weight(1.0), v=v, u=u,
                                        n=200, seed=0)


@pytest.mark.parametrize("v", [0.5, 1.0, 2.0, 3.7])
def test_post_lastzero_bins_are_scipy_maxwell_quantiles(monkeypatch, v):
    from scipy.stats import maxwell
    edges, histogram = [], np.histogram
    monkeypatch.setattr(np, "histogram", lambda a, bins, weights: (
        edges.append(bins) or histogram(a, bins=bins, weights=weights)))
    pz.post_lastzero_marginal_check(pz.indicator_weight(1.0), v=v,
                                    u=v + 4.0, n=200, seed=0)
    want = maxwell.ppf(np.linspace(0.0, 1.0, 11), scale=math.sqrt(v))
    assert edges[0].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the conditioned diffusion
# ---------------------------------------------------------------------------

def test_uparrow_density_brownian_closed_form():
    y, t = 0.7, 2.0
    got = pz.uparrow_density(BM, 0.0, y, t)
    exact = math.exp(-y * y / (2 * t)) / math.sqrt(2 * math.pi * t ** 3)
    assert abs(got - exact) < 1e-12


def test_uparrow_density_symmetric():
    for spec in (BM, B15):
        a = pz.uparrow_density(spec, 0.5, 0.9, 1.0)
        b = pz.uparrow_density(spec, 0.9, 0.5, 1.0)
        assert a == pytest.approx(b, rel=1e-12)


def test_uparrow_density_spectral_route_agrees():
    got = pz.uparrow_density(BM, 0.0, 0.7, 2.0,
                             measure=sp.bessel_killed_measure(0.5))
    exact = math.exp(-0.7 ** 2 / 4.0) / math.sqrt(2 * math.pi * 8.0)
    assert abs(got - exact) < 1e-9


def test_uparrow_mass_is_one():
    for spec in (BM, B15):
        assert abs(pz.uparrow_mass(spec, 1.0) - 1.0) < 1e-10


def test_uparrow_mass_custom_spec_is_unsupported(monkeypatch):
    # refused up front, before any quadrature of the spectral density
    def spectral_density(*args, **kwargs):
        raise AssertionError("hitting_density was called")

    monkeypatch.setattr(sp, "hitting_density", spectral_density)
    with pytest.raises(UnsupportedSpecError):
        pz.uparrow_mass(spec_from_expressions("x", "2"), 1.0)


def test_numerator_asymptotics_near_limit():
    # with h = indicator(1), E_a[h(L_t)] = P_a(L_t < 1) and its large-t
    # limit over nu((t, inf)) is S(a) h(0) + 1 = S(1) + 1
    for spec in (BM, B15):
        est = mc.estimate_localtime_tail(spec, 1.0, 1e4, 1.0, 200_000,
                                         seed=7)
        target = (float(spec.scale(1.0)) + 1.0) * sp.levy_tail(spec, 1e4)
        assert abs(est.mean / target - 1.0) < 0.1


def test_martingale_property_thread_invariance():
    w = pz.indicator_weight(1.0)
    rows1 = pz.martingale_property_mc(BM, [w], [0.5], n_paths=20_000,
                                      dt=1e-3, seed=3)
    rows2 = pz.martingale_property_mc(BM, [w], [0.5], n_paths=20_000,
                                      dt=1e-3, seed=3, threads=4)
    assert rows1[0]["mean"] == rows2[0]["mean"]
    assert rows1[0]["std_error"] == rows2[0]["std_error"]


def test_off_grid_horizon_is_a_resolution_error():
    with pytest.raises(ResolutionError):
        pz.martingale_property_mc(BM, [pz.indicator_weight(1.0)],
                                  [0.15, 0.3], dt=0.1)
