import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, ndtr
from scipy.stats import kstest, ncx2

from levykit import montecarlo as mc
from levykit import penalization as pz
from levykit import spectral as sp
from levykit.diffusions import (bessel_spec, brownian_spec, levy_exponent,
                                spec_from_expressions)
from levykit.errors import (DomainError, ResolutionError,
                            UnsupportedSpecError)
from levykit.quadrature import integrate

BM = brownian_spec()
B15 = bessel_spec(1.5)


# ---------------------------------------------------------------------------
# exact samplers against their laws
# ---------------------------------------------------------------------------

def test_hitting_time_sampler_matches_tail():
    rng = np.random.default_rng(12)
    h = mc.sample_hitting_time(B15, 1.0, 200_000, seed=rng)
    emp = float((h > 2.0).mean())
    exact = float(gammainc(0.25, 1.0 / 4.0))
    se = math.sqrt(exact * (1 - exact) / 200_000)
    assert abs(emp - exact) < 4 * se
    assert np.all(mc.sample_hitting_time(BM, 0.0, 5,
                                         seed=np.random.default_rng(0))
                  == 0.0)


def test_tau_sampler_laplace_transform():
    # E exp(-lam tau_ell) = exp(-ell Phi(lam)) for the exact stable draw
    for spec, seed in ((BM, 21), (B15, 22)):
        s = mc.sample_tau(spec, 1.5, 200_000, seed=seed)
        for lam in (0.5, 2.0):
            emp = float(np.mean(np.exp(-lam * s.values)))
            exact = math.exp(-1.5 * levy_exponent(spec, lam))
            se = float(np.std(np.exp(-lam * s.values), ddof=1)
                       / math.sqrt(s.values.size))
            assert abs(emp - exact) < 4 * se, (spec.name, lam)


def test_tau_brownian_is_squared_reciprocal_gaussian():
    s = mc.sample_tau(BM, 2.0, 100_000, seed=7)
    # median of ell^2 / N^2 is ell^2 / z_{0.75}^2
    from scipy.stats import norm
    med = float(np.median(s.values))
    exact = 4.0 / norm.ppf(0.75) ** 2
    assert abs(med / exact - 1.0) < 0.02


def _kanter_whole_array(alpha, n, rng):
    """The transform on the whole array at once, as it was before it ran
    in slices: the reference the sliced one must equal bit for bit.  At
    alpha = 1/2 it is the closed form ``1 / (4 W cos^2(theta/2))``."""
    theta = rng.uniform(0.0, math.pi, size=n)
    w = rng.standard_exponential(size=n)
    if alpha == 0.5:
        return 1.0 / (np.cos(theta / 2) ** 2 * w * 4.0)
    log_a = (alpha * np.log(np.sin(alpha * theta))
             + (1.0 - alpha) * np.log(np.sin((1.0 - alpha) * theta))
             - np.log(np.sin(theta))) / (1.0 - alpha)
    return np.exp((1.0 - alpha) / alpha * (log_a - np.log(w)))


@settings(max_examples=20, deadline=None)
@given(alpha=st.one_of(st.just(0.5), st.floats(0.02, 0.98)),
       n=st.sampled_from([1, 24_999, 25_000, 25_001, 60_001]),
       seed=st.integers(0, 2**32 - 1))
def test_sliced_stable_draws_equal_the_whole_array_formula(alpha, n, seed):
    want = _kanter_whole_array(alpha, n, np.random.default_rng(seed))
    for threads in (1, 2, 3):
        got = mc._standard_positive_stable(alpha, n,
                                           np.random.default_rng(seed),
                                           threads)
        assert got.tobytes() == want.tobytes(), threads


def test_brownian_stable_draws_are_within_4_ulp():
    # S = (sin(theta/2) / sin theta)^2 / W at alpha = 1/2, evaluated in
    # long double at the same (theta, W): the closed form rounds a cosine,
    # its square and two more operations, so it stays within a few ulp
    if not np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
        pytest.skip("long double is no wider than double here")
    n = 50_000
    got = mc._standard_positive_stable(0.5, n, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    theta = (rng.random(n) * math.pi).astype(np.longdouble)
    w = rng.standard_exponential(size=n).astype(np.longdouble)
    want = (np.sin(theta / 2) / np.sin(theta)) ** 2 / w
    ulps = np.abs(got - want) / np.spacing(got)
    assert float(ulps.max()) <= 4.0


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_stable_draws_leave_the_stream_after_their_uniforms_and_exponentials(
        alpha):
    n = 60_001
    rng = np.random.default_rng(9)
    mc._standard_positive_stable(alpha, n, rng, 2)
    ref = np.random.default_rng(9)
    ref.random(n)
    ref.standard_exponential(size=n)
    assert rng.random() == ref.random()


class _ZeroUniforms:
    """A generator whose uniforms are exactly 0 at every third draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, n):
        u = self._rng.random(n)
        u[::3] = 0.0
        return u

    def standard_exponential(self, size):
        return self._rng.standard_exponential(size=size)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_a_zero_theta_draw_takes_the_limit_of_kanters_formula(alpha):
    # the log route would give -inf - -inf = NaN there, with numpy
    # warnings; the limit is A(0) = alpha^{alpha/beta} beta, and no other
    # draw moves
    n, beta = 30_000, 1.0 - alpha
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = mc._standard_positive_stable(alpha, n, _ZeroUniforms(4), 1)
    rng = _ZeroUniforms(4)
    theta = rng.random(n) * math.pi
    w = rng.standard_exponential(size=n)
    zero = theta == 0.0
    want = (alpha ** (alpha / beta) * beta / w[zero]) ** (beta / alpha)
    np.testing.assert_allclose(got[zero], want, rtol=1e-14)
    rest = _kanter_whole_array(alpha, n, np.random.default_rng(4))
    assert got[~zero].tobytes() == rest[~zero].tobytes()


def test_no_stable_draws_is_an_empty_array():
    for threads in (1, 2):
        out = mc._standard_positive_stable(0.5, 0, np.random.default_rng(0),
                                           threads)
        assert out.shape == (0,) and out.dtype == np.float64
    assert mc.sample_tau(BM, 1.0, 0, seed=0, threads=2).values.size == 0


def test_local_time_marginal_mean():
    # E_0 L_t = sqrt(2 t / pi) for Brownian motion
    lt = mc.sample_local_time(BM, 0.0, 2.0, 200_000, seed=31)
    exact = math.sqrt(4.0 / math.pi)
    se = float(np.std(lt, ddof=1) / math.sqrt(lt.size))
    assert abs(float(lt.mean()) - exact) < 4 * se


@pytest.mark.parametrize("spec", [BM, B15], ids=["brownian", "bessel"])
def test_local_time_draws_are_the_first_passage_inversion(spec):
    # computed in place, the same operations in the same order
    n = 60_001
    rng = np.random.default_rng(13)
    h = mc.sample_hitting_time(spec, 1.0, n, seed=rng)
    tau1 = mc.sample_tau(spec, 1.0, n, seed=rng).values
    want = (np.maximum(2.0 - h, 0.0) / tau1) ** spec.alpha
    got = mc.sample_local_time(spec, 1.0, 2.0, n, seed=13)
    assert got.tobytes() == want.tobytes()


def test_local_time_boundary_atom():
    # started at x > 0, P(L_t = 0) = P(H_0 > t)
    lt = mc.sample_local_time(BM, 1.0, 1.0, 200_000, seed=32)
    emp = float((lt == 0.0).mean())
    exact = 0.682689492137087
    assert abs(emp - exact) < 4 * math.sqrt(exact * (1 - exact) / 200_000)


def test_brownian_state_second_moments():
    st = mc.sample_brownian_state(2.0, 200_000,
                                  seed=np.random.default_rng(11))
    # E L_u^2 = u and E X_u^2 = u
    for key in ("local_time", "position"):
        vals = st[key] ** 2
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
        assert abs(float(vals.mean()) - 2.0) < 4 * se, key
    g = st["last_zero"]
    assert np.all((g >= 0) & (g <= 2.0))
    se = float(np.std(g, ddof=1) / math.sqrt(g.size))
    assert abs(float(g.mean()) - 1.0) < 4 * se  # arcsine mean u/2


# ---------------------------------------------------------------------------
# the rejection-free meander pair against its exact law
# ---------------------------------------------------------------------------

MEANDER_CASES = [(1.0, 1.0), (2.0, 1.0), (5.0, 1.0), (50.0, 1.0), (3.0, 0.2)]


def _meander_draws(r, v, n, seed):
    return mc._meander_pair(np.full(n, r), v, np.random.default_rng(seed))


def _meander_cdf_at_sorted(r, v, xs):
    """CDF of the meander marginal at the sorted points ``xs``: its
    density ``sqrt(r/v) (y/v) exp(-y^2/2v) (2 Phi(y/sqrt(r-v)) - 1)``
    integrated from one point to the next and summed."""
    gap = math.sqrt(r - v)

    def density(y):
        stay = 2.0 * ndtr(y / gap) - 1.0 if gap > 0 else 1.0
        return math.sqrt(r / v) * (y / v) * np.exp(-y * y / (2 * v)) * stay

    assert abs(integrate(density, 0.0, np.inf)[0] - 1.0) < 1e-9
    return np.cumsum([integrate(density, a, b)[0]
                      for a, b in zip(np.r_[0.0, xs[:-1]], xs)])


@pytest.mark.parametrize("r,v", MEANDER_CASES)
def test_meander_pair_marginals_by_ks(r, v):
    xv, xr = _meander_draws(r, v, 10_000, seed=int(10 * r + 100 * v))
    assert kstest(xr, lambda x: -np.expm1(-x * x / (2 * r))).pvalue > 0.01
    xs = np.sort(xv)
    cdf = _meander_cdf_at_sorted(r, v, xs)
    # interpolating at its own knots reads the quadrature CDF exactly
    assert kstest(xv, lambda x: np.interp(x, xs, cdf)).pvalue > 0.01


@pytest.mark.parametrize("r,v", MEANDER_CASES)
def test_meander_pair_cross_moment(r, v):
    # E_y[X_w; no zero by w] = y makes E[X_v X_r] = E[X_v^2 / P(no zero)]
    # = 2 sqrt(r v)
    xv, xr = _meander_draws(r, v, 200_000, seed=int(10 * r + 100 * v) + 1)
    prod = xv * xr
    se = float(np.std(prod, ddof=1)) / math.sqrt(prod.size)
    assert abs(float(prod.mean()) - 2.0 * math.sqrt(r * v)) < 4 * se


def test_meander_pair_at_its_end_is_the_end():
    xv, xr = _meander_draws(2.5, 2.5, 10_000, seed=5)
    assert xv.tobytes() == xr.tobytes()


# v is r or at most 0.99 r: nearer r, c r - c v cancels and moves the
# bridge variance by more than the rounding this property allows
@settings(max_examples=100, deadline=None)
@given(r=st.floats(1e-3, 1e3), frac=st.one_of(st.just(1.0),
                                               st.floats(0.01, 0.99)),
       c=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
def test_meander_pair_brownian_scaling(r, frac, c, seed):
    v = r * frac
    base = _meander_draws(r, v, 50, seed)
    scaled = _meander_draws(c * r, c * v, 50, seed)
    for b, s in zip(base, scaled):
        assert np.max(np.abs(s - math.sqrt(c) * b)) \
            <= 1e-13 * math.sqrt(c * r)


# ---------------------------------------------------------------------------
# grid simulation
# ---------------------------------------------------------------------------

def test_grid_validation_at_retained_entry_points():
    # t off the dt grid, and a band narrower than sqrt(dt)
    with pytest.raises(ResolutionError):
        mc.occupation_bias(BM, 0.6, 0.3, 1.0)
    with pytest.raises(ResolutionError):
        mc.occupation_bias(BM, 0.05, 1e-2, 1.0)
    # the grid layer is preset-only
    with pytest.raises(UnsupportedSpecError):
        mc.doob_meyer_check(spec_from_expressions("x", "2"), [0.1],
                            n_paths=100, dt=1e-2, seed=1)


@pytest.mark.parametrize("dt", [1e-3, 1e-2])
@pytest.mark.parametrize("x0", [0.0, 0.03, 1.0])
@pytest.mark.parametrize("delta", [0.5, 1.5, 1.9, 1.001])
def test_bessel_grid_step_law(delta, x0, dt):
    """One grid step of the squared Bessel process moves ``x0^2`` to
    ``dt * chi2(delta, x0^2/dt)``, mean ``x0^2 + delta dt``, variance
    ``2 delta dt^2 + 4 x0^2 dt``.  At ``delta = 1.001`` the factor
    ``U^{1/a}`` underflows, and the states must stay finite and
    nonnegative."""
    n = 40_000
    x = np.full(n, x0)
    mc._make_stepper(bessel_spec(delta), dt, n)(x, np.random.default_rng(7))
    assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
    z = x * x
    assert kstest(z, ncx2(delta, x0 * x0 / dt, scale=dt).cdf).pvalue > 1e-3
    mean, var = x0 * x0 + delta * dt, 2 * delta * dt * dt + 4 * x0 * x0 * dt
    assert abs(z.mean() - mean) < 5 * math.sqrt(var / n)
    dev2 = (z - z.mean()) ** 2
    assert abs(z.var(ddof=1) - var) < 5 * dev2.std() / math.sqrt(n)


@pytest.mark.parametrize("spec", [BM, B15], ids=["brownian", "bessel"])
def test_grid_step_allocates_less_than_a_state_array(spec):
    x = np.full(mc.DEFAULT_CHUNK, 0.1)
    rng = np.random.default_rng(0)
    step = mc._make_stepper(spec, 1e-3, x.size)
    step(x, rng)
    tracemalloc.start()
    try:
        step(x, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes


def test_occupation_bias_frozen_values():
    assert mc.occupation_bias(BM, 0.01, 1e-4, 0.5) \
        == 0.0024508097698808795
    assert mc.occupation_bias(BM, 0.01, 1e-4, 1.0) \
        == 0.0024480558305387534
    assert mc.occupation_bias(B15, 0.01, 1e-4, 0.5) \
        == 0.11051995840158102


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def test_hitting_tail_estimator_exact_route():
    est = mc.estimate_hitting_tail(BM, 1.0, 1.0, 100_000, seed=3)
    exact = 0.682689492137087
    assert est.n_paths == 100_000
    assert abs(est.mean - exact) < 3 * est.std_error


def test_localtime_tail_estimator_against_exact_split():
    # P_1(L_1 <= 0.4) = P(H_0 + tau_0.4 > 1)
    est = mc.estimate_localtime_tail(BM, 1.0, 1.0, 0.4, 200_000, seed=9)
    # independent check by 2-D quadrature of the closed densities
    from scipy.integrate import quad
    inner, _ = quad(
        lambda s: BM.oracles.hitting_density(1.0, s)
        * (1.0 - float(sp.hitting_tail(BM, 0.4, 1.0 - s))), 0.0, 1.0,
        limit=200)
    exact = 1.0 - inner  # tau_l from 0 has the law of H from x=l
    assert abs(est.mean - exact) < 4 * est.std_error


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 30), x=st.floats(0.05, 5.0),
       t=st.floats(0.05, 50.0), seed=st.integers(0, 2 ** 32 - 1))
def test_frequency_error_is_positive_inside_the_unit_interval(n, x, t, seed):
    # P_x(H_0 > t) and P_x(L_t <= 1) lie strictly inside (0, 1); a count
    # of 0 or n takes the Wilson half-width 1/(2(n+1)), never 0 +- 0
    for est in (mc.estimate_hitting_tail(BM, x, t, n, seed=seed),
                mc.estimate_localtime_tail(BM, x, t, 1.0, n, seed=seed)):
        assert est.std_error > 0
        if est.mean in (0.0, 1.0):
            assert est.std_error == 0.5 / (n + 1)
        else:
            assert est.std_error == math.sqrt(est.mean * (1 - est.mean) / n)


def test_levy_exponent_estimator():
    est = mc.levy_exponent_mc(BM, 2.0, ell=1.5, n=200_000, seed=6)
    assert abs(est.mean - 2.0) < 3 * est.std_error
    zero = mc.levy_exponent_mc(BM, 0.0, n=10)
    assert zero.mean == 0.0 and zero.std_error == 0.0


def test_doob_meyer_small_run():
    rows = mc.doob_meyer_check(BM, [0.5], n_paths=20_000, dt=1e-3, seed=0)
    r = rows[0]
    assert abs(r["gap"]) < 3 * r["std_error"]
    assert r["bias_correction"] > 0
    assert r["local_mean"] == pytest.approx(
        r["scale_mean"] - r["gap"])


def test_estimator_determinism_and_thread_invariance():
    a = mc.estimate_localtime_tail(B15, 1.0, 100.0, 1.0, 60_000, seed=42)
    b = mc.estimate_localtime_tail(B15, 1.0, 100.0, 1.0, 60_000, seed=42)
    c = mc.estimate_localtime_tail(B15, 1.0, 100.0, 1.0, 60_000, seed=42,
                                   threads=3)
    assert a.mean == b.mean == c.mean
    assert a.std_error == b.std_error == c.std_error
    d = mc.estimate_localtime_tail(B15, 1.0, 100.0, 1.0, 60_000, seed=43)
    assert d.mean != a.mean


def test_resolve_threads_env():
    assert mc.resolve_threads(None) == len(os.sched_getaffinity(0))
    assert mc.resolve_threads(2) == 2


def _no_pool(*args, **kwargs):
    raise AssertionError("a pool was started")


def test_one_slice_starts_no_pool(monkeypatch):
    monkeypatch.setattr(mc, "ThreadPoolExecutor", _no_pool)
    assert mc.sample_tau(BM, 1.0, mc.DEFAULT_CHUNK, seed=1,
                         threads=2).values.size == mc.DEFAULT_CHUNK


def test_threads_env_one_runs_serially(monkeypatch):
    monkeypatch.setattr(mc, "ThreadPoolExecutor", _no_pool)
    n = 3 * mc.DEFAULT_CHUNK
    assert mc.estimate_hitting_tail(B15, 1.0, 2.0, n, seed=1,
                                    threads=1).n_paths == n


@pytest.mark.parametrize("draw", [
    lambda seed: mc.sample_hitting_time(B15, 1.0, 50, seed=seed),
    lambda seed: mc.sample_tau(B15, 1.5, 50, seed=seed).values,
    lambda seed: mc.sample_local_time(B15, 1.0, 2.0, 50, seed=seed),
    lambda seed: np.concatenate(list(
        mc.sample_brownian_state(2.0, 50, seed=seed).values())),
], ids=["hitting", "tau", "local_time", "brownian_state"])
def test_a_generator_seed_draws_what_its_integer_draws(draw):
    a = draw(7)
    b = draw(np.random.default_rng(7))
    assert a.tobytes() == b.tobytes()


_ONE_STREAM = {
    "sample_hitting_time": lambda s: mc.sample_hitting_time(B15, 1.0, 10,
                                                            seed=s),
    "sample_tau": lambda s: mc.sample_tau(B15, 1.5, 10, seed=s),
    "sample_local_time": lambda s: mc.sample_local_time(B15, 1.0, 2.0, 10,
                                                        seed=s),
    "sample_brownian_state": lambda s: mc.sample_brownian_state(2.0, 10,
                                                                seed=s),
    "penalization_horizon": lambda s: pz.penalization_horizon(
        BM, pz.indicator_weight(1.0), 0.5, n=10, seed=s),
    "post_lastzero_marginal_check": lambda s: pz.post_lastzero_marginal_check(
        pz.indicator_weight(1.0), u=5.0, n=20, seed=s),
}
_CHUNKED = {
    "estimate_hitting_tail": lambda s: mc.estimate_hitting_tail(
        B15, 1.0, 2.0, 100, seed=s),
    "estimate_hitting_tail_no_t": lambda s: mc.estimate_hitting_tail(
        B15, 1.0, [], 100, seed=s),
    "estimate_localtime_tail": lambda s: mc.estimate_localtime_tail(
        B15, 1.0, 2.0, 1.0, 100, seed=s),
    "levy_exponent_mc": lambda s: mc.levy_exponent_mc(B15, 1.0, n=100,
                                                      seed=s),
    "levy_exponent_mc_lam_0": lambda s: mc.levy_exponent_mc(B15, 0.0, n=100,
                                                            seed=s),
    "doob_meyer_check": lambda s: mc.doob_meyer_check(
        BM, [0.1], n_paths=100, dt=0.01, seed=s),
    "penalized_expectation": lambda s: pz.penalized_expectation(
        BM, pz.indicator_weight(1.0), 4.0, lambda x, ell: x, n=100, seed=s),
    "linfty_law_check": lambda s: pz.linfty_law_check(
        BM, pz.indicator_weight(1.0), n=100, u=4.0, seed=s),
}


@pytest.mark.parametrize("seed", [-1, 1.5, "7"], ids=["negative", "float",
                                                     "str"])
@pytest.mark.parametrize("call", _ONE_STREAM.values(), ids=_ONE_STREAM)
def test_a_bad_sampler_seed_is_a_domain_error(call, seed):
    # numpy's default_rng raised its own ValueError or TypeError
    with pytest.raises(DomainError, match="a Generator, got"):
        call(seed)


@pytest.mark.parametrize("seed", [-1, 1.5, np.random.default_rng(1)],
                         ids=["negative", "float", "generator"])
@pytest.mark.parametrize("call", _CHUNKED.values(), ids=_CHUNKED)
def test_a_bad_chunked_seed_is_a_domain_error(call, seed):
    # chunks spawn their streams from SeedSequence(seed), which takes no
    # generator; even a call that draws nothing checks its seed
    with pytest.raises(DomainError,
                       match="an integer >= 0 or a sequence of them, got"):
        call(seed)


@pytest.fixture
def new_pools(monkeypatch):
    """Start from an empty pool cache, so a pool kept from an earlier call
    hides nothing; yields the worker count of each pool started."""
    workers, pools = [], {}

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(mc, "_POOLS", pools)
    yield workers
    for pool in pools.values():
        pool.shutdown()


def test_pool_is_no_larger_than_the_chunk_count(new_pools):
    for _ in range(2):      # the second call reuses the kept pool
        mc.estimate_hitting_tail(B15, 1.0, 2.0, 2 * mc.DEFAULT_CHUNK,
                                 seed=1, threads=8)
    assert new_pools == [2]


def test_chunk_workers_start_no_pool_of_their_own(new_pools):
    # a chunk is one slice of the stable transform, so only the chunk
    # pool starts; one stream of three slices starts one pool of three
    mc.estimate_localtime_tail(B15, 1.0, 100.0, 1.0, 2 * mc.DEFAULT_CHUNK,
                               seed=1, threads=8)
    mc.sample_tau(BM, 1.0, 2 * mc.DEFAULT_CHUNK + 1, seed=1, threads=8)
    assert new_pools == [2, 3]


def _run_isolated(code: str) -> str:
    """Run ``code`` in a fresh interpreter under a hard timeout, so a hang
    fails the test instead of stalling the suite; returns its stdout."""
    src = str(Path(mc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("the call hung")
    assert out.returncode == 0, out.stderr
    return out.stdout


_NESTED = """
import numpy as np
from levykit import montecarlo as mc, penalization as pz
from levykit.diffusions import brownian_spec
bm = brownian_spec()

def functional(x, ell):
    tau = mc.sample_tau(bm, 1.0, 60_000, seed=2, threads={threads}).values
    return x < np.median(tau)

est = pz.penalized_expectation(bm, pz.indicator_weight(1.0), 4.0,
                               functional, n=50_000, seed=1,
                               threads={threads})
print(est.mean.hex(), est.std_error.hex())
"""


def test_a_sampler_called_from_a_chunk_worker_does_not_deadlock():
    # each chunk's functional samples on the pool the chunk runs on; the
    # nested call runs serially, with the bits of a serial run
    one, two = (_run_isolated(_NESTED.format(threads=k)) for k in (1, 2))
    assert one == two


_FORK = """
import os
from levykit import montecarlo as mc
from levykit.diffusions import brownian_spec
draw = lambda: mc.sample_tau(brownian_spec(), 1.0, 60_000, seed=3,
                             threads=2).values.tobytes()
before = draw()
parent_pool = mc._POOLS[2]
pid = os.fork()
if pid == 0:
    fresh = not mc._POOLS
    same = draw() == before
    os._exit(0 if fresh and same and mc._POOLS[2] is not parent_pool
             else 1)
print(os.waitpid(pid, 0)[1], mc._POOLS[2] is parent_pool)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_pool():
    assert _run_isolated(_FORK).split() == ["0", "True"]


@pytest.mark.parametrize("call, bound", [
    (lambda n: mc.sample_tau(BM, 1.0, n, seed=1, threads=1), 2.25),
    (lambda n: mc.sample_tau(B15, 1.0, n, seed=1, threads=1), 2.5),
    (lambda n: mc.sample_hitting_time(B15, 1.0, n, seed=1), 1.25),
    (lambda n: mc.sample_local_time(BM, 1.0, 1.0, n, seed=1), 3.5),
    (lambda n: pz.penalization_horizon(BM, pz.indicator_weight(1.0), 0.05,
                                       n=n, seed=1, threads=1), 3.25),
], ids=["sample_tau", "sample_tau_bessel", "sample_hitting_time",
        "sample_local_time", "penalization_horizon"])
def test_exact_sampler_peak_memory(call, bound):
    # in units of one array of n doubles: the stable transform runs in
    # place over its theta (at alpha = 1/2 with no scratch, else with two
    # slice-sized scratch buffers), and the hitting time, local time and
    # horizon transform their draws in place
    n = 200_000
    call(n)
    tracemalloc.start()
    try:
        call(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * n


def test_estimator_input_validation():
    with pytest.raises(DomainError):
        mc.estimate_hitting_tail(BM, -1.0, 1.0, 100)
    with pytest.raises(DomainError):
        mc.levy_exponent_mc(BM, -1.0)
    with pytest.raises(UnsupportedSpecError):
        mc.sample_tau(spec_from_expressions("x", "2"), 1.0, 10, seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda v: mc.sample_hitting_time(BM, v, 10, seed=0),
    lambda v: mc.sample_tau(B15, v, 10, seed=0),
    lambda v: mc.sample_local_time(BM, v, 1.0, 10, seed=0),
    lambda v: mc.sample_local_time(BM, 1.0, v, 10, seed=0),
    lambda v: mc.sample_brownian_state(v, 10, seed=0),
    lambda v: mc.estimate_hitting_tail(BM, v, 1.0, 10, seed=0),
    lambda v: mc.estimate_hitting_tail(BM, 1.0, v, 10, seed=0),
    lambda v: mc.estimate_localtime_tail(BM, v, 1.0, 1.0, 10, seed=0),
    lambda v: mc.estimate_localtime_tail(BM, 1.0, v, 1.0, 10, seed=0),
    lambda v: mc.estimate_localtime_tail(BM, 1.0, 1.0, v, 10, seed=0),
    lambda v: mc.levy_exponent_mc(BM, v, n=10, seed=0),
    lambda v: mc.levy_exponent_mc(BM, 1.0, v, n=10, seed=0),
])
def test_non_finite_sampler_inputs_are_domain_errors(call, bad):
    # NaN passed every sign check: a NaN time gave NaN draws, and the
    # hitting-tail estimate at t = NaN read 0 +- 0
    with pytest.raises(DomainError, match="finite"):
        call(bad)


@pytest.mark.parametrize("t", [0.0, -0.5, [0.5, 0.0]])
def test_nonpositive_localtime_horizon_is_a_domain_error(t):
    # P(L_0 <= 0) = 1, but the estimate read 0 +- 0 at t = 0
    with pytest.raises(DomainError, match="t must be positive and finite"):
        mc.estimate_localtime_tail(BM, 0.0, t, 0.0, 10, seed=0)


@pytest.mark.parametrize("call, match", [
    (lambda: mc.estimate_localtime_tail(BM, -1.0, [], 1.0, 10), "x and ell"),
    (lambda: mc.estimate_localtime_tail(BM, 0.0, [], -1.0, 10), "x and ell"),
    (lambda: mc.estimate_hitting_tail(BM, -1.0, [], 10), "x must be"),
    (lambda: mc.levy_exponent_mc(BM, [], ell=-1.0, n=10), "ell must be"),
], ids=["localtime-x", "localtime-ell", "hitting-x", "exponent-ell"])
def test_an_empty_list_still_checks_the_other_arguments(call, match):
    # [] skipped every check, so a bad x or ell returned [] where the
    # scalar call raised
    with pytest.raises(DomainError, match=match):
        call()


@pytest.mark.parametrize("n", [0, -3, 2.5, None])
@pytest.mark.parametrize("call", [
    lambda n: mc.levy_exponent_mc(BM, 0.0, n=n),
    lambda n: mc.levy_exponent_mc(BM, [], n=n),
    lambda n: mc.estimate_hitting_tail(BM, 1.0, [], n),
    lambda n: mc.estimate_localtime_tail(BM, 1.0, [], 1.0, n),
], ids=["exponent-lam0", "exponent-empty", "hitting-empty",
        "localtime-empty"])
def test_a_call_that_draws_nothing_still_checks_n(call, n):
    # these returned McEstimate(n_paths=-3) or [] without reading n
    with pytest.raises(DomainError, match="need at least one path"):
        call(n)


@pytest.mark.parametrize("call", [
    lambda: mc.doob_meyer_check(BM, [0.1], n_paths=2.5, dt=0.01, seed=0),
    lambda: pz.penalized_expectation(BM, pz.indicator_weight(1.0), 1.0,
                                     lambda x, ell: 1.0, n=2.5, seed=0),
    lambda: pz.linfty_law_check(BM, pz.indicator_weight(1.0), n=2.5,
                                u=4.0, seed=0),
], ids=["doob_meyer", "penalized_expectation", "linfty_law_check"])
def test_chunked_estimators_refuse_a_fractional_path_count(call):
    # the chunk layout multiplied a list by n: an untyped TypeError
    with pytest.raises(DomainError, match="need at least one path"):
        call()


@pytest.mark.parametrize("n", [-5, 2.0, "10", None])
@pytest.mark.parametrize("draw", [
    lambda n: mc.sample_hitting_time(BM, 1.0, n, seed=0),
    lambda n: mc.sample_tau(BM, 1.0, n, seed=0),
    lambda n: mc.sample_local_time(BM, 1.0, 1.0, n, seed=0),
    lambda n: mc.sample_brownian_state(1.0, n, seed=0),
], ids=["hitting", "tau", "local_time", "brownian_state"])
def test_samplers_refuse_a_count_that_is_not_a_nonnegative_integer(draw, n):
    # n = -5 gave numpy's bare "negative dimensions are not allowed"
    with pytest.raises(DomainError, match="n must be an integer >= 0"):
        draw(n)


def test_samplers_draw_nothing_at_n_zero():
    assert mc.sample_hitting_time(BM, 1.0, 0, seed=0).shape == (0,)
    assert mc.sample_tau(BM, 1.0, np.int64(0), seed=0).values.shape == (0,)
    assert mc.sample_local_time(BM, 1.0, 1.0, 0, seed=0).shape == (0,)
    assert all(v.shape == (0,)
               for v in mc.sample_brownian_state(1.0, 0, seed=0).values())


def test_a_list_is_checked_in_order_before_any_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before the list was checked")

    monkeypatch.setattr(mc, "sample_hitting_time", no_draws)
    monkeypatch.setattr(mc, "sample_tau", no_draws)
    # each entry raises what the call with it alone raises, first fault
    # first
    with pytest.raises(DomainError, match="t must be positive"):
        mc.estimate_localtime_tail(BM, 0.0, [0.2, 0.5, 0.0], 1.0, 10)
    with pytest.raises(DomainError, match="finite"):
        mc.estimate_hitting_tail(BM, 1.0, [1.0, math.nan], 10)
    with pytest.raises(DomainError, match="ell must be positive"):
        mc.levy_exponent_mc(BM, [1.0, -1.0], ell=0.0, n=10)
    with pytest.raises(DomainError, match="lam must be nonnegative"):
        mc.levy_exponent_mc(BM, [1.0, -1.0], n=10)
    with pytest.raises(DomainError, match="1-d"):
        mc.levy_exponent_mc(BM, [[1.0]], n=10)
    # an empty list, or lam = 0 alone, draws nothing
    assert mc.estimate_localtime_tail(BM, 0.0, [], 1.0, 10) == []
    assert mc.levy_exponent_mc(BM, [0.0, 0.0], n=10) \
        == [mc.McEstimate(0.0, 0.0, 10)] * 2
    assert mc.levy_exponent_mc(BM, 0.0, n=np.int64(1)) \
        == mc.McEstimate(0.0, 0.0, 1)


# two chunks, the second a sliver: the pool runs them at two threads
_TWO_CHUNKS = mc.DEFAULT_CHUNK + 7


@settings(max_examples=15, deadline=None)
@given(ts=st.lists(st.sampled_from([0.05, 0.3, 1.0, 2.0, 7.5, 40.0]),
                   min_size=1, max_size=4),
       spec=st.sampled_from([BM, B15]), seed=st.integers(0, 2**32 - 1),
       threads=st.sampled_from([1, 2]))
def test_exact_list_entries_equal_the_scalar_calls(ts, spec, seed, threads):
    calls = [
        lambda t: mc.estimate_hitting_tail(spec, 0.8, t, _TWO_CHUNKS,
                                           seed=seed, threads=threads),
        lambda t: mc.estimate_localtime_tail(spec, 0.3, t, 0.7, _TWO_CHUNKS,
                                             seed=seed, threads=threads),
    ]
    for call in calls:
        assert call(ts) == [call(t) for t in ts]
        assert call(np.array(ts)) == call(ts)


@settings(max_examples=15, deadline=None)
@given(lams=st.lists(st.sampled_from([0.0, 0.1, 0.5, 2.0, 30.0]),
                     min_size=1, max_size=4),
       spec=st.sampled_from([BM, B15]), seed=st.integers(0, 2**32 - 1),
       threads=st.sampled_from([1, 2]))
def test_exponent_list_entries_equal_the_scalar_calls(lams, spec, seed,
                                                      threads):
    def call(lam):
        return mc.levy_exponent_mc(spec, lam, ell=1.5, n=_TWO_CHUNKS,
                                   seed=seed, threads=threads)

    assert call(lams) == [call(lam) for lam in lams]


@pytest.mark.parametrize("length", [1, 4])
def test_a_list_draws_once_per_chunk(monkeypatch, length):
    counts = {"sample_hitting_time": 0, "sample_tau": 0}
    for name in counts:
        def counting(*args, _draw=getattr(mc, name), _name=name, **kwargs):
            counts[_name] += 1
            return _draw(*args, **kwargs)
        monkeypatch.setattr(mc, name, counting)
    ts = [1.0, 3.0, 0.5, 1.0][:length]
    n = 2 * mc.DEFAULT_CHUNK + 1  # three chunks
    mc.estimate_hitting_tail(B15, 1.0, ts, n, seed=1)
    assert counts == {"sample_hitting_time": 3, "sample_tau": 0}
    mc.estimate_localtime_tail(B15, 1.0, ts, 1.0, n, seed=1)
    assert counts == {"sample_hitting_time": 6, "sample_tau": 3}
    mc.levy_exponent_mc(B15, ts, n=n, seed=1)
    assert counts == {"sample_hitting_time": 6, "sample_tau": 6}


def test_a_list_holds_one_boolean_array_at_a_time():
    # one chunk of draws and one threshold's booleans, never len(t) x n
    def peak(t):
        tracemalloc.start()
        try:
            mc.estimate_localtime_tail(B15, 1.0, t, 1.0, mc.DEFAULT_CHUNK,
                                       seed=1, threads=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    many = [float(t) for t in range(1, 129)]
    assert peak(many) < peak(1.0) + 2 * mc.DEFAULT_CHUNK


def test_doob_meyer_check_starts_at_the_boundary():
    # the identity and the occupation bias hold only from 0
    with pytest.raises(TypeError):
        mc.doob_meyer_check(BM, [0.1], n_paths=100, dt=0.01, x0=0.5)


def test_off_grid_checkpoint_is_a_resolution_error():
    with pytest.raises(ResolutionError):
        mc.doob_meyer_check(BM, [0.15, 0.3], n_paths=100, dt=0.1)


@settings(max_examples=20, deadline=None)
@given(steps=st.lists(st.integers(1, 20), min_size=1, max_size=5,
                      unique=True),
       data=st.data())
def test_grid_checkpoints_one_row_per_distinct_time(steps, data):
    """Both grid checks give one row per distinct on-grid time, sorted,
    and reject a list that repeats a time."""
    times = [k * 0.01 for k in steps]
    checks = [
        lambda ts: [r["t"] for r in mc.doob_meyer_check(
            BM, ts, n_paths=200, dt=0.01, seed=0)],
        lambda ts: [r["u"] for r in pz.martingale_property_mc(
            BM, [pz.indicator_weight(1.0)], ts, n_paths=200, dt=0.01,
            seed=0)],
    ]
    repeated = data.draw(st.permutations(
        times + [data.draw(st.sampled_from(times))]))
    for rows_of in checks:
        assert rows_of(times) == sorted(times)
        with pytest.raises(DomainError,
                           match="checkpoint times must be distinct"):
            rows_of(repeated)
