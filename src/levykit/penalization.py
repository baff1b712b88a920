"""Local-time weighting: the associated martingale and penalized-law checks.

A :class:`WeightFunction` is a probability density ``h`` on the local-time
axis (by default non-increasing with compact support — the shape under
which the change-of-measure identities below hold).  The object of
interest is

    ``M_u = S(X_u) h(L_u) + 1 - H(L_u)``,

a nonnegative unit-mean martingale when started from the boundary.  It
defines a tilted path law under which the terminal local time has density
``h`` and the post-last-zero piece of the path is the transient
upward-conditioned diffusion, independent of the local time.

Everything here checks those statements against simulation: the unit-mean
property on grid paths, penalized expectations against optional-stopping
closed forms, the weighted terminal-local-time CDF against ``H``, the
Maxwell marginal and independence after the last zero (via the exact
Brownian samplers), and the mass of the upward-conditioned transition
density.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf, gammaincinv

from . import montecarlo as mc
from . import spectral
from .diffusions import DiffusionSpec, cumulative_speed
from .errors import (DomainError, RangeError, ToleranceError,
                     UnsupportedSpecError)
from .quadrature import integrate

__all__ = [
    "WeightFunction",
    "indicator_weight",
    "triangular_weight",
    "weight_from_table",
    "weight_from_json",
    "martingale_value",
    "martingale_property_mc",
    "penalized_expectation",
    "penalization_horizon",
    "penalization_leftover",
    "linfty_law_check",
    "post_lastzero_marginal_check",
    "uparrow_density",
    "uparrow_mass",
]

# the candidate horizons 1, 2, 4, ... below 1e12 (2^39 < 1e12 < 2^40)
_HORIZONS = [2.0 ** k for k in range(40)]


@dataclass(frozen=True)
class WeightFunction:
    """Probability density on the local-time axis, with its CDF.

    ``h`` and ``cdf`` map an array to an array of the same shape, and a
    float to a float; ``quantile`` (inverse CDF) draws the weights of the
    Monte Carlo horizon search :func:`penalization_horizon`.  Construction
    verifies that ``h`` integrates to one and that it is non-increasing
    with the stated compact support, the shape the penalized-law
    identities require.
    """

    h: Callable
    cdf: Callable
    support_end: float
    name: str = "weight"
    quantile: Optional[Callable] = None

    def __post_init__(self):
        if not math.isfinite(self.support_end) or self.support_end <= 0:
            raise DomainError("support_end must be positive and finite")
        total, _ = integrate(self.h, 0.0, self.support_end)
        if abs(total - 1.0) > 1e-8:
            raise DomainError(
                f"weight density integrates to {total:.10f}, not 1")
        probe = np.linspace(0.0, self.support_end, 257)
        vals = np.asarray(self.h(probe), dtype=float)
        if np.any(vals < -1e-12):
            raise DomainError("weight density must be nonnegative")
        if np.any(np.diff(vals) > 1e-9 * max(1.0, float(vals[0]))):
            raise DomainError("weight density must be non-increasing")

    def sample(self, n: int, rng) -> np.ndarray:
        if self.quantile is None:
            raise UnsupportedSpecError(
                f"weight {self.name!r} has no quantile function")
        return np.asarray(self.quantile(rng.random(n)), dtype=float)


def indicator_weight(ell0: float = 1.0) -> WeightFunction:
    """Flat weight ``1/ell0`` on ``[0, ell0)`` — paths are kept while
    their local time is still under the cap and killed in law beyond."""
    if ell0 <= 0:
        raise DomainError("ell0 must be positive")

    def h(y):
        y = np.asarray(y, dtype=float)
        return np.where((y >= 0) & (y < ell0), 1.0 / ell0, 0.0)[()]

    def cdf(y):
        return np.clip(np.asarray(y, dtype=float) / ell0, 0.0, 1.0)[()]

    return WeightFunction(h=h, cdf=cdf, support_end=ell0,
                          name=f"indicator({ell0:g})",
                          quantile=lambda q: ell0 * np.asarray(q))


def triangular_weight(K: float = 1.0) -> WeightFunction:
    """Linearly decaying weight ``2 (1 - y/K) / K`` on ``[0, K]``."""
    if K <= 0:
        raise DomainError("K must be positive")

    def h(y):
        y = np.asarray(y, dtype=float)
        return np.where((y >= 0) & (y <= K),
                        2.0 * (1.0 - y / K) / K, 0.0)[()]

    def cdf(y):
        y = np.clip(np.asarray(y, dtype=float), 0.0, K)
        return (y * (2.0 - y / K) / K)[()]

    def quantile(q):
        return K * (1.0 - np.sqrt(1.0 - np.asarray(q, dtype=float)))

    return WeightFunction(h=h, cdf=cdf, support_end=K,
                          name=f"triangular({K:g})", quantile=quantile)


def weight_from_table(xs, hs, name: str = "table-weight") -> WeightFunction:
    """Piecewise-linear weight through ``(xs, hs)``, zero beyond the last
    node, renormalized to unit mass."""
    xs = np.asarray(xs, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if xs.ndim != 1 or xs.shape != hs.shape or xs.size < 2:
        raise DomainError("need matching 1-d tables with >= 2 nodes")
    if xs[0] != 0.0:
        xs = np.concatenate([[0.0], xs])
        hs = np.concatenate([[hs[0]], hs])
    if np.any(np.diff(xs) <= 0) or np.any(hs < 0):
        raise DomainError("xs must increase; hs must be nonnegative")
    mass = float(np.trapezoid(hs, xs))
    if mass <= 0:
        raise DomainError("weight table has no mass")
    hs = hs / mass
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (hs[1:] + hs[:-1]) * np.diff(xs))])

    def h(y):
        return np.interp(np.asarray(y, dtype=float), xs, hs,
                         left=float(hs[0]), right=0.0)[()]

    def cdf(y):
        return np.interp(np.asarray(y, dtype=float), xs, cum,
                         left=0.0, right=1.0)[()]

    # cum may have flat stretches; thin to strictly increasing for inversion
    keep = np.concatenate([[True], np.diff(cum) > 0])
    inv = spectral._pchip(cum[keep], xs[keep])

    def quantile(q):
        q = np.clip(np.asarray(q, dtype=float), 0.0, float(cum[keep][-1]))
        return inv(q)

    return WeightFunction(h=h, cdf=cdf, support_end=float(xs[-1]),
                          name=name, quantile=quantile)


def weight_from_json(data) -> WeightFunction:
    """Weight from a JSON dict: kinds ``indicator``, ``triangular``,
    ``table``."""
    import json as _json
    if isinstance(data, str):
        data = _json.loads(data)
    if not isinstance(data, dict) or "kind" not in data:
        raise DomainError("weight JSON must be an object with a 'kind'")
    kind = data["kind"]
    if kind == "indicator":
        return indicator_weight(float(data.get("ell0", 1.0)))
    if kind == "triangular":
        return triangular_weight(float(data.get("K", 1.0)))
    if kind == "table":
        return weight_from_table(data["xs"], data["hs"],
                                 name=data.get("name", "table-weight"))
    raise DomainError(f"unknown weight kind {kind!r}")


# ---------------------------------------------------------------------------
# the martingale
# ---------------------------------------------------------------------------

def martingale_value(spec: DiffusionSpec, weight: WeightFunction, x, ell):
    """``S(x) h(ell) + 1 - H(ell)`` — nonnegative, unit mean from the
    boundary, constant 1 once the local time passes the support of h
    while the path sits at the boundary."""
    x = np.asarray(x, dtype=float)
    ell = np.asarray(ell, dtype=float)
    if not (np.all((0 <= x) & (x < np.inf))
            and np.all((0 <= ell) & (ell < np.inf))):
        raise DomainError("x and ell must be nonnegative and finite")
    s = np.asarray(spec.scale(x), dtype=float)
    val = s * np.asarray(weight.h(ell), dtype=float) \
        + 1.0 - np.asarray(weight.cdf(ell), dtype=float)
    return val[()]


def martingale_property_mc(spec: DiffusionSpec,
                           weights: Sequence[WeightFunction],
                           u_values: Sequence[float],
                           n_paths: int = 100_000, dt: float = 1e-4,
                           seed=None, threads=None) -> list:
    """Unit-mean battery on one streamed ensemble.

    Simulates grid paths from the boundary once, snapshots every
    requested horizon (each on the time grid, else
    :class:`~levykit.errors.ResolutionError`), and evaluates every
    weight's martingale there.  The raw band local time is shifted by
    the mean occupation bias before the weight is applied (removes the
    first-order bias of the smooth functional).  Returns one row per
    (weight, u) with the mean, its standard error, and the distance from
    1 in standard errors.

    The check is only trustworthy near ``alpha = 1/2``: the shift
    debiases the band local time itself, but its per-path noise enters
    the weight *nonlinearly*, and for small ``alpha`` that noise stays
    order-one at any practical ``dt`` (the unit mean drifts several
    percent low for ``alpha = 0.25`` even at ``dt = 1e-4``).  Linear
    diagnostics (:func:`~levykit.montecarlo.doob_meyer_check`) remain
    exactly debiased for every preset.
    """
    u_values, idx, n_steps, eps = mc._grid_checkpoints(u_values, dt)
    m_eps = cumulative_speed(spec, eps)
    shifts = [mc.occupation_bias(spec, eps, dt, u) for u in u_values]

    def sample(rng, m):
        stats = []
        for (x, occ), shift in zip(
                mc._stream_ensemble(spec, dt, n_steps, idx, rng, m, eps),
                shifts):
            ell = occ * (dt / m_eps) + shift
            stats += [martingale_value(spec, w, x, ell) for w in weights]
        return stats

    pairs = itertools.product(u_values, weights)
    means = mc._sample_means(n_paths, seed, sample, threads)
    return [{"weight": w.name, "u": u, "mean": mean, "std_error": se,
             "z": (mean - 1.0) / se if se > 0 else 0.0, "n_paths": n_paths}
            for (u, w), (mean, se) in zip(pairs, means)]


def penalized_expectation(spec: DiffusionSpec, weight: WeightFunction,
                          u: float, functional: Callable,
                          n: int = 100_000, seed=None,
                          threads=None) -> mc.McEstimate:
    """``E[F(X_u, L_u) M_u]`` — the tilted-law expectation of ``F`` at
    horizon ``u`` (Brownian exact sampler; unnormalized, since the
    weights have unit mean exactly)."""
    if spec.delta != 1.0:
        raise UnsupportedSpecError("exact penalized sampling is "
                                   "Brownian-only")
    if u <= 0:
        raise DomainError("u must be positive")

    def sample(rng, m):
        st = mc.sample_brownian_state(u, m, seed=rng)
        w = martingale_value(spec, weight, st["position"],
                             st["local_time"])
        f = np.asarray(functional(st["position"], st["local_time"]),
                       dtype=float)
        return [f * w]

    (mean, se), = mc._sample_means(n, seed, sample, threads)
    return mc.McEstimate(mean=mean, std_error=se, n_paths=n, seed=seed)


# ---------------------------------------------------------------------------
# penalized-law checks
# ---------------------------------------------------------------------------

def penalization_horizon(spec: DiffusionSpec, weight: WeightFunction,
                         tol: float = 0.01, n: int = 200_000,
                         seed=None, full: bool = False, threads=None):
    """Horizon ``u`` with ``E_0[1 - H(L_u)] < tol``: the first of
    ``1, 2, 4, ...`` below ``1e12`` that reaches it.

    That expectation equals ``P(tau_Y > u)`` for ``Y ~ h`` independent of
    the subordinator, so one batch of ``tau_1`` draws serves every
    candidate ``u`` through the scaling ``tau_y = y^{1/alpha} tau_1``.
    """
    alpha = mc._require_preset(spec, "horizon estimation")
    if not 0 < tol < 1:
        raise DomainError("tol must be in (0, 1)")
    mc._check_paths(n)
    rng = np.random.default_rng(seed)
    y = weight.sample(n, rng)
    tau1 = mc.sample_tau(spec, 1.0, n, seed=rng, threads=threads).values
    tau_y = y ** (1.0 / alpha) * tau1
    for u in _HORIZONS:
        leftover = int(np.count_nonzero(tau_y > u)) / n
        if leftover < tol:
            if not full:
                return u
            return {"u": u, "leftover": leftover,
                    "leftover_se": mc._bernoulli_se(leftover, n),
                    "n_paths": n, "seed": seed}
    raise ToleranceError(f"no horizon below 1e+12 reaches tol={tol:g}")


def penalization_leftover(spec: DiffusionSpec, weight: WeightFunction,
                          u: float, with_error: bool = False):
    """Leftover mass ``E_0[1 - H(L_u)] = int h(y) P(tau_y > u) dy``: the
    weight the penalization has not yet spent by the horizon ``u``.

    Brownian only, where Levy's law gives ``P(tau_y > u) = P(L_u < y) =
    erf(y / sqrt(2u))``, so the mass is one quadrature over the support
    of ``h``.  Another preset needs the tail of the positive stable law,
    which levykit does not have yet.  With ``with_error`` the result is
    ``(value, error)``, the error being the quadrature's.
    """
    if not 0 < u < math.inf:
        raise DomainError("u must be positive and finite")
    if spec.delta != 1.0:
        raise UnsupportedSpecError(
            "the leftover mass is Brownian-only: other specs need the tail "
            "of the positive stable law")
    a = 1.0 / math.sqrt(2.0 * u)
    val, err = integrate(lambda y: weight.h(y) * erf(a * y), 0.0,
                         weight.support_end)
    return (val, err) if with_error else val


def _certified_horizon(spec: DiffusionSpec, weight: WeightFunction,
                       tol: float) -> float:
    """The first of ``1, 2, 4, ...`` below ``1e12`` whose leftover mass
    plus its error is under ``tol``: the grid of
    :func:`penalization_horizon`, with no draws."""
    for u in _HORIZONS:
        val, err = penalization_leftover(spec, weight, u, with_error=True)
        if val + err < tol:
            return u
    raise ToleranceError(f"no horizon below 1e+12 certifies tol={tol:g}")


def _weights_below(grid: np.ndarray, values: np.ndarray,
                   *weights: np.ndarray) -> tuple:
    """For each weight array ``v``, ``[v[values <= g].sum() for g in
    grid]`` of an increasing ``grid``, in O(len(values)) memory.

    Cell ``k`` holds the values in ``(grid[k-1], grid[k]]``: the left side
    of ``searchsorted`` puts a value equal to a grid point there, as
    ``<=`` does.  The running sum of the per-cell totals then adds each
    ``v`` in one fixed order, sequential and without BLAS, so the bits
    depend only on the inputs.
    """
    k = np.searchsorted(grid, values)
    return tuple(np.cumsum(np.bincount(k, weights=v,
                                       minlength=grid.size + 1))[:-1]
                 for v in weights)


def linfty_law_check(spec: DiffusionSpec, weight: WeightFunction,
                     n: int = 100_000, u: Optional[float] = None,
                     seed=None, grid_points: int = 201,
                     threads=None) -> dict:
    """Weighted terminal-local-time CDF against the target ``H``.

    Under the tilted law the terminal local time has density ``h``; at a
    finite horizon the self-normalized weighted empirical CDF of ``L_u``
    should match ``H`` up to the leftover mass ``E[1 - H(L_u)]``.  The
    horizon defaults to the first of ``1, 2, 4, ...`` whose certified
    :func:`penalization_leftover` is under 1%, which draws nothing.
    Brownian only (exact last-zero sampler).  Returns the grid of
    ``grid_points >= 2`` points, both CDFs, and their maximum gap.

    Each chunk bins its draws of ``L_u`` on the grid and takes running
    sums of the binned weights and squared weights: O(n) memory, no
    grid-by-draw matrix and no BLAS call, and an order of addition fixed
    by the seed alone, so the bits are the same on every machine.
    """
    if spec.delta != 1.0:
        raise UnsupportedSpecError("the exact state sampler is "
                                   "Brownian-only")
    if grid_points < 2:
        raise DomainError("grid_points must be at least 2")
    if u is None:
        u = _certified_horizon(spec, weight, 0.01)
    grid = np.linspace(0.0, weight.support_end, grid_points)

    def worker(rng, m):
        st = mc.sample_brownian_state(u, m, seed=rng)
        w = martingale_value(spec, weight, st["position"],
                             st["local_time"])
        return (*_weights_below(grid, st["local_time"], w, w * w),
                float(np.sum(w)))

    num, num2, den = mc._chunk_totals(n, seed, worker, threads)
    if den <= 0:
        raise RangeError("all weights vanished; horizon too large for n")
    weighted_cdf = num / den
    # delta-method SE of the self-normalized ratio; the cross moment of
    # w*1{L<=l} with itself collapses because the indicator is 0/1, and
    # weights vanish beyond the support end so num2[-1] is the full sum
    # of squared weights
    resid = num2 * (1.0 - 2.0 * weighted_cdf) + weighted_cdf ** 2 * num2[-1]
    target = np.asarray(weight.cdf(grid), dtype=float)
    gap = float(np.max(np.abs(weighted_cdf - target)))
    return {"max_gap": gap, "u": float(u), "n_paths": n, "grid": grid,
            "weighted_cdf": weighted_cdf, "target_cdf": target,
            "cdf_se": np.sqrt(np.maximum(resid, 0.0)) / den,
            "seed": seed}


def post_lastzero_marginal_check(weight: WeightFunction, v: float = 1.0,
                                 u: Optional[float] = None,
                                 n: int = 100_000, seed=None) -> dict:
    """Maxwell marginal and independence after the Brownian last zero.

    Samples exact tuples (last zero ``g``, local time, positions at
    ``g + v`` and at ``u``) under the Brownian law, weights them with the
    martingale at the horizon, and checks two consequences of the tilted
    law: the weighted law of ``X_{g+v}`` fills ten equiprobable bins of
    the Maxwell(sqrt(v)) distribution (total-variation distance
    reported), and the weighted correlation between the local time and
    ``X_{g+v}`` is zero within error (standard error of the means of 20
    batches, so ``n`` must be at least 20).  Tuples whose post-zero
    window is shorter than ``v`` are dropped; their weighted mass vanishes
    as ``u`` grows.  The horizon defaults to the first of ``1, 2, 4, ...``
    whose certified :func:`penalization_leftover` is under 1%.

    Nothing is rejected, so each batch costs the same whatever the
    draws: ``g`` is ``u`` Beta(1/2, 1/2) and the local time
    Rayleigh(sqrt(g)); after ``g`` the path is a meander of length
    ``r = u - g``, whose end ``X_u`` is Rayleigh(sqrt(r)) and which,
    given that end, is a three-dimensional Bessel bridge from 0 to
    ``X_u`` (Imhof 1984, *Density factorizations for Brownian motion,
    meander and the three-dimensional Bessel process*).  ``X_{g+v}`` is
    then the norm of a Gaussian vector.
    """
    from .diffusions import brownian_spec
    spec = brownian_spec()
    bins, batches = 10, 20
    if v <= 0:
        raise DomainError("v must be positive")
    if n < batches:
        raise DomainError(f"need n >= {batches}, one path per batch")
    mc._check_paths(n)
    if u is None:
        u = _certified_horizon(spec, weight, 0.01)
    if u <= v:
        raise DomainError("u must exceed v")
    if not (math.isfinite(u) and math.isfinite(v)):
        raise DomainError("u and v must be finite")
    rng = np.random.default_rng(seed)
    # Maxwell(sqrt(v)) quantiles as scipy.stats.maxwell.ppf forms them
    edges = np.sqrt(2.0 * gammaincinv(1.5, np.linspace(0.0, 1.0, bins + 1))) \
        * math.sqrt(v)
    edges[0], edges[-1] = 0.0, np.inf

    kept = dropped_weight = 0.0
    counts = np.zeros(bins)
    batch_corr = []
    per_batch = n // batches
    for _ in range(batches):
        g = u * rng.beta(0.5, 0.5, size=per_batch)
        loc = rng.rayleigh(scale=np.sqrt(g))
        ok = g <= u - v
        r = u - g[ok]
        xv, xu = mc._meander_pair(r, v, rng)
        w = martingale_value(spec, weight, xu, loc[ok])
        dropped_weight += float(np.sum(
            martingale_value(spec, weight, 0.0, loc[~ok])))
        kept += float(np.sum(w))
        counts += np.histogram(xv, bins=edges, weights=w)[0]
        # weighted covariance pieces for the independence check
        bw = float(np.sum(w))
        if bw > 0:
            l_, x_ = loc[ok], xv
            mzl = np.sum(w * l_) / bw
            mzx = np.sum(w * x_) / bw
            c = np.sum(w * (l_ - mzl) * (x_ - mzx)) / bw
            sl = math.sqrt(max(np.sum(w * (l_ - mzl) ** 2) / bw, 1e-300))
            sx = math.sqrt(max(np.sum(w * (x_ - mzx) ** 2) / bw, 1e-300))
            batch_corr.append(c / (sl * sx))
    if kept <= 0:
        raise RangeError("all weighted mass dropped; shrink v or grow n")
    probs = counts / kept
    tv = 0.5 * float(np.sum(np.abs(probs - 1.0 / bins)))
    bc = np.asarray(batch_corr)
    corr = float(bc.mean())
    corr_se = float(bc.std(ddof=1) / math.sqrt(bc.size))
    return {"tv_distance": tv, "bin_probs": probs, "u": float(u),
            "corr": corr, "corr_se": corr_se,
            "dropped_mass": dropped_weight / (kept + dropped_weight),
            "n_paths": batches * per_batch, "seed": seed}


# ---------------------------------------------------------------------------
# the upward-conditioned diffusion
# ---------------------------------------------------------------------------

def uparrow_density(spec: DiffusionSpec, x: float, y: float, t: float,
                    measure=None) -> float:
    """Transition density of the upward-conditioned diffusion wrt its
    own speed measure ``S^2 m``: ``phat(t; x, y) / (S(x) S(y))``, with
    the ``x = 0`` limit ``(hitting density from y) / S(y)``."""
    if not (0 <= x < math.inf and 0 < y < math.inf and 0 < t < math.inf):
        raise DomainError("need finite x >= 0, y > 0 and t > 0")
    sy = float(spec.scale(y))
    if x == 0.0:
        if spec.is_preset and measure is None:
            f = spec.oracles.hitting_density(y, t)
        else:
            f = spectral.hitting_density(spec, y, t, measure=measure)
        return f / sy
    if spec.is_preset and measure is None:
        ph = spec.oracles.killed_density(t, x, y)
    else:
        ph = spectral.transition_density(spec, x, y, t, killed=True,
                                         measure=measure)
    return ph / (float(spec.scale(x)) * sy)


def uparrow_mass(spec: DiffusionSpec, t: float) -> float:
    """Total mass of the upward-conditioned transition from 0 at time t:
    ``int uparrow_density(t; 0, y) S(y)^2 m(dy)`` — equals 1 when the
    boundary hitting density integrates correctly against ``S m``.

    Presets only: a custom spec would need its spectral hitting density
    far past the ``y`` of order ``sqrt(t)`` where it stops certifying.
    """
    if not 0 < t < math.inf:
        raise DomainError("t must be positive and finite")
    if not spec.is_preset:
        raise UnsupportedSpecError("uparrow_mass is preset-only: the "
                                   "spectral hitting density of a custom "
                                   "spec does not certify far enough out")
    alpha = spec.alpha

    def integrand(y):
        # S(y) m'(y) = y / alpha
        return spec.oracles.hitting_density(y, t) * y / alpha

    hi = math.sqrt(2.0 * t * 800.0)
    # split to keep the Gaussian shoulder well resolved
    v1, _ = integrate(integrand, 0.0, math.sqrt(2.0 * t))
    v2, _ = integrate(integrand, math.sqrt(2.0 * t), hi)
    return v1 + v2
