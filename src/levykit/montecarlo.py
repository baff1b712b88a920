"""Monte Carlo engines: exact samplers and streaming grid simulation.

Two layers live here.  The exact layer draws hitting times, inverse
local times (via Kanter's representation of the positive stable law), and
the Brownian last-zero/meander decomposition directly from their known
laws — no time discretization at all, so tail probabilities at horizons
like ``t = 1e4`` cost the same as ``t = 1``.  None of these draws
rejects: a meander of length ``r`` ends at a Rayleigh(sqrt(r)) point
``z``, and given that end it is a three-dimensional Bessel bridge from 0
to ``z`` (Imhof 1984, *Density factorizations for Brownian motion,
meander and the three-dimensional Bessel process*), so its position at
any time is the norm of a Gaussian vector.  The grid layer serves the
two checks that need whole paths, :func:`doob_meyer_check` and
:func:`~levykit.penalization.martingale_property_mc`: it streams
reflected-Brownian or squared-Bessel paths from 0 step by step, carrying
only the current state and a handful of accumulators, so ``1e5`` paths
with ``2e4`` steps never materialize as a matrix.

Local time on the grid is measured the blunt way: time spent in the band
``[0, eps)`` divided by the speed measure of the band.  That estimator
has a known O(sqrt(dt)) discretization bias at fixed ``eps = sqrt(dt)``;
:func:`occupation_bias` computes the exact mean correction from closed
forms so the martingale checks can subtract it instead of burning paths
on a smaller step.

Reproducibility contract: every public entry point takes a ``seed``;
work is split into fixed-size chunks whose generators come from
``SeedSequence(seed).spawn``, and partial results are reduced in chunk
order — so results are bit-identical for a given seed regardless of the
thread count.  A single-stream ``sample_tau`` draws from its one stream
in order and runs only Kanter's elementwise transform in chunk-sized
slices on the pool, so it too is bit-identical at any thread count.
A chunked entry point's ``seed`` is what ``SeedSequence`` takes (None, an
integer >= 0 or a sequence of them), a sampler's what ``default_rng``
takes; any other seed is a :class:`~levykit.errors.DomainError`.

The pool lives for the process: each worker count gets one
``ThreadPoolExecutor`` on first use, and later calls reuse it.  A call
made from inside a pool worker (a functional that itself samples, say)
runs its jobs serially, so it never waits on a pool whose workers wait on
it; the results are the same bits.  A forked child starts its own pool.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .diffusions import (DiffusionSpec, band_occupancy_probability,
                         bessel_exponent_constant, cumulative_speed)
from .errors import (DomainError, RangeError, ResolutionError,
                     UnsupportedSpecError)

__all__ = [
    "McEstimate",
    "SubordinatorSample",
    "sample_hitting_time",
    "sample_tau",
    "sample_local_time",
    "sample_brownian_state",
    "estimate_hitting_tail",
    "estimate_localtime_tail",
    "levy_exponent_mc",
    "occupation_bias",
    "doob_meyer_check",
    "resolve_threads",
    "DEFAULT_CHUNK",
]

DEFAULT_CHUNK = 25_000


def resolve_threads(threads: Optional[int] = None) -> int:
    """Thread count: the argument, else the number of CPUs this process
    may run on."""
    if threads is not None:
        return max(1, int(threads))
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo point estimate with its standard error; ``seed`` is
    the ``seed`` argument as given: None, an integer or a sequence of
    integers."""

    mean: float
    std_error: float
    n_paths: int
    seed: object = None


@dataclass(frozen=True)
class SubordinatorSample:
    """Draws of the inverse local time tau_ell; ``seed`` is the ``seed``
    argument as given, a ``Generator`` included."""

    values: np.ndarray
    ell: float
    alpha: float
    seed: object = None


# ---------------------------------------------------------------------------
# seeding / chunked execution
# ---------------------------------------------------------------------------

def _check_paths(n) -> None:
    """A path count must be an integer >= 1.  The chunk layout checks it,
    and an estimator that can return without drawing checks it first."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"need at least one path, got n={n!r}")


_CHUNK_SEEDS = "None, an integer >= 0 or a sequence of them"
_STREAM_SEEDS = (_CHUNK_SEEDS
                 + ", a SeedSequence, a BitGenerator or a Generator")


def _seed_sequence(seed) -> np.random.SeedSequence:
    """The root of a chunked entry point's streams; a seed that
    :class:`numpy.random.SeedSequence` refuses is a :class:`DomainError`."""
    try:
        return np.random.SeedSequence(seed)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"seed must be {_CHUNK_SEEDS}, got {seed!r}") \
            from exc


def _default_rng(seed) -> np.random.Generator:
    """The one stream of a sampler; a seed that
    :func:`numpy.random.default_rng` refuses is a :class:`DomainError`."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"seed must be {_STREAM_SEEDS}, got {seed!r}") \
            from exc


def _chunk_sizes(n: int) -> list:
    _check_paths(n)
    sizes = [DEFAULT_CHUNK] * (n // DEFAULT_CHUNK)
    if n % DEFAULT_CHUNK:
        sizes.append(n % DEFAULT_CHUNK)
    return sizes


_POOLS: dict = {}          # worker count -> this process's kept pool
_IN_WORKER = threading.local()


def _mark_worker() -> None:
    _IN_WORKER.active = True


def _forget_pools() -> None:
    """In a forked child: the parent's workers did not come along, so drop
    their pools, and the forking thread is no pool worker here."""
    _POOLS.clear()
    _IN_WORKER.active = False


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools)


def _pool_map(fn: Callable, jobs: Sequence, threads: Optional[int]) -> list:
    """``[fn(*job) for job in jobs]``, in order, on a pool of at most
    ``min(threads, len(jobs))`` threads; serial when that is 1.  One job
    or none runs serially without reading ``threads``.

    Each worker count has one pool, kept for the life of the process.  A
    call from inside a pool worker runs serially, so a nested call never
    waits on workers that are all waiting on it; chunk order fixes the
    results, so they are the same bits.
    """
    nthreads = min(resolve_threads(threads), len(jobs)) if len(jobs) > 1 \
        else 1
    if nthreads == 1 or getattr(_IN_WORKER, "active", False):
        return [fn(*job) for job in jobs]
    pool = _POOLS.get(nthreads)
    if pool is None:
        pool = _POOLS.setdefault(nthreads, ThreadPoolExecutor(
            nthreads, thread_name_prefix="levykit",
            initializer=_mark_worker))
    futures = [pool.submit(fn, *job) for job in jobs]
    try:
        return [f.result() for f in futures]
    finally:    # after a job raised, no other one outlives the call
        for f in futures:
            f.cancel()
        wait(futures)


def _run_chunked(n: int, seed, worker: Callable,
                 threads: Optional[int]) -> list:
    """Run ``worker(rng, size)`` over fixed-size chunks; results in order.

    The chunk layout depends only on ``n`` — never on the thread count —
    and each chunk gets its own spawned generator, so the reduction is
    deterministic for a given seed.
    """
    sizes = _chunk_sizes(n)
    streams = _seed_sequence(seed).spawn(len(sizes))
    return _pool_map(worker, [(np.random.default_rng(s), m)
                              for s, m in zip(streams, sizes)], threads)


def _chunk_totals(n: int, seed, worker: Callable,
                  threads: Optional[int]) -> tuple:
    """The one reducer: totals of the per-chunk sums ``worker`` returns.

    ``worker(rng, size)`` returns a sequence of partial sums (numbers or
    arrays); entry ``i`` of the result is the sum of entry ``i`` over all
    chunks, added left to right in chunk order.  That fixed order is what
    makes the totals bit-identical at any thread count — ``np.sum`` over a
    chunk axis would not promise it.
    """
    parts = _run_chunked(n, seed, worker, threads)
    return tuple(sum(col) for col in zip(*parts))


def _mean_se(total: float, total_sq: float, n: int) -> tuple:
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * n / max(n - 1, 1)
    return mean, math.sqrt(var / n)


def _sample_means(n: int, seed, sample: Callable,
                  threads: Optional[int]) -> list:
    """``(mean, std_error)`` of each per-path statistic over ``n`` paths.

    ``sample(rng, size)`` returns a list of per-path value arrays, one per
    statistic; every chunk contributes their sums and sums of squares.
    """
    def worker(rng, m):
        return [s for v in sample(rng, m)
                for s in (float(np.sum(v)), float(np.sum(v * v)))]

    totals = _chunk_totals(n, seed, worker, threads)
    return [_mean_se(totals[i], totals[i + 1], n)
            for i in range(0, len(totals), 2)]


def _bernoulli_se(p: float, n: int) -> float:
    """Binomial standard error of a frequency ``p`` over ``n`` paths.

    A count of 0 or ``n`` would read ``0 +- 0``; there it is the Wilson
    score half-width at ``z = 1``, ``1 / (2 (n + 1))``, instead.
    """
    if p == 0.0 or p == 1.0:
        return 0.5 / (n + 1)
    return math.sqrt(p * (1 - p) / n)


def _indicator_estimates(n: int, seed, events: Callable,
                         threads: Optional[int]) -> list:
    """Frequency of each event over ``n`` paths, with its binomial
    standard error.  ``events(rng, size)`` returns an iterable of boolean
    arrays, one per event; a generator keeps one of them alive at a
    time."""
    hits = _chunk_totals(
        n, seed,
        lambda rng, m: [int(np.count_nonzero(e)) for e in events(rng, m)],
        threads)
    return [McEstimate(mean=h / n, std_error=_bernoulli_se(h / n, n),
                       n_paths=n, seed=seed) for h in hits]


def _as_list(values) -> tuple:
    """``(entries, one)``: the floats of a number or of a 1-d sequence,
    and whether ``values`` was a single number, whose caller returns one
    result rather than a list."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim > 1:
        raise DomainError("expected a number or a 1-d sequence")
    return arr.reshape(-1).tolist(), arr.ndim == 0


# ---------------------------------------------------------------------------
# exact samplers
# ---------------------------------------------------------------------------

def _check_count(n) -> None:
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"n must be an integer >= 0, got {n!r}")


def _require_preset(spec: DiffusionSpec, what: str) -> float:
    if not spec.is_preset:
        raise UnsupportedSpecError(
            f"{what} is only available for the built-in power-law "
            "scale/speed family")
    return spec.alpha


def sample_hitting_time(spec: DiffusionSpec, x: float, n: int,
                        seed=None) -> np.ndarray:
    """Exact draws of the first time the boundary is reached from ``x``.

    Uses ``H_0 = x^2 / (2 G)`` with ``G ~ Gamma(alpha, 1)``.  For small
    ``alpha`` a draw of ``G`` can underflow to 0, which gives ``H_0 = inf``
    without a warning: such a ``G`` is below the smallest subnormal, so the
    true ``H_0`` exceeds ``x^2 1e323`` and the event ``H_0 > t`` is right
    for every smaller ``t``.  A quotient that overflows is also ``inf``.
    ``seed`` is anything :func:`numpy.random.default_rng` takes, a
    ``Generator`` included.
    """
    alpha = _require_preset(spec, "exact hitting-time sampling")
    if not 0 <= x < math.inf:
        raise DomainError("x must be nonnegative and finite")
    _check_count(n)
    rng = _default_rng(seed)
    if x == 0.0:
        return np.zeros(n)
    g = rng.gamma(alpha, 1.0, size=n)
    g *= 2.0
    with np.errstate(divide="ignore", over="ignore"):
        return np.divide(x * x, g, out=g)


def _standard_positive_stable(alpha: float, n: int, rng,
                              threads: Optional[int] = None) -> np.ndarray:
    """``n`` draws of ``S`` with ``E exp(-lam S) = exp(-lam^alpha)``, by
    Kanter's representation (Kanter 1975): ``S = (A(theta) / W)^{beta /
    alpha}`` with ``beta = 1 - alpha``, ``theta`` uniform on ``(0, pi)``,
    ``W`` standard exponential and ``A(theta) = (sin(alpha theta)^alpha
    sin(beta theta)^beta / sin theta)^{1 / beta}``.

    ``theta`` (drawn into the result, ``pi U``, which is
    ``uniform(0, pi)`` bit for bit) and ``w`` are drawn whole from
    ``rng``; the transform, which is elementwise, runs in place on slices
    of ``DEFAULT_CHUNK`` (on the thread pool when there are several) and
    writes each draw over its ``theta``.  So the bits do not depend on the
    slicing or the thread count.

    At ``alpha = 1/2``, ``A(theta) = (sin(theta/2) / sin theta)^2 =
    1 / (4 cos^2(theta/2))`` by the double-angle formula, so ``S = 1 /
    (4 W cos^2(theta/2))``: one cosine and no scratch buffer.  On 2e5
    draws it is within 3.5 ulp of a long-double ``(sin(theta/2) /
    sin theta)^2 / W`` at the same ``(theta, W)`` (median 0.5), where the
    log route below is off by up to 29 (median 0.9).  Another ``alpha``
    takes that route, with two slice-sized scratch buffers; a draw
    ``theta = 0`` (probability ``2^-53``) gets the limit ``A(0) =
    alpha^{alpha/beta} beta``, where the logs would give ``-inf - -inf``.
    """
    out = rng.random(n)
    out *= math.pi
    w = rng.standard_exponential(size=n)
    beta = 1.0 - alpha

    def kanter(lo, hi):
        th = out[lo:hi]
        if beta == alpha:
            th *= 0.5
            np.cos(th, out=th)
            th *= th
            th *= w[lo:hi]
            th *= 4.0
            np.reciprocal(th, out=th)
            return
        zero = th == 0.0 if th.min() == 0.0 else None
        if zero is not None:
            th[zero] = 1.0                  # any theta in (0, pi)
        a, b = np.empty(th.size), np.empty(th.size)
        np.multiply(th, alpha, out=a)
        np.sin(a, out=a)
        np.log(a, out=a)                    # log sin(alpha theta)
        np.multiply(th, beta, out=b)
        np.sin(b, out=b)
        np.log(b, out=b)
        b *= beta                           # beta log sin(beta theta)
        a *= alpha
        a += b
        np.sin(th, out=b)
        np.log(b, out=b)
        a -= b
        a /= beta                           # log A(theta)
        np.log(w[lo:hi], out=b)
        a -= b
        a *= beta / alpha
        np.exp(a, out=th)
        if zero is not None:
            a0 = alpha ** (alpha / beta) * beta
            th[zero] = (a0 / w[lo:hi][zero]) ** (beta / alpha)

    _pool_map(kanter, [(lo, lo + DEFAULT_CHUNK)
                       for lo in range(0, n, DEFAULT_CHUNK)], threads)
    return out


def sample_tau(spec: DiffusionSpec, ell: float, n: int,
               seed=None, threads=None) -> SubordinatorSample:
    """Exact draws of the inverse local time ``tau_ell``.

    ``tau_ell`` is positive stable with Laplace exponent
    ``ell * kappa * lam^alpha``, so ``tau_ell = (ell kappa)^{1/alpha} S``
    for a standard positive stable ``S``.  ``threads`` runs the transform
    of the draws, never the draws themselves, so it does not change them.
    ``seed`` is anything :func:`numpy.random.default_rng` takes, a
    ``Generator`` included.
    """
    alpha = _require_preset(spec, "exact inverse-local-time sampling")
    if not 0 <= ell < math.inf:
        raise DomainError("ell must be nonnegative and finite")
    _check_count(n)
    rng = _default_rng(seed)
    if ell == 0.0:
        vals = np.zeros(n)
    else:
        kappa = bessel_exponent_constant(alpha)
        scale = (ell * kappa) ** (1.0 / alpha)
        vals = _standard_positive_stable(alpha, n, rng, threads)
        vals *= scale
    return SubordinatorSample(values=vals, ell=float(ell), alpha=alpha,
                              seed=seed)


def sample_local_time(spec: DiffusionSpec, x: float, t: float, n: int,
                      seed=None) -> np.ndarray:
    """Exact draws of the marginal law of ``L_t`` from ``x``.

    Uses the first-passage inversion ``L_t = ((t - H_0)^+ / tau_1)^alpha``
    with independent exact draws of the hitting time and of ``tau_1`` —
    valid for the one-time marginal via the self-similarity of the
    inverse-local-time subordinator.
    ``seed`` is anything :func:`numpy.random.default_rng` takes, a
    ``Generator`` included.
    """
    alpha = _require_preset(spec, "exact local-time sampling")
    if not 0 < t < math.inf:
        raise DomainError("t must be positive and finite")
    rng = _default_rng(seed)
    h = sample_hitting_time(spec, x, n, seed=rng)
    tau1 = sample_tau(spec, 1.0, n, seed=rng).values
    np.subtract(t, h, out=h)
    np.maximum(h, 0.0, out=h)
    h /= tau1
    h **= alpha
    return h


def sample_brownian_state(u: float, n: int, seed=None) -> dict:
    """Exact joint draw of (last zero, local time, position) at time ``u``
    for reflected Brownian motion from 0.

    The last zero is ``u * Beta(1/2, 1/2)``; the local time accrued by
    then is Rayleigh(sqrt(g)); the position is an independent meander
    endpoint, Rayleigh(sqrt(u - g)).
    ``seed`` is anything :func:`numpy.random.default_rng` takes, a
    ``Generator`` included.
    """
    if not 0 < u < math.inf:
        raise DomainError("u must be positive and finite")
    _check_count(n)
    rng = _default_rng(seed)
    g = u * rng.beta(0.5, 0.5, size=n)
    loc = rng.rayleigh(scale=np.sqrt(g))
    pos = rng.rayleigh(scale=np.sqrt(np.maximum(u - g, 0.0)))
    return {"last_zero": g, "local_time": loc, "position": pos}


def _meander_pair(r, v: float, rng) -> tuple:
    """Positions ``(X_v, X_r)`` of Brownian meanders of lengths ``r`` (an
    array, all ``>= v``) at time ``v`` and at their end, with no rejection.

    The end is Rayleigh(sqrt(r)); given it, the meander is a BES(3)
    bridge from 0 to ``X_r`` (Imhof 1984), the norm of a 3-d Brownian
    bridge from 0 to ``X_r e_1``.  At time ``v`` that bridge is Gaussian
    with mean ``(v/r) X_r e_1`` and variance ``s2 = v (r - v) / r`` per
    axis, and the two axes off ``e_1`` add ``s2 chi2(2) = 2 s2 E``.  At
    ``r == v``, ``s2 = 0`` and ``X_v`` is ``sqrt(X_r^2) = X_r`` exactly.
    """
    xr = rng.rayleigh(scale=np.sqrt(r))
    s2 = v * (r - v) / r
    along = v / r * xr + np.sqrt(s2) * rng.standard_normal(r.size)
    xv = np.sqrt(along * along + 2.0 * s2 * rng.standard_exponential(r.size))
    return xv, xr


# ---------------------------------------------------------------------------
# grid simulation
# ---------------------------------------------------------------------------

def _check_grid(t: float, dt: float, eps: Optional[float]) -> tuple:
    if t <= 0 or dt <= 0:
        raise DomainError("t and dt must be positive")
    n_steps = int(round(t / dt))
    if abs(n_steps * dt - t) > 1e-9 * max(t, 1.0):
        raise ResolutionError("t must be an integer multiple of dt")
    if eps is None:
        eps = math.sqrt(dt)
    if eps * eps < dt * (1.0 - 1e-12):
        raise ResolutionError(
            f"band eps={eps:g} is below sqrt(dt)={math.sqrt(dt):g}: the "
            "grid cannot resolve excursions that short")
    return n_steps, float(eps)


def _grid_checkpoints(times: Sequence[float], dt: float) -> tuple:
    """Checkpoint times, sorted and placed on the grid of step ``dt``.

    Returns ``(times, step_indices, n_steps, eps)`` with ``n_steps`` the
    step count to the last checkpoint and ``eps = sqrt(dt)`` the local-time
    band; a checkpoint off the grid raises :class:`ResolutionError`.
    """
    times = sorted(float(t) for t in times)
    if not times or times[0] <= 0:
        raise DomainError("need positive checkpoint times")
    n_steps, eps = _check_grid(times[-1], dt, None)
    idx = [int(round(t / dt)) for t in times]
    if any(abs(i * dt - t) > 1e-9 for i, t in zip(idx, times)):
        raise ResolutionError("checkpoints must sit on the time grid")
    if len(set(idx)) < len(idx):
        raise DomainError("checkpoint times must be distinct")
    return times, idx, n_steps, eps


def _make_stepper(spec: DiffusionSpec, dt: float, m: int):
    """In-place update ``step(x, rng)`` moving ``m`` positions forward one
    grid step.  It owns its scratch buffers, so every chunk (and so every
    worker thread) must make its own stepper.

    Every step is exact.  Brownian motion reflects a Gaussian step.  The
    Bessel square ``Z = X^2`` moves to ``dt * chi2(delta, Z/dt)``, which
    for ``delta`` in (1, 2) is drawn as
    ``(X + sqrt(dt) N)^2 + 2 dt G exp(-E/a)`` with ``a = (delta-1)/2``:
    the noncentral split ``chi2(delta, lam) = (N + sqrt(lam))^2 +
    chi2(delta-1)`` and ``Gamma(a) = Gamma(a+1) U^{1/a}`` for shape below
    one (Marsaglia & Tsang 2000), ``U = exp(-E)`` with ``E ~ Exp(1)``.  Each
    draw fills a buffer in place.  ``delta < 1`` has no Gaussian part and
    keeps numpy's ``noncentral_chisquare``.
    """
    if not spec.is_preset:
        raise UnsupportedSpecError(
            "grid simulation is only implemented for the built-in "
            "power-law family (reflected Brownian / Bessel)")
    sdt = math.sqrt(dt)
    if spec.delta == 1.0:
        z = np.empty(m)

        def step(x, rng):
            rng.standard_normal(out=z)
            np.multiply(z, sdt, out=z)
            x += z
            np.abs(x, out=x)
    elif spec.delta > 1.0:
        a = (spec.delta - 1.0) / 2.0
        z, w = np.empty(m), np.empty(m)

        def step(x, rng):
            rng.standard_normal(out=z)
            rng.standard_gamma(a + 1.0, out=w)
            np.multiply(z, sdt, out=z)
            x += z
            np.multiply(x, x, out=x)
            rng.standard_exponential(out=z)
            np.multiply(z, -1.0 / a, out=z)
            np.exp(z, out=z)
            np.multiply(w, z, out=w)
            np.multiply(w, 2.0 * dt, out=w)
            x += w
            np.sqrt(x, out=x)
    else:
        delta = spec.delta
        nc = np.empty(m)

        def step(x, rng):
            np.multiply(x, x, out=nc)
            np.divide(nc, dt, out=nc)
            z = rng.noncentral_chisquare(delta, nc, size=m)
            z *= dt
            np.sqrt(z, out=x)
    return step


def _stream_ensemble(spec: DiffusionSpec, dt: float, n_steps: int,
                     record_idx: Sequence[int], rng, n_paths: int,
                     eps: float):
    """March ``n_paths`` states forward from 0, returning snapshots at the
    requested step indices, in step order: (positions,
    band_occupation_steps)."""
    step = _make_stepper(spec, dt, n_paths)
    record = set(int(i) for i in record_idx)
    x = np.zeros(n_paths)
    occ = np.zeros(n_paths)
    in_band = np.empty(n_paths, dtype=bool)
    out = []
    for k in range(1, n_steps + 1):
        # state at time (k-1) dt, left endpoint
        np.less(x, eps, out=in_band)
        occ += in_band
        step(x, rng)
        if k in record:     # x and occ are updated in place: copy them
            out.append((x.copy(), occ.copy()))
    return out


def occupation_bias(spec: DiffusionSpec, eps: float, dt: float,
                    t: float) -> float:
    """Exact mean defect of the band-occupation local time from 0.

    ``E L_t - E Lhat_t`` where ``Lhat`` sums left-endpoint band
    indicators: the cell-wise difference between the integrated on-diagonal
    density and the discretized band probability, all in closed form.
    """
    alpha = _require_preset(spec, "occupation bias correction")
    n_steps, eps = _check_grid(t, dt, eps)
    m_eps = cumulative_speed(spec, eps)
    k = np.arange(n_steps)
    a, b = k * dt, (k + 1) * dt
    cells = 2.0 ** (alpha - 1.0) * (b ** alpha - a ** alpha) \
        / (alpha * math.gamma(1.0 - alpha))
    occ = np.empty(n_steps)
    occ[0] = 1.0
    if n_steps > 1:
        occ[1:] = band_occupancy_probability(spec, a[1:], eps)
    return float(np.sum(cells) - dt / m_eps * np.sum(occ))


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _tail_estimates(t, check: Callable, draw: Callable, n: int, seed,
                    threads) -> McEstimate | list:
    """Estimates of ``P(T > t)`` for a number ``t``, or a list of them for
    each entry of a sequence, from one set of draws per chunk.

    Each ``t`` is checked in order as a call with it alone would check it
    (``check(t)``), before anything is drawn; ``draw(rng, size)`` draws
    ``T``.
    """
    _check_paths(n)
    _seed_sequence(seed)
    ts, one = _as_list(t)
    for u in ts:
        check(u)
    if not ts:
        return []

    def events(rng, m):
        s = draw(rng, m)
        return (s > u for u in ts)

    estimates = _indicator_estimates(n, seed, events, threads)
    return estimates[0] if one else estimates


def estimate_hitting_tail(spec: DiffusionSpec, x: float,
                          t: float | Sequence[float], n: int, seed=None,
                          threads=None) -> McEstimate | list:
    """Monte Carlo ``P_x(H_0 > t)``, from exact draws of the hitting time
    (its gamma representation).

    ``t`` is a number, or a 1-d sequence for a list of estimates in its
    order.  Every ``t`` reads the same draws, so each entry equals the
    call with that ``t`` alone and the same seed, bit for bit, just as
    separate calls with one seed always shared their draws.
    """
    if not 0 < x < math.inf:
        raise DomainError("x must be positive and finite (from 0 the tail "
                          "is 0)")

    def check(t):
        if not math.isfinite(t):
            raise DomainError("t must be finite")

    return _tail_estimates(
        t, check, lambda rng, m: sample_hitting_time(spec, x, m, seed=rng),
        n, seed, threads)


def estimate_localtime_tail(spec: DiffusionSpec, x: float,
                            t: float | Sequence[float], ell: float, n: int,
                            seed=None, threads=None) -> McEstimate | list:
    """Monte Carlo ``P_x(L_t <= ell)``.

    Uses the renewal split at the first boundary visit: the event equals
    ``{H_0 + tau_ell > t}`` with the two pieces independent, both drawn
    from their exact laws.

    ``t`` is a number, or a 1-d sequence for a list of estimates in its
    order.  Every ``t`` reads the same draws of ``H_0 + tau_ell``, so each
    entry equals the call with that ``t`` alone and the same seed, bit for
    bit, just as separate calls with one seed always shared their draws.
    """
    if not (0 <= x < math.inf and 0 <= ell < math.inf):
        raise DomainError("x and ell must be nonnegative and finite")

    def check(t):
        if not 0 < t < math.inf:
            raise DomainError("t must be positive and finite")

    def draw(rng, m):
        s = sample_hitting_time(spec, x, m, seed=rng)
        s += sample_tau(spec, ell, m, seed=rng).values
        return s

    return _tail_estimates(t, check, draw, n, seed, threads)


def levy_exponent_mc(spec: DiffusionSpec, lam: float | Sequence[float],
                     ell: float = 1.0, n: int = 100_000, seed=None,
                     threads=None) -> McEstimate | list:
    """Laplace exponent of the inverse local time by simulation:
    ``-log E[exp(-lam tau_ell)] / ell``, with a delta-method error bar.

    ``lam`` is a number, or a 1-d sequence for a list of estimates in its
    order.  Every nonzero ``lam`` reads the same draws of ``tau_ell``, so
    each entry equals the call with that ``lam`` alone and the same seed,
    bit for bit; ``lam = 0`` is exactly 0 and draws nothing.
    """
    if not 0 < ell < math.inf:
        raise DomainError("ell must be positive and finite")
    _check_paths(n)
    _seed_sequence(seed)
    lams, one = _as_list(lam)
    for v in lams:
        if not 0 <= v < math.inf:
            raise DomainError("lam must be nonnegative and finite")
    live = [v for v in lams if v != 0.0]

    def sample(rng, m):
        tau = sample_tau(spec, ell, m, seed=rng).values
        return (np.exp(-v * tau) for v in live)

    moments = iter(_sample_means(n, seed, sample, threads) if live else ())
    estimates = []
    for v in lams:
        if v == 0.0:
            estimates.append(McEstimate(mean=0.0, std_error=0.0, n_paths=n,
                                        seed=seed))
            continue
        mean, se = next(moments)
        if mean <= 0:
            raise RangeError("all mass beyond machine range; lam too large")
        estimates.append(McEstimate(mean=-math.log(mean) / ell,
                                    std_error=se / (mean * ell), n_paths=n,
                                    seed=seed))
    return estimates[0] if one else estimates


def doob_meyer_check(spec: DiffusionSpec, times: Sequence[float],
                     n_paths: int = 100_000, dt: float = 1e-4,
                     seed=None, threads=None) -> list:
    """Compensator identity on grid paths: E[S(X_t)] vs E[L_t] from 0.

    Paths start at the boundary, the only start from which the identity
    and :func:`occupation_bias` hold.  Streams one ensemble to
    ``max(times)``, snapshotting every requested checkpoint.  The raw
    band local time is shifted by the closed-form
    :func:`occupation_bias`; the reported gap and its standard error come
    from the per-path difference, so the two means share their noise.
    """
    _require_preset(spec, "compensator check")
    times, idx, n_steps, eps = _grid_checkpoints(times, dt)
    m_eps = cumulative_speed(spec, eps)

    def sample(rng, m):
        stats = []
        for x, occ in _stream_ensemble(spec, dt, n_steps, idx, rng, m, eps):
            s_of_x = np.asarray(spec.scale(x), dtype=float)
            loc = occ * (dt / m_eps)
            stats += [s_of_x - loc, s_of_x, loc]
        return stats

    means = _sample_means(n_paths, seed, sample, threads)
    rows = []
    for j, t in enumerate(times):
        (gap_mean, gap_se), (scale_mean, _), (local_mean, _) \
            = means[3 * j:3 * j + 3]
        bias = occupation_bias(spec, eps, dt, t)
        rows.append({
            "t": t,
            "scale_mean": scale_mean,
            "local_mean": local_mean + bias,
            "gap": gap_mean - bias,
            "std_error": gap_se,
            "bias_correction": bias,
            "n_paths": n_paths,
        })
    return rows
