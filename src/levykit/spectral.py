"""Spectral representations of the transition density, hitting density and
inverse-local-time Levy measure of a reflected diffusion.

Two eigenfunction families enter: ``A(x; gamma)`` (reflected, ``A(0)=1``) and
``C(x; gamma)`` (killed, ``C ~ S`` at ``gamma = 0``).  Against the matching
spectral measure (``principal`` for the reflected kernel, ``killed`` for
everything generated by hitting the boundary) they give

* ``p(t;x,y)       = int e^{-gamma t} A(x)A(y) Delta(dgamma)``
* ``p_hat(t;x,y)   = int e^{-gamma t} C(x)C(y) Delta_hat(dgamma)``
* ``f_{x0}(t)      = int e^{-gamma t} C(x)   Delta_hat(dgamma)``
* ``nu_dot(t)      = int e^{-gamma t}         Delta_hat(dgamma)``
* ``P_x(H_0 > t)   = int gamma^{-1} e^{-gamma t} C(x) Delta_hat(dgamma)``
* ``nu((t, inf))   = int gamma^{-1} e^{-gamma t}      Delta_hat(dgamma)``

Every functional is one quadrature in ``v`` with ``gamma = v^4 / 2``, cut
where an envelope of the integrand falls below ``tol / 10``; the reported
error is the quadrature estimate plus that envelope at the cutoff.  The
eigenfunctions come from one of two evaluators: the closed Bessel-J forms
for the presets, or, for a general scale/speed pair, the power series
``sum (-gamma)^n c_n(x)`` whose coefficients obey the nested recursion
``c_{n+1}(x) = int_0^x dS(y) int_0^y c_n dm``; the factorial bound
``c_n(x) <= front * B(x)^n / n!`` with ``B(x) = int_0^x m((0,y)) dS(y)``
makes the truncation error certifiable.  A preset called without a measure
uses its closed-form :func:`bessel_principal_measure` or
:func:`bessel_killed_measure`.  No constructive route from a general
scale/speed pair to its spectral measure is attempted: custom specs must
come with a user-supplied measure.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc, gammaln, jv

from .diffusions import DiffusionSpec, series_bound_base
from .errors import (ConsistencyError, DomainError, IntegrabilityError,
                     RangeError, ToleranceError, TruncationError,
                     UnsupportedSpecError)
from .quadrature import QuadratureSettings, integrate

__all__ = [
    "EigenSeries",
    "SpectralMeasure",
    "bessel_principal_measure",
    "bessel_killed_measure",
    "measure_from_table",
    "eigen_coefficients",
    "eigen_value",
    "eigenfunction",
    "transition_density",
    "hitting_density",
    "levy_density",
    "levy_tail",
    "hitting_tail",
    "levy_exponent_from_measure",
]

T_MIN = 1.0e-6
_SERIES_CAP = 400


# ---------------------------------------------------------------------------
# eigenfunction series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenSeries:
    """Truncated coefficient sequence of one eigenfunction at a fixed point.

    ``value(gamma)`` is ``sum_n (-gamma)^n coefficients[n]``; the tail beyond
    the stored terms is bounded by ``front * (gamma * bound_base)^n / n!``
    summed over the missing ``n``, where ``front`` is 1 for an A-series and
    ``S(x)`` for a C-series.
    """

    x: float
    kind: str                      # "A" | "C"
    coefficients: np.ndarray
    bound_base: float              # B(x)
    front: float                   # 1 or S(x)

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise DomainError("coefficient list must be non-empty and 1-d")
        n = np.arange(c.size, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_bound = n * np.log(max(self.bound_base, 0.0)) \
                - gammaln(n + 1.0)
        log_bound = np.where(n == 0, 0.0, log_bound)
        bound = self.front * np.exp(np.minimum(log_bound, 700.0))
        slack = 1e-8 * (bound + 1e-300)
        if np.any(c < -slack):
            raise ConsistencyError("negative eigenseries coefficient")
        if np.any(c > bound * (1 + 1e-6) + 1e-300):
            raise ConsistencyError("eigenseries coefficient exceeds the "
                                   "factorial growth bound")
        object.__setattr__(self, "coefficients", c)


def _signed_series_eval(coefficients: np.ndarray, gamma) -> np.ndarray:
    """``sum_n (-gamma)^n c_n`` evaluated in log space.

    The separated powers ``gamma^n`` overflow long before the actual terms
    ``c_n gamma^n`` do (the coefficients decay factorially), so the terms
    are assembled from ``log c_n + n log gamma`` under a shared shift.
    ``gamma`` may be a float or an array of any shape.
    """
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


def _poisson_tail(n_terms: int, z: float) -> float:
    """P(Poisson(z) >= n_terms) = regularized lower gamma(n_terms, z)."""
    if z <= 0.0:
        return 0.0
    return float(gammainc(n_terms, z))


def _series_tail_bound(front: float, z: float, n_terms: int) -> float:
    # sum_{n >= n_terms} z^n / n! = e^z P(Poisson(z) >= n_terms)
    if z <= 0.0:
        return 0.0
    return front * math.exp(z) * _poisson_tail(n_terms, z)


def _terms_needed(front: float, z: float, tol: float) -> Optional[int]:
    """Smallest N with tail bound below tol, or None if > _SERIES_CAP."""
    if z <= 0.0:
        return 1
    ns = np.arange(1, _SERIES_CAP + 1)
    ok = gammainc(ns, z) < tol * np.exp(-z) / front
    hit = np.flatnonzero(ok)
    return int(ns[hit[0]]) if hit.size else None


def _cumulative_integral(z: np.ndarray, h: np.ndarray,
                         check_integrability: bool = False) -> np.ndarray:
    """Cumulative ``int_0^{z_j} h`` on a geometric grid with ``z[0] = 0``.

    ``h`` may follow a power law near 0 (its value at ``z[0]`` is ignored);
    the head ``(0, z_1]`` is integrated from a power-law fit through the
    first two interior nodes, the rest by the antiderivative of a cubic
    spline in the log abscissa (where power-law-like integrands are smooth
    exponentials).  Deep in the eigenfunction recursion the smallest nodes
    are absolutely negligible but relatively noisy, so the fitted exponent
    is clipped rather than trusted, and a divergence diagnosis is only
    issued when explicitly requested (on the first recursion step, where the
    integrand is an honest scale/speed product).
    """
    zi, hi = z[1:], h[1:]
    w = np.log(zi)
    spline = CubicSpline(w, hi * zi)    # int h dz = int h(e^w) e^w dw
    cum = spline.antiderivative()(w)
    # head (0, z_1]: fit h ~ c z^s through the first two nodes
    if hi[0] > 0.0 and hi[1] > 0.0:
        s = math.log(hi[1] / hi[0]) / (w[1] - w[0])
    else:
        s = math.inf
    if check_integrability and s <= -1.0:
        raise IntegrabilityError(
            f"integrand behaves like z^{s:.3f} at the origin; the "
            "scale/speed recursion integral diverges")
    s = min(max(s, -0.999), 80.0) if math.isfinite(s) else 80.0
    first = hi[0] * zi[0] / (s + 1.0)
    out = np.empty_like(z)
    out[0] = 0.0
    out[1:] = first + cum
    return out


# Recursion ladders: per (spec, x, kind), the coefficients computed so far
# on each refinement grid (512 * 2^level nodes) and the last recursion
# vector ``f`` there, so a longer series extends the stored levels instead
# of rerunning the recursion.  ``c_n`` on a grid does not depend on how many
# terms are asked for, so every series is bit-identical to a cold one.  A
# full ladder holds about 0.5 MB of ``f``; at most _MAX_LADDERS (about 8 MB)
# stay alive, the least recently used one is dropped first, and a spec's
# ladders die with it.
_LEVELS = 7
_MAX_LADDERS = 16
_LADDERS = weakref.WeakKeyDictionary()   # spec -> {(x, kind): _Ladder}
_LADDERS_LOCK = threading.Lock()
_LADDER_USE = itertools.count()


class _Ladder:
    """Recursion state of one ``(spec, x, kind)`` at every grid level; it
    holds no reference to the spec, which keys it weakly."""

    def __init__(self, x: float, kind: str):
        self.x, self.kind = x, kind
        self.lock = threading.Lock()   # held while extending or reading
        self.coef = [[] for _ in range(_LEVELS)]
        self.f = [None] * _LEVELS
        self.used = 0

    def coefficients(self, spec: DiffusionSpec, level: int,
                     n_terms: int) -> np.ndarray:
        """``c_0 .. c_{n_terms}`` on the grid of ``512 * 2^level`` nodes,
        extending the stored recursion as far as needed."""
        coef = self.coef[level]
        if len(coef) <= n_terms:
            x = self.x
            grid = np.concatenate([[0.0], np.geomspace(x * 1e-4, x,
                                                       512 << level)])
            s_vals = np.asarray(spec.scale(grid[1:]), dtype=float)
            s_vals = np.concatenate([[0.0], s_vals])
            m_vals = np.concatenate([[0.0],
                                     np.asarray(spec.speed_density(grid[1:]),
                                                dtype=float)])
            f = self.f[level]
            if f is None:
                f = np.ones_like(grid) if self.kind == "A" else s_vals
                self.f[level] = f
                coef.append(f[-1])
            for n in range(len(coef) - 1, n_terms):
                h = f * m_vals
                inner = _cumulative_integral(grid, h,       # int_0^y f dm
                                             check_integrability=(n == 0))
                cross = _cumulative_integral(grid,          # int_0^y S f dm
                                             s_vals * h)
                f = inner * s_vals - cross                  # int_0^y (.) dS
                self.f[level] = f
                coef.append(f[-1])
        return np.array(coef[:n_terms + 1])


def _ladder(spec: DiffusionSpec, x: float, kind: str) -> _Ladder:
    """The stored ladder of ``(spec, x, kind)``, made on first use."""
    with _LADDERS_LOCK:
        ladders = _LADDERS.setdefault(spec, {})
        ladder = ladders.get((x, kind))
        if ladder is None:
            ladder = ladders[(x, kind)] = _Ladder(x, kind)
        ladder.used = next(_LADDER_USE)
        live = [(lad.used, owner, key) for owner in _LADDERS.values()
                for key, lad in owner.items()]
        if len(live) > _MAX_LADDERS:
            _, owner, key = min(live, key=lambda e: e[0])
            del owner[key]
        return ladder


def eigen_coefficients(spec: DiffusionSpec, x: float, kind: str = "C",
                       n_terms: int = 24) -> EigenSeries:
    """Coefficients ``c_0 .. c_{n_terms}`` of the eigenfunction series at x.

    Evaluates the nested recursion
    ``c_{n+1}(y) = int_0^y dS int_0^. c_n dm`` derivative-free through
    integration by parts (only ``S`` and the speed density are needed), on a
    geometric grid that is refined until the last coefficient is stable to
    1e-9 relative.  The recursion is kept per ``(spec, x, kind)``, so a
    repeated or longer request extends it rather than starting over.
    """
    if kind not in ("A", "C"):
        raise DomainError("kind must be 'A' or 'C'")
    if x < 0:
        raise DomainError("x must be nonnegative")
    if n_terms < 0:
        raise DomainError("n_terms must be nonnegative")
    base = series_bound_base(spec, x)
    if x == 0.0:
        coef = np.zeros(n_terms + 1)
        front = 1.0 if kind == "A" else 0.0
        coef[0] = front
        return EigenSeries(x=x, kind=kind, coefficients=coef,
                           bound_base=0.0, front=front)
    front = 1.0 if kind == "A" else float(spec.scale(x))

    # refine with Richardson extrapolation across doublings (the spline
    # rule is 4th order); working terms must stabilize to 1e-9 relative,
    # deep terms (needed only to certify truncation tails) to 1e-6
    ladder = _ladder(spec, x, kind)
    with ladder.lock:
        prev = ladder.coefficients(spec, 0, n_terms)
        prev_ext = None
        for level in range(1, _LEVELS):
            cur = ladder.coefficients(spec, level, n_terms)
            ext = cur + (cur - prev) / 15.0
            if prev_ext is not None:
                delta = np.abs(ext - prev_ext) / (np.abs(ext) + 1e-280)
                tol_per_n = np.where(np.arange(n_terms + 1) <= 24,
                                     1e-9, 1e-6)
                if np.all(delta <= tol_per_n):
                    return EigenSeries(x=x, kind=kind, coefficients=ext,
                                       bound_base=base, front=front)
            prev, prev_ext = cur, ext
    raise ToleranceError(
        f"eigen recursion failed to stabilize coefficient n={n_terms} "
        f"at x={x} after grid refinement")


def eigen_value(series: EigenSeries, gamma: float, tol: float = 1e-10) -> float:
    """Evaluate the truncated eigenfunction series with a certified error.

    Raises :class:`TruncationError` (carrying ``minimal_terms``) when the
    factorial tail bound of the stored coefficients is not below ``tol``.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    gamma = float(gamma)
    z = abs(gamma) * series.bound_base
    n = series.coefficients.size
    bound = _series_tail_bound(series.front, z, n)
    if not bound < tol:
        needed = _terms_needed(series.front, z, tol)
        raise TruncationError(
            f"{n} terms give a tail bound {bound:.3e} >= tol {tol:.1e} at "
            f"gamma={gamma:g}"
            + ("" if needed is None else f"; {needed} terms would suffice"),
            minimal_terms=needed)
    return float(_signed_series_eval(series.coefficients, gamma))


# Bessel closed forms --------------------------------------------------------

def _bessel_eigen(alpha: float, kind: str, x: float) -> Callable:
    """Closed-form ``A(x; .)`` or ``C(x; .)`` of a Bessel preset, as a
    function of ``gamma > 0`` (a float or an array).

    With ``s = sqrt(2 gamma)``: ``A = Gamma(1-a) 2^{-a} (x s)^a J_{-a}(x s)``
    and ``C = Gamma(a) 2^{a-1} x^a s^{-a} J_a(x s)``.  At ``x = 0`` they are
    the boundary values ``A = 1`` and ``C = S(0) = 0``.
    """
    if x == 0.0:
        edge = 1.0 if kind == "A" else 0.0
        return lambda g: edge
    if kind == "A":
        c = gamma_fn(1.0 - alpha) * 2.0 ** (-alpha) * x ** alpha
        return lambda g: c * (2.0 * g) ** (0.5 * alpha) \
            * jv(-alpha, x * (2.0 * g) ** 0.5)
    c = gamma_fn(alpha) * 2.0 ** (alpha - 1.0) * x ** alpha
    return lambda g: c * (2.0 * g) ** (-0.5 * alpha) \
        * jv(alpha, x * (2.0 * g) ** 0.5)


def eigenfunction(spec: DiffusionSpec, x: float, gamma: float,
                  kind: str = "A", tol: float = 1e-10) -> float:
    """``A(x; gamma)`` or ``C(x; gamma)``.

    Presets use the closed Bessel-J forms; custom specs sum the recursion
    series with a certified truncation (the series length is chosen from the
    factorial bound, capped at 400 terms).
    """
    if kind not in ("A", "C"):
        raise DomainError("kind must be 'A' or 'C'")
    if x < 0 or gamma < 0:
        raise DomainError("x and gamma must be nonnegative")
    if spec.is_preset:
        if gamma == 0.0:
            return 1.0 if kind == "A" else float(spec.scale(x))
        return float(_bessel_eigen(spec.alpha, kind, x)(gamma))
    base = series_bound_base(spec, x)
    front = 1.0 if kind == "A" else float(spec.scale(x))
    needed = _terms_needed(max(front, 1e-300), gamma * base, tol)
    if needed is None:
        raise ToleranceError(
            f"eigenfunction series needs more than {_SERIES_CAP} certified "
            f"terms at gamma={gamma:g}, x={x:g}")
    series = eigen_coefficients(spec, x, kind, n_terms=needed)
    return eigen_value(series, gamma, tol)


# ---------------------------------------------------------------------------
# spectral measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralMeasure:
    """Absolutely continuous spectral measure on ``[0, inf)``.

    ``kind`` is ``"principal"`` (pairs with A-eigenfunctions, reflected
    kernel) or ``"killed"`` (pairs with C, everything that involves hitting
    the boundary).  ``gamma_cutoff_hint`` is a power ``p`` with
    ``density(gamma) = O(gamma^p)`` at infinity, used to pick the quadrature
    cutoff; measures of bounded support set ``support_end`` instead.
    Atomic measures are out of scope.
    """

    kind: str
    density: Callable
    gamma_cutoff_hint: float = 1.0
    support_end: float = math.inf
    name: str = "custom"
    alpha: Optional[float] = None   # set for the Bessel closed forms
    knots: Optional[np.ndarray] = field(default=None, repr=False,
                                        compare=False)

    def __post_init__(self):
        if self.kind not in ("principal", "killed"):
            raise DomainError("measure kind must be 'principal' or 'killed'")
        if self.alpha is None:
            _check_measure_integrability(self)


def _near_zero_power(measure: SpectralMeasure) -> float:
    lo = 1e-6
    if math.isfinite(measure.support_end):
        lo = max(lo, 1e-9)
    g1, g2 = lo, lo * 10.0
    d1, d2 = float(measure.density(g1)), float(measure.density(g2))
    if d1 < 0 or d2 < 0:
        raise DomainError("spectral density must be nonnegative")
    if d1 == 0.0:
        return math.inf  # vanishes near 0: integrable
    return math.log(max(d2, 1e-300) / d1) / math.log(g2 / g1)


def _check_measure_integrability(measure: SpectralMeasure) -> None:
    s = _near_zero_power(measure)
    if measure.kind == "principal":
        if not s > -1.0:
            raise IntegrabilityError(
                f"principal measure density ~ gamma^{s:.2f} near 0; "
                "int density/(gamma+1) diverges")
    else:
        if not s > 0.0:
            raise IntegrabilityError(
                f"killed measure density ~ gamma^{s:.2f} near 0; "
                "int density/(gamma(gamma+1)) diverges")
    if math.isinf(measure.support_end):
        g1, g2 = 1e6, 1e7
        d1 = float(measure.density(g1))
        d2 = float(measure.density(g2))
        if d1 > 0 and d2 > 0:
            p = math.log(d2 / d1) / math.log(g2 / g1)
            if p > measure.gamma_cutoff_hint + 0.5:
                raise IntegrabilityError(
                    f"density grows like gamma^{p:.2f} at infinity, above "
                    f"the declared cutoff hint {measure.gamma_cutoff_hint}")


def bessel_principal_measure(alpha: float) -> SpectralMeasure:
    """Closed-form principal measure of the reflected Bessel preset."""
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    c = 1.0 / (2.0 ** (1.0 - alpha) * gamma_fn(1.0 - alpha) ** 2)

    def density(g):
        return c * g ** (-alpha)

    return SpectralMeasure(kind="principal", density=density,
                           gamma_cutoff_hint=-alpha, name="bessel",
                           alpha=alpha)


def bessel_killed_measure(alpha: float) -> SpectralMeasure:
    """Closed-form spectral measure of the killed Bessel preset."""
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    c = 2.0 ** (1.0 - alpha) / gamma_fn(alpha) ** 2

    def density(g):
        return c * g ** alpha

    return SpectralMeasure(kind="killed", density=density,
                           gamma_cutoff_hint=alpha, name="bessel_hat",
                           alpha=alpha)


def measure_from_table(gammas, densities, kind: str = "killed") -> SpectralMeasure:
    """Measure from a density table; zero outside the tabulated support."""
    g = np.asarray(gammas, dtype=float)
    d = np.asarray(densities, dtype=float)
    if g.ndim != 1 or g.shape != d.shape or g.size < 4:
        raise DomainError("table needs matching 1-d arrays of length >= 4")
    if not np.all(np.diff(g) > 0):
        raise DomainError("gammas must be strictly increasing")
    if g[0] < 0 or np.any(d < 0):
        raise DomainError("gammas and densities must be nonnegative")
    if g[0] == 0.0:
        if kind == "killed" and d[0] > 0:
            raise IntegrabilityError(
                "killed measure table has positive density at gamma=0; "
                "int density/gamma diverges")
        g, d = g[1:], d[1:]
    interp = PchipInterpolator(g, d, extrapolate=False)
    lo, hi = g[0], g[-1]

    def density(x):
        x = np.asarray(x, dtype=float)
        out = interp(np.clip(x, lo, hi))
        out = np.where((x < lo) | (x > hi), 0.0, out)
        return out[()] if out.ndim == 0 else out

    # near-zero integrability from the first two positive-density nodes
    pos = np.flatnonzero(d > 0)
    if pos.size >= 2 and g[pos[0]] < 1.0:
        i, j = pos[0], pos[1]
        s = math.log(d[j] / d[i]) / math.log(g[j] / g[i])
    else:
        s = math.inf
    if kind == "killed" and g[0] < 1e-8 and not s > 0.0:
        raise IntegrabilityError(
            f"killed table density ~ gamma^{s:.2f} near 0")
    return SpectralMeasure(kind=kind, density=density,
                           gamma_cutoff_hint=0.0, support_end=float(hi),
                           name="table", alpha=None, knots=g.copy())


# ---------------------------------------------------------------------------
# spectral integrals
# ---------------------------------------------------------------------------

_SPECTRAL_QUAD = QuadratureSettings(epsabs=1e-12, epsrel=1e-10, limit=400)
_CELL_BLOCK = 256
# positive halves (nodes, weights) of numpy's leggauss(8) and leggauss(4),
# written out: computing them takes an eigenvalue solve, and the first
# LAPACK call of a process costs it about 0.8 MB of resident memory
_GAUSS_HALVES = {
    8: ([0.18343464249564978, 0.525532409916329, 0.7966664774136267,
         0.9602898564975362],
        [0.36268378337836166, 0.3137066458778869, 0.22238103445337443,
         0.10122853629037706]),
    4: ([0.33998104358485626, 0.8611363115940526],
        [0.6521451548625464, 0.34785484513745357]),
}
_GAUSS_LEGENDRE = {n: (np.r_[-np.array(x)[::-1], x], np.r_[w[::-1], w])
                   for n, (x, w) in _GAUSS_HALVES.items()}


def _check_t(t: float) -> None:
    if t <= 0:
        raise DomainError("t must be positive")
    if t < T_MIN:
        raise RangeError(f"t below the supported minimum {T_MIN:g}")


def _gamma_max(measure: SpectralMeasure, t_eff: float, tol: float,
               envelope: Callable) -> tuple[float, float]:
    """Quadrature cutoff ``g_max`` and the tail estimate beyond it.

    Doubles ``g`` until ``e^{-g t_eff} density(g) envelope(g)`` times
    ``4 max(g, 1/t_eff)`` falls below ``tol / 10``; that value is the tail
    estimate, a heuristic rather than a proven bound.  ``envelope`` stands
    in for a bound on the eigenfunction product.  A measure of bounded
    support is cut at its end, with no tail.
    """
    if math.isfinite(measure.support_end):
        return measure.support_end, 0.0
    if t_eff <= 0:
        raise ToleranceError(
            "spectral integral not certifiable: the series growth bound "
            "exceeds the exponential damping (t too small for this x)")
    g = max(4.0 / t_eff, 1.0)
    for _ in range(200):
        tail = math.exp(-g * t_eff) * float(measure.density(g)) \
            * envelope(g) * max(g, 1.0 / t_eff) * 4.0
        if tail < tol / 10.0:
            return g, tail
        g *= 2.0
    raise ToleranceError("no finite quadrature cutoff found for the measure")


def _integrate_gamma(f: Callable, g_max: float):
    """``int_0^{g_max} f(gamma) dgamma`` as ``(value, abserr)``.

    The substitution ``gamma = v^4 / 2`` (``dgamma = 2 v^3 dv``) flattens
    the integrable power singularity a measure density leaves at the
    origin: a ``gamma^{-3/4}`` principal density becomes constant in ``v``,
    so plain adaptive quadrature converges cleanly at small ``t`` too.
    """
    def integrand(v):
        u = v * v
        g = 0.5 * u * u
        return 0.0 if g == 0.0 else f(g) * 2.0 * u * v

    return integrate(integrand, 0.0, (2.0 * g_max) ** 0.25,
                     settings=_SPECTRAL_QUAD)


def _spectral_integral(spec: DiffusionSpec, t: float, tol: float, *,
                       measure: SpectralMeasure, eig_kind: str, xs,
                       inverse_gamma: bool):
    """``int e^{-gamma t} prod_i eig(x_i; gamma) [gamma^{-1}] measure(dgamma)``
    with an error covering the quadrature and the cutoff."""
    if spec.is_preset:
        # 2 (1+g)^{1/2} stands in for a bound on the Bessel product
        g_max, tail = _gamma_max(measure, t, tol,
                                 lambda g: 2.0 * (1.0 + g) ** 0.5)
        evals = [_bessel_eigen(spec.alpha, eig_kind, x) for x in xs]
    else:
        fronts = [1.0 if eig_kind == "A" else float(spec.scale(x))
                  for x in xs]
        bases = [series_bound_base(spec, x) for x in xs]
        # the e^{g B(x)} part of each eigenfunction bound is folded into
        # the damping passed to the cutoff search, so the envelope is just
        # the constant front factor
        front_prod = math.prod(fronts)
        g_max, tail = _gamma_max(measure, t - sum(bases), tol,
                                 lambda g: front_prod)
        evals = []
        for x, front, base in zip(xs, fronts, bases):
            needed = _terms_needed(max(front, 1e-300), g_max * base, tol)
            if needed is None:
                raise ToleranceError(
                    "eigenfunction series not certifiable over the "
                    f"quadrature range [0, {g_max:.3g}]; reduce the "
                    "measure support or increase t")
            series = eigen_coefficients(spec, x, eig_kind, n_terms=needed)
            # the tail bound grows with gamma, so certifying the series at
            # g_max certifies it at every quadrature node
            eigen_value(series, g_max, tol)
            evals.append(lambda g, c=series.coefficients:
                         _signed_series_eval(c, g))

    density = measure.density

    if measure.knots is not None:
        # piecewise-cubic density: a fixed Gauss rule per cell is exact up
        # to the smooth eigenfunction/damping factors, provided the cells
        # resolve the power-law weight near the left end of the support --
        # so refine the knot partition with a geometric overlay
        hi = min(g_max, measure.support_end)
        knots = measure.knots[measure.knots <= hi]
        if knots.size == 0 or knots[-1] < hi:
            knots = np.append(knots, hi)
        lo = knots[0]
        if lo <= 0 or hi / lo < 1.0:
            raise DomainError("degenerate table support")
        overlay = np.geomspace(lo, hi, 257)
        cuts = np.unique(np.concatenate([knots, overlay]))

        def cell_sum(order):
            nodes, wts = _GAUSS_LEGENDRE[order]
            total = 0.0
            # blocks of cells bound the temporaries: a series evaluator
            # holds a (nodes x terms) matrix
            lefts, rights = cuts[:-1], cuts[1:]
            for i in range(0, lefts.size, _CELL_BLOCK):
                a, b = lefts[i:i + _CELL_BLOCK], rights[i:i + _CELL_BLOCK]
                half = 0.5 * (b - a)
                g = 0.5 * (a + b)[:, None] + half[:, None] * nodes[None, :]
                vals = np.exp(-g * t) * np.asarray(density(g))
                for e in evals:
                    vals = vals * np.asarray(e(g))
                if inverse_gamma:
                    vals = vals / g
                total += float(np.sum(vals * (half[:, None] * wts[None, :])))
            return total

        v8, v4 = cell_sum(8), cell_sum(4)
        return v8, abs(v8 - v4) + tail

    def f(g):
        val = math.exp(-g * t) * float(density(g))
        for e in evals:
            val *= e(g)
        return val / g if inverse_gamma else val

    val, err = _integrate_gamma(f, g_max)
    return val, err + tail


def _dispatch(spec: DiffusionSpec, t: float, tol: float, *, eig_kind: str,
              xs, inverse_gamma: bool, measure: Optional[SpectralMeasure]):
    _check_t(t)
    needed_kind = "principal" if eig_kind == "A" else "killed"
    if measure is None:
        if not spec.is_preset:
            raise UnsupportedSpecError(
                "no spectral measure available: custom scale/speed pairs "
                "must be accompanied by an explicit SpectralMeasure (the "
                "inverse spectral problem is out of scope)")
        measure = (bessel_principal_measure if eig_kind == "A"
                   else bessel_killed_measure)(spec.alpha)
    elif measure.kind != needed_kind:
        raise DomainError(
            f"this functional needs a {needed_kind!r} measure, got "
            f"{measure.kind!r}")
    return _spectral_integral(spec, t, tol, measure=measure,
                              eig_kind=eig_kind, xs=xs,
                              inverse_gamma=inverse_gamma)


def transition_density(spec: DiffusionSpec, x: float, y: float, t: float,
                       killed: bool = False,
                       measure: Optional[SpectralMeasure] = None,
                       tol: float = 1e-9, with_error: bool = False):
    """Spectral-quadrature transition density ``p`` (or ``p_hat``) at
    ``(t; x, y)``, a density in ``y`` with respect to the speed measure."""
    if x < 0 or y < 0:
        raise DomainError("x and y must be nonnegative")
    val, err = _dispatch(spec, t, tol, eig_kind="C" if killed else "A",
                         xs=(x, y), inverse_gamma=False, measure=measure)
    return (val, err) if with_error else val


def hitting_density(spec: DiffusionSpec, x: float, t: float,
                    measure: Optional[SpectralMeasure] = None,
                    tol: float = 1e-9, with_error: bool = False):
    """Density of the first boundary-hitting time from ``x > 0``."""
    if x <= 0:
        raise DomainError("x must be positive")
    val, err = _dispatch(spec, t, tol, eig_kind="C", xs=(x,),
                         inverse_gamma=False, measure=measure)
    return (val, err) if with_error else val


def levy_density(spec: DiffusionSpec, t: float,
                 measure: Optional[SpectralMeasure] = None,
                 tol: float = 1e-9, with_error: bool = False):
    """Levy density of the inverse local time at the boundary."""
    val, err = _dispatch(spec, t, tol, eig_kind="C", xs=(),
                         inverse_gamma=False, measure=measure)
    return (val, err) if with_error else val


def levy_tail(spec: DiffusionSpec, t: float,
              measure: Optional[SpectralMeasure] = None,
              tol: float = 1e-9, with_error: bool = False):
    """Levy tail mass ``nu((t, inf))`` of the inverse local time."""
    val, err = _dispatch(spec, t, tol, eig_kind="C", xs=(),
                         inverse_gamma=True, measure=measure)
    return (val, err) if with_error else val


def hitting_tail(spec: DiffusionSpec, x: float, t: float,
                 measure: Optional[SpectralMeasure] = None,
                 tol: float = 1e-9, with_error: bool = False):
    """``P_x(H_0 > t)``, the boundary-hitting survival function."""
    if x <= 0:
        raise DomainError("x must be positive")
    val, err = _dispatch(spec, t, tol, eig_kind="C", xs=(x,),
                         inverse_gamma=True, measure=measure)
    slack = max(tol, 10.0 * err, 1e-7)
    if val < -slack or val > 1.0 + slack:
        raise ConsistencyError(
            f"hitting tail {val:.6g} outside [0, 1] beyond tolerance")
    val = min(max(val, 0.0), 1.0)
    return (val, err) if with_error else val


def levy_exponent_from_measure(measure: SpectralMeasure, lam: float,
                               with_error: bool = False):
    """Subordinator exponent from a killed spectral measure.

    Uses ``Phi(lam) = int lam / (gamma (gamma + lam)) Delta_hat(dgamma)``,
    the Fubini reduction of the jump-measure integral; this is the custom-
    spec route complementing the closed-form Levy densities of the presets.
    With ``with_error`` the result is ``(value, error)``, the error being
    the sum of the quadrature estimates.
    """
    if measure.kind != "killed":
        raise DomainError("the exponent integral needs a 'killed' measure")
    if lam < 0:
        raise DomainError("lambda must be nonnegative")
    end = measure.support_end

    def f(g):
        return lam / (g * (g + lam)) * float(measure.density(g))

    if lam == 0.0:
        val, err = 0.0, 0.0
    elif math.isfinite(end):
        val, err = _integrate_gamma(f, end)
    else:
        head, head_err = _integrate_gamma(f, max(lam, 1.0))
        tail, tail_err = integrate(f, max(lam, 1.0), np.inf)
        val, err = head + tail, head_err + tail_err
    return (val, err) if with_error else val
