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
eigenfunctions come from one of two evaluators: the closed ``0F1`` forms
for the presets (DLMF 10.16.9), or, for a general scale/speed pair, the
power series ``sum (-gamma)^n c_n(x)`` whose coefficients obey the nested
recursion ``c_{n+1}(x) = int_0^x dS(y) int_0^y c_n dm``; the factorial bound
``c_n(x) <= front * B(x)^n / n!`` with ``B(x) = int_0^x m((0,y)) dS(y)``
makes the truncation error certifiable.  One ``_Ladder`` per ``(spec, x,
kind)`` owns a custom series: it keeps the recursion, ``B(x)``, the front
factor and the last few converged series, and serves every request, for
the series of a given length (``eigen_coefficients``) or the shortest one
certified up to a ``gamma`` (``eigenfunction``, the spectral integrals).
``EigenSeries.value`` evaluates a series at any array of ``gamma``.
A preset called without a measure uses its closed-form
:func:`bessel_principal_measure` or :func:`bessel_killed_measure`.  No
constructive route from a general scale/speed pair to its spectral measure
is attempted: custom specs must come with a user-supplied measure.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc, gammaln, hyp0f1

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

@dataclass(frozen=True, eq=False)
class EigenSeries:
    """Truncated coefficient sequence of one eigenfunction at a fixed point.

    ``value(gamma)`` is ``sum_n (-gamma)^n coefficients[n]``; the tail beyond
    the stored terms is bounded by ``front * (gamma * bound_base)^n / n!``
    summed over the missing ``n``, where ``front`` is 1 for an A-series and
    ``S(x)`` for a C-series.  The coefficients are a read-only copy, so a
    series can be kept and shared; series compare and hash by identity.
    """

    x: float
    kind: str                      # "A" | "C"
    coefficients: np.ndarray
    bound_base: float              # B(x)
    front: float                   # 1 or S(x)

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise DomainError("coefficient list must be non-empty and 1-d")
        if not np.all(np.isfinite(c)):
            raise ConsistencyError("non-finite eigenseries coefficient")
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
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)
        # what ``value`` needs of the coefficients, made once: log c_n, n
        # and the signs of (-gamma)^n for gamma > 0 (all +1 for gamma < 0)
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "_logc", np.log(np.maximum(c, 0.0)))
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_alternating", (-1.0) ** n)

    def value(self, gamma, terms: Optional[int] = None):
        """The sum of the first ``terms`` terms (None: all) at ``gamma``, a
        float or an array of any shape; at ``gamma = 0`` it is ``c_0``, and
        a NaN ``gamma`` gives NaN.

        The separated powers ``gamma^n`` overflow long before the actual
        terms ``c_n gamma^n`` do (the coefficients decay factorially), so
        the terms are assembled from ``log c_n + n log|gamma|`` under a
        shared shift: each row's largest log, or 0 if it is infinite.  The
        term matrix is built, shifted and exponentiated in place.  A
        ``terms`` below 1 raises :class:`DomainError`.  A negative
        coefficient counts as 0.  This route serves QAGS panels, single
        nodes and :func:`eigen_value`; the table cells sum by
        :meth:`horner`.
        """
        if terms is not None and terms < 1:
            raise DomainError(f"terms must be at least 1, got {terms}")
        g = np.asarray(gamma, dtype=float)
        shape, g = g.shape, g.ravel()
        logc, n = self._logc[:terms], self._n[:terms]
        with np.errstate(divide="ignore", invalid="ignore"):
            lg = np.log(np.abs(g))
            logs = lg[:, None] * n[None, :]
            logs += logc
        # 0 * inf and -inf + inf leave NaNs, only where log|gamma| is not
        # finite (gamma = 0, +-inf or NaN); such a term counts as absent
        odd = ~np.isfinite(lg)
        has_odd = odd.any()
        if has_odd:
            rows = logs[odd]
            rows[np.isnan(rows)] = -np.inf
            logs[odd] = rows
        m = logs.max(axis=1)
        m = np.where(np.isfinite(m), m, 0.0)
        logs -= m[:, None]
        mags = np.exp(logs, out=logs)
        if (g < 0.0).any():
            signs = np.where(g[:, None] < 0.0, 1.0, self._alternating[:terms])
            vals = np.einsum("ij,ij->i", mags, signs) * np.exp(m)
        else:
            vals = np.einsum("ij,j->i", mags, self._alternating[:terms]) \
                * np.exp(m)
        if has_odd:
            vals = np.where(g == 0.0, self.coefficients[0], vals)
            vals = np.where(np.isnan(g), np.nan, vals)
        return vals[0] if not shape else vals.reshape(shape)

    def horner(self, gamma, terms: Optional[int] = None):
        """The same sum as :meth:`value` by Horner's rule, ``b = b (-gamma)
        + c_n`` in place: one pass of two vector operations per term
        instead of a (nodes x terms) matrix, which is 4-6x faster on the
        blocks of table cells (1024-2048 nodes) and slower on QAGS panels.
        Its rounding is below ``gamma_2n sum |c_n| |gamma|^n`` with
        ``gamma_2n = 2n u / (1 - 2n u)``, ``u`` the unit roundoff (Higham,
        *Accuracy and Stability of Numerical Algorithms*, 5.1), which the
        knots branch of the spectral integral adds to its error.

        A negative coefficient counts as 0.  The stored coefficients end in
        exact zeros or negative subnormals (past about n = 85-110 for the
        recursion series), which add nothing, so the loop starts at the
        last positive one.  ``gamma = 0`` leaves exactly ``c_0``.
        """
        if terms is not None and terms < 1:
            raise DomainError(f"terms must be at least 1, got {terms}")
        g = np.asarray(gamma, dtype=float)
        c = self.coefficients[:terms]
        positive = np.flatnonzero(c > 0.0)
        top = int(positive[-1]) if positive.size else 0
        b = np.full(g.shape, max(c[top], 0.0))
        if top == 0:                   # no power of gamma to carry a NaN
            b[np.isnan(g)] = np.nan
        else:
            neg = -g
            for cn in np.maximum(c[top - 1::-1], 0.0).tolist():
                b *= neg
                b += cn
        return b if b.shape else float(b)


def _terms_needed(front: float, z: float, tol: float) -> Optional[int]:
    """Smallest N with tail bound below tol, or None if > _SERIES_CAP.

    ``gammainc(n, z)`` is scanned in doubling windows of ``n`` (1-64,
    65-192, ...), so a short series does not pay for the whole cap."""
    if z <= 0.0:
        return 1
    level = tol * np.exp(-z) / front
    lo, width = 1, 64
    while lo <= _SERIES_CAP:
        ns = np.arange(lo, min(lo + width, _SERIES_CAP + 1))
        hit = np.flatnonzero(gammainc(ns, z) < level)
        if hit.size:
            return int(ns[hit[0]])
        lo, width = lo + width, 2 * width
    return None


def _cumulative_integral(z: np.ndarray, h: np.ndarray,
                         check_integrability: bool = False) -> np.ndarray:
    """Cumulative ``int_0^{z_j} h`` on a geometric grid with ``z[0] = 0``.

    ``h`` may follow a power law near 0 (its value at ``z[0]`` is ignored);
    the head ``(0, z_1]`` is integrated from a power-law fit through the
    first two interior nodes, the rest exactly for the not-a-knot cubic
    spline in the log abscissa (where power-law-like integrands are smooth
    exponentials).  Deep in the eigenfunction recursion the smallest nodes
    are absolutely negligible but relatively noisy, so the fitted exponent
    is clipped rather than trusted, and a divergence diagnosis is only
    issued when explicitly requested (on the first recursion step, where the
    integrand is an honest scale/speed product).
    """
    zi, hi = z[1:], h[1:]
    w = np.log(zi)
    y, dw = hi * zi, np.diff(w)         # int h dz = int h(e^w) e^w dw
    d = _spline_slopes(w, dw, y)
    # a cubic with end values y_i, y_{i+1} and end slopes d_i, d_{i+1}
    # integrates to dw (y_i + y_{i+1}) / 2 - dw^2 (d_{i+1} - d_i) / 12
    pieces = dw * (y[:-1] + y[1:]) / 2.0 - dw * dw * (d[1:] - d[:-1]) / 12.0
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
    return np.concatenate([[0.0, first], first + np.cumsum(pieces)])


def _spline_slopes(x: np.ndarray, dx: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node slopes of the not-a-knot cubic spline through ``(x, y)``, for at
    least four nodes: the tridiagonal system ``CubicSpline`` solves.  Only
    the eigen recursion needs ``scipy.linalg``, so it loads here."""
    from scipy.linalg import solve_banded
    slope = np.diff(y) / dx
    ab = np.zeros((3, x.size))          # upper, main and lower diagonals
    b = np.empty(x.size)
    ab[0, 2:] = dx[:-1]
    ab[1, 1:-1] = 2.0 * (dx[:-1] + dx[1:])
    ab[2, :-2] = dx[1:]
    b[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    ab[1, 0], ab[0, 1] = dx[1], d
    b[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    ab[1, -1], ab[2, -2] = dx[-2], d
    b[-1] = (dx[-1] ** 2 * slope[-2]
             + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    return solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True,
                        check_finite=False)


# Recursion ladders: per (spec, x, kind), the coefficients computed so far
# on each refinement grid (512 * 2^level nodes) and the last recursion
# vector ``f`` there, so a longer series extends the stored levels instead
# of rerunning the recursion.  ``c_n`` on a grid does not depend on how many
# terms are asked for, so every series is bit-identical to a cold one.  A
# ladder also keeps ``B(x)`` and the front factor, and the last
# _SERIES_KEPT converged series by length, each with its evaluator (four
# float rows of n_terms + 1: 32 bytes a term, about 13 KB at the 400-term
# cap, so at most about 0.1 MB a ladder).  A full ladder holds about 0.5 MB
# of ``f``; at most _MAX_LADDERS (about 10 MB) stay alive, the least
# recently used one is dropped first, and a spec's ladders die with it.
# _SERIES_KEPT covers the lengths one ladder is asked for in practice:
# ``hitting_tail`` of ``x``/``2`` at x = 1 over 16 values of t in [2, 64]
# asks for 8 distinct lengths (half its requests repeat one), and a pass of
# the ``custom`` benchmark workload for at most 7 per ladder.
_LEVELS = 7
_MAX_LADDERS = 16
_SERIES_KEPT = 8
_LADDERS = weakref.WeakKeyDictionary()   # spec -> {(x, kind): _Ladder}
_LADDERS_LOCK = threading.Lock()
_LADDER_USE = itertools.count()


class _Ladder:
    """Recursion state of one ``(spec, x, kind)`` at every grid level, and
    the one maker of its series: :meth:`series` gives the converged series
    of a length, :meth:`certified` the shortest one certified up to a
    ``gamma``.  Each public method takes the ladder's lock itself.  A
    ladder holds no reference to the spec, which keys it weakly."""

    def __init__(self, x: float, kind: str, front: Optional[float] = None):
        self.x, self.kind = x, kind
        self.lock = threading.Lock()   # held while extending or reading
        self.coef = [[] for _ in range(_LEVELS)]
        self.f = [None] * _LEVELS
        self.used = 0
        # a boundary ladder is made with its front factor, and B(0) = 0
        self.base = None if front is None else 0.0
        self.front = front
        self.kept = {}                 # n_terms -> EigenSeries, oldest first

    def constants(self, spec: DiffusionSpec) -> tuple[float, float]:
        """``(B(x), front)`` of the series, computed on first use."""
        with self.lock:
            if self.base is None:
                self.base = series_bound_base(spec, self.x)
                self.front = 1.0 if self.kind == "A" \
                    else float(spec.scale(self.x))
            return self.base, self.front

    def series(self, spec: DiffusionSpec, n_terms: int) -> EigenSeries:
        """The converged series ``c_0 .. c_{n_terms}``, kept as the newest
        of the last _SERIES_KEPT lengths asked for."""
        base, front = self.constants(spec)
        with self.lock:
            series = self.kept.pop(n_terms, None)
            if series is None:
                series = EigenSeries(self.x, self.kind, self._converged(
                    spec, n_terms, front), base, front)
            self.kept[n_terms] = series
            if len(self.kept) > _SERIES_KEPT:
                del self.kept[next(iter(self.kept))]
            return series

    def certified(self, spec: DiffusionSpec, gamma: float,
                  tol: float) -> EigenSeries:
        """The shortest series whose tail bound at ``gamma`` is below
        ``tol``.  The bound grows with ``gamma``, so the series is certified
        on all of ``[0, gamma]``."""
        base, front = self.constants(spec)
        needed = _terms_needed(max(front, 1e-300), gamma * base, tol)
        if needed is None:
            raise ToleranceError(
                f"eigenfunction series at x={self.x:g} needs more than "
                f"{_SERIES_CAP} certified terms up to gamma={gamma:g}")
        return self.series(spec, needed)

    def _converged(self, spec: DiffusionSpec, n_terms: int,
                   front: float) -> np.ndarray:
        """Coefficients refined with Richardson extrapolation across grid
        doublings (the spline rule is 4th order) until working terms are
        stable to 1e-9 relative and deep terms (needed only to certify
        truncation tails) to 1e-6."""
        if self.x == 0.0:
            return np.r_[front, np.zeros(n_terms)]
        prev = self._coefficients(spec, 0, n_terms)
        prev_ext = None
        for level in range(1, _LEVELS):
            cur = self._coefficients(spec, level, n_terms)
            ext = cur + (cur - prev) / 15.0
            if prev_ext is not None:
                delta = np.abs(ext - prev_ext) / (np.abs(ext) + 1e-280)
                tol_per_n = np.where(np.arange(n_terms + 1) <= 24,
                                     1e-9, 1e-6)
                if np.all(delta <= tol_per_n):
                    return ext
            prev, prev_ext = cur, ext
        raise ToleranceError(
            f"eigen recursion failed to stabilize coefficient n={n_terms} "
            f"at x={self.x} after grid refinement")

    def _coefficients(self, spec: DiffusionSpec, level: int,
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


# at the boundary A = 1 and C = S(0) = 0 for every gamma and every spec,
# so one ladder per kind, outside the registry, serves them all
_BOUNDARY = {"A": _Ladder(0.0, "A", front=1.0),
             "C": _Ladder(0.0, "C", front=0.0)}


def _ladder(spec: DiffusionSpec, x: float, kind: str) -> _Ladder:
    """The stored ladder of ``(spec, x, kind)``, made on first use, or at
    the boundary ``x = 0`` the shared one of ``kind``."""
    if x == 0.0:
        return _BOUNDARY[kind]
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
    longer request extends it rather than starting over, and the last few
    converged series are kept too, so a repeated request returns the same
    (read-only) series.
    """
    if kind not in ("A", "C"):
        raise DomainError("kind must be 'A' or 'C'")
    if x < 0:
        raise DomainError("x must be nonnegative")
    if n_terms < 0:
        raise DomainError("n_terms must be nonnegative")
    return _ladder(spec, x, kind).series(spec, n_terms)


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
    # sum_{k >= n} z^k / k! = e^z P(Poisson(z) >= n), and that probability
    # is the regularized lower gamma(n, z)
    bound = series.front * math.exp(z) * float(gammainc(n, z)) \
        if z > 0.0 else 0.0
    if not bound < tol:
        needed = _terms_needed(series.front, z, tol)
        raise TruncationError(
            f"{n} terms give a tail bound {bound:.3e} >= tol {tol:.1e} at "
            f"gamma={gamma:g}"
            + ("" if needed is None else f"; {needed} terms would suffice"),
            minimal_terms=needed)
    return float(series.value(gamma))


# Bessel closed forms --------------------------------------------------------

def _bessel_eigen(spec: DiffusionSpec, kind: str, x: float) -> Callable:
    """Closed-form ``A(x; .)`` or ``C(x; .)`` of a Bessel preset at a float
    or an array of ``gamma >= 0``; the ``terms`` argument is ignored.  Both
    are entire ``0F1`` functions of ``q = x^2 gamma / 2`` (DLMF 10.16.9),
    ``A = 0F1(; 1-a; -q)`` and ``C = S(x) 0F1(; 1+a; -q)``, so exactly 1
    and ``S(x)`` at ``q = 0``.  scipy's ``hyp0f1`` loses digits at a
    parameter below 1, so ``A`` takes the Bessel recurrence (DLMF 10.6.1)
    in ``0F1`` form, ``0F1(; b-1; z) = 0F1(; b; z) + z/(b(b-1)) 0F1(; b+1;
    z)`` at ``b = 2-a``.
    """
    a, h = spec.alpha, 0.5 * x * x
    if kind == "C":
        front = float(spec.scale(x))
        return lambda g, terms=None: front * hyp0f1(1.0 + a, -h * g)
    c = h / ((1.0 - a) * (2.0 - a))
    return lambda g, terms=None: hyp0f1(2.0 - a, -h * g) \
        - c * g * hyp0f1(3.0 - a, -h * g)


def eigenfunction(spec: DiffusionSpec, x: float, gamma: float,
                  kind: str = "A", tol: float = 1e-10) -> float:
    """``A(x; gamma)`` or ``C(x; gamma)``.

    Presets use the closed ``0F1`` forms of :func:`_bessel_eigen`; custom
    specs sum the recursion series with a certified truncation (the series
    length is chosen from the factorial bound, capped at 400 terms).
    """
    if kind not in ("A", "C"):
        raise DomainError("kind must be 'A' or 'C'")
    if not (0 <= x < math.inf and 0 <= gamma < math.inf):
        raise DomainError("x and gamma must be nonnegative and finite")
    if spec.is_preset:
        return float(_bessel_eigen(spec, kind, x)(gamma))
    return eigen_value(_ladder(spec, x, kind).certified(spec, gamma, tol),
                       gamma, tol)


# ---------------------------------------------------------------------------
# spectral measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralMeasure:
    """Absolutely continuous spectral measure on ``[0, inf)``.

    ``kind`` is ``"principal"`` (pairs with A-eigenfunctions, reflected
    kernel) or ``"killed"`` (pairs with C, everything that involves hitting
    the boundary).  ``density`` maps an array of ``gamma > 0`` to an array
    of the same shape, and a float to a float: the quadrature evaluates it
    on a whole panel of nodes at once.  ``gamma_cutoff_hint`` is a power
    ``p`` with ``density(gamma) = O(gamma^p)`` at infinity; construction
    rejects a density that grows faster, and measures of bounded support
    set ``support_end`` instead.
    Atomic measures are out of scope.
    """

    kind: str
    density: Callable
    gamma_cutoff_hint: float = 1.0
    support_end: float = math.inf
    knots: Optional[np.ndarray] = field(default=None, repr=False,
                                        compare=False)

    def __post_init__(self):
        if self.kind not in ("principal", "killed"):
            raise DomainError("measure kind must be 'principal' or 'killed'")
        _check_measure_integrability(self)


def _near_zero_power(measure: SpectralMeasure) -> float:
    g1 = 1e-6
    g2 = g1 * 10.0
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
                           gamma_cutoff_hint=-alpha)


def bessel_killed_measure(alpha: float) -> SpectralMeasure:
    """Closed-form spectral measure of the killed Bessel preset."""
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    c = 2.0 ** (1.0 - alpha) / gamma_fn(alpha) ** 2

    def density(g):
        return c * g ** alpha

    return SpectralMeasure(kind="killed", density=density,
                           gamma_cutoff_hint=alpha)


def _pchip(x, y) -> Callable:
    """scipy's ``PchipInterpolator(x, y, extrapolate=False)`` bit for bit,
    for strictly increasing ``x`` with at least two nodes: the same slopes
    and power-basis coefficients, summed in the same order, and NaN
    outside ``[x[0], x[-1]]``."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    h = np.diff(x)
    m = np.diff(y) / h
    if x.size == 2:
        d = np.array([m[0], m[0]])
    else:
        # weighted harmonic means inside, 0 where the data turn or stall
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) \
            | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inner = np.where(flat, 0.0,
                             1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        # Moler's shape-preserving three-point rule at both ends
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        e = np.where(np.sign(e) != np.sign(m0), 0.0, np.where(
            (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0)),
            3.0 * m0, e))
        d = np.concatenate([e[:1], inner, e[1:]])
    t = (d[:-1] + d[1:] - 2 * m) / h
    c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]

    def interp(q):
        q = np.asarray(q, dtype=float)
        i = np.minimum(np.searchsorted(x, q, side="right"), x.size - 1) - 1
        s = q - x[i]
        out = 0.0 + c3[i] + c2[i] * s + c1[i] * (s * s) + c0[i] * (s * s * s)
        return np.where((q >= x[0]) & (q <= x[-1]), out, np.nan)

    return interp


def _table_power(g: np.ndarray, d: np.ndarray) -> float:
    """Power of a table density near 0: through its first two positive
    nodes if the first lies below 1, else ``inf``."""
    pos = np.flatnonzero(d > 0)
    if pos.size < 2 or g[pos[0]] >= 1.0:
        return math.inf
    i, j = pos[:2]
    return math.log(d[j] / d[i]) / math.log(g[j] / g[i])


def measure_from_table(gammas, densities, kind: str = "killed") -> SpectralMeasure:
    """Measure from a density table; zero outside the tabulated support.

    A spectral integral against it reports in its error the mass the
    density would carry below the first knot if it continued there as the
    power law through its first two positive-density knots; there is none
    when the first of them lies at 1 or beyond, and a continuation whose
    integral diverges raises :class:`IntegrabilityError`.  The value leaves
    that mass out.  A table meant to vanish below its first knot starts
    with a zero density there."""
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
    interp = _pchip(g, d)
    lo, hi = g[0], g[-1]

    def density(x):
        x = np.asarray(x, dtype=float)
        out = np.where((x < lo) | (x > hi), 0.0, interp(x))
        return out[()] if out.ndim == 0 else out

    s = _table_power(g, d)
    if kind == "killed" and g[0] < 1e-8 and not s > 0.0:
        raise IntegrabilityError(
            f"killed table density ~ gamma^{s:.2f} near 0")
    return SpectralMeasure(kind=kind, density=density,
                           gamma_cutoff_hint=0.0, support_end=float(hi),
                           knots=g.copy())


# ---------------------------------------------------------------------------
# spectral integrals
# ---------------------------------------------------------------------------

_SPECTRAL_QUAD = QuadratureSettings(epsabs=1e-12, epsrel=1e-10, limit=400)
_CELL_BLOCK = 256
# a series on a block of table cells sums only the terms it needs for a
# tail bound below this level at the block's largest gamma
_PREFIX_TAIL = float(np.finfo(float).eps) ** 2
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


def _gamma_max(measure: SpectralMeasure, t_eff: float, tol: float,
               envelope: Callable) -> tuple[float, float]:
    """Quadrature cutoff ``g_max`` and the tail estimate beyond it.

    Doubles ``g`` until ``e^{-g t_eff} density(g) envelope(g)`` times
    ``4 max(g, 1/t_eff)`` falls below ``tol / 10``; that value is the tail
    estimate, a heuristic rather than a proven bound.  ``envelope`` stands
    in for a bound on the eigenfunction product.  A measure of bounded
    support is cut at its end, with no tail, when the search reaches it or
    when there is no damping to search with; before that, a probe where its
    density is 0 (below a table's first knot, say) is passed over.
    """
    end = measure.support_end
    if t_eff <= 0 and math.isinf(end):
        raise ToleranceError(
            "spectral integral not certifiable: the series growth bound "
            "exceeds the exponential damping (t too small for this x)")
    g = max(4.0 / t_eff, 1.0) if t_eff > 0 else end
    for _ in range(200):
        if g >= end:
            return end, 0.0
        d = float(measure.density(g))
        tail = math.exp(-g * t_eff) * d * envelope(g) \
            * max(g, 1.0 / t_eff) * 4.0
        if tail < tol / 10.0 and (d > 0.0 or math.isinf(end)):
            return g, tail
        g *= 2.0
    raise ToleranceError("no finite quadrature cutoff found for the measure")


def _integrate_gamma(f: Callable, g_max: float):
    """``int_0^{g_max} f(gamma) dgamma`` as ``(value, abserr)``, for an
    ``f`` that maps an array of ``gamma > 0`` to their values.

    The substitution ``gamma = v^4 / 2`` (``dgamma = 2 v^3 dv``) flattens
    the integrable power singularity a measure density leaves at the
    origin: a ``gamma^{-3/4}`` principal density becomes constant in ``v``,
    so plain adaptive quadrature converges cleanly at small ``t`` too.
    """
    def integrand(v):
        u = v * v
        g = 0.5 * u * u
        if g.all():                    # the usual case: none underflows
            return np.asarray(f(g), dtype=float) * 2.0 * u * v
        # a node so close to 0 that gamma underflows contributes 0
        live = g != 0.0
        out = np.zeros_like(v)
        out[live] = np.asarray(f(g[live]), dtype=float) * 2.0 * u[live] \
            * v[live]
        return out

    return integrate(integrand, 0.0, (2.0 * g_max) ** 0.25,
                     settings=_SPECTRAL_QUAD)


def _spectral_integral(spec: DiffusionSpec, t: float, tol: float, *,
                       eig_kind: str, xs, inverse_gamma: bool,
                       measure: Optional[SpectralMeasure]):
    """``int e^{-gamma t} prod_i eig(x_i; gamma) [gamma^{-1}] measure(dgamma)``
    with an error covering the quadrature, the cutoff and, for a table,
    the mass below its first knot.  A preset without a measure takes its
    closed-form one."""
    if not 0 < t < math.inf:
        raise DomainError("t must be positive and finite")
    if not tol > 0:
        raise DomainError("tol must be positive")
    if t < T_MIN:
        raise RangeError(f"t below the supported minimum {T_MIN:g}")
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
    if spec.is_preset:
        # 2 (1+g)^{1/2} stands in for a bound on the Bessel product
        g_max, tail = _gamma_max(measure, t, tol,
                                 lambda g: 2.0 * (1.0 + g) ** 0.5)
        evals = cell_evals = [_bessel_eigen(spec, eig_kind, x) for x in xs]
    else:
        ladders = [_ladder(spec, x, eig_kind) for x in xs]
        consts = [ladder.constants(spec) for ladder in ladders]
        # the e^{g B(x)} part of each eigenfunction bound is folded into
        # the damping passed to the cutoff search, so the envelope is just
        # the constant front factor
        front_prod = math.prod(front for _, front in consts)
        t_eff = t - sum(base for base, _ in consts)
        g_max, tail = _gamma_max(measure, t_eff, tol, lambda g: front_prod)
        # a series certified at g_max is certified at every node; it keeps
        # needed + 1 coefficients, so its tail bound there, front e^z
        # P(needed + 1, z), is below the tol that P(needed, z) met, and
        # eigen_value would never raise on it
        certified = [ladder.certified(spec, g_max, tol)
                     for ladder in ladders]
        evals = [series.value for series in certified]
        # the table cells sum by Horner's rule, whose rounding the knots
        # branch bounds; QAGS panels and the head node keep the log route
        cell_evals = [series.horner for series in certified]

    density = measure.density

    def integrand(g, t=t, top=None, dens=None, evals=evals):
        """The integrand at an array of nodes (undamped at ``t = 0``).  With
        ``top``, the largest node, a series sums only the terms its tail
        bound there needs (_PREFIX_TAIL).  ``dens`` is the density at the
        nodes, if the caller has it already; ``evals`` sum the series."""
        vals = np.exp(-g * t) * (density(g) if dens is None else dens)
        for k, e in enumerate(evals):
            terms = None
            if top is not None and not spec.is_preset:
                base, front = consts[k]
                terms = _terms_needed(max(front, 1e-300), top * base,
                                      _PREFIX_TAIL)
            vals = vals * e(g, terms)
        return vals / g if inverse_gamma else vals

    if measure.knots is None:
        val, err = _integrate_gamma(integrand, g_max)
        return val, err + tail

    # piecewise-cubic density: a fixed Gauss rule per cell is exact up to
    # the smooth eigenfunction/damping factors, provided the cells resolve
    # the power-law weight near the left end of the support -- so refine
    # the knot partition with a geometric overlay
    knots = measure.knots[measure.knots <= g_max]
    if knots.size == 0 or knots[-1] < g_max:
        knots = np.append(knots, g_max)
    lo = knots[0]
    if lo <= 0 or g_max / lo < 1.0:
        raise DomainError("degenerate table support")
    overlay = np.geomspace(lo, g_max, 257)
    cuts = np.unique(np.concatenate([knots, overlay]))
    if spec.is_preset:
        series_rounding = None
    else:
        # the series' rounding at gamma, by Horner's bound: delta_j =
        # gamma_2n M_j for a series of n certified terms (not a block's
        # prefix), where M_j = front_j e^{gamma B_j} (1 + 1e-6) is the
        # factorial envelope EigenSeries enforces on sum |c_n| gamma^n; a
        # product rounds by sum_j delta_j prod_{k != j} M_k, which is
        # sum_j gamma_2n_j prod_k M_k, with e^{-gamma t} folded in
        u = np.finfo(float).eps / 2.0
        lengths = [series.coefficients.size for series in certified]
        scale = sum(2 * n * u / (1.0 - 2 * n * u) for n in lengths) \
            * math.prod(front * (1.0 + 1e-6) for _, front in consts)

        def series_rounding(g, dens):
            r = scale * np.exp(-g * t_eff) * np.abs(dens)
            return r / g if inverse_gamma else r

    def cell_sum(order):
        """The cell sum, the sum of its terms' magnitudes and the rounding
        of its series (0 for presets and for the 4-point rule)."""
        nodes, wts = _GAUSS_LEGENDRE[order]
        total = magnitude = rounding = 0.0
        # blocks of cells bound the temporaries; each block fixes the prefix
        # its series sum (certified at its largest gamma) and its partial
        # sums, and so the rounding: the blocks stay as they are
        lefts, rights = cuts[:-1], cuts[1:]
        for i in range(0, lefts.size, _CELL_BLOCK):
            a, b = lefts[i:i + _CELL_BLOCK], rights[i:i + _CELL_BLOCK]
            half = 0.5 * (b - a)
            g = 0.5 * (a + b)[:, None] + half[:, None] * nodes[None, :]
            w = half[:, None] * wts[None, :]
            dens = density(g)
            terms = integrand(g, top=float(g.max()), dens=dens,
                              evals=cell_evals) * w
            total += float(np.sum(terms))
            magnitude += float(np.sum(np.abs(terms)))
            if order == 8 and series_rounding is not None:
                rounding += float(np.sum(series_rounding(g, dens) * w))
        return total, magnitude, rounding

    # the head below lo, if the density continues as its table power law:
    # e^{-gamma t} <= 1 and the eigenfunctions are smooth at 0, so the
    # undamped integrand at lo times (gamma / lo)^power stands in
    power = _table_power(measure.knots, np.asarray(
        density(measure.knots))) - inverse_gamma
    f0 = abs(float(integrand(knots[:1], 0.0, float(lo))[0]))
    if f0 > 0.0 and not power > -1.0:
        raise IntegrabilityError(
            f"integrand behaves like gamma^{power:.3f} below the first "
            "table knot; its integral from 0 diverges")
    head = f0 * lo / (power + 1.0) if f0 > 0.0 else 0.0
    (v8, m8, series_err), (v4, _, _) = cell_sum(8), cell_sum(4)
    # |v8 - v4| reads 0 where both rules round alike, so the rounding of
    # the n-term sum, n eps sum |w_i f_i|, is added, and that of the series
    rounding = 8 * (cuts.size - 1) * np.finfo(float).eps * m8
    return v8, abs(v8 - v4) + rounding + series_err + head + tail


def transition_density(spec: DiffusionSpec, x: float, y: float, t: float,
                       killed: bool = False,
                       measure: Optional[SpectralMeasure] = None,
                       tol: float = 1e-9, with_error: bool = False):
    """Spectral-quadrature transition density ``p`` (or ``p_hat``) at
    ``(t; x, y)``, a density in ``y`` with respect to the speed measure."""
    if not (0 <= x < math.inf and 0 <= y < math.inf):
        raise DomainError("x and y must be nonnegative and finite")
    val, err = _spectral_integral(spec, t, tol,
                                  eig_kind="C" if killed else "A", xs=(x, y),
                                  inverse_gamma=False, measure=measure)
    return (val, err) if with_error else val


def hitting_density(spec: DiffusionSpec, x: float, t: float,
                    measure: Optional[SpectralMeasure] = None,
                    tol: float = 1e-9, with_error: bool = False):
    """Density of the first boundary-hitting time from ``x > 0``."""
    if not 0 < x < math.inf:
        raise DomainError("x must be positive and finite")
    val, err = _spectral_integral(spec, t, tol, eig_kind="C", xs=(x,),
                                  inverse_gamma=False, measure=measure)
    return (val, err) if with_error else val


def levy_density(spec: DiffusionSpec, t: float,
                 measure: Optional[SpectralMeasure] = None,
                 tol: float = 1e-9, with_error: bool = False):
    """Levy density of the inverse local time at the boundary."""
    val, err = _spectral_integral(spec, t, tol, eig_kind="C", xs=(),
                                  inverse_gamma=False, measure=measure)
    return (val, err) if with_error else val


def levy_tail(spec: DiffusionSpec, t: float,
              measure: Optional[SpectralMeasure] = None,
              tol: float = 1e-9, with_error: bool = False):
    """Levy tail mass ``nu((t, inf))`` of the inverse local time."""
    val, err = _spectral_integral(spec, t, tol, eig_kind="C", xs=(),
                                  inverse_gamma=True, measure=measure)
    return (val, err) if with_error else val


def hitting_tail(spec: DiffusionSpec, x: float, t: float,
                 measure: Optional[SpectralMeasure] = None,
                 tol: float = 1e-9, with_error: bool = False):
    """``P_x(H_0 > t)``, the boundary-hitting survival function."""
    if not 0 < x < math.inf:
        raise DomainError("x must be positive and finite")
    val, err = _spectral_integral(spec, t, tol, eig_kind="C", xs=(x,),
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
    if not 0 <= lam < math.inf:
        raise DomainError("lambda must be nonnegative and finite")
    end = measure.support_end

    def f(g):
        return lam / (g * (g + lam)) * measure.density(g)

    if lam == 0.0:
        val, err = 0.0, 0.0
    elif math.isfinite(end):
        val, err = _integrate_gamma(f, end)
    else:
        head, head_err = _integrate_gamma(f, max(lam, 1.0))
        tail, tail_err = integrate(f, max(lam, 1.0), np.inf,
                                   settings=_SPECTRAL_QUAD)
        val, err = head + tail, head_err + tail_err
    return (val, err) if with_error else val
