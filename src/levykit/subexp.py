"""Tail-distribution arithmetic for heavy-tail diagnostics.

A :class:`TailDistribution` stores a survival function on a log-spaced grid
(with an optional exact tail for evaluation beyond it).  The central
operation is the convolution-tail identity

    ``1 - F*G(x) = Fbar(x) + int_0^x Gbar(x - y) dF(y)``

evaluated as a trapezoid-corrected Stieltjes sum over the grid increments
of ``F``.  On top of it sit the classical heavy-tail diagnostics: the
self-convolution ratio (which tends to 2 exactly for subexponential tails
and diverges otherwise), the two-distribution ratio against
``Fbar + Gbar`` (which tends to 1 when ``Gbar/Fbar`` has a positive
limit), and a weak Tauberian comparator for Laplace-type integrals.

Everything here is distribution-level: no densities, no atoms, no silent
extrapolation beyond the stored grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import spectral
from .errors import DomainError, IntegrabilityError, RangeError
from .quadrature import integrate

__all__ = [
    "TailDistribution",
    "pareto_tail",
    "exponential_tail",
    "scaled_tail",
    "hitting_tail_distribution",
    "conv_tail",
    "subexp_ratio",
    "mixed_ratio",
    "tauberian_ratio",
]

DEFAULT_GRID = np.geomspace(1e-3, 1e6, 4096)


@dataclass(frozen=True)
class TailDistribution:
    """Survival function of a distribution on the positive half-line."""

    grid: np.ndarray
    tail: np.ndarray
    analytic_tail: Optional[Callable] = None
    name: str = "table"

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        tl = np.asarray(self.tail, dtype=float)
        if g.ndim != 1 or g.shape != tl.shape or g.size < 8:
            raise DomainError("grid and tail must match, length >= 8")
        if g[0] <= 0 or not np.all(np.diff(g) > 0):
            raise DomainError("grid must be positive and increasing")
        if not np.all((tl >= 0) & (tl <= 1.0 + 1e-12)):
            raise DomainError("tail values must lie in [0, 1]")
        if np.any(np.diff(tl) > 1e-12):
            raise DomainError("tail values must be non-increasing")
        tl = np.minimum.accumulate(np.clip(tl, 0.0, 1.0))
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "tail", tl)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            interp = spectral._pchip(np.concatenate([[0.0], g]),
                                     np.concatenate([[1.0], tl]))
        object.__setattr__(self, "_interp", interp)

    @property
    def x_max(self) -> float:
        return math.inf if self.analytic_tail is not None \
            else float(self.grid[-1])

    def value(self, x):
        """Survival value, exact where an analytic tail is attached."""
        x = np.asarray(x, dtype=float)
        if np.any(x > self.x_max):
            raise RangeError(
                f"x beyond the covered range (grid ends at "
                f"{self.grid[-1]:g} and no analytic tail is attached)")
        if self.analytic_tail is not None:
            out = np.where(x <= 0.0, 1.0,
                           np.clip(self.analytic_tail(np.maximum(x, 0.0)),
                                   0.0, 1.0))
        else:
            out = np.where(x <= 0.0, 1.0, self._interp(np.maximum(x, 0.0)))
        return out[()] if out.ndim == 0 else out


def pareto_tail(alpha: float, scale: float = 1.0) -> TailDistribution:
    """Pareto survival ``(scale/x)^alpha`` for ``x >= scale`` (1 below).

    Subexponential for every ``alpha > 0``; the workhorse positive control.
    """
    if not (0 < alpha < math.inf and 0 < scale < math.inf):
        raise DomainError("alpha and scale must be positive and finite")

    def sf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= scale, 1.0,
                        (scale / np.maximum(x, scale)) ** alpha)

    return TailDistribution(grid=DEFAULT_GRID, tail=sf(DEFAULT_GRID),
                            analytic_tail=sf, name=f"pareto({alpha:g})")


def exponential_tail(rate: float = 1.0) -> TailDistribution:
    """Exponential survival ``e^{-rate x}``; the light-tail negative control."""
    if not 0 < rate < math.inf:
        raise DomainError("rate must be positive and finite")

    def sf(x):
        return np.exp(-rate * np.asarray(x, dtype=float))

    return TailDistribution(grid=DEFAULT_GRID, tail=sf(DEFAULT_GRID),
                            analytic_tail=sf, name=f"exp({rate:g})")


def scaled_tail(F: TailDistribution, c: float) -> TailDistribution:
    """Survival ``min(1, c * Fbar)`` — a tail-equivalent companion with
    ``Gbar/Fbar -> c``, handy for two-distribution ratio experiments."""
    if not 0 < c < math.inf:
        raise DomainError("c must be positive and finite")
    sf = None
    if F.analytic_tail is not None:
        def sf(x):
            return np.minimum(1.0, c * F.analytic_tail(x))

    return TailDistribution(grid=F.grid,
                            tail=np.minimum(1.0, c * F.tail),
                            analytic_tail=sf,
                            name=f"{c:g}*{F.name}")


def hitting_tail_distribution(spec, x: float, grid=None,
                              measure=None) -> TailDistribution:
    """Survival function of the boundary-hitting time ``H_0`` from ``x``.

    Tabulates the spectral hitting tail on the grid; for presets the exact
    gamma-function form is attached as the analytic extension.  Custom
    specs need the ``measure`` their spectral route needs, and the grid
    must stay inside the window where that route certifies its truncation
    (large enough t for the given x).
    """
    from scipy.special import gammainc

    if not 0 <= x < math.inf:
        raise DomainError("x must be nonnegative and finite")
    g = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float)
    if spec.is_preset:
        a = spec.alpha

        def sf(tt):
            tt = np.asarray(tt, dtype=float)
            # P(H_0 > t) for H_0 = x^2 / (2 G), G ~ Gamma(alpha, 1)
            return gammainc(a, x * x / (2.0 * np.maximum(tt, 1e-300)))

        vals = sf(g)
        return TailDistribution(grid=g, tail=vals, analytic_tail=sf,
                                name=f"hitting({spec.name},x={x:g})")
    vals = np.array([spectral.hitting_tail(spec, x, float(t), measure=measure)
                     for t in g])
    return TailDistribution(grid=g, tail=vals,
                            name=f"hitting({spec.name},x={x:g})")


# ---------------------------------------------------------------------------
# convolution arithmetic
# ---------------------------------------------------------------------------

def _trapezoid_stieltjes(F, G, ys: np.ndarray, x: float) -> float:
    fbar = np.asarray(F.value(ys))
    gbar = np.asarray(G.value(x - ys))
    dF = fbar[:-1] - fbar[1:]
    return float(np.sum(dF * 0.5 * (gbar[:-1] + gbar[1:])))


def _half_stieltjes(F: TailDistribution, G: TailDistribution,
                    x: float) -> tuple:
    """``int_0^{x/2} Gbar(x - u) dF(u)``, trapezoid + one Richardson step.

    Returns ``(value, err_est)`` with the Richardson correction magnitude
    as the a-posteriori error estimate.
    """
    half = 0.5 * x
    nodes = F.grid[F.grid < half]
    ys = np.concatenate([[0.0], nodes, [half]])
    mids = 0.5 * (ys[:-1] + ys[1:])
    fine = np.sort(np.concatenate([ys, mids]))
    coarse_sum = _trapezoid_stieltjes(F, G, ys, x)
    fine_sum = _trapezoid_stieltjes(F, G, fine, x)
    corr = (fine_sum - coarse_sum) / 3.0
    return fine_sum + corr, abs(corr)


def conv_tail(F: TailDistribution, G: TailDistribution, x: float,
              with_error: bool = False):
    """Survival of ``F * G`` at ``x`` via the symmetric Stieltjes identity

        ``Fbar(x/2) Gbar(x/2) + int_0^{x/2} Gbar(x-u) dF(u)
                               + int_0^{x/2} Fbar(x-v) dG(v)``.

    Splitting at ``x/2`` keeps each integrand on the flat far side of the
    other tail, so the trapezoid correction never straddles the steep
    region near the origin.  The result is clipped into its structural
    bracket ``[max(Fbar, Gbar)(x), 1]``, and the error counts that move.
    """
    if not x < math.inf:
        raise DomainError("x must be below +inf, and not NaN")
    if x > F.x_max or x > G.x_max:
        raise RangeError("x beyond the covered range of the two tails")
    if x <= 0.0:
        return (1.0, 0.0) if with_error else 1.0
    half = 0.5 * x
    v1, e1 = _half_stieltjes(F, G, x)
    v2, e2 = _half_stieltjes(G, F, x)
    val = float(F.value(half)) * float(G.value(half)) + v1 + v2
    lo = max(float(F.value(x)), float(G.value(x)))
    clipped = min(max(val, lo), 1.0)
    if with_error:
        return clipped, e1 + e2 + abs(clipped - val)
    return clipped


def subexp_ratio(F: TailDistribution, x: float) -> float:
    """Self-convolution ratio ``conv_tail(F, F, x) / Fbar(x)``.

    Approaches 2 along ``x -> infinity`` exactly for subexponential tails;
    grows without bound for light tails (``1 + x`` for the unit
    exponential).
    """
    fbar = float(F.value(x))
    if fbar <= 1e-300:
        raise RangeError(f"tail vanishes numerically at x={x:g}; "
                         "the ratio is undefined there")
    return conv_tail(F, F, x) / fbar


def mixed_ratio(F: TailDistribution, G: TailDistribution, x: float) -> float:
    """Two-distribution ratio ``conv_tail(F, G, x) / (Fbar(x) + Gbar(x))``.

    Tends to 1 as ``x -> infinity`` when ``F`` is subexponential and
    ``Gbar/Fbar`` has a positive finite limit — the caller is responsible
    for that hypothesis; the raw ratio is returned as a diagnostic.
    """
    fbar, gbar = float(F.value(x)), float(G.value(x))
    denom = fbar + gbar
    if denom <= 1e-300:
        raise RangeError(f"both tails vanish numerically at x={x:g}")
    return conv_tail(F, G, x) / denom


# ---------------------------------------------------------------------------
# Tauberian comparator
# ---------------------------------------------------------------------------

def tauberian_ratio(mu_density: Callable, g1: Callable, g2: Callable,
                    lam: float) -> float:
    """Ratio of two Laplace-type integrals against the same base measure.

    ``f_i(lam) = int_0^inf e^{-lam gamma} g_i(gamma) mu(dgamma)``; when the
    two weights agree at the origin in the Cesaro sense the ratio tends to
    1 as ``lam`` grows — the mechanism that converts spectral-measure
    behaviour at 0 into large-time tail asymptotics.
    """
    if not 0 < lam < math.inf:
        raise DomainError("lambda must be positive and finite")

    def laplace(gfun):
        def integrand(g):
            return math.exp(-lam * g) * float(gfun(g)) \
                * float(mu_density(g))

        # head in sqrt-space to soften integrable origin singularities
        split = 1.0 / lam
        head, _ = integrate(lambda ws: [integrand(w * w) * 2.0 * w
                                        for w in ws.tolist()],
                            0.0, math.sqrt(split))
        body, _ = integrate(lambda gs: [integrand(g) for g in gs.tolist()],
                            split, 740.0 / lam)
        if not math.isfinite(head + body):
            raise IntegrabilityError("Laplace integral diverges")
        return head + body

    denom = laplace(g2)
    if denom <= 0:
        raise IntegrabilityError("denominator integral is not positive")
    return laplace(g1) / denom
