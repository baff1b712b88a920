"""Reflected one-dimensional diffusions on ``[0, inf)`` described by a scale
function and a speed-measure density.

A :class:`DiffusionSpec` carries the scale ``S`` (``S(0) = 0``, increasing,
``S(inf) = inf`` for recurrence) and the speed density ``m'`` with respect to
Lebesgue measure.  The Bessel family with dimension ``delta`` in ``(0, 2)``
is built in; ``delta = 1`` is reflected Brownian motion.  For the presets the
index ``alpha = (2 - delta) / 2`` lies in ``(0, 1)`` and

* ``S(x) = x^(2 alpha) / (2 alpha)``
* ``m'(x) = 2 x^(1 - 2 alpha)``

and the transition/hitting/inverse-local-time quantities all have closed
forms, exposed through :class:`ClosedFormOracles`.  All densities are taken
with respect to the speed measure, and the local time at zero is normalised
by the speed measure of a shrinking band at the boundary; everything
downstream (spectral measures, subordinator exponents, Monte Carlo
normalisations) is consistent with that choice.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc, ive

from .errors import DomainError, UnsupportedSpecError
from .exprlang import compile_expression
from .quadrature import integrate

__all__ = [
    "ClosedFormOracles",
    "DiffusionSpec",
    "bessel_spec",
    "brownian_spec",
    "spec_from_expressions",
    "spec_from_json",
    "parse_spec_argument",
    "cumulative_speed",
    "series_bound_base",
    "levy_exponent",
    "bessel_exponent_constant",
]


@dataclass(frozen=True)
class ClosedFormOracles:
    """Closed-form reference quantities for a preset diffusion.

    ``transition_density``/``killed_density`` are densities with respect to
    the speed measure (symmetric in ``x, y``); ``hitting_density`` is the
    density of the first hitting time of zero from ``x``; ``levy_density``
    and ``levy_tail`` describe the Levy measure of the inverse local time at
    zero.  Each maps arrays to an array of their broadcast shape, and
    floats to a float.
    """

    transition_density: Callable  # (t, x, y) -> p(t; x, y)
    killed_density: Callable      # (t, x, y) -> killed counterpart
    hitting_density: Callable     # (x, t) -> density of H_0 at t
    levy_density: Callable        # (t) -> nu-dot(t)
    levy_tail: Callable           # (t) -> nu((t, inf))


@dataclass(frozen=True)
class DiffusionSpec:
    """Scale/speed description of a reflected diffusion on ``[0, inf)``.

    ``scale`` and ``speed_density`` map an array of ``x > 0`` to an array
    of the same shape, and a float to a float: quadratures and the
    eigenfunction recursion evaluate them on whole arrays of nodes.
    ``alpha`` is set for the Bessel presets only and enables every
    closed-form fast path in the package; custom specs carry just the two
    coefficient functions.
    """

    name: str
    scale: Callable
    speed_density: Callable
    alpha: Optional[float] = None
    delta: Optional[float] = None
    oracles: Optional[ClosedFormOracles] = None

    @property
    def is_preset(self) -> bool:
        return self.alpha is not None

    def __repr__(self):  # keep noise out of test output
        if self.is_preset:
            return f"DiffusionSpec(name={self.name!r}, delta={self.delta})"
        return f"DiffusionSpec(name={self.name!r})"


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _bessel_oracles(alpha: float) -> ClosedFormOracles:
    ga = gamma_fn(alpha)
    g1ma = gamma_fn(1.0 - alpha)

    def _density(t, x, y, order):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        xy = x * y
        # exp(-(x^2+y^2)/2t) I_nu(xy/t) == exp(-(x-y)^2/2t) ive(nu, xy/t)
        body = (0.5 / t) * xy ** alpha \
            * np.exp(-((x - y) ** 2) / (2.0 * t)) * ive(order, xy / t)
        # below xy/t = 1e-17, ive(nu, w) is (w/2)^nu / Gamma(nu+1) to within
        # eps; scipy's ive returns nan (nu < 0) or 0 (nu > 0) there once w
        # nears the least normal float
        small = xy < 1e-17 * t
        if np.any(small):
            if order < 0:  # reflected kernel: its boundary limit
                z = np.maximum(x, y)
                edge = 2.0 ** (alpha - 1.0) * t ** (alpha - 1.0) \
                    * np.exp(-z * z / (2.0 * t)) / g1ma
            else:          # killed kernel: the leading term, 0 on the boundary
                # (x^2a y^2a keeps its value where x y underflows)
                edge = (0.5 / t) * x ** (2.0 * alpha) * y ** (2.0 * alpha) \
                    * (2.0 * t) ** -alpha \
                    * np.exp(-((x - y) ** 2) / (2.0 * t)) / (alpha * ga)
            body = np.where(small, edge, body)
        return body[()] if body.ndim == 0 else body

    def transition_density(t, x, y):
        return _density(t, x, y, -alpha)

    def killed_density(t, x, y):
        return _density(t, x, y, alpha)

    def hitting_density(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        if np.any(x <= 0.0):
            raise DomainError("hitting density requires a start x > 0")
        return (x * x / 2.0) ** alpha * t ** (-1.0 - alpha) \
            * np.exp(-x * x / (2.0 * t)) / ga

    def levy_density(t):
        t = np.asarray(t, dtype=float)
        return 2.0 ** (1.0 - alpha) * alpha * t ** (-1.0 - alpha) / ga

    def levy_tail(t):
        t = np.asarray(t, dtype=float)
        return 2.0 ** (1.0 - alpha) * t ** (-alpha) / ga

    return ClosedFormOracles(transition_density, killed_density,
                             hitting_density, levy_density, levy_tail)


def bessel_spec(delta: float) -> DiffusionSpec:
    """Reflected Bessel-type diffusion of dimension ``delta`` in ``(0, 2)``.

    ``delta = 1`` is reflected Brownian motion.  The boundary at zero is
    instantaneously reflecting and infinity is natural, so the process is
    recurrent with an unbounded scale.
    """
    if not (0.0 < delta < 2.0):
        raise DomainError(f"delta must lie in (0, 2), got {delta}")
    alpha = (2.0 - delta) / 2.0
    two_alpha = 2.0 * alpha

    def scale(x):
        x = np.asarray(x, dtype=float)
        return x ** two_alpha / two_alpha

    def speed_density(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * x ** (1.0 - two_alpha)

    name = "brownian" if delta == 1.0 else "bessel"
    return DiffusionSpec(name=name, scale=scale, speed_density=speed_density,
                         alpha=alpha, delta=delta,
                         oracles=_bessel_oracles(alpha))


def brownian_spec() -> DiffusionSpec:
    """Reflected Brownian motion (the ``delta = 1`` preset)."""
    return bessel_spec(1.0)


# ---------------------------------------------------------------------------
# custom specs
# ---------------------------------------------------------------------------

_RECURRENCE_PROBE = 1.0e6
_RECURRENCE_THRESHOLD = 1.0e2


def _validate_custom(scale, speed_density) -> None:
    xs = np.logspace(-3, 1, 25)
    s = np.asarray(scale(xs), dtype=float)
    if not np.all(np.isfinite(s)):
        raise DomainError("scale function is not finite on (0, 10]")
    if not np.all(np.diff(s) > 0):
        raise DomainError("scale function must be strictly increasing")
    s0 = float(scale(1e-30))
    if not abs(s0) <= 1e-3 * max(1.0, float(scale(1.0))):
        raise DomainError(f"scale must vanish at 0 (got S(1e-30)={s0:.3e})")
    m = np.asarray(speed_density(xs), dtype=float)
    if not np.all(m > 0):
        raise DomainError("speed density must be positive on (0, inf)")
    # soft recurrence probe: S should keep growing (S(inf)=inf); an
    # overflow to inf is unbounded growth, so it passes silently
    with np.errstate(over="ignore"):
        tail = float(scale(_RECURRENCE_PROBE))
    if not tail > _RECURRENCE_THRESHOLD:
        warnings.warn(
            f"scale({_RECURRENCE_PROBE:g}) = {tail:.3g} looks bounded; the "
            "process may not be recurrent, results past this point are "
            "formal", stacklevel=3)


def spec_from_expressions(scale: str, speed_density: str,
                          name: str = "custom") -> DiffusionSpec:
    """Build a custom spec from two expression strings in ``x``."""
    s = compile_expression(scale)
    m = compile_expression(speed_density)
    _validate_custom(s, m)
    return DiffusionSpec(name=name, scale=s, speed_density=m)


def spec_from_json(payload) -> DiffusionSpec:
    """Parse the JSON diffusion description.

    Accepts a dict or a JSON string of one of the two documented shapes::

        {"kind": "bessel", "delta": 1.0}
        {"kind": "custom", "scale": "x^0.5/0.5", "speed_density": "2*x^0.5"}
    """
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid spec JSON: {exc}") from exc
    if not isinstance(payload, dict) or "kind" not in payload:
        raise DomainError("spec JSON must be an object with a 'kind' field")
    kind = payload["kind"]
    if kind == "bessel":
        if "delta" not in payload:
            raise DomainError("bessel spec needs a 'delta' field")
        return bessel_spec(float(payload["delta"]))
    if kind == "custom":
        missing = {"scale", "speed_density"} - set(payload)
        if missing:
            raise DomainError(f"custom spec missing fields: {sorted(missing)}")
        return spec_from_expressions(payload["scale"],
                                     payload["speed_density"])
    raise DomainError(f"unknown spec kind {kind!r}")


def parse_spec_argument(text: str) -> DiffusionSpec:
    """Parse a CLI-style spec argument.

    Understands the shorthand ``bessel:<delta>`` (and the alias
    ``brownian``), inline JSON, or a path to a JSON file.
    """
    text = text.strip()
    if text == "brownian":
        return brownian_spec()
    if text.startswith("bessel:"):
        try:
            return bessel_spec(float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise DomainError(f"bad bessel shorthand {text!r}") from exc
    if text.startswith("{"):
        return spec_from_json(text)
    try:
        with open(text, "r", encoding="utf-8") as fh:
            return spec_from_json(fh.read())
    except OSError as exc:
        raise DomainError(
            f"spec argument {text!r} is neither a preset shorthand, inline "
            f"JSON nor a readable file") from exc


# ---------------------------------------------------------------------------
# speed/scale integrals
# ---------------------------------------------------------------------------

def _origin_integral(f: Callable, x: float) -> float:
    """``int_0^x f`` for an ``f`` that may have an integrable singularity
    at the origin: split at ``x/2``, with a quadratic substitution on the
    left piece."""
    half = 0.5 * x
    # left piece: z = half * s^2 tames z^q singularities with q > -1
    left, _ = integrate(lambda s: f(half * s * s) * 2.0 * half * s, 0.0, 1.0)
    right, _ = integrate(f, half, x)
    return left + right


def cumulative_speed(spec: DiffusionSpec, x: float) -> float:
    """Speed measure of ``(0, x)``.

    Presets use the exact power-law form; custom specs integrate the
    density with :func:`_origin_integral`.
    """
    if not 0 <= x < np.inf:
        raise DomainError("x must be nonnegative and finite")
    if x == 0:
        return 0.0
    if spec.is_preset:
        e = 2.0 - 2.0 * spec.alpha
        return x ** e * 2.0 / e
    return _origin_integral(spec.speed_density, x)


def series_bound_base(spec: DiffusionSpec, x: float) -> float:
    """``B(x) = int_0^x m((0,y)) dS(y)``, the growth base of the eigenseries.

    Computed derivative-free via integration by parts,
    ``B(x) = M(x) S(x) - int_0^x S dm``.  For presets this is
    ``x^2 / (2 (1 - alpha))``.
    """
    if not 0 <= x < np.inf:
        raise DomainError("x must be nonnegative and finite")
    if x == 0:
        return 0.0
    if spec.is_preset:
        return x * x / (2.0 * (1.0 - spec.alpha))
    return cumulative_speed(spec, x) * float(spec.scale(x)) - _origin_integral(
        lambda y: spec.scale(y) * spec.speed_density(y), x)


# ---------------------------------------------------------------------------
# inverse-local-time exponent
# ---------------------------------------------------------------------------

def bessel_exponent_constant(alpha: float) -> float:
    """Constant ``kappa`` with subordinator exponent ``kappa * lam^alpha``."""
    return gamma_fn(1.0 - alpha) * 2.0 ** (1.0 - alpha) / gamma_fn(alpha)


def levy_exponent(spec: DiffusionSpec, lam: float) -> float:
    """Laplace exponent of the inverse local time at zero.

    ``Phi(lam) = int_0^inf (1 - e^{-lam v}) nu-dot(v) dv``, which for the
    presets is ``kappa * lam^alpha`` with ``kappa`` from
    :func:`bessel_exponent_constant`.  ``Phi(0) = 0``.
    """
    if not 0 <= lam < np.inf:
        raise DomainError("lambda must be nonnegative and finite")
    if lam == 0.0:
        return 0.0
    if not spec.is_preset:
        raise UnsupportedSpecError(
            "levy_exponent has a closed form only for the presets; for "
            "custom specs use the spectral-measure route in levykit.spectral")
    return float(bessel_exponent_constant(spec.alpha) * lam ** spec.alpha)


def band_occupancy_probability(spec: DiffusionSpec, s, eps: float):
    """``P_0(X_s < eps)`` for a preset started at the boundary.

    Exact via the chi-square form of the squared radial part; used by the
    Monte Carlo module to compute the occupation-estimator mean correction.
    """
    if not spec.is_preset:
        raise UnsupportedSpecError("band occupancy is preset-only")
    s = np.asarray(s, dtype=float)
    shape = 1.0 - spec.alpha  # = delta / 2
    out = np.ones_like(s)
    pos = s > 0
    out[pos] = gammainc(shape, eps * eps / (2.0 * s[pos]))
    return float(out) if out.ndim == 0 else out
