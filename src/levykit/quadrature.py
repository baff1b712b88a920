"""Thin wrapper over adaptive Gauss-Kronrod quadrature with package-wide
tolerance defaults.

All continuous integrals in the package go through :func:`integrate` so that
tolerances and failure behaviour are uniform: a quadrature that cannot reach
the requested tolerance raises :class:`~levykit.errors.ToleranceError` instead
of silently returning a poor value.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from scipy.integrate import IntegrationWarning, quad

from .errors import ToleranceError


@dataclass(frozen=True)
class QuadratureSettings:
    """Default tolerances for adaptive quadrature.

    ``epsabs``/``epsrel`` follow the package contract (absolute 1e-10,
    relative 1e-8); ``limit`` is the subdivision budget, sized for the
    oscillatory Hankel-type integrands that show up in spectral transforms.
    """

    epsabs: float = 1e-10
    epsrel: float = 1e-8
    limit: int = 400


DEFAULT_QUADRATURE = QuadratureSettings()


def integrate(func, a, b, settings: QuadratureSettings | None = None):
    """Integrate ``func`` over ``[a, b]`` (``b`` may be ``numpy.inf``).

    Returns ``(value, abserr_estimate)``.  A quadrature that reports
    non-convergence, or whose error estimate is far above the requested
    tolerance, raises ``ToleranceError``.
    """
    s = settings or DEFAULT_QUADRATURE
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, err = quad(func, a, b, epsabs=s.epsabs, epsrel=s.epsrel,
                            limit=s.limit)
        except IntegrationWarning as exc:
            raise ToleranceError(
                f"quadrature on [{a}, {b}] did not converge: {exc}"
            ) from exc
    scale = max(1.0, abs(val))
    if err > 1e5 * (s.epsabs + s.epsrel * scale):
        raise ToleranceError(
            f"quadrature error estimate {err:.3e} too large for value {val:.6e}"
        )
    return val, err
