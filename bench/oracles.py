"""Closed forms the benchmark checks every result against, and the gates.

Deterministic values (spectral quadratures, closed-form coefficients,
convolution tails) must match their closed form within ``VALUE_BAR`` --
absolute below 1 and relative above, the bar of acceptance criteria 01
and 02.  Monte Carlo estimates must sit within ``Z_BAR`` standard errors
of their closed form: wide enough that a correct sampler practically
never fails at the number of calls one run makes, so a failure count
does not flip with the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfc, expi, gammainc, gammaln

from levykit.diffusions import bessel_exponent_constant

VALUE_BAR = 1e-6
Z_BAR = 5.0
# slack for the rounding of the closed form itself when deciding whether
# a reported error bound brackets the true error
_ORACLE_ULPS = 8 * np.finfo(float).eps


@dataclass(frozen=True)
class Verdict:
    """Outcome of one correctness check.

    ``bracket_miss`` is set when a reported ``abs_err`` is smaller than
    the distance to the closed form (the error estimate failed to bracket
    the true error); it is counted, but does not fail the call.
    """

    ok: bool
    detail: str = ""
    bracket_miss: bool = False


PASS = Verdict(True)


def combine(verdicts) -> Verdict:
    verdicts = list(verdicts)
    bad = [v.detail for v in verdicts if not v.ok]
    return Verdict(not bad, "; ".join(bad[:3]),
                   any(v.bracket_miss for v in verdicts))


def value(got, oracle, abs_err=None, what="value") -> Verdict:
    got, oracle = float(got), float(oracle)
    dev = abs(got - oracle)
    ok = dev <= VALUE_BAR * max(1.0, abs(oracle))
    miss = abs_err is not None \
        and dev > float(abs_err) + _ORACLE_ULPS * abs(oracle)
    return Verdict(ok, "" if ok else f"{what} {got!r} vs closed form "
                   f"{oracle!r}", miss)


def values(got, oracle, what="values") -> Verdict:
    got = np.asarray(got, dtype=float)
    oracle = np.asarray(oracle, dtype=float)
    dev = np.abs(got - oracle) / np.maximum(1.0, np.abs(oracle))
    worst = float(np.max(dev))
    ok = worst <= VALUE_BAR
    return Verdict(ok, "" if ok else f"{what}: worst deviation {worst:.3e}")


def relative(got, oracle, what="value") -> Verdict:
    """Relative bar, for quantities that decay far below 1 (series
    coefficients), where an absolute bar would test nothing."""
    got = np.asarray(got, dtype=float)
    oracle = np.asarray(oracle, dtype=float)
    worst = float(np.max(np.abs(got - oracle) / np.abs(oracle)))
    ok = worst <= VALUE_BAR
    return Verdict(ok, "" if ok else f"{what}: worst relative deviation "
                   f"{worst:.3e}")


def zscore(estimate, std_error, oracle, what="estimate") -> Verdict:
    estimate, std_error = float(estimate), float(std_error)
    ok = std_error > 0 and abs(estimate - float(oracle)) <= Z_BAR * std_error
    return Verdict(ok, "" if ok else f"{what} {estimate!r} +- {std_error!r} "
                   f"vs closed form {float(oracle)!r}")


def z_value(z, what="z") -> Verdict:
    ok = math.isfinite(z) and abs(z) <= Z_BAR
    return Verdict(ok, "" if ok else f"{what} = {z!r} beyond {Z_BAR} SE")


def proportion(p_hat, p, n, what="proportion") -> Verdict:
    """Empirical proportion from ``n`` draws against its exact value."""
    se = math.sqrt(p * (1.0 - p) / n) + 1.0 / n
    ok = abs(p_hat - p) <= Z_BAR * se
    return Verdict(ok, "" if ok else f"{what} {p_hat!r} vs {p!r} (n={n})")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def hitting_tail(alpha, x, t):
    """``P_x(H_0 > t)`` for a Bessel preset: ``H_0 = x^2 / (2 G)`` with
    ``G ~ Gamma(alpha)``."""
    return gammainc(alpha, x * x / (2.0 * np.asarray(t, dtype=float)))


def exponent(alpha, lam):
    """Laplace exponent ``kappa lam^alpha`` of the inverse local time."""
    return bessel_exponent_constant(alpha) * lam ** alpha


def bm_localtime_cdf(x, ell, t):
    """``P_x(L_t <= ell)`` for reflected Brownian motion: ``H_0`` and
    ``tau_ell`` are independent Levy laws with scales ``x^2`` and
    ``ell^2``, so their sum is Levy with scale ``(x + ell)^2``."""
    return float(erf((x + ell) / math.sqrt(2.0 * t)))


def bm_tau_cdf(ell, t):
    """``P(tau_ell <= t)`` for reflected Brownian motion."""
    return float(erfc(ell / math.sqrt(2.0 * t)))


def bm_leftover(ell0, u):
    """``E[1 - H(L_u)]`` for the indicator weight on ``[0, ell0)``:
    the mean of ``P(tau_y > u) = erf(y / sqrt(2u))`` over uniform ``y``."""
    a = 1.0 / math.sqrt(2.0 * u)
    return (ell0 * math.erf(a * ell0)
            + (math.exp(-(a * ell0) ** 2) - 1.0) / (a * math.sqrt(math.pi))) \
        / ell0


def bm_weighted_sample_size(n, ell0, u):
    """Effective sample size of the indicator-weighted Brownian tuples
    at horizon ``u``: only paths with ``L_u < ell0`` carry weight, and
    that weight grows like the Rayleigh-distributed position, whose
    squared-mean to mean-square ratio is ``pi / 4``."""
    return 0.25 * math.pi * n * math.erf(ell0 / math.sqrt(2.0 * u))


def eigen_coefficients(alpha, x, n_terms):
    """Series coefficients of ``C(x; gamma)`` for the Bessel index
    ``alpha``: ``Gamma(alpha)/2 x^{2 alpha} (x^2/2)^n / (n! Gamma(n+alpha+1))``."""
    n = np.arange(n_terms + 1, dtype=float)
    log_c = gammaln(alpha) - math.log(2.0) + 2.0 * alpha * math.log(x) \
        + n * math.log(0.5 * x * x) - gammaln(n + 1.0) \
        - gammaln(n + alpha + 1.0)
    return np.exp(log_c)


def pareto1_conv(x):
    """Survival of the sum of two independent Pareto(1) variables."""
    if x <= 2.0:
        return 1.0
    return 2.0 / x + 2.0 * math.log(x - 1.0) / (x * x)


def exp_conv(r1, r2, x):
    """Survival of the sum of independent exponentials with rates r1, r2."""
    if r1 == r2:
        return (1.0 + r1 * x) * math.exp(-r1 * x)
    return (r2 * math.exp(-r1 * x) - r1 * math.exp(-r2 * x)) / (r2 - r1)


def pareto1_exp1_conv(x):
    """Survival of Pareto(1) plus an independent unit exponential."""
    if x <= 1.0:
        return 1.0
    return math.exp(1.0 - x) + math.exp(-x) * (expi(x) - expi(1.0))


def bm_hitting_conv(x0, x):
    """Survival of the sum of two independent Brownian hitting times of 0
    from ``x0``: Levy laws add, so the sum is ``H_0`` from ``2 x0``."""
    return float(erf(2.0 * x0 / math.sqrt(2.0 * x)))
