"""The QUADPACK port in ``levykit.quadrature`` against ``scipy.integrate.quad``
(which wraps the original routines): same value, error estimate and
evaluation count, bit for bit, and failure exactly where scipy warns."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import jv

import levykit
from levykit.errors import ToleranceError
from levykit.quadrature import (DEFAULT_QUADRATURE, QuadratureSettings,
                                integrate, quadpack)

# the two tolerance pairs the package uses: the default and the spectral one
TOLERANCES = [(DEFAULT_QUADRATURE.epsabs, DEFAULT_QUADRATURE.epsrel),
              (1e-12, 1e-10)]


def _exp_cos(s, w):
    return lambda x: math.exp(-s * x) * math.cos(w * x)


def _x_bessel(nu, w):
    return lambda x: x * float(jv(nu, w * x))


def _peak(c, h):
    return lambda x: 1.0 / ((x - c) ** 2 + h * h)


def _log_power(p):
    return lambda x: x ** p * math.log(x)


_UNIT = st.floats(0.0, 1.0)
# (integrand, lowest admissible lower end): J_nu of a negative argument is
# not real, and x^p log x lives on (0, inf)
INTEGRANDS = st.one_of(
    st.tuples(st.floats(0.01, 5.0), st.floats(0.0, 60.0)).map(
        lambda p: (_exp_cos(*p), -2.0)),
    st.tuples(st.floats(0.0, 3.0), st.floats(0.1, 40.0)).map(
        lambda p: (_x_bessel(*p), 0.0)),
    st.tuples(st.floats(0.0, 3.0), st.floats(-4.0, 0.0)).map(
        lambda p: (_peak(p[0], 10.0 ** p[1]), -2.0)),
    st.floats(-0.95, 0.0, exclude_min=True, exclude_max=True).map(
        lambda p: (_log_power(p), None)),
)


@st.composite
def problems(draw):
    g, lowest = draw(INTEGRANDS)
    # endpoint-singular integrands start at their singularity
    a = 0.0 if lowest is None else lowest + 2.0 * draw(_UNIT)
    b = math.inf if draw(st.booleans()) else a + draw(st.floats(0.1, 10.0))
    epsabs, epsrel = draw(st.sampled_from(TOLERANCES))
    limit = draw(st.sampled_from([1, 2, 50, 400]))
    return g, a, b, QuadratureSettings(epsabs, epsrel, limit)


def _same(u, v):
    return u == v and math.copysign(1.0, u) == math.copysign(1.0, v) \
        or (u != u and v != v)


def _raised(call):
    """The exception ``call()`` raises, or None."""
    try:
        call()
    except Exception as exc:   # noqa: BLE001 - compared by type
        return exc
    return None


# x^p log x near p = -0.95 on [0, inf): a node next to t = 1 rounds to
# t >= 1, so x = (1 - t) / t is 0 or negative and the integrand raises
@example((_log_power(-0.949), 0.0, math.inf,
          QuadratureSettings(*TOLERANCES[0], 400)))
@settings(max_examples=250, deadline=None)
@given(problems())
def test_port_matches_scipy_quad_bit_for_bit(problem):
    g, a, b, s = problem
    # [a, inf) is QAGS on (0, 1] under x = a + (1 - t) / t, dx = dt / t^2
    ref, lo, hi = ((lambda t: g(a + (1.0 - t) / t) / t / t), 0.0, 1.0) \
        if math.isinf(b) else (g, a, b)

    def nodes(xs):
        return [g(x) for x in xs.tolist()]

    try:
        out = quad(ref, lo, hi, epsabs=s.epsabs, epsrel=s.epsrel,
                   limit=s.limit, full_output=1)
    except Exception as exc:   # noqa: BLE001 - compared by type below
        # the port evaluates the same nodes, so it raises the same error
        for call in (lambda: quadpack(nodes, a, b, s.epsabs, s.epsrel,
                                      s.limit),
                     lambda: integrate(nodes, a, b, settings=s)):
            assert type(_raised(call)) is type(exc), exc
        return
    value, err, info = out[:3]
    warned = len(out) > 3            # full_output returns the warning text

    got = quadpack(nodes, a, b, s.epsabs, s.epsrel, s.limit)
    assert _same(got[0], value) and _same(got[1], err), (got, out[:2])
    assert got[2] == info["neval"]
    assert (got[3] != 0) == warned

    # integrate fails exactly where the scipy wrapper it replaces failed:
    # on a warning, or on an error estimate far above the tolerance
    too_large = err > 1e5 * (s.epsabs + s.epsrel * max(1.0, abs(value)))
    if warned or too_large:
        with pytest.raises(ToleranceError):
            integrate(nodes, a, b, settings=s)
    else:
        assert integrate(nodes, a, b, settings=s) == (value, err)


def test_empty_and_reversed_ranges_follow_scipy():
    f = _exp_cos(0.5, 3.0)

    def nodes(xs):
        return [f(x) for x in xs.tolist()]

    assert quadpack(nodes, 1.0, 1.0, 1e-10, 1e-8, 50) == (0.0, 0.0, 0, 0)
    value, err = quad(f, 2.0, 0.5, epsabs=1e-10, epsrel=1e-8, limit=50)
    assert quadpack(nodes, 2.0, 0.5, 1e-10, 1e-8, 50)[:2] == (value, err)


def test_import_leaves_scipy_integrate_out():
    env = dict(os.environ,
               PYTHONPATH=str(Path(levykit.__file__).resolve().parents[1]))
    code = ("import sys, levykit, levykit.cli; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
