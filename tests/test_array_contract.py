"""The callables levykit integrates (a measure density, a speed density, a
weight density) get a whole quadrature panel of nodes per call, as 1-d
arrays, and floats only where a scalar probe asks for one value."""

import numpy as np
import pytest

from levykit import diffusions, penalization
from levykit import spectral as sp
from levykit.diffusions import DiffusionSpec, bessel_spec, \
    spec_from_expressions


class _Counting:
    """Wraps ``f`` and records the shape of every argument it gets."""

    def __init__(self, f):
        self.f, self.shapes = f, []

    def __call__(self, x):
        self.shapes.append(np.shape(x))
        return self.f(x)

    def split(self):
        """``(array sizes, number of scalar calls)``; every array is 1-d."""
        arrays = [s for s in self.shapes if s != ()]
        assert all(len(s) == 1 for s in arrays), arrays
        return [s[0] for s in arrays], len(self.shapes) - len(arrays)


def _count_panels(monkeypatch, module):
    """Counts the integrand calls of every ``integrate`` made through
    ``module``: one per quadrature panel."""
    panels = [0]
    integrate = module.integrate

    def counted(func, a, b, settings=None):
        def panel(xs):
            panels[0] += 1
            return func(xs)
        return integrate(panel, a, b, settings=settings)

    monkeypatch.setattr(module, "integrate", counted)
    return panels


def _counted_measure():
    density = _Counting(sp.bessel_killed_measure(0.5).density)
    measure = sp.SpectralMeasure(kind="killed", density=density,
                                 gamma_cutoff_hint=0.5)
    density.shapes.clear()          # construction probes four floats
    return measure, density


def test_levy_tail_gets_panels(monkeypatch):
    measure, density = _counted_measure()
    panels = _count_panels(monkeypatch, sp)
    value = sp.levy_tail(bessel_spec(1.0), 2.0, measure=measure)
    sizes, scalars = density.split()
    assert len(sizes) == panels[0] > 1
    assert set(sizes) <= {21, 42}
    assert 0 < scalars < 64         # the cutoff search's doubling probes
    assert value == sp.levy_tail(bessel_spec(1.0), 2.0)


def test_levy_exponent_from_measure_gets_panels(monkeypatch):
    measure, density = _counted_measure()
    panels = _count_panels(monkeypatch, sp)
    sp.levy_exponent_from_measure(measure, 3.0)
    sizes, scalars = density.split()
    # a head on [0, 3] and a tail on [3, inf)
    assert len(sizes) == panels[0] >= 2
    assert set(sizes) <= {21, 42} and scalars == 0


def test_series_bound_base_gets_panels(monkeypatch):
    base = spec_from_expressions("x", "2")
    speed = _Counting(base.speed_density)
    spec = DiffusionSpec(name="custom", scale=base.scale,
                         speed_density=speed)
    panels = _count_panels(monkeypatch, diffusions)
    diffusions.series_bound_base(spec, 1.0)
    sizes, scalars = speed.split()
    # M(x) and int S dm, each split at x/2: four integrals
    assert len(sizes) == panels[0] >= 4
    assert set(sizes) <= {21, 42} and scalars == 0


def test_weight_construction_gets_panels(monkeypatch):
    h = _Counting(penalization.triangular_weight(2.0).h)
    panels = _count_panels(monkeypatch, penalization)
    penalization.WeightFunction(h=h, cdf=lambda y: y, support_end=2.0)
    sizes, scalars = h.split()
    # the unit-mass quadrature, then one 257-point shape probe
    assert len(sizes) == panels[0] + 1 and sizes[-1] == 257
    assert set(sizes[:-1]) <= {21, 42} and scalars == 0
