"""The chunk reducer: seeded Monte Carlo output pinned bit for bit.

Every chunked estimator adds its per-chunk sums in chunk order through one
reducer and forms the mean and standard error once.  The hex values below
were recorded before that reducer existed; a change in the summation
order, in either standard-error formula or in the chunk layout flips a bit
here, at one thread, at two and at the default.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levykit import montecarlo as mc
from levykit import penalization as pz
from levykit.diffusions import bessel_spec, brownian_spec
from levykit.errors import RangeError

BM = brownian_spec()
B15 = bessel_spec(1.5)
IND = pz.indicator_weight(1.0)
TRI = pz.triangular_weight(2.0)
N = 55_000  # two full chunks and a partial one

ESTIMATORS = {
    "hitting_exact": lambda th: mc.estimate_hitting_tail(
        B15, 1.0, 2.0, N, seed=1, threads=th),
    "localtime_exact": lambda th: mc.estimate_localtime_tail(
        B15, 1.0, 10.0, 0.5, N, seed=3, threads=th),
    "levy_exponent_mc": lambda th: mc.levy_exponent_mc(
        B15, 2.0, ell=1.5, n=N, seed=5, threads=th),
    "doob_meyer": lambda th: mc.doob_meyer_check(
        B15, [0.1, 0.2], n_paths=N, dt=0.01, seed=6, threads=th),
    "martingale_mean_exact": lambda th: pz.penalized_expectation(
        BM, TRI, 1.0, lambda x, ell: 1.0, n=N, seed=7, threads=th),
    "martingale_property": lambda th: pz.martingale_property_mc(
        BM, [IND, TRI], [0.1, 0.2], n_paths=N, dt=0.01, seed=8,
        threads=th),
    "penalized_expectation": lambda th: pz.penalized_expectation(
        BM, IND, 2.0, lambda x, ell: x * x + ell, n=N, seed=9, threads=th),
    "linfty_law_check": lambda th: pz.linfty_law_check(
        BM, TRI, n=N, u=50.0, seed=10, grid_points=5, threads=th),
}

_DM = ("t", "scale_mean", "local_mean", "gap", "std_error",
       "bias_correction")
_MP = ("u", "mean", "std_error", "z")

EXPECTED = {
    "hitting_exact": ("0x1.7e25c1f6d700bp-1", "0x1.e653f9565c223p-10"),
    "localtime_exact": ("0x1.2a3ea1ae278b8p-1", "0x1.139d8978f324ap-9"),
    "levy_exponent_mc": ("0x1.59f285a91031cp-1", "0x1.a4788a0110942p-9"),
    "doob_meyer": [
        dict(zip(_DM, ("0x1.999999999999ap-4", "0x1.17b8b0d264f18p+0",
                       "0x1.17ddd8eafc83ep+0", "-0x1.2940c4bc93600p-11",
                       "0x1.788dfc40244afp-9", "0x1.6bbd1fa0a5e5ep-2")),
             n_paths=N),
        dict(zip(_DM, ("0x1.999999999999ap-3", "0x1.4c80fce25db93p+0",
                       "0x1.4cbcfc1da9ce9p+0", "-0x1.dff9da60abc00p-11",
                       "0x1.f18da0f78d0f9p-9", "0x1.695d57316d6a0p-2")),
             n_paths=N),
    ],
    "martingale_mean_exact": ("0x1.0078fcef72879p+0",
                              "0x1.ae0c8dcb1342ap-9"),
    "martingale_property": [
        dict(zip(_MP, ("0x1.999999999999ap-4", "0x1.0010677e74240p+0",
                       "0x1.2b036e46133d9p-10", "0x1.c16c8cf94ece9p-3")),
             weight="indicator(1)", n_paths=N),
        dict(zip(_MP, ("0x1.999999999999ap-4", "0x1.fc6d6cefefde5p-1",
                       "0x1.148887bceececp-10", "-0x1.a7551c27b28d7p+2")),
             weight="triangular(2)", n_paths=N),
        dict(zip(_MP, ("0x1.999999999999ap-3", "0x1.006ce991991e7p+0",
                       "0x1.bd8c286f61ad8p-10", "0x1.f4a03188ed3f8p-1")),
             weight="indicator(1)", n_paths=N),
        dict(zip(_MP, ("0x1.999999999999ap-3", "0x1.fb670337de39fp-1",
                       "0x1.8ee0db2be4840p-10", "-0x1.79b1f135ee491p+2")),
             weight="triangular(2)", n_paths=N),
    ],
    "penalized_expectation": ("0x1.32e391697a5e9p+2",
                              "0x1.984af2f9529ebp-5"),
    # re-pinned when the weighted CDF moved from a BLAS matrix-vector
    # product, whose summation order is the CPU's kernel's, to a running
    # sum of per-cell weights, whose order is fixed
    "linfty_law_check": {
        "max_gap": "0x1.3f20abd31e0c8p-5",
        "u": "0x1.9000000000000p+5",
        "n_paths": N,
        "weighted_cdf": ["0x0.0p+0", "0x1.e7e4157a63c19p-2",
                         "0x1.8e92598c1336ep-1", "0x1.e66a06e93dd6cp-1",
                         "0x1.0000000000000p+0"],
        "target_cdf": ["0x0.0p+0", "0x1.c000000000000p-2",
                       "0x1.8000000000000p-1", "0x1.e000000000000p-1",
                       "0x1.0000000000000p+0"],
        "cdf_se": ["0x0.0p+0", "0x1.8b5c1a2ae5522p-8",
                   "0x1.fcb69e59f2c7ap-9", "0x1.5bea9201740e4p-10",
                   "0x0.0p+0"],
    },
}


def _hex(v):
    if isinstance(v, np.ndarray):
        return [float(a).hex() for a in v]
    if isinstance(v, float):
        assert type(v) is float, type(v)   # Python floats, not numpy
        return v.hex()
    return v


def _bits(result):
    if isinstance(result, mc.McEstimate):
        return _hex(result.mean), _hex(result.std_error)
    if isinstance(result, list):
        return [{k: _hex(v) for k, v in row.items()} for row in result]
    return {k: _hex(result[k]) for k in EXPECTED["linfty_law_check"]}


@pytest.mark.parametrize("threads", [1, 2, None])
@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_seeded_bits_pinned(name, threads):
    assert _bits(ESTIMATORS[name](threads)) == EXPECTED[name]


EXACT = {
    "hitting": lambda n, s, th: mc.estimate_hitting_tail(
        B15, 1.0, 2.0, n, seed=s, threads=th),
    "localtime": lambda n, s, th: mc.estimate_localtime_tail(
        B15, 1.0, 10.0, 0.5, n, seed=s, threads=th),
    "exponent": lambda n, s, th: mc.levy_exponent_mc(
        B15, 2.0, n=n, seed=s, threads=th),
    "martingale": lambda n, s, th: pz.penalized_expectation(
        BM, TRI, 1.0, lambda x, ell: 1.0, n=n, seed=s, threads=th),
    "penalized": lambda n, s, th: pz.penalized_expectation(
        BM, IND, 2.0, lambda x, ell: x + ell, n=n, seed=s, threads=th),
    "law": lambda n, s, th: pz.linfty_law_check(
        BM, TRI, n=n, u=1.0, seed=s, grid_points=5, threads=th),
}


def _outcome(run, n, seed, threads):
    try:
        res = run(n, seed, threads)
    except RangeError as exc:     # a tiny n can leave no weighted mass
        return repr(exc)
    return _bits(res) if isinstance(res, mc.McEstimate) else {
        k: _hex(v) for k, v in res.items()}


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 3 * mc.DEFAULT_CHUNK),
       seed=st.integers(0, 2 ** 32 - 1))
def test_exact_estimators_thread_invariant_across_chunk_boundaries(n, seed):
    for name, run in EXACT.items():
        assert _outcome(run, n, seed, 1) == _outcome(run, n, seed, 2), name
