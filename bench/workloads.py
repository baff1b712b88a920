"""The four benchmark workloads.

Each workload is a researcher's script issuing public levykit calls back
to back.  ``build()`` is its set-up (specs, measures, weights and
tails); ``calls(ctx, rng)`` lists the calls of one pass, with their
correctness checks and the work each produces.  Every input and every
Monte Carlo seed of a pass comes from ``rng``, which the harness derives
from the workload seed and the pass index, so a seed always gives the
same inputs while no two passes repeat one another.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import levykit as lk
from levykit import cli
from levykit import montecarlo as mc
from levykit import penalization as pz
from levykit import spectral as sp
from levykit import subexp as sx
from levykit.exprlang import compile_expression

import oracles as orc

PATHS = 50_000


@dataclass
class Call:
    """One public call, its check, and the work it produces.

    ``work`` counts path-steps, exact draws or certified values.
    ``eigen`` holds one tuple of ``(spec, x, kind)`` keys per eigenfunction
    evaluation the call makes.  ``chunks`` is the number of chunks the
    call runs through the Monte Carlo chunk layer.  A ``known_defect`` call
    that raises is recorded apart from the failure count.
    """

    name: str
    fn: Callable[[], object]
    check: Callable[[object], orc.Verdict]
    work: int = 1
    eigen: tuple = ()
    chunks: int = 0
    known_defect: bool = False
    info: dict = field(default_factory=dict)


def _seed(rng) -> int:
    return int(rng.integers(2 ** 31 - 1))


def _chunks(n: int) -> int:
    return -(-n // mc.DEFAULT_CHUNK)


# relative width of the seed-drawn perturbation of lattice inputs: wide
# enough that no two passes repeat, narrow enough that a pass costs the
# same whatever the seed
JITTER = 0.02


def _jitter(rng, values):
    values = np.asarray(values, dtype=float)
    return values * np.exp(rng.uniform(-JITTER, JITTER, values.shape))


# ---------------------------------------------------------------------------
# paths: grid Monte Carlo
# ---------------------------------------------------------------------------

DM_TIMES = (0.25, 0.5, 1.0)
DM_DT = 1e-3
MART_U = (0.25, 0.5)
MART_DT = 1e-4


def build_paths():
    return {"brownian": lk.brownian_spec(), "bessel": lk.bessel_spec(1.5),
            "weights": [pz.indicator_weight(1.0), pz.triangular_weight(2.0)]}


def _dm_check(times):
    def check(rows):
        return orc.combine(
            [orc.Verdict([r["t"] for r in rows] == list(times),
                         "wrong checkpoint rows")]
            + [orc.z_value(r["gap"] / r["std_error"],
                           f"compensator gap z at t={r['t']:g}")
               for r in rows])
    return check


def _mart_check(rows):
    return orc.combine([orc.Verdict(len(rows) == 2 * len(MART_U),
                                    "wrong number of martingale rows")]
                       + [orc.z_value(r["z"], f"unit-mean z of {r['weight']} "
                                      f"at u={r['u']:g}") for r in rows])


def _bm_occupation_bias(eps, dt, t):
    """The band-occupation defect for Brownian motion from 0, summed
    directly: ``E L_t = sqrt(2t/pi)`` against the left-endpoint band sum
    with ``P_0(X_s < eps) = erf(eps / sqrt(2s))`` and ``m((0, eps)) = 2 eps``."""
    from scipy.special import erf
    s = np.arange(1, int(round(t / dt))) * dt
    band = 1.0 + float(np.sum(erf(eps / np.sqrt(2.0 * s))))
    return math.sqrt(2.0 * t / math.pi) - dt / (2.0 * eps) * band


def paths_calls(ctx, rng):
    bm = ctx["brownian"]
    calls = []
    dm_steps = int(round(DM_TIMES[-1] / DM_DT))
    for key in ("brownian", "bessel"):
        spec, seed = ctx[key], _seed(rng)
        calls.append(Call(
            f"montecarlo.doob_meyer_check.{key}",
            lambda spec=spec, seed=seed: mc.doob_meyer_check(
                spec, DM_TIMES, n_paths=PATHS, dt=DM_DT, seed=seed),
            _dm_check(DM_TIMES), work=PATHS * dm_steps,
            chunks=_chunks(PATHS),
            info={"steps": dm_steps}))
    seed = _seed(rng)
    mart_steps = int(round(MART_U[-1] / MART_DT))
    calls.append(Call(
        "penalization.martingale_property_mc",
        lambda seed=seed: pz.martingale_property_mc(
            bm, ctx["weights"], MART_U, n_paths=PATHS, dt=MART_DT,
            seed=seed),
        _mart_check, work=PATHS * mart_steps, chunks=_chunks(PATHS)))
    return [calls[i] for i in rng.permutation(len(calls))]


def thread_calls(ctx, seed):
    """The same Bessel ``doob_meyer_check`` at one and at two threads; the
    two-thread rows must reproduce the one-thread rows bit for bit."""
    times, rows = (0.5,), {}

    def run(threads):
        rows[threads] = mc.doob_meyer_check(ctx["bessel"], times,
                                            n_paths=PATHS, dt=DM_DT,
                                            seed=seed, threads=threads)
        return rows[threads]

    def same(out):
        ok = out == rows[1]
        return orc.Verdict(ok, "" if ok else "rows differ between 1 and 2 "
                           "threads")

    steps = int(round(times[-1] / DM_DT))
    return [Call("montecarlo.threads.1", lambda: run(1), _dm_check(times),
                 work=PATHS * steps, chunks=_chunks(PATHS)),
            Call("montecarlo.threads.2", lambda: run(2), same,
                 work=PATHS * steps, chunks=_chunks(PATHS))]


# ---------------------------------------------------------------------------
# exact: exact samplers, penalization checks and the CLI
# ---------------------------------------------------------------------------

EXACT_N = 200_000
CLI_N = 100_000
LAW_N = 5_000
POSTLZ_N = 5_000


def build_exact():
    # post_lastzero_marginal_check imports scipy.stats on first use; a
    # script pays that once, so it belongs to set-up, not to a pass
    import scipy.stats  # noqa: F401
    return {"brownian": lk.brownian_spec(), "bessel": lk.bessel_spec(1.5),
            "bessel0.5": lk.bessel_spec(0.5),
            "indicator": pz.indicator_weight(1.0),
            "triangular": pz.triangular_weight(2.0)}


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _csv(text):
    """Rows of a levykit CSV document, and its ``# key=value`` metadata."""
    meta, lines = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, val = line[1:].strip().partition("=")
            if sep:
                meta[key] = val
        else:
            lines.append(line)
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]], meta


def _law_verdict(ell, weighted, se, target, n, ell0, u):
    """Weighted local-time CDF against ``H``: within 5 SE plus the 1%
    leftover mass the horizon search allows.  Where few weighted samples
    fall below ``ell`` the delta-method SE collapses, so it is floored by
    the binomial SE at the weighted effective sample size."""
    n_eff = orc.bm_weighted_sample_size(n, ell0, u)
    target = np.asarray(target, dtype=float)
    floor = np.sqrt(target * (1.0 - target) / n_eff)
    bar = orc.Z_BAR * np.maximum(np.asarray(se, dtype=float), floor) + 0.01
    gap = np.abs(np.asarray(weighted, dtype=float) - target)
    bad = np.flatnonzero(gap > bar)
    if bad.size:
        i = int(bad[0])
        return orc.Verdict(False, f"weighted CDF gap {gap[i]:.4f} at "
                           f"ell={float(ell[i]):g} beyond {bar[i]:.4f}")
    return orc.PASS


def _postlz_verdict(res, n, ell0):
    n_eff = orc.bm_weighted_sample_size(n, ell0, res["u"])
    probs = np.asarray(res["bin_probs"], dtype=float)
    p = 1.0 / probs.size
    bins = [orc.proportion(float(q), p, n_eff, f"Maxwell bin {i} mass")
            for i, q in enumerate(probs)]
    corr = orc.zscore(res["corr"], res["corr_se"], 0.0,
                      "local-time/position correlation")
    return orc.combine(bins + [corr])


def _cli_calls(command, argv, gate, work=0, chunks=0):
    """A CLI command run in-process.  Seeded commands run three times --
    as given, rerun, and with ``--threads 2`` -- and all three stdout
    documents must be byte-identical."""
    seeded = "--seed" in argv
    variants = [argv, argv, argv + ["--threads", "2"]] if seeded else [argv]
    first = {}
    calls = []
    for i, args in enumerate(variants):
        info = {"variant": i}

        def check(out, i=i, info=info):
            code, text, err = out
            if code != 0:
                return orc.Verdict(False, f"exit code {code}: "
                                   f"{err.strip()[:200]}")
            info["stdout_bytes"] = len(text.encode())
            if i == 0:
                first["text"] = text
                return gate(*_csv(text))
            same = text == first.get("text")
            return orc.Verdict(same, "" if same else
                               "stdout differs between runs of one seed")

        calls.append(Call(f"cli.{command}", lambda args=args: _run_cli(args),
                          check, work=work, chunks=chunks, info=info))
    return calls


def exact_calls(ctx, rng):
    bm, b15 = ctx["brownian"], ctx["bessel"]
    ind, tri = ctx["indicator"], ctx["triangular"]
    n = EXACT_N
    calls = []

    for x, t, ell in ((0.0, 2.0, 1.0), (1.0, 8.0, 0.5)):
        seed = _seed(rng)
        calls.append(Call(
            "montecarlo.estimate_localtime_tail",
            lambda x=x, t=t, ell=ell, seed=seed: mc.estimate_localtime_tail(
                bm, x, t, ell, n, seed=seed),
            lambda e, x=x, t=t, ell=ell: orc.zscore(
                e.mean, e.std_error, orc.bm_localtime_cdf(x, ell, t),
                "P(L_t <= ell)"),
            work=n, chunks=_chunks(n)))
    for spec, x, t in ((b15, 1.0, 4.0), (bm, 1.0, 1.0)):
        seed = _seed(rng)
        calls.append(Call(
            "montecarlo.estimate_hitting_tail",
            lambda spec=spec, x=x, t=t, seed=seed: mc.estimate_hitting_tail(
                spec, x, t, n, seed=seed),
            lambda e, spec=spec, x=x, t=t: orc.zscore(
                e.mean, e.std_error, orc.hitting_tail(spec.alpha, x, t),
                "P(H_0 > t)"),
            work=n, chunks=_chunks(n)))
    for spec, lam, ell in ((b15, 2.0, 1.0), (bm, 0.5, 2.0)):
        seed = _seed(rng)
        calls.append(Call(
            "montecarlo.levy_exponent_mc",
            lambda spec=spec, lam=lam, ell=ell, seed=seed:
                mc.levy_exponent_mc(spec, lam, ell=ell, n=n, seed=seed),
            lambda e, spec=spec, lam=lam: orc.zscore(
                e.mean, e.std_error, orc.exponent(spec.alpha, lam),
                "Laplace exponent"),
            work=n, chunks=_chunks(n)))
    seed = _seed(rng)
    calls.append(Call(
        "montecarlo.sample_tau",
        lambda seed=seed: mc.sample_tau(bm, 1.0, n, seed=seed).values,
        lambda v: orc.proportion(float(np.mean(v <= 2.0)),
                                 orc.bm_tau_cdf(1.0, 2.0), v.size,
                                 "P(tau_1 <= 2)"),
        work=n))
    seed = _seed(rng)
    calls.append(Call(
        "montecarlo.sample_tau",
        lambda seed=seed: np.exp(-mc.sample_tau(b15, 0.5, n,
                                                seed=seed).values),
        lambda v: orc.zscore(float(np.mean(v)),
                             float(np.std(v, ddof=1)) / math.sqrt(v.size),
                             math.exp(-orc.exponent(b15.alpha, 1.0) * 0.5),
                             "E exp(-tau_0.5)"),
        work=n))
    # the closed-form bias correction the grid checks apply, on its own:
    # a short call, so it is timed here rather than inside `paths`
    eps = math.sqrt(MART_DT)
    calls.append(Call(
        "montecarlo.occupation_bias",
        lambda: mc.occupation_bias(bm, eps, MART_DT, MART_U[-1]),
        lambda v: orc.relative(v, _bm_occupation_bias(eps, MART_DT,
                                                      MART_U[-1]),
                               "occupation bias"),
        work=0))
    for spec, lam in ((b15, 2.0), (bm, 0.5), (ctx["bessel0.5"], 1.0)):
        calls.append(Call(
            "diffusions.levy_exponent",
            lambda spec=spec, lam=lam: lk.levy_exponent(spec, lam),
            lambda v, spec=spec, lam=lam: orc.value(
                v, orc.exponent(spec.alpha, lam), what="Laplace exponent"),
            work=0))

    seed = _seed(rng)
    calls.append(Call(
        "penalization.penalization_horizon",
        lambda seed=seed: pz.penalization_horizon(bm, ind, 0.01, n=n,
                                                  seed=seed, full=True),
        lambda r: orc.zscore(r["leftover"], r["leftover_se"],
                             orc.bm_leftover(1.0, r["u"]), "leftover mass"),
        work=n))
    seed = _seed(rng)
    calls.append(Call(
        "penalization.linfty_law_check",
        lambda seed=seed: pz.linfty_law_check(bm, ind, n=LAW_N, seed=seed),
        lambda r: _law_verdict(r["grid"], r["weighted_cdf"], r["cdf_se"],
                               r["target_cdf"], LAW_N, 1.0, r["u"]),
        work=LAW_N, chunks=_chunks(LAW_N)))
    seed = _seed(rng)
    calls.append(Call(
        "penalization.penalized_expectation",
        lambda seed=seed: pz.penalized_expectation(
            bm, tri, 5.0, lambda x, ell: np.ones_like(x), n=n, seed=seed),
        lambda e: orc.zscore(e.mean, e.std_error, 1.0, "E[M_u]"),
        work=n, chunks=_chunks(n)))
    seed = _seed(rng)
    calls.append(Call(
        "penalization.post_lastzero_marginal_check",
        lambda seed=seed: pz.post_lastzero_marginal_check(
            ind, v=1.0, n=POSTLZ_N, seed=seed),
        lambda r: _postlz_verdict(r, r["n_paths"], 1.0),
        work=POSTLZ_N))

    # the CLI, in-process
    def rows_gate(check_row):
        return lambda rows, meta: orc.combine(check_row(r) for r in rows)

    seed = str(_seed(rng))
    ts = (1.0, 100.0, 1e4)
    calls += _cli_calls(
        "mc-localtime-tail",
        ["mc", "localtime-tail", "--spec", "brownian", "--x", "0", "--ell",
         "1", "--t", ",".join(map(str, ts)), "--n", str(CLI_N), "--seed",
         seed],
        rows_gate(lambda r: orc.zscore(
            float(r["estimate"]), float(r["std_error"]),
            orc.bm_localtime_cdf(0.0, 1.0, float(r["t"])), "P(L_t <= 1)")),
        work=CLI_N * len(ts), chunks=_chunks(CLI_N) * len(ts))
    seed = str(_seed(rng))
    ts = (1.0, 10.0, 100.0)
    calls += _cli_calls(
        "mc-hitting-tail",
        ["mc", "hitting-tail", "--spec", "bessel:1.5", "--x", "1", "--t",
         ",".join(map(str, ts)), "--n", str(CLI_N), "--seed", seed],
        rows_gate(lambda r: orc.combine([
            orc.z_value(float(r["z"]), "hitting-tail z"),
            orc.value(float(r["exact"]),
                      orc.hitting_tail(b15.alpha, 1.0, float(r["t"])),
                      what="spectral hitting tail")])),
        work=CLI_N * len(ts), chunks=_chunks(CLI_N) * len(ts))
    seed = str(_seed(rng))
    lams = (0.5, 2.0)
    calls += _cli_calls(
        "mc-exponent",
        ["mc", "exponent", "--spec", "bessel:1.5", "--lam",
         ",".join(map(str, lams)), "--n", str(CLI_N), "--seed", seed],
        rows_gate(lambda r: orc.combine([
            orc.z_value(float(r["z"]), "exponent z"),
            orc.value(float(r["exact"]),
                      orc.exponent(b15.alpha, float(r["lam"])),
                      what="Laplace exponent")])),
        work=CLI_N * len(lams), chunks=_chunks(CLI_N) * len(lams))
    seed = str(_seed(rng))
    calls += _cli_calls(
        "mc-tau",
        ["mc", "tau", "--spec", "brownian", "--ell", "1", "--n", str(CLI_N),
         "--seed", seed],
        rows_gate(lambda r: orc.proportion(
            orc.bm_tau_cdf(1.0, float(r["value"])), float(r["q"]), CLI_N,
            "CDF at the sample quantile")),
        work=CLI_N)
    seed = str(_seed(rng))
    calls += _cli_calls(
        "penalize-horizon",
        ["penalize", "horizon", "--spec", "brownian", "--n", str(CLI_N),
         "--seed", seed],
        rows_gate(lambda r: orc.zscore(
            float(r["leftover"]), float(r["leftover_se"]),
            orc.bm_leftover(1.0, float(r["u"])), "leftover mass")),
        work=CLI_N)
    seed = str(_seed(rng))

    def law_gate(rows, meta):
        col = {k: np.array([float(r[k]) for r in rows])
               for k in ("ell", "weighted_cdf", "cdf_se", "target_cdf")}
        return _law_verdict(col["ell"], col["weighted_cdf"], col["cdf_se"],
                            col["target_cdf"], LAW_N, 1.0, float(meta["u"]))

    calls += _cli_calls(
        "penalize-lawcheck",
        ["penalize", "lawcheck", "--spec", "brownian", "--n", str(LAW_N),
         "--seed", seed],
        law_gate, work=LAW_N, chunks=_chunks(LAW_N))
    ts = _jitter(rng, (0.1, 1.0, 10.0, 100.0))
    o = b15.oracles
    calls += _cli_calls(
        "tails",
        ["tails", "--spec", "bessel:1.5", "--x", "1", "--t",
         ",".join(repr(float(t)) for t in ts)],
        rows_gate(lambda r: orc.combine([
            orc.value(float(r["nu_dot"]), o.levy_density(float(r["t"])),
                      what="nu_dot"),
            orc.value(float(r["nu_bar"]), o.levy_tail(float(r["t"])),
                      what="nu_bar"),
            orc.value(float(r["hit_tail"]),
                      orc.hitting_tail(b15.alpha, 1.0, float(r["t"])),
                      what="hit_tail")])))
    xs = _jitter(rng, (10.0, 100.0, 1000.0))
    calls += _cli_calls(
        "subexp-check",
        ["subexp-check", "--tail", "pareto:1", "--x",
         ",".join(repr(float(x)) for x in xs)],
        rows_gate(lambda r: orc.combine([
            orc.value(float(r["conv"]), orc.pareto1_conv(float(r["x"])),
                      what="Pareto convolution tail"),
            orc.value(float(r["ratio"]),
                      orc.pareto1_conv(float(r["x"])) * float(r["x"]),
                      what="Pareto self-convolution ratio")])))
    return calls


# ---------------------------------------------------------------------------
# spectral: preset and generic routes on the Bessel presets, plus the
# heavy-tail diagnostics
# ---------------------------------------------------------------------------

SPECTRAL_T = np.geomspace(1e-2, 1e3, 11)
# The generic route cannot certify every point with small t: its
# quadrature reports non-convergence at a few percent of the points with
# t below about 0.16 for the reflected density of bessel:0.5 (principal
# measure ~ gamma^-0.75), and at rare points with t near 0.01 elsewhere.
# The jittered generic lattice starts above that window, so the failure
# count does not depend on the seed; two fixed failing points are
# attempted on every pass instead, as known defects.
GENERIC_T_MIN = 0.2
KNOWN_DEFECT_POINTS = (
    ("transition_density", "bessel0.5", 0.0566, 0.6, 1.35),
    ("killed_density", "bessel1.5", 0.01, 0.7046417640953688,
     1.4913218816773697))
SPECTRAL_X = (0.3, 0.7, 1.2, 2.0, 3.0)
SPECTRAL_Y = (0.5, 1.5)
PRESETS = {"brownian": 1.0, "bessel1.5": 1.5, "bessel0.5": 0.5}

# function -> (eigenfunction kind, measure kind, number of space points)
SPECTRAL_FNS = {
    "transition_density": ("A", "principal", 2),
    "killed_density": ("C", "killed", 2),
    "hitting_density": ("C", "killed", 1),
    "hitting_tail": ("C", "killed", 1),
    "levy_density": ("C", "killed", 0),
    "levy_tail": ("C", "killed", 0),
}


def _spectral_value(fn, spec, t, x, y, measure):
    kw = {"measure": measure, "with_error": True}
    if fn == "transition_density":
        return sp.transition_density(spec, x, y, t, **kw)
    if fn == "killed_density":
        return sp.transition_density(spec, x, y, t, killed=True, **kw)
    if fn == "hitting_density":
        return sp.hitting_density(spec, x, t, **kw)
    if fn == "hitting_tail":
        return sp.hitting_tail(spec, x, t, **kw)
    if fn == "levy_density":
        return sp.levy_density(spec, t, **kw)
    return sp.levy_tail(spec, t, **kw)


def _spectral_oracle(fn, twin, t, x, y):
    """Closed form of ``fn`` for the preset ``twin``."""
    o = twin.oracles
    if fn == "transition_density":
        return o.transition_density(t, x, y)
    if fn == "killed_density":
        return o.killed_density(t, x, y)
    if fn == "hitting_density":
        return o.hitting_density(x, t)
    if fn == "hitting_tail":
        return orc.hitting_tail(twin.alpha, x, t)
    if fn == "levy_density":
        return o.levy_density(t)
    return o.levy_tail(t)


def _spectral_call(name, fn, label, spec, twin, t, x=None, y=None,
                   measure=None):
    kind, _, n_points = SPECTRAL_FNS[fn]
    points = (x, y)[:n_points]
    eigen = (tuple((label, float(p), kind) for p in points),) \
        if n_points else ()
    t = float(t)
    x, y = (None if p is None else float(p) for p in (x, y))
    return Call(
        name, lambda: _spectral_value(fn, spec, t, x, y, measure),
        lambda out: orc.value(out[0], _spectral_oracle(fn, twin, t, x, y),
                              out[1], f"{fn}(t={t:g}, x={x}, y={y})"),
        eigen=eigen)


def build_spectral():
    specs = {k: lk.bessel_spec(d) for k, d in PRESETS.items()}
    measures = {k: {"principal": sp.bessel_principal_measure(s.alpha),
                    "killed": sp.bessel_killed_measure(s.alpha)}
                for k, s in specs.items()}
    grid = np.geomspace(1e-14, 2e3, 2000)
    table = sp.measure_from_table(
        grid, measures["brownian"]["killed"].density(grid), kind="killed")
    tails = {"pareto1": sx.pareto_tail(1.0),
             "exp1": sx.exponential_tail(1.0),
             "exp2": sx.exponential_tail(2.0),
             "hitting": sx.hitting_tail_distribution(specs["brownian"], 1.0)}
    return {"specs": specs, "measures": measures, "table": table,
            "tails": tails, "mu": sp.bessel_killed_measure(0.25).density}


def _lattice(fn, ts, xs, ys):
    n_points = SPECTRAL_FNS[fn][2]
    for t in ts:
        if n_points == 0:
            yield t, None, None
        for x in (xs if n_points else ()):
            for y in (ys if n_points == 2 else (None,)):
                yield t, x, y


def spectral_calls(ctx, rng):
    ts = np.clip(_jitter(rng, SPECTRAL_T), 1e-2, 1e3)
    xs = _jitter(rng, SPECTRAL_X)
    ys = _jitter(rng, SPECTRAL_Y)
    generic_xs, generic_ys = xs[[1, 3]], ys[[1]]
    calls = []
    for label, spec in ctx["specs"].items():
        for route in ("preset_route", "generic_route"):
            for fn, (_, measure_kind, _) in SPECTRAL_FNS.items():
                measure = ctx["measures"][label][measure_kind] \
                    if route == "generic_route" else None
                if measure is None:
                    lattice = _lattice(fn, ts, xs, ys)
                else:
                    lattice = _lattice(fn, ts[ts >= GENERIC_T_MIN],
                                       generic_xs, generic_ys)
                calls += [_spectral_call(f"spectral.{route}.{fn}", fn, label,
                                         spec, spec, t, x, y, measure)
                          for t, x, y in lattice]

    for fn, label, t, x, y in KNOWN_DEFECT_POINTS:
        spec = ctx["specs"][label]
        measure = ctx["measures"][label][SPECTRAL_FNS[fn][1]]
        defect = _spectral_call(f"spectral.known_defect.generic_route.{fn}",
                                fn, label, spec, spec, t, x, y, measure)
        defect.known_defect = True
        calls.append(defect)

    bm = ctx["specs"]["brownian"]
    x_table = float(_jitter(rng, 1.0))
    for fn in ("levy_density", "levy_tail", "hitting_density",
               "hitting_tail"):
        calls += [_spectral_call("spectral.table_measure", fn, "brownian", bm,
                                 bm, t, x, None, ctx["table"])
                  for t, x, _ in _lattice(fn, _jitter(
                      rng, (0.1, 1.0, 10.0, 100.0)), (x_table,), ())]

    tails = ctx["tails"]
    closed = {
        ("pareto1", "pareto1"): orc.pareto1_conv,
        ("exp1", "exp1"): lambda x: orc.exp_conv(1.0, 1.0, x),
        ("exp1", "exp2"): lambda x: orc.exp_conv(1.0, 2.0, x),
        ("pareto1", "exp1"): orc.pareto1_exp1_conv,
        ("hitting", "hitting"): lambda x: orc.bm_hitting_conv(1.0, x),
    }
    survival = {"pareto1": lambda x: 1.0 / x, "exp1": lambda x: math.exp(-x),
                "exp2": lambda x: math.exp(-2.0 * x),
                "hitting": lambda x: orc.hitting_tail(0.5, 1.0, x)}
    sub_xs = [float(x) for x in _jitter(rng, (3.0, 8.0, 20.0))]
    for (f, g), conv in closed.items():
        F, G = tails[f], tails[g]
        calls += [Call("subexp.conv_tail",
                       lambda F=F, G=G, x=x: sx.conv_tail(F, G, x,
                                                          with_error=True),
                       lambda out, conv=conv, x=x: orc.value(
                           out[0], conv(x), out[1], f"convolution tail {x:g}"))
                  for x in sub_xs]
        if f == g and f != "exp2":
            calls += [Call("subexp.subexp_ratio",
                           lambda F=F, x=x: sx.subexp_ratio(F, x),
                           lambda v, conv=conv, f=f, x=x: orc.value(
                               v, conv(x) / survival[f](x), what="ratio"))
                      for x in sub_xs]
        elif f != g:
            calls += [Call("subexp.mixed_ratio",
                           lambda F=F, G=G, x=x: sx.mixed_ratio(F, G, x),
                           lambda v, conv=conv, f=f, g=g, x=x: orc.value(
                               v, conv(x) / (survival[f](x) + survival[g](x)),
                               what="mixed ratio"))
                      for x in sub_xs]
    for label, spec in ctx["specs"].items():
        calls.append(Call(
            "subexp.hitting_tail_distribution.preset",
            lambda spec=spec: sx.hitting_tail_distribution(spec, 1.0),
            lambda D, spec=spec: orc.values(
                D.tail, orc.hitting_tail(spec.alpha, 1.0, D.grid),
                "tabulated hitting tail")))
    for lam in _jitter(rng, (1.0, 10.0, 100.0)):
        lam = float(lam)
        calls.append(Call(
            "subexp.tauberian_ratio",
            lambda lam=lam: sx.tauberian_ratio(ctx["mu"], lambda g: 1.0,
                                               lambda g: math.exp(-g), lam),
            lambda v, lam=lam: orc.value(v, ((lam + 1.0) / lam) ** 1.25,
                                         what="Laplace-integral ratio")))
    for label, spec in ctx["specs"].items():
        for t in _jitter(rng, (0.5, 2.0)):
            calls.append(Call(
                "penalization.uparrow_mass",
                lambda spec=spec, t=float(t): pz.uparrow_mass(spec, t),
                lambda v: orc.value(v, 1.0, what="conditioned mass")))
    return calls


# ---------------------------------------------------------------------------
# custom: custom-spec spectral calls (series eigenfunctions)
# ---------------------------------------------------------------------------

CUSTOM_EXPRESSIONS = {"custom_brownian": ("x", "2"),
                      "custom_bessel": ("x^0.5/0.5", "2*x^0.5")}
CUSTOM_HTD_GRID = np.geomspace(4.0, 64.0, 8)
EIGEN_TERMS = 24


def build_custom():
    specs = {k: lk.spec_from_expressions(s, m)
             for k, (s, m) in CUSTOM_EXPRESSIONS.items()}
    killed_bm = sp.bessel_killed_measure(0.5)
    grid = np.geomspace(1e-14, 20.0, 400)
    return {"specs": specs,
            "twins": {"custom_brownian": lk.brownian_spec(),
                      "custom_bessel": lk.bessel_spec(1.5)},
            "measures": {"custom_brownian": killed_bm,
                         "custom_bessel": sp.bessel_killed_measure(0.25)},
            "table": sp.measure_from_table(grid, killed_bm.density(grid),
                                           kind="killed")}


def expression_setup_ms(repeats=20):
    """Median milliseconds of ``compile_expression`` and of
    ``spec_from_expressions`` on the custom workload's expressions."""
    compile_ms, spec_ms = [], []
    for _ in range(repeats):
        for scale, speed in CUSTOM_EXPRESSIONS.values():
            for text in (scale, speed):
                t0 = time.perf_counter()
                compile_expression(text)
                compile_ms.append(1e3 * (time.perf_counter() - t0))
            t0 = time.perf_counter()
            lk.spec_from_expressions(scale, speed)
            spec_ms.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(compile_ms), statistics.median(spec_ms)


def custom_calls(ctx, rng):
    specs, twins, measures = ctx["specs"], ctx["twins"], ctx["measures"]
    calls = []

    def point(label, fn, t, x=1.0, y=None, measure=None, name=None):
        return _spectral_call(name or f"spectral.custom.{fn}", fn, label,
                              specs[label], twins[label], t, x, y,
                              measures[label] if measure is None else measure)

    def eigen(label):
        twin = twins[label]
        return Call(
            "spectral.eigen_coefficients",
            lambda: sp.eigen_coefficients(specs[label], 1.0, "C",
                                          n_terms=EIGEN_TERMS).coefficients,
            lambda c: orc.relative(c, orc.eigen_coefficients(
                twin.alpha, 1.0, EIGEN_TERMS), "eigen coefficients"),
            eigen=(((label, 1.0, "C"),),))

    calls.append(eigen("custom_brownian"))
    calls += [point("custom_brownian", "hitting_tail", t)
              for t in (2.0, 4.0, 8.0)]
    calls.append(point("custom_brownian", "hitting_density", 4.0))
    calls.append(point("custom_brownian", "killed_density", 4.0, 0.5,
                       1.0, name="spectral.custom.transition_density"))
    calls.append(eigen("custom_bessel"))
    calls += [point("custom_bessel", "hitting_tail", t)
              for t in (4.0, 8.0)]
    calls.append(point("custom_bessel", "hitting_density", 2.0))
    grid, label = CUSTOM_HTD_GRID, "custom_bessel"
    calls.append(Call(
        "subexp.hitting_tail_distribution.custom",
        lambda: sx.hitting_tail_distribution(specs[label], 1.0, grid=grid,
                                             measure=measures[label]),
        lambda D: orc.values(D.tail, orc.hitting_tail(
            twins[label].alpha, 1.0, grid), "tabulated hitting tail"),
        work=grid.size, eigen=(((label, 1.0, "C"),),) * grid.size))
    # a table measure needs no eigenfunction for the Levy tail ...
    calls.append(point("custom_brownian", "levy_tail", 2.0, None,
                       measure=ctx["table"],
                       name="spectral.custom.table_measure.levy_tail"))
    # ... but every eigenfunction functional of a custom spec fails with
    # one: the knots branch of the generic route feeds a 2-d node array
    # into the 1-d series evaluator.  Attempted on every pass and counted
    # apart from the failures until it is fixed.
    defect = point("custom_brownian", "hitting_tail", 2.0,
                   measure=ctx["table"],
                   name="spectral.custom.table_measure.hitting_tail")
    defect.known_defect = True
    calls.append(defect)
    # the cost of a custom-spec call is steep in t near the edge of the
    # certifiable window, so the inputs are fixed and the seed only sets
    # the order of the calls
    return [calls[i] for i in rng.permutation(len(calls))]


WORKLOADS = {
    "paths": (build_paths, paths_calls),
    "exact": (build_exact, exact_calls),
    "spectral": (build_spectral, spectral_calls),
    "custom": (build_custom, custom_calls),
}
