"""Command-line front end.

Six commands: ``density``, ``tails``, ``eigen``, ``subexp-check``, ``mc``
(with method subcommands) and ``penalize``.  Every run is reproducible:
the seed defaults to the fixed constant ``DEFAULT_SEED`` rather than the
clock, and the same arguments always produce byte-identical output.

Output is CSV (default) or JSON.  CSV starts with a ``# levykit
v<version>`` comment, then a header row; column orders are fixed and
listed in each subcommand's ``--help``.  JSON mirrors the columns as
fields of the row objects.  Exit codes: 0 success, 2 invalid input,
3 numerical-tolerance failure.

Each subcommand is one :func:`_command` declaration bound to a row
function that yields tuples in the declared column order.
"""

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from . import montecarlo as mc
from . import penalization as pz
from . import spectral
from . import subexp
from .diffusions import levy_exponent, parse_spec_argument
from .errors import (ConsistencyError, DomainError, IntegrabilityError,
                     LevykitError, ToleranceError)

DEFAULT_SEED = 12345


# ---------------------------------------------------------------------------
# small parsing helpers
# ---------------------------------------------------------------------------

def _floats(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise DomainError(f"expected a comma-separated list of numbers, "
                          f"got {text!r}")


def _parse_weight(text):
    """``indicator:ELL0``, ``triangular:K``, inline JSON, or a JSON path."""
    text = text.strip()
    lowered = text.lower()
    if lowered.startswith("indicator"):
        _, _, arg = text.partition(":")
        return pz.indicator_weight(float(arg) if arg else 1.0)
    if lowered.startswith("triangular"):
        _, _, arg = text.partition(":")
        return pz.triangular_weight(float(arg) if arg else 1.0)
    if text.startswith("{"):
        return pz.weight_from_json(json.loads(text))
    with open(text) as fh:
        return pz.weight_from_json(json.load(fh))


def _parse_tail(text, spec):
    """``pareto:ALPHA[:SCALE]``, ``exp:RATE`` or ``hitting:X``."""
    parts = text.strip().split(":")
    kind = parts[0].lower()
    if kind == "pareto":
        alpha = float(parts[1]) if len(parts) > 1 else 1.0
        scale = float(parts[2]) if len(parts) > 2 else 1.0
        return subexp.pareto_tail(alpha, scale)
    if kind == "exp":
        rate = float(parts[1]) if len(parts) > 1 else 1.0
        return subexp.exponential_tail(rate)
    if kind == "hitting":
        if len(parts) < 2:
            raise DomainError("hitting tails are written hitting:<x>")
        return subexp.hitting_tail_distribution(spec, float(parts[1]))
    raise DomainError(f"unknown tail {text!r}; use pareto:<alpha>[:scale], "
                      "exp:<rate> or hitting:<x>")


def _one_weight(args):
    if len(args.weight or ()) > 1:
        raise DomainError(f"{args.name} takes one --weight, got "
                          f"{len(args.weight)}")
    return _parse_weight((args.weight or ["indicator:1.0"])[0])


def _z(gap, std_error):
    return gap / std_error if std_error else 0.0


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------

def _fmt_cell(v):
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _json_value(v):
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    return v


def _render_csv(columns, rows, meta):
    lines = [f"# levykit v{__version__}"]
    for key, val in meta.items():
        lines.append(f"# {key}={_fmt_cell(val)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _render_json(command, columns, rows, meta):
    doc = {"levykit": __version__, "command": command, "columns": columns}
    for key, val in meta.items():
        doc[key] = _json_value(val)
    doc["rows"] = [dict(zip(columns, map(_json_value, row))) for row in rows]
    return json.dumps(doc, indent=1) + "\n"


def _emit(args, rows, meta):
    """Write ``rows`` in the column order the subcommand declared."""
    if args.format == "json":
        text = _render_json(args.name, args.columns, rows, meta)
    else:
        text = _render_csv(args.columns, rows, meta)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------

_COMMANDS = []
_GROUPS = {"mc": "Monte Carlo estimators and checks",
           "penalize": "local-time penalization checks"}


def _arg(*flags, **options):
    return flags, options


def _command(name, summary, columns, *arguments, note=None, after=()):
    """Declare subcommand ``name`` (``"mc tau"`` inside a group).

    ``arguments`` come before the shared ``--spec``, ``--format`` and
    ``--out`` in ``--help``, and ``after`` (:data:`_TOL`,
    :data:`_MONTE_CARLO`, or :data:`_GRID` for the commands that read
    ``--dt``) after them.  The decorated row function
    ``rows(args, spec, meta)`` yields one tuple per output row in the order
    of ``columns`` (a comma list, also listed in ``--help``) and may fill
    ``meta`` with summary fields.
    """
    def bind(rows):
        _COMMANDS.append((name, summary, columns.split(","), note,
                          arguments + (_SPEC, _FORMAT, _OUT) + after, rows))
        return rows
    return bind


_SPEC = _arg("--spec", default="brownian",
             help="diffusion: brownian, bessel:<delta>, inline JSON "
                  "or a JSON file path (default brownian)")
_FORMAT = _arg("--format", choices=("csv", "json"), default="csv",
               help="output format (default csv)")
_OUT = _arg("--out", default=None, help="output file (default stdout)")
_TOL = (_arg("--tol", type=float, default=1e-9,
             help="numerical tolerance (default 1e-9)"),)
_SEED = _arg("--seed", type=int, default=DEFAULT_SEED,
             help=f"RNG seed (fixed default {DEFAULT_SEED}, never "
                  "time-based)")
_N = _arg("--n", type=int, default=100_000,
          help="number of Monte Carlo paths (default 100000)")
_THREADS = _arg("--threads", type=int, default=None,
                help="worker threads (default every CPU this process may "
                     "run on; results do not depend on the thread count)")
_MONTE_CARLO = (_SEED, _N, _THREADS)
_GRID = (_SEED, _N,
         _arg("--dt", type=float, default=1e-3,
              help="time step of the simulated paths (default 1e-3)"),
         _THREADS)
_T = _arg("--t", required=True, help="time points, comma list")
_ELL = _arg("--ell", type=float, default=1.0)
_WEIGHT = _arg("--weight", action="append", default=None)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@_command("density", "transition density by spectral quadrature",
          "t,x,y,kind,value,abs_err",
          _T,
          _arg("--x", required=True, help="start points, comma list"),
          _arg("--y", default=None,
               help="end points, comma list (default: y = x)"),
          _arg("--killed", action="store_true",
               help="density killed at the boundary instead"),
          note="values are densities with respect to the speed measure",
          after=_TOL)
def _density(args, spec, meta):
    ts = _floats(args.t)
    xs = _floats(args.x)
    ys = _floats(args.y) if args.y else None
    for t, x in itertools.product(ts, xs):
        for y in (ys if ys is not None else [x]):
            val, err = spectral.transition_density(
                spec, x, y, t, killed=args.killed, tol=args.tol,
                with_error=True)
            yield t, x, y, "phat" if args.killed else "p", val, err


@_command("tails", "inverse-local-time Levy density and tail",
          "t,x,nu_dot,nu_dot_err,nu_bar,nu_bar_err,hit_tail,hit_tail_err",
          _T,
          _arg("--x", default=None,
               help="optional start for the boundary-hitting tail"),
          note="hit_tail columns are empty unless --x is given",
          after=_TOL)
def _tails(args, spec, meta):
    ts = _floats(args.t)
    x = float(args.x) if args.x is not None else None
    for t in ts:
        nu_dot, e1 = spectral.levy_density(spec, t, tol=args.tol,
                                           with_error=True)
        nu_bar, e2 = spectral.levy_tail(spec, t, tol=args.tol,
                                        with_error=True)
        ht = e3 = None
        if x is not None:
            ht, e3 = spectral.hitting_tail(spec, x, t, tol=args.tol,
                                           with_error=True)
        yield t, x, nu_dot, e1, nu_bar, e2, ht, e3


@_command("eigen", "boundary-normalized eigenfunctions A and C",
          "x,gamma,A,C,err_bound",
          _arg("--x", required=True, help="positions, comma list"),
          _arg("--gamma", required=True,
               help="spectral parameters, comma list"),
          note="A(x;0) = 1 and C(x;0) = S(x), the scale function",
          after=_TOL)
def _eigen(args, spec, meta):
    for x, g in itertools.product(_floats(args.x), _floats(args.gamma)):
        a = spectral.eigenfunction(spec, x, g, kind="A", tol=args.tol)
        c = spectral.eigenfunction(spec, x, g, kind="C", tol=args.tol)
        yield x, g, a, c, args.tol


@_command("subexp-check", "convolution-tail ratios",
          "x,tail_f,tail_g,conv,conv_err,ratio,ratio_err",
          _arg("--tail", required=True,
               help="pareto:<alpha>[:scale], exp:<rate> or "
                    "hitting:<x> (hitting uses --spec)"),
          _arg("--tail2", default=None,
               help="optional second tail for the mixed ratio"),
          _arg("--x", required=True, help="evaluation points, comma list"),
          note="single tail: ratio = conv/tail_f, approaches 2 for\n"
               "subexponential laws; with --tail2 the denominator is\n"
               "tail_f + tail_g and the limit is 1 when the mix is\n"
               "tail-equivalent")
def _subexp(args, spec, meta):
    F = _parse_tail(args.tail, spec)
    G = _parse_tail(args.tail2, spec) if args.tail2 else None
    for x in _floats(args.x):
        fbar = float(F.value(x))
        gbar = float(G.value(x)) if G is not None else fbar
        conv, cerr = subexp.conv_tail(F, G if G is not None else F, x,
                                      with_error=True)
        denom = fbar + gbar if G is not None else fbar
        if denom <= 1e-300:
            raise ToleranceError(f"tail vanishes numerically at x={x:g}")
        yield x, fbar, gbar, conv, cerr, conv / denom, cerr / denom


@_command("mc hitting-tail", "P_x(H_0 > t) vs the closed form",
          "x,t,method,n,seed,estimate,std_error,exact,z",
          _arg("--x", type=float, required=True), _T,
          after=_MONTE_CARLO)
def _mc_hitting_tail(args, spec, meta):
    ts = _floats(args.t)
    estimates = mc.estimate_hitting_tail(spec, args.x, ts, args.n,
                                         seed=args.seed, threads=args.threads)
    for t, est in zip(ts, estimates):
        exact = float(spectral.hitting_tail(spec, args.x, t))
        yield (args.x, t, "exact", est.n_paths, args.seed, est.mean,
               est.std_error, exact, _z(est.mean - exact, est.std_error))


@_command("mc localtime-tail", "P_x(L_t <= ell) vs its tail asymptote",
          "x,ell,t,method,n,seed,estimate,std_error,asymptote,ratio",
          _arg("--x", type=float, default=0.0), _ELL, _T,
          note="asymptote = (S(x)+ell) nu((t,inf)); ratio -> 1 as t grows",
          after=_MONTE_CARLO)
def _mc_localtime_tail(args, spec, meta):
    ts = _floats(args.t)
    estimates = mc.estimate_localtime_tail(
        spec, args.x, ts, args.ell, args.n, seed=args.seed,
        threads=args.threads)
    for t, est in zip(ts, estimates):
        asym = (float(spec.scale(args.x)) + args.ell) \
            * float(spectral.levy_tail(spec, t))
        yield (args.x, args.ell, t, "exact", est.n_paths, args.seed,
               est.mean, est.std_error, asym, est.mean / asym)


@_command("mc exponent", "Laplace exponent of tau vs the closed form",
          "lam,ell,n,seed,estimate,std_error,exact,z",
          _arg("--lam", required=True, help="Laplace arguments, comma list"),
          _ELL, after=_MONTE_CARLO)
def _mc_exponent(args, spec, meta):
    lams = _floats(args.lam)
    estimates = mc.levy_exponent_mc(spec, lams, ell=args.ell, n=args.n,
                                    seed=args.seed, threads=args.threads)
    for lam, est in zip(lams, estimates):
        exact = float(levy_exponent(spec, lam))
        yield (lam, args.ell, est.n_paths, args.seed, est.mean,
               est.std_error, exact, _z(est.mean - exact, est.std_error))


@_command("mc tau", "inverse-local-time quantiles with order-stat CIs",
          "ell,q,value,ci_lo,ci_hi,n,seed",
          _ELL,
          _arg("--q", default="0.1,0.25,0.5,0.75,0.9",
               help="quantile levels, comma list"),
          note="ci bounds are distribution-free 95% order-statistic "
               "intervals",
          after=_MONTE_CARLO)
def _mc_tau(args, spec, meta):
    if args.n < 1:
        raise DomainError("need at least one path")
    values = np.sort(mc.sample_tau(spec, args.ell, args.n, seed=args.seed,
                                   threads=args.threads).values)
    n = values.size
    for q in _floats(args.q):
        if not 0.0 < q < 1.0:
            raise DomainError("quantiles must lie strictly in (0, 1)")
        k = min(max(int(q * n), 0), n - 1)
        spread = 1.959963984540054 * math.sqrt(q * (1.0 - q) * n)
        lo = min(max(int(q * n - spread), 0), n - 1)
        hi = min(max(int(q * n + spread), 0), n - 1)
        yield args.ell, q, values[k], values[lo], values[hi], n, args.seed


@_command("mc doob-meyer", "E[S(X_t)] against E[L_t] on grid paths",
          "t,n,seed,scale_mean,local_mean,gap,std_error,bias_correction,z",
          _arg("--t", required=True, help="checkpoint times, comma list"),
          note="local_mean includes the closed-form band correction",
          after=_GRID)
def _mc_doob_meyer(args, spec, meta):
    for r in mc.doob_meyer_check(spec, _floats(args.t), n_paths=args.n,
                                 dt=args.dt, seed=args.seed,
                                 threads=args.threads):
        yield (r["t"], r["n_paths"], args.seed, r["scale_mean"],
               r["local_mean"], r["gap"], r["std_error"],
               r["bias_correction"], _z(r["gap"], r["std_error"]))


@_command("penalize martingale", "unit mean of the penalization martingale",
          "weight,u,n,seed,mean,std_error,z",
          _arg("--weight", action="append", default=None,
               help="indicator:<ell0>, triangular:<K>, inline JSON or a "
                    "JSON path; repeat for several (default indicator:1.0)"),
          _arg("--u", default="1.0", help="horizons, comma list"),
          after=_GRID)
def _penalize_martingale(args, spec, meta):
    weights = [_parse_weight(w) for w in args.weight or ["indicator:1.0"]]
    for r in pz.martingale_property_mc(spec, weights, _floats(args.u),
                                       n_paths=args.n, dt=args.dt,
                                       seed=args.seed, threads=args.threads):
        yield (r["weight"], r["u"], r["n_paths"], args.seed, r["mean"],
               r["std_error"], r["z"])


@_command("penalize horizon",
          "horizon where the leftover weight mass is small",
          "weight,tol,u,leftover,leftover_se,n,seed",
          _WEIGHT,
          _arg("--tol", type=float, default=0.01,
               help="leftover-mass threshold (default 0.01)"),
          after=_MONTE_CARLO)
def _penalize_horizon(args, spec, meta):
    weight = _one_weight(args)
    res = pz.penalization_horizon(spec, weight, tol=args.tol, n=args.n,
                                  seed=args.seed, full=True,
                                  threads=args.threads)
    yield (weight.name, args.tol, res["u"], res["leftover"],
           res["leftover_se"], res["n_paths"], args.seed)


@_command("penalize lawcheck", "weighted terminal local-time law against H",
          "ell,weighted_cdf,cdf_se,target_cdf,gap",
          _WEIGHT,
          _arg("--u", default=None,
               help="horizon (default: the certified horizon, the first "
                    "power of 2 whose leftover mass is under 1%%)"),
          note="summary metadata (weight, u, max_gap, n, seed) rides in\n"
               "CSV comments / JSON fields",
          after=_MONTE_CARLO)
def _penalize_lawcheck(args, spec, meta):
    weight = _one_weight(args)
    u = float(args.u) if args.u else None
    res = pz.linfty_law_check(spec, weight, n=args.n, u=u, seed=args.seed,
                              threads=args.threads)
    meta.update(weight=weight.name, u=res["u"], max_gap=res["max_gap"],
                n=res["n_paths"], seed=args.seed)
    for ell, cdf, se, target in zip(res["grid"], res["weighted_cdf"],
                                    res["cdf_se"], res["target_cdf"]):
        yield (float(ell), float(cdf), float(se), float(target),
               float(cdf - target))


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="levykit",
        description="Spectral densities, tail asymptotics, Monte Carlo "
                    "checks and penalization diagnostics for reflected "
                    "diffusions on the half-line.")
    parser.add_argument("--version", action="version",
                        version=f"levykit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for name, summary, columns, note, arguments, rows in _COMMANDS:
        group, _, leaf = name.rpartition(" ")
        where = sub
        if group:
            if group not in groups:
                groups[group] = sub.add_parser(
                    group, help=_GROUPS[group]).add_subparsers(
                        dest="method", required=True)
            where = groups[group]
        epilog = "columns: " + ",".join(columns)
        if note:
            epilog += "\n" + note
        p = where.add_parser(
            leaf, help=summary, epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(rows=rows, columns=columns, name=name)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        meta = {}
        rows = list(args.rows(args, parse_spec_argument(args.spec), meta))
        _emit(args, rows, meta)
    except json.JSONDecodeError as exc:
        print(f"levykit: malformed JSON at line {exc.lineno} column "
              f"{exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except (ToleranceError, IntegrabilityError, ConsistencyError) as exc:
        print(f"levykit: tolerance failure: {exc}", file=sys.stderr)
        return 3
    except (LevykitError, ValueError) as exc:
        print(f"levykit: invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"levykit: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
