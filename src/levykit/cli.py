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
"""

import argparse
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
        if spec is None:
            raise DomainError("hitting:<x> tails need --spec")
        if len(parts) < 2:
            raise DomainError("hitting tails are written hitting:<x>")
        return subexp.hitting_tail_distribution(spec, float(parts[1]))
    raise DomainError(f"unknown tail {text!r}; use pareto:<alpha>[:scale], "
                      "exp:<rate> or hitting:<x>")


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


def _render_csv(columns, rows, meta):
    lines = [f"# levykit v{__version__}"]
    for key, val in meta.items():
        lines.append(f"# {key}={_fmt_cell(val)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def _render_json(command, columns, rows, meta):
    clean_rows = []
    for row in rows:
        item = {}
        for c in columns:
            v = row.get(c)
            if isinstance(v, (np.integer,)):
                v = int(v)
            elif isinstance(v, (np.floating,)):
                v = float(v)
            item[c] = v
        clean_rows.append(item)
    doc = {"levykit": __version__, "command": command, "columns": columns}
    for key, val in meta.items():
        doc[key] = float(val) if isinstance(val, (np.floating, float)) \
            else val
    doc["rows"] = clean_rows
    return json.dumps(doc, indent=1) + "\n"


def _emit(args, rows, meta=None):
    """Write ``rows`` in the column order the subcommand declared."""
    columns = args.columns
    meta = meta or {}
    name = args.command if not hasattr(args, "method") \
        else f"{args.command} {args.method}"
    if args.format == "json":
        text = _render_json(name, columns, rows, meta)
    else:
        text = _render_csv(columns, rows, meta)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _cmd_density(args):
    spec = parse_spec_argument(args.spec)
    ts = _floats(args.t)
    xs = _floats(args.x)
    ys = _floats(args.y) if args.y else None
    rows = []
    for t, x in itertools.product(ts, xs):
        for y in (ys if ys is not None else [x]):
            val, err = spectral.transition_density(
                spec, x, y, t, killed=args.killed, tol=args.tol,
                with_error=True)
            rows.append({"t": t, "x": x, "y": y,
                         "kind": "phat" if args.killed else "p",
                         "value": val, "abs_err": err})
    _emit(args, rows)


def _cmd_tails(args):
    spec = parse_spec_argument(args.spec)
    ts = _floats(args.t)
    x = float(args.x) if args.x is not None else None
    rows = []
    for t in ts:
        nu_dot, e1 = spectral.levy_density(spec, t, tol=args.tol,
                                           with_error=True)
        nu_bar, e2 = spectral.levy_tail(spec, t, tol=args.tol,
                                        with_error=True)
        row = {"t": t, "x": x, "nu_dot": nu_dot, "nu_dot_err": e1,
               "nu_bar": nu_bar, "nu_bar_err": e2,
               "hit_tail": None, "hit_tail_err": None}
        if x is not None:
            ht, e3 = spectral.hitting_tail(spec, x, t, tol=args.tol,
                                           with_error=True)
            row["hit_tail"] = ht
            row["hit_tail_err"] = e3
        rows.append(row)
    _emit(args, rows)


def _cmd_eigen(args):
    spec = parse_spec_argument(args.spec)
    rows = []
    for x, g in itertools.product(_floats(args.x), _floats(args.gamma)):
        a = spectral.eigenfunction(spec, x, g, kind="A", tol=args.tol)
        c = spectral.eigenfunction(spec, x, g, kind="C", tol=args.tol)
        rows.append({"x": x, "gamma": g, "A": a, "C": c,
                     "err_bound": args.tol})
    _emit(args, rows)


def _cmd_subexp(args):
    spec = parse_spec_argument(args.spec) if args.spec else None
    F = _parse_tail(args.tail, spec)
    G = _parse_tail(args.tail2, spec) if args.tail2 else None
    rows = []
    for x in _floats(args.x):
        fbar = float(F.value(x))
        gbar = float(G.value(x)) if G is not None else fbar
        conv, cerr = subexp.conv_tail(F, G if G is not None else F, x,
                                      with_error=True)
        denom = fbar + gbar if G is not None else fbar
        if denom <= 1e-300:
            raise ToleranceError(f"tail vanishes numerically at x={x:g}")
        rows.append({"x": x, "tail_f": fbar, "tail_g": gbar,
                     "conv": conv, "conv_err": cerr,
                     "ratio": conv / denom, "ratio_err": cerr / denom})
    _emit(args, rows)


def _cmd_mc(args):
    spec = parse_spec_argument(args.spec)
    method = args.method
    if method == "hitting-tail":
        rows = []
        for t in _floats(args.t):
            est = mc.estimate_hitting_tail(spec, args.x, t, args.n,
                                           seed=args.seed, method=args.how,
                                           dt=args.dt, threads=args.threads)
            exact = float(spectral.hitting_tail(spec, args.x, t))
            z = (est.mean - exact) / est.std_error if est.std_error else 0.0
            rows.append({"x": args.x, "t": t, "method": args.how,
                         "n": est.n_paths, "seed": args.seed,
                         "estimate": est.mean, "std_error": est.std_error,
                         "exact": exact, "z": z})
        _emit(args, rows)
    elif method == "localtime-tail":
        rows = []
        for t in _floats(args.t):
            est = mc.estimate_localtime_tail(spec, args.x, t, args.ell,
                                             args.n, seed=args.seed,
                                             method=args.how, dt=args.dt,
                                             threads=args.threads)
            asym = (float(spec.scale(args.x)) + args.ell) \
                * float(spectral.levy_tail(spec, t))
            rows.append({"x": args.x, "ell": args.ell, "t": t,
                         "method": args.how, "n": est.n_paths,
                         "seed": args.seed, "estimate": est.mean,
                         "std_error": est.std_error, "asymptote": asym,
                         "ratio": est.mean / asym})
        _emit(args, rows)
    elif method == "exponent":
        rows = []
        for lam in _floats(args.lam):
            est = mc.levy_exponent_mc(spec, lam, ell=args.ell, n=args.n,
                                      seed=args.seed, threads=args.threads)
            exact = float(levy_exponent(spec, lam))
            z = (est.mean - exact) / est.std_error if est.std_error else 0.0
            rows.append({"lam": lam, "ell": args.ell, "n": est.n_paths,
                         "seed": args.seed, "estimate": est.mean,
                         "std_error": est.std_error, "exact": exact,
                         "z": z})
        _emit(args, rows)
    elif method == "tau":
        sample = mc.sample_tau(spec, args.ell, args.n, seed=args.seed)
        values = np.sort(sample.values)
        n = values.size
        rows = []
        for q in _floats(args.q):
            if not 0.0 < q < 1.0:
                raise DomainError("quantiles must lie strictly in (0, 1)")
            k = min(max(int(q * n), 0), n - 1)
            spread = 1.959963984540054 * math.sqrt(q * (1.0 - q) * n)
            lo = min(max(int(q * n - spread), 0), n - 1)
            hi = min(max(int(q * n + spread), 0), n - 1)
            rows.append({"ell": args.ell, "q": q, "value": values[k],
                         "ci_lo": values[lo], "ci_hi": values[hi],
                         "n": n, "seed": args.seed})
        _emit(args, rows)
    else:  # doob-meyer
        out = mc.doob_meyer_check(spec, _floats(args.t), n_paths=args.n,
                                  dt=args.dt, seed=args.seed,
                                  threads=args.threads)
        rows = []
        for r in out:
            z = r["gap"] / r["std_error"] if r["std_error"] else 0.0
            rows.append({"t": r["t"], "n": r["n_paths"], "seed": args.seed,
                         "scale_mean": r["scale_mean"],
                         "local_mean": r["local_mean"], "gap": r["gap"],
                         "std_error": r["std_error"],
                         "bias_correction": r["bias_correction"], "z": z})
        _emit(args, rows)


def _cmd_penalize(args):
    spec = parse_spec_argument(args.spec)
    method = args.method
    if method == "martingale":
        weights = [_parse_weight(w) for w in (args.weight or
                                              ["indicator:1.0"])]
        out = pz.martingale_property_mc(spec, weights, _floats(args.u),
                                        n_paths=args.n, dt=args.dt,
                                        seed=args.seed,
                                        threads=args.threads)
        rows = [{"weight": r["weight"], "u": r["u"], "n": r["n_paths"],
                 "seed": args.seed, "mean": r["mean"],
                 "std_error": r["std_error"], "z": r["z"]} for r in out]
        _emit(args, rows)
    elif method == "horizon":
        weight = _parse_weight((args.weight or ["indicator:1.0"])[0])
        res = pz.penalization_horizon(spec, weight, tol=args.tol,
                                      n=args.n, seed=args.seed, full=True)
        rows = [{"weight": weight.name, "tol": args.tol, "u": res["u"],
                 "leftover": res["leftover"],
                 "leftover_se": res["leftover_se"],
                 "n": res["n_paths"], "seed": args.seed}]
        _emit(args, rows)
    else:  # lawcheck
        weight = _parse_weight((args.weight or ["indicator:1.0"])[0])
        u = float(args.u) if args.u else None
        res = pz.linfty_law_check(spec, weight, n=args.n, u=u,
                                  seed=args.seed, threads=args.threads)
        rows = []
        for i, ell in enumerate(res["grid"]):
            rows.append({"ell": float(ell),
                         "weighted_cdf": float(res["weighted_cdf"][i]),
                         "cdf_se": float(res["cdf_se"][i]),
                         "target_cdf": float(res["target_cdf"][i]),
                         "gap": float(res["weighted_cdf"][i]
                                      - res["target_cdf"][i])})
        meta = {"weight": weight.name, "u": res["u"],
                "max_gap": res["max_gap"], "n": res["n_paths"],
                "seed": args.seed}
        _emit(args, rows, meta)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p, seed=False, mc_opts=False):
    p.add_argument("--spec", default="brownian",
                   help="diffusion: brownian, bessel:<delta>, inline JSON "
                        "or a JSON file path (default brownian)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--out", default=None,
                   help="output file (default stdout)")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="numerical tolerance (default 1e-9)")
    if seed:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"RNG seed (fixed default {DEFAULT_SEED}, "
                            "never time-based)")
    if mc_opts:
        p.add_argument("--n", type=int, default=100_000,
                       help="number of Monte Carlo paths (default 100000)")
        p.add_argument("--dt", type=float, default=1e-3,
                       help="grid step for pathwise methods "
                            "(default 1e-3)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default LEVYKIT_THREADS or 1; "
                            "results do not depend on the thread count)")


def _command(sub, name, summary, func, columns, note=None):
    """Subparser for a command run by ``func`` that writes ``columns``; its
    ``--help`` lists them in the order :func:`_emit` writes them."""
    epilog = "columns: " + ",".join(columns)
    if note:
        epilog += "\n" + note
    p = sub.add_parser(
        name, help=summary, epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.set_defaults(func=func, columns=columns)
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="levykit",
        description="Spectral densities, tail asymptotics, Monte Carlo "
                    "checks and penalization diagnostics for reflected "
                    "diffusions on the half-line.")
    parser.add_argument("--version", action="version",
                        version=f"levykit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(
        sub, "density", "transition density by spectral quadrature",
        _cmd_density,
        ("t", "x", "y", "kind", "value", "abs_err"),
        "values are densities with respect to the speed measure")
    p.add_argument("--t", required=True, help="time points, comma list")
    p.add_argument("--x", required=True, help="start points, comma list")
    p.add_argument("--y", default=None,
                   help="end points, comma list (default: y = x)")
    p.add_argument("--killed", action="store_true",
                   help="density killed at the boundary instead")
    _add_common(p)

    p = _command(
        sub, "tails", "inverse-local-time Levy density and tail",
        _cmd_tails,
        ("t", "x", "nu_dot", "nu_dot_err", "nu_bar", "nu_bar_err",
         "hit_tail", "hit_tail_err"),
        "hit_tail columns are empty unless --x is given")
    p.add_argument("--t", required=True, help="time points, comma list")
    p.add_argument("--x", default=None,
                   help="optional start for the boundary-hitting tail")
    _add_common(p)

    p = _command(
        sub, "eigen", "boundary-normalized eigenfunctions A and C",
        _cmd_eigen,
        ("x", "gamma", "A", "C", "err_bound"),
        "A(x;0) = 1 and C(x;0) = S(x), the scale function")
    p.add_argument("--x", required=True, help="positions, comma list")
    p.add_argument("--gamma", required=True,
                   help="spectral parameters, comma list")
    _add_common(p)

    p = _command(
        sub, "subexp-check", "convolution-tail ratios",
        _cmd_subexp,
        ("x", "tail_f", "tail_g", "conv", "conv_err", "ratio", "ratio_err"),
        "single tail: ratio = conv/tail_f, approaches 2 for\n"
        "subexponential laws; with --tail2 the denominator is\n"
        "tail_f + tail_g and the limit is 1 when the mix is\n"
        "tail-equivalent")
    p.add_argument("--tail", required=True,
                   help="pareto:<alpha>[:scale], exp:<rate> or "
                        "hitting:<x> (hitting uses --spec)")
    p.add_argument("--tail2", default=None,
                   help="optional second tail for the mixed ratio")
    p.add_argument("--x", required=True,
                   help="evaluation points, comma list")
    _add_common(p)

    p = sub.add_parser("mc", help="Monte Carlo estimators and checks")
    mcsub = p.add_subparsers(dest="method", required=True)

    q = _command(
        mcsub, "hitting-tail", "P_x(H_0 > t) vs the closed form",
        _cmd_mc,
        ("x", "t", "method", "n", "seed", "estimate", "std_error", "exact",
         "z"))
    q.add_argument("--x", type=float, required=True)
    q.add_argument("--t", required=True, help="time points, comma list")
    q.add_argument("--how", choices=("exact", "pathwise"),
                   default="exact", help="sampling route (default exact)")
    _add_common(q, seed=True, mc_opts=True)

    q = _command(
        mcsub, "localtime-tail", "P_x(L_t <= ell) vs its tail asymptote",
        _cmd_mc,
        ("x", "ell", "t", "method", "n", "seed", "estimate", "std_error",
         "asymptote", "ratio"),
        "asymptote = (S(x)+ell) nu((t,inf)); ratio -> 1 as t grows")
    q.add_argument("--x", type=float, default=0.0)
    q.add_argument("--ell", type=float, default=1.0)
    q.add_argument("--t", required=True, help="time points, comma list")
    q.add_argument("--how", choices=("exact", "pathwise"),
                   default="exact", help="sampling route (default exact)")
    _add_common(q, seed=True, mc_opts=True)

    q = _command(
        mcsub, "exponent", "Laplace exponent of tau vs the closed form",
        _cmd_mc,
        ("lam", "ell", "n", "seed", "estimate", "std_error", "exact", "z"))
    q.add_argument("--lam", required=True,
                   help="Laplace arguments, comma list")
    q.add_argument("--ell", type=float, default=1.0)
    _add_common(q, seed=True, mc_opts=True)

    q = _command(
        mcsub, "tau", "inverse-local-time quantiles with order-stat CIs",
        _cmd_mc,
        ("ell", "q", "value", "ci_lo", "ci_hi", "n", "seed"),
        "ci bounds are distribution-free 95% order-statistic intervals")
    q.add_argument("--ell", type=float, default=1.0)
    q.add_argument("--q", default="0.1,0.25,0.5,0.75,0.9",
                   help="quantile levels, comma list")
    _add_common(q, seed=True, mc_opts=True)

    q = _command(
        mcsub, "doob-meyer", "E[S(X_t)] against E[L_t] on grid paths",
        _cmd_mc,
        ("t", "n", "seed", "scale_mean", "local_mean", "gap", "std_error",
         "bias_correction", "z"),
        "local_mean includes the closed-form band correction")
    q.add_argument("--t", required=True,
                   help="checkpoint times, comma list")
    _add_common(q, seed=True, mc_opts=True)

    p = sub.add_parser("penalize", help="local-time penalization checks")
    pzsub = p.add_subparsers(dest="method", required=True)

    q = _command(
        pzsub, "martingale", "unit mean of the penalization martingale",
        _cmd_penalize,
        ("weight", "u", "n", "seed", "mean", "std_error", "z"))
    q.add_argument("--weight", action="append", default=None,
                   help="indicator:<ell0>, triangular:<K>, inline JSON or "
                        "a JSON path; repeat for several "
                        "(default indicator:1.0)")
    q.add_argument("--u", default="1.0", help="horizons, comma list")
    _add_common(q, seed=True, mc_opts=True)

    q = _command(
        pzsub, "horizon", "horizon where the leftover weight mass is small",
        _cmd_penalize,
        ("weight", "tol", "u", "leftover", "leftover_se", "n", "seed"),
        "--tol here is the leftover-mass threshold (default 0.01)")
    q.add_argument("--weight", action="append", default=None)
    _add_common(q, seed=True, mc_opts=True)
    q.set_defaults(tol=0.01)

    q = _command(
        pzsub, "lawcheck", "weighted terminal local-time law against H",
        _cmd_penalize,
        ("ell", "weighted_cdf", "cdf_se", "target_cdf", "gap"),
        "summary metadata (weight, u, max_gap, n, seed) rides in\n"
        "CSV comments / JSON fields")
    q.add_argument("--weight", action="append", default=None)
    q.add_argument("--u", default=None,
                   help="horizon (default: adaptive via the horizon "
                        "search)")
    _add_common(q, seed=True, mc_opts=True)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
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
