"""levykit benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload paths --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all      # every workload, one table

Run from the repository root; levykit is imported from ``src/``.  One
process is a closed loop with a single caller that issues public calls
back to back.  ``LEVYKIT_THREADS`` is removed from the environment so the
library's own defaults are what gets measured.

``--trace 0`` measures whole passes of the workload for about
``--seconds`` seconds and prints the end-to-end metrics.  ``--trace 1``
records a span around every call instead -- one pass of every workload,
since each workload's layer metrics are read off its own pass -- and
prints the per-layer metrics, with the tracing overhead measured on the
named workload.  Every call's result is checked against a closed form;
the last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Details of each run (counters, failures, spans) go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("paths", "exact", "spectral", "custom")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

# the end-to-end work rate under the name each workload gives its work
WORK_NAMES = {"paths": "path_steps_per_s", "exact": "samples_per_s",
              "spectral": "evals_per_s", "custom": "evals_per_s"}

# Times are reported in reference seconds: raw seconds scaled by the
# reference loop's time on a quiet machine over its mean time sampled in
# the same run.  On a shared virtual machine the speed of the whole
# machine drifts by 10-25% within tens of seconds; a reference loop that
# runs no levykit code but the same kind of work drifts with it, and the
# ratio does not.
REF_SHARE = 0.1         # reference-loop seconds per second of call time
SETUP_REF_SAMPLES = 3   # reference samples before each set-up probe


# ---------------------------------------------------------------------------
# running calls
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Record:
    """One executed call.  ``verdict`` is None for a known-defect call
    that raised as recorded.  The call itself, with its closures, is not
    kept, so the harness's own memory barely grows with the pass count."""

    name: str
    seconds: float
    cpu_seconds: float
    verdict: object
    work: int
    chunks: int
    eigen: tuple
    info: dict

    @property
    def counted(self) -> bool:
        return self.verdict is not None


def numeric_loop() -> float:
    """Seconds of a fixed mix of vectorised special functions and
    interpreted arithmetic, the two kinds of work quadrature-driven and
    short Monte Carlo calls do."""
    import numpy as np
    from scipy.special import jv
    x = np.linspace(0.0, 10.0, 4000)
    t0 = time.perf_counter()
    for _ in range(4):
        jv(0.3, x)
    acc = 0.0
    for i in range(15_000):
        acc += math.sin(i)
    return time.perf_counter() - t0


def stepper_loop() -> float:
    """Seconds of ten grid steps over 25k states, made the way a
    reflected-Brownian and a squared-Bessel grid step are made."""
    import numpy as np
    rng = np.random.default_rng(0)
    x, occ = np.zeros(25_000), np.zeros(25_000)
    t0 = time.perf_counter()
    for _ in range(8):
        occ += x < 0.03
        x = np.abs(x + 0.03 * rng.standard_normal(x.size))
    for _ in range(2):
        x = np.sqrt(rng.noncentral_chisquare(1.5, x * x / 1e-3,
                                             size=x.size) * 1e-3)
    return time.perf_counter() - t0


# workload -> (reference loop, its seconds on a quiet 2-vCPU machine)
REFERENCES = {"paths": (stepper_loop, 0.007), "exact": (numeric_loop, 0.010),
              "spectral": (numeric_loop, 0.010),
              "custom": (numeric_loop, 0.010)}


class Speedometer:
    """Samples a workload's reference loop right after its calls,
    spending ``REF_SHARE`` of their time on it, so the samples weight the
    machine's speed by call time."""

    def __init__(self, workload):
        self.loop, self.nominal = REFERENCES[workload]
        self.samples = []
        self._owed = 0.0

    def after(self, seconds):
        self._owed += REF_SHARE * seconds
        while self._owed > 0.0:
            self.sample()
            self._owed -= self.samples[-1]

    def sample(self):
        self.samples.append(self.loop())

    def factor(self) -> float:
        """Reference seconds per raw second."""
        return self.nominal / statistics.fmean(self.samples)

    def rescale(self, records):
        f = self.factor()
        for r in records:
            r.seconds *= f
            r.cpu_seconds *= f


def run_pass(calls, speed, spans=None, parent=None):
    """Run ``calls`` in order, timing each and checking its result outside
    the timed region, and sampling ``speed`` after it.  With ``spans``,
    append one span per call."""
    from oracles import Verdict
    records = []
    for call in calls:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result, error = call.fn(), None
        except Exception as exc:  # a raising call is an outcome to record
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        if spans is not None:
            spans.append({"id": len(spans), "parent": parent,
                          "name": call.name, "start": t0, "end": t1})
        if error is None:
            try:
                verdict = call.check(result)
            except Exception as exc:  # a malformed result fails its check
                verdict = Verdict(False, f"check raised {exc!r}")
        else:
            verdict = None if call.known_defect else Verdict(False, error)
        records.append(Record(call.name, t1 - t0, c1 - c0, verdict,
                              call.work, call.chunks, call.eigen, call.info))
        speed.after(t1 - t0)
    return records


def pass_rng(seed, index):
    import numpy as np
    return np.random.default_rng([seed, index])


def measure(calls_of, ctx, seed, seconds, speed):
    """Whole passes for about ``seconds``: at least one, and another only
    while it is expected to end within the budget."""
    passes, elapsed = [], 0.0
    start = time.perf_counter()
    while not passes or elapsed + elapsed / len(passes) <= seconds:
        passes.append(run_pass(calls_of(ctx, pass_rng(seed, len(passes))),
                               speed))
        elapsed = time.perf_counter() - start
    return passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail_latency(seconds) -> float:
    """The highest order statistic with at least ten calls beyond it; with
    fewer than 21 calls that rank falls below the median, so the slowest
    call stands in."""
    lat = sorted(seconds)
    return lat[len(lat) - 11] if len(lat) >= 21 else lat[-1]


def end_to_end(passes):
    """Work rate and median latency over every counted call of the run;
    the tail latency per pass, as the median over passes."""
    counted = [[r for r in p if r.counted] for p in passes]
    lat = [r.seconds for p in counted for r in p]
    work = sum(r.work for p in counted for r in p if r.verdict.ok)
    return {"work_per_s": work / sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_tail_ms": 1e3 * statistics.median(
                tail_latency(r.seconds for r in p) for p in counted),
            "op_count": len(lat)}


def eigen_reuse_share(records):
    """Share of the (spec, x, kind) keys of eigenfunction evaluations that
    occurred earlier in the same pass: what a cache keyed on them could
    serve.  It does not depend on the order of the calls."""
    keys = [k for r in records for ks in r.eigen for k in ks]
    return 1.0 - len(set(keys)) / len(keys) if keys else 0.0


def counters(passes):
    """Per-pass counts that repeat exactly for a given seed."""
    first = passes[0]
    return {
        "passes": len(passes),
        "calls_per_pass": len(first),
        "chunks_per_pass": sum(r.chunks for r in first),
        "eigen_reuse_share": eigen_reuse_share(first),
        "err_bracket_misses_per_pass": sum(
            bool(r.verdict and r.verdict.bracket_miss) for r in first),
        "known_defect_failures_per_pass": sum(
            not r.counted for r in first),
        "cli_stdout_bytes_per_pass": sum(
            r.info.get("stdout_bytes", 0) for r in first
            if r.info.get("variant") == 0),
    }


def _select(records, name):
    return [r for r in records
            if r.name == name or r.name.startswith(name + ".")]


def _median_ms(name):
    return lambda recs: 1e3 * statistics.median(
        r.seconds for r in _select(recs, name))


def _total_s(name):
    return lambda recs: sum(r.seconds for r in _select(recs, name))


def _rate(name):
    def rate(recs):
        sel = _select(recs, name)
        return sum(r.work for r in sel) / sum(r.seconds for r in sel)
    return rate


def _grid_step_ms(name):
    """Stepping time per grid step per 25k paths, taking the whole
    ``doob_meyer_check`` call as stepping (it is over 95% of it)."""
    def step(recs):
        from workloads import PATHS
        (r,) = _select(recs, name)
        return 1e3 * r.seconds / r.info["steps"] / (PATHS / 25_000)
    return step


def _cpu_per_wall(recs):
    return sum(r.cpu_seconds for r in recs) / sum(r.seconds for r in recs)


SPECTRAL_FNS = ("transition_density", "killed_density", "hitting_density",
                "hitting_tail", "levy_density", "levy_tail")
CLI_COMMANDS = ("mc-localtime-tail", "mc-hitting-tail", "mc-exponent",
                "mc-tau", "penalize-horizon", "penalize-lawcheck", "tails",
                "subexp-check")

# name -> (unit, workload whose traced pass it is read from, reader);
# readers get that pass's records, or the run's extras for workload None
PER_LAYER = {
    "montecarlo.grid_step_ms_per_25k.brownian": (
        "ms", "paths", _grid_step_ms("montecarlo.doob_meyer_check.brownian")),
    "montecarlo.grid_step_ms_per_25k.bessel": (
        "ms", "paths", _grid_step_ms("montecarlo.doob_meyer_check.bessel")),
    "montecarlo.doob_meyer_check.s": (
        "s", "paths", _total_s("montecarlo.doob_meyer_check")),
    "montecarlo.occupation_bias.ms": (
        "ms", "exact", _median_ms("montecarlo.occupation_bias")),
    "montecarlo.cpu_per_wall": ("ratio", "paths", _cpu_per_wall),
    "montecarlo.speedup_2_threads": (
        "ratio", None, lambda extras: extras["speedup_2_threads"]),
    "montecarlo.chunks.paths": (
        "count", "paths", lambda recs: sum(r.chunks for r in recs)),
    "penalization.martingale_property_mc.s": (
        "s", "paths", _total_s("penalization.martingale_property_mc")),
    **{f"montecarlo.{est}.samples_per_s": ("1/s", "exact",
                                           _rate(f"montecarlo.{est}"))
       for est in ("estimate_localtime_tail", "estimate_hitting_tail",
                   "levy_exponent_mc", "sample_tau")},
    "montecarlo.chunks.exact": (
        "count", "exact", lambda recs: sum(r.chunks for r in recs)),
    **{f"penalization.{fn}.ms": ("ms", "exact",
                                 _median_ms(f"penalization.{fn}"))
       for fn in ("linfty_law_check", "penalization_horizon",
                  "penalized_expectation", "post_lastzero_marginal_check")},
    "diffusions.levy_exponent.ms": (
        "ms", "exact", _median_ms("diffusions.levy_exponent")),
    **{f"cli.{cmd}.ms": ("ms", "exact", _median_ms(f"cli.{cmd}"))
       for cmd in CLI_COMMANDS},
    "cli.stdout_bytes": (
        "count", "exact",
        lambda recs: counters([recs])["cli_stdout_bytes_per_pass"]),
    **{f"spectral.{route}.{fn}.ms": ("ms", "spectral",
                                     _median_ms(f"spectral.{route}.{fn}"))
       for route in ("preset_route", "generic_route")
       for fn in SPECTRAL_FNS},
    "spectral.table_measure.ms": (
        "ms", "spectral", _median_ms("spectral.table_measure")),
    "spectral.eigen_reuse_share.spectral": (
        "share", "spectral", eigen_reuse_share),
    "spectral.err_bracket_misses.spectral": (
        "count", "spectral",
        lambda recs: counters([recs])["err_bracket_misses_per_pass"]),
    **{f"subexp.{fn}.ms": ("ms", "spectral", _median_ms(f"subexp.{fn}"))
       for fn in ("conv_tail", "subexp_ratio", "mixed_ratio",
                  "tauberian_ratio", "hitting_tail_distribution.preset")},
    "penalization.uparrow_mass.ms": (
        "ms", "spectral", _median_ms("penalization.uparrow_mass")),
    "spectral.eigen_coefficients.ms": (
        "ms", "custom", _median_ms("spectral.eigen_coefficients")),
    **{f"spectral.custom.{fn}.ms": ("ms", "custom",
                                    _median_ms(f"spectral.custom.{fn}"))
       for fn in ("hitting_tail", "hitting_density", "transition_density",
                  "table_measure.hitting_tail")},
    **{f"spectral.known_defect_failures.{w}": (
        "count", w,
        lambda recs: counters([recs])["known_defect_failures_per_pass"])
       for w in ("spectral", "custom")},
    "spectral.eigen_reuse_share.custom": (
        "share", "custom", eigen_reuse_share),
    "spectral.err_bracket_misses.custom": (
        "count", "custom",
        lambda recs: counters([recs])["err_bracket_misses_per_pass"]),
    "subexp.hitting_tail_distribution.custom.ms": (
        "ms", "custom", _median_ms("subexp.hitting_tail_distribution.custom")),
    "diffusions.spec_from_expressions.ms": (
        "ms", None, lambda extras: extras["spec_from_expressions_ms"]),
    "exprlang.compile_expression.ms": (
        "ms", None, lambda extras: extras["compile_expression_ms"]),
    "trace_overhead_pct": (
        "%", None, lambda extras: extras["trace_overhead_pct"]),
    "bench.ref_loop_ms": (
        "ms", None, lambda extras: extras["ref_loop_ms"]),
}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def setup_seconds(workload):
    """Median set-up time over fresh interpreters: ``import levykit`` plus
    building the workload's specs, measures, weights and tails, in
    reference seconds."""
    times, speed = [], Speedometer(workload)
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_REF_SAMPLES):
            speed.sample()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, env=os.environ.copy(), capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times) * speed.factor()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _failures(records):
    return [{"call": r.name, "detail": r.verdict.detail}
            for r in records if r.counted and not r.verdict.ok]


def _result_line(records, metrics):
    counted = [r for r in records if r.counted]
    failed = sum(not r.verdict.ok for r in counted)
    return {"correct": failed == 0, "attempted": len(counted),
            "failed": failed, "metrics": metrics}


def _write(name, doc):
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, default=float)


def untraced_run(workload, seed, seconds):
    from workloads import WORKLOADS
    build, calls_of = WORKLOADS[workload]
    ctx = build()
    speed = Speedometer(workload)
    passes = measure(calls_of, ctx, seed, seconds, speed)
    records = [r for p in passes for r in p]
    speed.rescale(records)
    e2e = end_to_end(passes)
    rss = peak_rss_mb()
    setup = setup_seconds(workload)
    metrics = {"work_per_s": (e2e["work_per_s"], "1/s"),
               "op_p50_ms": (e2e["op_p50_ms"], "ms"),
               "op_tail_ms": (e2e["op_tail_ms"], "ms"),
               "setup_s": (setup, "s"),
               "peak_rss_mb": (rss, "MB")}
    extra = counters(passes)
    extra["ref_loop_ms"] = 1e3 * statistics.fmean(speed.samples)
    extra["op_count"] = e2e["op_count"]
    extra[WORK_NAMES[workload]] = e2e["work_per_s"]
    if workload == "paths":
        for key in ("brownian", "bessel"):
            name = f"montecarlo.doob_meyer_check.{key}"
            extra[f"grid_step_ms_per_25k.{key}"] = statistics.median(
                _grid_step_ms(name)(p) for p in passes)
    return records, metrics, extra


def traced_run(workload, seed):
    from workloads import WORKLOADS, expression_setup_ms, thread_calls
    ctxs = {w: WORKLOADS[w][0]() for w in WORKLOAD_NAMES}
    speed = Speedometer(workload)
    untraced = run_pass(WORKLOADS[workload][1](ctxs[workload],
                                               pass_rng(seed, 0)), speed)
    speed.rescale(untraced)
    passes = {w: (lambda w=w: WORKLOADS[w][1](ctxs[w], pass_rng(seed, 0)))
              for w in (workload,) + WORKLOAD_NAMES}
    passes["threads"] = lambda: thread_calls(ctxs["paths"], seed)
    spans, traced = [], {}
    for w, calls_of in passes.items():
        pass_speed = Speedometer("paths" if w == "threads" else w)
        parent = len(spans)
        spans.append({"id": parent, "parent": None, "name": f"pass.{w}",
                      "start": time.perf_counter(), "end": None})
        traced[w] = run_pass(calls_of(), pass_speed, spans, parent)
        spans[parent]["end"] = time.perf_counter()
        pass_speed.rescale(traced[w])
        spans[parent]["reference_seconds_per_second"] = pass_speed.factor()
    records = untraced + [r for recs in traced.values() for r in recs]
    one, two = traced["threads"]
    wall_untraced = sum(r.seconds for r in untraced)
    wall_traced = sum(r.seconds for r in traced[workload])
    compile_ms, spec_ms = expression_setup_ms()
    extras = {"speedup_2_threads": one.seconds / two.seconds,
              "trace_overhead_pct":
                  100.0 * (wall_traced - wall_untraced) / wall_untraced,
              "compile_expression_ms": compile_ms * speed.factor(),
              "spec_from_expressions_ms": spec_ms * speed.factor(),
              "ref_loop_ms": 1e3 * statistics.fmean(speed.samples)}
    metrics = {}
    for name, (unit, source, reader) in PER_LAYER.items():
        metrics[name] = (reader(extras if source is None
                                else traced[source]), unit)
    _write(f"trace-{workload}-seed{seed}.json", {"spans": spans})
    return records, metrics, {"passes_traced": list(traced)}


def run_one(args):
    if args.trace:
        records, metrics, extra = traced_run(args.workload, args.seed)
    else:
        records, metrics, extra = untraced_run(args.workload, args.seed,
                                               args.seconds)
    line = _result_line(records, {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()})
    failures = _failures(records)
    seconds_by_call = {}
    for r in records:
        seconds_by_call[r.name] = seconds_by_call.get(r.name, 0.0) \
            + r.seconds
    _write(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
           {**line, "counters": extra, "failures": failures,
            "seconds_by_call": seconds_by_call})
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{line['attempted']} calls checked, {line['failed']} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    for name, value in extra.items():
        print(f"  [{name}] {value}")
    for f in failures[:20]:
        print(f"  FAILED {f['call']}: {f['detail']}", file=sys.stderr)
    for name in metrics:
        if not math.isfinite(metrics[name][0]):
            print(f"metric {name} is not finite", file=sys.stderr)
            return 1
    if not _matches_manifest(metrics, args.trace):
        return 1
    print(json.dumps(line))
    return 0


def _matches_manifest(metrics, trace):
    """The metrics must be exactly those BENCHMARK.json lists, with its
    units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    listed = {m["name"]: m["unit"]
              for m in manifest["per_layer" if trace else "end_to_end"]}
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if listed != produced:
        print(f"metrics differ from BENCHMARK.json: "
              f"{sorted(set(listed.items()) ^ set(produced.items()))}",
              file=sys.stderr)
        return False
    return True


def run_all(args):
    """Each workload in its own interpreter; one table of every metric."""
    status, table = 0, []
    for w in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{w}: exit code {proc.returncode}")
            status = 1
            continue
        line = json.loads(proc.stdout.splitlines()[-1])
        status |= not line["correct"]
        table.append((w, line))
    for w, line in table:
        print(f"{w}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']}")
        for name, m in line["metrics"].items():
            print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "levykit" / "__init__.py").is_file():
        print(f"levykit sources not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    os.environ.pop("LEVYKIT_THREADS", None)
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
