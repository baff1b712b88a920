"""Compare benchmark runs of a parent checkout and a changed checkout.

    python3 tools/bench_compare.py PARENT_OUT CHANGE_OUT [--benchmark FILE]
                                   [--json PATH]

``PARENT_OUT`` and ``CHANGE_OUT`` are directories holding the
``result-<workload>-seed<N>-trace<0|1>.json`` files that ``bench/run.py``
writes (its ``bench/out``).  Runs are paired by workload and seed; a seed
present on one side only is skipped, and a workload without a single pair
gets one row flagged ``no pairs``.  For every workload and every
end-to-end metric of ``BENCHMARK.json`` (default: the one at the repository
root) one row of the untraced (``trace0``) runs gives the pair count, each
side's median with its quartiles, the ratio of the medians, and how many
pairs the change won (ties count for neither side).  The flag column reads

* ``WORSE`` when the change's median is worse than the parent's by more
  than the metric's ``bound``, as a share of the parent's median;
* ``gain`` when there are at least ``GAIN_MIN_PAIRS`` (10) pairs, the
  change won at least nine tenths of them and its median leads the
  parent's by more than the parent's interquartile range.  Fewer pairs
  never read as a gain: three pairs all won happen one time in eight by
  chance alone.

Two last columns give the failed calls per pass on each side (a run's
``failed`` over its ``counters.passes``, averaged over the pairs) and each
side's median ``counters.passes``: a faster run fits more passes into the
same time, and keeps more records.

A second table, from the same untraced pairs, gives each call's
``seconds_by_call`` entry over its run's passes, in milliseconds per pass:
each side's median and quartiles, the ratio, the pairs the change won, and
``WORSE`` at 10% of the parent's median.  A call missing from any run of a
workload is skipped.  It locates the call behind a moved ``op_p50_ms``.

When both sides have traced (``trace1``) runs, a third table does the
same for every per-layer metric of ``BENCHMARK.json``, over all traced
pairs at once (each traced run measures every layer, whatever its
workload).  A per-call or per-layer value has no bound in
``BENCHMARK.json``, so neither table gates.  The exit code is 1 when an
end-to-end row reads ``WORSE`` or the change fails more calls per pass,
else 0.  With ``--json PATH`` every compared row of the three
tables is also written to ``PATH``, with the seeds of its pairs (``[workload,
seed]`` pairs in the per-layer table, which pools workloads), with
``os.cpu_count()`` and with each side's commit: ``git rev-parse HEAD`` of
the checkout that holds its results directory.  A results directory outside
a git checkout has no commit to record, so ``--json`` then exits 2 before
comparing anything and names that side.  So a change can keep its pairs,
and where they came from, next to the code (``BENCH_<n>.json``).  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

RESULT = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)"
                    r"-trace(?P<trace>[01])\.json")
ROOT = Path(__file__).resolve().parent.parent
LAYER_BOUND = 0.10
GAIN_MIN_PAIRS = 10


def load_runs(directory: Path, trace: int = 0) -> dict:
    """``{(workload, seed): result document}`` of one side's untraced
    (``trace=0``) or traced (``trace=1``) runs; a document without metrics
    is left out."""
    runs = {}
    for path in Path(directory).iterdir():
        match = RESULT.fullmatch(path.name)
        if match and int(match["trace"]) == trace:
            doc = json.loads(path.read_text(encoding="utf-8"))
            if doc.get("metrics"):
                runs[(match["workload"], int(match["seed"]))] = doc
    return runs


def checkout_commit(directory: Path) -> Optional[str]:
    """``HEAD`` of the git checkout holding ``directory``, or None when
    there is none (or no ``git``)."""
    try:
        done = subprocess.run(["git", "-C", str(directory), "rev-parse",
                               "HEAD"], capture_output=True, text=True,
                              check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare_metric(pairs: list, better: str, bound: float) -> dict:
    """Summary of one metric over ``[(parent, change), ...]`` values."""
    sign = 1.0 if better == "higher" else -1.0
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    won = sum(sign * (c - p) > 0 for p, c in pairs)
    lead = sign * (change[1] - parent[1])
    flag = ""
    if lead < -bound * abs(parent[1]):
        flag = "WORSE"
    elif (len(pairs) >= GAIN_MIN_PAIRS and won >= 0.9 * len(pairs)
          and lead > parent[2] - parent[0]):
        flag = "gain"
    return {"parent": parent, "change": change, "won": won,
            "pairs": len(pairs), "flag": flag}


def failures_per_pass(doc: dict) -> float:
    return doc["failed"] / doc["counters"]["passes"]


def ms_per_pass(doc: dict, call: str) -> float:
    return 1e3 * doc["seconds_by_call"][call] / doc["counters"]["passes"]


def _cell(q: tuple) -> str:
    q1, med, q3 = q
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def _summary(row: dict) -> str:
    """The median, ratio, won and flag cells of a compared metric."""
    ratio = (row["change"][1] / row["parent"][1]
             if row["parent"][1] else float("nan"))
    return (f"{_cell(row['parent'])} | {_cell(row['change'])} "
            f"| {ratio:.3f} | {row['won']}/{row['pairs']} | {row['flag']}")


def _record(row: dict, **keys) -> dict:
    """A compared row as a JSON document: ``keys``, the pairs, each side's
    quartiles, the pairs won and the flag."""
    sides = {side: dict(zip(("q1", "median", "q3"), row[side]))
             for side in ("parent", "change")}
    return {**keys, "pairs": row["pairs"], **sides, "won": row["won"],
            "flag": row["flag"]}


def report(parent_runs: dict, change_runs: dict, metrics: list,
           rows: Optional[list] = None) -> bool:
    """Print the table; True when nothing is flagged worse.  Each row is
    also appended to ``rows``, if given, as a JSON document."""
    rows = [] if rows is None else rows
    ok = True
    print("| workload | metric | pairs | parent median [q1, q3] "
          "| change median [q1, q3] | change/parent | change won | flag "
          "| failures per pass parent/change | passes per run parent/change "
          "|")
    print("|---|---|---|---|---|---|---|---|---|---|")
    workloads = sorted({w for w, _ in parent_runs}
                       | {w for w, _ in change_runs})
    for workload in workloads:
        seeds = sorted(s for w, s in parent_runs
                       if w == workload and (w, s) in change_runs)
        if not seeds:
            print(f"| {workload} | - | 0 | | | | | no pairs | | |")
            rows.append({"table": "end_to_end", "workload": workload,
                         "metric": None, "pairs": 0, "flag": "no pairs"})
            continue
        docs = [(parent_runs[(workload, s)], change_runs[(workload, s)])
                for s in seeds]
        fails = [sum(map(failures_per_pass, side)) / len(docs)
                 for side in zip(*docs)]
        passes = [statistics.median(d["counters"]["passes"] for d in side)
                  for side in zip(*docs)]
        if fails[1] > fails[0]:
            ok = False
        for metric in metrics:
            name = metric["name"]
            pairs = [(p["metrics"][name]["value"],
                      c["metrics"][name]["value"]) for p, c in docs]
            row = compare_metric(pairs, metric["better"], metric["bound"])
            ok = ok and row["flag"] != "WORSE"
            print(f"| {workload} | {name} | {row['pairs']} | {_summary(row)} "
                  f"| {fails[0]:.3g}/{fails[1]:.3g} "
                  f"| {passes[0]:.4g}/{passes[1]:.4g} |")
            rows.append(_record(
                row, table="end_to_end", workload=workload, metric=name,
                seeds=seeds,
                failures_per_pass={"parent": fails[0],
                                   "change": fails[1]},
                passes_per_run={"parent": passes[0], "change": passes[1]}))
    return ok


def report_calls(parent_runs: dict, change_runs: dict,
                 rows: Optional[list] = None) -> None:
    """Print the per-call table over the untraced pairs, if there is one:
    milliseconds per pass of each ``seconds_by_call`` entry that every run
    of the workload has.  Each row is also appended to ``rows``, if
    given."""
    rows = [] if rows is None else rows
    keys = sorted(set(parent_runs) & set(change_runs))
    if not keys:
        return
    print()
    print("| workload | call | pairs | parent ms/pass [q1, q3] "
          "| change ms/pass [q1, q3] | change/parent | change won "
          f"| flag (worse at {LAYER_BOUND:.0%}) |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        docs = [(parent_runs[(workload, s)], change_runs[(workload, s)])
                for s in seeds]
        calls = set.intersection(*(set(d["seconds_by_call"])
                                   for pair in docs for d in pair))
        for call in sorted(calls):
            pairs = [(ms_per_pass(p, call), ms_per_pass(c, call))
                     for p, c in docs]
            row = compare_metric(pairs, "lower", LAYER_BOUND)
            print(f"| {workload} | {call} | {row['pairs']} "
                  f"| {_summary(row)} |")
            rows.append(_record(row, table="per_call", workload=workload,
                                metric=call, seeds=seeds))


def report_layers(parent_runs: dict, change_runs: dict, metrics: list,
                  rows: Optional[list] = None) -> None:
    """Print the per-layer table over every traced pair, if there is one;
    a metric that either side lacks is skipped.  Each row is also appended
    to ``rows``, if given."""
    rows = [] if rows is None else rows
    keys = sorted(set(parent_runs) & set(change_runs))
    if not keys:
        return
    print()
    print("| per-layer metric | pairs | parent median [q1, q3] "
          "| change median [q1, q3] | change/parent | change won "
          f"| flag (worse at {LAYER_BOUND:.0%}) |")
    print("|---|---|---|---|---|---|---|")
    for metric in metrics:
        name = metric["name"]
        both = [k for k in keys if name in parent_runs[k]["metrics"]
                and name in change_runs[k]["metrics"]]
        pairs = [(parent_runs[k]["metrics"][name]["value"],
                  change_runs[k]["metrics"][name]["value"]) for k in both]
        if pairs:
            row = compare_metric(pairs, metric["better"], LAYER_BOUND)
            print(f"| {name} | {row['pairs']} | {_summary(row)} |")
            rows.append(_record(row, table="per_layer", workload=None,
                                metric=name, seeds=[list(k) for k in both]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Pair parent and change benchmark results by workload "
                    "and seed, and compare their end-to-end and per-layer "
                    "metrics.")
    parser.add_argument("parent", type=Path, help="parent's bench/out")
    parser.add_argument("change", type=Path, help="change's bench/out")
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json",
                        help="benchmark declaration with the metric bounds "
                             "(default: BENCHMARK.json at the repo root)")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write every compared row to PATH")
    args = parser.parse_args(argv)
    if args.json is not None:
        commits = {side: checkout_commit(getattr(args, side))
                   for side in ("parent", "change")}
        missing = " and ".join(side for side, commit in commits.items()
                               if commit is None)
        if missing:
            parser.error(f"--json: no git commit for the {missing} results "
                         "directory: it is outside a git checkout")
    metrics = json.loads(args.benchmark.read_text(encoding="utf-8"))
    rows = []
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    ok = report(parent_runs, change_runs, metrics["end_to_end"], rows)
    report_calls(parent_runs, change_runs, rows)
    report_layers(load_runs(args.parent, trace=1),
                  load_runs(args.change, trace=1),
                  metrics.get("per_layer", []), rows)
    if args.json is not None:
        doc = {"cpu_count": os.cpu_count(),
               "commit": commits, "rows": rows}
        args.json.write_text(json.dumps(doc, indent=1) + "\n",
                             encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
