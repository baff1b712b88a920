"""Compare benchmark runs of a parent checkout and a changed checkout.

    python3 tools/bench_compare.py PARENT_OUT CHANGE_OUT [--benchmark FILE]

``PARENT_OUT`` and ``CHANGE_OUT`` are directories holding the
``result-<workload>-seed<N>-trace0.json`` files that ``bench/run.py``
writes (its ``bench/out``).  Runs are paired by workload and seed; a seed
present on one side only is skipped, and a workload without a single pair
gets one row flagged ``no pairs``.  For every workload and every
end-to-end metric of ``BENCHMARK.json`` (default: the one at the repository
root) one row gives the pair count, each side's median with its quartiles,
the ratio of the medians, and how many pairs the change won (ties count
for neither side).  The flag column reads

* ``WORSE`` when the change's median is worse than the parent's by more
  than the metric's ``bound``, as a share of the parent's median;
* ``gain`` when the change won at least nine tenths of the pairs and its
  median leads the parent's by more than the parent's interquartile range.

A last column gives the failed share of calls on each side.  The exit code
is 1 when any row reads ``WORSE`` or the change fails a larger share of
calls, else 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

RESULT = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json")
ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict:
    """``{(workload, seed): result document}`` of one side."""
    runs = {}
    for path in Path(directory).iterdir():
        match = RESULT.fullmatch(path.name)
        if match:
            key = (match["workload"], int(match["seed"]))
            runs[key] = json.loads(path.read_text(encoding="utf-8"))
    return runs


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
    elif won >= 0.9 * len(pairs) and lead > parent[2] - parent[0]:
        flag = "gain"
    return {"parent": parent, "change": change, "won": won,
            "pairs": len(pairs), "flag": flag}


def failed_share(doc: dict) -> float:
    return doc["failed"] / doc["attempted"] if doc["attempted"] else 0.0


def _cell(q: tuple) -> str:
    q1, med, q3 = q
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def report(parent_runs: dict, change_runs: dict, metrics: list) -> bool:
    """Print the table; True when nothing is flagged worse."""
    ok = True
    print("| workload | metric | pairs | parent median [q1, q3] "
          "| change median [q1, q3] | change/parent | change won | flag "
          "| failed share parent/change |")
    print("|---|---|---|---|---|---|---|---|---|")
    workloads = sorted({w for w, _ in parent_runs}
                       | {w for w, _ in change_runs})
    for workload in workloads:
        seeds = sorted(s for w, s in parent_runs
                       if w == workload and (w, s) in change_runs)
        if not seeds:
            print(f"| {workload} | - | 0 | | | | | no pairs | |")
            continue
        docs = [(parent_runs[(workload, s)], change_runs[(workload, s)])
                for s in seeds]
        fails = [sum(map(failed_share, side)) / len(docs)
                 for side in zip(*docs)]
        if fails[1] > fails[0]:
            ok = False
        for metric in metrics:
            name = metric["name"]
            pairs = [(p["metrics"][name]["value"],
                      c["metrics"][name]["value"]) for p, c in docs]
            row = compare_metric(pairs, metric["better"], metric["bound"])
            ok = ok and row["flag"] != "WORSE"
            ratio = (row["change"][1] / row["parent"][1]
                     if row["parent"][1] else float("nan"))
            print(f"| {workload} | {name} | {row['pairs']} "
                  f"| {_cell(row['parent'])} | {_cell(row['change'])} "
                  f"| {ratio:.3f} | {row['won']}/{row['pairs']} "
                  f"| {row['flag']} | {fails[0]:.3g}/{fails[1]:.3g} |")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Pair parent and change benchmark results by workload "
                    "and seed, and compare their end-to-end metrics.")
    parser.add_argument("parent", type=Path, help="parent's bench/out")
    parser.add_argument("change", type=Path, help="change's bench/out")
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json",
                        help="benchmark declaration with the metric bounds "
                             "(default: BENCHMARK.json at the repo root)")
    args = parser.parse_args(argv)
    metrics = json.loads(args.benchmark.read_text(encoding="utf-8"))
    ok = report(load_runs(args.parent), load_runs(args.change),
                metrics["end_to_end"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
