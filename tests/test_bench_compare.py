import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

METRICS = [{"name": "work_per_s", "better": "higher", "bound": 0.25},
           {"name": "op_p50_ms", "better": "lower", "bound": 0.25}]


def write_runs(directory, workload, rows, failed=0, passes=4,
               calls=("cli.tails",)):
    """One result file per ``(seed, work_per_s, op_p50_ms)`` row, each run
    of ``passes`` passes of 25 calls, in which each of ``calls`` takes
    ``op_p50_ms`` a pass."""
    directory.mkdir(exist_ok=True)
    for seed, rate, p50 in rows:
        doc = {"correct": failed == 0, "attempted": 25 * passes,
               "failed": failed, "counters": {"passes": passes},
               "metrics": {"work_per_s": {"value": rate, "unit": "1/s"},
                           "op_p50_ms": {"value": p50, "unit": "ms"}},
               "seconds_by_call": {c: p50 * passes / 1e3 for c in calls}}
        name = f"result-{workload}-seed{seed}-trace0.json"
        (directory / name).write_text(json.dumps(doc))
    # a traced run is not an end-to-end result and is never paired
    (directory / f"result-{workload}-seed1-trace1.json").write_text("{}")


def git_checkout(directory):
    """Make ``directory`` a git checkout with one commit; its ``HEAD``."""
    directory.mkdir(exist_ok=True)
    git = ["git", "-C", str(directory), "-c", "user.name=bench",
           "-c", "user.email=bench@example.org"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "runs"],
                   check=True)
    return subprocess.run(git + ["rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()


def table(capsys):
    return {tuple(cell.strip() for cell in line.strip("|").split("|")[:2]):
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in capsys.readouterr().out.splitlines()[2:]}


def test_gain_and_regression_flags(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # ten pairs: the change is about 2x faster in rate and 40% slower at
    # the median latency
    write_runs(parent, "custom",
               [(s, 150.0 + s, 4.0 + 0.01 * s) for s in range(10)])
    write_runs(change, "custom",
               [(s, 300.0 + s, 5.6 + 0.01 * s) for s in range(10)]
               + [(99, 1.0, 99.0)])          # seed 99 has no parent run
    assert not bench_compare.report(bench_compare.load_runs(parent),
                                    bench_compare.load_runs(change), METRICS)
    rows = table(capsys)
    rate, p50 = rows[("custom", "work_per_s")], rows[("custom", "op_p50_ms")]
    assert rate[2] == "10" and rate[6] == "10/10" and rate[7] == "gain"
    assert rate[3].startswith("154.5 [152.2, 156.8]")
    assert p50[6] == "0/10" and p50[7] == "WORSE"


@pytest.mark.parametrize("n_pairs, flag", [(9, ""), (10, "gain")])
def test_gain_needs_ten_pairs(n_pairs, flag):
    # every pair won by a wide margin: the pair count alone decides
    pairs = [(100.0 + s, 200.0 + s) for s in range(n_pairs)]
    row = bench_compare.compare_metric(pairs, "higher", 0.25)
    assert (row["won"], row["flag"]) == (n_pairs, flag)


def test_within_bound_is_not_flagged(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_runs(parent, "spectral", [(1, 100.0, 2.0), (2, 104.0, 2.1),
                                    (3, 98.0, 1.9)])
    write_runs(change, "spectral", [(1, 101.0, 2.0), (2, 90.0, 2.2),
                                    (3, 99.0, 1.8)])
    code = bench_compare.main([str(parent), str(change), "--benchmark",
                               str(write_benchmark(tmp_path))])
    rows = table(capsys)
    assert code == 0
    assert rows[("spectral", "work_per_s")][6:8] == ["2/3", ""]
    assert rows[("spectral", "op_p50_ms")][6:8] == ["1/3", ""]


def test_more_failures_fail_the_comparison(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_runs(parent, "exact", [(1, 10.0, 1.0)])
    write_runs(change, "exact", [(1, 10.0, 1.0)], failed=2)
    code = bench_compare.main([str(parent), str(change), "--benchmark",
                               str(write_benchmark(tmp_path))])
    assert code == 1
    assert table(capsys)[("exact", "work_per_s")][8] == "0/0.5"


@pytest.mark.parametrize("passes, code", [(3, 1), (4, 0), (5, 0)])
def test_failures_compare_per_pass(tmp_path, capsys, passes, code):
    # one failure in 2 passes against two in `passes`: a run that fits
    # more passes may fail more calls at the same rate per pass
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_runs(parent, "exact", [(1, 10.0, 1.0)], failed=1, passes=2)
    write_runs(change, "exact", [(1, 10.0, 1.0)], failed=2, passes=passes)
    assert bench_compare.main([str(parent), str(change), "--benchmark",
                               str(write_benchmark(tmp_path))]) == code
    assert table(capsys)[("exact", "work_per_s")][8] \
        == f"0.5/{2 / passes:.3g}"


def test_workload_without_pairs_gets_one_row(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_runs(parent, "paths", [(1, 10.0, 1.0)])
    write_runs(change, "paths", [(2, 10.0, 1.0)])     # no seed in common
    write_runs(parent, "custom", [(3, 10.0, 1.0)])
    write_runs(change, "custom", [(3, 12.0, 1.0)])
    write_runs(change, "exact", [(4, 10.0, 1.0)])     # change side only
    code = bench_compare.main([str(parent), str(change), "--benchmark",
                               str(write_benchmark(tmp_path))])
    rows = table(capsys)
    assert code == 0
    assert rows[("paths", "-")][2:3] == ["0"]
    assert rows[("paths", "-")][7] == "no pairs"
    assert rows[("exact", "-")][7] == "no pairs"
    assert rows[("custom", "work_per_s")][6] == "1/1"


def test_calls_compare_in_ms_per_pass(tmp_path, capsys):
    # the change fits twice the passes into a run: its seconds per call
    # grow, but each call's time per pass falls by 1 ms; a call that
    # the change no longer makes has no row
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_runs(parent, "exact", [(s, 10.0, 5.0 + s) for s in (1, 2, 3)],
               passes=4, calls=("sample_tau", "gone"))
    write_runs(change, "exact", [(s, 20.0, 4.0 + s) for s in (1, 2, 3)],
               passes=8, calls=("sample_tau",))
    rows = []
    code = bench_compare.main([str(parent), str(change), "--benchmark",
                               str(write_benchmark(tmp_path))])
    bench_compare.report_calls(bench_compare.load_runs(parent),
                               bench_compare.load_runs(change), rows)
    printed = table(capsys)
    assert code == 0
    assert printed[("exact", "work_per_s")][9] == "4/8"
    call = printed[("exact", "sample_tau")]
    assert call[2:7] == ["3", "7 [6.5, 7.5]", "6 [5.5, 6.5]", "0.857", "3/3"]
    assert not any(key[1:] == ("gone",) for key in printed)
    assert [(r["table"], r["metric"], r["seeds"]) for r in rows] \
        == [("per_call", "sample_tau", [1, 2, 3])]
    assert rows[0]["change"] == {"q1": 5.5, "median": 6.0, "q3": 6.5}


def write_benchmark(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": METRICS}))
    return path


def test_traced_runs_compare_per_layer_metrics(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_runs(parent, "custom", [(s, 100.0, 1.0) for s in (1, 2, 3)])
    write_runs(change, "custom", [(s, 100.0, 1.0) for s in (1, 2, 3)])
    layers = [{"name": "spectral.custom.hitting_tail.ms", "better": "lower"},
              {"name": "cli.tails.ms", "better": "lower"},
              {"name": "subexp.conv_tail.ms", "better": "lower"},
              {"name": "spectral.eigen_reuse_share.custom",
               "better": "higher"}]
    # traced runs of two workloads pool into one row per metric:
    # hitting_tail 3x faster (three pairs are too few to read as a gain),
    # tails 20% slower, conv_tail within 10%, and the share present on
    # the parent side only
    for side, scale in ((parent, 1.0), (change, 1.0 / 3.0)):
        for workload, seed in (("custom", 1), ("spectral", 1), ("custom", 2)):
            doc = {"attempted": 1, "failed": 0, "metrics": {
                "spectral.custom.hitting_tail.ms": {"value": 6.0 * scale
                                                    + seed},
                "cli.tails.ms": {"value": 10.0 if side is parent else 12.0},
                "subexp.conv_tail.ms": {"value": 2.0 + 0.1 * seed}}}
            if side is parent:
                doc["metrics"]["spectral.eigen_reuse_share.custom"] = {
                    "value": 0.5}
            name = f"result-{workload}-seed{seed}-trace1.json"
            (side / name).write_text(json.dumps(doc))
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": METRICS, "per_layer": layers}))
    code = bench_compare.main([str(parent), str(change), "--benchmark",
                               str(path)])
    rows = table(capsys)
    # per-layer rows inform; only the end-to-end rows set the exit code
    assert code == 0
    fast = rows[("spectral.custom.hitting_tail.ms", "3")]
    assert fast[5:7] == ["3/3", ""]
    assert fast[2].startswith("7 [")
    assert rows[("cli.tails.ms", "3")][4:7] == ["1.200", "0/3", "WORSE"]
    assert rows[("subexp.conv_tail.ms", "3")][6] == ""
    assert not any(key[0] == "spectral.eigen_reuse_share.custom"
                   for key in rows)


def test_json_keeps_every_compared_row(tmp_path, capsys):
    git_checkout(tmp_path)     # --json records each side's commit
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_runs(parent, "custom",
               [(s, 150.0 + s, 4.0 + 0.01 * s) for s in range(10)])
    write_runs(change, "custom",
               [(s, 300.0 + s, 5.6 + 0.01 * s) for s in range(10)], failed=1)
    write_runs(parent, "paths", [(1, 10.0, 1.0)])
    for side in (parent, change):
        (side / "result-custom-seed1-trace1.json").write_text(json.dumps(
            {"attempted": 1, "failed": 0,
             "metrics": {"cli.tails.ms": {"value": 10.0}}}))
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": METRICS, "per_layer": [
        {"name": "cli.tails.ms", "better": "lower"}]}))
    out = tmp_path / "pairs.json"
    code = bench_compare.main([str(parent), str(change), "--benchmark",
                               str(bench), "--json", str(out)])
    printed = capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert code == 1 and isinstance(doc["cpu_count"], int)
    rows = {(r["table"], r["workload"], r["metric"]): r for r in doc["rows"]}
    assert set(rows) == {("end_to_end", "custom", "work_per_s"),
                         ("end_to_end", "custom", "op_p50_ms"),
                         ("end_to_end", "paths", None),
                         ("per_call", "custom", "cli.tails"),
                         ("per_layer", None, "cli.tails.ms")}
    rate = rows[("end_to_end", "custom", "work_per_s")]
    assert (rate["pairs"], rate["won"], rate["flag"]) == (10, 10, "gain")
    assert rate["parent"] == {"q1": 152.25, "median": 154.5, "q3": 156.75}
    assert rate["failures_per_pass"] == {"parent": 0.0, "change": 0.25}
    assert rate["passes_per_run"] == {"parent": 4, "change": 4}
    assert "154.5 [152.2, 156.8]" in printed
    assert rows[("end_to_end", "custom", "op_p50_ms")]["flag"] == "WORSE"
    assert rows[("end_to_end", "paths", None)]["flag"] == "no pairs"
    layer = rows[("per_layer", None, "cli.tails.ms")]
    assert layer["pairs"] == 1 and layer["change"]["median"] == 10.0


def write_pairs(parent, change, tmp_path):
    """Runs on both sides and a benchmark file; the benchmark's path."""
    write_runs(parent, "exact", [(s, 10.0, 1.0) for s in (3, 1, 7)])
    write_runs(change, "exact", [(s, 12.0, 1.0) for s in (1, 3, 8)])
    for side in (parent, change):
        for workload, seed in (("exact", 2), ("paths", 2)):
            (side / f"result-{workload}-seed{seed}-trace1.json").write_text(
                json.dumps({"attempted": 1, "failed": 0, "metrics": {
                    "cli.tails.ms": {"value": 10.0}}}))
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": METRICS, "per_layer": [
        {"name": "cli.tails.ms", "better": "lower"}]}))
    return bench


def test_json_records_commits_and_pair_seeds(tmp_path, capsys, monkeypatch):
    # git looks for no checkout above tmp_path
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    parent, change = tmp_path / "parent" / "out", tmp_path / "change" / "out"
    heads = {"parent": git_checkout(parent.parent),
             "change": git_checkout(change.parent)}
    bench = write_pairs(parent, change, tmp_path)
    out = tmp_path / "pairs.json"
    bench_compare.main([str(parent), str(change), "--benchmark", str(bench),
                        "--json", str(out)])
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["commit"] == heads
    rows = {(r["table"], r["metric"]): r for r in doc["rows"]}
    assert rows[("end_to_end", "work_per_s")]["seeds"] == [1, 3]
    assert rows[("per_layer", "cli.tails.ms")]["seeds"] \
        == [["exact", 2], ["paths", 2]]


@pytest.mark.parametrize("in_git, missing", [
    (("parent",), "change"), (("change",), "parent"),
    ((), "parent and change")], ids=["change", "parent", "both"])
def test_json_refuses_a_side_without_a_commit(tmp_path, capsys, monkeypatch,
                                              in_git, missing):
    # a results directory outside a git checkout wrote "commit": null
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    sides = {side: tmp_path / side / "out" for side in ("parent", "change")}
    for side, directory in sides.items():
        if side in in_git:
            git_checkout(directory.parent)
        else:
            directory.parent.mkdir()
    bench = write_pairs(sides["parent"], sides["change"], tmp_path)
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit) as exc:
        bench_compare.main([str(sides["parent"]), str(sides["change"]),
                            "--benchmark", str(bench), "--json", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"no git commit for the {missing} results directory" \
        in captured.err
    assert not out.exists()
