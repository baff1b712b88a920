import hashlib
import itertools
import json
import subprocess
import sys

import pytest

from levykit import spectral as sp
from levykit import subexp as sx
from levykit.cli import main
from levykit.diffusions import bessel_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# documented examples
# ---------------------------------------------------------------------------

def test_tails_example(capsys):
    code, out, _ = run_cli(capsys, "tails", "--spec", "bessel:1.0",
                           "--t", "1")
    assert code == 0
    assert out.startswith("# levykit v")
    header, rows = parse_csv(out)
    assert header == ["t", "x", "nu_dot", "nu_dot_err", "nu_bar",
                      "nu_bar_err", "hit_tail", "hit_tail_err"]
    assert rows[0]["nu_dot"].startswith("0.398942")
    assert rows[0]["hit_tail"] == ""


def test_eigen_example(capsys):
    code, out, _ = run_cli(capsys, "eigen", "--spec", "bessel:1.0",
                           "--x", "1", "--gamma", "0")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0]["A"]) == 1.0
    assert float(rows[0]["C"]) == 1.0


def test_localtime_tail_example(capsys):
    code, out, _ = run_cli(capsys, "mc", "localtime-tail", "--spec",
                           "bessel:1.0", "--x", "0", "--ell", "1",
                           "--t", "10000", "--n", "100000")
    assert code == 0
    _, rows = parse_csv(out)
    assert abs(float(rows[0]["ratio"]) - 1.0) < 0.1
    assert float(rows[0]["std_error"]) > 0


# ---------------------------------------------------------------------------
# outputs and formats
# ---------------------------------------------------------------------------

def test_density_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "density", "--spec", "bessel:1.5",
                           "--t", "1", "--x", "0.5", "--y", "0.7",
                           "--killed")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "x", "y", "kind", "value", "abs_err"]
    assert rows[0]["kind"] == "phat"
    assert float(rows[0]["abs_err"]) < 1e-9


def test_density_cartesian_grid(capsys):
    code, out, _ = run_cli(capsys, "density", "--spec", "brownian",
                           "--t", "0.5,1", "--x", "0.3,0.7", "--y", "1")
    _, rows = parse_csv(out)
    assert code == 0 and len(rows) == 4


def test_json_mirrors_columns(capsys):
    code, out, _ = run_cli(capsys, "subexp-check", "--tail", "pareto:0.5",
                           "--x", "10000", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "subexp-check"
    assert set(doc["rows"][0]) == set(doc["columns"])
    assert abs(doc["rows"][0]["ratio"] - 1.9998999974998815) < 1e-12


def test_mc_output_reproducible(tmp_path, capsys):
    args = ["mc", "exponent", "--spec", "bessel:1.5", "--lam", "0.5,2",
            "--n", "20000"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    f3 = tmp_path / "c.csv"
    assert main(args + ["--out", str(f3), "--threads", "3"]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f3.read_bytes()


def test_seed_changes_output(capsys):
    _, out1, _ = run_cli(capsys, "mc", "tau", "--ell", "1", "--n", "5000",
                         "--seed", "1")
    _, out2, _ = run_cli(capsys, "mc", "tau", "--ell", "1", "--n", "5000",
                         "--seed", "2")
    assert out1 != out2


def test_penalize_lawcheck_meta(capsys):
    code, out, _ = run_cli(capsys, "penalize", "lawcheck", "--spec",
                           "brownian", "--n", "20000", "--u", "2048",
                           "--seed", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["u"] == 2048.0
    assert doc["max_gap"] < 0.1
    assert doc["columns"] == ["ell", "weighted_cdf", "cdf_se",
                              "target_cdf", "gap"]


@pytest.mark.parametrize("command", ["horizon", "lawcheck"])
def test_one_weight_commands_refuse_a_second_weight(capsys, command):
    # the second --weight was silently dropped
    code, out, err = run_cli(capsys, "penalize", command, "--weight",
                             "indicator:1", "--weight", "triangular:2",
                             "--n", "2000")
    assert code == 2 and out == ""
    assert f"penalize {command} takes one --weight" in err


def test_penalize_martingale_weights(capsys):
    code, out, _ = run_cli(capsys, "penalize", "martingale", "--spec",
                           "brownian", "--weight", "indicator:1",
                           "--weight", "triangular:2", "--u", "0.5",
                           "--n", "20000", "--dt", "1e-3")
    assert code == 0
    _, rows = parse_csv(out)
    assert [r["weight"] for r in rows] == ["indicator(1)", "triangular(2)"]
    for r in rows:
        assert abs(float(r["z"])) < 4.0


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_malformed_json_spec_diagnostic(capsys):
    code, _, err = run_cli(capsys, "density", "--spec",
                           '{"kind": "bessel" "delta": 1.5}',
                           "--t", "1", "--x", "0.5")
    assert code == 2
    assert "line 1" in err and "column" in err


def test_invalid_domain_exits_2(capsys):
    code, _, err = run_cli(capsys, "density", "--spec", "bessel:1.5",
                           "--t", "-1", "--x", "0.5")
    assert code == 2
    assert "invalid input" in err


def test_horizon_without_paths_exits_2(capsys):
    code, out, err = run_cli(capsys, "penalize", "horizon", "--n", "0")
    assert code == 2 and out == ""
    assert "at least one path" in err


@pytest.mark.parametrize("n", ["0", "-5"])
def test_tau_without_paths_exits_2(capsys, n):
    # --n 0 ended in an IndexError traceback with exit 1, and --n -5 in
    # numpy's bare "negative dimensions are not allowed"
    code, out, err = run_cli(capsys, "mc", "tau", "--n", n)
    assert code == 2 and out == ""
    assert "at least one path" in err


@pytest.mark.parametrize("argv", [
    ("tails", "--t", "nan"),
    ("density", "--t", "1", "--x", "inf"),
    ("eigen", "--x", "1", "--gamma", "nan"),
    ("mc", "hitting-tail", "--x", "1", "--t", "nan", "--n", "10"),
    ("subexp-check", "--tail", "pareto:nan", "--x", "10"),
    ("subexp-check", "--tail", "exp:inf", "--x", "10"),
])
def test_non_finite_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "finite" in err


def test_underflowing_hitting_draws_leave_stderr_empty(capsys):
    # alpha = 0.005: some Gamma(alpha) draws underflow to 0, so H_0 = inf,
    # and numpy's divide and overflow warnings must not reach stderr
    code, out, err = run_cli(capsys, "mc", "hitting-tail", "--x", "1",
                             "--t", "1e-3", "--spec", "bessel:1.99",
                             "--n", "100000")
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    assert rows[0]["estimate"] == "1.0"


def test_constant_division_by_zero_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "eigen", "--spec",
        '{"kind":"custom","scale":"x+1/0","speed_density":"2"}',
        "--x", "1", "--gamma", "1")
    assert code == 2 and out == ""
    assert "invalid input: constant subexpression '1 / 0'" in err


@pytest.mark.parametrize("terms", [1201, 5000])
def test_deeply_nested_expression_exits_2(capsys, terms):
    # 1,201 terms overflow the recursion of the folding walk, 5,000 that
    # of the parser itself
    scale = "+".join(["x"] * terms)
    code, out, err = run_cli(
        capsys, "eigen", "--spec",
        json.dumps({"kind": "custom", "scale": scale, "speed_density": "2"}),
        "--x", "1", "--gamma", "1")
    assert code == 2 and out == ""
    assert "invalid input: expression nested too deeply" in err


def test_tolerance_failure_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "eigen", "--spec",
        '{"kind":"custom","scale":"x^0.5/0.5","speed_density":"2*x^0.5"}',
        "--x", "1", "--gamma", "1e9", "--tol", "1e-12")
    assert code == 3
    assert "tolerance failure" in err


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_console_script_installed():
    out = subprocess.run([sys.executable, "-m", "levykit.cli",
                          "--version"], capture_output=True, text=True)
    assert out.returncode == 0
    assert "levykit" in out.stdout


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# pinned output: seeded bytes, and cells that render the library's values
# ---------------------------------------------------------------------------

# sha256 of stdout for lists of t or lam, recorded while each entry was
# still its own estimator call; one set of draws now serves every entry
LIST_STDOUT_SHA256 = {
    "mc localtime-tail --t 1,100,10000 --n 60000":
        "b2e2566bfb455b3d6233df48aa5c4fb723091a29f43289c3a279c272be3a9bc1",
    "mc hitting-tail --spec bessel:1.5 --x 1 --t 1,10,100 --n 60000":
        "ce50fee41d97ee197e60bc1ef0a5752ac5bf1c8397bb1f5d81f03883e7c01b71",
    "mc exponent --spec bessel:1.5 --lam 0,0.5,2 --n 60000":
        "b62b80ab04d26690a1fec5e370c00a3d69553236acb50fb233ddad4595bc19d5",
}

# sha256 of stdout, recorded before the command table replaced the
# per-command row building; seeded Monte Carlo bytes must not move
SEEDED_STDOUT_SHA256 = {
    # the two mc tau pins were re-pinned when Brownian draws took the
    # closed form 1 / (4 W cos^2(theta/2)): last digits of quantiles moved
    "mc tau --n 2000":
        "d57ec30b50ed9fccc84d723cf7ad1210d2bf3549519832448e2c856c4f970966",
    # re-pinned when alpha = 1/4 draws took the closed form (1 + 2C)^3 /
    # (64 (1 + C)^2 C^4 W^3): the last digits of std_error and z moved
    "mc exponent --spec bessel:1.5 --lam 0.5,2 --n 2000":
        "44dc79a7f6b69631693e506a1fc4133eee3af9f4be8bcf73a45a8ec2f74b9172",
    "mc doob-meyer --t 0.1,0.2 --n 500 --dt 0.01":
        "fa5c3c4d4b6aeea3c3cc69966b7f27d385e0c14cb86d7b1962fe6ba46b848ea8",
    "penalize martingale --weight indicator:1 --weight triangular:2 "
    "--u 0.1,0.2 --n 500 --dt 0.01":
        "35832ce4a3dbb2990d07ccd70e555cc7ce06db75705c3dae4c273fdd01c38062",
    "penalize horizon --n 2000":
        "995a4d6fee2255300a7238c65492bc3ddff3c48bbbea2937464c9f8825c24563",
    # three slices of the stable transform, so the pool runs them
    "mc tau --n 60000":
        "cfd8158fa77c7262ce2b24a520e7a542ae6270f9dbb803a061c835c63ca6e593",
    "penalize horizon --n 60000":
        "92f8f24f60cac9eb5670b9d1e0ef322b0fd0ebcc745310adaf06a64633ed00ed",
    # re-pinned when the weighted CDF left BLAS for a fixed-order running
    # sum: the last digits of its cells and of max_gap moved
    "penalize lawcheck --u 16 --n 2000":
        "918325558d76cf7df15a97ddea883a3377f5d534b8e9bc10ba65649946a43a2f",
    "penalize lawcheck --u 16 --n 2000 --format json":
        "c154db73a7e088f51e6aaec110e0fe983a2d5d6a5dee591560f2d0ae6c6c9301",
    **LIST_STDOUT_SHA256,
}


@pytest.mark.parametrize("command", sorted(SEEDED_STDOUT_SHA256))
def test_seeded_stdout_pinned(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SEEDED_STDOUT_SHA256[command]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", ["mc tau --n 60000",
                                     "penalize horizon --n 60000"])
def test_sliced_stable_draws_pinned_at_any_thread_count(capsys, command,
                                                        threads):
    code, out, _ = run_cli(capsys, *command.split(), "--threads", threads)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SEEDED_STDOUT_SHA256[command]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", sorted(LIST_STDOUT_SHA256))
def test_list_commands_pinned_at_any_thread_count(capsys, command, threads):
    code, out, _ = run_cli(capsys, *command.split(), "--threads", threads)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == LIST_STDOUT_SHA256[command]


def test_one_parser_serves_commands_back_to_back(capsys):
    # the parser is built once per process; each command, run after the
    # others and twice over, still prints its pinned bytes, so no parse
    # state (the --weight append lists, say) carries from one to the next
    from levykit.cli import build_parser
    assert build_parser() is build_parser()
    commands = sorted(SEEDED_STDOUT_SHA256)
    for command in commands + commands[::-1]:
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            SEEDED_STDOUT_SHA256[command], command


def assert_cells(out, expected_rows):
    """Every CSV cell is ``repr(float(v))`` of its value (empty for None,
    verbatim for strings)."""
    def cell(v):
        if v is None:
            return ""
        return v if isinstance(v, str) else repr(float(v))

    _, rows = parse_csv(out)
    assert [list(r.values()) for r in rows] \
        == [[cell(v) for v in row] for row in expected_rows]


B15 = bessel_spec(1.5)


def test_density_cells_are_library_values(capsys):
    _, out, _ = run_cli(capsys, "density", "--spec", "bessel:1.5", "--t",
                        "0.5,1", "--x", "0.4", "--y", "0.7,1.2", "--killed")
    assert_cells(out, [
        (t, 0.4, y, "phat") + sp.transition_density(
            B15, 0.4, y, t, killed=True, tol=1e-9, with_error=True)
        for t, y in itertools.product((0.5, 1.0), (0.7, 1.2))])
    _, out, _ = run_cli(capsys, "density", "--spec", "bessel:1.5", "--t",
                        "2", "--x", "0.3")
    assert_cells(out, [(2.0, 0.3, 0.3, "p") + sp.transition_density(
        B15, 0.3, 0.3, 2.0, tol=1e-9, with_error=True)])


def test_tails_cells_are_library_values(capsys):
    _, out, _ = run_cli(capsys, "tails", "--spec", "bessel:1.5", "--t",
                        "0.5,2", "--x", "1")
    assert_cells(out, [
        (t, 1.0) + sp.levy_density(B15, t, tol=1e-9, with_error=True)
        + sp.levy_tail(B15, t, tol=1e-9, with_error=True)
        + sp.hitting_tail(B15, 1.0, t, tol=1e-9, with_error=True)
        for t in (0.5, 2.0)])
    _, out, _ = run_cli(capsys, "tails", "--spec", "bessel:1.5", "--t", "3")
    assert_cells(out, [
        (3.0, None) + sp.levy_density(B15, 3.0, tol=1e-9, with_error=True)
        + sp.levy_tail(B15, 3.0, tol=1e-9, with_error=True) + (None, None)])


def test_eigen_cells_are_library_values(capsys):
    _, out, _ = run_cli(capsys, "eigen", "--spec", "bessel:1.5", "--x",
                        "0.5,2", "--gamma", "0,3", "--tol", "1e-10")
    assert_cells(out, [
        (x, g, sp.eigenfunction(B15, x, g, kind="A", tol=1e-10),
         sp.eigenfunction(B15, x, g, kind="C", tol=1e-10), 1e-10)
        for x, g in itertools.product((0.5, 2.0), (0.0, 3.0))])


def test_subexp_cells_are_library_values(capsys):
    _, out, _ = run_cli(capsys, "subexp-check", "--tail", "pareto:1",
                        "--tail2", "pareto:0.5:2", "--x", "10,100")
    F, G = sx.pareto_tail(1.0, 1.0), sx.pareto_tail(0.5, 2.0)
    expected = []
    for x in (10.0, 100.0):
        f, g = float(F.value(x)), float(G.value(x))
        conv, err = sx.conv_tail(F, G, x, with_error=True)
        expected.append((x, f, g, conv, err, conv / (f + g), err / (f + g)))
    assert_cells(out, expected)


@pytest.mark.parametrize("argv", [
    "mc doob-meyer --t 0.1,0.1 --n 200 --dt 0.01",
    "penalize martingale --u 0.1,0.1 --n 200 --dt 0.01"])
def test_repeated_checkpoints_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert "checkpoint times must be distinct" in err


def help_text(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command.split() + ["--help"])
    assert exc.value.code == 0
    return " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", [
    "mc hitting-tail", "mc localtime-tail", "mc exponent", "mc tau",
    "mc doob-meyer", "penalize martingale", "penalize lawcheck"])
def test_monte_carlo_commands_take_no_tol(capsys, command):
    text = help_text(capsys, command)
    assert "--tol" not in text
    assert ("--threads THREADS worker threads (default every CPU this "
            "process may run on; results do not depend on the thread "
            "count)") in text


# every seeded command, with the argv it needs; --dt only where a row
# function reads it
SEEDED_COMMANDS = {
    "mc hitting-tail": ("--x 1 --t 0.5", False),
    "mc localtime-tail": ("--t 0.5", False),
    "mc doob-meyer": ("--t 0.1", True),
    "penalize martingale": ("--u 0.1", True),
    "mc exponent": ("--lam 1", False),
    "mc tau": ("", False),
    "penalize horizon": ("", False),
    "penalize lawcheck": ("--u 16", False),
}


@pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
def test_grid_step_only_where_it_is_read(capsys, command):
    assert ("--dt DT" in help_text(capsys, command)) \
        == SEEDED_COMMANDS[command][1]


@pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
def test_every_seeded_command_takes_threads(capsys, command):
    argv = f"{command} {SEEDED_COMMANDS[command][0]} --n 200".split()
    outs = [run_cli(capsys, *argv, "--threads", n) for n in ("1", "2")]
    assert outs[0][0] == 0 and outs[0][1] and outs[0] == outs[1]


@pytest.mark.parametrize("command", sorted(
    c for c, (_, grid) in SEEDED_COMMANDS.items() if not grid))
def test_dt_is_refused_where_nothing_reads_it(capsys, command):
    argv = f"{command} {SEEDED_COMMANDS[command][0]} --dt 0.01"
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "unrecognized arguments: --dt 0.01" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mc hitting-tail", "mc localtime-tail"])
def test_how_is_refused(capsys, command):
    # both tail commands have one route, the exact one
    argv = f"{command} {SEEDED_COMMANDS[command][0]} --how exact"
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "unrecognized arguments: --how exact" in capsys.readouterr().err


def test_horizon_tol_is_the_leftover_threshold(capsys):
    text = help_text(capsys, "penalize horizon")
    assert "--tol TOL leftover-mass threshold (default 0.01)" in text


@pytest.mark.parametrize("command", ["density", "tails", "eigen"])
def test_spectral_commands_take_tol(capsys, command):
    assert "--tol TOL numerical tolerance (default 1e-9)" \
        in help_text(capsys, command)


def test_subexp_check_takes_no_tol(capsys):
    argv = ["subexp-check", "--tail", "pareto:1.5", "--x", "10,100"]
    assert "--tol" not in help_text(capsys, "subexp-check")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "1"])
    assert exc.value.code == 2
    # stdout as before the unread --tol was removed
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "654f67fab09b9aa12117760deab7715817298b8c6fc6bf37278047d36023981c"
