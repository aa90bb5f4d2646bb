"""Command line behavior: output formats, exit codes, determinism."""

import importlib
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import rieszdrop
from rieszdrop.cli import main
from rieszdrop.splitting import r_cn, rho_min
from rieszdrop.thresholds import m_c1

SCHEMA = json.loads(
    resources.files("rieszdrop").joinpath("schemas/output.schema.json").read_text()
)
ALPHA0_REF = 0.04273433628264671495607
M_AT_CROSSING_REF = 2.505504704585231713676

EVAL_KEYS = ("alpha", "m_c1", "R_c1", "rho_c1", "m_2", "R_0", "eps_0", "eps_1", "m_eps0", "m_eps1")
SWEEP_HEADER = "alpha,m_c1,m_2,m_eps0,m_eps1"
ENVELOPE_HEADER = "R,rho_1,rho_2,rho_3,rho_min,n_opt"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(payload):
    jsonschema.Draft202012Validator(SCHEMA).validate(payload)


def test_eval_payload(capsys):
    code, out, err = run_cli(["eval", "--alpha", "0.02"], capsys)
    assert code == 0
    assert err == ""
    data = json.loads(out)
    assert tuple(data) == EVAL_KEYS
    validate(data)
    assert data["m_c1"] == m_c1(0.02)
    assert data["m_2"] == pytest.approx(3.141592653589793 * data["R_0"] ** 2, rel=1e-15)
    # below the crossing exponent the nonexistence mass sits lowest
    assert data["m_2"] < min(data["m_eps0"], data["m_eps1"])


def test_eval_at_ledger_endpoint(capsys):
    code, out, _ = run_cli(["eval", "--alpha", "0.034"], capsys)
    assert code == 0
    data = json.loads(out)
    assert 2.007 <= data["m_c1"] <= 2.087
    assert all(isinstance(v, float) for v in data.values())


def test_eval_rejects_bad_alpha(capsys):
    for bad in ("0.0", "0.6", "-1", "0.5000001"):
        code, out, err = run_cli(["eval", "--alpha", bad], capsys)
        assert code == 1
        assert out == ""
        assert "alpha must lie in (0, 0.5]" in err


def test_eval_out_file(tmp_path, capsys):
    target = tmp_path / "eval.json"
    code, out, _ = run_cli(["eval", "--alpha", "0.02", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert tuple(data) == EVAL_KEYS


def test_eval_out_unwritable(tmp_path, capsys):
    target = tmp_path / "missing" / "eval.json"
    code, _, err = run_cli(["eval", "--alpha", "0.02", "--out", str(target)], capsys)
    assert code == 1
    assert "rieszdrop: error:" in err


def test_sweep_csv_table(capsys):
    code, out, _ = run_cli(
        ["sweep", "--alpha-min", "0.01", "--alpha-max", "0.03", "--steps", "5"], capsys
    )
    assert code == 0
    assert "\r" not in out
    assert out.endswith("\n")
    lines = out.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 6
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][0] == "0.01"
    assert rows[-1][0] == "0.03"
    for row in rows:
        vals = [float(x) for x in row]
        assert vals[2] > vals[1]  # m_2 above m_c1 everywhere


def test_sweep_two_steps_is_endpoints_only(capsys):
    code, out, _ = run_cli(
        ["sweep", "--alpha-min", "0.01", "--alpha-max", "0.03", "--steps", "2"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0.01"
    assert lines[2].split(",")[0] == "0.03"


def test_sweep_json_rows(capsys):
    code, out, _ = run_cli(
        ["sweep", "--alpha-min", "0.01", "--alpha-max", "0.02", "--steps", "3",
         "--format", "json"], capsys
    )
    assert code == 0
    rows = json.loads(out)
    validate(rows)
    assert len(rows) == 3
    for row in rows:
        assert tuple(row) == ("alpha", "m_c1", "m_2", "m_eps0", "m_eps1")
    assert rows[0]["m_c1"] == m_c1(0.01)


def test_sweep_partial_failure_exit(capsys):
    # alpha = 0 has a closed-form m_c1 but no solver thresholds; stderr
    # names the row's alpha and the stage that failed
    code, out, err = run_cli(
        ["sweep", "--alpha-min", "0", "--alpha-max", "0.01", "--steps", "2"], capsys
    )
    assert code == 3
    assert err == (
        "rieszdrop: sweep: row alpha = 0.0 unsolved: sweep: alpha must lie in (0, 1), got 0.0\n"
    )
    first = out.splitlines()[1].split(",")
    assert first[0] == "0"
    assert first[2] == first[3] == first[4] == "nan"
    code, out, _ = run_cli(
        ["sweep", "--alpha-min", "0", "--alpha-max", "0.01", "--steps", "2",
         "--format", "json"], capsys
    )
    assert code == 3
    rows = json.loads(out)
    validate(rows)
    assert rows[0]["m_2"] is None
    assert rows[1]["m_2"] is not None


def test_sweep_grid_stops_at_half(capsys):
    # 0.0001 + (0.5 - 0.0001) * 10 / 10 is 0.5000000000000001, which the
    # m_2 solve rejects: a grid point past 0.5 is clamped to 0.5
    argv = ["sweep", "--alpha-min", "0.0001", "--alpha-max", "0.5", "--steps", "11"]
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    assert (code, err) == (0, "")
    rows = json.loads(out)
    validate(rows)
    assert rows[-1]["alpha"] == 0.5
    assert all(isinstance(v, float) and v == v for row in rows for v in row.values())
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert "nan" not in out


def test_sweep_validation(capsys):
    assert run_cli(["sweep", "--steps", "1"], capsys)[0] == 1
    assert run_cli(["sweep", "--alpha-min", "0.03", "--alpha-max", "0.01"], capsys)[0] == 1
    assert run_cli(["sweep", "--alpha-max", "0.6"], capsys)[0] == 1
    # an empty range and one just past 0.5, which the grid would clamp
    assert run_cli(["sweep", "--alpha-min", "0.02", "--alpha-max", "0.02"], capsys)[0] == 1
    assert run_cli(["sweep", "--alpha-max", "0.5000001"], capsys)[0] == 1


def test_sweep_deterministic_across_worker_counts(tmp_path, capsys):
    # every sweep runs in one worker; repeated runs write the same bytes
    args = ["sweep", "--alpha-min", "0.01", "--alpha-max", "0.04", "--steps", "7"]
    outputs = []
    for run in range(3):
        target = tmp_path / f"sweep-{run}.csv"
        code, _, _ = run_cli(args + ["--out", str(target)], capsys)
        assert code == 0
        outputs.append(target.read_bytes())
    assert all(blob == outputs[0] for blob in outputs)


def test_envelope_csv_table(capsys):
    code, out, _ = run_cli(
        ["envelope", "--alpha", "0.1", "--r-max", "1.2", "--steps", "12"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ENVELOPE_HEADER
    assert len(lines) == 13
    rows = [line.split(",") for line in lines[1:]]
    n_opts = [int(r[5]) for r in rows]
    assert n_opts == sorted(n_opts)
    for r, n in zip(rows, n_opts):
        if n <= 3:
            # same float, same formatting: the strings must agree
            assert r[4] == r[n]
    # the first crossover lands between the rows that swap leaders
    rc1 = r_cn(1, 0.1)
    flips = [
        (float(a[0]), float(b[0]))
        for a, b in zip(rows, rows[1:])
        if (float(a[1]) < float(a[2])) != (float(b[1]) < float(b[2]))
    ]
    assert len(flips) == 1
    assert flips[0][0] < rc1 < flips[0][1]


def test_envelope_json_types(capsys):
    code, out, _ = run_cli(
        ["envelope", "--alpha", "1.0", "--r-max", "1.0", "--steps", "4",
         "--format", "json"], capsys
    )
    assert code == 0
    rows = json.loads(out)
    validate(rows)
    assert len(rows) == 4
    for row in rows:
        assert isinstance(row["n_opt"], int)
        assert row["rho_min"] <= min(row["rho_1"], row["rho_2"], row["rho_3"])


@pytest.mark.parametrize("alpha", [0.02, 0.04, 0.5, 1.0])
def test_envelope_rows_match_rho_min(alpha, tmp_path, capsys):
    # r-max 100 in 200 rows takes n into the tens of thousands, and late rows
    # jump by more than 64 segments, so the table's walk searches from a
    # start above n = 1 that its guess floor((r / C)^2) overtakes; every row
    # must still equal a fresh search from n = 1, bit for bit
    target = tmp_path / "envelope.json"
    code, _, _ = run_cli(
        ["envelope", "--alpha", str(alpha), "--r-max", "100", "--steps", "200",
         "--format", "json", "--out", str(target)], capsys
    )
    assert code == 0
    rows = json.loads(target.read_text())
    assert max(b["n_opt"] - a["n_opt"] for a, b in zip(rows, rows[1:])) > 64
    for row in rows:
        assert (row["rho_min"], row["n_opt"]) == rho_min(row["R"], alpha)


def test_envelope_validation(capsys):
    assert run_cli(["envelope", "--alpha", "0"], capsys)[0] == 1
    assert run_cli(["envelope", "--alpha", "1.5"], capsys)[0] == 1
    assert run_cli(["envelope", "--alpha", "0.1", "--r-max", "0"], capsys)[0] == 1
    assert run_cli(["envelope", "--alpha", "0.1", "--steps", "0"], capsys)[0] == 1
    # the command's own check, not a later stage's
    assert run_cli(["envelope", "--alpha", "1.0000001"], capsys)[2] == (
        "rieszdrop: error: envelope: alpha must lie in (0, 1], got 1.0000001\n"
    )
    # r-max 0 is refused by the command, before any row is computed
    code, out, err = run_cli(["envelope", "--alpha", "0.1", "--r-max", "0"], capsys)
    assert (code, out) == (1, "")
    assert err == "rieszdrop: error: envelope: r-max must be positive, got 0.0\n"


def test_envelope_past_the_cap_names_its_stage(capsys):
    # the n search has no cap; past the largest n, 2**53 - 1, it fails in
    # envelope_rows, which the message names with r and r-max, and not in
    # rho_min, which envelope never calls
    code, out, err = run_cli(
        ["envelope", "--alpha", "0.1", "--r-max", "1e300", "--steps", "3"], capsys
    )
    assert code == 1
    assert out == ""
    assert err == (
        "rieszdrop: error: envelope_rows: the minimizing n is not below 2**53"
        " at r = 3.3333333333333335e+299 (r-max 1e+300)\n"
    )
    assert "rho_min" not in err
    assert "Traceback" not in err


def test_envelope_rejects_an_infinite_radius(capsys):
    # the row check names r and the command names r-max
    code, out, err = run_cli(["envelope", "--alpha", "0.1", "--r-max", "inf"], capsys)
    assert (code, out) == (1, "")
    assert err == "rieszdrop: error: envelope_rows: r must lie in (0, inf), got inf (r-max inf)\n"


def test_envelope_at_tiny_r(capsys):
    # below r ~ 1.5e-154 the table keeps rho_n's accuracy; where the
    # density leaves double range the error names r and r-max
    code, out, _ = run_cli(
        ["envelope", "--alpha", "0.1", "--r-max", "1e-200", "--steps", "1"], capsys
    )
    assert code == 0
    assert out.splitlines()[1].startswith("1e-200,2e+200,")
    code, out, err = run_cli(
        ["envelope", "--alpha", "0.1", "--r-max", "5e-324", "--steps", "1"], capsys
    )
    assert (code, out) == (1, "")
    assert err == (
        "rieszdrop: error: envelope_rows: the density is out of double range"
        " at r = 5e-324 (r-max 5e-324)\n"
    )


def test_alpha0_payload(capsys):
    code, out, _ = run_cli(["alpha0", "--tol", "1e-10"], capsys)
    assert code == 0
    data = json.loads(out)
    validate(data)
    assert tuple(data) == ("alpha0", "m_at_crossing", "tol")
    assert abs(data["alpha0"] - 0.04273) < 0.0005
    assert abs(data["alpha0"] - ALPHA0_REF) < 1e-9
    assert abs(data["m_at_crossing"] - M_AT_CROSSING_REF) / M_AT_CROSSING_REF < 1e-6
    assert data["tol"] == 1e-10


def test_alpha0_loose_and_invalid_tol(capsys):
    code, out, _ = run_cli(["alpha0", "--tol", "1e-6"], capsys)
    assert code == 0
    assert abs(json.loads(out)["alpha0"] - ALPHA0_REF) < 1e-4
    assert run_cli(["alpha0", "--tol", "-1"], capsys)[0] == 1
    # the smallest tolerance accepted, 2**-52, still converges
    code, out, _ = run_cli(["alpha0", "--tol", repr(2.0**-52)], capsys)
    assert code == 0
    assert abs(json.loads(out)["alpha0"] - ALPHA0_REF) < 1e-9


@pytest.mark.parametrize("tol", ["1e-16", "1e-300", "0", "-1", "nan", "inf"])
def test_alpha0_rejects_tol_below_double_spacing(tol, capsys):
    # no relative bracket width below 2**-52 can be met; the solve used to
    # run all 200 outer steps before a ConvergenceError naming neither.  An
    # infinite tol is no width either, and JSON cannot write it
    start = time.perf_counter()
    code, out, err = run_cli(["alpha0", "--tol", tol], capsys)
    assert time.perf_counter() - start < 0.1
    assert code == 1
    assert out == ""
    assert err.startswith("rieszdrop: error: alpha0: --tol must be at least 2**-52")
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12, 1e-14, 2.0**-52])
def test_alpha0_as_accurate_as_its_tol(tol, capsys):
    # below 1e-12 the inner solves tighten with --tol, so the crossing is
    # found to the tolerance asked for, down to a few ulps of alpha_0; the
    # mass at it is solved at the same inner stop (at the fixed 1e-12 stop
    # it was 4.4e-14 off at 2**-52)
    code, out, _ = run_cli(["alpha0", "--tol", repr(tol)], capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data["alpha0"] - ALPHA0_REF) / ALPHA0_REF <= max(tol, 2e-15)
    assert abs(data["m_at_crossing"] - M_AT_CROSSING_REF) / M_AT_CROSSING_REF <= max(tol, 2e-15)


def test_solver_failure_names_the_solve_and_alpha(capsys):
    code, out, err = run_cli(["eval", "--alpha", "1e-20"], capsys)
    assert code == 1
    assert out == ""
    assert err == (
        "rieszdrop: error: solve_eps0(alpha=1e-20): no sign change on "
        "[1e-06, 4.611686018427388e+18]: f(lo) = 1.0, f(hi) = 1.0\n"
    )


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP.md item 6 (full accuracy as alpha -> 0): eval documents alpha "
    "in (0, 0.5], but at 1e-20 C0 cancels and solve_eps0 finds no sign change",
)
def test_eval_at_tiny_alpha_exits_0(capsys):
    code, _, _ = run_cli(["eval", "--alpha", "1e-20"], capsys)
    assert code == 0


def test_ledger_solver_failure_exits_1(capsys):
    # the walk's first failed solve ends the ledger; the command writes its
    # message and no traceback
    code, out, err = run_cli(["verify", "--alpha-max", "1e-300", "--grid", "2"], capsys)
    assert code == 1
    assert out == ""
    assert err == (
        "rieszdrop: error: solve_eps0(alpha=5e-301): no sign change on "
        "[1e-06, 4.611686018427388e+18]: f(lo) = 1.0, f(hi) = 1.0\n"
    )


def test_verify_pass_and_fail(capsys):
    code, out, _ = run_cli(["verify", "--grid", "40"], capsys)
    assert code == 0
    report = json.loads(out)
    validate(report)
    assert report["passed"] is True
    assert len(report["checks"]) == 18
    code, out, _ = run_cli(["verify", "--alpha-max", "0.05", "--grid", "40"], capsys)
    assert code == 2
    report = json.loads(out)
    validate(report)
    assert report["passed"] is False
    assert run_cli(["verify", "--grid", "1"], capsys)[0] == 1


def test_usage_errors(capsys):
    assert run_cli([], capsys)[0] == 1
    assert run_cli(["bogus"], capsys)[0] == 1
    assert run_cli(["eval"], capsys)[0] == 1
    assert run_cli(["eval", "--alpha", "abc"], capsys)[0] == 1


def test_help_exits_zero(capsys):
    assert run_cli(["--help"], capsys)[0] == 0


def test_entrypoint_raises_system_exit(monkeypatch, capsys):
    from rieszdrop.cli import entrypoint

    monkeypatch.setattr(sys, "argv", ["rieszdrop", "eval", "--alpha", "0.6"])
    with pytest.raises(SystemExit) as info:
        entrypoint()
    assert info.value.code == 1
    capsys.readouterr()


def child_env():
    """The environment of a child interpreter that imports this rieszdrop."""
    env = dict(os.environ)
    src = str(Path(rieszdrop.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_script_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.argv = ['rieszdrop', '--help']; "
         "from rieszdrop.cli import entrypoint; entrypoint()"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "eval" in proc.stdout and "verify" in proc.stdout


def test_console_script_names_the_entrypoint():
    # the [project.scripts] line, read as text (tomllib is 3.11+), names a
    # callable that resolves to cli.entrypoint
    from rieszdrop.cli import entrypoint

    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    name, _, value = text.split("\n[project.scripts]\n", 1)[1].splitlines()[0].partition("=")
    assert name.strip() == "rieszdrop"
    module, _, attr = value.strip().strip('"').partition(":")
    target = getattr(importlib.import_module(module), attr)
    assert callable(target) and target is entrypoint


def fresh_run(argv):
    """(module, (exit code, stdout, stderr)) of argv under `python -m module`."""
    env = child_env()
    for module in ("rieszdrop", "rieszdrop.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env
        )
        yield module, (proc.returncode, proc.stdout, proc.stderr)


@pytest.mark.parametrize("argv", [
    ["eval", "--alpha", "0.034"], ["eval", "--alpha", "0.6"], ["bogus"],
    ["--help"], ["sweep", "--alpha-m", "0.1"], ["eval", "--alpha=0.034"],
])
def test_python_dash_m_matches_main(argv, capsys):
    # `python -m rieszdrop` and `python -m rieszdrop.cli` run the same command
    got = run_cli(argv, capsys)
    for module, fresh in fresh_run(argv):
        assert fresh == got, module


def test_reused_parser_matches_a_fresh_process(monkeypatch, capsys):
    # main() reads one module-level table on every call: a success, a usage
    # error and --help leave nothing behind that a later call in the same
    # process could see, so each call prints what a fresh process prints
    monkeypatch.setenv("COLUMNS", "80")  # the help text must not depend on it
    sequence = [
        ["eval", "--alpha", "0.034"],
        ["sweep", "--steps", "x"],
        ["--help"],
        ["eval", "--alpha", "0.034"],
    ]
    for argv in sequence:
        got = run_cli(argv, capsys)
        for module, fresh in fresh_run(argv):
            assert fresh == got, (module, argv)


USAGE_ERRORS = [
    ([], "rieszdrop: error: the following arguments are required: command"),
    (["bogus"], "rieszdrop: error: argument command: invalid choice: 'bogus' "
     "(choose from 'eval', 'sweep', 'envelope', 'alpha0', 'verify')"),
    (["eval"], "rieszdrop eval: error: the following arguments are required: --alpha"),
    (["eval", "--alpha", "abc"], "rieszdrop eval: error: argument --alpha: invalid float value: 'abc'"),
    (["eval", "--alpha"], "rieszdrop eval: error: argument --alpha: expected one argument"),
    (["sweep", "--steps", "1.5"], "rieszdrop sweep: error: argument --steps: invalid int value: '1.5'"),
    (["sweep", "--format", "xml"],
     "rieszdrop sweep: error: argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
    (["eval", "--alpha", "0.1", "--bogus", "1"], "rieszdrop: error: unrecognized arguments: --bogus 1"),
    (["sweep", "--alpha-m", "0.1"],
     "rieszdrop sweep: error: ambiguous option: --alpha-m could match --alpha-min, --alpha-max"),
    # "--" is no prefix of every option, and argparse reads -1e5 as an option
    (["eval", "--alpha", "0.1", "--"], "rieszdrop: error: unrecognized arguments: --"),
    (["eval", "--alpha", "-1e5"], "rieszdrop eval: error: argument --alpha: expected one argument"),
]


@pytest.mark.parametrize("argv, line", USAGE_ERRORS)
def test_usage_error_texts(argv, line, capsys):
    # each usage error keeps argparse's own error line under the usage line
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("usage: rieszdrop") and err.endswith(line + "\n")
    assert err.count("\n") == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"]] + [
    [command, flag] for command in ("eval", "sweep", "envelope", "alpha0", "verify")
    for flag in ("--help", "-h")
])
def test_help_texts(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert out.startswith("usage: rieszdrop") and "-h, --help" in out


def test_help_ignores_the_terminal_width(monkeypatch, capsys):
    texts = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        texts.append(run_cli(["sweep", "--help"], capsys)[1] + run_cli(["--help"], capsys)[1])
    assert texts[0] == texts[1]


def test_option_spellings_give_the_same_bytes(capsys):
    # --name value, --name=value, a unique prefix, and the last repeat wins
    full = run_cli(["verify", "--alpha-max", "0.034", "--grid", "5"], capsys)
    assert full[0] == 0
    for argv in (
        ["verify", "--alpha-max=0.034", "--grid=5"],
        ["verify", "--alpha-ma", "0.034", "--gr", "5"],
        ["verify", "--alpha-max", "0.02", "--grid", "7", "--alpha-max=0.034", "--grid", "5"],
    ):
        assert run_cli(argv, capsys) == full, argv
    assert run_cli(["eval", "--alpha=0.034"], capsys) == run_cli(["eval", "--alpha", "0.034"], capsys)


def test_no_option_name_is_a_prefix_of_another():
    # a full name then never reads as ambiguous, since the parser matches
    # every name by prefix
    from rieszdrop.cli import _COMMANDS, _OUT

    for _, _, options in _COMMANDS.values():
        names = ["--help", *options, *_OUT]
        assert "--out" in names
        assert not [(a, b) for a in names for b in names if a != b and b.startswith(a)]


OPTIONS = {
    "eval": ("--alpha",), "sweep": ("--alpha-min", "--alpha-max", "--steps", "--format"),
    "envelope": ("--alpha", "--r-max", "--steps", "--format"), "alpha0": ("--tol",),
    "verify": ("--alpha-max", "--grid"),
}
EDGES = ["0", "-0.0", "5e-324", "1e-20", repr(0.5 - 1e-10), repr(0.5 + 1e-10), "1e308",
         "inf", "-inf", "nan", "abc", "", "1_0", "0x10", "csv", "json", "xml"]


def test_seeded_argv_draws_exit_cleanly(capsys):
    # every drawn command line exits 0, 1, 2 or 3 without a traceback;
    # exit 1 writes no stdout, exit 0 no stderr, and JSON stdout parses
    from hypothesis import HealthCheck, given, seed, settings
    from hypothesis import strategies as st

    @st.composite
    def argv(draw):
        command = draw(st.sampled_from(sorted(OPTIONS)))
        args = [command]
        for option in draw(st.lists(st.sampled_from(OPTIONS[command]), max_size=3)):
            if option in ("--steps", "--grid"):
                value = str(draw(st.integers(-1, 50)))
            else:
                value = draw(st.sampled_from(EDGES))
            spelling = draw(st.sampled_from(["full", "prefix", "equals"]))
            if spelling == "prefix":
                args += [option[:-1], value]
            elif spelling == "equals":
                args.append(f"{option}={value}")
            else:
                args += [option, value]
        return args

    @seed(2014)
    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv())
    def check(args):
        code, out, err = run_cli(args, capsys)
        assert code in (0, 1, 2, 3), args
        assert "Traceback" not in err, args
        if code == 1:
            assert out == "", args
        if code == 0:
            assert err == "", args
        if out.startswith(("[", "{")):
            json.loads(out)

    start = time.perf_counter()
    check()
    assert time.perf_counter() - start < 2.0


def test_option_defaults():
    # what each command runs with when argv names only what is required
    from rieszdrop.cli import _parse
    from rieszdrop.thresholds import REL_TOL

    assert _parse(["eval", "--alpha", "0.1"]) == ("eval", {"alpha": 0.1, "out": None})
    assert _parse(["sweep"]) == ("sweep", {
        "alpha_min": 0.005, "alpha_max": 0.045, "steps": 81, "format": "csv", "out": None})
    assert _parse(["envelope", "--alpha", "0.1"]) == ("envelope", {
        "alpha": 0.1, "r_max": 2.0, "steps": 400, "format": "csv", "out": None})
    assert _parse(["alpha0"]) == ("alpha0", {"tol": REL_TOL, "out": None})
    assert _parse(["verify"]) == ("verify", {"alpha_max": 0.034, "grid": 1000, "out": None})
