"""The CLI's JSON and CSV writers against json and csv, byte for byte.

cli._table_blocks reads a table's values flat and row-major and fills one
block template, cli._BLOCK_ROWS rows to a string.  These tests hold the
joined strings to the text json.dumps(indent=2, allow_nan=False) and
csv.writer write for the same rows: on the benchmark's table shapes, on
hypothesis-drawn rows, and on tables that end just before, at and just
past a block boundary, with their rows given as a list and as a generator
and their values as a list and as the envelope's array of doubles.  The
commands stream the blocks, and one test holds stdout and --out to the
same reference bytes; another holds every command's --out to its stdout
bytes, exit code and stderr.  They also bound the envelope's traced peak
memory by its output size, and check that a table with a failing row
writes no byte.

eval's and alpha0's objects and the ledger report are each one % on a
template built once.  Their texts are held to json.dumps(indent=2,
allow_nan=False) and a newline: at the golden and hypothesis-drawn
alphas, on six ledger shapes, passing and failing, as two points and as
the full walk, and on hypothesis-drawn reports with any finite floats and
names holding quotes, backslashes and non-ASCII characters.  A non-finite
number in any float slot raises json's own error, naming the first in
json's order, and the command then writes no byte.
"""

import contextlib
import csv
import io
import json
import math
import tracemalloc
from array import array
from functools import cache
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rieszdrop import cli, verify
from rieszdrop.splitting import envelope_rows
from rieszdrop.thresholds import m_c1, solve_m2
from rieszdrop.verify import run_ledger


def json_reference(fields, rows):
    return json.dumps([dict(zip(fields, row)) for row in rows], indent=2, allow_nan=False) + "\n"


def csv_reference(fields, rows):
    # floats as 15 significant digits and ints as str, as the csv.writer
    # path wrote them; the two agree on every int below 10**15
    def cell(v):
        if v is None:
            return "nan"
        return str(v) if isinstance(v, int) else "%.15g" % v

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([cell(v) for v in row] for row in rows)
    return buf.getvalue()


def flat(rows):
    # the rows' values in row order, as _table_blocks reads them
    return [v for row in rows for v in row]


def table_text(fields, rows, fmt):
    return "".join(cli._table_blocks(fields, flat(rows), fmt))


def assert_same_bytes(fields, rows):
    assert table_text(fields, rows, "json") == json_reference(fields, rows)
    assert table_text(fields, rows, "csv") == csv_reference(fields, rows)


def test_sweep_table_shape():
    # the benchmark's sweep: 201 rows over an exponent range of width 0.4
    lo, hi, steps = 0.01, 0.41, 201
    rows = list(cli._sweep_rows(lo + (hi - lo) * i / (steps - 1) for i in range(steps)))
    assert all(None not in row for row in rows)
    assert_same_bytes(cli._SWEEP_FIELDS, rows)
    # alpha = 0 leaves every solver field empty
    (null_row,) = cli._sweep_rows([0.0])
    assert null_row[0] == 0.0 and null_row[1] is not None
    assert null_row[2:] == (None, None, None)
    # an alpha one ulp past 0.5 leaves m_2 empty, outside rho_0's domain
    (over_row,) = cli._sweep_rows([math.nextafter(0.5, 1.0)])
    assert over_row[2] is None and None not in over_row[3:]
    assert_same_bytes(cli._SWEEP_FIELDS, [null_row, over_row] + rows[:3])


@cache
def envelope_table():
    # the benchmark's envelope: 4,000 radii up to 40, n_opt past 64
    return tuple(envelope_rows(0.04, (40.0 * i / 4000 for i in range(1, 4001))))


def test_envelope_table_shape():
    rows = envelope_table()
    assert rows[-1][-1] > 64
    assert_same_bytes(cli._ENVELOPE_FIELDS, rows)


VALUES = st.one_of(
    # two 1.7e308 in one table sum to inf, which every value alone is not
    st.sampled_from(
        [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.0, 0.1, 1e300, 1.7e308, 2.0**-1022]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(10**15) + 1, max_value=10**15 - 1),
    st.none(),
)
FIELDS = ("a", "b_c", "rho_2")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(VALUES, VALUES, VALUES), max_size=8))
@example([(1.7e308, 1.0, 2), (0.5, 1.7e308, -1.7e308)])  # finite rows, sum overflows
def test_mixed_rows_match_json_and_csv(rows):
    assert_same_bytes(FIELDS, rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("missing", [False, True])
def test_non_finite_raises_json_error(bad, missing):
    check_non_finite_raises_json_error(bad, missing, "last row")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("missing", [False, True])
@pytest.mark.parametrize("shape", ["first row", "envelope last row"])
def test_non_finite_raises_json_error_at(bad, missing, shape):
    check_non_finite_raises_json_error(bad, missing, shape)


def check_non_finite_raises_json_error(bad, missing, shape):
    fields, clean = FIELDS, [(0.1, 1, 2.0)]
    if shape == "envelope last row":
        # the bad value (and the None) after 3,999 clean rows of six fields
        fields, clean = cli._ENVELOPE_FIELDS, list(envelope_table()[:-1])
    row = (1.5, None if missing else 2, bad) + (3.0,) * (len(fields) - 3)
    at = 0 if shape == "first row" else len(clean)
    rows = clean[:at] + [row] + clean[at:]
    with pytest.raises(ValueError) as expected:
        json_reference(fields, rows)
    with pytest.raises(ValueError) as got:
        table_text(fields, rows, "json")
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("Out of range float values are not JSON compliant: ")
    # CSV writes them, as "%.15g" does
    csv_lines = table_text(fields, rows, "csv").splitlines()
    assert csv_lines[1 + at].split(",")[2] == "%.15g" % bad


def test_empty_table():
    assert table_text(FIELDS, [], "json") == json_reference(FIELDS, []) == "[]\n"
    assert table_text(FIELDS, [], "csv") == csv_reference(FIELDS, []) == "a,b_c,rho_2\n"


B = cli._BLOCK_ROWS


def boundary_rows(n):
    # n envelope rows, every 97th with a None, so that blocks with and
    # without one meet at the boundaries
    rows = envelope_table()[:n]
    return [row if i % 97 else row[:2] + (None,) + row[3:] for i, row in enumerate(rows)]


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 1])
def test_tables_across_block_boundaries(n):
    fields, rows = cli._ENVELOPE_FIELDS, boundary_rows(n)
    assert len(rows) == n
    clean = envelope_table()[:n]
    expected = {"json": json_reference(fields, rows), "csv": csv_reference(fields, rows)}
    expected_clean = {"json": json_reference(fields, clean), "csv": csv_reference(fields, clean)}
    for fmt in ("json", "csv"):
        # the rows as a list and as a generator, their values flattened,
        # and the rows without a None as the envelope's array of doubles
        feeds = [(flat(rows), expected), (flat(row for row in rows), expected)]
        feeds.append((array("d", flat(clean)), expected_clean))
        for values, text in feeds:
            blocks = list(cli._table_blocks(fields, values, fmt))
            assert "".join(blocks) == text[fmt]
            # the head, then one string per block of B rows, the last with
            # the closing text
            assert len(blocks) == (1 if n == 0 else -(-n // B) + 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_in_a_middle_block_raises_json_error(bad):
    # a None in the first block, the bad value in the second of three, and
    # another non-finite value in the third: json names the first in row
    # order
    fields = cli._ENVELOPE_FIELDS
    rows = boundary_rows(2 * B + 1)
    assert None in rows[0]
    rows[B + 44] = rows[B + 44][:3] + (bad,) + rows[B + 44][4:]
    rows[2 * B] = (-math.inf if bad == math.inf else math.inf,) + rows[2 * B][1:]
    with pytest.raises(ValueError) as expected:
        json_reference(fields, rows)
    assert repr(bad) in str(expected.value)
    for feed in (rows, (row for row in rows)):
        with pytest.raises(ValueError) as got:
            table_text(fields, feed, "json")
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("fmt, bound", [("json", 0.6), ("csv", 1.1)], ids=["json", "csv"])
def test_envelope_peak_memory_holds_numbers_not_text(fmt, bound, tmp_path):
    # the table is held as six doubles a row and streamed a block of text
    # at a time: the command's traced peak stays within 0.6 times the JSON
    # file it writes and 1.1 times the CSV one (about 0.49 and 0.94; 1.11
    # and 1.22 when the whole text was held until it was written, 4.4 and
    # 6.2 when the whole row list, its lines and their join were held)
    out = tmp_path / f"envelope.{fmt}"
    argv = ["envelope", "--alpha", "0.04", "--r-max", "40", "--steps", "4000",
            "--format", fmt, "--out", str(out)]
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 300_000
    assert peak <= bound * size


STREAMED = [
    (command, fmt, n)
    for command in ("sweep", "envelope")
    for fmt in ("json", "csv")
    for n in (1, B - 1, B, B + 1, 2 * B + 1)
    if n > 1 or command == "envelope"  # a sweep has at least 2 rows
]


@pytest.mark.parametrize("command, fmt, n", STREAMED)
def test_streamed_tables_same_bytes_to_stdout_and_out(command, fmt, n, tmp_path, capsys):
    # the command writes its blocks to stdout or --out as they are filled;
    # both sinks get the bytes json and csv give for the command's rows
    if command == "sweep":
        lo, hi = 0.01, 0.41
        argv = ["sweep", "--alpha-min", str(lo), "--alpha-max", str(hi), "--steps", str(n)]
        fields = cli._SWEEP_FIELDS
        rows = list(cli._sweep_rows(min(lo + (hi - lo) * i / (n - 1), 0.5) for i in range(n)))
    else:
        alpha, r_max = 0.04, 5.0
        argv = ["envelope", "--alpha", str(alpha), "--r-max", str(r_max), "--steps", str(n)]
        fields = cli._ENVELOPE_FIELDS
        rows = list(envelope_rows(alpha, (r_max * i / n for i in range(1, n + 1))))
    assert len(rows) == n and all(None not in row for row in rows)
    reference = json_reference if fmt == "json" else csv_reference
    expected = reference(fields, rows)
    stdout, stderr = stdout_and_out(argv + ["--format", fmt], 0, tmp_path, capsys)
    assert stderr == ""
    assert stdout == expected


def stdout_and_out(argv, code, tmp_path, capsys):
    """The stdout and stderr of argv, which exits code, after checking --out.

    With --out FILE the file holds exactly the stdout bytes, stdout is
    empty, and the exit code and stderr are the same; an --out that names
    a directory exits 1 with one error line and no stdout.
    """
    assert cli.main(argv) == code
    stdout, stderr = capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == code
    assert capsys.readouterr() == ("", stderr)
    assert out.read_bytes() == stdout.encode()
    assert cli.main(argv + ["--out", str(tmp_path)]) == 1
    got, err = capsys.readouterr()
    assert got == "" and "Traceback" not in err
    assert err.startswith(stderr) and err[len(stderr):].startswith("rieszdrop: error: ")
    assert err.count("\n") == stderr.count("\n") + 1
    return stdout, stderr


PARTIAL_SWEEP = ["sweep", "--alpha-min", "0", "--alpha-max", "0.01", "--steps", "2"]


@pytest.mark.parametrize("argv, code", [
    pytest.param(["eval", "--alpha", "0.034"], 0, id="eval"),
    pytest.param(PARTIAL_SWEEP, 3, id="sweep-csv-partial"),  # alpha 0 is unsolved
    pytest.param(PARTIAL_SWEEP + ["--format", "json"], 3, id="sweep-json-partial"),
    pytest.param(["envelope", "--alpha", "0.1", "--r-max", "1.2", "--steps", "3"], 0, id="envelope"),
    pytest.param(["alpha0", "--tol", "1e-6"], 0, id="alpha0"),
    pytest.param(["verify", "--grid", "5"], 0, id="verify-pass"),
    pytest.param(["verify", "--alpha-max", "0.04", "--grid", "5"], 2, id="verify-fail"),
])
def test_every_command_same_bytes_to_stdout_and_out(argv, code, tmp_path, capsys):
    # main writes every command's texts, to stdout or to --out alike
    stdout, stderr = stdout_and_out(argv, code, tmp_path, capsys)
    assert stdout
    assert (stderr == "") == (code != 3)  # only a sweep's unsolved rows write stderr


def test_failing_row_writes_no_byte(tmp_path, capsys):
    # the minimizing n passes 2**53 at row 645, in the third block
    argv = ["envelope", "--alpha", "0.1", "--r-max", "1e8", "--steps", "1000"]
    assert 2 * B < 645
    message = (
        "rieszdrop: error: envelope_rows: the minimizing n is not below 2**53"
        " at r = 64500000.0 (r-max 100000000.0)\n"
    )
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", message)
    new, kept = tmp_path / "new.json", tmp_path / "kept.json"
    kept.write_bytes(b'{"kept": true}\n')
    for out in (new, kept):
        assert cli.main(argv + ["--format", "json", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", message)
    assert not new.exists()
    assert kept.read_bytes() == b'{"kept": true}\n'


# The JSON objects: eval's, alpha0's and the ledger report, each one % on
# a template built once, against json.dumps(indent=2, allow_nan=False)


def json_object_reference(payload):
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def command_text(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


GOLDEN_ALPHAS = (0.001, 0.01, 0.034, 0.1, 0.5)  # tests/golden/eval_*.json
ALPHA0_FIELDS = ("alpha0", "m_at_crossing", "tol")


def check_eval_text(alpha):
    code, text = command_text(["eval", "--alpha", repr(alpha)])
    assert code == 0
    # json reads every float back bit for bit, so the text is json's
    # rendering of the values it holds exactly when writing them again
    # gives the same bytes; the values are the thresholds' own
    payload = json.loads(text)
    assert tuple(payload) == cli._EVAL_FIELDS
    assert payload["alpha"] == alpha
    assert payload["m_c1"] == m_c1(alpha) and payload["m_2"] == solve_m2(alpha)
    assert text == json_object_reference(payload)


@pytest.mark.parametrize("alpha", GOLDEN_ALPHAS)
def test_eval_text_at_golden_alphas(alpha):
    check_eval_text(alpha)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1e-5, max_value=0.5))
def test_eval_text_at_drawn_alphas(alpha):
    check_eval_text(alpha)


FINITE = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, 1.7e308, -1.7e308, 2.0**-1022]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[FINITE] * len(cli._EVAL_FIELDS)), st.tuples(FINITE, FINITE, FINITE))
def test_eval_and_alpha0_templates_match_json(eval_values, alpha0_values):
    # every finite double, two 1.7e308 (whose sum overflows) included
    assert cli._json_object(cli._EVAL, eval_values) == json_object_reference(
        dict(zip(cli._EVAL_FIELDS, eval_values))
    )
    assert cli._json_object(cli._ALPHA0, alpha0_values) == json_object_reference(
        dict(zip(ALPHA0_FIELDS, alpha0_values))
    )


def test_alpha0_text():
    code, text = command_text(["alpha0", "--tol", "1e-6"])
    assert code == 0
    payload = json.loads(text)
    assert tuple(payload) == ALPHA0_FIELDS and payload["tol"] == 1e-6
    assert text == json_object_reference(payload)


LEDGER_PAIRS = [(0.034, 50), (0.05, 40), (0.031234, 1000), (0.5, 7), (1e-5, 7), (0.034, 1000)]


@pytest.mark.parametrize("walk", ["two-point", "full"])
@pytest.mark.parametrize("alpha_max, grid", LEDGER_PAIRS)
def test_ledger_text_matches_json(alpha_max, grid, walk, monkeypatch):
    # the report the command writes is run_ledger's, as json.dumps writes
    # it; (0.05, 40) and (0.5, 7) fail, the others pass
    if walk == "full":
        monkeypatch.setattr(verify, "_MONOTONE_FROM", math.inf)
    report = run_ledger(alpha_max, grid)
    assert report["passed"] == (alpha_max not in (0.05, 0.5))
    code, text = command_text(["verify", "--alpha-max", repr(alpha_max), "--grid", str(grid)])
    assert code == (0 if report["passed"] else 2)
    assert text == json_object_reference(report)


TEXTS = st.one_of(
    st.sampled_from(['say "1"', "back\\slash", "rho_0 ≤ ρ_c1", "\U0001f600", "\n\t\x00\x7f"]),
    st.text(),
)


def in_order(fields):
    # the drawn dict in the key order of fields, run_ledger's, which json
    # writes (fixed_dictionaries draws its keys in another order)
    return st.fixed_dictionaries(fields).map(lambda d: {key: d[key] for key in fields})


CHECKS = in_order({
    "name": TEXTS,
    "claim": TEXTS,
    "attained": FINITE,
    "bound": st.one_of(FINITE, st.integers(-(10**20), 10**20)),
    "margin": FINITE,
    "pass": st.booleans(),
    "worst_alpha": FINITE,
})
REPORTS = in_order({
    "passed": st.booleans(),
    "grid_points": st.integers(2, 10**12),
    "alpha_max": FINITE,
    "eps_probe": FINITE,
    "r_probe": FINITE,
    "checks": st.lists(CHECKS, max_size=20),
})


def verify_output(report):
    # the verify command's exit code and text for a report run_ledger gives
    with mock.patch.object(cli, "run_ledger", lambda alpha_max, grid: report):
        code, (text,) = cli._cmd_verify(0.034, 1000)
    return code, text


@settings(max_examples=100, deadline=None)
@given(REPORTS)
def test_drawn_ledger_reports_match_json(report):
    code, text = verify_output(report)
    assert code == (0 if report["passed"] else 2)
    assert text == json_object_reference(report)


def float_slots(report):
    # every float slot of a ledger report, in json's order: (checks row or
    # None for the head, key)
    slots = [(None, key) for key in ("alpha_max", "eps_probe", "r_probe")]
    keys = ("attained", "bound", "margin", "worst_alpha")
    return slots + [(i, key) for i in range(len(report["checks"])) for key in keys]


def with_value(report, slot, value):
    # a copy of report with value in slot
    row, key = slot
    if row is None:
        return {**report, key: value}
    checks = [dict(check) for check in report["checks"]]
    checks[row][key] = value
    return {**report, "checks": checks}


def assert_json_error(payload, write):
    # write() raises the ValueError json.dumps raises on payload
    with pytest.raises(ValueError) as expected:
        json_object_reference(payload)
    with pytest.raises(ValueError) as got:
        write()
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("Out of range float values are not JSON compliant: ")


@pytest.fixture(scope="module")
def ledger_report():
    return run_ledger(0.034, 1000)


OBJECTS = [(cli._EVAL, cli._EVAL_FIELDS), (cli._ALPHA0, ALPHA0_FIELDS)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_object_value_raises_json_error(bad, ledger_report):
    # a non-finite value in any float slot raises json's own error
    for template, keys in OBJECTS:
        for i in range(len(keys)):
            values = tuple(bad if j == i else 0.5 for j in range(len(keys)))
            assert_json_error(dict(zip(keys, values)), lambda: cli._json_object(template, values))
    slots = float_slots(ledger_report)
    assert len(slots) == 3 + 4 * 18
    for slot in slots:
        report = with_value(ledger_report, slot, bad)
        assert_json_error(report, lambda: verify_output(report))


@pytest.mark.parametrize("first, later", [(0, 1), (0, -1), (1, 2), (2, 3), (5, 40)])
def test_first_non_finite_object_value_is_named(first, later, ledger_report):
    # with two non-finite values, json names the first in its order
    for template, keys in OBJECTS:
        if later < len(keys):
            values = [0.5] * len(keys)
            values[first], values[later] = -math.inf, math.nan
            values = tuple(values)
            assert_json_error(dict(zip(keys, values)), lambda: cli._json_object(template, values))
    slots = float_slots(ledger_report)
    report = with_value(with_value(ledger_report, slots[first], -math.inf), slots[later], math.nan)
    assert_json_error(report, lambda: verify_output(report))


def test_non_finite_report_writes_no_byte(ledger_report, monkeypatch, tmp_path, capsys):
    # the report is checked before main opens stdout or --out
    report = with_value(ledger_report, (17, "margin"), math.nan)
    monkeypatch.setattr(cli, "run_ledger", lambda alpha_max, grid: report)
    out = tmp_path / "report.json"
    for argv in (["verify"], ["verify", "--out", str(out)]):
        with pytest.raises(ValueError) as raised:
            cli.main(argv)
        assert str(raised.value) == "Out of range float values are not JSON compliant: nan"
        assert capsys.readouterr() == ("", "")
    assert not out.exists()
