"""The sweep and envelope table writer against json and csv, byte for byte.

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
"""

import csv
import io
import json
import math
import tracemalloc
from array import array
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rieszdrop import cli
from rieszdrop.splitting import envelope_rows


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
