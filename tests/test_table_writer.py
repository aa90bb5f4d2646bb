"""The sweep and envelope table writer against json and csv, byte for byte.

cli._table_text fills one row template per table.  These tests hold it to
the text json.dumps(indent=2, allow_nan=False) and csv.writer write for the
same rows, on the benchmark's table shapes and on hypothesis-drawn rows.
"""

import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
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


def assert_same_bytes(fields, rows):
    assert cli._table_text(fields, rows, "json") == json_reference(fields, rows)
    assert cli._table_text(fields, rows, "csv") == csv_reference(fields, rows)


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


def test_envelope_table_shape():
    # the benchmark's envelope: 4,000 radii up to 40, n_opt past 64
    rows = list(envelope_rows(0.04, (40.0 * i / 4000 for i in range(1, 4001))))
    assert rows[-1][-1] > 64
    assert_same_bytes(cli._ENVELOPE_FIELDS, rows)


VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.0, 0.1, 1e300, 2.0**-1022]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(10**15) + 1, max_value=10**15 - 1),
    st.none(),
)
FIELDS = ("a", "b_c", "rho_2")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(VALUES, VALUES, VALUES), max_size=8))
def test_mixed_rows_match_json_and_csv(rows):
    assert_same_bytes(FIELDS, rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("missing", [False, True])
def test_non_finite_raises_json_error(bad, missing):
    row = (1.5, None if missing else 2, bad)
    rows = [(0.1, 1, 2.0), row]
    with pytest.raises(ValueError) as expected:
        json_reference(FIELDS, rows)
    with pytest.raises(ValueError) as got:
        cli._table_text(FIELDS, rows, "json")
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("Out of range float values are not JSON compliant: ")
    # CSV writes them, as "%.15g" does
    assert cli._table_text(FIELDS, rows, "csv").splitlines()[2].split(",")[2] == "%.15g" % bad


def test_empty_table():
    assert cli._table_text(FIELDS, [], "json") == json_reference(FIELDS, []) == "[]\n"
    assert cli._table_text(FIELDS, [], "csv") == csv_reference(FIELDS, []) == "a,b_c,rho_2\n"
