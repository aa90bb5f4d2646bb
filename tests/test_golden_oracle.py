"""The golden corpus through the benchmark's independent mpmath oracle.

tests/test_golden.py pins the corpus bytes; this checks that the bytes are
right.  bench/oracle.py re-derives every value from the closed forms at 30
digits, without importing rieszdrop, and checks each root by a sign change
across root * (1 -+ 1e-9).  Each JSON file of tests/golden/cases.json goes
through the output schema and the oracle check of its subcommand, with the
options its argv gave and the command line's defaults for the rest, read
from the command line's own option table.  Each CSV file must hold its JSON
twin's rows, every number written "%.15g" and null as nan; the CSVs do not
go through the oracle, whose sweep check compares each alpha bit for bit
with the grid formula, which 15 digits cannot round-trip.

The oracle module is compiled from its source and run here, so nothing is
written under bench/.  It sets mpmath to 30 digits; the caller's precision
is restored.
"""

import csv
import io
import json
import pathlib
import types

import pytest

from rieszdrop import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
JSON_CASES = sorted(name for name in CASES if name.endswith(".json"))
CSV_CASES = sorted(name for name in CASES if name.endswith(".csv"))

# the verdict each exit code implies: 2 is a failed ledger, which the
# oracle reports as its one problem
EXPECTED = {0: [], 2: ["ledger: verdict is fail"]}


@pytest.fixture(scope="module")
def oracle():
    mpmath = pytest.importorskip("mpmath", reason="the oracle computes in mpmath")
    pytest.importorskip("jsonschema", reason="the oracle validates against the output schema")
    path = ROOT / "bench" / "oracle.py"
    module = types.ModuleType("golden_oracle")
    module.__file__ = str(path)
    with mpmath.workdps(mpmath.mp.dps):
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
        dps = mpmath.mp.dps
    return module, mpmath.workdps(dps)


def problems(oracle, name):
    module, precision = oracle
    command, args = cli._parse(CASES[name]["argv"])
    doc = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    with precision:
        found = module.schema_problems(str(ROOT), doc, command)
        if found:
            return found
        if command == "eval":
            return module.check_eval(doc, args["alpha"])
        if command == "sweep":
            return module.check_sweep(doc, args["alpha_min"], args["alpha_max"], args["steps"])
        if command == "envelope":
            return module.check_envelope(doc, args["alpha"], args["r_max"], args["steps"])
        if command == "alpha0":
            return module.check_alpha0(doc)
        assert command == "verify", name
        return module.check_ledger(doc, args["alpha_max"], args["grid"])


@pytest.mark.parametrize("name", JSON_CASES)
def test_golden_json_passes_the_oracle(oracle, name):
    assert problems(oracle, name) == EXPECTED[CASES[name]["exit"]]


@pytest.mark.parametrize("name", CSV_CASES)
def test_golden_csv_is_its_json_twin(name):
    twin = name[: -len(".csv")] + ".json"
    argv = CASES[name]["argv"]
    assert CASES[twin]["argv"] == [*argv, "--format", "json"]
    rows = json.loads((GOLDEN / twin).read_text(encoding="utf-8"))
    table = list(csv.reader(io.StringIO((GOLDEN / name).read_text(encoding="utf-8"))))
    assert table[0] == list(rows[0])
    assert len(table) == len(rows) + 1
    for line, row in zip(table[1:], rows):
        assert line == ["nan" if v is None else "%.15g" % v for v in row.values()]
