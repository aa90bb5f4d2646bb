"""CLI bytes against the committed corpus in tests/golden/.

tests/golden/cases.json maps each output file to the argv that wrote it
and the exit code it gave.  Each case reruns that argv through cli.main
and compares stdout byte for byte, and the exit code, with the file.

The bytes depend on libm: math.gamma, pow, exp and log1p may differ in the
last ulp across C libraries.  So this test is exact only on the platform
that wrote the files; elsewhere a failure here may be libm, not the code.
The corpus is test data: rewrite a file only with the reason its bytes
moved, never to make this test pass.
"""

import contextlib
import io
import json
import pathlib

import pytest

from rieszdrop import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    case = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(case["argv"])
    assert code == case["exit"]
    assert err.getvalue() == ""
    assert out.getvalue().encode("utf-8") == (GOLDEN / name).read_bytes()
