"""CLI bytes against the committed corpus in tests/golden/.

tests/golden/cases.json maps each output file to the argv that wrote it
and the exit code it gave.  Each case reruns that argv through cli.main
and compares stdout byte for byte, and the exit code, with the file.
tests/golden/specfun.json, the special-function table, is compared with
golden.specfun_table() the same way.

The bytes depend on libm: math.gamma, pow, exp and log1p may differ in the
last ulp across C libraries.  So this test is exact only on the platform
that wrote the files; elsewhere a failure here may be libm, not the code.
The corpus is test data: rewrite a file only with the reason its bytes
moved, never to make this test pass.
"""

import contextlib
import hashlib
import io
import json
import pathlib
from collections import OrderedDict

import pytest
from golden import SPECFUN_NAME, specfun_table

from rieszdrop import cli, specfun
from rieszdrop.specfun import disk_potential, hyp2f1
from rieszdrop.thresholds import solve_eps0, solve_eps1, solve_m2

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


def test_specfun_table_matches_golden(monkeypatch):
    # hyp2f1's series memo changes no bit: the table from an empty memo,
    # then every entry again from last to first, which fills the memo in
    # another order, and the table once more from that warm memo
    golden = (GOLDEN / SPECFUN_NAME).read_bytes()
    monkeypatch.setattr(specfun, "_ratios", OrderedDict())
    assert specfun_table().encode("utf-8") == golden
    table = json.loads(golden)
    for row in reversed(table["disk_potential"]):
        assert disk_potential(row["r"], row["alpha"]) == row["value"], row
    for row in reversed(table["hyp2f1"]):
        assert hyp2f1(row["a"], row["b"], row["c"], row["z"]) == row["value"], row
    assert specfun._ratios
    assert specfun_table().encode("utf-8") == golden


# sha256 of the float.hex of m_2, eps_0 and eps_1 at alpha = 0.032 i / 1000,
# i = 1..1000, one line per alpha.  A change to the solver loop or to the
# constants record that moves any evaluated point moves some root's last
# bit, and with it this digest.  Like the corpus, it is exact only on the
# libm that wrote it.
ROOTS_SHA256 = "3c653ac4ec1723e636c5531e44f1ec5bfe269848753d283bc1edf7718f1c2949"


def test_threshold_roots_bit_identical():
    lines = []
    for i in range(1, 1001):
        alpha = 0.032 * i / 1000
        lines.append(" ".join(f(alpha).hex() for f in (solve_m2, solve_eps0, solve_eps1)))
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == ROOTS_SHA256
