"""Regenerate the golden corpus in tests/golden/ and report how far it drifted.

    python tests/golden.py --diff     # report only
    python tests/golden.py --write    # report, then rewrite the corpus

Each case in tests/golden/cases.json is an argv of the rieszdrop command
and the exit code it gave.  The tool reruns every argv through cli.main,
from the src/ tree next to this directory.  One more file, specfun.json,
is the special-function table: gamma, hyp2f1 and disk_potential on a fixed
grid through the public functions (specfun_table), with the degenerate
band of hyp2f1 (c - a - b within 1e-3 of an integer) and r within 1e-8 of
1 in it.  Every output is compared with the committed file field by field:
a CSV column, or a JSON key path with list indices written []
(checks[].margin).  It prints, per file, whether the
bytes and the exit code still match, and per file and field the largest
relative and absolute change of a number, with a count of other values
(strings, flags, nulls, nan) that changed.  --diff exits 1 when any file's
bytes or exit code moved, 0 otherwise.  --write also rewrites every file
whose bytes moved, and the exit codes in cases.json.

The bytes depend on libm: math.gamma, pow, exp and log1p can differ in the
last ulp across C library builds.  So tests/test_golden.py is exact only on
the platform that wrote the corpus; elsewhere, a --diff whose drift stays
within about 1e-13 relative is the check.  The corpus is test data: rewrite
it only for a stated reason its bytes moved, with this tool's --diff
summary beside that reason, never to make a test pass.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
CASES_PATH = GOLDEN / "cases.json"
SPECFUN_NAME = "specfun.json"

# the special-function grid.  gamma: tiny, the ledger's arguments
# (1 - a, 2 - a, 2 - a/2, 3 - a/2 at a = 0.034), integers, half-integers,
# and up to the overflow edge.  The potential's exponents: generic ones, and
# the degenerate band, where c - a - b = 2 - alpha lies within 1e-3 of an
# integer (alpha near 0, 1 and 2) and hyp2f1 takes its interpolation bridge
GAMMA_XS = (
    1e-300, 1e-8, 0.001, 0.1, 0.5, 0.966, 1.0, 1.5, 1.966, 1.983, 2.0, 2.5,
    2.983, 3.0, 5.5, 10.0, 50.5, 170.5,
)
ALPHAS = (
    1e-6, 5e-4, 0.034, 0.25, 0.5, 0.9, 0.9995, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.0005,
    1.5, 1.9995,
)
HYP2F1_ZS = (0.0, 0.3, 0.75, 0.76, 0.9, 0.99, 1.0 - 1e-8, 1.0)
RADII = (
    0.0, 0.5, 0.87, 0.99, 1.0 - 1e-6, 1.0 - 1e-8, 1.0, 1.0 + 1e-8, 1.0 + 1e-6,
    1.01, 1.15, 2.0, 10.0, 1e6,
)


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one rieszdrop command, run in this process."""
    from rieszdrop import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def specfun_table() -> str:
    """The special-function table as JSON text: every value on the fixed grid.

    hyp2f1 is taken at the two parameter sets of the potential,
    ((alpha - 2)/2, alpha/2; 1) and (alpha/2, alpha/2; 2), for every exponent.
    """
    from rieszdrop import disk_potential, gamma, hyp2f1

    hyp = []
    for alpha in ALPHAS:
        for a, b, c in (((alpha - 2.0) / 2.0, alpha / 2.0, 1.0), (alpha / 2.0, alpha / 2.0, 2.0)):
            hyp += [
                {"a": a, "b": b, "c": c, "z": z, "value": hyp2f1(a, b, c, z)} for z in HYP2F1_ZS
            ]
    table = {
        "gamma": [{"x": x, "value": gamma(x)} for x in GAMMA_XS],
        "hyp2f1": hyp,
        "disk_potential": [
            {"r": r, "alpha": alpha, "value": disk_potential(r, alpha)}
            for alpha in ALPHAS
            for r in RADII
        ],
    }
    return json.dumps(table, indent=2, allow_nan=False) + "\n"


def fields(name: str, text: str) -> dict[str, list]:
    """The values of one output file, grouped by CSV column or JSON key path."""
    found: dict[str, list] = {}
    if name.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(text))
        for row in rows:
            for field, value in zip(header, row):
                try:
                    number: object = float(value)
                except ValueError:
                    number = value
                found.setdefault(field, []).append(number)
        return found

    def walk(node: object, path: str) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for value in node:
                walk(value, f"{path}[]")
        else:
            found.setdefault(path, []).append(node)

    walk(json.loads(text), "")
    return found


def _is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def drift(old: list, new: list) -> tuple[float, float, int]:
    """Largest relative and absolute change over paired numbers, and the
    count of other values that changed (a length change counts each extra
    value)."""
    max_rel = max_abs = 0.0
    other = abs(len(old) - len(new))
    for a, b in zip(old, new):
        if _is_number(a) and _is_number(b):
            d = abs(b - a)
            max_abs = max(max_abs, d)
            max_rel = max(max_rel, d / abs(a) if a else (math.inf if d else 0.0))
        elif not (a == b or (a != a and b != b)):  # nan == nan here
            other += 1
    return max_rel, max_abs, other


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--diff", action="store_true", help="report the drift only")
    mode.add_argument("--write", action="store_true", help="report, then rewrite the corpus")
    args = parser.parse_args(argv)

    cases = json.loads(CASES_PATH.read_text(encoding="utf-8"))
    runs = {name: run_case(case["argv"]) for name, case in cases.items()}
    runs[SPECFUN_NAME] = (0, specfun_table())
    moved = []
    worst_rel = worst_abs = 0.0
    for name, (code, text) in runs.items():
        case = cases.get(name, {"exit": 0})
        old_text = (GOLDEN / name).read_text(encoding="utf-8")
        same = text == old_text and code == case["exit"]
        print(
            f"{name}: exit {code} (recorded {case['exit']}), "
            f"bytes {'identical' if text == old_text else 'moved'}"
        )
        old, new = fields(name, old_text), fields(name, text)
        for field in dict.fromkeys([*old, *new]):
            rel, abs_, other = drift(old.get(field, []), new.get(field, []))
            worst_rel, worst_abs = max(worst_rel, rel), max(worst_abs, abs_)
            line = f"  {field:28} max rel {rel:.3g}  max abs {abs_:.3g}"
            print(line + (f"  other changed {other}" if other else ""))
        if not same:
            moved.append(name)
            if args.write:
                (GOLDEN / name).write_text(text, encoding="utf-8", newline="")
                case["exit"] = code
    print(
        f"{len(runs)} files, {len(moved)} moved{': ' + ', '.join(moved) if moved else ''}; "
        f"largest drift rel {worst_rel:.3g}, abs {worst_abs:.3g}"
    )
    if args.write and moved:
        CASES_PATH.write_text(json.dumps(cases, indent=2) + "\n", encoding="utf-8")
    return 1 if moved and not args.write else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    raise SystemExit(main())
