"""Command line front end.

Five subcommands cover the library surface:

  eval      threshold quantities at one exponent, JSON
  sweep     threshold masses over an exponent range, CSV or JSON
  envelope  multi-component density table over a radius range, CSV or JSON
  alpha0    crossing exponent of the threshold ordering, JSON
  verify    run the inequality ledger, JSON report

Exit codes: 0 success, 1 usage or domain error, 2 ledger verification
failure, 3 sweep completed with some rows unsolved; each unsolved row
writes one stderr line naming its alpha and the stages that failed.
Floating point fields are written with 15 significant digits in CSV and
full round-trip precision in JSON; unsolved CSV fields read "nan" and JSON
ones are null.  The sweep and envelope tables come from one formatter,
which reads a table's values flat and row-major and fills a block template
of rows with one %; their bytes equal what json.dumps(rows, indent=2,
allow_nan=False) and csv.writer, with every number written "%.15g", give
for the same rows.  The envelope is held as six doubles a row, not as
text.  Every check that can fail (a row's own error, and for JSON one
finiteness pass over the whole table) runs before the output is opened,
and the text is then written one block at a time, so a failing row writes
no byte, and the envelope's peak memory is its numbers and one block of
text, about half its JSON output.

alpha0 --tol must be finite and at least 2**-52 (about 2.2e-16): below the
relative spacing of doubles no bracket can get narrow enough.

`python -m rieszdrop` runs the same command as `rieszdrop`.  main(argv)
may be called repeatedly in one process: it builds the argument parser on
its first call and reuses it, and `import rieszdrop.cli` builds none.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from functools import cache
from itertools import chain, islice, starmap
from typing import NoReturn

from .errors import BracketError, ConvergenceError, DomainError, check_alpha
from .splitting import envelope_rows
from .thresholds import MIN_REL_TOL, REL_TOL, m_at_crossing, solve_alpha0, walk
from .verify import run_ledger

__all__ = ["main", "entrypoint"]

_SWEEP_FIELDS = ("alpha", "m_c1", "m_2", "m_eps0", "m_eps1")
_ENVELOPE_FIELDS = ("R", "rho_1", "rho_2", "rho_3", "rho_min", "n_opt")
_INT_FIELDS = frozenset({"n_opt"})  # JSON "%d": held as doubles, exact below 2**53
_BLOCK_ROWS = 256  # table rows formatted per string


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which this tool reserves for
    # ledger failures; remap to 1
    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(texts: Iterable[str], out: str | None) -> None:
    # each string is written as it comes, so a lazy iterator of texts is
    # never held whole
    if out is None:
        sys.stdout.writelines(texts)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(texts)


def _json_text(payload: object) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _table_blocks(
    fields: tuple[str, ...], values: Sequence[float | int | None], fmt: str
) -> Iterator[str]:
    """The flat, row-major values as a CSV or JSON table with one column per
    field: a lazy iterator of the head, then of _BLOCK_ROWS rows at a time,
    the last block with the closing text.

    The joined strings equal json.dumps([dict(zip(fields, row)) ...],
    indent=2, allow_nan=False) plus a newline, or csv.writer output with
    every number written "%.15g", for the rows the values make.  Each block
    is one % on a block template built once.  JSON numbers are their repr
    (str and repr agree on float and int, and repr is what json writes),
    except that the _INT_FIELDS, which may be held as doubles, are written
    "%d"; CSV numbers are "%.15g".  None reads null or nan; an _INT_FIELDS
    value is never None.  values is a list, or an array("d") where no value
    is None, and only one block of its values and their text is held at a
    time.

    Every check runs before this returns, so a caller that writes the
    texts as they come writes no byte of a table that fails.  One pass sums
    every value.  The sum raises TypeError on a None, and in JSON a sum
    that is finite means every value is; a None or a sum that is not finite
    falls back to a value-by-value check, which raises json's own
    ValueError for the first non-finite number in row order.  A finite
    table whose sum overflows passes it and is written.  CSV writes a
    non-finite number as nan or inf.
    """
    width, size = len(fields), len(values)
    if fmt == "json":
        line = "  {\n" + ",\n".join(
            f"    {json.dumps(k)}: {'%d' if k in _INT_FIELDS else '%s'}" for k in fields
        ) + "\n  }"
        head, sep, tail, missing = "[\n", ",\n", "\n]\n", "null"
        if not size:
            return iter(["[]\n"])
    else:
        line = ",".join(["%.15g"] * width)
        head, sep, tail, missing = ",".join(fields) + "\n", "\n", "\n", math.nan
    try:
        finite, has_none = math.isfinite(sum(values)), False
    except TypeError:
        finite, has_none = False, True
    if fmt == "json" and not finite:
        for v in values:
            if v is not None and not math.isfinite(v):
                # json's own error, for the first value it could not write
                raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")

    step = _BLOCK_ROWS * width
    full = sep.join([line] * _BLOCK_ROWS) + sep

    def fill(start: int) -> str:
        chunk = tuple(values[start : start + step])
        if has_none and None in chunk:
            chunk = tuple(missing if v is None else v for v in chunk)
        if start + step < size:
            return full % chunk
        return (sep.join([line] * (len(chunk) // width)) + tail) % chunk

    return chain([head], map(fill, range(0, size, step)))


def _cmd_eval(args: argparse.Namespace) -> int:
    alpha = args.alpha
    check_alpha(alpha, "eval", 0.5, lo_open=True)
    k, (r0, eps0, eps1), (m_2, m_eps0, m_eps1), failures = next(walk([alpha], "eval"))
    if failures:
        raise failures[0]
    payload = {
        "alpha": alpha,
        "m_c1": k.m_c1,
        "R_c1": k.r_c1,
        "rho_c1": k.rho_c1,
        "m_2": m_2,
        "R_0": r0,
        "eps_0": eps0,
        "eps_1": eps1,
        "m_eps0": m_eps0,
        "m_eps1": m_eps1,
    }
    _emit([_json_text(payload)], args.out)
    return 0


def _sweep_rows(alphas: Iterable[float]) -> Iterator[tuple[float | None, ...]]:
    """The sweep rows at alphas, in order; None marks an unsolved field.

    The rows are one thresholds.walk: from the third row on, each root
    solve is warm-started from a prediction by the same root in up to the
    previous five rows, and an unsolved row starts that history over.
    alpha = 0 has a closed-form m_c1 but no solver thresholds.  Each
    unsolved row writes one stderr line naming its alpha and every stage
    that failed.
    """
    # alpha lies in [0, 0.5] (_cmd_sweep checks the range and clamps)
    for k, _, masses, failures in walk(alphas, "sweep"):
        yield (k.alpha, k.m_c1, *masses)
        if failures:
            print(
                f"rieszdrop: sweep: row alpha = {k.alpha!r} unsolved: "
                + "; ".join(map(str, failures)),
                file=sys.stderr,
            )


def _cmd_sweep(args: argparse.Namespace) -> int:
    lo, hi, steps = args.alpha_min, args.alpha_max, args.steps
    if steps < 2:
        raise DomainError(f"sweep: steps must be at least 2, got {steps}")
    if not 0.0 <= lo < hi <= 0.5:
        raise DomainError(
            f"sweep: need 0 <= alpha-min < alpha-max <= 0.5, got {lo} and {hi}"
        )
    # a grid point can overshoot alpha-max by an ulp; it keeps those bits,
    # except past 0.5, which solve_r0 rejects
    rows = list(_sweep_rows(min(lo + (hi - lo) * i / (steps - 1), 0.5) for i in range(steps)))
    _emit(_table_blocks(_SWEEP_FIELDS, list(chain.from_iterable(rows)), args.format), args.out)
    return 3 if any(None in row for row in rows) else 0


def _cmd_envelope(args: argparse.Namespace) -> int:
    alpha, r_max, steps = args.alpha, args.r_max, args.steps
    check_alpha(alpha, "envelope", 1, lo_open=True)
    if not r_max > 0.0:
        raise DomainError(f"envelope: r-max must be positive, got {r_max}")
    if steps < 1:
        raise DomainError(f"envelope: steps must be at least 1, got {steps}")

    from array import array  # loaded for this table only
    from struct import Struct

    radii = (r_max * i / steps for i in range(1, steps + 1))
    rows, values = envelope_rows(alpha, radii), array("d")
    # the table is held as six doubles a row, packed a block of rows at a
    # time (array's own extend parses each value on its own); every check
    # that can fail runs before the first byte is written, so a failing row
    # raises its own error first, naming the r-max it came from
    pack = Struct("d" * len(_ENVELOPE_FIELDS)).pack
    try:
        while block := b"".join(starmap(pack, islice(rows, _BLOCK_ROWS))):
            values.frombytes(block)
    except DomainError as exc:
        raise DomainError(f"{exc} (r-max {r_max})") from None
    _emit(_table_blocks(_ENVELOPE_FIELDS, values, args.format), args.out)
    return 0


def _cmd_alpha0(args: argparse.Namespace) -> int:
    tol = args.tol
    if not MIN_REL_TOL <= tol < math.inf:
        raise DomainError(
            f"alpha0: --tol must be at least 2**-52 = {MIN_REL_TOL!r} and finite, got {tol}"
        )
    a0 = solve_alpha0(tol)
    payload = {"alpha0": a0, "m_at_crossing": m_at_crossing(a0, tol), "tol": tol}
    _emit([_json_text(payload)], args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_ledger(alpha_max=args.alpha_max, grid=args.grid)
    _emit([_json_text(report)], args.out)
    return 0 if report["passed"] else 2


@cache
def _build_parser() -> _Parser:
    # built on the first main() call and kept: parse_args leaves the parser
    # as it was, and error and --help look up sys.stderr and sys.stdout
    # when they write
    parser = _Parser(
        prog="rieszdrop",
        description="Threshold masses and inequality checks for the planar "
        "perimeter-plus-Riesz droplet energy.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_eval = sub.add_parser("eval", help="threshold quantities at one exponent")
    p_eval.add_argument("--alpha", type=float, required=True, help="kernel exponent, in (0, 0.5]")
    p_eval.add_argument("--out", help="write JSON here instead of stdout")
    p_eval.set_defaults(handler=_cmd_eval)

    p_sweep = sub.add_parser("sweep", help="threshold masses over an exponent range")
    p_sweep.add_argument("--alpha-min", type=float, default=0.005)
    p_sweep.add_argument("--alpha-max", type=float, default=0.045)
    p_sweep.add_argument("--steps", type=int, default=81, help="grid points, endpoints included")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", help="write output here instead of stdout")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_env = sub.add_parser("envelope", help="per-component densities over a radius range")
    p_env.add_argument("--alpha", type=float, required=True, help="kernel exponent, in (0, 1]")
    p_env.add_argument("--r-max", type=float, default=2.0, dest="r_max")
    p_env.add_argument("--steps", type=int, default=400, help="radii R = r-max * i / steps")
    p_env.add_argument("--format", choices=("csv", "json"), default="csv")
    p_env.add_argument("--out", help="write output here instead of stdout")
    p_env.set_defaults(handler=_cmd_envelope)

    p_a0 = sub.add_parser("alpha0", help="crossing exponent of the threshold ordering")
    p_a0.add_argument(
        "--tol", type=float, default=REL_TOL,
        help="relative bracket width that stops the crossing solve, at least 2**-52",
    )
    p_a0.add_argument("--out", help="write JSON here instead of stdout")
    p_a0.set_defaults(handler=_cmd_alpha0)

    p_ver = sub.add_parser("verify", help="machine-check the inequality ledger")
    p_ver.add_argument("--alpha-max", type=float, default=0.034)
    p_ver.add_argument("--grid", type=int, default=1000, help="exponent grid points")
    p_ver.add_argument("--out", help="write the JSON report here instead of stdout")
    p_ver.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.handler(args)
    except (DomainError, BracketError, ConvergenceError, OSError) as exc:
        print(f"rieszdrop: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> NoReturn:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
