"""Command line front end.

Five subcommands cover the library surface:

  eval      threshold quantities at one exponent, JSON
  sweep     threshold masses over an exponent range, CSV or JSON
  envelope  multi-component density table over a radius range, CSV or JSON
  alpha0    crossing exponent of the threshold ordering, JSON
  verify    run the inequality ledger, JSON report

Each command returns its exit code and its text, one JSON text or a
table's lazy blocks, and main alone writes that text: to stdout, or to the
file named by --out, which every command takes.  Exit codes: 0 success, 1
usage, domain or output error, 2 ledger verification failure, 3 sweep
completed with some rows unsolved; each unsolved row writes one stderr
line naming its alpha and the stages that failed.
Floating point fields are written with 15 significant digits in CSV and
full round-trip precision in JSON; unsolved CSV fields read "nan" and JSON
ones are null.  Every JSON text is filled in with % on templates built
once from its keys, and its bytes equal what json.dumps(payload, indent=2,
allow_nan=False) and a newline give: eval's and alpha0's objects in one %,
the ledger report in one % a check row and one for its head (each name and
claim quoted by json's own encode_basestring_ascii, so verify alone loads
json), and the sweep and envelope tables from one formatter, which reads a
table's values flat and row-major and fills a block template of rows,
whose CSV bytes equal csv.writer's with every number written "%.15g".  The
envelope is held as six doubles a row, not as text.  Every check that can
fail (a row's own error, and for JSON one finiteness pass over every
number, which raises json's own ValueError for the first non-finite one)
runs before the output is opened, and a table's text is then written one
block at a time, so a failing row or value writes no byte, and the
envelope's peak memory is its numbers and one block of text, about half
its JSON output.

alpha0 --tol must be finite and at least 2**-52 (about 2.2e-16): below the
relative spacing of doubles no bracket can get narrow enough.

`python -m rieszdrop` runs the same command as `rieszdrop`.  main(argv)
may be called repeatedly in one process.  It reads argv against one table
of commands and options, without argparse: `--name value`, `--name=value`
and any unique prefix of a name are accepted, the last of a repeated
option wins, and -h/--help prints a help text whose layout does not depend
on the terminal.  A usage error prints the usage line and argparse's
error text to stderr and exits 1.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Container, Iterable, Iterator, Sequence
from itertools import chain, islice, starmap
from operator import itemgetter
from typing import NoReturn

from .errors import BracketError, ConvergenceError, DomainError, check_alpha
from .splitting import envelope_rows
from .thresholds import MIN_REL_TOL, REL_TOL, m_at_crossing, solve_alpha0, walk
from .verify import run_ledger

__all__ = ["main", "entrypoint"]

_EVAL_FIELDS = (
    "alpha", "m_c1", "R_c1", "rho_c1", "m_2", "R_0", "eps_0", "eps_1", "m_eps0", "m_eps1"
)
_SWEEP_FIELDS = ("alpha", "m_c1", "m_2", "m_eps0", "m_eps1")
_ENVELOPE_FIELDS = ("R", "rho_1", "rho_2", "rho_3", "rho_min", "n_opt")
_INT_FIELDS = frozenset({"n_opt"})  # JSON "%d": held as doubles, exact below 2**53
_LEDGER_FIELDS = ("passed", "grid_points", "alpha_max", "eps_probe", "r_probe", "checks")
_CHECK_FIELDS = ("name", "claim", "attained", "bound", "margin", "pass", "worst_alpha")
_BLOCK_ROWS = 256  # table rows formatted per string
_Output = tuple[int, Iterable[str]]  # a command's exit code and the texts main writes


def _emit(texts: Iterable[str], out: str | None) -> None:
    # each string is written as it comes, so a lazy iterator of texts is
    # never held whole
    if out is None:
        sys.stdout.writelines(texts)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(texts)


def _object(keys: Iterable[str], depth: int = 0, ints: Container[str] = ()) -> str:
    """The template of the object json.dumps(indent=2) writes with keys, in
    order, nested depth levels down (its first line unindented): "%d" for
    the keys in ints and "%s" for every other value.  A key is a plain name,
    which json writes in double quotes as it is."""
    pad = "\n" + "  " * depth
    return "{" + ",".join(f'{pad}  "{k}": {"%d" if k in ints else "%s"}' for k in keys) + pad + "}"


_EVAL = _object(_EVAL_FIELDS) + "\n"
_ALPHA0 = _object(("alpha0", "m_at_crossing", "tol")) + "\n"
_LEDGER = _object(_LEDGER_FIELDS) + "\n"
_CHECK = "    " + _object(_CHECK_FIELDS, 2)
_BOOLS = ("false", "true")  # indexed by a bool


def _json_check(values: Iterable[float | int | None]) -> None:
    # json's own error, for the first value it could not write; None passes
    for v in values:
        if v is not None and not math.isfinite(v):
            raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")


def _json_object(template: str, values: tuple, numbers: Sequence[float] | None = None) -> str:
    """template % values, once the numbers in values (all of them by
    default) are ones json writes: one pass sums them, and only a sum that
    is not finite falls back to _json_check, which raises json's own
    ValueError for the first non-finite number in order.  str and repr
    agree on float and int, and repr is what json writes."""
    numbers = values if numbers is None else numbers
    if not math.isfinite(sum(numbers)):
        _json_check(numbers)
    return template % values


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
        line = "  " + _object(fields, 1, _INT_FIELDS)
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
        _json_check(values)

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


def _cmd_eval(alpha: float) -> _Output:
    check_alpha(alpha, "eval", 0.5, lo_open=True)
    k, (r0, eps0, eps1), (m_2, m_eps0, m_eps1), failures = next(walk([alpha], "eval"))
    if failures:
        raise failures[0]
    values = (alpha, k.m_c1, k.r_c1, k.rho_c1, m_2, r0, eps0, eps1, m_eps0, m_eps1)
    return 0, [_json_object(_EVAL, values)]


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


def _cmd_sweep(alpha_min: float, alpha_max: float, steps: int, format: str) -> _Output:
    if steps < 2:
        raise DomainError(f"sweep: steps must be at least 2, got {steps}")
    lo, hi = alpha_min, alpha_max
    if not 0.0 <= lo < hi <= 0.5:
        raise DomainError(
            f"sweep: need 0 <= alpha-min < alpha-max <= 0.5, got {lo} and {hi}"
        )
    # a grid point can overshoot alpha-max by an ulp; it keeps those bits,
    # except past 0.5, which solve_r0 rejects
    grid = (min(lo + (hi - lo) * i / (steps - 1), 0.5) for i in range(steps))
    values = list(chain.from_iterable(_sweep_rows(grid)))
    return 3 if None in values else 0, _table_blocks(_SWEEP_FIELDS, values, format)


def _cmd_envelope(alpha: float, r_max: float, steps: int, format: str) -> _Output:
    check_alpha(alpha, "envelope", 1.0, lo_open=True)
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
    return 0, _table_blocks(_ENVELOPE_FIELDS, values, format)


def _cmd_alpha0(tol: float) -> _Output:
    if not MIN_REL_TOL <= tol < math.inf:
        raise DomainError(
            f"alpha0: --tol must be at least 2**-52 = {MIN_REL_TOL!r} and finite, got {tol}"
        )
    a0 = solve_alpha0(tol)
    return 0, [_json_object(_ALPHA0, (a0, m_at_crossing(a0, tol), tol))]


def _cmd_verify(alpha_max: float, grid: int) -> _Output:
    """The ledger's exit code, and its report as json.dumps(report,
    indent=2, allow_nan=False) writes it, plus a newline: each name and
    claim quoted by the function json.dumps quotes it with, each bool
    written true or false."""
    from json.encoder import encode_basestring_ascii as quote  # loaded for this report only

    passed, points, *numbers, checks = itemgetter(*_LEDGER_FIELDS)(run_ledger(alpha_max, grid))
    rows = []
    for name, claim, got, bound, margin, ok, worst in map(itemgetter(*_CHECK_FIELDS), checks):
        numbers += got, bound, margin, worst
        rows.append(_CHECK % (quote(name), quote(claim), got, bound, margin, _BOOLS[ok], worst))
    table = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    # numbers begins with the head's three floats
    text = _json_object(_LEDGER, (_BOOLS[passed], points, *numbers[:3], table), numbers)
    return 0 if passed else 2, [text]


# command: (handler, help line, options), and option: (converter or a tuple
# of choices, default or ... where the option is required, help line); the
# handler takes each option as a keyword, its name without "--" and with "_"
# for "-", except the shared _OUT, which main reads
_COMMANDS = {
    "eval": (_cmd_eval, "threshold quantities at one exponent", {
        "--alpha": (float, ..., "kernel exponent, in (0, 0.5]")}),
    "sweep": (_cmd_sweep, "threshold masses over an exponent range", {
        "--alpha-min": (float, 0.005, ""),
        "--alpha-max": (float, 0.045, ""),
        "--steps": (int, 81, "grid points, endpoints included"),
        "--format": (("csv", "json"), "csv", "")}),
    "envelope": (_cmd_envelope, "per-component densities over a radius range", {
        "--alpha": (float, ..., "kernel exponent, in (0, 1]"),
        "--r-max": (float, 2.0, ""),
        "--steps": (int, 400, "radii R = r-max * i / steps"),
        "--format": (("csv", "json"), "csv", "")}),
    "alpha0": (_cmd_alpha0, "crossing exponent of the threshold ordering", {
        "--tol": (float, REL_TOL,
                  "relative bracket width that stops the crossing solve, at least 2**-52")}),
    "verify": (_cmd_verify, "machine-check the inequality ledger", {
        "--alpha-max": (float, 0.034, ""),
        "--grid": (int, 1000, "exponent grid points")}),
}
_OUT = {"--out": (str, None, "write the output here instead of stdout")}  # last in every command
_DESCRIPTION = (
    "Threshold masses and inequality checks for the planar perimeter-plus-Riesz\ndroplet energy.\n"
)


class _Usage(Exception):
    """The command line asks for usage text: args are the command, None for
    the top level, and the error message, None where it asks for help."""


def _is_value(arg: str) -> bool:
    # argparse's rule: an argument is an option unless it does not start
    # with "-", is "-" itself, is a negative number or holds a space
    return arg[:1] != "-" or arg == "-" or " " in arg or arg[1:].replace(".", "", 1).isdecimal()


def _convert(kind: object, value: str, name: str, command: str | None) -> object:
    """value read by kind, a converter or a tuple of the values allowed."""
    try:
        return kind[kind.index(value)] if isinstance(kind, tuple) else kind(value)
    except ValueError:
        choices = f" (choose from {', '.join(map(repr, kind))})" if isinstance(kind, tuple) else ""
        what = "choice" if choices else f"{kind.__name__} value"
        raise _Usage(command, f"argument {name}: invalid {what}: {value!r}{choices}") from None


def _parse(argv: Iterable[str]) -> tuple[str, dict[str, object]]:
    """The command argv names and its keyword arguments: its handler's and out.

    Options are read as argparse reads them: "--name value" or
    "--name=value", a unique prefix of the name (no name is a prefix of
    another), the last of a repeated option wins, and a value may not look
    like an option.  -h or --help raises _Usage for the help, and the first
    usage error met raises it for the error, except that a missing command
    or required option is named before an argument that names nothing.
    """
    command, options, values, unknown, args = None, {}, {}, [], iter(argv)
    for arg in args:
        # as in argparse, an argument whose text before any "=" spells an
        # option is that option, even where it holds a space
        name, eq, value = ("--help", "", "") if arg == "-h" else arg.partition("=")
        found = [o for o in ("--help", *options) if len(name) > 2 and o.startswith(name)]
        if len(found) > 1:
            raise _Usage(command, f"ambiguous option: {arg} could match {', '.join(found)}")
        if found == ["--help"]:
            raise _Usage(command, None)
        if found:
            # an option without "=" takes the next argument; argv's end reads as "--"
            if not eq and not _is_value(value := next(args, "--")):
                raise _Usage(command, f"argument {found[0]}: expected one argument")
            values[found[0]] = _convert(options[found[0]][0], value, found[0], command)
        elif command is None and _is_value(arg):
            command = _convert(tuple(_COMMANDS), arg, "command", None)
            options = _COMMANDS[command][2] | _OUT
        else:
            unknown.append(arg)
    missing = [o for o, (_, d, _) in options.items() if d is ... and o not in values]
    if command is None or missing:
        required = ", ".join(missing or ["command"])
        raise _Usage(command, f"the following arguments are required: {required}")
    if unknown:
        raise _Usage(None, f"unrecognized arguments: {' '.join(unknown)}")
    return command, {o[2:].replace("-", "_"): values.get(o, d) for o, (_, d, _) in options.items()}


def _listing(title: str, rows: list[tuple[str, str]]) -> str:
    width = max(len(name) for name, _ in rows)
    lines = (f"  {name:<{width}}  {text}".rstrip() + "\n" for name, text in rows)
    return f"\n{title}:\n" + "".join(lines)


def _help(command: str | None) -> tuple[str, str]:
    """The usage line of a command, or of the top level for None, and the
    rest of its help text: one line per command or option, in a fixed
    layout."""
    rows = [("-h, --help", "show this help message and exit")]
    if command is None:
        commands = _listing("commands", [(name, entry[1]) for name, entry in _COMMANDS.items()])
        text = f"\n{_DESCRIPTION}{commands}{_listing('options', rows)}"
        return "usage: rieszdrop [-h] command ...\n", text
    usage = [f"usage: rieszdrop {command} [-h]"]
    for option, (kind, default, text) in (_COMMANDS[command][2] | _OUT).items():
        meta = "{%s}" % ",".join(kind) if isinstance(kind, tuple) else option[2:].upper()
        rows.append((f"{option} {meta.replace('-', '_')}", text))
        usage.append(rows[-1][0] if default is ... else f"[{rows[-1][0]}]")
    return " ".join(usage) + "\n", _listing("options", rows)


def main(argv: Iterable[str] | None = None) -> int:
    try:
        command, kwargs = _parse(sys.argv[1:] if argv is None else argv)
        out = kwargs.pop("out")
        code, texts = _COMMANDS[command][0](**kwargs)
        _emit(texts, out)
        return code
    except _Usage as exc:
        command, message = exc.args
        usage, rest = _help(command)
        if message is None:
            sys.stdout.write(usage + rest)
            return 0
        prog = f"rieszdrop {command}" if command else "rieszdrop"
        sys.stderr.write(f"{usage}{prog}: error: {message}\n")
    except (DomainError, BracketError, ConvergenceError, OSError) as exc:
        print(f"rieszdrop: error: {exc}", file=sys.stderr)
    return 1


def entrypoint() -> NoReturn:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
