"""Mutation survey: how many small faults in src/rieszdrop/ the tests catch.

    python tests/mutants.py --modules cli --count 0 --seed 1

Each mutation site is one operator or literal: `<`/`<=`, `>`/`>=`,
`==`/`!=`, `+`/`-`, `*`/`/`, `and`/`or` are swapped, and a nonzero float
literal is scaled by 1 + 1e-6.  The sites of the named modules are listed in source
order; --count N draws N of them with random.Random(--seed), and 0 takes
every site.  Each mutant is written into one copy of the checkout in a
temporary directory, and tier-1 (`python -m pytest -x -q`) runs against it:
a failing run kills the mutant.  Mutants are made from that copy's source,
so editing the checkout during a run does not change them.  The tool
prints one line per mutant, then the kill rate and each survivor.

EQUIVALENT lists mutants no test can kill, keyed by module, the source text
of the mutated node and the mutation, not by line number, each with its
reason; they are run and reported apart.  tier-1 does not collect this
file (its name does not start with test_).
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rieszdrop"
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.Div, ast.Div: ast.Mult, ast.And: ast.Or, ast.Or: ast.And,
}
# (module, source text of the mutated node, mutation): why no test can kill it
EQUIVALENT = {
    ("cli", "has_none and None in chunk", "And -> Or"):
        "has_none only skips the scan: with or, a block without None is rebuilt unchanged",
}


def _ops(node: ast.AST) -> list[tuple[object, str]]:
    # (setter, mutation) for each way node can be mutated
    found = []
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS:
                new = SWAPS[type(op)]
                nth = f" #{i + 1}" if len(node.ops) > 1 else ""
                found.append((lambda n=node, i=i, new=new: n.ops.__setitem__(i, new()),
                              f"{type(op).__name__} -> {new.__name__}{nth}"))
    elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
        new = SWAPS[type(node.op)]
        found.append((lambda n=node, new=new: setattr(n, "op", new()),
                      f"{type(node.op).__name__} -> {new.__name__}"))
    elif isinstance(node, ast.Constant) and type(node.value) is float and node.value != 0.0:
        # 0.0 scales to itself, so it makes no mutant
        found.append((lambda n=node: setattr(n, "value", n.value * (1 + 1e-6)),
                      "float * (1 + 1e-6)"))
    return found


def sites(module: str) -> list[tuple[str, int, str, str]]:
    """(module, line, source text, mutation) of every site, in source order."""
    text = (SRC / f"{module}.py").read_text(encoding="utf-8")
    found = []
    for index, node in enumerate(ast.walk(ast.parse(text))):
        for _, mutation in _ops(node):
            segment = ast.get_source_segment(text, node) or ""
            found.append((module, node.lineno, " ".join(segment.split()), mutation, index))
    found.sort(key=lambda site: (site[1], site[4]))
    return [site[:4] for site in found]


def mutant_source(text: str, module: str, site: tuple[str, int, str, str]) -> str:
    """The module's source text with the one mutation of site applied."""
    tree = ast.parse(text)
    for node in ast.walk(tree):
        for apply, mutation in _ops(node):
            segment = " ".join((ast.get_source_segment(text, node) or "").split())
            if (module, node.lineno, segment, mutation) == site:
                apply()
                return ast.unparse(tree) + "\n"
    raise LookupError(site)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--modules", nargs="+", required=True, help="module names, e.g. cli")
    parser.add_argument("--count", type=int, default=0, help="sites to draw; 0 takes all")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    every = [site for module in args.modules for site in sites(module)]
    chosen = every
    if 0 < args.count < len(every):
        chosen = sorted(random.Random(args.seed).sample(every, args.count), key=every.index)
    killed, survivors, equivalent = 0, [], []
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_tmp"))
        for site in chosen:
            module = site[0]
            target = copy / "src" / "rieszdrop" / f"{module}.py"
            original = target.read_text(encoding="utf-8")
            target.write_text(mutant_source(original, module, site), encoding="utf-8")
            try:
                run = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                    cwd=copy, capture_output=True, text=True,
                    env=dict(os.environ, PYTHONPATH=str(copy / "src")),
                )
            finally:
                target.write_text(original, encoding="utf-8")
            dead = run.returncode != 0
            reason = EQUIVALENT.get((module, site[2], site[3]))
            print(f"{'killed ' if dead else 'SURVIVED'} {module}:{site[1]} {site[3]}: {site[2]}",
                  flush=True)
            if reason is not None:
                equivalent.append((site, dead, reason))
            elif dead:
                killed += 1
            else:
                survivors.append(site)
    counted = len(chosen) - len(equivalent)
    print(f"\n{killed} of {counted} mutants killed ({killed / max(counted, 1):.0%}); "
          f"{len(equivalent)} allowlisted as equivalent")
    for module, line, segment, mutation in survivors:
        print(f"survivor {module}:{line} {mutation}: {segment}")
    for (module, line, segment, mutation), dead, reason in equivalent:
        print(f"equivalent {module}:{line} {mutation}: {segment} ({reason})"
              + (" -- killed, so not equivalent" if dead else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
