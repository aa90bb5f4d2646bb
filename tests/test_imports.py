"""Module boundaries of the package: no module imports another's private
names, only thresholds passes a solve its previous roots, splitting writes
the density's power of n once, each Gamma value is computed in one place,
the package exports exactly its layer modules' __all__, every public name
has a caller or a README line, and importing the package loads none of the
heavy standard modules."""

import ast
import json
import pathlib
import re
import subprocess
import sys

import rieszdrop

SRC = pathlib.Path(rieszdrop.__file__).parent
README = pathlib.Path(__file__).parents[1] / "README.md"


def test_no_private_cross_module_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "rieszdrop":
                continue
            found += [
                f"{path.name}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert not found, found


def test_root_history_lives_in_thresholds():
    # thresholds.walk is the one grid walk: it keeps the previous roots and
    # warm-starts each solve from them, so no other module passes _prev
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "thresholds.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                found += [f"{path.name}:{node.lineno}" for kw in node.keywords if kw.arg == "_prev"]
    assert not found, found


def test_density_is_written_once():
    # splitting builds every density from _coeffs, the one place that
    # raises n to (alpha - 2) / 2
    found = []
    tree = ast.parse((SRC / "splitting.py").read_text(encoding="utf-8"))
    for func in tree.body:
        for node in ast.walk(func):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Pow)
                and ast.unparse(node.right) == "(alpha - 2.0) / 2.0"
            ):
                found.append(getattr(func, "name", f"line {func.lineno}"))
    assert found == ["_coeffs"], found


def gamma_calls(node, where, found):
    # found[where] counts the calls to a function named gamma (gamma(...),
    # math.gamma(...)) in the function or method `where` and its nested code
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{where}.{child.name}" if ":" in where else f"{where}:{child.name}"
        elif isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "gamma":
                found[where] = found.get(where, 0) + 1
        gamma_calls(child, inner, found)


def test_each_gamma_value_is_written_once():
    # the per-exponent records compute every Gamma value a threshold or a
    # slope reads: DiskConstants the three of V0, AlphaConstants Gamma(1-a).
    # specfun._gamma_real is the one call of math.gamma under both
    found = {}
    for path in sorted(SRC.glob("*.py")):
        gamma_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem, found)
    assert found == {
        "splitting:DiskConstants.__init__": 3,
        "thresholds:AlphaConstants.__init__": 1,
        "specfun:_gamma_real": 1,
    }, found


def test_package_exports_the_layer_modules_lists():
    # each layer module's __all__ is the one declaration of a public name;
    # the package re-exports the same objects under the same names
    from rieszdrop import errors, specfun, splitting, thresholds, verify

    layers = (errors, specfun, splitting, thresholds, verify)
    assert rieszdrop.__all__ == ["__version__", *(n for m in layers for n in m.__all__)]
    assert len(set(rieszdrop.__all__)) == len(rieszdrop.__all__)
    for module in layers:
        for name in module.__all__:
            assert getattr(rieszdrop, name) is getattr(module, name), (module.__name__, name)


def test_every_public_name_has_a_caller_or_a_readme_line():
    # a public name stays only if the command line or the ledger calls it,
    # or the README names it as the paper quantity it computes; a name's
    # own def, a comment or a docstring is no caller
    callers = set()
    for path in (SRC / "cli.py", SRC / "verify.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                callers.add(node.id)
            elif isinstance(node, ast.Attribute):
                callers.add(node.attr)
    readme = README.read_text(encoding="utf-8")
    orphans = [
        name
        for name in rieszdrop.__all__
        if name != "__version__"
        and name not in callers
        and not re.search(rf"`{name}(\(.*?\))?`", readme)
    ]
    assert not orphans, orphans


def test_import_loads_no_introspection_modules():
    # dataclasses alone pulls in inspect, ast, dis and tokenize; a fresh
    # isolated interpreter shows what `import rieszdrop` itself adds
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import json, rieszdrop; print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC.parent)],
        capture_output=True, text=True, check=True,
    ).stdout
    added = set(json.loads(out))
    assert "rieszdrop" in added
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert not heavy & added, sorted(heavy & added)


def test_import_builds_no_parser():
    # the cli parser is built on the first main() call, not on import; a
    # fresh isolated interpreter counts every ArgumentParser constructed
    code = (
        "import argparse, sys; sys.path.insert(0, sys.argv[1]); built = [0]; "
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built[0] += 1; init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import rieszdrop.cli; on_import = built[0]; rieszdrop.cli.main(['--help'])\n"
        "print(on_import, built[0], file=sys.stderr)"
    )
    err = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC.parent)],
        capture_output=True, text=True, check=True,
    ).stderr
    # the parser and its five subcommand parsers, once main() runs
    assert err.split() == ["0", "6"]
