"""Module boundaries of the package: no module imports another's private
names, only thresholds.walk warm-starts a solve from its previous roots,
errors.finite is the one rule for a result past double range,
splitting writes the density's power of n once, each Gamma value is
computed in one place, the solve tolerance 1e-12 is written once, the
package exports exactly its layer modules' __all__, every public name has
a caller or a README line, importing the package loads none of the heavy
standard modules, the command line loads no argparse and no mpmath, and
only the envelope subcommand loads array."""

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


def owned_nodes():
    # (node, "module.py:function") for every node of the package, with the
    # innermost function around its line: ast.walk is breadth first, so a
    # nested function overwrites its outer one
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(range(func.lineno, func.end_lineno + 1), func.name))
        for node in ast.walk(tree):
            yield node, f"{path.name}:{owner.get(getattr(node, 'lineno', 0), '<module>')}"


def test_root_history_lives_in_thresholds():
    # thresholds.walk is the one grid walk: it keeps the previous roots and
    # passes a prediction from them to _warm, once per root, so no other
    # code warm-starts a solve, and no solve takes a prediction (_prev)
    found = []
    for node, where in owned_nodes():
        if isinstance(node, (ast.arg, ast.keyword)) and node.arg == "_prev":
            found.append(f"{where} names _prev")
        elif isinstance(node, ast.Call):
            callee = node.func
            if getattr(callee, "id", None) == "_warm" or getattr(callee, "attr", None) == "_warm":
                found.append(f"{where} calls _warm")
    assert found == ["thresholds.py:walk calls _warm"] * 3, found


def test_out_of_range_results_have_one_rule():
    # errors.finite is the one rule for a result past double range: only it
    # and envelope_rows, whose per-row check is inline, raise "out of double
    # range", and only gamma and disk_potential catch OverflowError (see
    # their docstrings and comments for why)
    raisers, catchers = set(), set()
    for node, where in owned_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            if any(
                isinstance(part, ast.Constant) and "out of double range" in str(part.value)
                for part in ast.walk(node.exc)
            ):
                raisers.add(where)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            if "OverflowError" in {getattr(n, "id", None) for n in ast.walk(node.type)}:
                catchers.add(where)
    assert raisers == {"errors.py:finite", "splitting.py:envelope_rows"}, raisers
    assert catchers == {"specfun.py:gamma", "specfun.py:disk_potential"}, catchers


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


def test_solve_tolerance_is_written_once():
    # thresholds.REL_TOL is the one written form of the solve tolerance;
    # every default, the command line's --tol included, reads it
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1e-12:
                found.append(f"{path.name}:{node.lineno}")
    assert len(found) == 1, found


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
    # In specfun, math.gamma is the one Gamma call: gamma wraps it, and the
    # Gamma ratio of hyp2f1's kernel calls it once per factor
    found = {}
    for path in sorted(SRC.glob("*.py")):
        gamma_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem, found)
    assert found == {
        "splitting:DiskConstants.__init__": 3,
        "thresholds:AlphaConstants.__init__": 1,
        "specfun:gamma": 1,
        "specfun:_gamma_ratio": 4,
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


def test_cli_loads_no_argparse(tmp_path):
    # the command line reads its argv from one table: argparse, and the
    # gettext and locale it pulls in, cost about 0.4 MB of peak memory and
    # 2.3 ms of start-up, and building its six parsers 0.3 MB and 3.0 ms
    # more.  mpmath is test code only: the two-point ledger rests on the
    # interval certificate in tests/monotone.py, which the runtime never
    # reads.  A fresh isolated interpreter shows that none of them loads on
    # import, on any subcommand or on --help
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); out = sys.argv[2]\n"
        "heavy = ('argparse', 'gettext', 'locale', 'mpmath'); import json\n"
        "loaded = lambda: [m for m in heavy if m in sys.modules]\n"
        "import rieszdrop.cli as cli; seen = [loaded()]\n"
        "for argv in (['eval', '--alpha', '0.034'], ['sweep', '--steps', '3'],\n"
        "             ['envelope', '--alpha', '0.04', '--steps', '10'], ['alpha0'],\n"
        "             ['verify', '--grid', '10']):\n"
        "    assert cli.main(argv + ['--out', out]) == 0, argv\n"
        "    seen.append(loaded())\n"
        "sys.stdout = open(out, 'w'); assert cli.main(['--help']) == 0; seen.append(loaded())\n"
        "sys.stdout = sys.__stdout__; print(json.dumps(seen))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC.parent), str(tmp_path / "out")],
        capture_output=True, text=True, check=True,
    ).stdout
    # after the import, after each of the five and after --help
    assert json.loads(out) == [[]] * 7


def test_array_loads_only_for_envelope(tmp_path):
    # the envelope holds its table in an array of doubles; no other
    # subcommand loads the array module, which cost the ledger workload
    # about 0.1 MB of peak memory when cli imported it at module level
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); out = sys.argv[2]\n"
        "import rieszdrop.cli as cli; seen = ['array' in sys.modules]\n"
        "for argv in (['eval', '--alpha', '0.034'], ['sweep', '--steps', '3'],\n"
        "             ['alpha0'], ['verify', '--grid', '10']):\n"
        "    assert cli.main(argv + ['--out', out]) == 0, argv\n"
        "    seen.append('array' in sys.modules)\n"
        "assert cli.main(['envelope', '--alpha', '0.04', '--steps', '10', '--out', out]) == 0\n"
        "seen.append('array' in sys.modules); import json; print(json.dumps(seen))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC.parent), str(tmp_path / "out")],
        capture_output=True, text=True, check=True,
    ).stdout
    # after the import, after each of the four, after the envelope
    assert json.loads(out) == [False] * 5 + [True]
