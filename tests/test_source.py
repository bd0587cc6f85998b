"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import reidemeister

SRC = Path(reidemeister.__file__).parent


def test_invariants_do_not_rely_on_assert():
    # `python -O` strips assert statements; invariant checks raise
    # InvariantViolation instead, which the CLI maps to its own exit code
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno} raise AssertionError")
    assert found == []


def test_every_error_class_has_a_raiser():
    # an error class that nothing in the package raises is dead public API
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    assert sorted(classes - raised) == ["ReidemeisterError"]


def test_every_private_helper_has_a_caller():
    # a module-level _name function or class that nothing in the package
    # refers to, other than its own body, is code with no caller: it moves
    # to tests/reference.py or goes
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))
            }
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name.startswith("_"):
                defined.append(f"{path.name}:{top.name}")
                names.discard(top.name)
            referenced |= names
    assert len(defined) > 50
    assert [name for name in defined if name.split(":")[1] not in referenced] == []


def test_cli_main_handles_only_the_base_error_and_exception():
    # exit codes 2-5 and 7 come from the error classes, not from a list in main
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    handled = [
        ast.unparse(handler.type)
        for node in ast.walk(main) if isinstance(node, ast.Try)
        for handler in node.handlers
    ]
    assert handled == ["ReidemeisterError", "Exception"]


def _spans_assignments():
    # the top-level assignments of perfbench/spans.py, read without importing it
    spans = Path(__file__).parents[1] / "perfbench" / "spans.py"
    return {
        ast.unparse(node.targets[0]): node.value
        for node in ast.parse(spans.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
    }


def _functions(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_benchmark_sweep_stages_name_functions_of_the_sweep():
    # perfbench traces the sweep's functions by name: a renamed one would
    # silently read 0 in every benchmark run instead of failing.  Every
    # SWEEP_STAGES name and every reidemeister._sweep entry of TRACED must
    # name a top-level function of _sweep
    assigned = _spans_assignments()
    stages = ast.literal_eval(assigned["SWEEP_STAGES"])
    traced = [
        fn for module, fn in ast.literal_eval(assigned["TRACED"]) if module == "reidemeister._sweep"
    ]
    defined = set(_functions("_sweep.py"))
    assert stages and all(name.startswith("sweep.") for name in stages)
    assert {name.removeprefix("sweep.") for name in stages} <= defined
    assert "triple_check" in traced and set(traced) <= defined


def test_benchmark_oracle_spans_name_functions_of_the_oracle():
    # share.oracle_reference sums the oracle's traced spans: a renamed
    # count would read 0 there instead of failing
    traced = [
        fn for module, fn in ast.literal_eval(_spans_assignments()["TRACED"])
        if module == "reidemeister.oracle"
    ]
    assert {"brute_fixed_points", "twisted_class_count"} <= set(traced)
    assert set(traced) <= set(_functions("oracle.py"))


def _referenced_names(tree):
    # every name, attribute and imported module or name below an AST node
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
        elif isinstance(node, ast.alias):
            yield node.name


def test_oracle_counts_do_not_reach_the_sweep():
    # the element-level counts anchor the sweep's kernel, so they must not
    # share its code; only oracle_spectrum, which runs a sweep, imports it
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    reaching = {
        getattr(top, "name", ast.unparse(top))
        for top in tree.body
        if any("_sweep" in name for name in _referenced_names(top))
    }
    assert reaching == {"oracle_spectrum"}


def test_package_import_does_not_load_numpy():
    # numpy adds about 0.13 s to start-up; the package loads it only with
    # _sweep (the cli) or inside the element-level counts of the oracle
    code = "import sys, reidemeister; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_unregistered_marker_fails_collection(tmp_path):
    # a misspelt `@pytest.mark.slow` would put a long cell into tier-1
    test = tmp_path / "test_marker.py"
    test.write_text("import pytest\n\n\n@pytest.mark.slw\ndef test_x():\n    pass\n")
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(config), "--rootdir", str(tmp_path), str(test)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "'slw' not found in `markers`" in proc.stdout
