"""Checks on the package source itself."""

import ast
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


def test_benchmark_sweep_stages_name_functions_of_the_sweep():
    # perfbench traces the sweep's stages by name: a renamed stage would
    # silently read 0 in every benchmark run instead of failing
    spans = Path(__file__).parents[1] / "perfbench" / "spans.py"
    stages = next(
        ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SWEEP_STAGES"
    )
    tree = ast.parse((SRC / "_sweep.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert stages and all(name.startswith("sweep.") for name in stages)
    assert {name.removeprefix("sweep.") for name in stages} <= defined
