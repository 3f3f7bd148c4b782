"""Static checks over the library's source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kvcachelab

MODULES = sorted(Path(kvcachelab.__file__).parent.glob("*.py"))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


# __init__.py imports names to export them, not to use them
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported_names(tree)) - used) == []


def _raised_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_every_error_class_is_raised():
    errors = next(p for p in MODULES if p.name == "errors.py")
    declared = {
        node.name
        for node in ast.parse(errors.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef) and node.name != "KVCacheLabError"
    }
    raised = {
        name
        for path in MODULES
        if path != errors
        for name in _raised_names(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert sorted(declared - raised) == []


def test_cli_import_leaves_the_theory_lab_unloaded():
    # the decode commands never use the lab, so starting the CLI must not load it
    code = (
        "import sys, kvcachelab.cli; "
        "print(sorted(m for m in sys.modules if m in ('kvcachelab.regression', 'kvcachelab.submodular')))"
    )
    src = str(Path(kvcachelab.__file__).parent.parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_lab_exports_resolve_on_first_use():
    from kvcachelab import GREEDY_RATIO, newton_solve
    from kvcachelab.regression import newton_solve as direct

    assert newton_solve is direct
    assert 0 < GREEDY_RATIO < 1
    from kvcachelab import regression, submodular

    for lab in (regression, submodular):
        for name in lab.__all__:
            assert getattr(kvcachelab, name) is getattr(lab, name)
    with pytest.raises(AttributeError):
        kvcachelab.no_such_name
