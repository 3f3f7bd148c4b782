"""Static checks over the library's source."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kvcachelab

MODULES = sorted(Path(kvcachelab.__file__).parent.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


# __init__.py imports names to export them, not to use them
@pytest.mark.parametrize("path", [p for p in MODULES + TEST_MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported_names(tree)) - used) == []


def _private_sibling_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("kvcachelab")):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.endswith("__"):
                    yield f"{node.module or '.'}.{alias.name}"


def test_no_module_imports_a_private_name_from_a_sibling():
    # a private name belongs to its module; a sibling that needs it needs a public function
    found = {
        path.name: sorted(_private_sibling_imports(ast.parse(path.read_text(encoding="utf-8"))))
        for path in MODULES
    }
    assert {name: names for name, names in found.items() if names} == {}


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


def _read_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _assigns_all(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return any(isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == "__all__"
               for node in ast.walk(tree))


def test_the_package_table_is_the_only_export_list():
    # _EXPORTS names every export; a module's own __all__ would be a second list to keep equal
    assert [path.name for path in MODULES if _assigns_all(path)] == ["__init__.py"]


def test_every_export_is_used_by_the_library():
    # a public name that no library module reads is code that no command runs
    exported = {name for names in kvcachelab._EXPORTS.values() for name in names}
    used = {
        name
        for path in MODULES
        if path.name != "__init__.py"
        for name in _read_names(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert sorted(exported - used) == []


def test_cli_import_leaves_the_theory_lab_unloaded():
    # the decode commands never use the lab, so starting the CLI must not load
    # it, however the CLI or the JSON codec is imported
    for statement in ("import kvcachelab.cli", "from kvcachelab import cli", "from kvcachelab import jsontrace"):
        code = (
            f"import sys; {statement}; "
            "print(sorted(m for m in sys.modules if m in ('kvcachelab.regression', 'kvcachelab.submodular')))"
        )
        assert _fresh_python(code) == ["[]"], statement


_UNUSED_BY_BINARY_TRACES = ("kvcachelab.jsontrace", "kvcachelab.regression", "kvcachelab.submodular")


def _modules_after_main(*commands):
    """The modules of ``_UNUSED_BY_BINARY_TRACES`` that a fresh interpreter holds after ``cli.main`` runs each command."""
    code = (
        "import sys; import kvcachelab.cli as cli\n"
        f"for argv in {[list(map(str, c)) for c in commands]!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        f"print(*sorted(m for m in sys.modules if m in {_UNUSED_BY_BINARY_TRACES!r}))"
    )
    return _fresh_python(code)


def test_binary_trace_commands_leave_the_json_codec_and_the_lab_unloaded(tmp_path):
    # simulate and compare on a KVT1 trace run no JSON reader and no theory lab
    trace = tmp_path / "t.kvt"
    kvcachelab.save_trace(kvcachelab.generate_trace(kvcachelab.SyntheticTraceSpec(n=48, d=8, seed=5)), trace)
    assert _modules_after_main(
        ["simulate", "--trace", trace, "--out-dir", tmp_path / "sim"],
        ["compare", "--trace", trace, "--policies", "h2o,local", "--out-dir", tmp_path / "cmp"],
    ) == []
    # a JSON trace loads the codec, and nothing else of the three
    json_trace = tmp_path / "t.json"
    kvcachelab.save_trace(kvcachelab.load_trace(trace), json_trace)
    assert _modules_after_main(["profile", "--trace", json_trace, "--out-dir", tmp_path / "prof"]) == [
        "kvcachelab.jsontrace"
    ]


def test_lab_exports_resolve_on_first_use():
    from kvcachelab import GREEDY_RATIO, newton_solve
    from kvcachelab.regression import newton_solve as direct

    assert newton_solve is direct
    assert 0 < GREEDY_RATIO < 1
    from kvcachelab import regression, submodular

    for lab in (regression, submodular):
        # the package's table names each lab export, so a lookup imports only its home
        for name in kvcachelab._EXPORTS[lab.__name__.rpartition(".")[2]]:
            assert getattr(kvcachelab, name) is getattr(lab, name)
    with pytest.raises(AttributeError):
        kvcachelab.no_such_name


def _fresh_python(code, **env):
    """Run ``code`` in a fresh interpreter with ``OPENBLAS_NUM_THREADS`` unset, plus ``env``."""
    src = str(Path(kvcachelab.__file__).parent.parent)
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(base, PYTHONPATH=src, **env), timeout=60, check=True)
    return done.stdout.split()


_PIN_PROBE = (
    "import os, kvcachelab.cli; "
    "task = '/proc/self/task'; "
    "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir(task)) if os.path.isdir(task) else -1)"
)


def test_cli_runs_one_blas_thread_by_default():
    value, threads = _fresh_python(_PIN_PROBE)
    assert value == "1"
    if threads == "-1":
        pytest.skip("no /proc/self/task to count threads")
    assert threads == "1"


def test_cli_keeps_the_users_blas_thread_count():
    # OpenBLAS caps threads at the CPU count, so only the setting is checked
    value, _ = _fresh_python(_PIN_PROBE, OPENBLAS_NUM_THREADS="2")
    assert value == "2"


def test_package_import_loads_no_numpy_and_no_submodule():
    code = "import sys, kvcachelab; print(*sorted(m for m in sys.modules if m == 'numpy' or m.startswith('kvcachelab.')))"
    assert _fresh_python(code) == []
    # a submodule still resolves as a package attribute without importing it first
    assert _fresh_python("import kvcachelab; print(kvcachelab.metrics.__name__)") == ["kvcachelab.metrics"]


# the decode names the package exports, by the module that defines them
EAGER_EXPORTS = {
    "errors": ["KVCacheLabError"],
    "metrics": ["DeviationReport", "HeavyHitterProfile", "deviation_reports", "heavy_hitter_profile", "trace_sparsity"],
    "policies": ["POLICY_KINDS", "PolicyConfig", "decide", "run_policies", "run_policy"],
    "trace": ["AttentionTrace", "SyntheticTraceSpec", "generate_trace", "load_trace", "save_trace"],
}


def test_decode_exports_resolve_to_their_defining_objects():
    star = {}
    exec("from kvcachelab import *", star)
    for module_name, names in EAGER_EXPORTS.items():
        module = importlib.import_module(f"kvcachelab.{module_name}")
        assert getattr(kvcachelab, module_name) is module
        for name in names:
            assert getattr(kvcachelab, name) is getattr(module, name)
            assert star[name] is getattr(module, name)
    assert sorted(kvcachelab.__all__) == sorted(n for names in EAGER_EXPORTS.values() for n in names)
