"""The benchmark's hooks and imports name code that exists.

``bench/tracing.py`` wraps the package's functions by name and reads
attributes of their arguments, and the other ``bench`` modules import
package names.  A rename inside the package would leave a hook pointing at
nothing and silently zero its per-layer metrics, or crash a benchmark run
that tier-1 never makes, so the names are read from the benchmark's source
(parsed, not imported) and looked up here.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _tracer_source() -> ast.Module:
    return ast.parse(TRACING.read_text(encoding="utf-8"))


def _targets() -> list[tuple[str, str, str]]:
    for node in _tracer_source().body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TARGETS")


def test_every_target_resolves_in_the_package():
    targets = _targets()
    assert targets
    for module_name, attr, _ in targets:
        owner = importlib.import_module(f"ionphonon.{module_name}")
        *cls_name, name = attr.split(".")
        if cls_name:
            owner = getattr(owner, cls_name[0])
            # the tracer replaces the method found in the class's own dict
            assert name in vars(owner), f"{module_name}.{attr}"
        assert callable(getattr(owner, name)), f"{module_name}.{attr}"


def test_diagonalize_counter_reads_existing_form_attributes():
    from ionphonon.symplectic import QuadraticForm

    counter = next(node for node in ast.walk(_tracer_source())
                   if isinstance(node, ast.FunctionDef) and node.name == "_count_diagonalize")
    read = {node.attr for node in ast.walk(counter)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "form"}
    assert "dimension" in read
    for attr in read:
        assert hasattr(QuadraticForm, attr), f"QuadraticForm.{attr}"


def _resolve(module_name: str, name: str) -> None:
    module = importlib.import_module(module_name)
    if not hasattr(module, name):
        importlib.import_module(f"{module_name}.{name}")  # a submodule


def test_every_benchmark_import_resolves():
    imported = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "ionphonon":
                imported += [(node.module, alias.name) for alias in node.names]
    assert ("ionphonon.freeparticle", "adaptive_m_cut") in imported
    for module_name, name in imported:
        _resolve(module_name, name)


def _workloads_source() -> ast.Module:
    return ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))


def test_every_package_name_the_workloads_read_resolves():
    import ionphonon
    from ionphonon.symplectic import NormalForm

    names = {node.attr for node in ast.walk(_workloads_source())
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "ip"}
    assert "symplectic_diagonalize" in names
    for name in names:
        assert hasattr(ionphonon, name), f"ionphonon.{name}"
    # the full-space workload reads the normal form's rows as modes
    assert "modes" in vars(NormalForm)


def test_every_keyword_the_workloads_pass_is_a_parameter():
    import ionphonon

    calls = [node for node in ast.walk(_workloads_source())
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "ip"]
    passed = {(call.func.attr, kw.arg) for call in calls for kw in call.keywords}
    assert ("symplectic_diagonalize", "axis_map") in passed
    assert ("symplectic_diagonalize", "p_norm") in passed
    for name, keyword in passed:
        params = inspect.signature(getattr(ionphonon, name)).parameters
        assert keyword in params, f"ionphonon.{name}({keyword}=...)"


def test_zero_pair_fields_the_full_space_workload_reads_exist():
    from ionphonon.symplectic import ZeroModePair

    read = {node.attr for node in ast.walk(_workloads_source())
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "zp"}
    assert {"label", "m_tilde"} <= read
    fields = {f.name for f in dataclasses.fields(ZeroModePair)}
    for attr in read:
        assert attr in fields, f"ZeroModePair.{attr}"
