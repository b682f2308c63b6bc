"""The benchmark tracer's hooks name code that exists.

``bench/tracing.py`` wraps the package's functions by name and reads
attributes of their arguments.  A rename inside the package would leave a
hook pointing at nothing and silently zero its per-layer metrics, so the
names are read from the tracer's source (parsed, not imported) and looked
up here.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
