"""Every public name of the package computes something the package or the benchmark reads.

A name that ``ionphonon/__init__.py`` exports must be read somewhere other
than its own definition: by a package module (as a name or an attribute),
by the benchmark's full-space workload as ``ip.<name>`` (``bench/workloads.py``,
parsed as ``tests/test_tracing_targets.py`` parses it), or be one of the
paper's closed forms that stay public although only tests read them.  A
check that only tests call belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import ionphonon

PACKAGE = Path(ionphonon.__file__).parent
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

# the paper's closed forms, public as statements of its results
CLOSED_FORMS = {"critical_kappa", "coupling_f", "mode_vectors_linear", "phase_operator"}


def exported(init_source: str) -> list[str]:
    """The names that ``__init__``'s ``from .module import ...`` lines export."""
    return [alias.asname or alias.name for node in ast.walk(ast.parse(init_source))
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _reads(tree: ast.AST, name: str) -> bool:
    """Whether ``tree`` reads ``name`` as a name or attribute outside a
    definition of that name."""
    if isinstance(tree, (ast.FunctionDef, ast.ClassDef)) and tree.name == name:
        return False
    if (isinstance(tree, ast.Name) and tree.id == name) or (
            isinstance(tree, ast.Attribute) and tree.attr == name):
        return True
    return any(_reads(child, name) for child in ast.iter_child_nodes(tree))


def unread_exports(init_source: str, modules: dict[str, str], workloads_source: str) -> list[str]:
    """The exported names that no package module (by source, ``__init__``
    left out), no ``ip.<name>`` of the workloads and no closed form accounts for."""
    trees = [ast.parse(source) for source in modules.values()]
    bench = {node.attr for node in ast.walk(ast.parse(workloads_source))
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "ip"}
    return [name for name in exported(init_source)
            if name not in CLOSED_FORMS and name not in bench
            and not any(_reads(tree, name) for tree in trees)]


def _package_sources() -> tuple[str, dict[str, str]]:
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    return modules.pop("__init__"), modules


def test_every_public_name_is_read_outside_the_tests():
    init, modules = _package_sources()
    assert len(exported(init)) > 30
    assert unread_exports(init, modules, WORKLOADS.read_text(encoding="utf-8")) == []


def test_a_test_only_export_is_caught():
    # a check whose only callers are tests, exported as a refactor might add
    # one: a new helper in bloch, whose recursive call is a read inside its
    # own definition, and a kept one that only the tracer names
    init, modules = _package_sources()
    modules["bloch"] += "\n\ndef planted_check(n):\n    return planted_check(n - 1) if n else 0\n"
    init += "from .bloch import planted_check\nfrom .freeparticle import thermal_p_squared\n"
    workloads = WORKLOADS.read_text(encoding="utf-8")
    assert unread_exports(init, modules, workloads) == ["planted_check", "thermal_p_squared"]
    # a read from another package module, or from the workloads, accounts for it
    modules["cli"] += "\n_PLANTED = planted_check\n"
    workloads += "\nip.thermal_p_squared\n"
    assert unread_exports(init, modules, workloads) == []
