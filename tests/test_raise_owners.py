"""Each physical verdict is raised by its owners alone.

The instability, zero-mode and bare-frequency verdicts each have one owner
(``symplectic.check_spectrum``, ``symplectic.check_zero``,
``chain.bare_root``) that every path calls; the only other raise sites are
the checks that belong to no shared verdict.  This walks each package
module's AST and records, per error class, the functions whose own body
raises it by name (a raise in a nested function counts for that function).
"""

import ast
from pathlib import Path

import pytest

import ionphonon

PACKAGE = Path(ionphonon.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))

OWNERS = {
    "ZeroModeToleranceError": {"symplectic.check_spectrum", "symplectic.check_zero"},
    # build_quadratic_form checks its input Omega, which any caller may pass
    "BareInstabilityError": {"chain.bare_root", "symplectic.build_quadratic_form"},
    # z buckling before any form is built, and the linear chain's closed form
    "DynamicalInstabilityError": {"symplectic.check_spectrum", "chain.solve_delta0",
                                  "bloch.dispersion_linear"},
}


def raisers(source: str, module: str) -> dict[str, set[str]]:
    """``module.function`` of every function of ``source`` that raises each class of ``OWNERS``."""
    found = {name: set() for name in OWNERS}

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = f"{module}.{node.name}"
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name in found:
                found[name].add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), f"{module}.<module>")
    return found


def package_raisers(planted: dict[str, str] | None = None) -> dict[str, set[str]]:
    """:func:`raisers` over the package, with ``planted[module]`` appended to that module."""
    found = {name: set() for name in OWNERS}
    for path in MODULES:
        source = path.read_text() + (planted or {}).get(path.stem, "")
        for name, where in raisers(source, path.stem).items():
            found[name] |= where
    return found


def test_only_the_owners_raise_the_verdicts():
    assert package_raisers() == OWNERS


@pytest.mark.parametrize("module", ["bloch", "observables"])
@pytest.mark.parametrize("name", sorted(OWNERS))
def test_a_planted_raise_is_caught(module, name):
    # a second copy of a verdict, as a refactor might inline again, by name
    # and through the errors module
    planted = (f"\n\ndef planted(ok):\n    if not ok:\n        raise {name}('copy')\n"
               f"    def nested():\n        raise errors.{name}('copy')\n")
    found = package_raisers({module: planted})[name] - package_raisers()[name]
    assert found == {f"{module}.planted", f"{module}.nested"}
