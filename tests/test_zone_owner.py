"""The reduced zone's cell length has one owner.

``bloch.CELL_LENGTH`` (2d) and ``bloch.ZONE_EDGE`` (pi / 2d) are the only
spellings of the cell length and the zone edge in the package, and
``bloch._zone_steps`` the only product of pi and an ``arange`` in ``bloch``.
It is not the only zone grid there: ``reduced_zone_grid`` builds its edge
grid with ``np.linspace`` and its midpoint grid from a step of ``ZONE_EDGE``,
which this does not catch and which differ from ``_zone_steps`` in the last
bit.  This walks each package module's AST and records every place that
writes the edge as ``pi / 2`` (or ``pi / 2.0``) or names an attribute
``cell_length``, leaving out the owners' own definitions, and in ``bloch``
every product of pi and an ``arange`` (``np.pi * np.arange(n)``,
``2.0 * np.pi * np.arange(n)``).
"""

import ast
from pathlib import Path

import pytest

import ionphonon

PACKAGE = Path(ionphonon.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
OWNERS = {("bloch", "CELL_LENGTH"), ("bloch", "ZONE_EDGE")}


def is_zone_edge(node) -> bool:
    """Whether ``node`` is ``pi / 2`` or ``pi / 2.0``, pi as a name or an attribute."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and getattr(node.left, "attr", getattr(node.left, "id", None)) == "pi"
            and isinstance(node.right, ast.Constant) and node.right.value == 2)


def factors(node) -> list:
    """The factors of a product ``a * b * ...``; ``[node]`` if it is no product."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return factors(node.left) + factors(node.right)
    return [node]


def is_zone_grid(node) -> bool:
    """Whether ``node`` is a product of pi and an ``arange`` call, as a name or an attribute."""
    names = {getattr(f, "attr", getattr(f, "id", None))
             for f in (getattr(f, "func", f) for f in factors(node))}
    return {"pi", "arange"} <= names


def second_owners(source: str, module: str) -> list[str]:
    """``module:line`` of every zone edge or ``cell_length`` outside the owners' definitions,
    and of every bare zone grid (:func:`is_zone_grid`) in ``bloch``."""
    tree = ast.parse(source)
    owned = {id(node) for statement in tree.body if isinstance(statement, ast.Assign)
             and any((module, getattr(target, "id", None)) in OWNERS
                     for target in statement.targets)
             for node in ast.walk(statement)}
    return [f"{module}:{node.lineno}" for node in ast.walk(tree) if id(node) not in owned
            and (is_zone_edge(node) or module == "bloch" and is_zone_grid(node)
                 or isinstance(node, ast.Attribute) and node.attr == "cell_length")]


def package_second_owners(planted: dict[str, str] | None = None) -> list[str]:
    """:func:`second_owners` over the package, with ``planted[module]`` appended to that module."""
    return [where for path in MODULES for where in second_owners(
        path.read_text() + (planted or {}).get(path.stem, ""), path.stem)]


def test_the_cell_length_has_one_owner():
    assert package_second_owners() == []


def planted_line(module: str, offset: int) -> str:
    """``module:line`` of the line ``offset`` lines past the end of ``module``."""
    return f"{module}:{len((PACKAGE / f'{module}.py').read_text().splitlines()) + offset}"


@pytest.mark.parametrize("module", ["bloch", "observables"])
@pytest.mark.parametrize("copy", ["np.pi / 2", "np.pi / 2.0", "math.pi/2",
                                  "field.couplings.cell_length"])
def test_a_planted_copy_is_caught(module, copy):
    # a second spelling of the edge or the length, as a refactor might bring back
    planted = f"\n\ndef planted(field):\n    return {copy}\n"
    assert package_second_owners({module: planted}) == [planted_line(module, 4)]


@pytest.mark.parametrize("module", ["bloch", "observables"])
def test_only_bloch_may_define_the_edge(module):
    # the owners' own definitions are left out in bloch alone
    planted = "\n\nZONE_EDGE = np.pi / 2.0\n"
    want = [] if module == "bloch" else [planted_line(module, 3)]
    assert package_second_owners({module: planted}) == want


@pytest.mark.parametrize("module", ["bloch", "observables"])
@pytest.mark.parametrize("copy", ["k0 + np.pi * np.arange(n) / n", "2.0 * np.pi * np.arange(n) / n",
                                  "np.arange(n) * math.pi"])
def test_a_planted_zone_grid_is_caught_in_bloch(module, copy):
    # a bare zone grid beside bloch._zone_steps; other modules keep their own
    # (chain's full-zone site momenta)
    planted = f"\n\ndef planted(k0, n):\n    return {copy}\n"
    want = [planted_line("bloch", 4)] if module == "bloch" else []
    assert package_second_owners({module: planted}) == want
