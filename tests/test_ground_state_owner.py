"""The classical ground state has one owner, ``chain.solve_delta0``.

A function of the package works the equilibrium out from its config
(``solve_delta0(config)``) or is given it (a parameter named ``eq``), never
both, so no caller can pair a config with another config's ground state.
Only ``chain`` keeps it: no other module puts a ``functools.cache`` or
``lru_cache`` around a call to ``solve_delta0``.  This walks each package
module's AST.
"""

import ast
from pathlib import Path

import pytest

import ionphonon

PACKAGE = Path(ionphonon.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
MEMOS = {"cache", "lru_cache"}


def _name(node) -> str | None:
    return getattr(node, "attr", getattr(node, "id", None))


def reads_solve(node) -> bool:
    """Whether ``solve_delta0`` is named anywhere in ``node``, by name or as an attribute."""
    return any(_name(child) == "solve_delta0" for child in ast.walk(node))


def is_memo(node) -> bool:
    """Whether ``node`` is ``cache`` or ``lru_cache``, called with settings or not."""
    return _name(node.func if isinstance(node, ast.Call) else node) in MEMOS


def faults(source: str, module: str) -> list[str]:
    """``module.function`` of every function that both has a parameter ``eq`` and
    calls ``solve_delta0``, and outside ``chain``, of every memo around such a call."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.FunctionDef):
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if "eq" in params and reads_solve(node):
                found.append(f"{where}: given eq and solving it")
            if module != "chain" and any(map(is_memo, node.decorator_list)) \
                    and reads_solve(node):
                found.append(f"{where}: a memo of solve_delta0")
        if module != "chain" and isinstance(node, ast.Call) and is_memo(node.func) \
                and any(map(reads_solve, node.args)):
            found.append(f"{where}: a memo of solve_delta0")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def package_faults(planted: dict[str, str] | None = None) -> list[str]:
    """:func:`faults` over the package, with ``planted[module]`` appended to that module."""
    return [fault for path in MODULES for fault in faults(
        path.read_text() + (planted or {}).get(path.stem, ""), path.stem)]


def test_the_ground_state_has_one_owner():
    assert package_faults() == []


@pytest.mark.parametrize("module", ["bloch", "observables", "cli"])
@pytest.mark.parametrize("copy, where", [
    ("def planted(config, eq=None):\n    return eq or solve_delta0(config)\n", "planted"),
    ("class Planted:\n    def __init__(self, config, *, eq):\n"
     "        self.eq = chain.solve_delta0(config) if eq is None else eq\n",
     "Planted.__init__"),
], ids=["function", "method"])
def test_a_function_given_eq_may_not_solve_it(module, copy, where):
    # the old optional eq, as a refactor might bring it back
    assert package_faults({module: "\n\n" + copy}) == [
        f"{module}.{where}: given eq and solving it"]


@pytest.mark.parametrize("module", ["bloch", "observables", "cli"])
def test_a_function_that_solves_or_is_given_eq_passes(module):
    planted = ("\n\ndef solves(config):\n    eq = solve_delta0(config)\n    return eq\n"
               "\n\ndef given(config, eq):\n    return eq.delta0\n")
    assert package_faults({module: planted}) == []


@pytest.mark.parametrize("module", ["chain", "observables", "cli"])
@pytest.mark.parametrize("copy, where", [
    ("@functools.lru_cache(maxsize=64)\ndef _delta0(chain):\n"
     "    return solve_delta0(chain).delta0\n", "_delta0"),
    ("@cache\ndef _delta0(chain):\n    return chain_module.solve_delta0(chain)\n", "_delta0"),
    ("_delta0 = functools.cache(lambda chain: solve_delta0(chain))\n", ""),
    ("_delta0 = functools.lru_cache(maxsize=8)(solve_delta0)\n", ""),
], ids=["lru_cache-decorator", "cache-decorator", "cached-lambda", "cached-function"])
def test_a_second_memo_is_caught_outside_chain(module, copy, where):
    # a second keeper of the equilibrium, as the CLI once held; chain's own
    # memo is the one owner
    want = [] if module == "chain" else [f"{module}{'.' if where else ''}{where}: "
                                         f"a memo of solve_delta0"]
    assert package_faults({module: "\n\n" + copy}) == want
