"""Each numeric-input rule has one owner, and every public numeric input goes through it.

``chain._check_positive_real`` owns the real rule (a real number, not a
bool, in (0, inf) or with ``allow_zero`` in [0, inf)) and ``chain._count``
the count rule (an integer, not a bool, of at least a minimum).  This walks
each package module's AST and records every comparison against ``np.inf``
or ``math.inf`` outside ``chain``, and every call of ``_is_integer`` outside
``chain`` and ``observables._check_sublattices`` (whose 0-or-1 rule names
both sublattices at once).  In ``cli`` it also records every ``if`` that
raises on a bound of its own: an ordering comparison of a ``RunConfig``
attribute against a number, or ``isfinite`` of anything but the omega
bounds (a frequency may be zero or negative, so no owner takes one).  The
behaviour tests feed each public input a value the old copies let through
or ended in a bare error.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import ionphonon
from ionphonon import cli
from ionphonon.chain import ChainConfig
from ionphonon.freeparticle import thermal_energy_and_heat
from ionphonon.observables import (
    CorrelatorRequest,
    PhononField,
    ginzburg_parameter,
    heat_capacity,
    susceptibility,
)

PACKAGE = Path(ionphonon.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
INTEGER_READERS = {"observables._check_sublattices"}


def is_inf(node) -> bool:
    """Whether ``node`` is ``<name>.inf`` (``np.inf``, ``math.inf``)."""
    return isinstance(node, ast.Attribute) and node.attr == "inf"


# the RunConfig attributes: one per dest of the parser
CLI_DESTS = {action.dest for action in cli._parser()._actions}
ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def is_number(node) -> bool:
    """Whether ``node`` is a numeric literal (``2``, ``0.0``, ``-1``), not a bool."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def is_cli_bound(node) -> bool:
    """Whether ``node`` compares a ``RunConfig`` attribute with a number by
    order, or takes ``isfinite`` of anything but an omega bound."""
    if isinstance(node, ast.Compare) and any(isinstance(op, ORDERINGS) for op in node.ops):
        operands = [node.left, *node.comparators]
        return (any(map(is_number, operands))
                and any(isinstance(o, ast.Attribute) and o.attr in CLI_DESTS for o in operands))
    if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "isfinite":
        return not any(isinstance(a, ast.Attribute) and a.attr in ("omega_min", "omega_max")
                       for a in node.args)
    return False


def second_owners(source: str, module: str) -> list[str]:
    """``module:line`` of every comparison against an ``inf`` attribute and every
    ``_is_integer`` call that ``module`` makes outside the owners, and of every
    bound (``is_cli_bound``) in the test of an ``if`` in ``cli`` that raises."""
    if module == "chain":
        return []
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{module}.{node.name}"
        if isinstance(node, ast.Compare) and any(map(is_inf, [node.left, *node.comparators])):
            found.append(f"{module}:{node.lineno}")
        if (module == "cli" and isinstance(node, ast.If)
                and any(isinstance(s, ast.Raise) for s in node.body)):
            found.extend(f"{module}:{n.lineno}" for n in ast.walk(node.test) if is_cli_bound(n))
        if (isinstance(node, ast.Call) and where not in INTEGER_READERS
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "_is_integer"):
            found.append(f"{module}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def package_second_owners(planted: dict[str, str] | None = None) -> list[str]:
    """:func:`second_owners` over the package, with ``planted[module]`` appended to that module."""
    return [where for path in MODULES for where in second_owners(
        path.read_text() + (planted or {}).get(path.stem, ""), path.stem)]


def test_each_input_rule_has_one_owner():
    assert package_second_owners() == []


def planted_line(module: str, offset: int) -> str:
    """``module:line`` of the line ``offset`` lines past the end of ``module``."""
    return f"{module}:{len((PACKAGE / f'{module}.py').read_text().splitlines()) + offset}"


@pytest.mark.parametrize("module", ["chain", "bloch", "freeparticle", "observables"])
@pytest.mark.parametrize("copy", ["not 0.0 <= t < np.inf", "t >= math.inf",
                                  "np.inf > t", "_is_integer(t) and t >= 1",
                                  "chain._is_integer(t)"])
def test_a_planted_copy_is_caught_outside_chain(module, copy):
    # a second spelling of either rule, as a new observable might bring back
    planted = f"\n\ndef planted(t):\n    return {copy}\n"
    want = [] if module == "chain" else [planted_line(module, 4)]
    assert package_second_owners({module: planted}) == want


@pytest.mark.parametrize("module", ["bloch", "observables"])
def test_only_observables_check_sublattices_may_test_integers(module):
    # the exemption is one function of one module, not a name
    planted = "\n\ndef _check_sublattices(s):\n    return _is_integer(s)\n"
    want = [] if module == "observables" else [planted_line(module, 4)]
    assert package_second_owners({module: planted}) == want


@pytest.mark.parametrize("copy", ["self.k_points < 2", "not rc.eta > 0.0", "1 > self.t_steps",
                                  "self.max_separation <= -1", "0.0 < self.t_min < self.t_max",
                                  "not math.isfinite(self.eta)", "not math.isfinite(value)",
                                  "self.command == 'x' and not np.isfinite(self.lam)"])
def test_a_planted_bound_is_caught_in_cli(copy):
    # the bounds validate once spelled itself, and the loop that checked
    # every float for finiteness
    planted = f"\n\ndef planted(self, value):\n    if {copy}:\n        raise UsageError(value)\n"
    assert package_second_owners({"cli": planted}) == [planted_line("cli", 4)]


@pytest.mark.parametrize("test, body", [
    ("not math.isfinite(self.omega_max)", "raise UsageError(rows)"),
    ("self.t_min >= self.t_max", "raise UsageError(rows)"),
    ("self.t_steps != 1 and not self.t_min < self.t_max", "raise UsageError(rows)"),
    ("len(rows) > 256", "raise UsageError(rows)"),
    ("self.k_points < 2", "return rows"),
])
def test_the_clis_own_rules_are_no_copies(test, body):
    # finite omega bounds and increasing grids are the CLI's; so is any
    # bound on a value that is no RunConfig attribute, or one that raises nothing
    planted = f"\n\ndef planted(self, rows):\n    if {test}:\n        {body}\n"
    assert package_second_owners({"cli": planted}) == []


def test_other_uses_of_inf_are_no_copies():
    # np.inf as a fill value or an initial minimum compares nothing
    planted = "\n\ndef planted(a, m):\n    return np.where(m, np.inf, a).min(initial=np.inf)\n"
    assert package_second_owners({"observables": planted}) == []


# ---------------------------------------------------------------------------
# behaviour: a named ValueError for each input the old copies took or left bare

@pytest.fixture(scope="module")
def ring_field():
    return PhononField(ChainConfig(kappa=0.6, n_ions=16))


def refused(name: str, value) -> str:
    """A ``match`` for the ValueError that names ``name`` and ``value`` as given."""
    return rf"^{name} must .*got {re.escape(repr(value))}$"


# True used to pass as 1; "0.3" ended in a bare TypeError
NOT_REALS = [True, "0.3"]


@pytest.mark.parametrize("temperature", NOT_REALS)
def test_a_temperature_must_be_a_real_number(ring_field, temperature):
    calls = [lambda: heat_capacity(temperature, ring_field),
             lambda: CorrelatorRequest(0, temperature=temperature),
             lambda: thermal_energy_and_heat(ring_field.sectors()[0], temperature)]
    for call in calls:
        with pytest.raises(ValueError, match=refused("temperature", temperature)):
            call()


@pytest.mark.parametrize("eta", NOT_REALS)
def test_eta_must_be_a_real_number(ring_field, eta):
    with pytest.raises(ValueError, match=refused("eta", eta)):
        susceptibility([0.1], ("y", 0), ring_field, eta=eta)


@pytest.mark.parametrize("temperature", [0.3, np.float64(0.3), np.float32(0.5), 1, np.int64(2)])
def test_python_and_numpy_reals_are_temperatures(ring_field, temperature):
    assert heat_capacity(temperature, ring_field) == heat_capacity(float(temperature), ring_field)


def test_a_susceptibility_component_is_an_axis_and_a_sublattice(ring_field):
    # ("y",) used to end in a bare unpacking error
    with pytest.raises(ValueError, match=re.escape("component must be (x|y|z, 0|1), got ('y',)")):
        susceptibility([0.1], ("y",), ring_field)


@pytest.mark.parametrize("n", [50.5, "64", True])
def test_a_ginzburg_ring_size_is_checked_as_given(n):
    # 50.5 and "64" used to run as N = 50 and N = 64 through int(n)
    with pytest.raises(ValueError, match=refused("n_ions", n)):
        ginzburg_parameter(ChainConfig(kappa=0.6), [n])


def test_a_numpy_ring_size_runs_as_its_int():
    cfg = ChainConfig(kappa=0.6)
    (n, value), = ginzburg_parameter(cfg, [np.int64(50)])
    assert type(n) is int and (n, value) == ginzburg_parameter(cfg, [50])[0]
