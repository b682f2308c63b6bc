"""Each numeric-input rule has one owner, and every public numeric input goes through it.

``chain._check_positive_real`` owns the real rule (a real number, not a
bool, in (0, inf) or with ``allow_zero`` in [0, inf)) and ``chain._count``
the count rule (an integer, not a bool, of at least a minimum).  This walks
each package module's AST and records every comparison against ``np.inf``
or ``math.inf`` outside ``chain``, and every call of ``_is_integer`` outside
``chain`` and ``observables._check_sublattices`` (whose 0-or-1 rule names
both sublattices at once).  The behaviour tests feed each public input a
value the old copies let through or ended in a bare error.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import ionphonon
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


def second_owners(source: str, module: str) -> list[str]:
    """``module:line`` of every comparison against an ``inf`` attribute and every
    ``_is_integer`` call that ``module`` makes outside the owners."""
    if module == "chain":
        return []
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{module}.{node.name}"
        if isinstance(node, ast.Compare) and any(map(is_inf, [node.left, *node.comparators])):
            found.append(f"{module}:{node.lineno}")
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
