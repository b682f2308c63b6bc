"""Every name a package module imports is used in that module.

No linter ships with the test dependencies, so this walks each module's AST:
an imported name counts as used once it is read as a plain name (which
covers ``name.attr``, calls and annotations).  ``__init__`` is left out: its
imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

import ionphonon

PACKAGE = Path(ionphonon.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that nothing in it reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_modules_exist():
    assert {"bloch.py", "freeparticle.py", "observables.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("module, name", [
    ("bloch", "generator_pair"), ("observables", "CELL_AXIS_MAP"),
])
def test_a_stale_import_is_caught(module, name):
    # an import the module no longer reads, as a refactor might leave behind
    source = (PACKAGE / f"{module}.py").read_text()
    source = source.replace("import numpy as np\n",
                            f"import numpy as np\n\nfrom .stale import {name}\n", 1)
    assert unused_imports(source) == [name]
