"""The README's quickstart runs, its CLI synopsis matches the parser and it names
every public name of the package."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library quickstart)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert "94 modes, ['longitudinal', 'radial']" in lines


def test_cli_usage_block_lists_every_flag():
    from ionphonon.cli import _parser

    section = README.read_text(encoding="utf-8").split("## Command-line interface", 1)[1]
    usage = re.search(r"```\n(.*?)```", section, re.S).group(1)
    documented = set(re.findall(r"--[a-z][a-z-]*", usage))
    defined = set(_parser()._option_string_actions) - {"-h", "--help"}
    assert documented == defined


def test_every_public_name_is_in_the_readme():
    import ionphonon

    tree = ast.parse(Path(ionphonon.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(names) > 30
    text = README.read_text(encoding="utf-8")
    assert [name for name in names if not re.search(rf"\b{name}\b", text)] == []
