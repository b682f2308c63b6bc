"""The README's library quickstart runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library quickstart)", "exec"), {})
    assert "modes," in capsys.readouterr().out
