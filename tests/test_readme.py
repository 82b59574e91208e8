"""README's library examples call only names the package exports."""

import re
from pathlib import Path

import friedrichs

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_names_resolve():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    names = {name for block in blocks for name in re.findall(r"\bfr\.(\w+)", block)}
    assert names
    assert sorted(name for name in names if not hasattr(friedrichs, name)) == []
