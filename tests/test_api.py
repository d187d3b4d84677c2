"""The documented library surface: the README's Library snippet runs as written."""

import ast
import re
from pathlib import Path

import trispectral

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_snippet() -> str:
    text = README.read_text()
    section = text.split("## Library", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no ```python block under ## Library"
    return match.group(1)


def test_readme_library_snippet_runs():
    exec(compile(_library_snippet(), str(README), "exec"), {})


def test_exports_are_the_documented_names():
    documented = {
        alias.name
        for node in ast.walk(ast.parse(_library_snippet()))
        if isinstance(node, ast.ImportFrom) and node.module == "trispectral"
        for alias in node.names
    }
    assert documented == set(trispectral.__all__)
