"""The package root exports what the README uses, and the README's
library example runs as written."""
import contextlib
import io
import pathlib
import re

import vnfplan

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_imports(text: str) -> set[str]:
    names: set[str] = set()
    for match in re.finditer(r"^from vnfplan import (\([^)]*\)|[^\n]+)", text, re.M):
        names.update(name.strip() for name in match.group(1).strip("()").split(",")
                     if name.strip())
    return names


def _library_example(text: str) -> str:
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_every_exported_name_resolves():
    assert len(set(vnfplan.__all__)) == len(vnfplan.__all__)
    for name in vnfplan.__all__:
        assert getattr(vnfplan, name) is not None, name


def test_readme_imports_are_exported():
    names = _readme_imports(README.read_text(encoding="utf-8"))
    assert names
    assert names <= set(vnfplan.__all__)


def test_readme_library_example_runs():
    code = _library_example(README.read_text(encoding="utf-8"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    objectives = out.getvalue().split()
    assert len(objectives) == 2
    assert all(float(value) > 0.0 for value in objectives)
