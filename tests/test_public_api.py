"""The package root exports what the README uses, the README's library
example runs as written, and its `vnfplan solve` sample is what the CLI
prints."""
import contextlib
import io
import pathlib
import re
import shlex

import vnfplan
from vnfplan.cli import main

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


def _solve_sample(text: str) -> tuple[str, str, list[str]]:
    """The Command line section's gen command, its optimal solve command
    and the lines of its output sample before the `...`."""
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", section, re.M | re.S)
    commands = [line for lang, body in blocks if lang == "sh" for line in body.splitlines()]
    gen = next(c for c in commands if c.startswith("vnfplan gen "))
    solve = next(c for c in commands if c.endswith(" --method optimal"))
    sample = next(body for lang, body in blocks if not lang).split("\n...\n", 1)[0]
    return gen, solve, sample.splitlines()


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


def test_readme_solve_sample_matches_the_cli(tmp_path, monkeypatch, capsys):
    gen, solve, sample = _solve_sample(README.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(gen)[1:]) == 0
    capsys.readouterr()
    assert main(shlex.split(solve)[1:]) == 0
    assert sample and capsys.readouterr().out.splitlines()[:len(sample)] == sample
