"""The README's examples print what they show.

CLI tour: each `$ fioa ...` command is split with `shlex`, run through
`fioa.cli.cli` from the repository root, and its stdout compared with the
lines under it, up to the next command or the end of the block.  A `...`
line, indented or not, stands for any run of lines.

Python API: the first `python` block runs as written, and each `print`
line ending in a `# value` comment must print exactly that value.
"""
from __future__ import annotations

import inspect
import re
import shlex
from pathlib import Path

import pytest

from fioa.cli import cli

ROOT = Path(__file__).resolve().parent.parent


def _tour() -> list[tuple[str, list[str]]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = text.split("\n## CLI tour\n", 1)[1].split("\n## ", 1)[0]
    commands: list[tuple[str, list[str]]] = []
    for block in re.findall(r"```text\n(.*?)```", tour, re.DOTALL):
        for line in block.splitlines():
            if line.startswith("$ fioa "):
                commands.append((line[len("$ fioa ") :], []))
            elif commands:
                commands[-1][1].append(line)
    return [(command, _trimmed(lines)) for command, lines in commands]


def _trimmed(lines: list[str]) -> list[str]:
    while lines and not lines[-1]:
        lines = lines[:-1]
    return lines


def _matches(expected: list[str], actual: list[str]) -> bool:
    if not expected:
        return not actual
    if expected[0].strip() == "...":
        return any(_matches(expected[1:], actual[i:]) for i in range(len(actual) + 1))
    return bool(actual) and actual[0] == expected[0] and _matches(expected[1:], actual[1:])


TOUR = _tour()


def test_the_tour_shows_every_command():
    assert len(TOUR) == 11
    assert all(expected for _, expected in TOUR)


@pytest.mark.parametrize("command, expected", TOUR, ids=[c for c, _ in TOUR])
def test_tour_command_prints_what_the_readme_shows(command, expected, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert cli(shlex.split(command)) in (0, 1)
    out = _trimmed(capsys.readouterr().out.splitlines())
    assert _matches(expected, out), "\n".join(out)


def test_the_python_api_block_prints_what_its_comments_show():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"\n## Python API\n.*?```python\n(.*?)```", text, re.DOTALL).group(1)
    expected = {
        n: m.group(1)
        for n, line in enumerate(block.splitlines(), 1)
        if (m := re.match(r"print\(.*\)\s+# (.+)$", line))
    }
    shown: dict[int, list[str]] = {}

    def record(*args):
        shown.setdefault(inspect.currentframe().f_back.f_lineno, []).append(" ".join(map(str, args)))

    exec(compile(block, "README.md", "exec"), {"print": record})
    assert len(expected) == 3
    assert {n: shown.get(n) for n in expected} == {n: [v] for n, v in expected.items()}
