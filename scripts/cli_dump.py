#!/usr/bin/env python3
"""Run every fioa command on every name of the shipped corpus; print what each answers.

Each command runs in-process through `fioa.cli.cli`.  For every one the dump
prints the argv (paths relative to the repository root), the exit code,
stdout and stderr.  A change that keeps every CLI answer leaves the dump
byte-identical, so two dumps compare with `diff`:

    python scripts/cli_dump.py > before.txt
    # ...change the code...
    python scripts/cli_dump.py > after.txt
    diff before.txt after.txt

`scripts/cli_dump.sha256` holds the SHA-256 of the dump under
`PYTHONHASHSEED=0`, and CI checks it:

    PYTHONHASHSEED=0 python scripts/cli_dump.py | sha256sum -c scripts/cli_dump.sha256

A change that changes a CLI answer says so by updating that digest.

The commands: per file `validate` and `product` of its first two
automata; per automaton or network name `cbr`, `dot`, the four graph
`check` kinds, `run --seed 1 --bound 12`, `run --scheduler exhaustive
--bound 6`, `safety --predicate "pending is not None"` and `equiv NAME
NAME`; per network name `cond` and `check unaffected`; and once, after
every file, `laws all --seeds 3`, `laws separation` and `examples list`.
Only the standard library and `fioa` are used.
"""

from __future__ import annotations

import io
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fioa.cli import cli  # noqa: E402
from fioa.dsl import load  # noqa: E402

CHECKS = ("wellformed", "consistent", "protocol", "quasidet")


def commands(path: str):
    """Every argv the dump runs on one corpus file, in a fixed order."""
    doc = load(path)
    automata = [a.name for a in doc.automata]
    yield ["validate", path]
    yield ["product", path, *automata[:2]]
    networks = [n.name for n in doc.networks]
    for name in automata + networks:
        yield ["cbr", path, name]
        if name in networks:
            yield ["cond", path, name]
        yield ["dot", path, name]
        for kind in CHECKS:
            yield ["check", kind, path, name]
        if name in networks:
            yield ["check", "unaffected", path, name]
        yield ["run", path, name, "--seed", "1", "--bound", "12"]
        yield ["run", path, name, "--scheduler", "exhaustive", "--bound", "6"]
        yield ["safety", path, name, "--predicate", "pending is not None"]
        yield ["equiv", path, name, name]


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    paths = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "src/fioa/corpus").glob("*.pw"))
    write = sys.stdout.write
    os.chdir(ROOT)  # argv names each file by its path relative to the root
    once = (["laws", "all", "--seeds", "3"], ["laws", "separation"], ["examples", "list"])
    for argv in chain((argv for path in paths for argv in commands(path)), once):
        code, out, err = run(argv)
        write(f"$ fioa {shlex.join(argv)}\nexit {code}\n")
        write(f"--- stdout\n{out}--- stderr\n{err}\n")


if __name__ == "__main__":
    main()
