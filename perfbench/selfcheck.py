#!/usr/bin/env python3
"""Show that the benchmark's checks can fire, and that it agrees with BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. The metric names and units in BENCHMARK.json are the ones run.py prints.
2. With ``--perturb`` (one expected value corrupted per workload) every
   workload reports ``failed > 0`` and ``correct: false``.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, LAYERS, OUT  # noqa: E402


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != list(END_TO_END):
        problems.append(f"end_to_end differs from run.py: {declared} vs {list(END_TO_END)}")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if declared != list(LAYERS):
        problems.append("per_layer differs from run.py LAYERS")

    for w in spec["workloads"]:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "0",
                "--seconds", "1", "--trace", "0", "--perturb"]
        p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        res = last_json(p.stdout)
        fired = res is not None and res["failed"] > 0 and res["correct"] is False
        print(f"perturbed {w['name']}: exit {p.returncode}, "
              f"failed {res and res['failed']} of {res and res['attempted']} -> {'fires' if fired else 'SILENT'}")
        if not fired:
            problems.append(f"perturbed {w['name']} was not caught")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, *spec["command"][1:], "--workload", spec["workloads"][0]["name"],
                "--seed", "0", "--seconds", "1", "--trace", "0"]
        p = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
        refused = p.returncode != 0 and last_json(p.stdout) is None
        print(f"without sources: exit {p.returncode} -> {'refuses' if refused else 'RAN'}")
        if not refused:
            problems.append("benchmark ran without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("selfcheck:", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
