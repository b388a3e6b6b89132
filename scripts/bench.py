#!/usr/bin/env python3
"""Scale benchmark: ringN network builds, one fresh interpreter per figure.

For each ring size a new Python process builds `examples.ring_document(n)`
with `fioa.dsl.resolve` and reports the ring's configurations, edges and
excited configurations, the build's wall seconds and the process's peak
resident memory (maxrss).  The counts must equal `KNOWN`; any other count
fails the run (exit 1), so `--quick` serves as a CI gate.  Only the
standard library is used, and `perfbench` is not imported.

    python scripts/bench.py --quick
    python scripts/bench.py --src OTHER/src --label parent --src src --label change \\
        --repeat 3 --out BENCH_20.json

Each `--src` is a source tree holding the `fioa` package (default: this
checkout's `src`), measured under the `--label` at the same position.
With `--repeat k` every figure is taken k times, each in its own process,
and the median is reported beside the samples.  The JSON written by
`--out` records the Python version, the CPU count and each tree's commit.
Compare times only within one machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# ring n: (configurations, edges, excited configurations).  2-4 are
# `RING_SIZES` in tests/test_network.py; 5-7 the ROADMAP's scale table.
KNOWN = {
    2: (170, 232, 122),
    3: (909, 1332, 693),
    4: (4212, 6480, 3348),
    5: (17955, 28620, 14715),
    6: (72414, 118584, 60750),
    7: (280665, 469476, 239841),
}

CHILD = """
import json, resource, sys, time
from fioa import examples
from fioa.dsl import resolve

n = int(sys.argv[1])
doc = examples.ring_document(n)
start = time.perf_counter()
g = resolve(doc).networks[f"ring{n}"].restricted.graph
seconds = time.perf_counter() - start
print(json.dumps({
    "configurations": len(g.nodes),
    "edges": g.edge_count,
    "excited": sum(c.pending is not None for c in g.nodes),
    "seconds": seconds,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def measure(src: Path, n: int) -> dict:
    """One ring build in a fresh interpreter importing `fioa` from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(n)], env=env, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out)


def commit_of(src: Path) -> dict:
    """The commit checked out at `src`, and whether its tree differs from it."""

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(src), *args], capture_output=True, text=True
        ).stdout.strip()

    return {"commit": git("rev-parse", "HEAD") or None, "dirty": bool(git("status", "--porcelain", "."))}


def bench(src: Path, sizes, repeat: int) -> dict:
    rings = {}
    for n in sizes:
        samples = [measure(src, n) for _ in range(repeat)]
        first = samples[0]
        if any((s["configurations"], s["edges"], s["excited"]) != KNOWN[n] for s in samples):
            got = sorted({(s["configurations"], s["edges"], s["excited"]) for s in samples})
            raise SystemExit(f"ring{n} from {src}: counts {got}, expected {KNOWN[n]}")
        rings[str(n)] = {
            "configurations": first["configurations"],
            "edges": first["edges"],
            "excited": first["excited"],
            "seconds": statistics.median(s["seconds"] for s in samples),
            "maxrss_mb": statistics.median(s["maxrss_mb"] for s in samples),
            "samples": [{"seconds": s["seconds"], "maxrss_mb": s["maxrss_mb"]} for s in samples],
        }
        print(
            f"ring{n}: {first['configurations']} configurations, {first['edges']} edges, "
            f"{first['excited']} excited, {rings[str(n)]['seconds']:.3f} s, "
            f"{rings[str(n)]['maxrss_mb']:.0f} MB",
            flush=True,
        )
    return rings


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--quick", action="store_true", help="stop at ring6")
    p.add_argument("--sizes", type=int, nargs="+", choices=sorted(KNOWN), help="ring sizes to build")
    p.add_argument("--src", type=Path, action="append", help="source tree holding fioa (repeatable)")
    p.add_argument("--label", action="append", help="name of the --src at the same position")
    p.add_argument("--repeat", type=int, default=1, help="fresh processes per figure")
    p.add_argument("--out", type=Path, help="write the figures as JSON here")
    args = p.parse_args(argv)
    srcs = args.src or [ROOT / "src"]
    labels = args.label or [f"tree{i + 1}" for i in range(len(srcs))]
    if len(labels) != len(srcs):
        p.error("give one --label per --src")
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    sizes = args.sizes or [n for n in KNOWN if n <= (6 if args.quick else 7)]
    report = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "sizes": sizes,
        "repeat": args.repeat,
        "runs": {},
    }
    for label, src in zip(labels, srcs):
        print(f"{label}:", flush=True)
        report["runs"][label] = {**commit_of(src), "rings": bench(src.resolve(), sizes, args.repeat)}
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
