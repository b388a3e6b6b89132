#!/usr/bin/env python3
"""Scale benchmark: ringN and coordN network builds, one fresh interpreter
per figure.

For each ring size a new Python process builds `examples.ring_document(n)`
with `fioa.dsl.resolve` and reports the ring's configurations, edges and
excited configurations, the build's wall seconds and the process's peak
resident memory (maxrss).  For each coord size two more processes build
`coord<n>`, n users kept in pairwise mutual exclusion by n(n-1)
conditions on `mutex`'s machines: eager (states, kept transitions,
reachable states) and, as `coord<n>w`, wired to a server
(configurations, edges, excited configurations).  The counts must equal
`KNOWN` and `KNOWN_COORD`; any other count fails the run (exit 1), so
`--quick` serves as a CI gate.  Only the standard library is used, and
`perfbench` is not imported.

    python scripts/bench.py --quick
    python scripts/bench.py --src OTHER/src --label parent --src src --label change \\
        --repeat 3 --out BENCH_21.json

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

# coord n: eager (states, kept transitions, reachable states) and wired
# (configurations, edges, excited configurations).
KNOWN_COORD = {
    5: {"eager": (1024, 4245, 648), "wired": (1296, 3348, 648)},
    6: {"eager": (4096, 19890, 2187), "wired": (4374, 12879, 2187)},
}
COUNTS = {
    "ring": ("configurations", "edges", "excited"),
    "eager": ("states", "transitions", "reachable"),
    "wired": ("configurations", "edges", "excited"),
}

# The coord network is written out here, from the `.pw` model every
# compared tree shares, rather than taken from a helper that an older tree
# may lack: condition mx_i_j denies u<j> entering crit while u<i> is in
# crit, and wired, u0 also talks to a server over both service channels.
CHILD = """
import json, resource, sys, time
from dataclasses import replace
from fioa import examples, reachable_states
from fioa.dsl import NetFactor, NetworkDef, resolve
from fioa.network import ChannelSpec, ConditionSpec

kind, n = sys.argv[1], int(sys.argv[2])
if kind == "ring":
    doc, name = examples.ring_document(n), f"ring{n}"
else:
    name = f"coord{n}" + ("w" if kind == "wired" else "")
    factors = [NetFactor(f"u{i}", "User") for i in range(n)]
    channels = ()
    if kind == "wired":
        factors.append(NetFactor("c", "Server"))
        channels = (ChannelSpec("u0", "svc", "c", "svc"), ChannelSpec("c", "svc", "u0", "svc"))
    conditions = tuple(
        ConditionSpec(f"mx_{i}_{j}", ("crit", "try"), ("crit", "crit"), on=(f"u{i}", f"u{j}"))
        for i in range(n) for j in range(n) if i != j
    )
    net = NetworkDef(name, tuple(factors), channels, conditions)
    doc = replace(examples.document("mutex"), networks=(net,), directives=())
start = time.perf_counter()
built = resolve(doc).networks[name]
seconds = time.perf_counter() - start
if kind == "eager":
    a = built.automaton
    counts = (len(a.states), len(a.transitions), len(reachable_states(a)))
else:
    g = built.restricted.graph
    counts = (len(g.nodes), g.edge_count, sum(c.pending is not None for c in g.nodes))
print(json.dumps({
    "counts": counts,
    "seconds": seconds,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def measure(src: Path, kind: str, n: int) -> dict:
    """One build in a fresh interpreter importing `fioa` from `src`: a ring
    (`kind` "ring") or a coord network ("eager" or "wired")."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, kind, str(n)], env=env, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out)


def commit_of(src: Path) -> dict:
    """The commit checked out at `src`, and whether its tree differs from it."""

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(src), *args], capture_output=True, text=True
        ).stdout.strip()

    return {"commit": git("rev-parse", "HEAD") or None, "dirty": bool(git("status", "--porcelain", "."))}


def figure(src: Path, kind: str, n: int, known: tuple, repeat: int) -> dict:
    """`repeat` builds of one network, checked against `known`: its counts
    by name, the median seconds and maxrss, and every sample."""
    samples = [measure(src, kind, n) for _ in range(repeat)]
    got = sorted({tuple(s["counts"]) for s in samples})
    if got != [known]:
        raise SystemExit(f"{kind} {n} from {src}: counts {got}, expected {known}")
    out = dict(zip(COUNTS[kind], known))
    out["seconds"] = statistics.median(s["seconds"] for s in samples)
    out["maxrss_mb"] = statistics.median(s["maxrss_mb"] for s in samples)
    out["samples"] = [{"seconds": s["seconds"], "maxrss_mb": s["maxrss_mb"]} for s in samples]
    name = {"ring": f"ring{n}", "eager": f"coord{n}", "wired": f"coord{n}w"}[kind]
    counts = ", ".join(f"{v} {k}" for k, v in zip(COUNTS[kind], known))
    print(f"{name}: {counts}, {out['seconds']:.3f} s, {out['maxrss_mb']:.0f} MB", flush=True)
    return out


def bench(src: Path, sizes, coord_sizes, repeat: int) -> dict:
    rings = {str(n): figure(src, "ring", n, KNOWN[n], repeat) for n in sizes}
    coord = {
        str(n): {kind: figure(src, kind, n, KNOWN_COORD[n][kind], repeat) for kind in ("eager", "wired")}
        for n in coord_sizes
    }
    return {"rings": rings, "coord": coord}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--quick", action="store_true", help="stop at ring6 and coord5")
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
    coord_sizes = [n for n in KNOWN_COORD if n <= (5 if args.quick else 6)]
    report = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "sizes": sizes,
        "coord_sizes": coord_sizes,
        "repeat": args.repeat,
        "runs": {},
    }
    for label, src in zip(labels, srcs):
        print(f"{label}:", flush=True)
        report["runs"][label] = {**commit_of(src), **bench(src.resolve(), sizes, coord_sizes, args.repeat)}
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
