#!/usr/bin/env python3
"""Scale benchmark: ringN and coordN builds, and `fioa validate` on the corpus,
one fresh interpreter per figure.

For each ring size a new Python process builds `examples.ring_document(n)`
with `fioa.dsl.resolve` and reports the ring's configurations, edges and
excited configurations, the build's wall seconds and the process's peak
resident memory (maxrss).  For each coord size two more processes build
`coord<n>`, n users kept in pairwise mutual exclusion by n(n-1)
conditions on `mutex`'s machines: eager (states, kept transitions,
reachable states) and, as `coord<n>w`, wired to a server
(configurations, edges, excited configurations).  For each ring size up
to 6 one more process resolves the ring twice and times
`trace_equivalent` of the ring against its copy on its own: the verdict
must be `equal`, with a sufficient bound of the configuration count
squared.  (ring7 has no equivalence figure: the process would hold two
280,665-configuration graphs.)  For each ring size up to 6 a last
process builds the ring and times two queries separately, `edge_census`
and `export_dot`: the census must count every edge once and the DOT text
write one ` -> ` line per edge.  The counts must equal `KNOWN` and
`KNOWN_COORD`; any other count or verdict fails the run (exit 1), so
`--quick` serves as a CI gate.  For each corpus file, `python -m fioa
validate FILE` runs in its own process and reports its wall seconds from
launch to exit, interpreter start-up included, and its peak resident
memory; it must exit 0 and print no FAIL line.  Only the standard library
is used, and `perfbench` is not imported.

    python scripts/bench.py --quick
    python scripts/bench.py --src OTHER/src --label parent --src src --label change \\
        --repeat 3 --out BENCH_21.json

Each `--src` is a source tree holding the `fioa` package (default: this
checkout's `src`), measured under the `--label` at the same position.
With `--repeat k` every figure is taken k times per tree, each in its own
process, and the median is reported beside the samples.  The trees take
turns figure by figure, and which goes first flips on each repeat.  The
JSON written by `--out` records the Python version, the CPU count and
each tree's commit.  Compare times only within one machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The corpus files `fioa validate` is timed on, each taken from the tree
# measured.
CORPUS = sorted(p.name for p in (ROOT / "src" / "fioa" / "corpus").glob("*.pw"))

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
# ring n against its copy, for n up to `EQUIV_MAX`: (configurations,
# equal, sufficient bound), the last two always True and configurations
# squared.
EQUIV_MAX = 6
# ring n's queries, for n up to `QUERIES_MAX`: (census total, DOT edge
# lines), both the ring's edge count.
QUERIES_MAX = 6
COUNTS = {
    "ring": ("configurations", "edges", "excited"),
    "equiv": ("configurations", "equal", "sufficient_bound"),
    "queries": ("census_edges", "dot_edges"),
    "eager": ("states", "transitions", "reachable"),
    "wired": ("configurations", "edges", "excited"),
    "validate": (),
}

# The coord network is written out here, from the `.pw` model every
# compared tree shares, rather than taken from a helper that an older tree
# may lack: condition mx_i_j denies u<j> entering crit while u<i> is in
# crit, and wired, u0 also talks to a server over both service channels.
CHILD = """
import json, resource, sys, time
from dataclasses import replace
from fioa import edge_census, examples, export_dot, reachable_states, trace_equivalent
from fioa.dsl import NetFactor, NetworkDef, resolve
from fioa.network import ChannelSpec, ConditionSpec

kind, n = sys.argv[1], int(sys.argv[2])
parts = {}
if kind in ("ring", "equiv", "queries"):
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
if kind == "equiv":
    r, copy = built.restricted, resolve(doc).networks[name].restricted
    start = time.perf_counter()
    verdict = trace_equivalent(r, copy)
    seconds = time.perf_counter() - start
    counts = (len(r.graph.nodes), verdict.equal, verdict.sufficient_bound)
elif kind == "queries":
    r = built.restricted
    start = time.perf_counter()
    census = edge_census(r)
    parts["census_s"] = time.perf_counter() - start
    start = time.perf_counter()
    dot = export_dot(r)
    parts["dot_s"] = time.perf_counter() - start
    seconds = sum(parts.values())
    counts = (sum(census.values()), dot.count(" -> "))
elif kind == "eager":
    a = built.automaton
    counts = (len(a.states), len(a.transitions), len(reachable_states(a)))
else:
    g = built.restricted.graph
    counts = (len(g.nodes), g.edge_count, sum(c.pending is not None for c in g.nodes))
print(json.dumps({
    "counts": counts,
    "seconds": seconds,
    "parts": parts,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def measure(src: Path, kind: str, n: int) -> dict:
    """One figure in a fresh interpreter importing `fioa` from `src`: a
    ring build (`kind` "ring"), a coord network build ("eager" or
    "wired"), a ring against its copy ("equiv"), or a ring's census and
    DOT export ("queries", each timed in `parts`)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, kind, str(n)], env=env, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out)


def measure_validate(src: Path, name: str) -> dict:
    """`python -m fioa validate` on corpus file `name` of `src` in a fresh
    interpreter: wall seconds from launch to exit, and the process's own
    maxrss.  Anything but exit 0 with no FAIL line stops the run."""
    path = src / "fioa" / "corpus" / name
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "fioa", "validate", str(path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    with proc.stdout:
        out = proc.stdout.read()
    # `wait4` reaps the child with its own resource usage.
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode or any("FAIL" in line for line in out.splitlines()):
        raise SystemExit(f"fioa validate {path}: exit {proc.returncode}\n{out}")
    return {"counts": (), "seconds": seconds, "parts": {}, "maxrss_mb": usage.ru_maxrss / 1024}


def commit_of(src: Path) -> dict:
    """The commit checked out at `src`, and whether its tree differs from it."""

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(src), *args], capture_output=True, text=True
        ).stdout.strip()

    return {"commit": git("rev-parse", "HEAD") or None, "dirty": bool(git("status", "--porcelain", "."))}


def figure(label: str, kind: str, n: int, known: tuple, samples: list) -> dict:
    """One tree's samples of one figure, checked against `known`: its
    counts by name, the median seconds, parts and maxrss, and every sample."""
    got = sorted({tuple(s["counts"]) for s in samples})
    name = {
        "ring": f"ring{n}",
        "equiv": f"ring{n} equiv",
        "queries": f"ring{n} queries",
        "eager": f"coord{n}",
        "wired": f"coord{n}w",
        "validate": f"validate {n}",
    }[kind]
    if got != [known]:
        raise SystemExit(f"{name} from {label}: counts {got}, expected {known}")
    out = dict(zip(COUNTS[kind], known))
    out["seconds"] = statistics.median(s["seconds"] for s in samples)
    for part in samples[0]["parts"]:
        out[part] = statistics.median(s["parts"][part] for s in samples)
    out["maxrss_mb"] = statistics.median(s["maxrss_mb"] for s in samples)
    out["samples"] = [{"seconds": s["seconds"], **s["parts"], "maxrss_mb": s["maxrss_mb"]} for s in samples]
    shown = [f"{v} {k}" for k, v in zip(COUNTS[kind], known)]
    shown += [f"{out['seconds']:.3f} s"]
    shown += [f"{part} {out[part] * 1000:.1f} ms" for part in samples[0]["parts"]]
    shown += [f"{out['maxrss_mb']:.0f} MB"]
    print(f"{label} {name}: {', '.join(shown)}", flush=True)
    return out


def bench(trees: dict, sizes, coord_sizes, repeat: int) -> dict:
    """Every figure for every tree in `trees` (label: source tree).

    The trees take turns per figure, not one after another: each repeat
    builds the figure once per tree, and the tree that goes first flips
    from one repeat to the next, so drift on the machine falls on every
    tree alike.
    """
    runs = {
        label: {**commit_of(src), "rings": {}, "equiv": {}, "queries": {}, "coord": {}, "corpus": {}}
        for label, src in trees.items()
    }
    figures = [("ring", n, KNOWN[n]) for n in sizes]
    figures += [("equiv", n, (KNOWN[n][0], True, KNOWN[n][0] ** 2)) for n in sizes if n <= EQUIV_MAX]
    figures += [("queries", n, (KNOWN[n][1], KNOWN[n][1])) for n in sizes if n <= QUERIES_MAX]
    figures += [(kind, n, KNOWN_COORD[n][kind]) for n in coord_sizes for kind in ("eager", "wired")]
    figures += [("validate", name, ()) for name in CORPUS]
    order = list(trees)
    for kind, n, known in figures:
        samples: dict = {label: [] for label in trees}
        for r in range(repeat):
            for label in order if r % 2 == 0 else order[::-1]:
                src = trees[label].resolve()
                samples[label].append(measure_validate(src, n) if kind == "validate" else measure(src, kind, n))
        for label in order:
            out = figure(label, kind, n, known, samples[label])
            if kind == "ring":
                runs[label]["rings"][str(n)] = out
            elif kind in ("equiv", "queries"):
                runs[label][kind][str(n)] = out
            elif kind == "validate":
                runs[label]["corpus"][n] = out
            else:
                runs[label]["coord"].setdefault(str(n), {})[kind] = out
    return runs


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
    if len(set(labels)) != len(labels):
        p.error("give each --src its own --label")
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
        "runs": bench(dict(zip(labels, srcs)), sizes, coord_sizes, args.repeat),
    }
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
