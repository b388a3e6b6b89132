#!/usr/bin/env python3
"""fioa benchmark: three workloads, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ring --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

* ``ring``  -- corpus token rings ring2..ring4 built from ``.pw`` text,
  the channel/analysis queries on each, random-scheduler runs, and
  ``fioa cbr`` on ring4 in a fresh process;
* ``coord`` -- five users in pairwise mutual exclusion by conditions only,
  built eagerly and wired to a server; executor throughput on five
  deterministic administrators; ``fioa validate`` on both networks;
* ``cli``   -- every ``fioa`` command on the corpus, one fresh
  interpreter each, in an order drawn from the seed.

Load comes from this one process (no worker threads); CLI children run
one at a time.  Every op's result is checked against ``reference.py``,
which does not import fioa, or against a verdict the corpus is known to
give.  Timings are scaled by a machine-speed probe taken around each op
(see ``workloads.Samples``) and reported as medians over repeats.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``LAYERS`` with ``--trace 1``.
``--trace 1`` also writes its spans to
``.perfbench/spans-<workload>-<seed>.json``.  ``--perturb`` corrupts one
expected value so the checks can be seen to fire (``selfcheck.py``).

Which end-to-end metric each layer should move, and on which workload:

* product.outgoing_*, product.candidates, channels.* -> build_s on ring
* conditions.match_*, vetoes, cond_s, product.weak_product_* -> build_s on coord
* core.validate_s, network.compile_s -> build_s on ring and coord
* channels.{consistency,wellformed,census}_s, analysis.*, dot.* -> query_s on ring
* conditions.consistency_s, core.{reachable,equal}_s, analysis.law_s -> query_s on coord
* executor.* -> exec_steps_per_s on coord
* dsl.*, cli.* -> cli_s and setup_s on every workload

Layers a workload does not exercise read 0 in its traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_SPAWNS = 7
MIN_REPEATS = 3
MIN_TRACED_REPEATS = 2
IMPORT_SPAWNS = 3
CLI_PER_REPEAT = 2  # fresh-process commands after each repeat of ring and coord
HARD_LIMIT_S = 100  # stop repeating here even if `minimum` is not reached

END_TO_END = (
    ("setup_s", "s"),
    ("build_s", "s"),
    ("query_s", "s"),
    ("exec_steps_per_s", "steps/s"),
    ("cli_s", "s"),
    ("peak_rss_mb", "MB"),
)

CLI_COMMANDS = ("validate", "cbr", "check", "equiv", "safety", "run", "dot", "laws", "examples")
RING_NAMES = ("ring2", "ring3", "ring4")

LAYERS = (
    ("product.outgoing_s", "s"),
    ("product.outgoing_calls", "count"),
    ("product.candidates", "count"),
    ("channels.explore_s", "s"),
    ("channels.configs", "count"),
    ("channels.edges", "count"),
    ("channels.excited_share", "ratio"),
    ("channels.edge_yield", "ratio"),
    ("channels.configs_per_s", "1/s"),
    *((f"channels.{n}_configs_per_s", "1/s") for n in RING_NAMES),
    ("conditions.match_calls", "count"),
    ("conditions.match_s", "s"),
    ("conditions.vetoes", "count"),
    ("conditions.veto_share", "ratio"),
    ("conditions.cond_s", "s"),
    ("product.weak_product_s", "s"),
    ("product.weak_product_transitions", "count"),
    ("core.validate_s", "s"),
    ("network.compile_s", "s"),
    ("network.build_s", "s"),
    ("channels.consistency_s", "s"),
    ("channels.wellformed_s", "s"),
    ("channels.census_s", "s"),
    ("conditions.quasidet_s", "s"),
    ("analysis.safety_s", "s"),
    ("analysis.safety_visited", "count"),
    ("analysis.trace_equiv_s", "s"),
    ("analysis.trace_language_s", "s"),
    ("analysis.traces", "count"),
    ("dot.export_s", "s"),
    ("dot.bytes", "bytes"),
    ("conditions.consistency_s", "s"),
    ("core.reachable_s", "s"),
    ("core.equal_s", "s"),
    ("analysis.law_s", "s"),
    ("executor.system_s", "s"),
    ("executor.step_us", "us"),
    ("dsl.serialize_s", "s"),
    ("dsl.parse_s", "s"),
    ("dsl.parse_bytes_per_s", "bytes/s"),
    ("dsl.resolve_self_s", "s"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    *((f"cli.{c}_s", "s") for c in CLI_COMMANDS),
    ("cli.p90_s", "s"),
    ("cli.samples", "count"),
    ("bench.repeats", "count"),
    ("bench.trace_overhead", "ratio"),
)


def median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def ratio(a, b) -> float:
    return a / b if b else 0.0


def measure_setup(workload: str, seed: int, out) -> float:
    """Median (speed-scaled) time of a fresh interpreter importing fioa and making the inputs."""
    from workloads import Samples

    argv = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    sample = Samples()
    for _ in range(SETUP_SPAWNS):
        p = sample.timed([("setup", "spawn")], subprocess.run, argv, cwd=ROOT, capture_output=True,
                         text=True, timeout=120)
        out.check("setup", p.returncode == 0 and p.stdout.strip() == "ready")
    return median(sample.data[("setup", "spawn")])


def run_repeats(wl, tracer, sample, out, seconds: float, minimum: int) -> int:
    """Repeat the workload's ops until `seconds` have passed, at least `minimum` times.

    With a tracer each repeat runs traced and then untraced, so the
    tracing overhead is measured on the same inputs in the same process.
    """
    from tracing import NullTracer
    from workloads import run_cli

    modes = [NullTracer()] if tracer is None else [tracer, NullTracer()]
    start = perf_counter()
    repeats = 0
    while repeats < minimum or perf_counter() < start + seconds:
        if repeats and perf_counter() > start + HARD_LIMIT_S:
            break
        for t in modes:
            t.op = f"repeat{repeats}"
            gc.collect()
            t0 = perf_counter()
            try:
                wl.repeat(t, sample, out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out.check(f"{wl.name} repeat raised", False)
                continue
            if tracer is not None and not wl.per_command:
                sample.add(("overhead", "traced" if t is tracer else "untraced"), perf_counter() - t0)
        cmd = wl.cli_command()
        for _ in range(CLI_PER_REPEAT if cmd is not None else 0):
            argv, ok = cmd
            code, stdout = sample.timed([("cli", " ".join(argv))], run_cli, argv, wl.tmp)
            out.check(" ".join(argv), ok(code, stdout))
        repeats += 1
    return repeats


def end_to_end(wl, sample, setup_s: float) -> dict:
    """Each timing is the median over repeats of every item (a network or a
    command); a repeat's items are summed (ring, coord) or the median
    command is taken (cli)."""
    combine = median if wl.per_command else sum
    typical = lambda kind: {item: median(v) for item, v in sample.items(kind).items()}
    exec_s = typical("exec")
    steps = typical("steps")
    if wl.per_command:
        rate = median(steps[i] / s for i, s in exec_s.items())
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rate = ratio(sum(steps[i] for i in exec_s), sum(exec_s.values()))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "build_s": combine(typical("build").values()),
        "query_s": combine(typical("query").values()),
        "exec_steps_per_s": rate,
        "cli_s": median(typical("cli").values()),
        "peak_rss_mb": rss / 1024,
    }


def per_layer(tracer, repeats: int, sample) -> dict:
    from workloads import Samples, cli_env

    c = tracer.counts
    per = lambda v: v / repeats
    tot = lambda name: per(tracer.total(name))
    spawns = Samples()
    for _ in range(IMPORT_SPAWNS):
        for item, code in (("interpreter", "pass"), ("import", "import fioa")):
            spawns.timed([("spawn", item)], subprocess.run, [sys.executable, "-c", code],
                         cwd=ROOT, env=cli_env(), check=True, timeout=120)
    interp = median(spawns.data[("spawn", "interpreter")])
    cli = [x for v in sample.items("cli").values() for x in v]
    m = {
        "product.outgoing_s": per(tracer.hot_total("product.outgoing")),
        "product.outgoing_calls": per(c["product.outgoing_calls"]),
        "product.candidates": per(c["product.candidates"]),
        "channels.explore_s": per(tracer.self_time("channels.cbr")),
        "channels.configs": per(c["channels.configs"]),
        "channels.edges": per(c["channels.edges"]),
        "channels.excited_share": ratio(c["channels.excited"], c["channels.configs"]),
        "channels.edge_yield": ratio(c["channels.edges"], c["product.candidates"]),
        "channels.configs_per_s": ratio(c["channels.configs"], tracer.total("channels.cbr")),
        "conditions.match_calls": per(c["conditions.match_calls"]),
        "conditions.match_s": per(tracer.hot_total("conditions.match")),
        "conditions.vetoes": per(c["conditions.vetoes"]),
        "conditions.veto_share": ratio(c["conditions.vetoes"], c["conditions.examined"]),
        "conditions.cond_s": tot("conditions.cond"),
        "product.weak_product_s": tot("product.weak_product"),
        "product.weak_product_transitions": per(c["product.weak_product_transitions"]),
        "core.validate_s": tot("core.validate"),
        "network.compile_s": tot("network.compile"),
        "network.build_s": tot("network.build"),
        "channels.consistency_s": tot("channels.consistency"),
        "channels.wellformed_s": tot("channels.wellformed"),
        "channels.census_s": tot("channels.census"),
        "conditions.quasidet_s": tot("conditions.quasidet"),
        "analysis.safety_s": tot("analysis.safety"),
        "analysis.safety_visited": per(c["analysis.safety_visited"]),
        "analysis.trace_equiv_s": tot("analysis.trace_equiv"),
        "analysis.trace_language_s": tot("analysis.trace_language"),
        "analysis.traces": per(c["analysis.traces"]),
        "dot.export_s": tot("dot.export"),
        "dot.bytes": per(c["dot.bytes"]),
        "conditions.consistency_s": tot("conditions.consistency"),
        "core.reachable_s": tot("core.reachable"),
        "core.equal_s": tot("core.equal"),
        "analysis.law_s": tot("analysis.law"),
        "executor.system_s": tot("executor.system"),
        "executor.step_us": 1e6 * ratio(tracer.total("executor.drive"), c["executor.steps"]),
        "dsl.serialize_s": tot("dsl.serialize"),
        "dsl.parse_s": tot("dsl.parse"),
        "dsl.parse_bytes_per_s": ratio(c["dsl.parse_bytes"], tracer.total("dsl.parse")),
        "dsl.resolve_self_s": per(tracer.self_time("dsl.resolve")),
        "cli.interpreter_s": interp,
        "cli.import_s": median(spawns.data[("spawn", "import")]) - interp,
        "cli.p90_s": statistics.quantiles(cli, n=10)[-1] if len(cli) >= 2 else median(cli),
        "cli.samples": len(cli),
        "bench.repeats": repeats,
        "bench.trace_overhead": ratio(
            median(sample.data[("overhead", "traced")]), median(sample.data[("overhead", "untraced")])
        ),
    }
    for name in RING_NAMES:
        configs, seconds = tracer.networks.get(name, (0, 0.0))
        m[f"channels.{name}_configs_per_s"] = ratio(configs, seconds)
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = median(x for item, v in sample.items("cli").items() if item.split()[0] == cmd for x in v)
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("ring", "coord", "cli"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--perturb", action="store_true", help="corrupt one expected value")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "fioa" / "__init__.py").is_file():
        print(f"perfbench: no fioa package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from tracing import Tracer
    from workloads import WORKLOADS, Outcome, Samples

    cls = WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.seed, None, False)
        print("ready")
        return 0

    out = Outcome()
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        setup_s = None if args.trace else measure_setup(args.workload, args.seed, out)
        wl = cls(args.seed, tmp, args.perturb)
        wl.prepare(out)
        sample = Samples()
        if args.trace:
            tracer = Tracer()
            repeats = run_repeats(wl, tracer, sample, out, args.seconds, MIN_TRACED_REPEATS)
            values = per_layer(tracer, repeats, sample)
            tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
            units = dict(LAYERS)
        else:
            run_repeats(wl, None, sample, out, args.seconds, MIN_REPEATS)
            values = end_to_end(wl, sample, setup_s)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for note in out.notes:
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
