"""Command-line driver for the workbench.

Commands operate on workbench text files (``.pw``): ``validate`` builds
everything a document declares and runs its ``check`` directives;
``product``/``cbr``/``cond`` report on compositions; ``check`` queries a
single property with a witness on failure; ``run`` walks a configuration
graph under a scheduler; ``laws`` exercises the operator identities on
seeded random instances; ``equiv`` compares channel-event traces;
``safety`` searches reachable configurations for a predicate; ``dot``
renders diagrams; ``examples`` lists and emits the bundled corpus.

Commands that ask about a configuration graph take any automaton or
network name: without channels, the configurations are the reachable states.

Each command imports the modules only it uses (analysis, diagrams, the
corpus) itself, so a fresh process loads no more than it runs.

Exit codes: 0 when the command succeeds and any queried property holds,
1 when a queried property fails (a witness is printed), 2 on usage,
parse, or capacity errors.
"""
from __future__ import annotations

import argparse
import sys
from collections import Counter
from functools import cache, partial
from typing import Callable

from .channels import (
    ALL_EDGE_CLASSES,
    RestrictedAutomaton,
    cbr,
    channel_str,
    config_str,
    edge_census,
    is_consistent,
    is_protocol,
    is_well_formed,
    open_components,
    run as run_graph,
)
from .conditions import is_quasi_deterministic, is_unaffected
from .core import EPSILON, Nfioa, Projection, classify, is_silent, label_str, reachable_states, state_str
from .dsl import ResolvedDocument, WorkbenchDocument, load, resolve
from .errors import CapacityExceeded, PreconditionError, WorkbenchError
from .network import BuiltNetwork
from .product import weak_product

EX_OK = 0
EX_FAIL = 1
EX_USAGE = 2


class _UsageError(Exception):
    """A command was pointed at the wrong kind of thing."""


# ---------------------------------------------------------------------------
# lookup and formatting helpers
# ---------------------------------------------------------------------------


def _load(path: str) -> tuple[WorkbenchDocument, ResolvedDocument]:
    doc = load(path)
    return doc, resolve(doc)


def _automaton(env: ResolvedDocument, name: str) -> Nfioa:
    try:
        return env.automata[name]
    except KeyError:
        raise _UsageError(
            f"no automaton or network named {name!r}; declared: {', '.join(sorted(env.automata))}"
        ) from None


def _network(env: ResolvedDocument, name: str) -> BuiltNetwork:
    try:
        return env.networks[name]
    except KeyError:
        raise _UsageError(
            f"no network named {name!r}; declared: {', '.join(sorted(env.networks)) or 'none'}"
        ) from None


def _graph(env: ResolvedDocument, name: str) -> RestrictedAutomaton:
    """A name's configuration graph: a wired network's restriction, else the
    name's flat automaton restricted by no channels (a channel-free
    network's eager build already carries only what its conditions kept)."""
    built = env.networks.get(name)
    if built is not None and built.restricted is not None:
        return built.restricted
    return cbr(_automaton(env, name))


def _print_trace(r: RestrictedAutomaton, res) -> None:
    for i, t in enumerate(res.transitions):
        print(
            f"{i}\t{config_str(r, res.configs[i])}\t{label_str(t.input, r.inputs)}"
            f"\t{label_str(t.output, r.outputs)}\t{config_str(r, res.configs[i + 1])}"
        )


# ---------------------------------------------------------------------------
# directives (the `check X NAME;` lines inside documents)
# ---------------------------------------------------------------------------


def _nondeterminism(a: Nfioa) -> str | None:
    """The first state, in sorted order, with a spontaneous move (the silent
    label sorts first among a state's labels), else two moves on one label;
    None when the automaton is deterministic."""
    moves = Counter((t.source, t.input) for t in a.transitions)
    for (state, label), n in sorted(moves.items()):
        if is_silent(label):
            return f"spontaneous move from {state_str(state)}"
        if n > 1:
            return f"{n} moves on {label_str(label, a.inputs)} from {state_str(state)}"
    return None


def _run_directive(
    env: ResolvedDocument, kind: str, target: str, graph: Callable[[str], RestrictedAutomaton]
) -> tuple[bool, str]:
    """One check on `target`, whose configuration graph `graph` gives.

    Only `valid` and `deterministic` read the flat automaton; the others
    answer from the graph, so a wired network's `base` is not built for them.
    """
    if kind in ("valid", "deterministic"):
        a = _automaton(env, target)
        if kind == "valid":
            return True, f"{len(a.states)} states"
        why = _nondeterminism(a)
        return why is None, why or "at most one move per state and input"
    r = graph(target)
    if kind == "wellformed":
        wf = is_well_formed(r)
        if wf.ok:
            return True, "every sent character can be consumed"
        return False, f"stuck excited configuration {config_str(r, wf.witness)}"
    if kind == "consistent":
        rep = is_consistent(r)
        if rep.ok:
            return True, f"{len(rep.anchors)} anchor configurations"
        if not rep.anchors:
            return False, "acceptance is met in none of the reachable configurations (0 anchors)"
        return False, f"acceptance unreachable from {config_str(r, rep.witness)}"
    if kind == "protocol":
        if is_protocol(r):
            return True, "all components wired"
        open_in, open_out = open_components(r)
        names = [f"input {r.inputs[k].name}" for k in open_in]
        names += [f"output {r.outputs[k].name}" for k in open_out]
        return False, "open components: " + ", ".join(names)
    if kind == "quasidet":
        qd = is_quasi_deterministic(r)
        if qd.ok:
            return True, "at most one move per input everywhere"
        where, label, clashing = qd.witness
        return False, f"{len(clashing)} moves on {label_str(label, r.inputs)} from {config_str(r, where)}"
    raise _UsageError(f"unknown check kind {kind!r}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    doc, env = _load(args.file)
    for a in doc.automata:
        c = classify(a)
        kind = "deterministic"
        if not c.is_deterministic:
            # A function whose only fault is a spontaneous move says so.
            kind = "spontaneous" if c.is_function else "nondeterministic"
        print(
            f"automaton {a.name}: {len(a.states)} states, "
            f"{len(a.transitions)} transitions, {kind}"
        )
    for n in doc.networks:
        built = env.networks[n.name]
        if built.restricted is not None:
            g = built.restricted.graph
            print(
                f"network {n.name}: {len(g.nodes)} configurations, {g.edge_count} edges"
            )
        else:
            a = built.automaton
            print(
                f"network {n.name}: {len(a.states)} states, "
                f"{len(a.transitions)} transitions, "
                f"{len(reachable_states(a))} reachable"
            )
    failures = 0
    # Each target's graph is explored once, however many checks read it.
    graph = cache(partial(_graph, env))
    for d in doc.directives:
        try:
            ok, detail = _run_directive(env, d.kind, d.target, graph)
        except PreconditionError as exc:
            ok, detail = False, str(exc)
        print(f"check {d.kind} {d.target}: {'ok' if ok else 'FAIL'} ({detail})")
        failures += 0 if ok else 1
    return EX_FAIL if failures else EX_OK


def cmd_product(args) -> int:
    _doc, env = _load(args.file)
    factors = [_automaton(env, n) for n in args.names]
    if len(factors) < 2:
        raise _UsageError("product needs at least two automaton names")
    prod, _index = weak_product(factors)
    c = classify(prod)
    print(f"product {prod.name}")
    print(f"states: {len(prod.states)}")
    print(f"transitions: {len(prod.transitions)}")
    print(f"reachable states: {len(reachable_states(prod))}")
    print("inputs: " + " ".join(f"{x.name}{{{','.join(sorted(x.characters))}}}" for x in prod.inputs))
    print("outputs: " + " ".join(f"{x.name}{{{','.join(sorted(x.characters))}}}" for x in prod.outputs))
    print(f"spontaneous: {'yes' if c.has_spontaneous else 'no'}")
    print(f"deterministic: {'yes' if c.is_deterministic else 'no'}")
    return EX_OK


def cmd_cbr(args) -> int:
    _doc, env = _load(args.file)
    r = _graph(env, args.network)
    built = env.networks.get(args.network)
    g = r.graph
    print(f"{'network' if built else 'automaton'} {r.name}")
    print(f"configurations: {len(g.nodes)}")
    print(f"edges: {g.edge_count}")
    print(f"channels: {len(r.channels)}")
    print(f"conditions: {len(built.compiled.conditions) if built else 0}")
    census = edge_census(r)
    for row in ALL_EDGE_CLASSES:
        n = census[row]
        if n:
            print(f"census {row.mode}/{row.input_kind}/{row.output_kind}: {n}")
    return EX_OK


def cmd_cond(args) -> int:
    _doc, env = _load(args.file)
    built = _network(env, args.network)
    conds = built.compiled.conditions
    print(f"network {built.name}")
    print(f"conditions: {len(conds)}")
    for c in conds:
        print(f"  {c.name}")
    if built.restricted is not None:
        g = built.restricted.graph
        print(f"configurations: {len(g.nodes)}")
        print(f"edges: {g.edge_count}")
        return EX_OK
    a = built.automaton
    full, _index = weak_product(built.compiled.factors)
    print(f"states: {len(a.states)}")
    print(f"transitions kept: {len(a.transitions)} of {len(full.transitions)}")
    print(f"reachable states: {len(reachable_states(a))}")
    return EX_OK


def _factor_projection(a: Nfioa, built: BuiltNetwork, keep: int) -> Projection:
    """Keep one factor's slots; pin other states, silence other lanes."""
    index = built.compiled.index

    def maps(side: str, width: int, other) -> tuple[dict, ...]:
        mine = index.span(side, keep)
        return tuple({} if slot in mine else other(slot) for slot in range(width))

    def pinned(slot: int) -> dict:
        return {v: "_" for v in sorted({s[slot] for s in a.states}) if v != "_"}

    def silenced(comps) -> Callable[[int], dict]:
        return lambda slot: {ch: EPSILON for ch in comps[slot].characters}

    return Projection(
        maps("state", a.state_width, pinned),
        maps("input", len(a.inputs), silenced(a.inputs)),
        maps("output", len(a.outputs), silenced(a.outputs)),
    )


def cmd_check(args) -> int:
    _doc, env = _load(args.file)
    if args.kind == "unaffected":
        built = _network(env, args.network)
        conds = built.compiled.conditions
        # Without conditions nothing is restricted, so no factor can be
        # affected, and the product (too large for the rings) is not built.
        try:
            full = weak_product(built.compiled.factors)[0] if conds else None
        except CapacityExceeded:
            raise _UsageError(
                f"check unaffected needs the full product of {built.name}, "
                "which is larger than the product cap allows"
            ) from None
        affected = 0
        for k, ref in enumerate(built.spec.factors):
            ok = full is None or is_unaffected(full, conds, _factor_projection(full, built, k))
            print(f"factor {ref.alias}: {'unaffected' if ok else 'affected'}")
            affected += 0 if ok else 1
        return EX_FAIL if affected else EX_OK
    ok, detail = _run_directive(env, args.kind, args.network, partial(_graph, env))
    print(f"{args.kind}: {'yes' if ok else 'no'} ({detail})")
    return EX_OK if ok else EX_FAIL


def cmd_run(args) -> int:
    if args.script is not None and args.scheduler != "script":
        raise _UsageError(f"--script is read only by --scheduler script, not --scheduler {args.scheduler}")
    _doc, env = _load(args.file)
    r = _graph(env, args.network)
    if args.scheduler == "script":
        if not args.script:
            raise _UsageError("--scheduler script needs --script FILE")
        with open(args.script, "r", encoding="utf-8") as handle:
            script = [int(line) for line in handle.read().split()]
        res = run_graph(r, "scripted", step_bound=args.bound, script=script)
        _print_trace(r, res)
        print(f"steps: {len(res)}")
        return EX_OK
    if args.scheduler == "random":
        res = run_graph(r, "random", step_bound=args.bound, seed=args.seed)
        _print_trace(r, res)
        print(f"steps: {len(res)}")
        if len(res) < args.bound:
            print("halted: deadlock")
        return EX_OK
    runs = run_graph(r, "exhaustive", step_bound=args.bound)
    lengths = sorted(len(x) for x in runs)
    deadlocked = sum(1 for x in runs if len(x) < args.bound)
    print(f"runs: {len(runs)}")
    print(f"deadlocking runs: {deadlocked}")
    print(f"shortest run: {lengths[0]}")
    print(f"longest run: {lengths[-1]}")
    return EX_OK


def cmd_laws(args) -> int:
    from .analysis import LAWS, law_reports

    if args.law == "all":
        names = LAWS
    elif args.law in LAWS:
        names = (args.law,)
    else:
        raise _UsageError(f"unknown law {args.law!r}; known: all, {', '.join(LAWS)}")
    failed = 0
    for law in names:
        reports = law_reports(law, args.seeds)
        bad = next(((seed, rep) for seed, rep in reports if not rep.passed), None)
        if law == "separation":
            status = "ok" if bad is None else f"FAIL ({bad[1].detail})"
        elif bad is None:
            applicable = sum(rep.applicable for _, rep in reports)
            status = f"ok ({applicable} applicable, {len(reports) - applicable} skipped)"
        else:
            status = f"FAIL at seed {bad[0]} ({bad[1].detail})"
        print(f"law {law}: {status}")
        failed += bad is not None
    return EX_FAIL if failed else EX_OK


def cmd_equiv(args) -> int:
    from .analysis import trace_equivalent

    _doc, env = _load(args.file)
    r1 = _graph(env, args.net1)
    te = trace_equivalent(r1, _graph(env, args.net2), bound=args.bound)
    print(f"sufficient bound: {te.sufficient_bound}")
    print(f"bound used: {te.bound_used}")
    if te.equal:
        n = te.bound_used
        if n is not None and n < te.sufficient_bound:
            # A bound below the sufficient one leaves longer traces unchecked.
            print(f"equivalent: no difference in traces of at most {n} event{'s' * (n != 1)}")
        else:
            print("equivalent: yes")
        return EX_OK
    print("equivalent: no")
    print(f"distinguishing trace ({len(te.distinguishing)} events):")
    for ch, char in te.distinguishing:
        print(f"  {channel_str(r1, ch)} {char}")
    return EX_FAIL


_PREDICATE_CALLS = {"len": len, "any": any, "all": all, "sum": sum}


def _predicate(text: str):
    """The compiled predicate, once every node of it is on the surface."""
    import ast

    # The predicate's surface.  Attribute access is not on it, so no walk
    # from a value to its class, its module or the builtins is expressible;
    # keyword and starred arguments are not on it either.
    surface = (
        ast.Expression, ast.Name, ast.Load, ast.Store, ast.Constant, ast.Subscript, ast.Slice,
        ast.Tuple, ast.List, ast.BoolOp, ast.And, ast.Or, ast.UnaryOp, ast.Not, ast.UAdd,
        ast.USub, ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod,
        ast.Compare, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.In, ast.NotIn,
        ast.Is, ast.IsNot, ast.IfExp, ast.GeneratorExp, ast.ListComp, ast.comprehension,
        ast.Call,
    )
    try:
        tree = ast.parse(text, "<predicate>", "eval")
    except SyntaxError as exc:
        raise _UsageError(f"predicate does not parse: {exc}") from exc
    nodes = list(ast.walk(tree))
    for node in nodes:
        if not isinstance(node, surface):
            raise _UsageError(f"predicate rejected: {type(node).__name__} is not allowed")
    for node in nodes:
        if isinstance(node, ast.Name) and node.id.startswith("__"):
            raise _UsageError(f"predicate rejected: the name {node.id} is not allowed")
        if isinstance(node, ast.Call) and not (
            isinstance(node.func, ast.Name) and node.func.id in _PREDICATE_CALLS
        ):
            raise _UsageError(
                f"predicate rejected: {ast.unparse(node)} is not allowed; "
                "only len, any, all and sum may be called"
            )
    return compile(tree, "<predicate>", "eval")


def cmd_safety(args) -> int:
    from .analysis import safety_query

    _doc, env = _load(args.file)
    r = _graph(env, args.network)
    code = _predicate(args.predicate)

    def bad(cfg) -> bool:
        # The scope goes in the globals: generator expressions open their
        # own frame, which sees globals but not the eval's locals.
        scope = {
            "__builtins__": {},
            "state": cfg.state,
            "pending": cfg.pending[1] if cfg.pending is not None else None,
            **_PREDICATE_CALLS,
        }
        return bool(eval(code, scope))

    try:
        rep = safety_query(r, bad)
    except Exception as exc:  # a broken predicate is a usage problem
        raise _UsageError(f"predicate failed on a configuration: {exc}") from exc
    if rep.ok:
        print("safe: yes")
        print(f"configurations checked: {len(r.graph.nodes)}")
        return EX_OK
    print("safe: no")
    print(f"violation: {config_str(r, rep.violation)}")
    print(f"path length: {len(rep.path)}")
    print(f"  start {config_str(r, r.graph.initial)}")
    for e in rep.path:
        print(
            f"  {label_str(e.transition.input, r.inputs)} / "
            f"{label_str(e.transition.output, r.outputs)} -> {config_str(r, e.target)}"
        )
    return EX_FAIL


def cmd_dot(args) -> int:
    from .dot import export_dot

    _doc, env = _load(args.file)
    built = env.networks.get(args.target)
    if built is not None and built.restricted is not None:
        text = export_dot(built.restricted)
    else:
        text = export_dot(_automaton(env, args.target))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(args.out)
    else:
        sys.stdout.write(text)
    return EX_OK


def cmd_examples(args) -> int:
    from . import examples

    if args.action == "list":
        for name in examples.names():
            print(name)
        return EX_OK
    if not args.name:
        raise _UsageError("examples emit needs a NAME")
    try:
        text = examples.text(args.name)
    except KeyError as exc:
        raise _UsageError(str(exc.args[0])) from None
    path = f"{args.dir.rstrip('/')}/{args.name}.pw" if args.dir else f"{args.name}.pw"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(path)
    return EX_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _at_least(least: int):
    """An argparse type: a count no smaller than `least`, below which the
    answer it bounds would mean nothing."""

    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, not {value}")
        return value

    return count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fioa",
        description="Compositional workbench for finite input/output automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="build a document and run its check directives")
    p.add_argument("file")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("product", help="weak product of named automata")
    p.add_argument("file")
    p.add_argument("names", nargs="+")
    p.set_defaults(handler=cmd_product)

    p = sub.add_parser("cbr", help="configuration-graph report for an automaton or network")
    p.add_argument("file")
    p.add_argument("network")
    p.set_defaults(handler=cmd_cbr)

    p = sub.add_parser("cond", help="condition-based restriction report for a network")
    p.add_argument("file")
    p.add_argument("network")
    p.set_defaults(handler=cmd_cond)

    p = sub.add_parser("check", help="query one property; exit 1 with witness on failure")
    p.add_argument(
        "kind",
        choices=["wellformed", "consistent", "protocol", "quasidet", "unaffected"],
    )
    p.add_argument("file")
    p.add_argument("network")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("run", help="walk the configuration graph of an automaton or network")
    p.add_argument("file")
    p.add_argument("network")
    p.add_argument("--scheduler", choices=["random", "exhaustive", "script"], default="random")
    p.add_argument("--bound", type=_at_least(0), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--script", help="file of choice indices for --scheduler script")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("laws", help="exercise the operator identities on random instances")
    p.add_argument("law", help="'all' or one law name")
    p.add_argument("--seeds", type=_at_least(1), default=200)
    p.set_defaults(handler=cmd_laws)

    p = sub.add_parser("equiv", help="channel-event trace equivalence of two automata or networks")
    p.add_argument("file")
    p.add_argument("net1")
    p.add_argument("net2")
    p.add_argument("--bound", type=_at_least(1), default=None)
    p.set_defaults(handler=cmd_equiv)

    p = sub.add_parser("safety", help="search reachable configurations for a predicate")
    p.add_argument("file")
    p.add_argument("network")
    p.add_argument("--predicate", required=True, help="Python expression over state/pending")
    p.set_defaults(handler=cmd_safety)

    p = sub.add_parser("dot", help="DOT diagram for an automaton or network")
    p.add_argument("file")
    p.add_argument("target")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_dot)

    p = sub.add_parser("examples", help="list or emit the bundled corpus")
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("name", nargs="?")
    p.add_argument("--dir", default=None)
    p.set_defaults(handler=cmd_examples)

    return parser


def cli(argv=None) -> int:
    """Dispatch one command line; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (_UsageError, WorkbenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(cli())
