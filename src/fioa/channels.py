"""Channels and the excited/relaxed execution discipline.

A channel plugs an output component into an input component carrying the
same characters.  While a sent character is in flight the machine is
*excited* and the very next move must consume that character on the
channel's input side; otherwise it is *relaxed* and may move
spontaneously or read inputs that no channel feeds.  Because every label
activates at most one component, a single pending slot suffices.

Restriction is computed by forward exploration over configurations
(state + pending slot).  The exploration accepts an optional edge filter
so condition-based restriction composes with channel wiring in a single
pass; the surviving flat transition set is exactly what re-exploration
needs, which is what makes the algebraic-law comparisons in
`analysis` exact rather than approximate.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .core import (
    Acceptance,
    Nfioa,
    StateVector,
    Transition,
    is_silent,
    state_str,
)
from .errors import (
    CapacityExceeded,
    PreconditionError,
    SchedulerError,
    WiringError,
)
from .product import LazyProduct, MoveTable, acceptance_within, automaton_table, vetoed

CONFIG_CAP = 2 * 10**6


class Channel(NamedTuple):
    """Directed link: flat output component -> flat input component."""

    out_component: int
    in_component: int


class Configuration(NamedTuple):
    """A state plus at most one in-flight character."""

    state: StateVector
    pending: tuple[Channel, str] | None

    @property
    def excited(self) -> bool:
        return self.pending is not None


class Edge(NamedTuple):
    transition: Transition
    target: Configuration


@dataclass(frozen=True)
class ConfigGraph:
    """Forward-explored configuration graph, stored by node number.

    `nodes` holds the configurations in breadth-first order from
    `nodes[0]`, the initial one.  Every analysis walks them in that order
    and reports the first failure it meets, so a witness is a failing
    configuration nearest the initial one.  Node i's edges are its
    transitions `moves[i]` and their target numbers `succ[i]`, index by
    index, so walks follow numbers instead of hashing configurations.
    `edges`, each configuration's `Edge`s keyed in node order, is a view
    built the first time it is read.
    """

    nodes: tuple[Configuration, ...]
    moves: tuple[tuple[Transition, ...], ...]
    succ: tuple[tuple[int, ...], ...]

    @property
    def initial(self) -> Configuration:
        return self.nodes[0]

    @cached_property
    def edges(self) -> Mapping[Configuration, tuple[Edge, ...]]:
        at = self.nodes.__getitem__
        return {c: tuple(map(Edge, ts, map(at, js))) for c, ts, js in zip(self.nodes, self.moves, self.succ)}

    @property
    def configs(self) -> frozenset[Configuration]:
        return frozenset(self.nodes)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.succ))


def check_channels(
    inputs: Sequence, outputs: Sequence, channels: Iterable[Channel]
) -> list[str]:
    """Diagnostics for a channel set against flat interfaces."""
    out: list[str] = []
    chans = list(channels)
    for ch in chans:
        if not (0 <= ch.out_component < len(outputs)):
            out.append(f"channel {ch} output index out of range")
            continue
        if not (0 <= ch.in_component < len(inputs)):
            out.append(f"channel {ch} input index out of range")
            continue
        o, i = outputs[ch.out_component], inputs[ch.in_component]
        if not o.characters <= i.characters:
            out.append(
                f"channel {ch}: sender characters {sorted(o.characters - i.characters)} "
                f"not readable on {i.name!r}"
            )
    outs = [ch.out_component for ch in chans]
    ins = [ch.in_component for ch in chans]
    if len(set(outs)) != len(outs):
        out.append("two channels share an output component")
    if len(set(ins)) != len(ins):
        out.append("two channels share an input component")
    return out


Source = Union[Nfioa, LazyProduct, "RestrictedAutomaton"]


def _explore(table: MoveTable, *, cap: int) -> ConfigGraph:
    """Build the configuration graph by BFS from the relaxed initial.

    `table` (see `product.MoveTable`) applies the channel discipline to
    packed keys: its `candidates` lists each configuration's moves in
    `Transition` order, which makes the whole graph — and every witness
    derived from it — reproducible.  The table's conditions are compiled
    onto its moves, so a move whose guard vetoes it out of the node's key
    is skipped by a digit test, before its target is numbered or its
    `Transition` built.  A configuration is numbered the first time its
    key is met; only then are its state tuple and its `Configuration`
    built, and every transition's target is its target node's stored
    state.
    """
    candidates = table.candidates
    # The generated constructors of `Transition` and `Configuration` are
    # Python calls; `tuple.__new__` builds the same tuples.
    new = tuple.__new__
    moves: list[tuple[Transition, ...]] = []
    succ: list[tuple[int, ...]] = []
    # `nodes` doubles as the breadth-first queue: those past the end of
    # `succ` are waiting.  Node i has key `keys[i]`.
    nodes = [Configuration(tuple(table.initial), None)]
    keys = [table.initial_key]
    number = {table.initial_key: 0}
    for (state, _), key in zip(nodes, keys):
        base, cands = candidates(key)
        here: list[Transition] = []
        out: list[int] = []
        for _, shift, lo, hi, tgt, inp, outp, pend, guard in cands:
            if guard is not None and vetoed(guard, base):
                continue
            k = number.get(base + shift)
            if k is None:
                k = number[base + shift] = len(nodes)
                keys.append(base + shift)
                target = state[:lo] + tgt + state[hi:]
                nodes.append(new(Configuration, (target, pend)))
                if k >= cap:
                    raise CapacityExceeded(
                        f"configuration cap of {cap} exceeded while expanding "
                        f"configuration {len(succ) + 1} ({len(succ)} expanded, "
                        f"{len(nodes) - len(succ) - 1} waiting); library callers may pass a "
                        "larger cap= to cbr, otherwise restrict the network further"
                    )
            else:
                target = nodes[k][0]
            here.append(new(Transition, (state, target, inp, outp)))
            out.append(k)
        moves.append(tuple(here))
        succ.append(tuple(out))
    return ConfigGraph(tuple(nodes), tuple(moves), tuple(succ))


@dataclass(frozen=True)
class RestrictedAutomaton:
    """An automaton together with its channel wiring and explored graph.

    `base` keeps the source's interface and acceptance but its transition
    set is the *surviving* one: exactly the transitions that label some
    configuration-graph edge.  Re-restricting the base with the same
    channels and filters reproduces the same graph, so operator identities
    can be checked on flat automata.
    """

    base: Nfioa
    channels: tuple[Channel, ...]
    graph: ConfigGraph
    conditions: tuple = ()
    name: str = ""

    def __post_init__(self):
        if not self.name:
            object.__setattr__(self, "name", self.base.name)


def channel_str(r: RestrictedAutomaton, ch: Channel) -> str:
    """`sender>receiver`, each end by its flat component name (`u.svc>c.svc`)."""
    return f"{r.base.outputs[ch.out_component].name}>{r.base.inputs[ch.in_component].name}"


def config_str(r: RestrictedAutomaton, c: Configuration) -> str:
    """The state, then `!char@channel` while a character is in flight."""
    if c.pending is None:
        return state_str(c.state)
    ch, char = c.pending
    return f"{state_str(c.state)} !{char}@{channel_str(r, ch)}"


def flatten(r: RestrictedAutomaton) -> Nfioa:
    """`r.base`: the flat automaton carrying only the transitions that survived.

    fioa itself reads `.base`; this name is kept for external callers.
    """
    return r.base


def cbr(
    source: Source,
    channels: Iterable[Channel | tuple[int, int]] = (),
    *,
    conditions: Iterable = (),
    name: str | None = None,
    cap: int = CONFIG_CAP,
) -> RestrictedAutomaton:
    """Restrict an automaton (or re-restrict a restriction) by channels.

    Accepts a plain automaton, a lazily-explored product, or an existing
    restriction.  Re-restricting unions the channel sets and edge filters
    and re-explores the surviving transition relation; the result is the
    same as having applied the union in one pass.
    """
    new_channels = tuple(Channel(*c) for c in channels)
    conditions = tuple(conditions)
    if isinstance(source, RestrictedAutomaton):
        merged = tuple(sorted(set(source.channels) | set(new_channels)))
        return cbr(
            source.base,
            merged,
            conditions=tuple(source.conditions) + conditions,
            name=name or source.name,
            cap=cap,
        )

    chans = tuple(sorted(set(new_channels)))
    diags = check_channels(source.inputs, source.outputs, chans)
    if diags:
        raise WiringError("; ".join(diags))
    lazy = isinstance(source, LazyProduct)
    table = source.table(chans, conditions) if lazy else automaton_table(source, chans, conditions)
    graph = _explore(table, cap=cap)
    transitions = frozenset(chain.from_iterable(graph.moves))
    name = name or source.name
    if lazy:
        states = frozenset(c.state for c in graph.nodes)
        base = Nfioa(
            name=name,
            states=states,
            inputs=source.inputs,
            outputs=source.outputs,
            initial=source.initial,
            acceptance=acceptance_within(source.factors, states),
            transitions=transitions,
        )
    else:
        base = replace(source, name=name, transitions=transitions)
    return RestrictedAutomaton(base, chans, graph, conditions, name)


def classify_config(r: RestrictedAutomaton, c: Configuration) -> str:
    if c not in r.graph.edges:
        raise WiringError(f"{c!r} is not a configuration of {r.name}")
    return "excited" if c.pending is not None else "relaxed"


def enabled(r: RestrictedAutomaton, c: Configuration) -> tuple[Edge, ...]:
    if c not in r.graph.edges:
        raise WiringError(f"{c!r} is not a configuration of {r.name}")
    return r.graph.edges[c]


class EdgeClass(NamedTuple):
    """Row of the nine-way taxonomy of restricted moves."""

    mode: str  # relaxed | excited
    input_kind: str  # silent-in | open-in | consume
    output_kind: str  # silent-out | channel-out | open-out


def _classify_edge(c: Configuration, t: Transition, target: Configuration) -> EdgeClass:
    if c.pending is not None:
        mode, input_kind = "excited", "consume"
    else:
        mode = "relaxed"
        input_kind = "silent-in" if is_silent(t.input) else "open-in"
    if target.pending is not None:
        output_kind = "channel-out"
    elif is_silent(t.output):
        output_kind = "silent-out"
    else:
        output_kind = "open-out"
    return EdgeClass(mode, input_kind, output_kind)


ALL_EDGE_CLASSES = tuple(
    [EdgeClass("relaxed", i, o) for i in ("silent-in", "open-in") for o in ("silent-out", "channel-out", "open-out")]
    + [EdgeClass("excited", "consume", o) for o in ("silent-out", "channel-out", "open-out")]
)


def edge_census(r: RestrictedAutomaton) -> Counter[EdgeClass]:
    """How many graph edges fall in each of the nine classes."""
    g = r.graph
    return Counter(
        _classify_edge(c, t, g.nodes[j]) for c, ts, js in zip(g.nodes, g.moves, g.succ) for t, j in zip(ts, js)
    )


class WellFormedness(NamedTuple):
    ok: bool
    witness: Configuration | None


def is_well_formed(r: RestrictedAutomaton) -> WellFormedness:
    """Every excited configuration must be able to consume its character."""
    for c, ts in zip(r.graph.nodes, r.graph.moves):
        if c.pending is not None and not ts:
            return WellFormedness(False, c)
    return WellFormedness(True, None)


class Consistency(NamedTuple):
    ok: bool
    witness: Configuration | None
    anchors: frozenset


def acceptance_anchors(graph: ConfigGraph, acceptance: Acceptance) -> frozenset[int]:
    """Numbers of the nodes from which acceptance is already being met.

    Final mode: the nodes sitting on accepting states.  Muller mode: the
    nodes of strongly connected subgraphs that visit exactly one of the
    accepting families — computed as non-trivial components of the
    subgraph induced by a family whose projection covers the whole
    family.
    """
    states = [c.state for c in graph.nodes]
    if acceptance.mode == "final":
        return frozenset(i for i, s in enumerate(states) if s in acceptance.final_states)
    anchors: set[int] = set()
    for member in acceptance.muller_sets:
        inside = [i for i, s in enumerate(states) if s in member]
        keep = set(inside)
        adj = {i: [j for j in graph.succ[i] if j in keep] for i in inside}
        for scc in _sccs(inside, adj):
            if len(scc) == 1:
                (only,) = scc
                if only not in adj[only]:
                    continue
            if {states[i] for i in scc} == member:
                anchors |= scc
    return frozenset(anchors)


def _sccs(nodes: Iterable, adj: Mapping) -> list[set]:
    """Strongly connected components of `adj` (Tarjan 1972).

    Iterative rather than recursive, since one component can span tens of
    thousands of configurations.  `adj` maps every node to its successors.
    """
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    out: list[set] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, succs = work[-1]
            for w in succs:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    scc = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.add(w)
                        if w == v:
                            break
                    out.append(scc)
    return out


def graph_consistency(graph: ConfigGraph, acceptance: Acceptance, names: Sequence) -> Consistency:
    """Can every node still reach a point where acceptance is met?

    The witness is the first node, by number, that cannot; the witness and
    the anchors are reported as `names[i]` for node i.  A restriction
    names its configurations; a plain automaton, walked as its
    channel-free configuration graph, names their states.
    """
    anchors = acceptance_anchors(graph, acceptance)
    reverse: list[list[int]] = [[] for _ in graph.succ]
    for i, js in enumerate(graph.succ):
        for j in js:
            reverse[j].append(i)
    covered = bytearray(len(reverse))
    frontier = list(anchors)
    while frontier:
        i = frontier.pop()
        if not covered[i]:
            covered[i] = 1
            frontier += reverse[i]
    stuck = covered.find(0)
    return Consistency(
        stuck < 0,
        None if stuck < 0 else names[stuck],
        frozenset(map(names.__getitem__, anchors)),
    )


def is_consistent(r: RestrictedAutomaton) -> Consistency:
    """Acceptance reachable from every configuration; needs well-formedness."""
    wf = is_well_formed(r)
    if not wf.ok:
        raise PreconditionError(
            f"{r.name} is not well-formed: excited configuration {config_str(r, wf.witness)} "
            "cannot consume its pending character"
        )
    return graph_consistency(r.graph, r.base.acceptance, r.graph.nodes)


def open_components(
    source: Union[Nfioa, LazyProduct, RestrictedAutomaton],
    channels: Iterable[Channel] | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Input/output component indices no channel is attached to."""
    if isinstance(source, RestrictedAutomaton):
        chans = source.channels if channels is None else tuple(channels)
        inputs, outputs = source.base.inputs, source.base.outputs
    else:
        chans = tuple(channels or ())
        inputs, outputs = source.inputs, source.outputs
    ins = {ch.in_component for ch in chans}
    outs = {ch.out_component for ch in chans}
    open_in = tuple(k for k in range(len(inputs)) if k not in ins)
    open_out = tuple(k for k in range(len(outputs)) if k not in outs)
    return open_in, open_out


def is_protocol(r: RestrictedAutomaton) -> bool:
    """Closed system: every component is wired to a channel."""
    open_in, open_out = open_components(r)
    return not open_in and not open_out


@dataclass(frozen=True)
class Run:
    configs: tuple[Configuration, ...]
    transitions: tuple[Transition, ...]

    def __len__(self) -> int:
        return len(self.transitions)


def run(
    r: RestrictedAutomaton,
    scheduler: str = "random",
    step_bound: int = 100,
    *,
    seed: int = 0,
    script: Sequence[int] | None = None,
    run_cap: int = 100_000,
) -> Union[Run, tuple[Run, ...]]:
    """Walk the configuration graph under a scheduling policy.

    `random` resolves choices with a seeded generator; `scripted` takes an
    explicit choice index per step and fails loudly when the index does
    not exist; `exhaustive` returns every run that either deadlocks or
    reaches the step bound.
    """
    wf = is_well_formed(r)
    if not wf.ok:
        raise PreconditionError(
            f"cannot run {r.name}: excited configuration {config_str(r, wf.witness)} is stuck"
        )
    nodes, moves, succ = r.graph.nodes, r.graph.moves, r.graph.succ
    start = r.graph.initial
    if scheduler == "scripted" and script is None:
        raise SchedulerError("scripted scheduler needs a choice list")
    if scheduler in ("random", "scripted"):
        draw = random.Random(seed).randrange if scheduler == "random" else None
        steps = script[:step_bound] if draw is None else range(step_bound)
        configs, trans = [start], []
        i = 0
        for choice in steps:
            ts = moves[i]
            if draw is not None:
                if not ts:
                    break
                # the same draw as `rng.choice(ts)`, so seeded runs replay
                choice = draw(len(ts))
            elif not (0 <= choice < len(ts)):
                raise SchedulerError(
                    f"step {len(trans)}: choice {choice} out of range "
                    f"({len(ts)} enabled at {config_str(r, nodes[i])})"
                )
            trans.append(ts[choice])
            i = succ[i][choice]
            configs.append(nodes[i])
        return Run(tuple(configs), tuple(trans))
    if scheduler == "exhaustive":
        complete: list[Run] = []
        stack: list[tuple[int, tuple, tuple]] = [(0, (start,), ())]
        while stack:
            i, cpath, tpath = stack.pop()
            ts = moves[i]
            if not ts or len(tpath) >= step_bound:
                complete.append(Run(cpath, tpath))
                if len(complete) > run_cap:
                    raise CapacityExceeded(
                        f"more than {run_cap} runs at bound {step_bound}"
                    )
                continue
            for t, j in zip(reversed(ts), reversed(succ[i])):
                stack.append((j, cpath + (nodes[j],), tpath + (t,)))
        return tuple(complete)
    raise SchedulerError(f"unknown scheduler {scheduler!r}")
