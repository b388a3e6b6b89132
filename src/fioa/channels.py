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
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Sequence, Union

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
from .product import LazyProduct, acceptance_within

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
    """Forward-explored configuration graph; keys cover every node.

    The keys of `edges` are in breadth-first order from `initial`.  Every
    analysis walks them in that order and reports the first failure it
    meets, so a witness is a failing configuration nearest the initial one.

    A node's number is its position in that order: `nodes[i]` is the i-th
    key of `edges`, and `nodes[0]` is `initial`.  Each edge's target is
    the stored key itself, not an equal copy.  `succ[i]` holds the numbers
    of node i's edge targets, in the order of `edges[nodes[i]]`, so a walk
    can follow numbers instead of hashing configurations.  Both are left
    out of `==` and `repr`; they are determined by `edges`.
    """

    initial: Configuration
    edges: Mapping[Configuration, tuple[Edge, ...]]
    nodes: tuple[Configuration, ...] = field(compare=False, repr=False)
    succ: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @property
    def configs(self) -> frozenset[Configuration]:
        return frozenset(self.edges)

    @property
    def edge_count(self) -> int:
        return sum(len(es) for es in self.edges.values())


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


def _explore(
    initial: StateVector,
    step: Callable[[StateVector, tuple[Channel, str] | None], Sequence[tuple]],
    deny: Callable[[Transition], bool] | None,
    *,
    cap: int,
) -> ConfigGraph:
    """Build the configuration graph by BFS from the relaxed initial.

    `step` (see `product.LazyProduct.stepper`) applies the channel
    discipline: it returns the moves a configuration may take, each with
    the character it leaves pending, in a deterministic order, which makes
    the whole graph — and every witness derived from it — reproducible.
    `deny` vetoes moves by condition.
    """
    init = Configuration(tuple(initial), None)
    edges: dict[Configuration, tuple[Edge, ...]] = {}
    succ: list[tuple[int, ...]] = []
    # `nodes` doubles as the breadth-first queue: those not yet keys of
    # `edges` are waiting.  A target is looked up by its plain (state,
    # pending) tuple, which equals and hashes as the stored
    # `Configuration`, so a configuration is built only the first time it
    # is met and every edge to it shares that one.
    nodes = [init]
    number = {init: 0}
    for cfg in nodes:
        here: list[Edge] = []
        out: list[int] = []
        for t, pend in step(cfg.state, cfg.pending):
            if deny is not None and deny(t):
                continue
            key = (t.target, pend)
            k = number.get(key)
            if k is None:
                k = len(nodes)
                nxt = Configuration(*key)
                number[nxt] = k
                nodes.append(nxt)
                if len(nodes) > cap:
                    raise CapacityExceeded(
                        f"configuration cap of {cap} exceeded while expanding "
                        f"configuration {len(edges) + 1} ({len(edges)} expanded, "
                        f"{len(nodes) - len(edges) - 1} waiting); library callers may pass a "
                        "larger cap= to cbr, otherwise restrict the network further"
                    )
            here.append(Edge(t, nodes[k]))
            out.append(k)
        edges[cfg] = tuple(here)
        succ.append(tuple(out))
    return ConfigGraph(init, edges, tuple(nodes), tuple(succ))


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
    """The flat automaton carrying only the transitions that survived."""
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
    deny = None
    if conditions:
        from .conditions import veto  # conditions builds on this module

        deny = veto(conditions)
    lazy = source if isinstance(source, LazyProduct) else LazyProduct((source,))
    diags = check_channels(source.inputs, source.outputs, chans)
    if diags:
        raise WiringError("; ".join(diags))
    graph = _explore(lazy.initial, lazy.stepper(chans), deny, cap=cap)
    transitions = frozenset(e.transition for es in graph.edges.values() for e in es)
    name = name or source.name
    if source is lazy:
        states = frozenset(c.state for c in graph.edges)
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


def classify_edge(c: Configuration, e: Edge) -> EdgeClass:
    if c.pending is not None:
        mode, input_kind = "excited", "consume"
    else:
        mode = "relaxed"
        input_kind = "silent-in" if is_silent(e.transition.input) else "open-in"
    if e.target.pending is not None:
        output_kind = "channel-out"
    elif is_silent(e.transition.output):
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
    return Counter(classify_edge(c, e) for c, es in r.graph.edges.items() for e in es)


class WellFormedness(NamedTuple):
    ok: bool
    witness: Configuration | None


def is_well_formed(r: RestrictedAutomaton) -> WellFormedness:
    """Every excited configuration must be able to consume its character."""
    for c, es in r.graph.edges.items():
        if c.pending is not None and not es:
            return WellFormedness(False, c)
    return WellFormedness(True, None)


class Consistency(NamedTuple):
    ok: bool
    witness: Configuration | None
    anchors: frozenset


def acceptance_anchors(
    nodes: Collection,
    succ: Callable[[object], Iterable],
    state_of: Callable[[object], StateVector],
    acceptance: Acceptance,
) -> frozenset:
    """Nodes from which acceptance is already being met.

    Final mode: the nodes sitting on accepting states.  Muller mode: the
    nodes of strongly connected subgraphs that visit exactly one of the
    accepting families — computed as non-trivial components of the
    subgraph induced by a family whose projection covers the whole
    family.
    """
    if acceptance.mode == "final":
        return frozenset(n for n in nodes if state_of(n) in acceptance.final_states)
    anchors: set = set()
    for member in acceptance.muller_sets:
        inside = [n for n in nodes if state_of(n) in member]
        if not inside:
            continue
        node_set = set(inside)
        adj = {n: [m for m in succ(n) if m in node_set] for n in inside}
        for scc in _sccs(inside, adj):
            if len(scc) == 1:
                (only,) = scc
                if only not in adj[only]:
                    continue
            if {state_of(n) for n in scc} == member:
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


def graph_consistency(
    nodes: Collection,
    succ: Callable[[object], Iterable],
    state_of: Callable[[object], StateVector],
    acceptance: Acceptance,
) -> Consistency:
    """Can every node still reach a point where acceptance is met?

    The witness is the first node, in the order of `nodes`, that cannot.
    """
    anchors = acceptance_anchors(nodes, succ, state_of, acceptance)
    reverse: dict = {n: [] for n in nodes}
    for n in nodes:
        for m in succ(n):
            if m in reverse:
                reverse[m].append(n)
    covered = set(anchors)
    frontier = deque(anchors)
    while frontier:
        n = frontier.popleft()
        for p in reverse[n]:
            if p not in covered:
                covered.add(p)
                frontier.append(p)
    witness = next((n for n in nodes if n not in covered), None)
    return Consistency(witness is None, witness, anchors)


def is_consistent(r: RestrictedAutomaton) -> Consistency:
    """Acceptance reachable from every configuration; needs well-formedness."""
    wf = is_well_formed(r)
    if not wf.ok:
        raise PreconditionError(
            f"{r.name} is not well-formed: excited configuration {config_str(r, wf.witness)} "
            "cannot consume its pending character"
        )
    nodes = r.graph.nodes
    found = graph_consistency(
        range(len(nodes)),
        r.graph.succ.__getitem__,
        lambda i: nodes[i].state,
        r.base.acceptance,
    )
    return Consistency(
        found.ok,
        None if found.witness is None else nodes[found.witness],
        frozenset(map(nodes.__getitem__, found.anchors)),
    )


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
    nodes, succ = r.graph.nodes, r.graph.succ
    out = list(r.graph.edges.values())  # node i's edges are out[i]
    start = r.graph.initial
    if scheduler == "random":
        rng = random.Random(seed)
        configs, trans = [start], []
        i = 0
        for _ in range(step_bound):
            es = out[i]
            if not es:
                break
            # the same draw as `rng.choice(es)`, so seeded runs replay
            k = rng.randrange(len(es))
            trans.append(es[k].transition)
            i = succ[i][k]
            configs.append(nodes[i])
        return Run(tuple(configs), tuple(trans))
    if scheduler == "scripted":
        if script is None:
            raise SchedulerError("scripted scheduler needs a choice list")
        configs, trans = [start], []
        i = 0
        for step_no, choice in enumerate(script[:step_bound]):
            es = out[i]
            if not (0 <= choice < len(es)):
                raise SchedulerError(
                    f"step {step_no}: choice {choice} out of range "
                    f"({len(es)} enabled at {config_str(r, nodes[i])})"
                )
            trans.append(es[choice].transition)
            i = succ[i][choice]
            configs.append(nodes[i])
        return Run(tuple(configs), tuple(trans))
    if scheduler == "exhaustive":
        complete: list[Run] = []
        stack: list[tuple[int, tuple, tuple]] = [(0, (start,), ())]
        while stack:
            i, cpath, tpath = stack.pop()
            es = out[i]
            if not es or len(tpath) >= step_bound:
                complete.append(Run(cpath, tpath))
                if len(complete) > run_cap:
                    raise CapacityExceeded(
                        f"more than {run_cap} runs at bound {step_bound}"
                    )
                continue
            for e, j in zip(reversed(es), reversed(succ[i])):
                stack.append((j, cpath + (e.target,), tpath + (e.transition,)))
        return tuple(complete)
    raise SchedulerError(f"unknown scheduler {scheduler!r}")
