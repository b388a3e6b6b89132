"""Channels and the excited/relaxed execution discipline.

A channel plugs an output component into an input component carrying the
same characters.  While a sent character is in flight the machine is
*excited* and the very next move must consume that character on the
channel's input side; otherwise it is *relaxed* and may move
spontaneously or read inputs that no channel feeds.  Because every label
activates at most one component, a single pending slot suffices.

Restriction is computed by forward exploration over configurations
(state + pending slot).  The move table the exploration walks carries the
conditions compiled onto its moves (`product.MoveTable`), so
condition-based restriction composes with channel wiring in a single
pass; the surviving flat transition set is exactly what re-exploration
needs, which is what makes the algebraic-law comparisons in
`analysis` exact rather than approximate.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

from .core import (
    Acceptance,
    BuiltOnRead,
    ComponentAlphabet,
    Nfioa,
    StateVector,
    Transition,
    acceptance_diagnostics,
    is_silent,
    state_str,
)
from .errors import (
    CapacityExceeded,
    InvalidAutomaton,
    PreconditionError,
    SchedulerError,
    WiringError,
)
from .product import LazyProduct, MoveTable, acceptance_within, automaton_table, vetoed

CONFIG_CAP = 2 * 10**6
RUN_CAP = 100_000


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

    `move_ids` holds, edge by edge in node and edge order, the id of the
    table move (`product.MoveTable`) each edge copies, and
    `move_labels(id)` is that move's `(input, output, pending)`, so a
    question the move decides is answered once per id.  Ids number the
    moves of the table explored, and two explorations of one graph may
    number them differently; neither field takes part in `==` or `repr`.
    """

    nodes: tuple[Configuration, ...]
    moves: tuple[tuple[Transition, ...], ...]
    succ: tuple[tuple[int, ...], ...]
    move_ids: tuple[int, ...] = field(compare=False, repr=False)
    move_labels: Callable[[int], tuple] = field(compare=False, repr=False)

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
        return len(self.move_ids)


def check_channels(
    inputs: Sequence, outputs: Sequence, channels: Iterable[Channel]
) -> list[str]:
    """Diagnostics for a channel set against flat interfaces."""
    out: list[str] = []
    chans = list(channels)
    for ch in chans:
        ends = (("output", ch.out_component, outputs), ("input", ch.in_component, inputs))
        missing = [
            f"channel {ch.out_component}>{ch.in_component}: {side} component {k} "
            f"out of range ({len(comps)} {side}{'s' * (len(comps) != 1)})"
            for side, k, comps in ends
            if not 0 <= k < len(comps)
        ]
        if missing:
            out += missing
            continue
        o, i = outputs[ch.out_component], inputs[ch.in_component]
        if not o.characters <= i.characters:
            out.append(
                f"channel {o.name}>{i.name}: sender characters "
                f"{sorted(o.characters - i.characters)} not readable"
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
    packed keys: it lists each configuration's moves in `Transition`
    order, which makes the whole graph — and every witness derived from
    it — reproducible.  A configuration whose moves all come from one
    factor reads them here, from that factor's digit: an excited one from
    its receiver's, a relaxed one from a one-factor table's.  Any other
    relaxed configuration's moves are its `candidates`.  The table's
    conditions are compiled onto its moves, so a move whose guard vetoes
    it out of the node's key is skipped by a digit test, before its
    target is numbered or its `Transition` built.  A configuration is
    numbered the first time its key is met; only then are its state tuple
    and its `Configuration` built, and every transition's target is its
    target node's stored state.  Each edge records its move's id.
    """
    candidates, size = table.candidates, table.size
    # By pending code: the one factor whose digit lists the moves, or None.
    single = (table.relaxed[0] if len(table.relaxed) == 1 else None, *table.excited[1:])
    # The generated constructors of `Transition` and `Configuration` are
    # Python calls; `tuple.__new__` builds the same tuples.
    new = tuple.__new__
    moves: list[tuple[Transition, ...]] = []
    succ: list[tuple[int, ...]] = []
    move_ids: list[int] = []
    record = move_ids.append
    # `nodes` doubles as the breadth-first queue: those past the end of
    # `succ` are waiting.  Node i has key `keys[i]`.
    nodes = [Configuration(tuple(table.initial), None)]
    keys = [table.initial_key]
    number = {table.initial_key: 0}
    for (state, _), key in zip(nodes, keys):
        p, base = divmod(key, size)
        if (one := single[p]) is None:
            cands = candidates(base)
        else:
            stride, radix, moves_of = one
            cands = moves_of(base // stride % radix) or ()
        here: list[Transition] = []
        out: list[int] = []
        for _, shift, lo, hi, tgt, inp, outp, pend, guard, move in cands:
            if guard is not None and vetoed(guard, base):
                continue
            to = base + shift
            k = number.get(to)
            if k is None:
                k = number[to] = len(nodes)
                keys.append(to)
                target = state[:lo] + tgt + state[hi:]
                nodes.append(new(Configuration, (target, pend)))
                if k >= cap:
                    raise CapacityExceeded(
                        f"configuration cap of {cap} exceeded while expanding "
                        f"configuration {len(succ) + 1} ({len(succ)} expanded, "
                        f"{len(nodes) - len(succ) - 1} waiting); restrict the network further "
                        "(from Python, cbr also takes a larger cap=)"
                    )
            else:
                target = nodes[k][0]
            here.append(new(Transition, (state, target, inp, outp)))
            out.append(k)
            record(move)
        moves.append(tuple(here))
        succ.append(tuple(out))
    return ConfigGraph(tuple(nodes), tuple(moves), tuple(succ), tuple(move_ids), table.move_labels)


class FlatRecipe(NamedTuple):
    """What `cbr` keeps to build a restriction's flat automaton on first read.

    The first six fields are the automaton's own, in `Nfioa`'s order; its
    transitions are those of `graph`'s edges.  Calling the recipe builds
    the automaton through `Nfioa`'s constructor, which validates it.
    """

    name: str
    states: frozenset[StateVector]
    inputs: tuple[ComponentAlphabet, ...]
    outputs: tuple[ComponentAlphabet, ...]
    initial: StateVector
    acceptance: Acceptance
    graph: ConfigGraph

    def __call__(self) -> Nfioa:
        transitions = frozenset(chain.from_iterable(self.graph.moves))
        return Nfioa(self.name, self.states, self.inputs, self.outputs, self.initial, self.acceptance, transitions)


@dataclass(frozen=True)
class RestrictedAutomaton:
    """An automaton together with its channel wiring and explored graph.

    `cbr` builds it.  `base` keeps the source's interface and acceptance,
    but its transition set is the *surviving* one: exactly the transitions
    that label some configuration-graph edge.  Re-restricting the base
    with the same channels and conditions reproduces the same graph, so
    operator identities can be checked on flat automata.

    `base` may be given as an `Nfioa`, or as the `FlatRecipe` that `cbr`
    gives it, which builds it the first time it is read (see
    `BuiltOnRead`).  No graph query reads it; the laws, `cond` and `cbr`
    of a restriction, and `==` do.  `inputs`, `outputs` and `acceptance`
    are `base`'s, read without building it.
    """

    base: Nfioa = BuiltOnRead()
    channels: tuple[Channel, ...]
    graph: ConfigGraph
    conditions: tuple
    name: str
    # Copied from the stored `base` or recipe, so formatters that read them
    # per configuration pay one attribute lookup.
    inputs: tuple[ComponentAlphabet, ...] = field(init=False, repr=False, compare=False)
    outputs: tuple[ComponentAlphabet, ...] = field(init=False, repr=False, compare=False)
    acceptance: Acceptance = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        flat = self.__dict__["base"]
        for name in ("inputs", "outputs", "acceptance"):
            object.__setattr__(self, name, getattr(flat, name))

    def with_acceptance(self, acceptance: Acceptance) -> "RestrictedAutomaton":
        """This restriction with `acceptance` on the flat automaton; a `base`
        still unbuilt stays unbuilt.

        The acceptance is checked against the flat states now, as building
        `base` would, so a bad one fails here whichever kind `base` holds.
        """
        flat = self.__dict__["base"]
        diags = acceptance_diagnostics(acceptance, flat.states)
        if diags:
            raise InvalidAutomaton(diags)
        if isinstance(flat, Nfioa):
            return replace(self, base=replace(flat, acceptance=acceptance))
        return replace(self, base=flat._replace(acceptance=acceptance))


def channel_str(r: RestrictedAutomaton, ch: Channel) -> str:
    """`sender>receiver`, each end by its flat component name (`u.svc>c.svc`)."""
    return f"{r.outputs[ch.out_component].name}>{r.inputs[ch.in_component].name}"


def config_str(r: RestrictedAutomaton, c: Configuration) -> str:
    """The state, then `!char@channel` while a character is in flight."""
    if c.pending is None:
        return state_str(c.state)
    ch, char = c.pending
    return f"{state_str(c.state)} !{char}@{channel_str(r, ch)}"


def flatten(r: RestrictedAutomaton) -> Nfioa:
    """`r.base`: the flat automaton carrying only the transitions that survived,
    built (and validated) if it was not yet.

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
    restriction.  Re-restricting unions the channel sets and the conditions
    and re-explores the surviving transition relation (so it builds the
    restriction's `base`); the result is the same as having applied the
    union in one pass.

    The result's flat automaton is left to a `FlatRecipe`, built on first
    read.  Its states are the source's, or for a lazy product those of the
    graph's nodes, with the product's acceptance `acceptance_within` them;
    both are computed here, so the recipe holds no product.
    """
    new_channels = tuple(Channel(*c) for c in channels)
    conditions = tuple(conditions)
    if isinstance(source, RestrictedAutomaton):
        return cbr(
            source.base,
            source.channels + new_channels,
            conditions=source.conditions + conditions,
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
    name = name or source.name
    if lazy:
        states = frozenset(c.state for c in graph.nodes)
        acceptance = acceptance_within(source.factors, states)
    else:
        states, acceptance = source.states, source.acceptance
    flat = FlatRecipe(name, states, source.inputs, source.outputs, source.initial, acceptance, graph)
    return RestrictedAutomaton(flat, chans, graph, conditions, name)


def enabled(r: RestrictedAutomaton, c: Configuration) -> tuple[Edge, ...]:
    if c not in r.graph.edges:
        raise WiringError(f"{c!r} is not a configuration of {r.name}")
    return r.graph.edges[c]


class EdgeClass(NamedTuple):
    """Row of the nine-way taxonomy of restricted moves."""

    mode: str  # relaxed | excited
    input_kind: str  # silent-in | open-in | consume
    output_kind: str  # silent-out | channel-out | open-out


ALL_EDGE_CLASSES = tuple(
    [EdgeClass("relaxed", i, o) for i in ("silent-in", "open-in") for o in ("silent-out", "channel-out", "open-out")]
    + [EdgeClass("excited", "consume", o) for o in ("silent-out", "channel-out", "open-out")]
)


def edge_census(r: RestrictedAutomaton) -> Counter[EdgeClass]:
    """How many graph edges fall in each of the nine classes.

    An edge's class is its move's: excited when the move reads a
    channel-fed input (consuming the pending character), else relaxed and
    silent or open by its input; channel-out when it leaves a character
    pending, else silent or open by its output.  So the edges are counted
    per move id and each distinct move is classified once.
    """
    g = r.graph
    fed = [ch.in_component for ch in r.channels]
    census: Counter[EdgeClass] = Counter()
    for move, n in Counter(g.move_ids).items():
        inp, outp, pending = g.move_labels(move)
        if any(inp[k] for k in fed):
            mode, input_kind = "excited", "consume"
        else:
            mode, input_kind = "relaxed", "silent-in" if is_silent(inp) else "open-in"
        if pending is not None:
            output_kind = "channel-out"
        else:
            output_kind = "silent-out" if is_silent(outp) else "open-out"
        census[EdgeClass(mode, input_kind, output_kind)] += n
    return census


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


def is_consistent(r: RestrictedAutomaton) -> Consistency:
    """Acceptance reachable from every configuration; needs well-formedness.

    Walks the graph backwards from `acceptance_anchors`; the witness is the
    first configuration, by number, that cannot reach one.
    """
    wf = is_well_formed(r)
    if not wf.ok:
        raise PreconditionError(
            f"{r.name} is not well-formed: excited configuration {config_str(r, wf.witness)} "
            "cannot consume its pending character"
        )
    g = r.graph
    anchors = acceptance_anchors(g, r.acceptance)
    reverse: list[list[int]] = [[] for _ in g.succ]
    for i, js in enumerate(g.succ):
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
        None if stuck < 0 else g.nodes[stuck],
        frozenset(map(g.nodes.__getitem__, anchors)),
    )


def open_components(
    source: Union[Nfioa, LazyProduct, RestrictedAutomaton],
    channels: Iterable[Channel] | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Input/output component indices no channel is attached to."""
    if isinstance(source, RestrictedAutomaton):
        chans = source.channels if channels is None else tuple(channels)
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
) -> Union[Run, tuple[Run, ...]]:
    """Walk the configuration graph under a scheduling policy.

    `random` resolves choices with a seeded generator; `scripted` takes an
    explicit choice index per step and fails loudly when the index does
    not exist; `exhaustive` returns every run that either deadlocks or
    reaches the step bound, and stops with `CapacityExceeded` past
    `RUN_CAP` of them.
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
                if len(complete) > RUN_CAP:
                    raise CapacityExceeded(
                        f"more than {RUN_CAP} runs at bound {step_bound}"
                    )
                continue
            for t, j in zip(reversed(ts), reversed(succ[i])):
                stack.append((j, cpath + (nodes[j],), tpath + (t,)))
        return tuple(complete)
    raise SchedulerError(f"unknown scheduler {scheduler!r}")
