"""Law harness, behavioral (trace) equivalence, and safety queries.

The operator identities are checked by computing both sides along
genuinely different construction paths and comparing the resulting flat
automata exactly — same states, same transitions, no isomorphism search.
Random instances come from a seeded generator so failures replay.

Behavioral equivalence observes channel events only: an event is a send
occurrence (channel, character).  Internal moves are unobservable.  Both
sides are determinized over silent closures and walked in lockstep, which
is complete for these finite configuration graphs; the configuration
count product is reported as the (conservative) sufficient trace bound.
Each walk reads a graph through one event view.  A view node is the set of
senders in a silent closure: the configuration numbers (positions in
`ConfigGraph.nodes`, followed through `ConfigGraph.succ`, so no
configuration is hashed) in the closure that have an edge sending an
event.  The rest of a closure sends nothing and decides nothing, so
closures that differ only there are one node.  The view computes each
configuration's senders, and each node's sorted events with their next
nodes, once and only when the walk first reaches them.  The lockstep walk
keeps one parent pointer per visited pair of nodes and spells out a trace
only when it finds a divergence.
The safety search reads `nodes`, `moves` and `succ` too: no analysis
builds the `ConfigGraph.edges` view, which is built on first read.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from itertools import zip_longest
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import (
    Acceptance,
    ComponentAlphabet,
    Nfioa,
    Transition,
    automata_equal,
)
from .channels import (
    Channel,
    Configuration,
    Edge,
    RestrictedAutomaton,
    cbr,
    channel_str,
    is_protocol,
    open_components,
)
from .conditions import Condition, IoPattern, cond
from .errors import WiringError
from .product import weak_product

LAWS = (
    "cbr-commute",
    "restr-product-commute",
    "protocol-product",
    "channel-condition-commute",
    "separation",
)


@dataclass(frozen=True)
class LawReport:
    law: str
    applicable: bool
    ok: bool
    detail: str | None = None

    @property
    def passed(self) -> bool:
        return (not self.applicable) or self.ok


# ---------------------------------------------------------------------------
# Random instances


def random_nfioa(
    seed: int,
    *,
    n_states: int = 4,
    n_inputs: int = 2,
    n_outputs: int = 2,
    n_transitions: int = 10,
    name: str | None = None,
) -> Nfioa:
    """Deterministic-per-seed valid automaton for the law harness."""
    rng = random.Random(seed)
    states = [(f"s{i}",) for i in range(n_states)]
    chars = "ab"
    inputs = tuple(
        ComponentAlphabet(f"in{k}", rng.sample(chars, rng.randint(1, len(chars))))
        for k in range(n_inputs)
    )
    outputs = tuple(
        ComponentAlphabet(f"out{k}", rng.sample(chars, rng.randint(1, len(chars))))
        for k in range(n_outputs)
    )

    def label(comps) -> tuple[str, ...]:
        vc = [""] * len(comps)
        if comps and rng.random() < 0.6:
            k = rng.randrange(len(comps))
            vc[k] = rng.choice(sorted(comps[k].characters))
        return tuple(vc)

    transitions = set()
    for _ in range(n_transitions):
        transitions.add(
            Transition(
                rng.choice(states),
                rng.choice(states),
                label(inputs),
                label(outputs),
            )
        )
    finals = frozenset(s for s in states if rng.random() < 0.5) or frozenset(states[:1])
    return Nfioa(
        name=name or f"rand{seed}",
        states=states,
        inputs=inputs,
        outputs=outputs,
        initial=states[0],
        acceptance=Acceptance.final(finals),
        transitions=transitions,
    )


def _weld(a: Nfioa, channels: Iterable[Channel]) -> Nfioa:
    """Grow input alphabets so every channel satisfies sender ⊆ receiver."""
    new_inputs = list(a.inputs)
    for ch in channels:
        recv = new_inputs[ch.in_component]
        send = a.outputs[ch.out_component]
        new_inputs[ch.in_component] = ComponentAlphabet(
            recv.name, recv.characters | send.characters
        )
    return replace(a, inputs=tuple(new_inputs))


def _random_condition(rng: random.Random, a: Nfioa, tag: int) -> Condition:
    values = sorted({v for s in a.states for v in s})

    def pattern():
        return tuple(
            rng.choice(values) if rng.random() < 0.5 else "*"
            for _ in range(a.state_width)
        )

    input_pat = IoPattern.silent() if rng.random() < 0.5 else IoPattern.any()
    return Condition(
        name=f"e{tag}",
        source=pattern(),
        target=pattern(),
        input=input_pat,
        output=IoPattern.any(),
    )


def law_instance(law: str, seed: int):
    """Build the seeded instance a law check runs on."""
    rng = random.Random(("fioa", law, seed).__repr__())
    sub = lambda: rng.randrange(10**9)
    if law == "cbr-commute":
        a = random_nfioa(sub(), n_inputs=2, n_outputs=2)
        c1, c2 = Channel(0, 0), Channel(1, 1)
        return (_weld(a, (c1, c2)), c1, c2)
    if law == "restr-product-commute":
        a = random_nfioa(sub(), n_inputs=1, n_outputs=1, n_states=3)
        b = random_nfioa(sub(), n_inputs=2, n_outputs=2, n_states=3)
        cb = Channel(0, 0)  # local to b
        return (a, _weld(b, (cb,)), cb)
    if law == "protocol-product":
        a1 = random_nfioa(sub(), n_inputs=2, n_outputs=2, n_states=3)
        a2 = random_nfioa(sub(), n_inputs=2, n_outputs=2, n_states=3)
        c1_local = Channel(0, 0)
        c2_local = Channel(0, 0)
        return (_weld(a1, (c1_local,)), (c1_local,), _weld(a2, (c2_local,)), (c2_local,))
    if law == "channel-condition-commute":
        a = random_nfioa(sub(), n_inputs=2, n_outputs=2)
        c = Channel(0, 0)
        a = _weld(a, (c,))
        conds = tuple(_random_condition(rng, a, i) for i in range(rng.randint(1, 2)))
        return (a, (c,), conds)
    if law == "separation":
        return None  # fixed composite; see examples.separation_sides
    raise WiringError(f"unknown law {law!r}")


# ---------------------------------------------------------------------------
# The laws themselves


def _eq(lhs: Nfioa, rhs: Nfioa) -> tuple[bool, str | None]:
    rep = automata_equal(lhs, rhs, up_to_reachability=False)
    return rep.equal, rep.reason


def check_law(law: str, instance=None, *, seed: int = 0) -> LawReport:
    """Check one operator identity on one instance.

    A violated side condition (overlapping channels, a channel that
    touches the wrong factor, conditions out of scope) yields an
    inapplicable report, never a failure.
    """
    if instance is None:
        instance = law_instance(law, seed)

    if law == "cbr-commute":
        a, c1, c2 = instance
        if c1.out_component == c2.out_component or c1.in_component == c2.in_component:
            return LawReport(law, False, False, "channels share a component")
        r12 = cbr(cbr(a, (c1,)), (c2,))
        r21 = cbr(cbr(a, (c2,)), (c1,))
        both = cbr(a, (c1, c2))
        ok, why = _eq(r12.base, r21.base)
        if ok:
            ok, why = _eq(r12.base, both.base)
        return LawReport(law, True, ok, why)

    if law == "restr-product-commute":
        a, b, cb = instance
        if not (
            0 <= cb.out_component < len(b.outputs)
            and 0 <= cb.in_component < len(b.inputs)
        ):
            return LawReport(law, False, False, "channel is not local to the second factor")
        prod, idx = weak_product([a, b])
        outs, ins = idx.span("output", 1), idx.span("input", 1)
        shifted = Channel(outs[cb.out_component], ins[cb.in_component])
        lhs = cbr(prod, (shifted,)).base
        rb = cbr(b, (cb,)).base
        prod2, _ = weak_product([a, rb])
        rhs = cbr(prod2, (shifted,)).base
        ok, why = _eq(lhs, rhs)
        return LawReport(law, True, ok, why)

    if law == "protocol-product":
        a1, c1s, a2, c2s = instance
        prod_raw, idx = weak_product([a1, a2])
        # `c2s` is unchecked input, so it is shifted by plain addition and a
        # bad component still reaches the checks that refuse it.
        outs, ins = idx.span("output", 1), idx.span("input", 1)

        def shift(ch: Channel) -> Channel:
            return Channel(outs.start + ch.out_component, ins.start + ch.in_component)

        local = tuple(c1s) + tuple(shift(c) for c in c2s)
        open_in, open_out = open_components(prod_raw, local)
        if len(open_out) != len(open_in):
            return LawReport(law, False, False, "interfaces cannot be closed pairwise")
        cross = [Channel(o, i) for o, i in zip(open_out, open_in)]
        everything = local + tuple(cross)

        p1 = cbr(a1, tuple(c1s)).base
        p2 = cbr(a2, tuple(c2s)).base
        pre_restricted, _ = weak_product([p1, p2])
        lhs = cbr(_weld(pre_restricted, everything), everything)
        rhs = cbr(_weld(prod_raw, everything), everything)
        ok, why = _eq(lhs.base, rhs.base)
        if ok and not is_protocol(lhs):
            ok, why = False, "closed wiring did not yield a protocol"
        return LawReport(law, True, ok, why)

    if law == "channel-condition-commute":
        a, channels, conditions = instance
        lhs = cond(cbr(a, channels), conditions).base
        rhs = cbr(cond(a, conditions), channels).base
        ok, why = _eq(lhs, rhs)
        return LawReport(law, True, ok, why)

    if law == "separation":
        from .examples import separation_sides

        lhs, rhs = separation_sides()
        ok, why = _eq(lhs, rhs)
        return LawReport(law, True, ok, why)

    raise WiringError(f"unknown law {law!r}")


def law_reports(law: str, seeds: int = 200) -> list[tuple[int, LawReport]]:
    """Each instance's seed and report: the separation identity runs its one
    canonical instance whatever the seed count, every other law seeds 0 to `seeds` - 1."""
    return [(seed, check_law(law, seed=seed)) for seed in range(1 if law == "separation" else seeds)]


def run_law_suite(
    laws: Sequence[str] | None = None, seeds: int = 200
) -> dict[str, list[tuple[int, LawReport]]]:
    """Run each law over its instances (see `law_reports`); returns failures per law."""
    return {law: [(s, rep) for s, rep in law_reports(law, seeds) if not rep.passed] for law in laws or LAWS}


# ---------------------------------------------------------------------------
# Behavioral (trace) equivalence over channel events

Event = tuple[Channel, str]
# An edge's send event is its target's `pending`, left by the move of the
# `product.MoveTable` that `channels._explore` followed for the edge.  An
# edge with an event is an event edge, and a configuration with at least
# one event edge is a sender.


class _EventView:
    """The determinized channel-event view of one configuration graph.

    A node of the view is the set of senders in a silent closure: a
    frozenset of the configuration numbers, among those reached by edges
    that send nothing, that have at least one event edge.  A closure is
    closed under silent edges, so its events and each event's next closure
    depend only on its senders; being a sender is a property of one
    configuration, so keeping only senders commutes with the union that
    builds a next closure.  Closures that differ only by configurations
    that send nothing are therefore one node.  A breadth-first lockstep
    walk meets each pair of nodes in the order a walk over whole closures
    first meets any pair of closures behind it, so the verdict and the
    shortest distinguishing trace are those of that walk.  Each
    configuration's closure and each node's events with their next nodes
    are computed the first time a walk asks for them and kept for the rest
    of that walk, so a bounded walk expands only the configurations it
    reaches; every configuration's `pending` is read once, up front.
    """

    def __init__(self, r: RestrictedAutomaton):
        self._pend = [c.pending for c in r.graph.nodes]
        self._succ = r.graph.succ
        self._closures: dict[int, frozenset[int]] = {}
        # One frozenset per distinct node: the closures of many excited
        # configurations hold the same senders, and sharing them leaves
        # the garbage collector fewer objects to track.
        self._shared: dict[frozenset, frozenset] = {}
        self._steps: dict[frozenset, tuple[tuple[Event, ...], tuple[frozenset, ...]]] = {}
        self.initial = self._closure(0)

    def _closure(self, c: int) -> frozenset[int]:
        """The senders among `c` and every configuration it reaches by edges
        that send nothing.

        A configuration whose only edge sends nothing has its successor's
        closure, so a chain of them is followed to a configuration whose
        closure is known, or that sends or branches; a chain that comes
        back on itself (a silent cycle) stops where it does.  The walk over
        the closure of the chain's end reads every edge once, and records a
        configuration as a sender when one of its edges has an event.  The
        result is recorded for the end and for every configuration on the
        chain.  Callers look in `_closures` first; this computes and
        records it.
        """
        pend, succ, closures = self._pend, self._succ, self._closures
        chain: set[int] = set()
        got = None
        while c not in chain and len(ts := succ[c]) == 1 and pend[ts[0]] is None:
            chain.add(c)
            c = ts[0]
            got = closures.get(c)
            if got is not None:
                break
        if got is None:
            seen = {c}
            todo = [c]
            senders = []
            while todo:
                s = todo.pop()
                sends = False
                for t in succ[s]:
                    if pend[t] is not None:
                        sends = True
                    elif t not in seen:
                        seen.add(t)
                        todo.append(t)
                if sends:
                    senders.append(s)
            got = frozenset(senders)
            got = closures[c] = self._shared.setdefault(got, got)
        for k in chain:
            closures[k] = got
        return got

    def steps(self, senders: frozenset) -> tuple[tuple[Event, ...], tuple[frozenset, ...]]:
        """The events a node's senders can send, sorted, and the node each
        leads to.

        An event's next node is the union of its send targets' nodes.
        """
        got = self._steps.get(senders)
        if got is None:
            pend, succ = self._pend, self._succ
            closures = self._closures
            sent: dict[Event, frozenset] = {}
            for c in senders:
                for t in succ[c]:
                    ev = pend[t]
                    if ev is not None:
                        nxt = closures.get(t)
                        if nxt is None:
                            nxt = self._closure(t)
                        sent[ev] = sent[ev] | nxt if ev in sent else nxt
            events = tuple(sorted(sent))
            got = self._steps[senders] = (events, tuple(map(sent.__getitem__, events)))
        return got


def trace_language(r: RestrictedAutomaton, bound: int) -> frozenset[tuple[Event, ...]]:
    """All channel-event traces of length ≤ bound.  Prefix-closed."""
    view = _EventView(r)
    traces = {(): None}
    frontier = deque([((), view.initial)])
    while frontier:
        trace, senders = frontier.popleft()
        if len(trace) >= bound:
            continue
        for ev, nxt in zip(*view.steps(senders)):
            t2 = trace + (ev,)
            if t2 not in traces:
                traces[t2] = None
                frontier.append((t2, nxt))
    return frozenset(traces)


class TraceEquivalence(NamedTuple):
    equal: bool
    distinguishing: tuple[Event, ...] | None
    sufficient_bound: int
    bound_used: int | None  # None = complete fixpoint


def trace_equivalent(
    r1: RestrictedAutomaton, r2: RestrictedAutomaton, *, bound: int | None = None
) -> TraceEquivalence:
    """Lockstep determinized comparison of channel-event behavior.

    Both sides need the same channels, characters and open components.
    Without a bound the walk runs to fixpoint over pairs of view nodes
    (the senders of a silent closure on each side), which is exhaustive
    for finite configuration graphs; with a bound it stops at that trace
    length.  On divergence the shortest distinguishing trace is returned
    (breadth-first order guarantees minimality).
    """
    if set(r1.channels) != set(r2.channels):
        raise WiringError("networks have different channel structure")
    for ch in r1.channels:
        o1 = r1.outputs[ch.out_component].characters
        o2 = r2.outputs[ch.out_component].characters
        if o1 != o2:
            raise WiringError(
                f"channel {channel_str(r1, ch)} carries {sorted(o1)} on one side, "
                f"{sorted(o2)} on the other"
            )
    say = lambda r, end: f"{r.name} has " + ("no more" if end is None else f"{end.name} {sorted(end.characters)}")
    for side, kind in enumerate(("input", "output")):
        # Each side's open components of this kind, in index order.
        ends = [[(r.inputs, r.outputs)[side][k] for k in open_components(r)[side]] for r in (r1, r2)]
        for e1, e2 in zip_longest(*ends):
            if e1 is None or e2 is None or e1.characters != e2.characters:
                raise WiringError(f"open {kind} components differ: {say(r1, e1)}, {say(r2, e2)}")
    sufficient = len(r1.graph.nodes) * len(r2.graph.nodes)
    v1, v2 = _EventView(r1), _EventView(r2)
    start = (v1.initial, v2.initial)
    # Each visited pair points at the pair and event it was first reached
    # by; the trace is spelled out only for a divergence.
    parent: dict[tuple[frozenset, frozenset], tuple | None] = {start: None}
    level = [start]
    depth = 0
    while level and (bound is None or depth < bound):
        reached = []
        for pair in level:
            events, to1 = v1.steps(pair[0])
            other, to2 = v2.steps(pair[1])
            if events != other:
                trace = [min(set(events).symmetric_difference(other))]
                while (link := parent[pair]) is not None:
                    pair, ev = link
                    trace.append(ev)
                return TraceEquivalence(False, tuple(reversed(trace)), sufficient, bound)
            for ev, n1, n2 in zip(events, to1, to2):
                nxt = (n1, n2)
                if nxt not in parent:
                    parent[nxt] = (pair, ev)
                    reached.append(nxt)
        level = reached
        depth += 1
    return TraceEquivalence(True, None, sufficient, bound)


# ---------------------------------------------------------------------------
# Safety


class SafetyReport(NamedTuple):
    ok: bool
    violation: Configuration | None
    path: tuple[Edge, ...] | None


def safety_query(
    r: RestrictedAutomaton, bad: Callable[[Configuration], bool]
) -> SafetyReport:
    """Search every reachable configuration for the bad predicate.

    Returns the first violation in breadth-first order together with a
    shortest edge path from the initial configuration (replayable through
    `enabled`).
    """
    g = r.graph
    # Node numbers are breadth-first discovery order, so `bad` sees the
    # nodes in search order and the first bad one is a nearest violation.
    v = next((j for j, c in enumerate(g.nodes) if bad(c)), None)
    if v is None:
        return SafetyReport(True, None, None)
    # parent[j] is (i, k) where j first appears in succ: the edge the search found it by.
    parent: list[tuple[int, int] | None] = [None] * len(g.nodes)
    for i in range(v):
        for k, j in enumerate(g.succ[i]):
            if parent[j] is None:
                parent[j] = (i, k)
    path, j = [], v
    while j:
        i, k = parent[j]
        path.append(Edge(g.moves[i][k], g.nodes[j]))
        j = i
    return SafetyReport(False, g.nodes[v], tuple(reversed(path)))
