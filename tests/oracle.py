"""Naive references for the differential tests, and the seeded `.pw`
generator that feeds them.

Each reference answers one question as its definition reads, over the dict
from configuration to `(transition, target)` edges that `explore` builds
breadth first: no node numbers, packed keys, move tables or guards.  Of
fioa it uses value types and `Condition.matches` (see `test_conditions`).
"""
from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import replace
from itertools import product as cartesian
from typing import NamedTuple

from fioa.conditions import Condition, IoPattern, Scope
from fioa.core import Acceptance, ComponentAlphabet, Nfioa, Transition


class Config(NamedTuple):
    """A state and the `((out, in), character)` in flight, if any."""

    state: tuple[str, ...]
    pending: tuple | None

    @property
    def excited(self) -> bool:
        return self.pending is not None


class Naive(NamedTuple):
    """Edges by configuration, breadth first from `initial`; output characters by flat component."""

    initial: Config
    edges: dict
    channels: tuple
    outputs: tuple
    acceptance: Acceptance | None


def _active(vc: tuple[str, ...]) -> tuple[int, str] | None:
    return next(((k, ch) for k, ch in enumerate(vc) if ch), None)


def explore(factors, channels=(), conditions=(), acceptance=None) -> Naive:
    """The factors' weak product wired by `channels` and restricted by
    `conditions`: every factor move in fresh full-width labels, sorted, less
    those a condition matches; a relaxed configuration reads no channel-fed
    input, an excited one exactly its pending character."""
    n_in, n_out = sum(len(f.inputs) for f in factors), sum(len(f.outputs) for f in factors)

    def moves(state):
        out, at, i_off, o_off = set(), 0, 0, 0
        for f in factors:
            w = len(f.initial)
            for t in f.transitions:
                if t.source == state[at : at + w]:
                    inp, outp = [""] * n_in, [""] * n_out
                    inp[i_off : i_off + len(t.input)] = t.input
                    outp[o_off : o_off + len(t.output)] = t.output
                    out.add(Transition(state, state[:at] + t.target + state[at + w :], tuple(inp), tuple(outp)))
            at, i_off, o_off = at + w, i_off + len(f.inputs), o_off + len(f.outputs)
        return sorted(out)

    sent, fed = {ch[0]: ch for ch in channels}, {ch[1] for ch in channels}
    init = Config(tuple(v for f in factors for v in f.initial), None)
    edges, frontier = {init: None}, deque([init])
    while frontier:
        cfg = frontier.popleft()
        here = []
        for t in moves(cfg.state):
            ia, oa = _active(t.input), _active(t.output)
            if any(c.matches(t) for c in conditions):
                continue
            if cfg.pending is None and ia is not None and ia[0] in fed:
                continue
            if cfg.pending is not None and ia != (cfg.pending[0][1], cfg.pending[1]):
                continue
            nxt = Config(t.target, (sent[oa[0]], oa[1]) if oa is not None and oa[0] in sent else None)
            here.append((t, nxt))
            if nxt not in edges:
                edges[nxt] = None
                frontier.append(nxt)
        edges[cfg] = tuple(here)
    return Naive(init, edges, tuple(channels), tuple(c.characters for f in factors for c in f.outputs), acceptance)


def product_acceptance(factors) -> Acceptance:
    """The product of the final sets, or of each choice of one Muller member per factor."""
    if factors[0].acceptance.mode == "final":
        return Acceptance.final(sum(s, ()) for s in cartesian(*(f.acceptance.final_states for f in factors)))
    members = cartesian(*(f.acceptance.muller_sets for f in factors))
    return Acceptance.muller({sum(s, ()) for s in cartesian(*combo)} for combo in members)


def sccs(nodes, adj) -> set[frozenset]:
    """Strongly connected components as classes of mutual reachability."""
    reach = {}
    for v in nodes:
        seen, todo = {v}, [v]
        while todo:
            for w in adj[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach[v] = seen
    return {frozenset(w for w in reach[v] if v in reach[w]) for v in nodes}


def well_formed(n: Naive) -> tuple:
    """`(ok, witness)`: the first excited configuration with no edge."""
    stuck = next((c for c, steps in n.edges.items() if c.excited and not steps), None)
    return (stuck is None, stuck)


def consistency(n: Naive) -> tuple:
    """`(ok, witness, anchors)`: anchors on final states, or non-trivial
    components of a Muller member's configurations visiting all of it; the
    witness is the first configuration with no path to an anchor."""
    if n.acceptance.mode == "final":
        anchors = {c for c in n.edges if c.state in n.acceptance.final_states}
    else:
        anchors = set()
        for member in n.acceptance.muller_sets:
            inside = [c for c in n.edges if c.state in member]
            adj = {c: [d for _, d in n.edges[c] if d.state in member] for c in inside}
            for scc in sccs(inside, adj):
                if (len(scc) > 1 or any(c in adj[c] for c in scc)) and {c.state for c in scc} == member:
                    anchors |= scc
    preds = {c: [] for c in n.edges}
    for c, steps in n.edges.items():
        for _, d in steps:
            preds[d].append(c)
    covered, frontier = set(anchors), deque(anchors)
    while frontier:
        for p in preds[frontier.popleft()]:
            if p not in covered:
                covered.add(p)
                frontier.append(p)
    witness = next((c for c in n.edges if c not in covered), None)
    return (witness is None, witness, frozenset(anchors))


def quasi_determinism(n: Naive) -> tuple:
    """`(ok, witness)`: the first configuration, least label and sorted moves of a clash."""
    for c, steps in n.edges.items():
        by_input = {}
        for t, _ in steps:
            by_input.setdefault(t.input, []).append(t)
        clashes = sorted(label for label, ts in by_input.items() if len(ts) > 1)
        if clashes:
            return (False, (c, clashes[0], tuple(sorted(by_input[clashes[0]]))))
    return (True, None)


def event(n: Naive, t: Transition) -> tuple | None:
    """The send a transition makes, read off its output label."""
    slot = _active(t.output)
    return next(((ch, slot[1]) for ch in n.channels if slot is not None and ch[0] == slot[0]), None)


def census(n: Naive) -> Counter:
    """Edges per `(mode, input kind, output kind)`, read off the labels."""
    out = Counter()
    for c, steps in n.edges.items():
        for t, _ in steps:
            inp = "consume" if c.excited else "open-in" if _active(t.input) else "silent-in"
            outp = "silent-out" if _active(t.output) is None else "channel-out" if event(n, t) else "open-out"
            out["excited" if c.excited else "relaxed", inp, outp] += 1
    return out


def dot(n: Naive, name: str, inputs, outputs) -> str:
    """`export_dot` of the graph, written out edge by edge: configurations
    sorted by `(state, excited, pending)` and named `c0`, `c1`, … in that
    order; each label formatted where it is written, components named from
    the flat `inputs` and `outputs`."""

    def esc(text):
        return text.replace("\\", "\\\\").replace('"', '\\"')

    def label(vc, comps):
        slot = _active(vc)
        return "-" if slot is None else f"{comps[slot[0]].name}.{slot[1]}"

    def config(c):
        if not c.excited:
            return "|".join(c.state)
        (o, i), char = c.pending
        return f"{'|'.join(c.state)} !{char}@{outputs[o].name}>{inputs[i].name}"

    order = sorted(n.edges, key=lambda c: (c.state, c.excited, c.pending or ()))
    ids = {c: f"c{k}" for k, c in enumerate(order)}
    lines = [f'digraph "{esc(name)}" {{', "  rankdir=LR;", "  node [shape=ellipse];"]
    for c in order:
        attrs = [f'label="{esc(config(c))}"', *["style=dashed"] * c.excited, *["penwidth=2"] * (c == n.initial)]
        lines.append(f"  {ids[c]} [{', '.join(attrs)}];")
    for c in order:
        for t, d in n.edges[c]:
            text = esc(f"{label(t.input, inputs)} / {label(t.output, outputs)}")
            lines.append(f'  {ids[c]} -> {ids[d]} [label="{text}"];')
    return "\n".join([*lines, "}"]) + "\n"


class Lockstep:
    """Silent closures rebuilt from scratch each time, and the trace-language
    and lockstep trace-equivalence walks over them, entries with whole traces.
    Tallies closure sizes and silent cycles, so a test can show they occur."""

    def __init__(self):
        self.closure_sizes = Counter()
        self.silent_cycles = 0

    def closure(self, n: Naive, cfgs) -> frozenset:
        seen = set(cfgs)
        frontier = deque(seen)
        while frontier:
            c = frontier.popleft()
            for t, target in n.edges[c]:
                if event(n, t) is None:
                    if target in seen:
                        # back to a start through another configuration
                        self.silent_cycles += target != c and target in cfgs
                    else:
                        seen.add(target)
                        frontier.append(target)
        self.closure_sizes[len(seen)] += 1
        return frozenset(seen)

    def event_steps(self, n: Naive, closure) -> dict:
        """Each event sent from `closure`, and the closure of its targets."""
        steps = {}
        for c in closure:
            for t, target in n.edges[c]:
                if (ev := event(n, t)) is not None:
                    steps.setdefault(ev, set()).add(target)
        return {ev: self.closure(n, targets) for ev, targets in steps.items()}

    def trace_language(self, n: Naive, bound: int) -> frozenset:
        traces = {()}
        frontier = deque([((), self.closure(n, [n.initial]))])
        while frontier:
            trace, closure = frontier.popleft()
            if len(trace) < bound:
                for ev, nxt in self.event_steps(n, closure).items():
                    if trace + (ev,) not in traces:
                        traces.add(trace + (ev,))
                        frontier.append((trace + (ev,), nxt))
        return frozenset(traces)

    def trace_equivalent(self, n1: Naive, n2: Naive, bound: int | None) -> tuple | None:
        """`(equal, distinguishing trace, sufficient bound, bound)`; None when
        the two differ in channels or in a channel's characters."""
        if set(n1.channels) != set(n2.channels) or any(n1.outputs[o] != n2.outputs[o] for o, _ in n1.channels):
            return None
        sufficient = len(n1.edges) * len(n2.edges)
        s1, s2 = self.closure(n1, [n1.initial]), self.closure(n2, [n2.initial])
        seen, frontier = {(s1, s2)}, deque([((), s1, s2)])
        while frontier:
            trace, c1, c2 = frontier.popleft()
            if bound is not None and len(trace) >= bound:
                continue
            e1, e2 = self.event_steps(n1, c1), self.event_steps(n2, c2)
            if set(e1) != set(e2):
                return (False, trace + (min(set(e1) ^ set(e2)),), sufficient, bound)
            for ev in sorted(e1):
                if (e1[ev], e2[ev]) not in seen:
                    seen.add((e1[ev], e2[ev]))
                    frontier.append((trace + (ev,), e1[ev], e2[ev]))
        return (True, None, sufficient, bound)


def safety(n: Naive, bad) -> tuple:
    """`(ok, violation, path)`: the first bad configuration breadth first, and its path."""
    paths, frontier = {n.initial: ()}, deque([n.initial])
    while frontier:
        c = frontier.popleft()
        if bad(c):
            return (False, c, paths[c])
        for step in n.edges[c]:
            if step[1] not in paths:
                paths[step[1]] = paths[c] + (step,)
                frontier.append(step[1])
    return (True, None, None)


def run(n: Naive, bound: int, pick) -> tuple:
    """`(configurations, transitions)` as `pick` chooses edges, to a deadlock or `bound` steps."""
    c, configs, trans = n.initial, [n.initial], []
    while len(trans) < bound and n.edges[c]:
        t, c = pick(n.edges[c])
        configs.append(c)
        trans.append(t)
    return (tuple(configs), tuple(trans))


def runs(n: Naive, bound: int) -> tuple:
    """Every run that deadlocks or reaches `bound`, depth first in edge order."""
    out, stack = [], [((n.initial,), ())]
    while stack:
        configs, trans = stack.pop()
        steps = n.edges[configs[-1]]
        if not steps or len(trans) >= bound:
            out.append((configs, trans))
        else:
            stack += [(configs + (c,), trans + (t,)) for t, c in reversed(steps)]
    return tuple(out)


# ---------------------------------------------------------------------------
# Random inputs


def draw_conditions(rng: random.Random, values, n_in: int, n_out: int, chars) -> list[Condition]:
    """One to eight flat conditions over states whose slot i takes
    `values[i]`, for what text cannot write: label slots off the end,
    patterns a slot wider than the states or targets wider than their
    source, and scopes over any slots.  Target pins mostly repeat source
    pins, so conditions often pin slots that do not move."""

    def io(n):
        kind = rng.choice(("any", "any", "silent", "literal", "active"))
        component = rng.randrange(n + 1)  # sometimes off the end
        if kind == "literal":
            return IoPattern.literal(component, rng.choice(chars))
        return IoPattern.active(component) if kind == "active" else IoPattern(kind)

    conditions = []
    for k in range(rng.randint(1, 8)):
        slots = [*values, values[-1]][: len(values) + (rng.random() < 0.2)]
        wild = rng.choice((0.3, 0.6, 1.0))
        source = ["*" if rng.random() < wild else rng.choice(v) for v in slots]
        target = [p if rng.random() < 0.6 else rng.choice(["*", *v]) for p, v in zip(source, slots)]
        if rng.random() < 0.1:
            target.append(rng.choice(["*", *slots[-1]]))
        scope = None
        if rng.random() < 0.5:
            scope = Scope(*(tuple(sorted(rng.sample(range(n), rng.randint(0, n)))) for n in (len(slots), n_in, n_out)))
        conditions.append(Condition(f"c{k}", source, target, io(n_in), io(n_out), scope))
    return conditions


class Generated(NamedTuple):
    """A generated document and what compiling its network must give."""

    seed: int
    text: str  # of a network named net<seed>
    factors: tuple[Nfioa, ...]  # alias-named, started where `init` says
    channels: tuple[tuple[int, int], ...]
    conditions: tuple[Condition, ...]
    acceptance: Acceptance | None  # the network's override
    naive: Naive


def machine(rng: random.Random, name: str, mode: str) -> Nfioa:
    """2–4 states, one or two input and output components over "ab", and
    7–15 drawn moves, each reading and writing with probability 0.6."""
    states = [(f"s{i}",) for i in range(rng.randint(2, 4))]
    inputs, outputs = (
        tuple(ComponentAlphabet(f"{side}{c}", rng.sample("ab", rng.randint(1, 2))) for c in range(rng.randint(1, 2)))
        for side in "io"
    )

    def label(comps):
        vc = [""] * len(comps)
        if rng.random() < 0.6:
            c = rng.randrange(len(comps))
            vc[c] = rng.choice(sorted(comps[c].characters))
        return tuple(vc)

    moves = [
        Transition(rng.choice(states), rng.choice(states), label(inputs), label(outputs))
        for _ in range(rng.randint(7, 15))
    ]
    if mode == "final":
        acceptance = Acceptance.final(rng.sample(states, rng.randint(0, len(states))))
    else:
        members = [rng.sample(states, rng.randint(1, len(states))) for _ in range(rng.randint(1, 2))]
        acceptance = Acceptance.muller(members)
    return Nfioa(name, states, inputs, outputs, rng.choice(states), acceptance, moves)


def _automaton_text(rng: random.Random, a: Nfioa) -> str:
    """`a` as an automaton block, its sections and lists in random order."""

    def listed(names):
        names = sorted(names)
        rng.shuffle(names)
        return ", ".join(names)

    def label(vc, comps):
        slot = _active(vc)
        return "-" if slot is None else f"{comps[slot[0]].name}.{slot[1]}"

    def braced(states):
        return "{" + listed(s for (s,) in states) + "}"

    acc = a.acceptance
    sections = [
        f"states {listed(s for (s,) in a.states)};",
        f"initial {a.initial[0]};",
        *(
            f"{kw} {', '.join(f'{c.name}: {{{listed(c.characters)}}}' for c in comps)};"
            for kw, comps in (("inputs", a.inputs), ("outputs", a.outputs))
        ),
        f"accept final {braced(acc.final_states)};" if acc.mode == "final"
        else f"accept muller {{{', '.join(map(braced, sorted(acc.muller_sets, key=sorted)))}}};",
        *(
            f"trans {t.source[0]} -> {t.target[0]} on {label(t.input, a.inputs)} / {label(t.output, a.outputs)};"
            for t in sorted(a.transitions)
        ),
    ]
    rng.shuffle(sections)
    return "\n".join([f"automaton {a.name} {{", *(f"  {line}" for line in sections), "}"])


def _span(factors, side: str, j: int) -> range:
    """Factor j's flat `side` ("inputs" or "outputs") components."""
    at = sum(len(getattr(f, side)) for f in factors[:j])
    return range(at, at + len(getattr(factors[j], side)))


def _pattern(rng: random.Random, factors, side: str) -> tuple[str | None, IoPattern]:
    """A label pattern's text (None: left out) and its flat form; a port
    is named by its component or, half the time, by its index."""
    kind = rng.choice((None, "any", "spontaneous", "literal", "active"))
    if kind in (None, "any", "spontaneous"):
        return kind, IoPattern.silent() if kind == "spontaneous" else IoPattern.any()
    j = rng.randrange(len(factors))
    comps = getattr(factors[j], side)
    c = rng.randrange(len(comps))
    end = comps[c].name if rng.random() < 0.5 else f"{'in' if side == 'inputs' else 'out'}[{c}]"
    port, flat = f"f{j}.{end}", _span(factors, side, j)[c]
    if kind == "active":
        return f"active({port})", IoPattern.active(flat)
    char = rng.choice([*sorted(comps[c].characters), "a", "b"])
    return f"{port}.{char}", IoPattern.literal(flat, char)


def network(seed: int) -> Generated:
    """Two or three machines; a network of two or three uses of them, some
    started by `init`, with one to three channels, up to three conditions
    (scoped or not, label patterns of every kind) and, half the time, an
    acceptance override in either mode over reached states."""
    rng = random.Random(seed)
    k = rng.randint(2, 3)
    mode = rng.choice(("final", "muller"))
    machines = [machine(rng, f"M{j}", mode) for j in range(k)]
    uses = [j if rng.random() < 0.75 else rng.randrange(k) for j in range(k)]
    inits = [rng.choice(sorted(machines[m].states)) if rng.random() < 0.4 else None for m in uses]
    lines = [f"use f{j} = M{m}" + (f" init {s[0]}" if s else "") + ";" for j, (m, s) in enumerate(zip(uses, inits))]

    # Each receiver is widened to read its sender.
    outs = [(j, c) for j, m in enumerate(uses) for c in range(len(machines[m].outputs))]
    ins = [(j, c) for j, m in enumerate(uses) for c in range(len(machines[m].inputs))]
    n = rng.randint(1, min(3, len(outs), len(ins)))
    channels = tuple(zip(rng.sample(range(len(outs)), n), rng.sample(range(len(ins)), n)))
    for o, i in channels:
        (jo, co), (ji, ci) = outs[o], ins[i]
        inputs = list(machines[uses[ji]].inputs)
        sent = machines[uses[jo]].outputs[co].characters
        inputs[ci] = ComponentAlphabet(inputs[ci].name, inputs[ci].characters | sent)
        machines[uses[ji]] = replace(machines[uses[ji]], inputs=tuple(inputs))
        ends = (f"o{co}", f"i{ci}") if rng.random() < 0.5 else (f"out[{co}]", f"in[{ci}]")
        lines.append(f"channel f{jo}.{ends[0]} -> f{ji}.{ends[1]};")
    factors = tuple(
        replace(machines[m], name=f"f{j}", initial=s or machines[m].initial)
        for j, (m, s) in enumerate(zip(uses, inits))
    )

    conditions = []
    for c in range(rng.randint(0, 3)):
        on = None if rng.random() < 0.3 else rng.sample(range(k), rng.randint(1, k))
        scoped = list(range(k)) if on is None else on
        source, target = ["*"] * k, ["*"] * k
        for j in scoped:
            values = ["*", *(s for (s,) in sorted(factors[j].states))]
            source[j] = rng.choice(values)
            target[j] = source[j] if rng.random() < 0.5 else rng.choice(values)
        (in_text, inp), (out_text, outp) = _pattern(rng, factors, "inputs"), _pattern(rng, factors, "outputs")
        lines.append(
            f"condition c{c}" + ("" if on is None else f" on ({', '.join(f'f{j}' for j in on)})")
            + f": from ({', '.join(source[j] for j in scoped)}) to ({', '.join(target[j] for j in scoped)})"
            + ("" if in_text is None else f" input {in_text}") + ("" if out_text is None else f" output {out_text}")
            + " deny;"
        )
        ports = (tuple(x for j in scoped for x in _span(factors, side, j)) for side in ("inputs", "outputs"))
        conditions.append(Condition(f"c{c}", source, target, inp, outp, Scope(tuple(scoped), *ports)))

    naive = explore(factors, channels, conditions, product_acceptance(factors))
    acceptance = None
    if rng.random() < 0.5:
        # Sets of reached states, half of them the states of a cycle.
        reached = sorted({cfg.state for cfg in naive.edges})
        adj = {cfg: [d for _, d in steps] for cfg, steps in naive.edges.items()}
        cycles = sorted(sorted({cfg.state for cfg in scc}) for scc in sccs(naive.edges, adj))
        sets = [
            rng.choice(cycles) if rng.random() < 0.5 else rng.sample(reached, rng.randint(0, min(3, len(reached))))
            for _ in range(rng.randint(0, 2))
        ]
        braced = ["{" + ", ".join(f"({', '.join(s)})" for s in states) + "}" for states in [sum(sets, []), *sets]]
        if rng.random() < 0.5:
            acceptance, accept = Acceptance.final(sum(sets, [])), f"accept final {braced[0]};"
        else:
            acceptance, accept = Acceptance.muller(sets), f"accept muller {{{', '.join(braced[1:])}}};"
        lines.append(accept)
        naive = naive._replace(acceptance=acceptance)

    body = "".join(f"  {line}\n" for line in lines)
    blocks = [f"# seed {seed}", *(_automaton_text(rng, m) for m in machines), f"network net{seed} {{\n{body}}}\n"]
    return Generated(seed, "\n\n".join(blocks), factors, channels, tuple(conditions), acceptance, naive)
