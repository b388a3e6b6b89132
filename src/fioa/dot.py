"""Graphviz DOT rendering for automata and configuration graphs.

Output is deliberately boring: nodes and edges are emitted in sorted
order with fixed formatting, so two exports of the same object are
byte-identical and diffs of exports track real changes.
"""

from __future__ import annotations

from .core import Nfioa, VectorChar, label_str, state_str
from .channels import Channel, Configuration, RestrictedAutomaton, config_str


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(subject: Nfioa | RestrictedAutomaton) -> str:
    """Render an automaton (plain graph) or a restriction (config graph)."""
    if isinstance(subject, RestrictedAutomaton):
        return _dot_restricted(subject)
    return _dot_nfioa(subject)


def _dot_nfioa(a: Nfioa) -> str:
    nodes = sorted(a.states)
    ids = {s: f"n{i}" for i, s in enumerate(nodes)}
    lines = [f'digraph "{_esc(a.name)}" {{', "  rankdir=LR;", '  node [shape=ellipse];']
    finals = a.acceptance.final_states if a.acceptance.mode == "final" else frozenset()
    for s in nodes:
        attrs = [f'label="{_esc(state_str(s))}"']
        if s == a.initial:
            attrs.append("penwidth=2")
        if s in finals:
            attrs.append("peripheries=2")
        lines.append(f"  {ids[s]} [{', '.join(attrs)}];")
    for t in sorted(a.transitions):
        label = f"{label_str(t.input, a.inputs)} / {label_str(t.output, a.outputs)}"
        lines.append(f'  {ids[t.source]} -> {ids[t.target]} [label="{_esc(label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _ckey(c: Configuration):
    return (c.state, c.pending is not None, c.pending or (Channel(-1, -1), ""))


def _dot_restricted(r: RestrictedAutomaton) -> str:
    g = r.graph
    order = sorted(range(len(g.nodes)), key=lambda i: _ckey(g.nodes[i]))
    ids = [""] * len(order)  # by node number
    for n, i in enumerate(order):
        ids[i] = f"c{n}"
    lines = [f'digraph "{_esc(r.name)}" {{', "  rankdir=LR;", '  node [shape=ellipse];']
    for i in order:
        attrs = [f'label="{_esc(config_str(r, g.nodes[i]))}"']
        if g.nodes[i].pending is not None:
            attrs.append("style=dashed")
        if i == 0:
            attrs.append("penwidth=2")
        lines.append(f"  {ids[i]} [{', '.join(attrs)}];")
    # Edges share few distinct labels; each is formatted once.
    labels: dict[tuple[VectorChar, VectorChar], str] = {}
    for i in order:
        for t, j in zip(g.moves[i], g.succ[i]):
            key = (t.input, t.output)
            label = labels.get(key)
            if label is None:
                label = labels[key] = _esc(
                    f"{label_str(key[0], r.inputs)} / {label_str(key[1], r.outputs)}"
                )
            lines.append(f'  {ids[i]} -> {ids[j]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
