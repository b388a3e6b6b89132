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
    nodes = sorted(r.graph.edges, key=_ckey)
    ids = {c: f"c{i}" for i, c in enumerate(nodes)}
    lines = [f'digraph "{_esc(r.name)}" {{', "  rankdir=LR;", '  node [shape=ellipse];']
    for c in nodes:
        attrs = [f'label="{_esc(config_str(r, c))}"']
        if c.pending is not None:
            attrs.append("style=dashed")
        if c == r.graph.initial:
            attrs.append("penwidth=2")
        lines.append(f"  {ids[c]} [{', '.join(attrs)}];")
    # Edges share few distinct labels; each is formatted once.
    labels: dict[tuple[VectorChar, VectorChar], str] = {}
    for c in nodes:
        for e in r.graph.edges[c]:
            key = (e.transition.input, e.transition.output)
            label = labels.get(key)
            if label is None:
                label = labels[key] = _esc(
                    f"{label_str(key[0], r.base.inputs)} / {label_str(key[1], r.base.outputs)}"
                )
            lines.append(f'  {ids[c]} -> {ids[e.target]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
