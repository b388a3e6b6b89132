"""Graphviz DOT rendering for automata and configuration graphs.

Output is deliberately boring: nodes and edges are emitted in sorted
order with fixed formatting, so two exports of the same object are
byte-identical and diffs of exports track real changes.
"""

from __future__ import annotations

from .core import Nfioa, label_str, state_str
from .channels import Channel, Configuration, RestrictedAutomaton


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
        text = state_str(c.state)
        attrs = []
        if c.pending is not None:
            chan, char = c.pending
            text += f" !{char}@{chan.out_component}>{chan.in_component}"
            attrs.append("style=dashed")
        attrs.insert(0, f'label="{_esc(text)}"')
        if c == r.graph.initial:
            attrs.append("penwidth=2")
        lines.append(f"  {ids[c]} [{', '.join(attrs)}];")
    for c in nodes:
        for e in r.graph.edges[c]:
            label = (
                f"{label_str(e.transition.input, r.base.inputs)} / "
                f"{label_str(e.transition.output, r.base.outputs)}"
            )
            lines.append(f'  {ids[c]} -> {ids[e.target]} [label="{_esc(label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
