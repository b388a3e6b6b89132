"""Graphviz DOT rendering for automata and configuration graphs.

Output is deliberately boring: nodes and edges are emitted in sorted
order with fixed formatting, so two exports of the same object are
byte-identical and diffs of exports track real changes.
"""

from __future__ import annotations

from itertools import accumulate

from .core import Nfioa, label_str, state_str
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


# A relaxed configuration's stand-in for its pending character, built once.
_NO_PENDING = (Channel(-1, -1), "")


def _ckey(c: Configuration):
    return (c.state, c.pending is not None, c.pending or _NO_PENDING)


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
    # An edge's label is its move's, formatted once per move.
    labels = {}
    for move in set(g.move_ids):
        inp, outp, _ = g.move_labels(move)
        labels[move] = _esc(f"{label_str(inp, r.inputs)} / {label_str(outp, r.outputs)}")
    # Node i's edges are `move_ids[first[i]:first[i + 1]]`.
    first = [0, *accumulate(map(len, g.succ))]
    for i in order:
        for j, move in zip(g.succ[i], g.move_ids[first[i] : first[i + 1]]):
            lines.append(f'  {ids[i]} -> {ids[j]} [label="{labels[move]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
