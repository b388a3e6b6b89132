"""Step semantics: driving a deterministic machine as a clocked system.

A deterministic automaton induces a system with an integer clock, an
internal state, and registered last input/output.  Each step reads one
input label, looks up the unique transition, advances the clock, and
reports the emitted output.  Snapshots are immutable: stepping returns a
new system, so histories can be branched and replayed freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from .core import (
    ComponentAlphabet,
    Nfioa,
    StateVector,
    Transition,
    VectorChar,
    classify,
    epsilon_char,
    label_str,
    require_valid,
    state_str,
)
from .errors import PreconditionError, StepRejected


@dataclass(frozen=True)
class FiniteSystem:
    """One instant of a running machine.

    `time` counts completed steps; `input_reg`/`output_reg` hold the label
    consumed/emitted on the step that produced this snapshot (silent at
    time zero).  `table` is the `(state, input)` step lookup, built once
    for the first snapshot and shared by every later one; it belongs to
    `automaton`, so start a system for another automaton afresh rather
    than by replacing the field.
    """

    automaton: Nfioa
    time: int
    state: StateVector
    input_reg: VectorChar
    output_reg: VectorChar
    table: Mapping[tuple[StateVector, VectorChar], Transition] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        if self.table is None:
            table = {(t.source, t.input): t for t in self.automaton.transitions}
            object.__setattr__(self, "table", table)


def system_from_dfioa(a: Nfioa) -> FiniteSystem:
    """Initial snapshot; the machine must be deterministic.

    Nondeterminism or spontaneous moves make the step lookup ambiguous,
    so both are rejected up front.
    """
    cls = classify(a)
    if not cls.is_deterministic:
        trouble = []
        if cls.has_spontaneous:
            trouble.append("it moves spontaneously")
        if not cls.is_function:
            trouble.append("some (state, input) pair has several transitions")
        raise PreconditionError(f"{a.name} cannot run as a system: " + "; ".join(trouble))
    return FiniteSystem(
        automaton=a,
        time=0,
        state=a.initial,
        input_reg=epsilon_char(len(a.inputs)),
        output_reg=epsilon_char(len(a.outputs)),
    )


def step(s: FiniteSystem, input: VectorChar) -> tuple[VectorChar, FiniteSystem]:
    """Consume one input label; returns (emitted output, next snapshot)."""
    input = tuple(input)
    t = s.table.get((s.state, input))
    if t is None:
        raise StepRejected(
            f"no transition from {s.state!r} on input {input!r} at time {s.time}"
        )
    nxt = replace(s, time=s.time + 1, state=t.target, input_reg=input, output_reg=t.output)
    return t.output, nxt


def drive(
    s: FiniteSystem, inputs: Iterable[VectorChar]
) -> tuple[tuple[Transition, ...], FiniteSystem]:
    """Step through a whole input word, collecting the trace.

    Each trace entry is (state before, state after, input, output) — the
    same shape as a transition, which is what `specifies` checks against.
    """
    entries: list[Transition] = []
    for vc in inputs:
        before = s.state
        out, s = step(s, vc)
        entries.append(Transition(before, s.state, tuple(vc), out))
    return tuple(entries), s


def specifies(a: Nfioa, trace: Sequence[Transition]) -> bool:
    """Is the trace a behavior of this automaton?

    Every entry must be one of the automaton's transitions and the run
    must start at the initial state.  An empty trace is vacuously fine.
    """
    require_valid(a)
    trace = [Transition(*e) for e in trace]
    if not trace:
        return True
    if trace[0].source != a.initial:
        return False
    return all(e in a.transitions for e in trace)


def render_trace(
    trace: Sequence[Transition],
    *,
    inputs: Sequence[ComponentAlphabet] | None = None,
    outputs: Sequence[ComponentAlphabet] | None = None,
) -> str:
    """Tab-separated log: t, state, input, output, next state.

    Vector labels print as the active `component.char` (or `-` when
    silent); pass the interface to name components, otherwise the slot
    index stands in.  States join their slots with `|`.
    """

    lines = []
    for t, e in enumerate(trace):
        lines.append(
            "\t".join(
                (
                    str(t),
                    state_str(e.source),
                    label_str(e.input, inputs),
                    label_str(e.output, outputs),
                    state_str(e.target),
                )
            )
        )
    return "\n".join(lines)
