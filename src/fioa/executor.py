"""Step semantics: driving a deterministic machine as a clocked system.

A deterministic automaton induces a system with an integer clock, an
internal state, and registered last input/output.  Each step reads one
input label, looks up the unique transition, advances the clock, and
reports the emitted output.  Snapshots are immutable: stepping returns a
new system, so histories can be branched and replayed freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .core import (
    ComponentAlphabet,
    Nfioa,
    StateVector,
    Transition,
    VectorChar,
    _classify_valid,
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
    so both are rejected up front.  The machine is validated once, and
    `classify`'s test reads the step table's keys, so the table is built
    once too.
    """
    require_valid(a)
    s = FiniteSystem(
        automaton=a,
        time=0,
        state=a.initial,
        input_reg=epsilon_char(len(a.inputs)),
        output_reg=epsilon_char(len(a.outputs)),
    )
    cls = _classify_valid(a, s.table)
    if not cls.is_deterministic:
        trouble = []
        if cls.has_spontaneous:
            trouble.append("it moves spontaneously")
        if not cls.is_function:
            trouble.append("some (state, input) pair has several transitions")
        raise PreconditionError(f"{a.name} cannot run as a system: " + "; ".join(trouble))
    return s


def step(s: FiniteSystem, input: VectorChar) -> tuple[VectorChar, FiniteSystem]:
    """Consume one input label; returns (emitted output, next snapshot)."""
    input = tuple(input)
    t = s.table.get((s.state, input))
    if t is None:
        raise StepRejected(
            f"no transition from {s.state!r} on input {input!r} at time {s.time}"
        )
    return t.output, FiniteSystem(s.automaton, s.time + 1, t.target, input, t.output, s.table)


def drive(
    s: FiniteSystem, inputs: Iterable[VectorChar]
) -> tuple[tuple[Transition, ...], FiniteSystem]:
    """Step through a whole input word, collecting the trace.

    Each trace entry is the automaton's own transition taken on that step
    (state before, state after, input, output), which is what `specifies`
    checks against.  The word is walked through the step table and only
    the final snapshot is built; the result, and the `StepRejected` raised
    on an input with no transition, are those of repeated `step` calls.
    """
    entries: list[Transition] = []
    state = s.state
    for vc in inputs:
        key = (state, tuple(vc))
        t = s.table.get(key)
        if t is None:
            raise StepRejected(
                f"no transition from {state!r} on input {key[1]!r} at time {s.time + len(entries)}"
            )
        entries.append(t)
        state = t.target
    if not entries:
        return (), s
    last = entries[-1]
    return tuple(entries), FiniteSystem(
        s.automaton, s.time + len(entries), state, last.input, last.output, s.table
    )


def specifies(a: Nfioa, trace: Sequence[Transition]) -> bool:
    """Is the trace a run of this automaton?

    Every entry must be one of the automaton's transitions, the run must
    start at the initial state, and each entry must start where the one
    before it ended.  An empty trace is vacuously fine.
    """
    require_valid(a)
    trace = [Transition(*e) for e in trace]
    if not trace:
        return True
    if trace[0].source != a.initial:
        return False
    if any(prev.target != e.source for prev, e in zip(trace, trace[1:])):
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
