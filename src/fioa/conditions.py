"""Condition-based restriction: declarative vetoes over transitions.

A condition names a shape of move — source/target state patterns plus
input/output label patterns — and every transition matching it is
eliminated.  Conditions are data, not callbacks, so they serialize, diff,
and report which one killed which transition.

A condition may carry a *scope*: the component slots it is entitled to
look at.  A transition only matches if it is actually active inside that
scope (some scoped state slot changes or some scoped label slot is
non-silent).  Without the guard, a wildcard-heavy condition would also
veto moves of completely unrelated parts of a composed system that merely
pass through a matching state combination, and restricting a composite
would stop agreeing with restricting the coordinated parts alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence, Union

from .core import (
    EPSILON,
    Nfioa,
    StateVector,
    Transition,
    VectorChar,
    automata_equal,
    is_silent,
    project,
    prune,
    reachable_states,
    require_valid,
)
from .channels import (
    Consistency,
    RestrictedAutomaton,
    cbr,
    graph_consistency,
)
from .errors import WiringError

WILDCARD = "*"


@dataclass(frozen=True)
class IoPattern:
    """Pattern over one vector label.

    kinds: `any` matches every label; `silent` only the all-empty label;
    `literal` the label carrying exactly `character` at `component`;
    `active` any label non-silent at `component`.
    """

    kind: str
    component: int | None = None
    character: str | None = None

    KINDS = ("any", "silent", "literal", "active")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise WiringError(f"unknown label pattern kind {self.kind!r}")
        if self.kind == "literal" and (self.component is None or not self.character):
            raise WiringError("literal label pattern needs a component and a character")
        if self.kind == "active" and self.component is None:
            raise WiringError("active label pattern needs a component")

    @classmethod
    def any(cls) -> "IoPattern":
        return cls("any")

    @classmethod
    def silent(cls) -> "IoPattern":
        return cls("silent")

    @classmethod
    def literal(cls, component: int, character: str) -> "IoPattern":
        return cls("literal", component, character)

    @classmethod
    def active(cls, component: int) -> "IoPattern":
        return cls("active", component)

    def matches(self, vc: VectorChar) -> bool:
        if self.kind == "any":
            return True
        if self.kind == "silent":
            return is_silent(vc)
        if self.kind == "literal":
            return (
                self.component < len(vc)
                and vc[self.component] == self.character
            )
        return self.component < len(vc) and vc[self.component] != EPSILON


class Scope(NamedTuple):
    """Which flat component slots a condition is entitled to look at."""

    state_components: tuple[int, ...]
    input_components: tuple[int, ...]
    output_components: tuple[int, ...]


@dataclass(frozen=True)
class Condition:
    """One veto: transitions matching all four patterns are eliminated.

    State patterns are per-slot literals or "*".  A `scope` of None means
    the condition owns the whole vector; either way the transition must
    show activity inside the scope to match (see module docstring).
    """

    name: str
    source: tuple[str, ...]
    target: tuple[str, ...]
    input: IoPattern
    output: IoPattern
    scope: Scope | None = None

    def __init__(
        self,
        name: str,
        source: Iterable[str],
        target: Iterable[str],
        input: IoPattern | None = None,
        output: IoPattern | None = None,
        scope: Scope | None = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "source", tuple(source))
        object.__setattr__(self, "target", tuple(target))
        object.__setattr__(self, "input", input or IoPattern.any())
        object.__setattr__(self, "output", output or IoPattern.any())
        object.__setattr__(self, "scope", scope)

    def _state_match(self, pattern: tuple[str, ...], s: StateVector) -> bool:
        if len(pattern) != len(s):
            return False
        return all(p == WILDCARD or p == v for p, v in zip(pattern, s))

    def _active_in_scope(self, t: Transition) -> bool:
        if self.scope is None:
            state_idx: Sequence[int] = range(len(t.source))
            in_idx: Sequence[int] = range(len(t.input))
            out_idx: Sequence[int] = range(len(t.output))
        else:
            state_idx = self.scope.state_components
            in_idx = self.scope.input_components
            out_idx = self.scope.output_components
        return (
            any(t.source[i] != t.target[i] for i in state_idx)
            or any(t.input[i] != EPSILON for i in in_idx)
            or any(t.output[i] != EPSILON for i in out_idx)
        )

    def matches(self, t: Transition) -> bool:
        return (
            self._state_match(self.source, t.source)
            and self._state_match(self.target, t.target)
            and self.input.matches(t.input)
            and self.output.matches(t.output)
            and self._active_in_scope(t)
        )


def cond(
    source: Union[Nfioa, RestrictedAutomaton],
    conditions: Iterable[Condition],
    *,
    name: str | None = None,
) -> Union[Nfioa, RestrictedAutomaton]:
    """Eliminate every transition matching some condition.

    On a plain automaton this keeps states, interfaces, acceptance, and
    initial state untouched; the surviving transitions are those out of a
    (pre-restriction) reachable state that no condition matches.  On a
    channel-restricted automaton the conditions join its edge filter and
    the configuration graph is re-explored.
    """
    conditions = tuple(conditions)
    if isinstance(source, RestrictedAutomaton):
        return cbr(
            source.base,
            source.channels,
            conditions=tuple(source.conditions) + conditions,
            name=name or source.name,
        )
    a = require_valid(source)
    reach = reachable_states(a)
    surviving = frozenset(
        t
        for t in a.transitions
        if t.source in reach and not any(c.matches(t) for c in conditions)
    )
    return replace(a, name=name or a.name, transitions=surviving)


def cond_strict(
    a: Nfioa, conditions: Iterable[Condition], *, name: str | None = None
) -> Nfioa:
    """Like `cond`, then drop whatever the surviving relation cannot reach.

    Separate from `cond` on purpose: re-pruning changes which sources
    count as live, and the two readings genuinely differ on automata
    where the restriction disconnects part of the graph.
    """
    return prune(cond(a, conditions, name=name))


class QuasiDeterminism(NamedTuple):
    ok: bool
    witness: tuple | None  # (state-or-config, input label, clashing transitions)


def _first_clash(places) -> QuasiDeterminism:
    """The first `(place, moves)` with two moves on one input label."""
    for where, moves in places:
        by_input: dict[VectorChar, list[Transition]] = {}
        for t in moves:
            by_input.setdefault(t.input, []).append(t)
        for label, ts in sorted(by_input.items()):
            if len(ts) > 1:
                return QuasiDeterminism(False, (where, label, tuple(sorted(ts))))
    return QuasiDeterminism(True, None)


def is_quasi_deterministic(
    source: Union[Nfioa, RestrictedAutomaton]
) -> QuasiDeterminism:
    """At most one move per input label — silent included — anywhere reachable.

    Plain automata are checked over reachable states; restricted automata
    over their configuration graph, so a state entered both relaxed and
    excited is checked per entry mode.
    """
    if isinstance(source, RestrictedAutomaton):
        g = source.graph
        return _first_clash((cfg, (e.transition for e in g.edges[cfg])) for cfg in g.nodes())
    a = require_valid(source)
    by_source: dict[StateVector, list[Transition]] = {}
    for t in a.transitions:
        by_source.setdefault(t.source, []).append(t)
    return _first_clash((s, by_source.get(s, ())) for s in sorted(reachable_states(a)))


def is_unaffected(a: Nfioa, conditions: Iterable[Condition], p) -> bool:
    """Does the projected image even notice the restriction?

    True when projecting the automaton and projecting its restriction
    give equal automata (compared on their reachable parts).
    """
    left = project(a, p)
    right = project(cond(a, conditions), p)
    return automata_equal(left, right).equal


def is_consistent_cond(a: Nfioa) -> Consistency:
    """Acceptance-reachability over the plain transition graph.

    The condition-restricted operator returns ordinary automata, so
    consistency for them is the channel check with configurations
    replaced by reachable states.
    """
    require_valid(a)
    reach = reachable_states(a)
    succ: dict[StateVector, list[StateVector]] = {s: [] for s in reach}
    for t in sorted(a.transitions):
        if t.source in reach and t.target in reach:
            succ[t.source].append(t.target)
    return graph_consistency(
        sorted(reach),
        lambda s: succ[s],
        lambda s: s,
        a.acceptance,
    )
