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

`Condition.matches` is the per-transition definition.  A restriction of
a product (`channels.cbr` of a `product.LazyProduct` with `conditions=`,
or `cond` of one) compiles its conditions onto the product's move table:
each (move, condition) pair is decided once, and what is left is a digit
test on the packed state code for the factors the move leaves alone (see
`product._guards`).  A restriction of a plain automaton (`cond`, or
`cbr` with `conditions=`) compiles its condition set once with
`product.veto`, which indexes the conditions by their first pinned source
slot, so each transition is tested only against the conditions its source
state can satisfy.

A plain automaton is its restriction by no channels, so the checks here
that take one (`is_quasi_deterministic`, `is_consistent_cond`) answer
from `cbr(a)`, each configuration read as its state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Union

from .core import (
    EPSILON,
    WILDCARD,
    Nfioa,
    Transition,
    VectorChar,
    automata_equal,
    is_silent,
    project,
    prune,
    reachable_states,
)
from .channels import Consistency, RestrictedAutomaton, cbr, is_consistent
from .errors import WiringError
from .product import LazyProduct, materialize, veto


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


def _no_slots(_vector) -> tuple:
    return ()


def _pinned(pattern: tuple[str, ...]) -> tuple[Callable, object]:
    """One-call reader of a pattern's non-wildcard slots, and what it must read.

    `itemgetter` returns a bare value for one slot and a tuple for several;
    reading the pattern itself gives the expected value in the same shape.
    """
    slots = [i for i, p in enumerate(pattern) if p != WILDCARD]
    get = itemgetter(*slots) if slots else _no_slots
    return get, get(pattern)


@dataclass(frozen=True)
class Condition:
    """One veto: transitions matching all four patterns are eliminated.

    State patterns are per-slot literals or "*"; a label pattern given as
    None is `IoPattern.any()`.  A `scope` of None means the condition owns
    the whole vector; either way the transition must show activity inside
    the scope to match (see module docstring).

    The pinned (non-wildcard) state slots and the label checks are
    compiled once at construction, into a field left out of equality,
    hashing and repr.
    """

    name: str
    source: tuple[str, ...]
    target: tuple[str, ...]
    input: IoPattern = IoPattern.any()
    output: IoPattern = IoPattern.any()
    scope: Scope | None = None
    _compiled: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        source, target = tuple(self.source), tuple(self.target)
        input, output = self.input or IoPattern.any(), self.output or IoPattern.any()
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "output", output)
        object.__setattr__(
            self,
            "_compiled",
            (
                len(source),
                len(target),
                *_pinned(source),
                *_pinned(target),
                None if input.kind == "any" else input.matches,
                None if output.kind == "any" else output.matches,
            ),
        )

    def _active_in_scope(self, t: Transition) -> bool:
        if self.scope is None:
            return t.source != t.target or not is_silent(t.input) or not is_silent(t.output)
        return (
            any(t.source[i] != t.target[i] for i in self.scope.state_components)
            or any(t.input[i] != EPSILON for i in self.scope.input_components)
            or any(t.output[i] != EPSILON for i in self.scope.output_components)
        )

    def matches(self, t: Transition) -> bool:
        width, target_width, source_at, source_is, target_at, target_is, input, output = (
            self._compiled
        )
        return (
            len(t.source) == width
            and len(t.target) == target_width
            and source_at(t.source) == source_is
            and target_at(t.target) == target_is
            and (input is None or input(t.input))
            and (output is None or output(t.output))
            and self._active_in_scope(t)
        )


def cond(
    source: Union[Nfioa, LazyProduct, RestrictedAutomaton],
    conditions: Iterable[Condition],
    *,
    name: str | None = None,
) -> Union[Nfioa, RestrictedAutomaton]:
    """Eliminate every transition matching some condition.

    On a plain automaton this keeps states, interfaces, acceptance, and
    initial state untouched; the surviving transitions are those out of a
    (pre-restriction) reachable state that no condition matches.  A lazy
    product gives the same automaton as `cond` of its `weak_product`, but
    is materialized from its table with the conditions compiled on (see
    `product.materialize`), so a vetoed transition is never built.  On a
    channel-restricted automaton the conditions join its own and
    the configuration graph is re-explored.
    """
    if isinstance(source, RestrictedAutomaton):
        return cbr(source, conditions=conditions, name=name)
    if isinstance(source, LazyProduct):
        return materialize(source, tuple(conditions), name=name)
    reach = reachable_states(source)
    deny = veto(conditions)
    surviving = frozenset(t for t in source.transitions if t.source in reach and not deny(t))
    return replace(source, name=name or source.name, transitions=surviving)


def cond_strict(a: Nfioa, conditions: Iterable[Condition]) -> Nfioa:
    """Like `cond`, then drop whatever the surviving relation cannot reach.

    Separate from `cond` on purpose: re-pruning changes which sources
    count as live, and the two readings genuinely differ on automata
    where the restriction disconnects part of the graph.
    """
    return prune(cond(a, conditions))


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

    Checked over the configuration graph, `cbr(source)` for a plain
    automaton, so a state entered both relaxed and excited is checked per
    entry mode.  Nodes are walked by number, in breadth-first order from
    the initial one, and the witness is a clash nearest it: a
    configuration for a restriction, and for a plain automaton, whose
    configurations are all relaxed, its state.
    """
    if isinstance(source, RestrictedAutomaton):
        return _first_clash(zip(source.graph.nodes, source.graph.moves))
    g = cbr(source).graph
    return _first_clash(zip((c.state for c in g.nodes), g.moves))


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
    consistency for them is the channel check on `cbr(a)`, the restriction
    by no channels, with each configuration read as its state: the
    witness is a stuck state nearest the initial one.
    """
    ok, witness, anchors = is_consistent(cbr(a))
    return Consistency(ok, None if witness is None else witness.state, frozenset(c.state for c in anchors))
