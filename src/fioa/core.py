"""Finite automata with vector-shaped input/output labels.

States are tuples of named values and labels are tuples of characters, one
slot per component, where at most one slot is active (non-empty) on any
transition.  The empty string stands for the silent character, so a label
like ``("", "req", "")`` means "emit `req` on component 1, nothing
elsewhere" and the all-empty tuple is a silent move.  Keeping every state
and label a tuple — even for one-component machines — lets products
concatenate them without special cases.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields, replace
from typing import Collection, Iterable, Literal, Mapping, NamedTuple, Sequence

from .errors import InvalidAutomaton, WiringError

# The silent character.  It is the only false string, so `is_silent` and
# `active_slot` test a character's truth instead of comparing with it.
EPSILON = ""

# A state-pattern slot that any value matches (see `conditions.Condition`).
WILDCARD = "*"

StateVector = tuple[str, ...]
VectorChar = tuple[str, ...]


def epsilon_char(width: int) -> VectorChar:
    return (EPSILON,) * width


def single_char(width: int, component: int, char: str) -> VectorChar:
    """Label that is silent everywhere except `char` at `component`."""
    vc = [EPSILON] * width
    vc[component] = char
    return tuple(vc)


def active_slot(vc: VectorChar) -> tuple[int, str] | None:
    """The (component, character) pair carried by a label, or None if silent."""
    for k, ch in enumerate(vc):
        if ch:
            return (k, ch)
    return None


def is_silent(vc: VectorChar) -> bool:
    return not any(vc)


def state_str(s: StateVector) -> str:
    """A state as its slot values joined with `|`."""
    try:
        return "|".join(s)
    except TypeError:  # a slot that is not a string, named in a diagnostic
        return "|".join(map(str, s))


def label_str(vc: VectorChar, comps: Sequence[ComponentAlphabet] | None = None) -> str:
    """A label as its active `component.char`, or `-` when silent.

    Components are named from `comps`; without it the slot index stands in.
    """
    slot = active_slot(vc)
    if slot is None:
        return "-"
    k, ch = slot
    name = comps[k].name if comps is not None else str(k)
    return f"{name}.{ch}"


@dataclass(frozen=True)
class ComponentAlphabet:
    """One named slot of an input or output interface.

    The character set may be empty: a component can exist purely so the
    machine plugs into a channel that never fires.
    """

    name: str
    characters: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "characters", frozenset(self.characters))


class Transition(NamedTuple):
    source: StateVector
    target: StateVector
    input: VectorChar
    output: VectorChar


@dataclass(frozen=True)
class Acceptance:
    """Acceptance condition: a set of final states, or a Muller family.

    `final` mode accepts finite runs ending in `final_states`; `muller`
    mode accepts infinite runs whose infinitely-visited state set is a
    member of `muller_sets`.
    """

    mode: Literal["final", "muller"]
    final_states: frozenset[StateVector] = frozenset()
    muller_sets: frozenset[frozenset[StateVector]] = frozenset()

    @classmethod
    def final(cls, states: Iterable[StateVector]) -> "Acceptance":
        return cls(mode="final", final_states=frozenset(states))

    @classmethod
    def muller(cls, sets: Iterable[Iterable[StateVector]]) -> "Acceptance":
        return cls(mode="muller", muller_sets=frozenset(frozenset(s) for s in sets))


@dataclass(frozen=True)
class Nfioa:
    """Nondeterministic finite automaton with vector I/O labels.

    Construction, `dataclasses.replace` included, normalises the fields,
    runs `validate` and raises `InvalidAutomaton` with every diagnostic it
    finds, so every automaton that exists is valid and no operator checks
    its argument again.
    """

    name: str
    states: frozenset[StateVector]
    inputs: tuple[ComponentAlphabet, ...]
    outputs: tuple[ComponentAlphabet, ...]
    initial: StateVector
    acceptance: Acceptance
    transitions: frozenset[Transition]

    def __post_init__(self):
        # Sets that are already normal are kept, so `replace` of another
        # field copies neither.
        states, transitions = self.states, self.transitions
        if not (isinstance(states, frozenset) and all(type(s) is tuple for s in states)):
            object.__setattr__(self, "states", frozenset(tuple(s) for s in states))
        if not (
            isinstance(transitions, frozenset)
            and all(isinstance(t, Transition) for t in transitions)
        ):
            object.__setattr__(self, "transitions", frozenset(Transition(*t) for t in transitions))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "initial", tuple(self.initial))
        diags = validate(self)
        if diags:
            raise InvalidAutomaton(diags)

    def __getstate__(self) -> dict:
        # Only the fields: what an operator keeps beside them (`cbr`'s
        # plain restriction) is rebuilt when the copy needs it.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def state_width(self) -> int:
        return len(self.initial)


class BuiltOnRead:
    """A dataclass field holding an `Nfioa`, given as the automaton itself
    or as a callable that builds it.

    The callable is called, with no arguments, the first time the field is
    read, and the automaton it returns takes its place, so an automaton
    nothing reads is never built (nor validated).  The stored value sits in
    the instance's `__dict__` under the field's name, where the owner can
    read it without building it.  The generated `__init__` stores through
    `__set__`, so positional construction and `dataclasses.replace(x,
    field=...)` take either kind of value.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None) -> Nfioa:
        if obj is None:
            # No class-level value: the field has no default.
            raise AttributeError(self.name)
        value = obj.__dict__[self.name]
        if not isinstance(value, Nfioa):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = value


def validate(a: Nfioa) -> list[str]:
    """Structural diagnostics for an automaton; empty list means valid.

    `Nfioa` runs it on every automaton it builds.

    Checks state-set shape, label widths against the declared interfaces,
    membership of every character in its component's alphabet, the
    at-most-one-active-slot rule on both sides of every transition, and
    that the acceptance condition only mentions real states.

    The all-valid case is decided on whole sets: sources and targets
    against the states, and each distinct label once.  States and
    transitions are walked one by one only when such a check found a
    fault, to report each fault.  That walk is sorted by `repr`, which
    no value type can make raise, so the order of the diagnostics is a
    property of the automaton, not of how its sets were built or of the
    hash seed.
    """
    out: list[str] = []
    states = a.states
    if not states:
        out.append("state set is empty")
        return out
    width = len(a.initial)
    if a.initial not in states:
        out.append(f"initial state {state_str(a.initial)} not in state set")
    # A state with an empty slot has a false slot (see `EPSILON`).
    if not (all(map(width.__eq__, map(len, states))) and all(map(all, states))):
        for s in sorted(states, key=repr):
            if len(s) != width:
                out.append(f"state {state_str(s)} has width {len(s)}, expected {width}")
            if "" in s:
                out.append(f"state {state_str(s)} contains an empty component value")
    for side, comps in (("input", a.inputs), ("output", a.outputs)):
        for comp in comps:
            if EPSILON in comp.characters:
                out.append(f"{side} component {comp.name!r} declares the empty string as a character")
    # Transitions share few distinct labels; each is checked once.
    ts = a.transitions
    label_diags = {
        (side, vc): _label_diagnostics(side, vc, comps)
        for side, labels, comps in (
            ("input", {t.input for t in ts}, a.inputs),
            ("output", {t.output for t in ts}, a.outputs),
        )
        for vc in labels
    }
    if not (
        {t.source for t in ts} <= states
        and {t.target for t in ts} <= states
        and not any(label_diags.values())
    ):
        for t in sorted(ts, key=repr):
            if t.source not in states:
                out.append(f"transition source {state_str(t.source)} not a state")
            if t.target not in states:
                out.append(f"transition target {state_str(t.target)} not a state")
            out.extend(label_diags["input", t.input])
            out.extend(label_diags["output", t.output])
    out += acceptance_diagnostics(a.acceptance, states)
    return out


def acceptance_diagnostics(acc: Acceptance, states: frozenset[StateVector]) -> list[str]:
    """`validate`'s diagnostics for an acceptance condition over `states`."""
    out: list[str] = []
    if acc.mode == "final":
        if not states.issuperset(acc.final_states):
            for s in sorted(acc.final_states, key=repr):
                if s not in states:
                    out.append(f"final state {state_str(s)} not a state")
        if acc.muller_sets:
            out.append("final-mode acceptance carries muller sets")
    elif acc.mode == "muller":
        if not all(map(states.issuperset, acc.muller_sets)):
            for member in sorted(acc.muller_sets, key=lambda m: sorted(map(repr, m))):
                for s in sorted(member, key=repr):
                    if s not in states:
                        out.append(f"muller member mentions non-state {state_str(s)}")
        if acc.final_states:
            out.append("muller-mode acceptance carries final states")
    else:
        out.append(f"unknown acceptance mode {acc.mode!r}")
    return out


def _label_diagnostics(side: str, vc: VectorChar, comps: Sequence[ComponentAlphabet]) -> list[str]:
    if len(vc) != len(comps):
        return [f"{side} label {vc!r} has width {len(vc)}, expected {len(comps)}"]
    out: list[str] = []
    active = [(k, ch) for k, ch in enumerate(vc) if ch != EPSILON]
    if len(active) > 1:
        out.append(f"{side} label {vc!r} activates more than one component")
    for k, ch in active:
        if ch not in comps[k].characters:
            out.append(f"{side} character {ch!r} not in component {comps[k].name!r}")
    return out


def require_valid(a: Nfioa) -> Nfioa:
    diags = validate(a)
    if diags:
        raise InvalidAutomaton(diags)
    return a


class AutomatonClass(NamedTuple):
    has_spontaneous: bool
    is_function: bool
    is_deterministic: bool


def classify(a: Nfioa) -> AutomatonClass:
    """Classify an automaton.

    `is_function`: at most one transition per (state, input label).
    `has_spontaneous`: some transition consumes the silent input.
    Deterministic means both: a function with no spontaneous moves, i.e.
    a Mealy machine.
    """
    return _classify_valid(a, {(t.source, t.input) for t in a.transitions})


def _classify_valid(a: Nfioa, keys: Collection[tuple[StateVector, VectorChar]]) -> AutomatonClass:
    """`classify` of an automaton, given its distinct (source, input) pairs.

    Validity, which construction guarantees, makes every source a state
    and every silent input the one all-silent label of the input width,
    so a spontaneous move shows as a (state, silent) pair.  The pairs may
    be a step table's keys, so a caller that needs the table anyway
    builds it only once.
    """
    silent = epsilon_char(len(a.inputs))
    spontaneous = any((s, silent) in keys for s in a.states)
    functional = len(keys) == len(a.transitions)
    return AutomatonClass(
        has_spontaneous=spontaneous,
        is_function=functional,
        is_deterministic=functional and not spontaneous,
    )


def reachable_states(a: Nfioa) -> frozenset[StateVector]:
    """States reachable from the initial state, ignoring labels."""
    step: dict[StateVector, set[StateVector]] = {}
    for t in a.transitions:
        step.setdefault(t.source, set()).add(t.target)
    seen = {a.initial}
    frontier = deque([a.initial])
    while frontier:
        s = frontier.popleft()
        for nxt in step.get(s, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def prune(a: Nfioa) -> Nfioa:
    """Restrict to the reachable part.

    Muller members that mention an unreachable state can never be the
    infinity set of a run, so they are dropped rather than clipped.
    """
    reach = reachable_states(a)
    if reach == a.states:
        return a
    acc = a.acceptance
    if acc.mode == "final":
        acc = Acceptance.final(acc.final_states & reach)
    else:
        acc = Acceptance.muller(m for m in acc.muller_sets if m <= reach)
    return replace(
        a,
        states=reach,
        acceptance=acc,
        transitions=frozenset(t for t in a.transitions if t.source in reach and t.target in reach),
    )


class EqualityReport(NamedTuple):
    equal: bool
    reason: str | None


def automata_equal(a: Nfioa, b: Nfioa, *, up_to_reachability: bool = True) -> EqualityReport:
    """Structural equality, by default after pruning unreachable states.

    Component alphabets compare positionally by character set; component
    and automaton names are display labels and do not participate.  Two
    differently-constructed results of the same composition should come
    out equal under this comparison.
    """
    if up_to_reachability:
        a, b = prune(a), prune(b)
    if len(a.inputs) != len(b.inputs) or len(b.outputs) != len(a.outputs):
        return EqualityReport(False, "interface widths differ")
    for side, xs, ys in (("input", a.inputs, b.inputs), ("output", a.outputs, b.outputs)):
        for k, (x, y) in enumerate(zip(xs, ys)):
            if x.characters != y.characters:
                return EqualityReport(False, f"{side} component {k} alphabets differ")
    if a.initial != b.initial:
        return EqualityReport(False, f"initial states differ: {a.initial!r} vs {b.initial!r}")
    if a.states != b.states:
        extra = (a.states - b.states) or (b.states - a.states)
        return EqualityReport(False, f"state sets differ, e.g. {sorted(extra)[0]!r}")
    if a.transitions != b.transitions:
        extra = (a.transitions - b.transitions) or (b.transitions - a.transitions)
        return EqualityReport(False, f"transition sets differ, e.g. {sorted(extra)[0]!r}")
    if a.acceptance.mode != b.acceptance.mode:
        return EqualityReport(False, "acceptance modes differ")
    if a.acceptance.mode == "final":
        if a.acceptance.final_states != b.acceptance.final_states:
            return EqualityReport(False, "final-state sets differ")
    else:
        if a.acceptance.muller_sets != b.acceptance.muller_sets:
            return EqualityReport(False, "muller families differ")
    return EqualityReport(True, None)


def with_initial(a: Nfioa, initial: StateVector) -> Nfioa:
    """Same machine started from a different state."""
    initial = tuple(initial)
    if initial not in a.states:
        raise WiringError(f"{state_str(initial)} is not a state of {a.name}")
    return replace(a, initial=initial)


@dataclass(frozen=True)
class Projection:
    """Componentwise relabeling: per-slot maps on state values and characters.

    Character maps may send a character to the empty string, erasing that
    activity; they may never introduce activity (the silent character is
    not a key).  Keys missing from a map act as the identity.  Every map
    must be idempotent on its own image, so projecting twice is the same
    as projecting once.
    """

    state_maps: tuple[Mapping[str, str], ...]
    input_maps: tuple[Mapping[str, str], ...]
    output_maps: tuple[Mapping[str, str], ...]

    def __post_init__(self):
        for group in (self.state_maps, self.input_maps, self.output_maps):
            for m in group:
                if EPSILON in m:
                    raise WiringError("projection maps the silent character")
                for v in m.values():
                    if v in m and m[v] != v:
                        raise WiringError(
                            f"projection is not idempotent at {v!r} (image moves again)"
                        )
        for m in self.state_maps:
            for v in m.values():
                if v == EPSILON:
                    raise WiringError("projection erases a state value")


def _apply(m: Mapping[str, str], v: str) -> str:
    return m.get(v, v) if v != EPSILON else EPSILON


def project(a: Nfioa, p: Projection) -> Nfioa:
    """Image of an automaton under a componentwise projection.

    Widths are preserved; a factor is "dropped" by pinning its state slot
    to one value and erasing its characters.  The image can collapse
    states and therefore merge or silence transitions.
    """
    if len(p.state_maps) != a.state_width:
        raise WiringError(
            f"projection has {len(p.state_maps)} state maps, automaton width is {a.state_width}"
        )
    if len(p.input_maps) != len(a.inputs) or len(p.output_maps) != len(a.outputs):
        raise WiringError("projection interface widths do not match the automaton")

    def pstate(s: StateVector) -> StateVector:
        return tuple(_apply(m, v) for m, v in zip(p.state_maps, s))

    def pchar(maps, vc: VectorChar) -> VectorChar:
        return tuple(_apply(m, ch) for m, ch in zip(maps, vc))

    states = frozenset(pstate(s) for s in a.states)
    transitions = frozenset(
        Transition(pstate(t.source), pstate(t.target), pchar(p.input_maps, t.input), pchar(p.output_maps, t.output))
        for t in a.transitions
    )
    inputs = tuple(
        ComponentAlphabet(c.name, {_apply(m, ch) for ch in c.characters} - {EPSILON})
        for m, c in zip(p.input_maps, a.inputs)
    )
    outputs = tuple(
        ComponentAlphabet(c.name, {_apply(m, ch) for ch in c.characters} - {EPSILON})
        for m, c in zip(p.output_maps, a.outputs)
    )
    acc = a.acceptance
    if acc.mode == "final":
        acc = Acceptance.final(pstate(s) for s in acc.final_states)
    else:
        acc = Acceptance.muller(frozenset(pstate(s) for s in m) for m in acc.muller_sets)
    return Nfioa(
        name=f"{a.name}~",
        states=states,
        inputs=inputs,
        outputs=outputs,
        initial=pstate(a.initial),
        acceptance=acc,
        transitions=transitions,
    )
