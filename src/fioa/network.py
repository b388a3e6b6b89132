"""Network definitions: named factors, wiring, and coordination.

A network is the declarative form of a composed system: factor automata
under local aliases (with optional initial-state overrides), channels
between factor-qualified components, conditions scoped to factor subsets,
and an optional acceptance override for the composite.  Compiling a
network resolves every factor-qualified reference to flat indices;
building it runs the product and restriction machinery.

Networks with channels are explored lazily — the ring examples have
six-figure raw product state counts but only a few hundred reachable
configurations.  Channel-free networks (pure condition coordination) are
built eagerly so the result keeps its full state set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from .core import Acceptance, Nfioa, StateVector, require_valid, with_initial
from .channels import Channel, RestrictedAutomaton, cbr, flatten
from .conditions import Condition, IoPattern, Scope, cond
from .errors import WiringError
from .product import LazyProduct, ProductIndex, weak_product


@dataclass(frozen=True)
class FactorRef:
    """One slot of a network: an automaton under a local alias."""

    alias: str
    automaton: Nfioa
    initial: StateVector | None = None

    def __init__(self, alias: str, automaton: Nfioa, initial=None):
        object.__setattr__(self, "alias", alias)
        object.__setattr__(self, "automaton", automaton)
        object.__setattr__(
            self, "initial", tuple(initial) if initial is not None else None
        )


@dataclass(frozen=True)
class ChannelSpec:
    """Factor-qualified channel: components by index or by name."""

    out_factor: str
    out_component: Union[int, str]
    in_factor: str
    in_component: Union[int, str]


@dataclass(frozen=True)
class PatternSpec:
    """Label pattern in factor-qualified terms (compiled to IoPattern)."""

    kind: str  # any | spontaneous | literal | active
    factor: str | None = None
    component: Union[int, str, None] = None
    character: str | None = None

    @classmethod
    def any(cls) -> "PatternSpec":
        return cls("any")

    @classmethod
    def spontaneous(cls) -> "PatternSpec":
        return cls("spontaneous")

    @classmethod
    def literal(cls, factor: str, component, character: str) -> "PatternSpec":
        return cls("literal", factor, component, character)

    @classmethod
    def active(cls, factor: str, component) -> "PatternSpec":
        return cls("active", factor, component)


@dataclass(frozen=True)
class ConditionSpec:
    """A veto written against factor aliases rather than flat indices.

    `on` lists the factors the condition coordinates (None = all, in
    network order); the source/target patterns have one entry per state
    slot of the scoped factors, in the order `on` lists them.
    """

    name: str
    source: tuple[str, ...]
    target: tuple[str, ...]
    input: PatternSpec = PatternSpec.any()
    output: PatternSpec = PatternSpec.any()
    on: tuple[str, ...] | None = None

    def __init__(self, name, source, target, input=None, output=None, on=None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "source", tuple(source))
        object.__setattr__(self, "target", tuple(target))
        object.__setattr__(self, "input", input or PatternSpec.any())
        object.__setattr__(self, "output", output or PatternSpec.any())
        object.__setattr__(self, "on", tuple(on) if on is not None else None)


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    factors: tuple[FactorRef, ...]
    channels: tuple[ChannelSpec, ...] = ()
    conditions: tuple[ConditionSpec, ...] = ()
    acceptance: Acceptance | None = None

    def __init__(self, name, factors, channels=(), conditions=(), acceptance=None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "factors", tuple(factors))
        object.__setattr__(self, "channels", tuple(channels))
        object.__setattr__(self, "conditions", tuple(conditions))
        object.__setattr__(self, "acceptance", acceptance)


@dataclass(frozen=True)
class CompiledNetwork:
    """All factor-qualified references resolved to flat indices."""

    spec: NetworkSpec
    factors: tuple[Nfioa, ...]  # alias-named, initial overrides applied
    index: ProductIndex
    channels: tuple[Channel, ...]
    conditions: tuple[Condition, ...]

    def channel_label(self, ch: Channel) -> str:
        """Human-readable 'sender.comp>receiver.comp' for a flat channel."""
        send = self._locate(ch.out_component, self.index.output_slices)
        recv = self._locate(ch.in_component, self.index.input_slices)
        sf, sc = send
        rf, rc = recv
        return (
            f"{self.factors[sf].name}.{self.factors[sf].outputs[sc].name.split('.')[-1]}"
            f">{self.factors[rf].name}.{self.factors[rf].inputs[rc].name.split('.')[-1]}"
        )

    def _locate(self, flat: int, slices) -> tuple[int, int]:
        for f, (off, width) in enumerate(slices):
            if off <= flat < off + width:
                return f, flat - off
        raise WiringError(f"component index {flat} outside the network interface")


def _alias_index(spec: NetworkSpec) -> dict[str, int]:
    seen: dict[str, int] = {}
    for i, ref in enumerate(spec.factors):
        if ref.alias in seen:
            raise WiringError(f"factor alias {ref.alias!r} used twice")
        seen[ref.alias] = i
    return seen


def _component_index(comps, key: Union[int, str], what: str) -> int:
    if isinstance(key, int):
        if not (0 <= key < len(comps)):
            raise WiringError(f"{what} component index {key} out of range")
        return key
    names = [c.name.split(".")[-1] for c in comps]
    hits = [i for i, n in enumerate(names) if n == key]
    if not hits:
        raise WiringError(f"{what} has no component named {key!r}")
    if len(hits) > 1:
        raise WiringError(f"{what} component name {key!r} is ambiguous; use an index")
    return hits[0]


def compile_network(spec: NetworkSpec) -> CompiledNetwork:
    by_alias = _alias_index(spec)
    factors = []
    for ref in spec.factors:
        a = require_valid(ref.automaton)
        if ref.initial is not None:
            a = with_initial(a, ref.initial)
        factors.append(replace(a, name=ref.alias))
    factors = tuple(factors)
    index = ProductIndex.for_factors(factors)

    def factor_of(alias: str) -> int:
        if alias not in by_alias:
            raise WiringError(f"unknown factor {alias!r}")
        return by_alias[alias]

    channels = []
    for cs in spec.channels:
        sf = factor_of(cs.out_factor)
        rf = factor_of(cs.in_factor)
        sc = _component_index(factors[sf].outputs, cs.out_component, f"{cs.out_factor} output")
        rc = _component_index(factors[rf].inputs, cs.in_component, f"{cs.in_factor} input")
        channels.append(
            Channel(
                index.output_slices[sf][0] + sc,
                index.input_slices[rf][0] + rc,
            )
        )

    def compile_pattern(ps: PatternSpec, side: str) -> IoPattern:
        if ps.kind == "any":
            return IoPattern.any()
        if ps.kind == "spontaneous":
            return IoPattern.silent()
        f = factor_of(ps.factor)
        comps = factors[f].outputs if side == "output" else factors[f].inputs
        c = _component_index(comps, ps.component, f"{ps.factor} {side}")
        slices = index.output_slices if side == "output" else index.input_slices
        flat = slices[f][0] + c
        if ps.kind == "literal":
            return IoPattern.literal(flat, ps.character)
        return IoPattern.active(flat)

    conditions = []
    for cs in spec.conditions:
        scoped = (
            tuple(range(len(factors)))
            if cs.on is None
            else tuple(factor_of(a) for a in cs.on)
        )
        width = sum(index.state_slices[f][1] for f in scoped)
        if len(cs.source) != width or len(cs.target) != width:
            raise WiringError(
                f"condition {cs.name!r}: patterns have arity {len(cs.source)}, "
                f"scoped factors have total state width {width}"
            )
        total_width = sum(w for _off, w in index.state_slices)
        source = ["*"] * total_width
        target = ["*"] * total_width
        at = 0
        state_scope: list[int] = []
        for f in scoped:
            off, w = index.state_slices[f]
            for i in range(w):
                source[off + i] = cs.source[at]
                target[off + i] = cs.target[at]
                state_scope.append(off + i)
                at += 1
        in_scope = [
            index.input_slices[f][0] + i
            for f in scoped
            for i in range(index.input_slices[f][1])
        ]
        out_scope = [
            index.output_slices[f][0] + i
            for f in scoped
            for i in range(index.output_slices[f][1])
        ]
        conditions.append(
            Condition(
                name=cs.name,
                source=tuple(source),
                target=tuple(target),
                input=compile_pattern(cs.input, "input"),
                output=compile_pattern(cs.output, "output"),
                scope=Scope(tuple(state_scope), tuple(in_scope), tuple(out_scope)),
            )
        )

    return CompiledNetwork(spec, factors, index, tuple(channels), tuple(conditions))


@dataclass(frozen=True)
class BuiltNetwork:
    """A compiled network after composition and restriction.

    `automaton` is always present (the flat result); `restricted` is the
    configuration-graph form, present exactly when the network wires
    channels.
    """

    compiled: CompiledNetwork
    automaton: Nfioa
    restricted: RestrictedAutomaton | None

    @property
    def spec(self) -> NetworkSpec:
        return self.compiled.spec

    @property
    def name(self) -> str:
        return self.compiled.spec.name


def _override_acceptance(a: Nfioa, acceptance: Acceptance | None) -> Nfioa:
    if acceptance is None:
        return a
    return replace(a, acceptance=acceptance)


def build_network(spec: NetworkSpec) -> BuiltNetwork:
    compiled = compile_network(spec)
    if compiled.channels:
        lazy = LazyProduct(compiled.factors, name=spec.name)
        r = cbr(
            lazy,
            compiled.channels,
            conditions=compiled.conditions,
            name=spec.name,
        )
        if spec.acceptance is not None:
            base = _override_acceptance(r.base, spec.acceptance)
            r = RestrictedAutomaton(base, r.channels, r.graph, r.conditions, r.name)
        automaton = require_valid(flatten(r))
        return BuiltNetwork(compiled, automaton, r)
    prod, _index = weak_product(compiled.factors, name=spec.name)
    automaton = cond(prod, compiled.conditions, name=spec.name)
    automaton = require_valid(_override_acceptance(automaton, spec.acceptance))
    return BuiltNetwork(compiled, automaton, None)
