"""Network descriptions: named factors, wiring, and coordination.

A network is the declarative form of a composed system: factors under
local aliases (with optional initial-state overrides), channels between
factor-qualified components, conditions scoped to factor subsets, and an
optional acceptance override for the composite.  One `NetworkDef` type
serves from text to build: parsed, each factor's `ref` names a declared
machine; `dsl.resolve` swaps in the automaton itself.  Compiling a
resolved network turns every factor-qualified reference into flat
indices; building it runs the product and restriction machinery.  Each
flat component is named after its factor alias (`u.svc`); a network used
as a factor keeps its inner alias too (`m.u.svc`).  Those names are how
`channels.channel_str` prints a channel.

Networks with channels are explored lazily — `ring3` has 884,736 product
states but only 909 reachable configurations.  Channel-free networks
(pure condition coordination) are built eagerly so the result keeps its
full state set.  Either way the product's move table carries the
conditions, compiled onto its moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

from .core import Acceptance, BuiltOnRead, Nfioa, StateVector, with_initial
from .channels import Channel, RestrictedAutomaton, cbr
from .conditions import Condition, IoPattern, Scope, cond
from .errors import WiringError
from .product import LazyProduct, ProductIndex


@dataclass(frozen=True)
class NetFactor:
    """One ``use`` line: a slot filled by a machine under a local alias.

    `ref` names a declared machine until `dsl.resolve` puts the automaton
    itself there; only a resolved factor compiles.
    """

    alias: str
    ref: str | Nfioa
    initial: StateVector | None = None
    # (line, col) of the ``use`` keyword when parsed from text
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.initial is not None:
            object.__setattr__(self, "initial", tuple(self.initial))


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
    slot of the scoped factors, in the order `on` lists them.  A label
    pattern given as None is `PatternSpec.any()`.
    """

    name: str
    source: tuple[str, ...]
    target: tuple[str, ...]
    input: PatternSpec = PatternSpec.any()
    output: PatternSpec = PatternSpec.any()
    on: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "source", tuple(self.source))
        object.__setattr__(self, "target", tuple(self.target))
        object.__setattr__(self, "input", self.input or PatternSpec.any())
        object.__setattr__(self, "output", self.output or PatternSpec.any())
        if self.on is not None:
            object.__setattr__(self, "on", tuple(self.on))


@dataclass(frozen=True)
class NetworkDef:
    """A network block: aliased factors, channels, conditions, acceptance."""

    name: str
    factors: tuple[NetFactor, ...]
    channels: tuple[ChannelSpec, ...] = ()
    conditions: tuple[ConditionSpec, ...] = ()
    acceptance: Acceptance | None = None
    # (line, col) of the ``network`` keyword when parsed from text
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "conditions", tuple(self.conditions))


# The two types' former names: `perfbench` still builds networks under
# them, and its next change (ROADMAP item 2) retires them.
FactorRef, NetworkSpec = NetFactor, NetworkDef


@dataclass(frozen=True)
class CompiledNetwork:
    """All factor-qualified references resolved to flat indices."""

    spec: NetworkDef
    factors: tuple[Nfioa, ...]  # alias-named, initial overrides applied
    index: ProductIndex
    channels: tuple[Channel, ...]
    conditions: tuple[Condition, ...]


def _alias_index(spec: NetworkDef) -> dict[str, int]:
    seen: dict[str, int] = {}
    for i, f in enumerate(spec.factors):
        if f.alias in seen:
            raise WiringError(f"factor alias {f.alias!r} used twice")
        seen[f.alias] = i
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


def compile_network(spec: NetworkDef) -> CompiledNetwork:
    by_alias = _alias_index(spec)
    factors = []
    for f in spec.factors:
        a = f.ref
        if not isinstance(a, Nfioa):
            raise WiringError(f"factor {f.alias!r} still names {a!r}; resolve the document first")
        if f.initial is not None:
            a = with_initial(a, f.initial)
        factors.append(replace(a, name=f.alias))
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
        channels.append(Channel(index.span("output", sf)[sc], index.span("input", rf)[rc]))

    def compile_pattern(ps: PatternSpec, side: str) -> IoPattern:
        if ps.kind == "any":
            return IoPattern.any()
        if ps.kind == "spontaneous":
            return IoPattern.silent()
        f = factor_of(ps.factor)
        comps = factors[f].outputs if side == "output" else factors[f].inputs
        flat = index.span(side, f)[_component_index(comps, ps.component, f"{ps.factor} {side}")]
        if ps.kind == "literal":
            return IoPattern.literal(flat, ps.character)
        return IoPattern.active(flat)

    state_width = sum(f.state_width for f in factors)

    def placed(slots: tuple[int, ...], pattern: tuple[str, ...]) -> tuple[str, ...]:
        """`pattern` written at `slots` of an all-wildcard state pattern."""
        flat = ["*"] * state_width
        for slot, p in zip(slots, pattern):
            flat[slot] = p
        return tuple(flat)

    conditions = []
    for cs in spec.conditions:
        scoped = range(len(factors)) if cs.on is None else [factor_of(a) for a in cs.on]
        for i, alias in enumerate(cs.on or ()):
            if alias in cs.on[:i]:
                raise WiringError(f"condition {cs.name!r} scopes factor {alias!r} twice")
        scope = Scope(*(
            tuple(slot for f in scoped for slot in index.span(side, f))
            for side in ("state", "input", "output")
        ))
        width = len(scope.state_components)
        if len(cs.source) != width or len(cs.target) != width:
            raise WiringError(
                f"condition {cs.name!r}: patterns have arity {len(cs.source)}, "
                f"scoped factors have total state width {width}"
            )
        conditions.append(
            Condition(
                name=cs.name,
                source=placed(scope.state_components, cs.source),
                target=placed(scope.state_components, cs.target),
                input=compile_pattern(cs.input, "input"),
                output=compile_pattern(cs.output, "output"),
                scope=scope,
            )
        )

    return CompiledNetwork(spec, factors, index, tuple(channels), tuple(conditions))


@dataclass(frozen=True)
class BuiltNetwork:
    """A compiled network after composition and restriction.

    `automaton` is the flat result; `restricted` is the
    configuration-graph form, present exactly when the network wires
    channels.  A channel-free network is built eagerly, holding only the
    moves its conditions keep; the CLI explores its graph, `cbr(automaton)`,
    on demand.
    A wired network's `automaton` is its restriction's `base`, built the
    first time either is read (see `BuiltOnRead`); `automaton` may be given
    as an `Nfioa` or as a callable returning one.
    """

    compiled: CompiledNetwork
    automaton: Nfioa = BuiltOnRead()
    restricted: RestrictedAutomaton | None

    @property
    def spec(self) -> NetworkDef:
        return self.compiled.spec

    @property
    def name(self) -> str:
        return self.compiled.spec.name


def build_network(spec: NetworkDef) -> BuiltNetwork:
    compiled = compile_network(spec)
    lazy = LazyProduct(compiled.factors, name=spec.name)
    if compiled.channels:
        r = cbr(lazy, compiled.channels, conditions=compiled.conditions)
        if spec.acceptance is not None:
            r = r.with_acceptance(spec.acceptance)
        return BuiltNetwork(compiled, lambda: r.base, r)
    automaton = cond(lazy, compiled.conditions)
    if spec.acceptance is not None:
        automaton = replace(automaton, acceptance=spec.acceptance)
    return BuiltNetwork(compiled, automaton, None)
