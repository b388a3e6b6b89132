"""Weakly synchronized products: exactly one factor moves per transition.

The flattened representation is literal concatenation — product states are
the factor state tuples glued together, and the input/output interfaces
are the factor interfaces side by side.  That makes re-bracketing a pure
bookkeeping operation (`associate`) and lets differently-grouped
constructions be compared with plain equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as cartesian
from math import prod
from typing import Sequence

from .core import (
    EPSILON,
    Acceptance,
    ComponentAlphabet,
    Nfioa,
    StateVector,
    Transition,
    reachable_states,
    require_valid,
)
from .errors import CapacityExceeded, WiringError

STATE_CAP = 10**6
TRANSITION_CAP = 2 * 10**6


@dataclass(frozen=True)
class ProductIndex:
    """(offset, width) slices locating each factor in the flat vectors."""

    state_slices: tuple[tuple[int, int], ...]
    input_slices: tuple[tuple[int, int], ...]
    output_slices: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for slices in (self.state_slices, self.input_slices, self.output_slices):
            at = 0
            for off, width in slices:
                if off != at or width < 0:
                    raise WiringError("index slices must partition the flat dimensions")
                at += width

    @property
    def factor_count(self) -> int:
        return len(self.state_slices)

    @classmethod
    def for_factors(cls, factors: Sequence[Nfioa]) -> "ProductIndex":
        def slices(widths):
            out, at = [], 0
            for w in widths:
                out.append((at, w))
                at += w
            return tuple(out)

        return cls(
            state_slices=slices(f.state_width for f in factors),
            input_slices=slices(len(f.inputs) for f in factors),
            output_slices=slices(len(f.outputs) for f in factors),
        )

    def state_of(self, vec: tuple, k: int) -> tuple:
        off, w = self.state_slices[k]
        return vec[off : off + w]

    def input_of(self, vec: tuple, k: int) -> tuple:
        off, w = self.input_slices[k]
        return vec[off : off + w]

    def output_of(self, vec: tuple, k: int) -> tuple:
        off, w = self.output_slices[k]
        return vec[off : off + w]

    def regroup(self, groups: Sequence[Sequence[int]]) -> "ProductIndex":
        flat = [i for g in groups for i in g]
        if flat != list(range(self.factor_count)):
            raise WiringError(
                "regrouping must re-bracket the factors in order; permutations are out of scope"
            )

        def merge(slices):
            return tuple(
                (slices[g[0]][0], sum(slices[i][1] for i in g)) for g in groups
            )

        return ProductIndex(
            state_slices=merge(self.state_slices),
            input_slices=merge(self.input_slices),
            output_slices=merge(self.output_slices),
        )


def _qualified(factor: Nfioa, comps: tuple[ComponentAlphabet, ...]):
    return tuple(ComponentAlphabet(f"{factor.name}.{c.name}", c.characters) for c in comps)


def _concat_interfaces(factors: Sequence[Nfioa]):
    inputs = tuple(c for f in factors for c in _qualified(f, f.inputs))
    outputs = tuple(c for f in factors for c in _qualified(f, f.outputs))
    return inputs, outputs


def acceptance_within(factors: Sequence[Nfioa], allowed: frozenset[StateVector]) -> Acceptance:
    """Product acceptance restricted to a known state set.

    The conjunction of the factor conditions on the flattened state space.
    Final mode: the Cartesian product of the final sets.  Muller mode: one
    member per choice of factor members — the set product, flattened.  A
    Muller member that is not contained in `allowed` can never be the
    infinitely-visited set of a run staying inside it, so such members are
    dropped — without being materialized when a size count already rules
    them out.  `weak_product` passes its whole Cartesian state set, which
    keeps every member; lazily-explored networks pass their reachable
    states, whose full rectangles would be enormous.
    """
    mode = factors[0].acceptance.mode
    if mode == "final":
        finals = (
            tuple(v for part in combo for v in part)
            for combo in cartesian(*(f.acceptance.final_states for f in factors))
        )
        return Acceptance.final(s for s in finals if s in allowed)
    families = [sorted(f.acceptance.muller_sets, key=sorted) for f in factors]
    members = []
    for combo in cartesian(*families):
        size = 1
        for m in combo:
            size *= len(m)
        if size > len(allowed):
            continue
        member = frozenset(
            tuple(v for part in pick for v in part)
            for pick in cartesian(*(sorted(m) for m in combo))
        )
        if member <= allowed:
            members.append(member)
    return Acceptance.muller(members)


def _check_modes(factors: Sequence[Nfioa]):
    modes = {f.acceptance.mode for f in factors}
    if len(modes) > 1:
        raise WiringError(f"factors mix acceptance modes {sorted(modes)}; coercion is not defined")


def weak_product(
    factors: Sequence[Nfioa],
    *,
    name: str | None = None,
    state_cap: int = STATE_CAP,
    transition_cap: int = TRANSITION_CAP,
) -> tuple[Nfioa, ProductIndex]:
    """Eager weakly synchronized product of one or more automata.

    The materialization of `LazyProduct`: every state of the Cartesian
    product, and the moves `LazyProduct.outgoing` generates from each
    state of the rectangle of per-factor reachable states — so moving-factor
    sources and carried contexts are both restricted to reachable local
    states.  The caps are checked before anything is materialized.
    """
    lazy = LazyProduct(factors, name=name)
    factors = lazy.factors
    n_states = prod(len(f.states) for f in factors)
    if n_states > state_cap:
        raise CapacityExceeded(f"product would have {n_states} states (cap {state_cap})")

    reach = lazy._reach
    n_trans = 0
    for k in range(len(factors)):
        alive = sum(len(lazy._by_source[k].get(s, ())) for s in reach[k])
        n_trans += alive * prod(len(r) for j, r in enumerate(reach) if j != k)
    if n_trans > transition_cap:
        raise CapacityExceeded(
            f"product would have {n_trans} transitions (cap {transition_cap}); "
            "explore it as a network instead"
        )

    states = frozenset(
        tuple(v for part in combo for v in part)
        for combo in cartesian(*(f.states for f in factors))
    )
    transitions = [
        t
        for combo in cartesian(*reach)
        for t in lazy.outgoing(tuple(v for part in combo for v in part))
    ]
    product = Nfioa(
        name=lazy.name,
        states=states,
        inputs=lazy.inputs,
        outputs=lazy.outputs,
        initial=lazy.initial,
        acceptance=acceptance_within(factors, states),
        transitions=transitions,
    )
    return product, lazy.index


def associate(
    product: Nfioa, index: ProductIndex, regrouping: Sequence[Sequence[int]]
) -> tuple[Nfioa, ProductIndex]:
    """Re-bracket a product's factors without touching the automaton.

    Because flattening is literal concatenation, ((A⊗B)⊗C) and (A⊗(B⊗C))
    are the same flat automaton; only the index bookkeeping changes.
    Permutations are rejected.
    """
    return product, index.regroup(regrouping)


class LazyProduct:
    """Weak product materialized on demand, for exploring large networks.

    The one successor generator of the weak product: `weak_product`
    materializes it, and forward explorations ask it for the successors of
    each state they reach, generated per factor.  Carries the flat
    interface and index so channel and condition machinery applies
    unchanged.
    """

    def __init__(self, factors: Sequence[Nfioa], *, name: str | None = None):
        self.factors = tuple(factors)
        if not self.factors:
            raise WiringError("product needs at least one factor")
        for f in self.factors:
            require_valid(f)
        _check_modes(self.factors)
        self.name = name or "(" + " x ".join(f.name for f in self.factors) + ")"
        self.index = ProductIndex.for_factors(self.factors)
        self.inputs, self.outputs = _concat_interfaces(self.factors)
        self.initial = tuple(v for f in self.factors for v in f.initial)
        self._reach = [reachable_states(f) for f in self.factors]
        self._by_source: list[dict] = []
        for f in self.factors:
            table: dict = {}
            for t in sorted(f.transitions):
                table.setdefault(t.source, []).append(t)
            self._by_source.append(table)
        self._in_width = len(self.inputs)
        self._out_width = len(self.outputs)

    def outgoing(self, state: StateVector) -> tuple[Transition, ...]:
        out: list[Transition] = []
        index = self.index
        for k in range(len(self.factors)):
            local = index.state_of(state, k)
            if local not in self._reach[k]:
                continue
            off, w = index.state_slices[k]
            in_off = index.input_slices[k][0]
            out_off = index.output_slices[k][0]
            for t in self._by_source[k].get(local, ()):
                tgt = state[:off] + t.target + state[off + w :]
                inp = [EPSILON] * self._in_width
                for i, ch in enumerate(t.input):
                    inp[in_off + i] = ch
                outp = [EPSILON] * self._out_width
                for i, ch in enumerate(t.output):
                    outp[out_off + i] = ch
                out.append(Transition(state, tgt, tuple(inp), tuple(outp)))
        return tuple(sorted(out))

    def acceptance_for(self, allowed: frozenset[StateVector]) -> Acceptance:
        return acceptance_within(self.factors, allowed)
