"""Weakly synchronized products: exactly one factor moves per transition.

The flattened representation is literal concatenation — product states are
the factor state tuples glued together, and the input/output interfaces
are the factor interfaces side by side.  So differently-grouped
constructions such as ((A⊗B)⊗C) and (A⊗(B⊗C)) flatten to the same
automaton and compare with plain equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, product as cartesian
from math import prod
from typing import Callable, Sequence

from .core import (
    EPSILON,
    Acceptance,
    ComponentAlphabet,
    Nfioa,
    StateVector,
    Transition,
    VectorChar,
    active_slot,
    reachable_states,
)
from .errors import CapacityExceeded, WiringError

STATE_CAP = 10**6
TRANSITION_CAP = 2 * 10**6


@dataclass(frozen=True)
class ProductIndex:
    """Where each factor sits in the flat state, input and output vectors.

    The one place that knows the flat layout: channels, label patterns,
    condition scopes and projections are compiled against `span`, never
    against offsets worked out again.  Each `*_slices` field holds one
    `(offset, width)` pair per factor.
    """

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

    def span(self, side: str, k: int) -> range:
        """Factor `k`'s flat positions on `side`: "state", "input" or "output"."""
        off, width = getattr(self, f"{side}_slices")[k]
        return range(off, off + width)


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
    members = []
    for combo in cartesian(*(f.acceptance.muller_sets for f in factors)):
        size = 1
        for m in combo:
            size *= len(m)
        if size > len(allowed):
            continue
        member = frozenset(
            tuple(v for part in pick for v in part)
            for pick in cartesian(*combo)
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
    product, and the moves its unwired `stepper` generates from each
    state of the rectangle of per-factor reachable states — so moving-factor
    sources and carried contexts are both restricted to reachable local
    states.  The caps are checked before anything is materialized.
    """
    lazy = LazyProduct(factors, name=name)
    factors = lazy.factors
    n_states = prod(len(f.states) for f in factors)
    if n_states > state_cap:
        raise CapacityExceeded(f"product would have {n_states} states (cap {state_cap})")

    n_trans = lazy.transition_count
    if n_trans > transition_cap:
        raise CapacityExceeded(
            f"product would have {n_trans} transitions (cap {transition_cap}); "
            "explore it as a network instead"
        )

    states = frozenset(
        tuple(v for part in combo for v in part)
        for combo in cartesian(*(f.states for f in factors))
    )
    step = lazy.stepper(())
    transitions = [
        t
        for combo in cartesian(*lazy.reach)
        for t, _ in step(tuple(v for part in combo for v in part), None)
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


def _placed(vc: VectorChar, span: range, width: int) -> VectorChar:
    """A factor label placed at its `span` in a flat label of `width` slots."""
    return (EPSILON,) * span.start + vc + (EPSILON,) * (width - span.stop)


def _spliced(state: StateVector, lo: int, hi: int, moves) -> list:
    """The moves of the factor at `state[lo:hi]`, as flat transitions from
    `state`, each with the character it leaves pending."""
    head, tail = state[:lo], state[hi:]
    return [
        (Transition(state, head + tgt + tail, inp, outp), pend)
        for tgt, inp, outp, pend in moves
    ]


class LazyProduct:
    """Weak product materialized on demand, for exploring large networks.

    The one successor generator of the weak product: `weak_product`
    materializes it, and forward explorations ask its `stepper` for the
    successors of each configuration they reach.  Carries the flat
    interface and index so channel and condition machinery applies
    unchanged.

    A move changes only its factor's slice of the state, and its labels
    are the factor's labels at the factor's positions, silent elsewhere, so
    the flat labels and their active `(component, char)` slots depend on
    the factor transition alone.  They are placed here once, for the moves
    out of factor-reachable local states.  A plain automaton is the
    one-factor case.  `reach` holds each factor's reachable local states;
    `transition_count` is how many flat transitions the rectangle of
    `reach` yields, counting a silent self-loop once per factor having it.
    """

    def __init__(self, factors: Sequence[Nfioa], *, name: str | None = None):
        self.factors = tuple(factors)
        if not self.factors:
            raise WiringError("product needs at least one factor")
        _check_modes(self.factors)
        self.name = name or "(" + " x ".join(f.name for f in self.factors) + ")"
        self.inputs, self.outputs = _concat_interfaces(self.factors)
        self.initial = tuple(v for f in self.factors for v in f.initial)
        self.index = ProductIndex.for_factors(self.factors)
        self.reach = [reachable_states(f) for f in self.factors]
        # The state bounds of the factor owning each flat input component.
        self._input_span: tuple = ()
        self._moves = []
        for k, (f, reach) in enumerate(zip(self.factors, self.reach)):
            state, ins, outs = (self.index.span(side, k) for side in ("state", "input", "output"))
            bounds = (state.start, state.stop)
            self._input_span += (bounds,) * len(ins)
            moves = []
            for t in sorted(f.transitions):
                if t.source in reach:
                    inp = _placed(t.input, ins, len(self.inputs))
                    outp = _placed(t.output, outs, len(self.outputs))
                    moves.append((t.source, t.target, inp, outp, active_slot(inp), active_slot(outp)))
            self._moves.append((bounds, moves))
        self.transition_count = sum(
            len(moves) * prod(len(r) for j, r in enumerate(self.reach) if j != k)
            for k, (_, moves) in enumerate(self._moves)
        )

    def stepper(self, channels: Sequence) -> Callable:
        """The step function of this product wired by `channels`.

        `step(state, pending)` lists `(transition, pending after)` for the
        moves from `state`, in `Transition` order.  Relaxed (`pending`
        None): every factor's moves except those reading a channel-fed
        input.  Excited (`pending` a `(channel, char)`): only the receiving
        factor's moves consuming that character on the channel's input.
        A move writing a wired output leaves `(channel, char)` pending;
        any other move leaves None.
        """
        fed = {ch.in_component for ch in channels}
        sent = {ch.out_component: ch for ch in channels}
        relaxed = []
        receivers: dict = {}
        for (lo, hi), moves in self._moves:
            by_source: dict = {}
            for source, target, inp, outp, islot, oslot in moves:
                pend = None
                if oslot is not None and oslot[0] in sent:
                    pend = (sent[oslot[0]], oslot[1])
                if islot is not None and islot[0] in fed:
                    receivers.setdefault((source, *islot), []).append((target, inp, outp, pend))
                else:
                    by_source.setdefault(source, []).append((target, inp, outp, pend))
            relaxed.append((lo, hi, by_source))
        input_span = self._input_span

        def step(state: StateVector, pending) -> list:
            if pending is not None:
                chan, char = pending
                lo, hi = input_span[chan.in_component]
                return _spliced(
                    state, lo, hi, receivers.get((state[lo:hi], chan.in_component, char), ())
                )
            out: list = []
            for lo, hi, table in relaxed:
                moves = table.get(state[lo:hi])
                if moves:
                    out += _spliced(state, lo, hi, moves)
            out.sort()
            # Silent self-loops of two factors are one flat transition, which
            # the eager product's transition set holds once; so does `step`.
            return [m for m, _ in groupby(out)]

        return step
