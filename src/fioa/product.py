"""Weakly synchronized products: exactly one factor moves per transition.

The flattened representation is literal concatenation — product states are
the factor state tuples glued together, and the input/output interfaces
are the factor interfaces side by side.  So differently-grouped
constructions such as ((A⊗B)⊗C) and (A⊗(B⊗C)) flatten to the same
automaton and compare with plain equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as cartesian
from math import prod
from typing import NamedTuple, Sequence

from .core import (
    EPSILON,
    Acceptance,
    ComponentAlphabet,
    Nfioa,
    StateVector,
    Transition,
    VectorChar,
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
    product, and the moves its unwired `table` lists out of each state of
    the rectangle of per-factor reachable states — so moving-factor
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
    relaxed = lazy.table(()).relaxed
    transitions = []
    for combo in cartesian(*(enumerate(r) for r in lazy.reach)):
        state = tuple(v for _, part in combo for v in part)
        for (_, _, moves_of), (d, _) in zip(relaxed, combo):
            for _, _, lo, hi, tgt, inp, outp, _ in moves_of(d) or ():
                transitions.append(Transition(state, state[:lo] + tgt + state[hi:], inp, outp))
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


class MoveTable(NamedTuple):
    """The moves of a product wired by a channel set, by packed key.

    A configuration is one integer key, `code * len(pending) + p`.  `code`
    is the product state in mixed radix: digit k, `code // stride_k %
    radix_k`, numbers factor k's local state.  `p` numbers the character
    in flight, `pending[p]`: None, or one `(channel, char)` pair.
    `relaxed` holds one `(stride_k * len(pending), radix_k, moves_of)` per
    factor, and `excited[p]` the same for the factor receiving pending
    code p.  `moves_of(d)` lists the factor's moves out of its local state
    d (None if there are none), each a tuple `(rank, shift, lo, hi,
    target, input, output, pending)`:

    - `rank` orders the moves out of one product state as their
      `Transition`s compare, and two moves of equal rank out of one state
      are the same flat transition (silent self-loops of two factors);
    - the move leads from key `base` to key `base + shift`, where `base`
      is the key with its pending code taken off;
    - it replaces the state's slots `lo:hi` by the local `target`, carries
      the flat `input` and `output` labels and leaves `pending` in flight.

    `initial` is the initial state and `initial_key` the key of its
    relaxed configuration.
    """

    pending: tuple
    relaxed: tuple
    excited: tuple
    initial: StateVector
    initial_key: int

    def candidates(self, key: int) -> tuple[int, Sequence[tuple]]:
        """`(base, moves)`: the moves out of configuration `key`, in rank order.

        An excited configuration reads one digit, its receiver's; a relaxed
        one merges every factor's moves by rank and keeps a repeated rank
        once.
        """
        p = key % len(self.pending)
        if p:
            unit, radix, moves_of = self.excited[p]
            return key - p, moves_of(key // unit % radix) or ()
        cands, merged = (), False
        for unit, radix, moves_of in self.relaxed:
            found = moves_of(key // unit % radix)
            if found:
                merged = bool(cands)
                cands = sorted(cands + found) if merged else found
        if merged:
            cands = [m for m, prev in zip(cands, ((None,), *cands)) if m[0] != prev[0]]
        return key, cands


def _wire(
    factors: Sequence[tuple], inputs: Sequence, channels: Sequence, initial: StateVector, code: int
) -> MoveTable:
    """The `MoveTable` of factors wired by `channels`.

    Each factor is `(stride, radix, ins, moves_of)`: its digit, its flat
    input components, and `moves_of(d)` listing its moves out of local
    state d in rank order, as they stand with no channel wired (one
    pending code, so `shift` is the digit delta).  `initial` is the
    initial state and `code` its code.  Unwired, the factors' own
    `moves_of` are the table.  Wired, a move reading a channel-fed input
    is filed under the pending code it consumes, and a move writing a
    wired output leaves that channel's character pending.
    """
    if not channels:
        relaxed = tuple((stride, radix, moves_of) for stride, radix, _, moves_of in factors)
        return MoveTable((None,), relaxed, (None,), initial, code)
    fed = tuple((ch.in_component, ch) for ch in channels)
    sent = tuple((ch.out_component, ch) for ch in channels)
    pending = (None, *((ch, c) for ch in channels for c in sorted(inputs[ch.in_component].characters)))
    width = len(pending)
    code_of = {pair: p for p, pair in enumerate(pending)}
    relaxed, excited = [], [None] * width
    for stride, radix, ins, moves_of in factors:
        unit = stride * width
        for p, (ch, _) in enumerate(pending[1:], 1):
            if ch.in_component in ins:
                excited[p] = (unit, radix, {})
        here: dict = {}
        for d in range(radix):
            for rank, delta, lo, hi, target, inp, outp, _ in moves_of(d) or ():
                # A label is active on at most one component, so at most
                # one channel end matches.
                p, table = 0, here
                for c, ch in sent:
                    if outp[c]:
                        p = code_of[ch, outp[c]]
                for c, ch in fed:
                    if inp[c]:
                        table = excited[code_of[ch, inp[c]]][2]
                table.setdefault(d, []).append(
                    (rank, delta * width + p, lo, hi, target, inp, outp, pending[p])
                )
        relaxed.append((unit, radix, here.get))
    excited[1:] = [(unit, radix, by_digit.get) for unit, radix, by_digit in excited[1:]]
    return MoveTable(pending, tuple(relaxed), tuple(excited), initial, code * width)


def automaton_table(a: Nfioa, channels: Sequence = ()) -> MoveTable:
    """`a` wired by `channels`, as a one-factor `MoveTable`.

    Built from `a`'s own transitions and labels: none of `LazyProduct`'s
    placing, and moves are sorted per source, since one factor's moves are
    never merged with another's.  Sources are numbered in table order and
    the other states when first met as a target.  A source's moves are
    sorted and numbered when first listed: unwired, each state is one
    configuration, so only the sources that exploration reaches are.
    """
    by_source: dict[StateVector, list[Transition]] = {}
    for t in a.transitions:
        by_source.setdefault(t.source, []).append(t)
    number = {s: d for d, s in enumerate(by_source)}
    groups = list(by_source.values())
    width = a.state_width

    def moves_of(d: int) -> list | None:
        if d >= len(groups):
            return None
        ts = groups[d]
        ts.sort()
        return [
            (rank, number.setdefault(tgt, len(number)) - d, 0, width, tgt, inp, outp, None)
            for rank, (_, tgt, inp, outp) in enumerate(ts)
        ]

    code = number.setdefault(a.initial, len(number))
    factor = (1, len(a.states), range(len(a.inputs)), moves_of)
    return _wire((factor,), a.inputs, channels, a.initial, code)


def _rank_key(k: int, pos: int, t: Transition, inp: VectorChar, outp: VectorChar) -> tuple:
    """Where factor k's move, `pos`-th in `sorted(f.transitions)`, comes
    among the flat transitions out of one product state.

    A move changes only its factor's slots, so a move lowering its
    factor's local state sorts below every move of a later factor, and a
    raising one above: lowering moves by ascending factor, then
    self-loops by their flat labels, then raising moves by descending
    factor.
    """
    if t.target == t.source:
        return (1, inp, outp)
    if t.target < t.source:
        return (0, k, pos)
    return (2, -k, pos)


class LazyProduct:
    """Weak product materialized on demand, for exploring large networks.

    The one move generator of the weak product: `weak_product`
    materializes it, and `channels.cbr` explores its `table`.  Carries the
    flat interface and index so channel and condition machinery applies
    unchanged.

    A move changes only its factor's slice of the state, and its labels
    are the factor's labels at the factor's positions, silent elsewhere, so
    the flat labels depend on the factor transition alone.  They are placed
    here once, for the moves out of factor-reachable local states, and
    each move gets its rank (see `_rank_key`) once.  `reach[k]` holds
    factor k's reachable local states, sorted: local state `reach[k][d]`
    is digit d of the packed state code.  `transition_count` is how many
    flat transitions the rectangle of `reach` yields, counting a silent
    self-loop once per factor having it.
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
        self.reach = [tuple(sorted(reachable_states(f))) for f in self.factors]
        # Each factor's moves as `(source digit, rank key, ...)` first: the
        # ranks number the keys of all factors together.
        drafts, keys = [], set()
        stride, self._code = 1, 0
        for k, (f, reach) in enumerate(zip(self.factors, self.reach)):
            state, ins, outs = (self.index.span(side, k) for side in ("state", "input", "output"))
            number = {s: d for d, s in enumerate(reach)}
            self._code += number[f.initial] * stride
            moves = []
            for pos, t in enumerate(t for t in sorted(f.transitions) if t.source in number):
                inp = _placed(t.input, ins, len(self.inputs))
                outp = _placed(t.output, outs, len(self.outputs))
                key = _rank_key(k, pos, t, inp, outp)
                keys.add(key)
                d = number[t.source]
                delta = (number[t.target] - d) * stride
                moves.append((d, key, delta, state.start, state.stop, t.target, inp, outp))
            drafts.append((stride, len(reach), ins, moves))
            stride *= len(reach)
        rank = {key: r for r, key in enumerate(sorted(keys))}
        self._moves, self.transition_count = [], 0
        for k, (stride, radix, ins, moves) in enumerate(drafts):
            by_digit: dict = {}
            for d, key, *move in moves:
                by_digit.setdefault(d, []).append((rank[key], *move, None))
            self._moves.append((stride, radix, ins, by_digit.get))
            others = prod(len(r) for j, r in enumerate(self.reach) if j != k)
            self.transition_count += len(moves) * others

    def table(self, channels: Sequence) -> MoveTable:
        """This product's `MoveTable` wired by `channels`.

        Relaxed configurations take every factor's moves except those
        reading a channel-fed input; excited ones only the receiving
        factor's moves consuming the pending character on the channel's
        input.
        """
        return _wire(self._moves, self.inputs, channels, self.initial, self._code)
