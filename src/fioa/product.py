"""Weakly synchronized products: exactly one factor moves per transition.

The flattened representation is literal concatenation — product states are
the factor state tuples glued together, and the input/output interfaces
are the factor interfaces side by side.  So differently-grouped
constructions such as ((A⊗B)⊗C) and (A⊗(B⊗C)) flatten to the same
automaton and compare with plain equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product as cartesian
from math import prod
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import (
    EPSILON,
    WILDCARD,
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


def _concatenations(choices: Iterable[Iterable[StateVector]]) -> list[StateVector]:
    """Every flat state made of one local state per factor, from each
    factor's `choices`, with factor 0's choice varying fastest: the order
    of packed codes when the choices are the factors' reachable states."""
    out: list[StateVector] = [()]
    for local in choices:
        out = [s + part for part in local for s in out]
    return out


def _common_mode(factors: Sequence[Nfioa]) -> str:
    """The factors' one acceptance mode; a product of mixed modes is not defined."""
    modes = {f.acceptance.mode for f in factors}
    if len(modes) > 1:
        raise WiringError(f"factors mix acceptance modes {sorted(modes)}; coercion is not defined")
    return modes.pop()


def acceptance_within(factors: Sequence[Nfioa], allowed: frozenset[StateVector]) -> Acceptance:
    """Product acceptance restricted to a known state set.

    The conjunction of the factor conditions on the flattened state space.
    Final mode: the Cartesian product of the final sets.  Muller mode: one
    member per choice of factor members — the set product, flattened.  A
    Muller member that is not contained in `allowed` can never be the
    infinitely-visited set of a run staying inside it, so such members are
    dropped — without being materialized when a size count already rules
    them out.  A kept member holds `allowed`'s own state tuples.
    `materialize` calls it with the whole Cartesian state set, keeping
    every member, and `channels.cbr` with a configuration graph's states,
    whose rectangles would be enormous.  Factors that mix acceptance modes
    raise `WiringError`, as `LazyProduct` does.
    """
    if _common_mode(factors) == "final":
        finals = _concatenations(f.acceptance.final_states for f in factors)
        return Acceptance.final(s for s in finals if s in allowed)
    members = []
    stored = None
    for combo in cartesian(*(f.acceptance.muller_sets for f in factors)):
        if prod(map(len, combo)) > len(allowed):
            continue
        if stored is None:
            # Members hold `allowed`'s own tuples, so a later subset test
            # meets each of them by identity.
            stored = {s: s for s in allowed}
        member = [stored.get(s) for s in _concatenations(combo)]
        if None not in member:
            members.append(frozenset(member))
    return Acceptance.muller(members)


def weak_product(
    factors: Sequence[Nfioa],
    *,
    name: str | None = None,
) -> tuple[Nfioa, ProductIndex]:
    """Eager weakly synchronized product of one or more automata: their
    `LazyProduct`, materialized, and its flat layout."""
    lazy = LazyProduct(factors, name=name)
    return materialize(lazy), lazy.index


def materialize(
    lazy: "LazyProduct",
    conditions: Sequence = (),
    *,
    name: str | None = None,
) -> Nfioa:
    """`lazy` as one eager automaton, restricted by `conditions`.

    Every state of the Cartesian product, and the moves its unwired
    `table((), conditions)` keeps out of each state of the rectangle of
    per-factor reachable states — so moving-factor sources and carried
    contexts are both restricted to reachable local states.  That
    rectangle is what the unrestricted product reaches, so the moves kept
    are those `conditions.cond` keeps on it.  Each state is one tuple,
    shared by every transition that enters or leaves it.  The caps,
    `STATE_CAP` and `TRANSITION_CAP`, are checked before anything is
    materialized.
    """
    n_states = prod(len(f.states) for f in lazy.factors)
    if n_states > STATE_CAP:
        raise CapacityExceeded(f"product would have {n_states} states (cap {STATE_CAP})")

    n_trans = lazy.transition_count
    if n_trans > TRANSITION_CAP:
        raise CapacityExceeded(
            f"product would have {n_trans} transitions (cap {TRANSITION_CAP}); "
            "explore it as a network instead"
        )

    by_code = _concatenations(lazy.reach)
    states = frozenset(by_code)
    if len(states) < n_states:
        states = states.union(_concatenations(f.states for f in lazy.factors))
    new = tuple.__new__
    transitions: list[Transition] = []
    for stride, radix, moves_of in lazy.table((), conditions).relaxed:
        for d in range(radix):
            moves = moves_of(d)
            if not moves:
                continue
            # The codes whose digit is d.
            codes = [c for low in range(d * stride, len(by_code), stride * radix) for c in range(low, low + stride)]
            for _, shift, _, _, _, inp, outp, _, guard, _ in moves:
                kept = codes if guard is None else [c for c in codes if not vetoed(guard, c)]
                transitions += [new(Transition, (by_code[c], by_code[c + shift], inp, outp)) for c in kept]
    return Nfioa(
        name=name or lazy.name,
        states=states,
        inputs=lazy.inputs,
        outputs=lazy.outputs,
        initial=lazy.initial,
        acceptance=acceptance_within(lazy.factors, states),
        transitions=frozenset(transitions),
    )


def _placed(vc: VectorChar, span: range, width: int) -> VectorChar:
    """A factor label placed at its `span` in a flat label of `width` slots."""
    return (EPSILON,) * span.start + vc + (EPSILON,) * (width - span.stop)


# Ranks alone order the moves out of one state; the guards that follow
# them in a move need not compare.
_by_rank = itemgetter(0)


class MoveTable(NamedTuple):
    """The moves of a product wired by a channel set, by packed key.

    A configuration is one integer key, `p * size + code`.  `code < size`
    is the product state in mixed radix: digit k, `key // stride_k %
    radix_k` of any key, numbers factor k's local state.  `p` numbers the
    character in flight, `pending[p]`: one `(channel, char)` pair, or None
    for p = 0, so a relaxed key is its state code.  `relaxed` holds one
    `(stride_k, radix_k, moves_of)` per factor, and `excited[p]` the same
    for the factor receiving pending code p.  `moves_of(d)` lists the
    factor's moves out of its local state d by rank (None if there are
    none), each `(rank, shift, lo, hi, target, input, output, pending,
    guard, move)`:

    - `rank` orders the moves out of one product state as their
      `Transition`s compare: a product's `_rank_key`, a flat automaton's
      move id (see `automaton_table`).  Two moves of equal rank out of
      one state are the same flat transition (silent self-loops of two
      factors);
    - the move leads from state code `base` to key `base + shift`;
    - it replaces the state's slots `lo:hi` by the local `target`, carries
      the flat `input` and `output` labels and leaves `pending` in flight;
    - `guard` is None, or what is left of the table's conditions once the
      move is known (see `_guards`): the move is vetoed out of `base`
      when `vetoed(guard, base)`.  A move that some condition vetoes out
      of every state is not listed at all;
    - `move` is the move's id, an int unique in the table:
      `move_labels(move)` is its `(input, output, pending)`.  Every edge
      that follows the move is a copy of it, so a question decided by
      those three alone is decided once per id.

    `initial` is the initial state, and `initial_key` its code.
    """

    pending: tuple
    size: int
    relaxed: tuple
    excited: tuple
    initial: StateVector
    initial_key: int
    move_labels: Callable[[int], tuple]

    def candidates(self, code: int) -> Sequence[tuple]:
        """The moves out of the relaxed configuration of state code `code`, in rank order.

        The moves of every factor that moves are sorted by rank, once, and
        a repeated rank is kept once.  Guards are left to the caller.
        `channels._explore` reads a configuration whose moves all come
        from one factor, an excited one's receiver or a one-factor
        table's, from that factor's digit instead.
        """
        found = []
        for stride, radix, moves_of in self.relaxed:
            if moves := moves_of(code // stride % radix):
                found.append(moves)
        if len(found) == 1:
            return found[0]
        # A repeated rank keeps the first factor's move, written last.
        return sorted({m[0]: m for ms in reversed(found) for m in ms}.values(), key=_by_rank)


def vetoed(guard: tuple, code: int) -> bool:
    """Does a move's `guard` veto it out of state code `code`: does every
    test `(stride, radix, allowed)` of one of its residues hold, `code //
    stride % radix in allowed`?"""
    for residue in guard:
        for stride, radix, allowed in residue:
            if code // stride % radix not in allowed:
                break
        else:
            return True
    return False


def veto(conditions: Iterable) -> Callable[[Transition], bool]:
    """Build `deny(t)`: does some `conditions.Condition` match `t`?

    For `cond` of a plain automaton and `automaton_table`; a product's
    table has its conditions compiled on instead (`_guards`), and `deny`
    is the tests' reference for them.  Each condition is filed under its
    width, its first pinned source slot and that slot's value, so a
    transition is tested only against the conditions its own source
    selects, plus those that pin no source slot.  `Condition.matches`
    decides each test.
    """
    free: dict[int, list] = {}
    pinned: dict[int, dict[int, dict[str, list]]] = {}
    for c in conditions:
        width = len(c.source)
        slot = next((i for i, p in enumerate(c.source) if p != WILDCARD), None)
        if slot is None:
            free.setdefault(width, []).append(c)
            continue
        by_slot = pinned.setdefault(width, {})
        by_slot.setdefault(slot, {}).setdefault(c.source[slot], []).append(c)
    slots = {width: tuple(by_slot.items()) for width, by_slot in pinned.items()}

    def deny(t: Transition) -> bool:
        s = t.source
        for c in free.get(len(s), ()):
            if c.matches(t):
                return True
        for slot, by_value in slots.get(len(s), ()):
            for c in by_value.get(s[slot], ()):
                if c.matches(t):
                    return True
        return False

    return deny


def _guards(conditions: Sequence, width: int, layout: Sequence[tuple]) -> Callable:
    """`guard(k, d, target, inp, outp)`: the `conditions` compiled onto the
    move of factor k from its local state of digit d to the local `target`,
    with the flat labels `inp` and `outp`.

    `layout[k]` is factor k's `(span, stride, radix, local)`: its flat state
    slots, its digit `code // stride % radix`, and `local[e]`, its local
    state of digit e.  The move leaves every slot outside its span as it
    was, so whether condition c matches a transition of the move depends
    on the move alone — the widths, the labels, the scope activity and c's pins
    on the moving slots — except for c's pins on another factor j's slots.
    Such a slot must carry c's source pin and its target pin alike, since
    it does not change: that is the test `digit_j in allowed_j`, the
    digits of j's local states carrying them.  If no digit is allowed, c
    matches none of the move's transitions; if every digit is, no test is
    needed.  The rest is decided by `Condition.matches` on one witness
    transition whose other slots carry c's pins, once per (move,
    condition) pair.

    The guard is None when no condition matches the move anywhere, else
    one residue per condition that does: the tuple of its tests.  An empty
    residue vetoes the move out of every state.
    """
    by_factor: list[list[tuple]] = [[] for _ in layout]
    for c in conditions:
        if len(c.source) != width or len(c.target) != width:
            continue
        fill = tuple(q if p == WILDCARD else p for p, q in zip(c.source, c.target))
        tests = []
        for j, (span, stride, radix, local) in enumerate(layout):
            pins = [(i - span.start, c.source[i], c.target[i]) for i in span if fill[i] != WILDCARD]
            allowed = frozenset(
                e
                for e, s in enumerate(local)
                if all(p in (WILDCARD, s[i]) and q in (WILDCARD, s[i]) for i, p, q in pins)
            )
            if len(allowed) < radix:
                tests.append((j, (stride, radix, allowed)))
        for k, ((span, *_), entries) in enumerate(zip(layout, by_factor)):
            residue = tuple(test for j, test in tests if j != k)
            if all(allowed for _, _, allowed in residue):
                entries.append((c, fill[: span.start], fill[span.stop :], residue))
    new = tuple.__new__

    def guard(k, d, target, inp, outp):
        source = layout[k][3][d]  # digit d's local state
        residues = []
        for c, head, tail, residue in by_factor[k]:
            if c.matches(new(Transition, (head + source + tail, head + target + tail, inp, outp))):
                if not residue:
                    return ((),)
                residues.append(residue)
        return tuple(residues) or None

    return guard


def _wire(
    factors: Sequence[tuple], inputs: Sequence, channels: Sequence, guard, initial: StateVector, code: int
) -> MoveTable:
    """The `MoveTable` of factors wired by `channels` and guarded by `guard`
    (None, or one of `_guards`), with flat `inputs` and `initial` state of
    code `code`.

    Each factor is its unwired table `(stride, radix, ins, moves_of)`: its
    digit, its flat input components, and `moves_of(d)`, its `MoveTable`
    moves out of local state d, with no channels and no guards.  One pass
    decides every move: left out if its guard vetoes it out of every
    state, else filed under the pending code it consumes if it reads a
    channel-fed input, else relaxed.  A move writing a wired output leaves
    that channel's character pending.  The moves kept are numbered in the
    order they are filed, and `move_labels` reads each one's labels and
    pending back from a list of them by number.
    """
    # The characters that can be in flight, by pending code: None first.
    chars = ((ch, c) for ch in channels for c in sorted(inputs[ch.in_component].characters))
    pending = (None, *chars)
    code_of = {pair: p for p, pair in enumerate(pending)}
    fed = tuple((ch.in_component, ch) for ch in channels)
    sent = tuple((ch.out_component, ch) for ch in channels)
    size = prod(radix for _, radix, _, _ in factors)
    relaxed, excited = [], [None] * len(pending)
    filed: list[tuple] = []  # the moves kept, by id
    for k, (stride, radix, ins, moves_of) in enumerate(factors):
        for p, (ch, _) in enumerate(pending[1:], 1):
            if ch.in_component in ins:
                excited[p] = (stride, radix, {})
        here: dict = {}
        for d in range(radix):
            for rank, shift, lo, hi, target, inp, outp, _, _, _ in moves_of(d) or ():
                g = guard(k, d, target, inp, outp) if guard else None
                if g and () in g:
                    continue  # vetoed out of every state
                # At most one channel end matches: a label is active on one component at most.
                p, table = 0, here
                for c, ch in sent:
                    if outp[c]:
                        p = code_of[ch, outp[c]]
                for c, ch in fed:
                    if inp[c]:
                        table = excited[code_of[ch, inp[c]]][2]
                move = (rank, p * size + shift, lo, hi, target, inp, outp, pending[p], g, len(filed))
                table.setdefault(d, []).append(move)
                filed.append(move)
        relaxed.append((stride, radix, here.get))
    excited[1:] = [(stride, radix, by_digit.get) for stride, radix, by_digit in excited[1:]]
    return MoveTable(pending, size, tuple(relaxed), tuple(excited), initial, code, partial(_filed_move_labels, filed))


def _filed_move_labels(filed: list[tuple], move: int) -> tuple:
    """`(input, output, pending)` of `_wire`'s move `move`, the one it filed `move`-th."""
    return filed[move][5:8]


def automaton_table(a: Nfioa, channels: Sequence = (), conditions: Sequence = ()) -> MoveTable:
    """`a` wired by `channels` and restricted by `conditions`, as a
    one-factor `MoveTable`.

    Built from `a`'s own transitions and labels, sorted per source.
    Sources are numbered in table order, the other states when first met
    as a target.  `moves_of` sorts, restricts and numbers a source's moves
    when asked, so an unwired table, which wraps it, lists only the
    sources exploration reaches.  One factor owns every slot, so `veto`
    decides each move outright: no move keeps a guard.

    A move's id is its source's digit times `a`'s transition count, plus
    its position among the source's sorted transitions that `conditions`
    keep, so it is also the move's rank.  `move_labels` reads its labels
    back from that sorted list, so the table records nothing per move or
    per source.  Wired, `_wire` numbers the moves again.
    """
    by_source: dict[StateVector, list[Transition]] = {}
    for t in a.transitions:
        by_source.setdefault(t.source, []).append(t)
    number = {s: d for d, s in enumerate(by_source)}
    groups = list(by_source.values())
    # At least any source's out-degree, and known without a pass over the sources.
    step = len(a.transitions)
    width = a.state_width
    deny = veto(conditions) if conditions else None

    def moves_of(d: int) -> list | None:
        """Source d's moves in order, less those `deny` vetoes."""
        if d >= len(groups):
            return None
        ts = groups[d]
        ts.sort()
        if deny is not None:
            # Kept in place of the group, so a move's id finds it there.
            ts = groups[d] = [t for t in ts if not deny(t)]
        return [
            (move, number.setdefault(tgt, len(number)) - d, 0, width, tgt, inp, outp, None, None, move)
            for move, (_, tgt, inp, outp) in enumerate(ts, d * step)
        ]

    code = number.setdefault(a.initial, len(number))
    radix = len(a.states)
    if not channels:
        labels = partial(_flat_move_labels, groups, step)
        return MoveTable((None,), radix, ((1, radix, moves_of),), (None,), a.initial, code, labels)
    return _wire(((1, radix, range(len(a.inputs)), moves_of),), a.inputs, channels, None, a.initial, code)


def _flat_move_labels(groups: list[list[Transition]], step: int, move: int) -> tuple:
    """`(input, output, None)` of an unwired `automaton_table`'s move `move`:
    position `move % step` among source `move // step`'s sorted, kept
    transitions."""
    d, rank = divmod(move, step)
    _, _, inp, outp = groups[d][rank]
    return inp, outp, None


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

    The one move generator of the weak product: `materialize` builds its
    flat automaton (for `weak_product` and `cond`), and `channels.cbr`
    explores its `table`.  Carries the flat interface and index so channel
    and condition machinery applies unchanged.

    A move changes only its factor's slice of the state, and its labels
    are the factor's labels at the factor's positions, silent elsewhere, so
    the flat labels depend on the factor transition alone.  `reach[k]`
    holds factor k's reachable local states, sorted: local state
    `reach[k][d]` is digit d of the packed state code.  One pass per
    factor builds its unwired table `(stride, radix, ins, moves_of)` for
    `_wire`: its moves out of those states, labels placed, ranked by
    `_rank_key`.  `transition_count` is how many flat transitions the
    rectangle of `reach` yields, counting a silent self-loop once per
    factor having it.
    """

    def __init__(self, factors: Sequence[Nfioa], *, name: str | None = None):
        self.factors = tuple(factors)
        if not self.factors:
            raise WiringError("product needs at least one factor")
        _common_mode(self.factors)
        self.name = name or "(" + " x ".join(f.name for f in self.factors) + ")"
        self.inputs, self.outputs = _concat_interfaces(self.factors)
        self.initial = tuple(v for f in self.factors for v in f.initial)
        self.index = ProductIndex.for_factors(self.factors)
        self.reach = [tuple(sorted(reachable_states(f))) for f in self.factors]
        size = prod(map(len, self.reach))
        self._tables, self._layout = [], []
        stride, self._code, self.transition_count = 1, 0, 0
        for k, (f, reach) in enumerate(zip(self.factors, self.reach)):
            state, ins, outs = (self.index.span(side, k) for side in ("state", "input", "output"))
            lo, hi = state.start, state.stop
            number = {s: d for d, s in enumerate(reach)}
            self._code += number[f.initial] * stride
            # Sorted transitions are sorted by source, so by digit, and one
            # factor's moves out of one source rank in that order too.
            by_digit: dict[int, list] = {}
            for pos, t in enumerate(t for t in sorted(f.transitions) if t.source in number):
                inp = _placed(t.input, ins, len(self.inputs))
                outp = _placed(t.output, outs, len(self.outputs))
                d = number[t.source]
                rank, shift = _rank_key(k, pos, t, inp, outp), (number[t.target] - d) * stride
                by_digit.setdefault(d, []).append((rank, shift, lo, hi, t.target, inp, outp, None, None, None))
                self.transition_count += size // len(reach)
            self._tables.append((stride, len(reach), ins, by_digit.get))
            self._layout.append((state, stride, len(reach), reach))
            stride *= len(reach)

    def table(self, channels: Sequence, conditions: Sequence = ()) -> MoveTable:
        """This product's `MoveTable` wired by `channels` and restricted by
        `conditions`, each move decided once (see `_wire` and `_guards`)."""
        guard = _guards(conditions, len(self.initial), self._layout) if conditions else None
        return _wire(self._tables, self.inputs, channels, guard, self.initial, self._code)
