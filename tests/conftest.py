"""Shared fixtures: example documents built once per session."""
from __future__ import annotations

from collections import Counter

import pytest

from fioa import LazyProduct, automata_equal, cond, examples, weak_product
from fioa.channels import Configuration, _explore
from fioa.conditions import veto
from fioa.core import Transition
from fioa.dsl import ResolvedDocument
from fioa.product import automaton_table, vetoed


@pytest.fixture(scope="session")
def mutex_env() -> ResolvedDocument:
    return examples.build("mutex")


@pytest.fixture(scope="session")
def broken_mutex_env() -> ResolvedDocument:
    return examples.build("broken_mutex")


@pytest.fixture(scope="session")
def admin_env() -> ResolvedDocument:
    return examples.build("administrator")


@pytest.fixture(scope="session")
def mitm_env() -> ResolvedDocument:
    return examples.build("mitm")


@pytest.fixture(scope="session")
def ring2_env() -> ResolvedDocument:
    return examples.build("ring2")


@pytest.fixture(scope="session")
def ring3_env() -> ResolvedDocument:
    return examples.build("ring3")


@pytest.fixture(scope="session")
def ring_eq_env() -> ResolvedDocument:
    return examples.build("ring2_eq")


@pytest.fixture(scope="session")
def all_restrictions(mutex_env, broken_mutex_env, mitm_env, ring2_env, ring3_env, ring_eq_env):
    """Every channel-coupled configuration graph the corpus builds."""
    out = []
    for env in (mutex_env, broken_mutex_env, mitm_env, ring2_env, ring3_env, ring_eq_env):
        for built in env.networks.values():
            if built.restricted is not None:
                out.append(built)
    return out


@pytest.fixture(scope="session")
def listed():
    """`listed(lazy, table, state, pending)`: what `table`, a `MoveTable`
    of `lazy`, lists out of the configuration `(state, pending)`.

    Each move comes as `(transition, pending after, target key)`, in the
    order `channels._explore` reads them from `MoveTable.candidates`; a
    move whose guard vetoes it out of the configuration is left out, as
    `_explore` leaves it out.
    `key_of` packs the configuration's key from the layout `MoveTable`
    documents, so a shift that misses its target's key shows.  A state
    outside the rectangle of reachable local states lists nothing.
    """

    def key_of(lazy, table, state, pending):
        digits = []
        for k, local in enumerate(lazy.reach):
            span = lazy.index.span("state", k)
            if state[span.start : span.stop] not in local:
                return None
            digits.append(local.index(state[span.start : span.stop]))
        return table.pending.index(pending) + sum(
            d * unit for d, (unit, _, _) in zip(digits, table.relaxed)
        )

    def listed(lazy, table, state, pending):
        key = key_of(lazy, table, state, pending)
        if key is None:
            return []
        base, cands = table.candidates(key)
        return [
            (Transition(state, state[:lo] + tgt + state[hi:], inp, outp), pend, base + shift)
            for _, shift, lo, hi, tgt, inp, outp, pend, guard in cands
            if guard is None or not vetoed(guard, base)
        ]

    listed.key_of = key_of
    return listed


def _explored_with_deny(table, deny):
    """`(nodes, moves, succ)` as `channels._explore` built them before
    conditions were compiled: a breadth-first walk of a condition-free
    `MoveTable` that builds each move's `Transition` and asks `deny`."""
    nodes = [Configuration(tuple(table.initial), None)]
    keys = [table.initial_key]
    number = {table.initial_key: 0}
    moves, succ = [], []
    for (state, _), key in zip(nodes, keys):
        base, cands = table.candidates(key)
        here, out = [], []
        for _, shift, lo, hi, tgt, inp, outp, pend, guard in cands:
            assert guard is None
            t = Transition(state, state[:lo] + tgt + state[hi:], inp, outp)
            if deny(t):
                continue
            k = number.get(base + shift)
            if k is None:
                k = number[base + shift] = len(nodes)
                keys.append(base + shift)
                nodes.append(Configuration(t.target, pend))
            here.append(t)
            out.append(k)
        moves.append(tuple(here))
        succ.append(tuple(out))
    return tuple(nodes), tuple(moves), tuple(succ)


@pytest.fixture(scope="session")
def compiled_agrees(listed):
    """`compiled_agrees(factors, channels, conditions)`: conditions compiled
    onto the move table agree with `conditions.veto`, which tests every
    `Transition` with `Condition.matches`.

    Asserted for the factors' `LazyProduct` and, when its eager product
    has at most `eager_cap` (default 200,000) transitions, for that
    product as one factor (`automaton_table`):

    - the explored graphs are identical: `nodes`, `moves` and `succ`;
    - move for move, each node lists the condition-free table's moves
      that `veto` lets through;
    - the kept transitions of `cond` on the lazy product are those of
      `cond` on the eager one, which `veto` filters.

    Returns what it saw: how many moves kept a guard, how many times a
    guard vetoed a move out of a node, and how many moves were left out of
    the table.
    """

    def graph_of(table):
        g = _explore(table, cap=10**7)
        return g.nodes, g.moves, g.succ

    def check(factors, channels, conditions, *, eager_cap=200_000):
        seen = Counter()
        deny = veto(conditions)
        lazy = LazyProduct(factors)
        free, compiled = lazy.table(channels), lazy.table(channels, conditions)
        nodes, moves, succ = graph_of(compiled)
        assert (nodes, moves, succ) == _explored_with_deny(free, deny)
        for state, pending in nodes:
            kept = listed(lazy, compiled, state, pending)
            assert kept == [m for m in listed(lazy, free, state, pending) if not deny(m[0])]
            base, cands = compiled.candidates(listed.key_of(lazy, compiled, state, pending))
            seen["guard vetoes"] += sum(m[8] is not None and vetoed(m[8], base) for m in cands)
        tables = zip((*compiled.relaxed, *compiled.excited[1:]), (*free.relaxed, *free.excited[1:]))
        for (_, radix, moves_of), (_, _, free_of) in tables:
            for d in range(radix):
                guarded = moves_of(d) or ()
                seen["guarded moves"] += sum(m[8] is not None for m in guarded)
                seen["moves left out"] += len(free_of(d) or ()) - len(guarded)
        if lazy.transition_count > eager_cap:
            return seen
        prod = weak_product(factors)[0]
        assert graph_of(automaton_table(prod, channels, conditions)) == _explored_with_deny(
            automaton_table(prod, channels), deny
        )
        eager, filtered = cond(lazy, conditions), cond(prod, conditions)
        assert eager.transitions == filtered.transitions
        assert automata_equal(eager, filtered, up_to_reachability=False).equal
        seen["eager checked"] += 1
        return seen

    return check
