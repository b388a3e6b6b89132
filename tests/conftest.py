"""Shared fixtures: example documents built once per session."""
from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

import oracle
from fioa import LazyProduct, Nfioa, automata_equal, cbr, cond, examples, parse, resolve, serialize, weak_product
from fioa.channels import _explore
from fioa.core import Transition
from fioa.dsl import ResolvedDocument
from fioa.product import acceptance_within, automaton_table, vetoed


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
def generated():
    """`(case, built)` for `oracle.network(seed)`, seeds 0–119: parsed, serialized, parsed
    again (equal), resolved, and checked to compile to what the case says."""
    out = []
    for seed in range(120):
        case = oracle.network(seed)
        doc = parse(case.text)
        assert parse(serialize(doc)) == doc, seed
        built = resolve(parse(serialize(doc))).networks[f"net{seed}"]
        c = built.compiled
        assert (c.factors, c.channels, c.conditions) == (case.factors, case.channels, case.conditions), seed
        assert c.spec.acceptance == case.acceptance, seed
        out.append((case, built))
    return out


@pytest.fixture(scope="session")
def corpus_oracle(all_restrictions):
    """`(r, naive)` for every corpus configuration graph, under `r`'s own
    acceptance: a product's Muller member can be too large to spell."""
    pairs = []
    for b in all_restrictions:
        c = b.compiled
        pairs.append((b.restricted, oracle.explore(c.factors, c.channels, c.conditions, b.restricted.acceptance)))
    return pairs


@pytest.fixture(scope="session")
def differential(corpus_oracle, generated):
    """`(r, naive)`: the corpus, then each generated network as built (a
    `LazyProduct`) and as its eager product (through `automaton_table`)."""
    pairs = list(corpus_oracle)
    for case, built in generated:
        c = built.compiled
        eager = cbr(weak_product(c.factors)[0], c.channels, conditions=c.conditions, name=f"net{case.seed}_eager")
        eager = eager if case.acceptance is None else eager.with_acceptance(case.acceptance)
        pairs += [(built.restricted, case.naive), (eager, case.naive)]
    return pairs


@pytest.fixture(scope="session")
def unwired(generated):
    """`(r, naive)`: each generated network's eager product restricted by
    its conditions and no channels, an unwired `automaton_table`, whose
    move ids are its own source digits and ranks."""
    pairs = []
    for case, built in generated:
        c = built.compiled
        r = cbr(weak_product(c.factors)[0], conditions=c.conditions, name=f"net{case.seed}_unwired")
        pairs.append((r, oracle.explore(c.factors, (), c.conditions, r.acceptance)))
    return pairs


@pytest.fixture(scope="session")
def listed():
    """`listed(lazy, table, state, pending)`: what `table`, a `MoveTable`
    of `lazy`, lists out of the configuration `(state, pending)`.

    Each move comes as `(transition, pending after, target key)`, in the
    order `channels._explore` reads them: `MoveTable.candidates` of a
    relaxed key, or the receiver's moves of an excited one, as
    `MoveTable` documents them; a move whose guard vetoes it out of the
    configuration is left out, as `_explore` leaves it out.
    `moves_at(table, key)` is `(base, moves)`: the key's state code and
    those moves, guards not yet applied.
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
        return table.pending.index(pending) * table.size + sum(
            d * stride for d, (stride, _, _) in zip(digits, table.relaxed)
        )

    def moves_at(table, key):
        if key < table.size:
            return key, table.candidates(key)
        p, base = divmod(key, table.size)
        stride, radix, moves_of = table.excited[p]
        return base, moves_of(base // stride % radix) or ()

    def listed(lazy, table, state, pending):
        key = key_of(lazy, table, state, pending)
        if key is None:
            return []
        base, cands = moves_at(table, key)
        return [
            (Transition(state, state[:lo] + tgt + state[hi:], inp, outp), pend, base + shift)
            for _, shift, lo, hi, tgt, inp, outp, pend, guard, _ in cands
            if guard is None or not vetoed(guard, base)
        ]

    listed.key_of = key_of
    listed.moves_at = moves_at
    return listed


@pytest.fixture(scope="session")
def compiled_agrees(listed):
    """`compiled_agrees(factors, channels, conditions)`: conditions compiled
    onto the move table veto what `Condition.matches` vetoes.

    Asserted for the factors' `LazyProduct` and, when its eager product
    has at most `eager_cap` (default 200,000) transitions, for that
    product as one factor (`automaton_table`):

    - the explored graph is the oracle's (`oracle.explore`), node for
      node and edge for edge;
    - the kept transitions of `cond` on the lazy product are those of
      `cond` on the eager one, which `conditions.veto` filters.

    Returns what it saw: how many moves kept a guard, how many times a
    guard vetoed a move out of a node, and how many moves were left out of
    the table.
    """

    def edges_of(table):
        return list(_explore(table, cap=10**7).edges.items())

    def check(factors, channels, conditions, *, eager_cap=200_000):
        seen = Counter()
        lazy = LazyProduct(factors)
        free, compiled = lazy.table(channels), lazy.table(channels, conditions)
        naive = list(oracle.explore(factors, channels, conditions).edges.items())
        assert edges_of(compiled) == naive
        for (state, pending), _ in naive:
            base, cands = listed.moves_at(compiled, listed.key_of(lazy, compiled, state, pending))
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
        assert edges_of(automaton_table(prod, channels, conditions)) == naive
        eager, filtered = cond(lazy, conditions), cond(prod, conditions)
        assert eager.transitions == filtered.transitions
        assert automata_equal(eager, filtered, up_to_reachability=False).equal
        seen["eager checked"] += 1
        return seen

    return check


@pytest.fixture(scope="session")
def same_as_eager_base():
    """`same_as_eager_base(source, r, acceptance=None)`: `r.base`, the
    restriction's flat automaton built on first read, equals the one `cbr`
    built eagerly from `source` before: the source's interface and
    initial state, the transitions of the graph's edges, and the source's
    states and acceptance or, from a lazy product, the graph's states with
    the product's acceptance within them.  `acceptance`, when given, is a
    network's override, which replaces the acceptance.

    The eager automaton is built here from the graph's `edges` view, not
    from its `moves`, and compared with `automata_equal` on its whole
    state set and on its name.
    """

    def check(source, r, acceptance=None):
        transitions = {e.transition for es in r.graph.edges.values() for e in es}
        if isinstance(source, LazyProduct):
            states = frozenset(c.state for c in r.graph.edges)
            want = Nfioa(
                r.name, states, source.inputs, source.outputs, source.initial,
                acceptance_within(source.factors, states), transitions,
            )
        else:
            want = replace(source, name=r.name, transitions=transitions)
        if acceptance is not None:
            want = replace(want, acceptance=acceptance)
        got = r.base
        rep = automata_equal(got, want, up_to_reachability=False)
        assert rep.equal and got.name == want.name, (r.name, rep.reason)

    return check
