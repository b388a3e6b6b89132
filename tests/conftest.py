"""Shared fixtures: example documents built once per session."""
from __future__ import annotations

import pytest

from fioa import examples
from fioa.core import Transition
from fioa.dsl import ResolvedDocument


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
    order `channels._explore` reads them from `MoveTable.candidates`.
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
            for _, shift, lo, hi, tgt, inp, outp, pend in cands
        ]

    listed.key_of = key_of
    return listed
