"""Weakly synchronized products: eager, lazy, and differently grouped."""
from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

import fioa.product

from fioa import (
    Acceptance,
    CapacityExceeded,
    EPSILON,
    LazyProduct,
    ProductIndex,
    Transition,
    WiringError,
    acceptance_within,
    automata_equal,
    examples,
    random_nfioa,
    reachable_states,
    require_valid,
    validate,
    weak_product,
)
from fioa.core import active_slot, is_silent


def _part(index, side, vec, k):
    """Factor `k`'s part of the flat `side` vector `vec`."""
    span = index.span(side, k)
    return vec[span.start : span.stop]


@pytest.fixture(scope="module")
def mutex_product():
    return weak_product([examples.user_role(), examples.server_role()])


class TestEagerProduct:
    def test_mutex_product_shape(self, mutex_product):
        prod, index = mutex_product
        assert len(prod.states) == 16
        assert len(prod.transitions) == 32
        assert prod.initial == ("remn", "remn")
        assert [index.span("state", k) for k in range(2)] == [range(0, 1), range(1, 2)]
        assert validate(prod) == []

    def test_interfaces_are_concatenated_and_qualified(self, mutex_product):
        prod, _ = mutex_product
        assert [c.name for c in prod.inputs] == ["User.svc", "Server.svc"]
        assert [c.name for c in prod.outputs] == ["User.svc", "Server.svc"]
        assert prod.inputs[0].characters == frozenset({"cf_req", "cf_fin"})
        assert prod.inputs[1].characters == frozenset({"req", "fin"})

    def test_exactly_one_factor_moves(self, mutex_product):
        prod, index = mutex_product
        for t in prod.transitions:
            moved = [
                k
                for k in range(2)
                if _part(index, "state", t.source, k) != _part(index, "state", t.target, k)
            ]
            assert len(moved) == 1
            k = moved[0]
            for side, vec in (("input", t.input), ("output", t.output)):
                assert is_silent(_part(index, side, vec, 1 - k))

    def test_labels_still_activate_at_most_one_flat_slot(self, mutex_product):
        prod, _ = mutex_product
        for t in prod.transitions:
            assert active_slot(t.input) is None or is_silent(t.output) or active_slot(t.output) is None

    def test_muller_members_multiply(self, mutex_product):
        prod, _ = mutex_product
        acc = prod.acceptance
        assert acc.mode == "muller"
        assert len(acc.muller_sets) == 1
        (member,) = acc.muller_sets
        assert member == prod.states  # all-states member x all-states member

    def test_final_mode_products_take_cartesian_finals(self):
        u = examples.user_role()
        a = u.__class__(
            name="A",
            states=u.states,
            inputs=u.inputs,
            outputs=u.outputs,
            initial=u.initial,
            acceptance=Acceptance.final([("remn",), ("crit",)]),
            transitions=u.transitions,
        )
        prod, _ = weak_product([a, a])
        finals = prod.acceptance.final_states
        assert finals == frozenset(
            {(x, y) for x in ("remn", "crit") for y in ("remn", "crit")}
        )

    def test_mixed_acceptance_modes_are_rejected(self):
        u = examples.user_role()
        f = u.__class__(
            name="F",
            states=u.states,
            inputs=u.inputs,
            outputs=u.outputs,
            initial=u.initial,
            acceptance=Acceptance.final([("remn",)]),
            transitions=u.transitions,
        )
        with pytest.raises(WiringError):
            weak_product([u, f])

    def test_empty_factor_list_is_rejected(self):
        with pytest.raises(WiringError):
            weak_product([])

    def test_state_cap_triggers(self, monkeypatch):
        monkeypatch.setattr(fioa.product, "STATE_CAP", 100)
        u = examples.user_role()
        with pytest.raises(CapacityExceeded):
            weak_product([u] * 4)

    def test_transition_cap_message_suggests_lazy_exploration(self, monkeypatch):
        monkeypatch.setattr(fioa.product, "TRANSITION_CAP", 10)
        u = examples.user_role()
        with pytest.raises(CapacityExceeded, match="network instead"):
            weak_product([u] * 4)


class TestAssociate:
    def test_differently_built_groupings_flatten_identically(self):
        u, s, t = examples.user_role(), examples.server_role(), examples.timer_role()
        left, _ = weak_product([weak_product([u, s])[0], t])
        right, _ = weak_product([u, weak_product([s, t])[0]])
        flat, _ = weak_product([u, s, t])
        for other in (left, right):
            assert automata_equal(flat, other, up_to_reachability=False).equal


class TestLazyProduct:
    def test_lazy_outgoing_matches_eager_transitions(self, listed):
        factors = [examples.user_role(), examples.server_role()]
        eager, _ = weak_product(factors)
        lazy = LazyProduct(factors)
        free = lazy.table(())
        assert lazy.initial == eager.initial
        assert free.initial == lazy.initial
        assert free.initial_key == listed.key_of(lazy, free, lazy.initial, None)
        for state in sorted(eager.states):
            eager_out = frozenset(t for t in eager.transitions if t.source == state)
            assert frozenset(t for t, _, _ in listed(lazy, free, state, None)) == eager_out

    def test_lazy_interface_matches_eager(self):
        factors = [examples.user_role(), examples.server_role()]
        eager, eidx = weak_product(factors)
        lazy = LazyProduct(factors)
        assert lazy.inputs == eager.inputs
        assert lazy.outputs == eager.outputs
        assert lazy.index == eidx

    def test_acceptance_filter_drops_oversized_members(self):
        factors = [examples.user_role(), examples.server_role()]
        lazy = LazyProduct(factors)
        small = frozenset({("remn", "remn"), ("try", "remn")})
        assert acceptance_within(lazy.factors, small).muller_sets == frozenset()
        full = frozenset(weak_product(factors)[0].states)
        assert acceptance_within(lazy.factors, full).muller_sets == frozenset({full})

    def test_acceptance_filter_requires_containment_not_just_size(self):
        factors = [examples.user_role(), examples.server_role()]
        other = frozenset({("x", str(i)) for i in range(20)})
        assert acceptance_within(factors, other).muller_sets == frozenset()

    def test_acceptance_filter_refuses_mixed_modes_in_either_order(self):
        u = examples.user_role()
        f = replace(u, name="F", acceptance=Acceptance.final([("remn",)]))
        states = frozenset(weak_product([u, u])[0].states)
        for factors in ([f, u], [u, f]):
            with pytest.raises(WiringError, match=r"^factors mix acceptance modes \['final', 'muller'\]"):
                acceptance_within(factors, states)
            with pytest.raises(WiringError, match=r"^factors mix acceptance modes \['final', 'muller'\]"):
                LazyProduct(factors)


class TestProductIndex:
    def test_slices_must_partition(self):
        with pytest.raises(WiringError):
            ProductIndex(
                state_slices=((0, 1), (2, 1)),
                input_slices=((0, 1),),
                output_slices=((0, 1),),
            )

    def test_slot_accessors_round_trip(self):
        factors = [examples.user_role(), examples.timer_role()]
        _, index = weak_product(factors)
        vec = ("crit", "wait")
        assert _part(index, "state", vec, 0) == ("crit",)
        assert _part(index, "state", vec, 1) == ("wait",)
        assert index.span("input", 1) == range(1, 2)
        assert index.span("output", 1) == range(1, 1 + len(factors[1].outputs))


class TestRandomProducts:
    def test_products_of_random_machines_are_valid(self):
        for seed in range(40):
            prod, _ = weak_product([random_nfioa(seed), random_nfioa(200 - seed, name="other")])
            assert validate(prod) == [], seed

    def test_reachable_product_states_project_to_reachable_factor_states(self):
        for seed in range(25):
            a, b = random_nfioa(seed), random_nfioa(seed + 1000, name="b")
            prod, index = weak_product([a, b])
            ra, rb = reachable_states(a), reachable_states(b)
            for s in reachable_states(prod):
                assert _part(index, "state", s, 0) in ra, seed
                assert _part(index, "state", s, 1) in rb, seed

    def test_every_product_move_changes_at_most_one_factor(self):
        """Each product transition is one factor's move verbatim.

        At most one factor changes state or speaks; a factor's self-loop
        leaves the state vector identical, so the invariant is about the
        moving slot ranges, not about source != target.
        """

        for seed in range(40):
            a, b = random_nfioa(seed), random_nfioa(seed + 500, name="b")
            prod, index = weak_product([a, b])
            factor_moves = (a.transitions, b.transitions)
            for t in prod.transitions:
                movers = []
                for i in range(2):
                    piece = Transition(
                        _part(index, "state", t.source, i),
                        _part(index, "state", t.target, i),
                        _part(index, "input", t.input, i),
                        _part(index, "output", t.output, i),
                    )
                    stayed_put = (
                        piece.source == piece.target
                        and is_silent(piece.input)
                        and is_silent(piece.output)
                    )
                    if piece in factor_moves[i]:
                        movers.append(i)
                    elif not stayed_put:
                        pytest.fail(f"slot {i} changed without a factor move: {t}")
                assert movers, f"no factor owns {t}"


def _product_by_definition(factors):
    """The weak product written from its definition.

    Every state of the Cartesian product; one factor moves by one of its
    own transitions while every other factor sits in a reachable local
    state, and silent characters fill the other factors' label slots.
    """
    reach = [reachable_states(f) for f in factors]
    states = {sum(combo, ()) for combo in itertools.product(*(f.states for f in factors))}
    transitions = set()
    for k, f in enumerate(factors):
        for t in f.transitions:
            if t.source not in reach[k]:
                continue
            contexts = [reach[j] if j != k else [None] for j in range(len(factors))]
            for ctx in itertools.product(*contexts):
                src = tgt = inp = out = ()
                for j, g in enumerate(factors):
                    moving = j == k
                    src += t.source if moving else ctx[j]
                    tgt += t.target if moving else ctx[j]
                    inp += t.input if moving else (EPSILON,) * len(g.inputs)
                    out += t.output if moving else (EPSILON,) * len(g.outputs)
                transitions.add(Transition(src, tgt, inp, out))
    finals = {
        sum(combo, ())
        for combo in itertools.product(*(f.acceptance.final_states for f in factors))
    }
    return states, transitions, finals


class TestProductDefinition:
    @pytest.mark.parametrize("width", [2, 3])
    def test_eager_product_matches_its_definition(self, width):
        for seed in range(30):
            factors = [
                random_nfioa(seed * 7 + j, n_states=3 + (seed + j) % 3, name=f"f{j}")
                for j in range(width)
            ]
            prod, index = weak_product(factors)
            states, transitions, finals = _product_by_definition(factors)
            assert prod.states == states, seed
            assert prod.transitions == transitions, seed
            assert prod.initial == sum((f.initial for f in factors), ())
            assert prod.acceptance == Acceptance.final(finals), seed
            assert index == ProductIndex.for_factors(factors)

    @pytest.mark.parametrize(
        "factors, count",
        [
            ([examples.user_role(), examples.server_role(), examples.timer_role()], 1),
            ([examples.det_admin_role()] * 3, 8),
        ],
        ids=["user-server-timer", "3xDetAdmin"],
    )
    def test_muller_product_keeps_every_member(self, factors, count):
        prod, _ = weak_product(factors)
        states, transitions, _ = _product_by_definition(factors)
        assert prod.states == states
        assert prod.transitions == transitions
        members = {
            frozenset(sum(pick, ()) for pick in itertools.product(*combo))
            for combo in itertools.product(*(f.acceptance.muller_sets for f in factors))
        }
        assert len(members) == count
        assert prod.acceptance == Acceptance.muller(members)
