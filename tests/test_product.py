"""Weakly synchronized products: eager, lazy, and re-bracketing."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fioa import (
    Acceptance,
    CapacityExceeded,
    EPSILON,
    LazyProduct,
    ProductIndex,
    Transition,
    WiringError,
    acceptance_within,
    associate,
    automata_equal,
    examples,
    random_nfioa,
    reachable_states,
    require_valid,
    validate,
    weak_product,
)
from fioa.core import active_slot, is_silent


@pytest.fixture(scope="module")
def mutex_product():
    return weak_product([examples.user_role(), examples.server_role()])


class TestEagerProduct:
    def test_mutex_product_shape(self, mutex_product):
        prod, index = mutex_product
        assert len(prod.states) == 16
        assert len(prod.transitions) == 32
        assert prod.initial == ("remn", "remn")
        assert index.factor_count == 2
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
                for k in range(index.factor_count)
                if index.state_of(t.source, k) != index.state_of(t.target, k)
            ]
            assert len(moved) == 1
            k = moved[0]
            for side, of in ((t.input, index.input_of), (t.output, index.output_of)):
                for j in range(index.factor_count):
                    if j != k:
                        assert is_silent(of(side, j))

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

    def test_state_cap_triggers(self):
        u = examples.user_role()
        with pytest.raises(CapacityExceeded):
            weak_product([u] * 4, state_cap=100)

    def test_transition_cap_message_suggests_lazy_exploration(self):
        u = examples.user_role()
        with pytest.raises(CapacityExceeded, match="network instead"):
            weak_product([u] * 4, transition_cap=10)


class TestAssociate:
    def test_rebracketing_keeps_the_flat_automaton(self):
        factors = [examples.user_role(), examples.server_role(), examples.timer_role()]
        prod, index = weak_product(factors)
        regrouped, idx2 = associate(prod, index, [[0, 1], [2]])
        assert regrouped is prod
        assert idx2.factor_count == 2
        assert idx2.state_slices == ((0, 2), (2, 1))

    def test_differently_built_groupings_flatten_identically(self):
        u, s, t = examples.user_role(), examples.server_role(), examples.timer_role()
        left, _ = weak_product([weak_product([u, s])[0], t])
        right, _ = weak_product([u, weak_product([s, t])[0]])
        flat, _ = weak_product([u, s, t])
        for other in (left, right):
            assert automata_equal(flat, other, up_to_reachability=False).equal

    def test_permutations_are_rejected(self):
        prod, index = weak_product([examples.user_role(), examples.server_role()])
        with pytest.raises(WiringError):
            index.regroup([[1], [0]])


class TestLazyProduct:
    def test_lazy_outgoing_matches_eager_transitions(self):
        factors = [examples.user_role(), examples.server_role()]
        eager, _ = weak_product(factors)
        lazy = LazyProduct(factors)
        assert lazy.initial == eager.initial
        for state in sorted(eager.states):
            eager_out = frozenset(t for t in eager.transitions if t.source == state)
            assert frozenset(lazy.outgoing(state)) == eager_out

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
        assert index.state_of(vec, 0) == ("crit",)
        assert index.state_of(vec, 1) == ("wait",)


class TestRandomProducts:
    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_products_of_random_machines_are_valid(self, s1, s2):
        prod, _ = weak_product([random_nfioa(s1), random_nfioa(s2, name="other")])
        assert validate(prod) == []

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_reachable_product_states_project_to_reachable_factor_states(self, seed):
        a, b = random_nfioa(seed), random_nfioa(seed + 1000, name="b")
        prod, index = weak_product([a, b])
        ra, rb = reachable_states(a), reachable_states(b)
        for s in reachable_states(prod):
            assert index.state_of(s, 0) in ra
            assert index.state_of(s, 1) in rb

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_every_product_move_changes_at_most_one_factor(self, seed):
        """Each product transition is one factor's move verbatim.

        At most one factor changes state or speaks; a factor's self-loop
        leaves the state vector identical, so the invariant is about the
        moving slot ranges, not about source != target.
        """

        a, b = random_nfioa(seed), random_nfioa(seed + 500, name="b")
        prod, index = weak_product([a, b])
        factor_moves = (a.transitions, b.transitions)
        for t in prod.transitions:
            movers = []
            for i in range(2):
                piece = Transition(
                    index.state_of(t.source, i),
                    index.state_of(t.target, i),
                    index.input_of(t.input, i),
                    index.output_of(t.output, i),
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
