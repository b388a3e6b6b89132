"""Channel-based restriction: configuration graphs, the nine-way edge
taxonomy, well-formedness, consistency, protocols, and schedulers."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from fioa import (
    Acceptance,
    Channel,
    Configuration,
    EdgeClass,
    Nfioa,
    PreconditionError,
    Run,
    SchedulerError,
    Transition,
    WiringError,
    cbr,
    classify_config,
    edge_census,
    enabled,
    examples,
    flatten,
    is_consistent,
    is_protocol,
    is_well_formed,
    open_components,
    run,
)
from fioa.analysis import law_instance
from fioa.channels import ALL_EDGE_CLASSES, _sccs, check_channels
from fioa.core import ComponentAlphabet, active_slot


@pytest.fixture(scope="module")
def mutex(mutex_env):
    return mutex_env.networks["closed_mutex"].restricted


@pytest.fixture(scope="module")
def broken(broken_mutex_env):
    return broken_mutex_env.networks["closed_mutex"].restricted


REQUEST_CHANNEL = Channel(0, 1)  # client output -> granter input
CONFIRM_CHANNEL = Channel(1, 0)  # granter output -> client input


class TestHandshakeCycle:
    def test_graph_size_is_frozen(self, mutex):
        assert len(mutex.graph.configs) == 8
        assert mutex.graph.edge_count == 8

    def test_graph_is_a_single_cycle(self, mutex):
        cfg = mutex.graph.initial
        seen = []
        for _ in range(8):
            (edge,) = mutex.graph.edges[cfg]
            seen.append(cfg)
            cfg = edge.target
        assert cfg == mutex.graph.initial
        assert len(set(seen)) == 8

    def test_relaxed_and_excited_configs_alternate(self, mutex):
        cfg = mutex.graph.initial
        for i in range(8):
            expected = "relaxed" if i % 2 == 0 else "excited"
            assert classify_config(mutex, cfg) == expected
            (edge,) = enabled(mutex, cfg)
            cfg = edge.target

    def test_census_splits_between_send_and_consume(self, mutex):
        assert edge_census(mutex) == {
            EdgeClass("relaxed", "silent-in", "channel-out"): 4,
            EdgeClass("excited", "consume", "silent-out"): 4,
        }

    def test_first_excitation_carries_the_request(self, mutex):
        (edge,) = mutex.graph.edges[mutex.graph.initial]
        assert edge.target == Configuration(
            ("try", "remn"), (REQUEST_CHANNEL, "req")
        )

    def test_closed_handshake_is_well_formed_consistent_protocol(self, mutex):
        assert is_well_formed(mutex).ok
        verdict = is_consistent(mutex)
        assert verdict.ok
        assert verdict.anchors == mutex.graph.configs  # the whole cycle anchors
        assert is_protocol(mutex)

    def test_surviving_transitions_are_half_the_product(self, mutex):
        assert len(flatten(mutex).transitions) == 8


class TestEdgeTaxonomy:
    def test_taxonomy_has_nine_rows(self):
        assert len(ALL_EDGE_CLASSES) == 9
        assert len(set(ALL_EDGE_CLASSES)) == 9
        modes = {e.mode for e in ALL_EDGE_CLASSES}
        assert modes == {"relaxed", "excited"}

    def test_census_only_uses_known_rows(self, all_restrictions):
        for built in all_restrictions:
            for row in edge_census(built.restricted):
                assert row in ALL_EDGE_CLASSES

    def test_relaxed_moves_never_read_a_wired_input(self, all_restrictions):
        for built in all_restrictions:
            r = built.restricted
            wired_in = {ch.in_component for ch in r.channels}
            for cfg in r.graph.nodes():
                if cfg.excited:
                    continue
                for edge in r.graph.edges[cfg]:
                    slot = active_slot(edge.transition.input)
                    if slot is not None:
                        assert slot[0] not in wired_in

    def test_excited_moves_consume_exactly_the_pending_character(self, all_restrictions):
        for built in all_restrictions:
            r = built.restricted
            for cfg in r.graph.nodes():
                if not cfg.excited:
                    continue
                chan, char = cfg.pending
                for edge in r.graph.edges[cfg]:
                    assert edge.transition.input[chan.in_component] == char

    def test_channel_outputs_excite_the_receiver(self, all_restrictions):
        for built in all_restrictions:
            r = built.restricted
            by_out = {ch.out_component: ch for ch in r.channels}
            for cfg in r.graph.nodes():
                for edge in r.graph.edges[cfg]:
                    slot = active_slot(edge.transition.output)
                    if slot is not None and slot[0] in by_out:
                        assert edge.target.pending == (by_out[slot[0]], slot[1])
                    else:
                        assert edge.target.pending is None


class TestWellFormedness:
    def test_deaf_granter_strands_the_request(self, broken):
        verdict = is_well_formed(broken)
        assert not verdict.ok
        assert verdict.witness == Configuration(
            ("try", "remn"), (REQUEST_CHANNEL, "req")
        )
        assert broken.graph.edges[verdict.witness] == ()

    def test_consistency_refuses_ill_formed_graphs(self, broken):
        with pytest.raises(PreconditionError):
            is_consistent(broken)

    def test_running_an_ill_formed_graph_is_refused(self, broken):
        with pytest.raises(PreconditionError):
            run(broken, "random")


class TestConsistency:
    def test_unanchored_acceptance_is_inconsistent(self, mutex):
        rewired = Nfioa(
            name="pin",
            states=flatten(mutex).states,
            inputs=flatten(mutex).inputs,
            outputs=flatten(mutex).outputs,
            initial=flatten(mutex).initial,
            acceptance=Acceptance.muller([[("remn", "remn")]]),
            transitions=flatten(mutex).transitions,
        )
        verdict = is_consistent(cbr(rewired, mutex.channels))
        assert not verdict.ok
        assert verdict.anchors == frozenset()
        assert verdict.witness is not None

    def test_self_loop_counts_as_an_anchor(self):
        a = Nfioa(
            name="looper",
            states=[("on",), ("off",)],
            inputs=(),
            outputs=(),
            initial=("on",),
            acceptance=Acceptance.muller([[("on",)]]),
            transitions=[
                Transition(("on",), ("on",), (), ()),
                Transition(("on",), ("off",), (), ()),
            ],
        )
        r = cbr(a)
        verdict = is_consistent(r)
        assert not verdict.ok  # the (off) config cannot return
        assert verdict.witness.state == ("off",)
        assert {c.state for c in verdict.anchors} == {("on",)}


class TestChannelValidation:
    def test_out_of_range_indices_are_diagnosed(self, mutex):
        base = flatten(mutex)
        diags = check_channels(base.inputs, base.outputs, [Channel(9, 0)])
        assert any("out of range" in d for d in diags)

    def test_unreadable_sender_characters_are_diagnosed(self):
        user = examples.user_role()
        timer = examples.timer_role()
        from fioa import weak_product

        prod, _ = weak_product([user, timer])
        # user output svc -> timer input trig: wrong alphabet entirely
        with pytest.raises(WiringError, match="not readable"):
            cbr(prod, [Channel(0, 1)])

    def test_channel_fan_in_and_fan_out_are_rejected(self, mutex):
        base = flatten(mutex)
        diags = check_channels(
            base.inputs, base.outputs, [Channel(0, 0), Channel(0, 1)]
        )
        assert "two channels share an output component" in diags
        diags = check_channels(
            base.inputs, base.outputs, [Channel(0, 1), Channel(1, 1)]
        )
        assert "two channels share an input component" in diags


class TestOpenness:
    def test_fully_wired_network_has_no_open_components(self, mutex):
        assert open_components(mutex) == ((), ())

    def test_unrestricted_machine_is_fully_open(self):
        r = cbr(examples.user_role())
        assert open_components(r) == ((0,), (0,))
        assert not is_protocol(r)

    def test_half_wired_network_reports_the_gap(self, mutex):
        base = flatten(mutex)
        r = cbr(base, [REQUEST_CHANNEL])
        assert open_components(r) == ((0,), (1,))


class TestSchedulers:
    def test_random_runs_are_seed_reproducible(self, mutex):
        r1 = run(mutex, "random", 20, seed=7)
        r2 = run(mutex, "random", 20, seed=7)
        assert r1 == r2
        assert len(r1) == 20  # the cycle never deadlocks

    def test_scripted_run_follows_explicit_choices(self, mutex):
        r = run(mutex, "scripted", 8, script=[0] * 8)
        assert isinstance(r, Run)
        assert len(r) == 8
        assert r.configs[0] == r.configs[-1] == mutex.graph.initial

    def test_scripted_run_rejects_out_of_range_choice(self, mutex):
        with pytest.raises(SchedulerError, match="out of range"):
            run(mutex, "scripted", 8, script=[0, 3])

    def test_scripted_run_requires_a_script(self, mutex):
        with pytest.raises(SchedulerError):
            run(mutex, "scripted", 8)

    def test_unknown_scheduler_is_rejected(self, mutex):
        with pytest.raises(SchedulerError):
            run(mutex, "roulette")

    def test_exhaustive_enumeration_of_a_cycle_is_one_run(self, mutex):
        runs = run(mutex, "exhaustive", 5)
        assert isinstance(runs, tuple)
        assert len(runs) == 1
        assert len(runs[0]) == 5

    def test_exhaustive_runs_stop_at_deadlocks(self):
        user = examples.user_role()
        one_shot = Nfioa(
            name="oneshot",
            states=user.states,
            inputs=user.inputs,
            outputs=user.outputs,
            initial=user.initial,
            acceptance=user.acceptance,
            transitions=[t for t in user.transitions if t.source == ("remn",)],
        )
        runs = run(cbr(one_shot), "exhaustive", 10)
        assert len(runs) == 1
        assert len(runs[0]) == 1  # one send, then stuck


class TestReRestriction:
    def test_restricting_the_survivors_changes_nothing(self, mutex):
        again = cbr(flatten(mutex), mutex.channels)
        assert again.graph.edges == mutex.graph.edges

    @given(st.integers(min_value=0, max_value=150))
    @settings(max_examples=40, deadline=None)
    def test_surviving_transitions_are_a_fixpoint(self, seed):
        a, c1, c2 = law_instance("cbr-commute", seed)
        r = cbr(a, (c1, c2))
        again = cbr(flatten(r), (c1, c2))
        assert again.graph.edges == r.graph.edges
        assert flatten(again).transitions == flatten(r).transitions

    @given(st.integers(min_value=0, max_value=150))
    @settings(max_examples=40, deadline=None)
    def test_staged_wiring_equals_simultaneous_wiring(self, seed):
        a, c1, c2 = law_instance("cbr-commute", seed)
        staged = cbr(cbr(a, (c1,)), (c2,))
        at_once = cbr(a, (c1, c2))
        assert staged.graph.edges == at_once.graph.edges
        assert staged.channels == at_once.channels


def test_static_reflatten_reading_would_break_commutation():
    """Staging must union the wired channels, not restart from the survivors.

    Restricting on one channel, flattening to a plain automaton (thereby
    forgetting the wiring), and then restricting on the second channel is a
    genuinely different operation: the intermediate flatten launders states
    that were only ever reachable mid-handshake back into relaxed ones, so
    spontaneous moves from them survive that the one-pass restriction kills.
    """

    a = Nfioa(
        name="fork",
        states=[("p",), ("s",), ("t",), ("u",), ("v",)],
        inputs=(ComponentAlphabet("xr", ("x",)), ComponentAlphabet("yr", ("y",))),
        outputs=(ComponentAlphabet("xs", ("x",)), ComponentAlphabet("ys", ("y",))),
        initial=("p",),
        acceptance=Acceptance.final([("t",), ("u",), ("v",)]),
        transitions=[
            Transition(("p",), ("s",), ("", ""), ("x", "")),
            Transition(("p",), ("s",), ("", ""), ("", "y")),
            Transition(("s",), ("u",), ("x", ""), ("", "")),
            Transition(("s",), ("v",), ("", "y"), ("", "")),
            Transition(("s",), ("t",), ("", ""), ("", "")),
        ],
    )
    c1, c2 = Channel(0, 0), Channel(1, 1)
    spontaneous = Transition(("s",), ("t",), ("", ""), ("", ""))

    # One-pass: state s is only ever entered excited (both routes into it
    # send on a wired channel), so its spontaneous exit never fires.
    one_pass = cbr(a, (c1, c2))
    assert spontaneous not in flatten(one_pass).transitions
    assert len(flatten(one_pass).transitions) == 4

    # The implemented staging unions the channels and agrees exactly.
    staged = cbr(cbr(a, (c1,)), (c2,))
    assert staged.graph.edges == one_pass.graph.edges

    # The static reading (flatten in between, restrict on c2 alone) keeps
    # the spontaneous move: after flattening, the y-send into s looks like
    # an open output under {c1}, so s appears relaxed-reachable, and the
    # second stage no longer knows c1 ever existed.
    static = cbr(flatten(cbr(a, (c1,))), (c2,))
    assert spontaneous in flatten(static).transitions
    assert flatten(static).transitions != flatten(one_pass).transitions


def _sccs_by_reachability(nodes, adj):
    """Components as classes of mutual reachability, by brute force."""
    reach = {}
    for n in nodes:
        seen, todo = {n}, [n]
        while todo:
            for m in adj[todo.pop()]:
                if m not in seen:
                    seen.add(m)
                    todo.append(m)
        reach[n] = seen
    return {frozenset(m for m in reach[n] if n in reach[m]) for n in nodes}


class TestSccs:
    def test_tarjan_matches_mutual_reachability(self):
        for seed in range(500):
            rng = random.Random(seed)
            n = rng.randint(0, 12)
            density = rng.choice([0.0, 0.05, 0.15, 0.3, 0.6])
            adj = {i: [j for j in range(n) if rng.random() < density] for i in range(n)}
            nodes = list(range(n))
            rng.shuffle(nodes)
            found = _sccs(nodes, adj)
            assert sum(map(len, found)) == n, seed  # a partition of the nodes
            assert {frozenset(c) for c in found} == _sccs_by_reachability(nodes, adj), seed

    def test_empty_graph_has_no_components(self):
        assert _sccs([], {}) == []

    def test_isolated_nodes_and_self_loops_are_singletons(self):
        adj = {"a": [], "b": ["b"], "c": ["a"]}
        assert sorted(map(sorted, _sccs(["a", "b", "c"], adj))) == [["a"], ["b"], ["c"]]

    def test_long_cycle_does_not_recurse(self):
        n = 100_000
        adj = {i: [(i + 1) % n] for i in range(n)}
        (only,) = _sccs(range(n), adj)
        assert len(only) == n
