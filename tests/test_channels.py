"""Channel-based restriction: configuration graphs, the nine-way edge
taxonomy, well-formedness, consistency, protocols, and schedulers."""
from __future__ import annotations

import pickle
import random
import re
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from functools import partial

import pytest

import fioa.channels
import fioa.core
import oracle

from fioa import (
    Acceptance,
    CapacityExceeded,
    Channel,
    ComponentAlphabet,
    Configuration,
    EdgeClass,
    InvalidAutomaton,
    LazyProduct,
    Nfioa,
    PreconditionError,
    RestrictedAutomaton,
    Run,
    SchedulerError,
    Transition,
    WiringError,
    cbr,
    config_str,
    edge_census,
    enabled,
    examples,
    export_dot,
    flatten,
    is_consistent,
    is_consistent_cond,
    is_protocol,
    is_quasi_deterministic,
    is_well_formed,
    open_components,
    resolve,
    run,
    safety_query,
    trace_equivalent,
    trace_language,
    weak_product,
)
from fioa.analysis import law_instance
from fioa.channels import ALL_EDGE_CLASSES, FlatRecipe, _sccs, check_channels
from fioa.conditions import Condition
from fioa.core import active_slot


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
            assert cfg.excited == (i % 2 == 1)
            (edge,) = enabled(mutex, cfg)
            cfg = edge.target

    @pytest.mark.parametrize("query", [enabled])
    def test_a_foreign_configuration_is_refused(self, mutex, query):
        with pytest.raises(WiringError):
            query(mutex, Configuration(("nowhere", "nowhere"), None))

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
            for cfg in r.graph.edges:
                if cfg.excited:
                    continue
                for edge in r.graph.edges[cfg]:
                    slot = active_slot(edge.transition.input)
                    if slot is not None:
                        assert slot[0] not in wired_in

    def test_excited_moves_consume_exactly_the_pending_character(self, all_restrictions):
        for built in all_restrictions:
            r = built.restricted
            for cfg in r.graph.edges:
                if not cfg.excited:
                    continue
                chan, char = cfg.pending
                for edge in r.graph.edges[cfg]:
                    assert edge.transition.input[chan.in_component] == char

    def test_channel_outputs_excite_the_receiver(self, all_restrictions):
        for built in all_restrictions:
            r = built.restricted
            by_out = {ch.out_component: ch for ch in r.channels}
            for cfg in r.graph.edges:
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
        with pytest.raises(PreconditionError) as caught:
            is_consistent(broken)
        assert str(caught.value) == (
            "closed_mutex is not well-formed: excited configuration "
            "try|remn !req@u.svc>c.svc cannot consume its pending character"
        )

    def test_running_an_ill_formed_graph_is_refused(self, broken):
        with pytest.raises(PreconditionError) as caught:
            run(broken, "random")
        assert str(caught.value) == (
            "cannot run closed_mutex: excited configuration try|remn !req@u.svc>c.svc is stuck"
        )


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
        assert diags == ["channel 9>0: output component 9 out of range (2 outputs)"]
        diags = check_channels(base.inputs, base.outputs, [Channel(0, 9)])
        assert diags == ["channel 0>9: input component 9 out of range (2 inputs)"]
        diags = check_channels(base.inputs[:1], base.outputs, [Channel(7, 8)])
        assert diags == [
            "channel 7>8: output component 7 out of range (2 outputs)",
            "channel 7>8: input component 8 out of range (1 input)",
        ]

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
        with pytest.raises(SchedulerError) as caught:
            run(mutex, "scripted", 8, script=[0, 3])
        assert type(caught.value) is SchedulerError
        assert str(caught.value) == (
            "step 1: choice 3 out of range (1 enabled at try|remn !req@u.svc>c.svc)"
        )

    def test_scripted_run_requires_a_script(self, mutex):
        with pytest.raises(SchedulerError):
            run(mutex, "scripted", 8)

    def test_exhaustive_runs_stop_at_the_run_cap(self, mutex, monkeypatch):
        monkeypatch.setattr(fioa.channels, "RUN_CAP", 0)
        with pytest.raises(CapacityExceeded, match="more than 0 runs at bound 5"):
            run(mutex, "exhaustive", 5)

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

    def test_surviving_transitions_are_a_fixpoint(self):
        for seed in range(40):
            a, c1, c2 = law_instance("cbr-commute", seed)
            r = cbr(a, (c1, c2))
            again = cbr(flatten(r), (c1, c2))
            assert again.graph.edges == r.graph.edges, seed
            assert flatten(again).transitions == flatten(r).transitions, seed

    def test_staged_wiring_equals_simultaneous_wiring(self):
        for seed in range(40):
            a, c1, c2 = law_instance("cbr-commute", seed)
            staged = cbr(cbr(a, (c1,)), (c2,))
            at_once = cbr(a, (c1, c2))
            assert staged.graph.edges == at_once.graph.edges, seed
            assert staged.channels == at_once.channels, seed


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
            assert {frozenset(c) for c in found} == oracle.sccs(nodes, adj), seed

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


class TestReceiverIndexedExploration:
    """Lazy, eager and naive exploration agree exactly: node insertion
    order and every node's edge tuple."""

    def test_three_explorers_build_the_same_graph(self, differential, generated):
        for r, naive in differential:
            assert r.graph.initial == naive.initial, r.name
            assert list(r.graph.edges.items()) == list(naive.edges.items()), r.name
        excited = vetoed = merged_loops = 0
        for case, built in generated:
            c = built.compiled
            excited += sum(1 for cfg in case.naive.edges if cfg.excited)
            if c.conditions:
                vetoed += built.restricted.graph.edge_count < cbr(LazyProduct(c.factors), c.channels).graph.edge_count
            merged_loops += sum(any(t.source == t.target and not any(t.input + t.output) for t in f.transitions)
                                for f in c.factors) > 1
        assert excited > 0 and vetoed > 0 and merged_loops > 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rings_build_the_naive_graph(self, n):
        compiled = resolve(examples.ring_document(n)).networks[f"ring{n}"].compiled
        factors, chans, conds = compiled.factors, compiled.channels, compiled.conditions
        graph = cbr(LazyProduct(factors), chans, conditions=conds).graph
        naive = oracle.explore(factors, chans, conds)
        assert graph.initial == naive.initial
        assert list(graph.edges.items()) == list(naive.edges.items())

    def test_excited_successors_are_the_relaxed_moves_filtered_by_the_slot(self, ring2_env, listed):
        built = ring2_env.networks["ring2"]
        chans = built.restricted.channels
        lazy = LazyProduct(built.compiled.factors)
        free, wired = lazy.table(()), lazy.table(chans)
        product_moves: dict = {}
        for t in weak_product(built.compiled.factors)[0].transitions:
            product_moves.setdefault(t.source, []).append(t)
        fed = {ch.in_component for ch in chans}
        sent = {ch.out_component: ch for ch in chans}

        def left_pending(t):
            oa = active_slot(t.output)
            return (sent[oa[0]], oa[1]) if oa is not None and oa[0] in sent else None

        pending = 0
        for cfg in built.restricted.graph.edges:
            every = [t for t, _, _ in listed(lazy, free, cfg.state, None)]
            assert every == sorted(set(every))
            assert every == sorted(product_moves.get(cfg.state, ()))
            assert all(after is None for _, after, _ in listed(lazy, free, cfg.state, None))
            relaxed = listed(lazy, wired, cfg.state, None)
            assert [t for t, _, _ in relaxed] == [
                t for t in every
                if active_slot(t.input) is None or active_slot(t.input)[0] not in fed
            ]
            moves = list(relaxed)
            for chan in chans:
                for char in sorted(lazy.inputs[chan.in_component].characters):
                    consumed = listed(lazy, wired, cfg.state, (chan, char))
                    assert [t for t, _, _ in consumed] == [
                        t for t in every if active_slot(t.input) == (chan.in_component, char)
                    ]
                    moves += consumed
            assert all(after == left_pending(t) for t, after, _ in moves)
            # each move's shift lands on its target configuration's key
            assert all(key == listed.key_of(lazy, wired, t.target, after) for t, after, key in moves)
            if cfg.pending is not None:
                pending += bool(listed(lazy, wired, cfg.state, cfg.pending))
        assert pending == 122  # every excited configuration of ring2 can consume


class TestCompiledConditions:
    """Conditions compiled onto the move table veto exactly the moves
    `Condition.matches` vetoes, wired and channel-free."""

    def test_random_networks(self, generated, compiled_agrees):
        seen = Counter()
        for case, built in generated[:40]:
            c = built.compiled
            factors, rng = c.factors, random.Random(case.seed)
            if case.seed % 2:
                # A multi-slot factor, appended so that every channel keeps
                # its components.
                pair = [oracle.machine(rng, f"g{j}", factors[0].acceptance.mode) for j in range(2)]
                factors = [*factors, weak_product(pair, name="g")[0]]
                seen["multi-slot"] += 1
            values = [sorted({s[i] for s in f.states}) for f in factors for i in range(f.state_width)]
            n_in, n_out = sum(len(f.inputs) for f in factors), sum(len(f.outputs) for f in factors)
            chars = sorted({ch for f in factors for comp in (*f.inputs, *f.outputs) for ch in comp.characters})
            conds = (*c.conditions, *oracle.draw_conditions(rng, values, n_in, n_out, chars))
            seen += compiled_agrees(factors, c.channels, conds)
            seen += compiled_agrees(factors, (), conds)
        assert seen["multi-slot"] == 20 and seen["eager checked"] == 80, seen
        assert min(seen["guarded moves"], seen["guard vetoes"], seen["moves left out"]) >= 20, seen


def test_every_transition_shares_its_target_nodes_state(differential):
    # Every corpus automaton and network restricted by no channels, so the
    # one-factor `automaton_table` path is checked too.
    plain = [
        cbr(a) for name in sorted(examples.names()) for a in examples.build(name).automata.values()
    ]
    for r in [*(r for r, _ in differential), *plain]:
        g = r.graph
        for ts, js in zip(g.moves, g.succ):
            assert all(t.target is g.nodes[j].state for t, j in zip(ts, js)), r.name


class TestWitnesses:
    def test_each_failing_check_names_a_nearest_failing_configuration(self, differential):
        # The oracle's: the first failing one breadth first.  Consistency's is checked below.
        failed = Counter()
        for r, naive in differential:
            want = oracle.well_formed(naive)
            assert is_well_formed(r) == want, r.name
            failed["wellformed"] += not want[0]
            want = oracle.quasi_determinism(naive)
            assert is_quasi_deterministic(r) == want, r.name
            failed["quasidet"] += not want[0]
        assert failed["wellformed"] and failed["quasidet"], failed


class TestNodeNumbers:
    """`ConfigGraph.nodes`, `moves` and `succ` agree with the `edges` view,
    and every walk that follows them answers as a naive walk over `edges`."""

    def test_numbers_are_the_breadth_first_positions(self, differential, all_restrictions):
        for r, _ in differential:
            g = r.graph
            assert list(g.nodes) == list(g.edges), r.name
            assert g.nodes[0] is g.initial
            assert len(g.succ) == len(g.nodes)
            for i, c in enumerate(g.nodes):
                es = g.edges[c]
                assert len(g.succ[i]) == len(es)
                for k, e in enumerate(es):
                    assert g.nodes[g.succ[i][k]] is e.target, (r.name, i, k)
                    assert g.moves[i][k] is e.transition, (r.name, i, k)
        # A re-restriction rebuilds an equal graph, so equal pairs occur.
        graphs = [b.restricted.graph for b in all_restrictions]
        graphs += [cbr(b.restricted).graph for b in all_restrictions]
        verdicts = Counter()
        for g1 in graphs:
            for g2 in graphs:
                assert (g1 == g2) == (g1.edges == g2.edges)
                verdicts[g1 == g2] += 1
        assert verdicts[True] and verdicts[False]

    def test_move_ids_stay_out_of_equality_and_survive_pickling(self):
        r = examples.build("ring2").networks["ring2"].restricted
        # Re-explored, the flat automaton's table numbers each flat transition as a move.
        again = cbr(r)
        assert again.graph == r.graph and repr(again.graph) == repr(r.graph)
        assert again.graph.move_ids != r.graph.move_ids
        for s in (r, again, cbr(examples.user_role())):
            copy = pickle.loads(pickle.dumps(s))
            assert copy.graph.move_ids == s.graph.move_ids
            assert edge_census(copy) == edge_census(s) and export_dot(copy) == export_dot(s)

    @staticmethod
    def _ask_everything(r):
        assert is_well_formed(r).ok
        is_consistent(r)
        assert is_protocol(r) and open_components(r) == ((), ())
        is_quasi_deterministic(r)
        assert sum(edge_census(r).values()) == r.graph.edge_count
        assert not safety_query(r, lambda c: c.excited).ok
        assert safety_query(r, lambda c: False).ok
        assert trace_language(r, 3)
        assert trace_equivalent(r, r).equal
        run(r, "random", 20, seed=1)
        run(r, "scripted", 3, script=[0, 0, 0])
        run(r, "exhaustive", 4)
        export_dot(r)

    def test_no_analysis_builds_the_edges_view(self):
        r = examples.build("ring2").networks["ring2"].restricted
        self._ask_everything(r)
        again = cbr(r)
        assert again.graph == r.graph
        assert "edges" not in r.graph.__dict__
        assert "edges" not in again.graph.__dict__

    def test_no_query_builds_the_flat_automaton(self, monkeypatch):
        r = examples.build("ring2").networks["ring2"].restricted
        self._ask_everything(r)
        assert all(map(partial(config_str, r), r.graph.nodes))
        assert not r.graph.initial.excited and enabled(r, r.graph.initial)
        assert isinstance(vars(r)["base"], FlatRecipe)
        # The first read builds it once, through the validating constructor.
        seen = []
        monkeypatch.setattr(fioa.core, "validate", lambda a, real=fioa.core.validate: seen.append(a) or real(a))
        base = r.base
        assert seen == [base] and r.base is base and vars(r)["base"] is base
        assert (base.inputs, base.outputs, base.acceptance) == (r.inputs, r.outputs, r.acceptance)

    def test_safety_query_against_a_walk_over_the_mapping(self, differential):
        found = Counter()
        for r, naive in differential:
            g = r.graph
            rng = random.Random(r.name)
            target = rng.choice(list(g.edges))
            for bad in (
                lambda c: False,
                lambda c: c.excited,
                lambda c: c == target,
                lambda c: c.state == g.nodes[-1].state,
            ):
                want = oracle.safety(naive, bad)
                assert safety_query(r, bad) == want, r.name
                found[bool(want[2])] += 1
        assert found[True] and found[False]

    def test_consistency_against_a_walk_over_the_mapping(self, differential):
        verdicts = Counter()
        for r, naive in differential:
            if not is_well_formed(r).ok:
                continue
            want = oracle.consistency(naive)
            assert is_consistent(r) == want, r.name
            verdicts[want[0], bool(want[2])] += 1
        assert len(verdicts) >= 3, verdicts

    def test_runs_against_a_walk_over_the_mapping(self, differential):
        lengths = Counter()
        for r, naive in differential:
            if not is_well_formed(r).ok:
                continue
            g = r.graph
            bound = 2_000 if r.name == "ring3" else 30
            for seed in (0, 1, 2):
                got = run(r, "random", bound, seed=seed)
                assert (got.configs, got.transitions) == oracle.run(naive, bound, random.Random(seed).choice), r.name
                lengths[len(got) == bound] += 1
                lengths["ring3"] += len(got) == 2_000
            rng, script = random.Random(r.name), []

            def pick(es):
                script.append(rng.randrange(len(es)))
                return es[script[-1]]

            want = oracle.run(naive, 30, pick)
            got = run(r, "scripted", 30, script=script)
            assert (got.configs, got.transitions) == want, r.name
            at = got.configs[-1]
            if g.edges[at]:
                over = len(g.edges[at])
                with pytest.raises(SchedulerError) as info:
                    run(r, "scripted", 31, script=script + [over])
                assert str(info.value) == (
                    f"step {len(script)}: choice {over} out of range "
                    f"({over} enabled at {config_str(r, at)})"
                )
            runs = run(r, "exhaustive", 3)
            assert tuple((x.configs, x.transitions) for x in runs) == oracle.runs(naive, 3), r.name
            lengths["branching"] += len(runs) > 1
        assert lengths[True] and lengths[False] and lengths["branching"]
        assert lengths["ring3"] == 3

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17])
    def test_random_runs_draw_as_randrange(self, n):
        """n self-loops on one state: each step takes move `randrange(n)` of
        the seeded generator, drawn in sequence, at every bit length of n."""
        chars = "abcdefghijklmnopq"[:n]
        a = Nfioa(
            name="loops",
            states=[("s",)],
            inputs=(ComponentAlphabet("in", chars),),
            outputs=(),
            initial=("s",),
            acceptance=Acceptance.final([("s",)]),
            transitions=[Transition(("s",), ("s",), (c,), ()) for c in chars],
        )
        moves = cbr(a).graph.moves[0]
        assert len(moves) == n
        for seed in range(10):
            rng = random.Random(seed)
            got = run(cbr(a), "random", 50, seed=seed)
            assert [moves.index(t) for t in got.transitions] == [rng.randrange(n) for _ in range(50)]


class TestCaps:
    def test_cap_error_says_how_far_exploration_got(self, ring3_env):
        built = ring3_env.networks["ring3"]
        compiled = built.compiled
        with pytest.raises(CapacityExceeded) as info:
            cbr(LazyProduct(compiled.factors), compiled.channels,
                conditions=compiled.conditions, cap=100)
        msg = str(info.value)
        assert msg.startswith("configuration cap of 100 exceeded")
        assert "restrict the network further (from Python, cbr also takes a larger cap=)" in msg
        current, expanded, waiting = map(
            int, re.search(r"expanding configuration (\d+) \((\d+) expanded, (\d+) waiting\)", msg).groups()
        )
        # Replay the full graph's breadth-first order up to the 101st node:
        # the one being expanded is neither expanded nor waiting.
        graph = built.restricted.graph
        seen = {graph.initial}
        for done, cfg in enumerate(graph.edges):
            seen.update(e.target for e in graph.edges[cfg])
            if len(seen) > 100:
                break
        assert (current, expanded, waiting) == (done + 1, done, 101 - done - 1)


class TestPlainRestrictionIsKept:
    """`cbr(a)` of a plain automaton, with no channels, conditions, name or
    cap, is explored once and kept on `a`; every other call explores."""

    @staticmethod
    def _loop() -> Nfioa:
        """Sends `a` and then `b` to itself when wired by `Channel(0, 0)`."""
        T = lambda s, t, i="", o="": Transition((s,), (t,), (i,), (o,))
        transitions = {T("p0", "p1", o="a"), T("p1", "p2", i="a"), T("p2", "p3", o="b"), T("p3", "p0", i="b")}
        states = sorted({t.source for t in transitions})
        return Nfioa(
            name="loop",
            states=states,
            inputs=(ComponentAlphabet("in", "ab"),),
            outputs=(ComponentAlphabet("out", "ab"),),
            initial=("p0",),
            acceptance=Acceptance.final(states),
            transitions=transitions,
        )

    def test_a_second_plain_call_returns_the_kept_restriction(self):
        a = self._loop()
        before = (hash(a), repr(a), replace(a))
        r = cbr(a)
        assert cbr(a) is r and cbr(a, ()) is r
        assert (hash(a), repr(a), replace(a)) == before and a == before[2]
        # `replace` builds a new automaton, which explores afresh.
        renamed = replace(a, name="x")
        assert cbr(renamed) is not r and cbr(renamed).graph == r.graph

    def test_other_calls_explore(self):
        a = self._loop()
        r = cbr(a)
        never = Condition("never", ("nowhere",), ("*",))
        for other in (cbr(a, name="other"), cbr(a, conditions=(never,)), cbr(a, [Channel(0, 0)])):
            assert other is not r
        assert cbr(a, name="other").graph == r.graph
        assert cbr(a, [Channel(0, 0)]).graph != r.graph
        # Neither a product nor a restriction is kept.
        lazy = LazyProduct((a,))
        assert cbr(lazy) is not cbr(lazy)
        assert cbr(r) is not cbr(r)

    def test_a_smaller_cap_still_fails_after_the_plain_call(self):
        a = self._loop()
        r = cbr(a)
        with pytest.raises(CapacityExceeded, match="cap of 1 exceeded"):
            cbr(a, cap=1)
        assert cbr(a) is r

    def test_a_failed_call_keeps_nothing(self, monkeypatch):
        a = self._loop()

        def full(table, *, cap):
            raise CapacityExceeded(f"configuration cap of {cap} exceeded")

        monkeypatch.setattr(fioa.channels, "_explore", full)
        with pytest.raises(CapacityExceeded):
            cbr(a)
        monkeypatch.undo()
        assert vars(a) == vars(replace(a))
        assert cbr(a) is cbr(a)

    def test_a_pickled_copy_equals_the_automaton(self):
        a = self._loop()
        before = pickle.dumps(a)
        r = cbr(a)
        # What `cbr` keeps on `a` stays out of the pickle and the copy.
        assert pickle.dumps(a) == before
        copy = pickle.loads(before)
        assert copy == a and hash(copy) == hash(a)
        assert vars(copy) == vars(replace(a))
        assert cbr(copy).graph == cbr(replace(a)).graph == r.graph

    def test_the_plain_checks_explore_once(self, monkeypatch):
        a = replace(examples.user_role())  # a new automaton, nothing kept yet
        calls, real = [], fioa.channels._explore
        monkeypatch.setattr(fioa.channels, "_explore", lambda *x, **kw: calls.append(1) or real(*x, **kw))
        consistent, quasidet = is_consistent_cond(a), is_quasi_deterministic(a)
        assert len(calls) == 1
        monkeypatch.undo()
        fresh = replace(a)
        assert (consistent, quasidet) == (is_consistent_cond(fresh), is_quasi_deterministic(fresh))


class TestFlatAutomatonOnRead:
    """`cbr` leaves a restriction's flat automaton to a `FlatRecipe`; read,
    it is the automaton `cbr` built eagerly before."""

    def test_corpus_networks(self, all_restrictions, same_as_eager_base):
        for built in all_restrictions:
            lazy = LazyProduct(built.compiled.factors, name=built.name)
            same_as_eager_base(lazy, built.restricted, built.spec.acceptance)
            assert built.automaton is built.restricted.base

    def test_random_networks_lazy_and_eager(self, generated, same_as_eager_base):
        for case, built in generated:
            factors, chans, conds = built.compiled.factors, built.compiled.channels, built.compiled.conditions
            lazy = LazyProduct(factors, name=built.name)
            same_as_eager_base(lazy, built.restricted, case.acceptance)
            prod = weak_product(factors)[0]
            same_as_eager_base(prod, cbr(prod, chans, conditions=conds, name=f"p{case.seed}"))
            same_as_eager_base(factors[0], cbr(factors[0]))

    def test_a_given_base_is_kept_as_given(self, ring2_env):
        r = examples.build("ring2").networks["ring2"].restricted
        a = ring2_env.networks["ring2"].restricted.base
        given = RestrictedAutomaton(a, r.channels, r.graph, r.conditions, r.name)
        assert given.base is a and flatten(given) is a
        assert (given.inputs, given.outputs, given.acceptance) == (a.inputs, a.outputs, a.acceptance)
        other = replace(a, name="other")
        swapped = replace(r, base=other)
        assert swapped.base is other and flatten(swapped) is other
        assert isinstance(vars(r)["base"], FlatRecipe)
        assert flatten(r) is r.base and r.base == a and r == given
        with pytest.raises(FrozenInstanceError):
            r.base = other

    @pytest.mark.parametrize("kind", ["built", "given"])
    def test_with_acceptance_takes_a_built_or_given_base(self, kind):
        r = examples.build("mutex").networks["closed_mutex"].restricted
        a = r.base  # builds it: the stored recipe is now this automaton
        if kind == "given":
            r = RestrictedAutomaton(replace(a), r.channels, r.graph, r.conditions, r.name)
        assert isinstance(vars(r)["base"], Nfioa)
        same = r.with_acceptance(r.acceptance)
        assert same == r and same.base == a
        final = Acceptance.final([a.initial])
        moved = r.with_acceptance(final)
        assert moved.acceptance == moved.base.acceptance == final
        assert moved.base == replace(a, acceptance=final) and moved.graph is r.graph
        with pytest.raises(InvalidAutomaton, match=r"final state crit\|nowhere not a state"):
            r.with_acceptance(Acceptance.final([("crit", "nowhere")]))
