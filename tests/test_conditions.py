"""Condition-based restriction: label patterns, vetoes, scope guards,
quasi-determinism, and the coordinated token administrator."""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest

import oracle
from fioa import (
    Acceptance,
    Condition,
    EPSILON,
    IoPattern,
    Projection,
    Scope,
    Transition,
    WiringError,
    cbr,
    classify,
    cond,
    cond_strict,
    examples,
    is_consistent,
    is_consistent_cond,
    is_quasi_deterministic,
    is_unaffected,
    project,
    random_nfioa,
    reachable_states,
    weak_product,
)
from fioa.conditions import veto
from fioa.core import is_silent


@pytest.fixture(scope="module")
def admin(admin_env):
    return admin_env.networks["administrator"].automaton


@pytest.fixture(scope="module")
def raw_admin_product():
    prod, _ = weak_product([examples.server_role(), examples.ring_role()])
    return prod


def server_factor_projection():
    """Keep the granter slot of the two-wide administrator state."""
    ring_states = {s[0]: "_" for s in examples.ring_role().states}
    return Projection(
        state_maps=({}, ring_states),
        input_maps=({}, {"token": EPSILON}, {"timeout": EPSILON}),
        output_maps=({}, {"trigger": EPSILON}, {"token": EPSILON}),
    )


class TestIoPattern:
    def test_any_matches_everything(self):
        p = IoPattern.any()
        assert p.matches(("", "")) and p.matches(("req", ""))

    def test_silent_matches_only_all_empty(self):
        p = IoPattern.silent()
        assert p.matches(("", ""))
        assert not p.matches(("req", ""))

    def test_literal_pins_component_and_character(self):
        p = IoPattern.literal(1, "req")
        assert p.matches(("", "req"))
        assert not p.matches(("req", ""))
        assert not p.matches(("", "fin"))

    def test_active_requires_any_character_at_component(self):
        p = IoPattern.active(0)
        assert p.matches(("req", ""))
        assert p.matches(("fin", ""))
        assert not p.matches(("", "req"))

    def test_literal_needs_component_and_character(self):
        with pytest.raises(WiringError):
            IoPattern("literal", component=0)
        with pytest.raises(WiringError):
            IoPattern("active")
        with pytest.raises(WiringError):
            IoPattern("telepathic")


class TestConditionMatching:
    T = Transition(("remn", "abst"), ("try", "abst"), ("", "", ""), ("req", "", ""))

    def test_wildcards_match_any_state_value(self):
        c = Condition("veto", ("*", "abst"), ("try", "*"))
        assert c.matches(self.T)

    def test_literal_state_mismatch_blocks(self):
        c = Condition("veto", ("crit", "*"), ("*", "*"))
        assert not c.matches(self.T)

    def test_width_mismatch_never_matches(self):
        c = Condition("veto", ("*",), ("*",))
        assert not c.matches(self.T)

    def test_label_patterns_participate(self):
        wants_silent_out = Condition(
            "veto", ("*", "*"), ("*", "*"), output=IoPattern.silent()
        )
        assert not wants_silent_out.matches(self.T)
        wants_req = Condition(
            "veto", ("*", "*"), ("*", "*"), output=IoPattern.literal(0, "req")
        )
        assert wants_req.matches(self.T)

    def test_unscoped_condition_requires_some_activity(self):
        idle = Transition(("remn", "abst"), ("remn", "abst"), ("", "", ""), ("", "", ""))
        c = Condition("veto", ("*", "*"), ("*", "*"))
        assert not c.matches(idle)

    def test_scope_guard_ignores_foreign_activity(self):
        # only the second slot moves; a condition scoped to the first
        # slot must not fire, an unscoped one does
        t = Transition(("remn", "abst"), ("remn", "avlb"), ("", "", ""), ("", "", ""))
        unscoped = Condition("veto", ("remn", "*"), ("remn", "*"))
        scoped = Condition(
            "veto",
            ("remn", "*"),
            ("remn", "*"),
            scope=Scope((0,), (0,), (0,)),
        )
        assert unscoped.matches(t)
        assert not scoped.matches(t)


def _matches_by_definition(c: Condition, t: Transition) -> bool:
    """A condition read straight off its definition, slot by slot."""

    def states(pattern, vector):
        return len(pattern) == len(vector) and all(
            p == "*" or p == v for p, v in zip(pattern, vector)
        )

    def label(p, vc):
        if p.kind == "any":
            return True
        if p.kind == "silent":
            return all(ch == EPSILON for ch in vc)
        if p.component >= len(vc):
            return False
        if p.kind == "literal":
            return vc[p.component] == p.character
        return vc[p.component] != EPSILON  # active

    def active():
        if c.scope is None:
            scope = (range(len(t.source)), range(len(t.input)), range(len(t.output)))
        else:
            scope = c.scope
        return (
            any(t.source[i] != t.target[i] for i in scope[0])
            or any(t.input[i] != EPSILON for i in scope[1])
            or any(t.output[i] != EPSILON for i in scope[2])
        )

    return (
        states(c.source, t.source)
        and states(c.target, t.target)
        and label(c.input, t.input)
        and label(c.output, t.output)
        and active()
    )


def _random_label(rng, width, active_share):
    vc = [EPSILON] * width
    if rng.random() < active_share:
        vc[rng.randrange(width)] = rng.choice("xy")
    return tuple(vc)


def _random_world(rng):
    """`oracle.draw_conditions` and transitions over small alphabets: states
    from "abc", so conditions often share a bucket; a fifth of the moves a
    slot wider; about a third silent self-loops or other inactive moves."""
    width = rng.randint(2, 3)
    n_in, n_out = rng.randint(1, 3), rng.randint(1, 3)
    conditions = oracle.draw_conditions(rng, ["abc"] * width, n_in, n_out, "xy")
    transitions = []
    for _ in range(60):
        w = width + (rng.random() < 0.2)
        source = tuple(rng.choice("abc") for _ in range(w))
        if rng.random() < 0.3:  # no activity: a silent self-loop
            transitions.append(
                Transition(source, source, (EPSILON,) * n_in, (EPSILON,) * n_out)
            )
            continue
        target = list(source)
        for i in rng.sample(range(w), rng.randint(0, 2)):
            target[i] = rng.choice("abc")
        transitions.append(
            Transition(
                source, tuple(target), _random_label(rng, n_in, 0.5), _random_label(rng, n_out, 0.5)
            )
        )
    return conditions, transitions


class TestVeto:
    def test_veto_and_matches_agree_with_the_definition(self):
        seen = Counter()
        for seed in range(150):
            rng = random.Random(seed)
            conditions, transitions = _random_world(rng)
            deny = veto(conditions)
            for t in transitions:
                expected = [_matches_by_definition(c, t) for c in conditions]
                assert [c.matches(t) for c in conditions] == expected, (seed, t)
                assert deny(t) == any(expected), (seed, t)
                seen["denied" if any(expected) else "kept"] += 1
                for c, hit in zip(conditions, expected):
                    if len(c.source) != len(t.source):
                        seen["width mismatch"] += 1
                    elif len(c.target) != len(t.target):
                        seen["target width mismatch"] += 1
                    if hit:
                        seen["unscoped hit" if c.scope is None else "scoped hit"] += 1
                        if all(p == "*" for p in c.source):
                            seen["all-wildcard source hit"] += 1
                        if any(
                            p != "*" and s != q for p, s, q in zip(c.target, t.source, t.target)
                        ):
                            seen["hit moving a pinned target slot"] += 1
                    elif _matches_by_definition(
                        Condition(c.name, c.source, c.target, c.input, c.output), t
                    ) and c.scope is not None:
                        seen["stopped by the scope guard"] += 1
                if t.source == t.target and is_silent(t.input) and is_silent(t.output):
                    seen["inactive move"] += 1
            pinned = [
                (len(c.source), i, v)
                for c in conditions
                for i, v in enumerate(c.source)
                if v != "*"
            ]
            if len(pinned) > len(set(pinned)):
                seen["shared pins"] += 1
        assert min(seen.values()) >= 20, seen
        assert len(seen) == 11, seen

    def test_an_empty_condition_set_denies_nothing(self):
        assert not veto(())(TestConditionMatching.T)

    def test_compiled_fields_stay_out_of_equality_and_repr(self):
        a = Condition("veto", ("remn", "*"), ("try", "*"))
        b = Condition("veto", ["remn", "*"], ["try", "*"], IoPattern.any(), IoPattern.any())
        assert a == b and hash(a) == hash(b)
        assert repr(a) == (
            "Condition(name='veto', source=('remn', '*'), target=('try', '*'), "
            "input=IoPattern(kind='any', component=None, character=None), "
            "output=IoPattern(kind='any', component=None, character=None), scope=None)"
        )


class TestCompiledConditions:
    """Conditions compiled onto the move table veto exactly the moves
    `veto` vetoes (see the `compiled_agrees` fixture)."""

    def test_every_corpus_network(self, compiled_agrees):
        seen = Counter()
        for name in examples.names():
            for built in examples.build(name).networks.values():
                c = built.compiled
                seen += compiled_agrees(c.factors, c.channels, c.conditions, eager_cap=50_000)
                seen["networks"] += 1
        assert seen["networks"] == 14 and seen["eager checked"] == 12, seen
        assert min(seen["guarded moves"], seen["guard vetoes"]) > 0, seen

    def test_multi_slot_factors(self, ring2_env, compiled_agrees):
        """Pins on the two slots of a nested administrator, moving or not."""
        c = ring2_env.networks["ring2"].compiled
        # The flat state: a1 (server, ring cell), a2 (server, ring cell), t1, t2, u1, u2.
        assert [f.state_width for f in c.factors] == [2, 2, 1, 1, 1, 1]

        def pattern(**pins):
            slots = {"a1": 0, "c1": 1, "a2": 2, "c2": 3, "u1": 6, "u2": 7}
            flat = ["*"] * 8
            for name, value in pins.items():
                flat[slots[name]] = value
            return tuple(flat)

        conditions = (
            Condition("u1_waits_without_a2", pattern(c2="abst", u1="try"), pattern(c2="abst", u1="crit")),
            Condition(
                "u2_waits_while_a1_asks",
                pattern(a1="try", c1="abst", u2="try"),
                pattern(a1="try", c1="abst", u2="crit"),
            ),
            Condition("a1_keeps_the_token_in_remn", pattern(a1="remn", c1="avlb"), pattern(c1="interm")),
        )
        # The eager product (56,320 transitions) is left to the random
        # networks' multi-slot factors, which are smaller.
        seen = compiled_agrees(c.factors, c.channels, conditions, eager_cap=0)
        assert min(seen["guarded moves"], seen["guard vetoes"], seen["moves left out"]) > 0, seen


class TestCondOperator:
    def test_states_and_interface_are_kept(self):
        user = examples.user_role()
        vetoed = cond(user, [Condition("no_requests", ("remn",), ("try",))])
        assert vetoed.states == user.states
        assert vetoed.inputs == user.inputs
        assert vetoed.acceptance == user.acceptance
        assert len(vetoed.transitions) == 3

    def test_strict_variant_prunes_disconnected_states(self):
        user = examples.user_role()
        vetoed = cond_strict(user, [Condition("no_requests", ("remn",), ("try",))])
        assert vetoed.states == frozenset({("remn",)})
        assert vetoed.transitions == frozenset()

    def test_unreachable_sources_are_dropped_even_unmatched(self):
        user = examples.user_role()
        strict = cond(user, [Condition("no_entry", ("try",), ("crit",))])
        # crit/exit become unreachable but their outgoing moves had
        # reachable sources at restriction time, so they stay
        assert len(strict.transitions) == 3
        again = cond(strict, [])
        # re-restricting re-evaluates reachability over the survivors
        assert len(again.transitions) == 1

    def test_conditions_join_a_channel_restriction(self, mutex_env):
        r = mutex_env.networks["closed_mutex"].restricted
        stop_fin = Condition("hold", ("crit", "*"), ("exit", "*"))
        truncated = cond(r, [stop_fin])
        assert len(truncated.graph.configs) == 5
        assert truncated.graph.edge_count == 4
        assert truncated.conditions[-1] is stop_fin


class TestAdministrator:
    def test_uncoordinated_product_shape(self, raw_admin_product):
        assert len(raw_admin_product.states) == 12
        assert len(raw_admin_product.transitions) == 24

    def test_coordination_removes_four_moves(self, admin, raw_admin_product):
        assert len(admin.transitions) == 20
        assert admin.states == raw_admin_product.states

    def test_token_possession_governs_service(self, admin):
        reach = reachable_states(admin)
        assert len(reach) == 11
        assert ("crit", "abst") not in reach
        assert reach == frozenset(examples.ADMIN_LIVE_STATES)

    def test_coordinated_administrator_is_quasi_deterministic(self, admin):
        verdict = is_quasi_deterministic(admin)
        assert verdict.ok and verdict.witness is None

    def test_uncoordinated_product_is_not_quasi_deterministic(self, raw_admin_product):
        verdict = is_quasi_deterministic(raw_admin_product)
        assert not verdict.ok
        _state, label, clashing = verdict.witness
        assert is_silent(label)
        assert len(clashing) >= 2

    def test_every_live_state_reaches_the_live_cycle(self, admin):
        verdict = is_consistent_cond(admin)
        assert verdict.ok
        assert {a for a in verdict.anchors} == frozenset(examples.ADMIN_LIVE_STATES)

    def test_administrator_is_not_fully_deterministic(self, admin):
        # spontaneous moves remain; quasi-determinism is the weaker notion
        c = classify(admin)
        assert c.has_spontaneous and not c.is_deterministic


class TestUnaffectedness:
    def test_token_rules_leave_the_granter_image_alone(self, admin_env, raw_admin_product):
        conditions = admin_env.networks["administrator"].compiled.conditions
        assert is_unaffected(raw_admin_product, conditions, server_factor_projection())

    def test_gagging_the_granter_is_visible_in_its_image(self, raw_admin_product):
        gag = Condition("no_service", ("remn", "*"), ("try", "*"))
        assert not is_unaffected(raw_admin_product, [gag], server_factor_projection())


class TestConsistencyOverPlainGraphs:
    def test_dead_end_is_reported(self):
        user = examples.user_role()
        vetoed = cond(user, [Condition("no_exit", ("crit",), ("exit",))])
        verdict = is_consistent_cond(vetoed)
        assert not verdict.ok
        # No run can visit all four states any more, so nothing anchors and
        # every state is stuck; the nearest one is the initial state.
        assert verdict.anchors == frozenset()
        assert verdict.witness == ("remn",)

    def test_untouched_cycle_is_consistent(self):
        verdict = is_consistent_cond(examples.user_role())
        assert verdict.ok
        assert len(verdict.anchors) == 4


class TestPlainChecksWalkLikeTheirConfigurationGraph:
    """On an automaton without channels, `is_quasi_deterministic` and
    `is_consistent_cond` answer as the same checks over its one-factor
    configuration graph `cbr(a)` do, each configuration read as its state:
    the same verdict, the same nearest witness, the same anchors."""

    def _cases(self):
        rng = random.Random(1010)
        for seed in range(300):
            a = random_nfioa(
                rng.randrange(10**9),
                n_states=rng.randint(2, 6),
                n_transitions=rng.randint(2, 14),
            )
            states = sorted(a.states)
            if seed % 2:
                members = [
                    rng.sample(states, rng.randint(1, len(states))) for _ in range(rng.randint(1, 2))
                ]
                a = replace(a, acceptance=Acceptance.muller(members))
            yield a
            pin = lambda: rng.choice(states)[0] if rng.random() < 0.6 else "*"
            silent = rng.random() < 0.5
            veto_one = Condition("v", (pin(),), (pin(),), IoPattern.silent() if silent else None)
            yield cond(a, [veto_one])
        for name in sorted(examples.names()):
            for built in examples.build(name).networks.values():
                if built.restricted is None:
                    yield built.automaton

    def test_verdicts_match_the_configuration_graph(self):
        seen = Counter()
        for a in self._cases():
            graph = cbr(a)
            qd, graph_qd = is_quasi_deterministic(a), is_quasi_deterministic(graph)
            if graph_qd.witness is not None:
                where, label, moves = graph_qd.witness
                graph_qd = graph_qd._replace(witness=(where.state, label, moves))
            assert qd == graph_qd, a.name
            cons, graph_cons = is_consistent_cond(a), is_consistent(graph)
            assert cons.ok == graph_cons.ok, a.name
            assert cons.witness == (graph_cons.witness and graph_cons.witness.state), a.name
            assert cons.anchors == frozenset(c.state for c in graph_cons.anchors), a.name
            seen[a.acceptance.mode, qd.ok, cons.ok] += 1
        # Both acceptance modes, and failing as well as passing verdicts.
        assert {mode for mode, _, _ in seen} == {"final", "muller"}
        assert {qd_ok for _, qd_ok, _ in seen} == {True, False}
        assert {cons_ok for _, _, cons_ok in seen} == {True, False}
