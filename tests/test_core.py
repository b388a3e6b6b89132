"""Core machine representation: validation, classification, equality."""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from fioa import (
    Acceptance,
    ComponentAlphabet,
    EPSILON,
    InvalidAutomaton,
    Nfioa,
    Projection,
    Transition,
    WiringError,
    automata_equal,
    classify,
    identity_projection,
    project,
    prune,
    random_nfioa,
    reachable_states,
    require_valid,
    validate,
    with_initial,
)
from fioa.core import active_slot, epsilon_char, is_silent, single_char
from fioa.dsl import parse
from fioa import examples


def tiny(transitions, *, states=("p", "q"), initial="p", in_chars=("a",), out_chars=("x",)):
    return Nfioa(
        name="tiny",
        states=frozenset((s,) for s in states),
        inputs=(ComponentAlphabet("in0", in_chars),),
        outputs=(ComponentAlphabet("out0", out_chars),),
        initial=(initial,),
        acceptance=Acceptance.final([(states[-1],)]),
        transitions=transitions,
    )


class TestLabels:
    def test_epsilon_char_is_all_silent(self):
        assert epsilon_char(3) == ("", "", "")
        assert is_silent(epsilon_char(3))

    def test_single_char_activates_one_slot(self):
        vc = single_char(3, 1, "req")
        assert vc == ("", "req", "")
        assert active_slot(vc) == (1, "req")

    def test_active_slot_of_silence_is_none(self):
        assert active_slot(("", "")) is None

    def test_label_tests_agree_with_their_definitions(self):
        """`is_silent` and `active_slot` test truth; EPSILON is the only
        false string, so they must agree with comparisons against it."""
        assert EPSILON == ""
        rng = random.Random(7)
        chars = [EPSILON, "a", "req", " ", "0", "False", "\u03b5"]
        seen = Counter()
        for _ in range(2000):
            vc = tuple(
                rng.choice(chars) if rng.random() < 0.4 else EPSILON
                for _ in range(rng.randint(0, 5))
            )
            active = [(k, ch) for k, ch in enumerate(vc) if ch != EPSILON]
            assert is_silent(vc) == all(ch == EPSILON for ch in vc), vc
            assert active_slot(vc) == (active[0] if active else None), vc
            seen[min(len(active), 2), len(vc) == 0] += 1
        assert set(seen) == {(0, True), (0, False), (1, False), (2, False)}


class TestConstruction:
    def test_replacing_a_field_keeps_the_transition_set(self):
        a = examples.user_role()
        assert replace(a, name="x").transitions is a.transitions

    def test_plain_tuples_become_transitions(self):
        doc = parse(
            "automaton Blink {\n"
            "  states dark, lit;\n"
            "  initial dark;\n"
            "  outputs led: {flash};\n"
            "  accept final {dark};\n"
            "  trans dark -> lit on - / led.flash;\n"
            "  trans lit -> dark on - / -;\n"
            "}\n"
        )
        (a,) = doc.automata
        assert len(a.transitions) == 2
        assert all(type(t) is Transition for t in a.transitions)
        b = tiny(frozenset({(("p",), ("q",), ("a",), ("",))}))
        assert [type(t) for t in b.transitions] == [Transition]


class TestValidate:
    def test_valid_machine_has_no_diagnostics(self):
        a = tiny([Transition(("p",), ("q",), ("a",), ("",))])
        assert validate(a) == []
        assert require_valid(a) is a

    def test_unknown_character_is_reported(self):
        a = tiny([Transition(("p",), ("q",), ("b",), ("",))])
        diags = validate(a)
        assert any("'b'" in d for d in diags)

    def test_two_active_slots_are_rejected(self):
        a = Nfioa(
            name="wide",
            states=[("p",)],
            inputs=(ComponentAlphabet("i0", ("a",)), ComponentAlphabet("i1", ("b",))),
            outputs=(),
            initial=("p",),
            acceptance=Acceptance.final([("p",)]),
            transitions=[Transition(("p",), ("p",), ("a", "b"), ())],
        )
        assert any("more than one component" in d for d in validate(a))

    def test_dangling_transition_endpoint_is_reported(self):
        a = tiny([Transition(("p",), ("zz",), ("a",), ("",))])
        assert any("not a state" in d for d in validate(a))

    def test_initial_outside_states_is_reported(self):
        a = tiny([], initial="zz", states=("p", "q"))
        assert any("initial state" in d for d in validate(a))

    def test_acceptance_must_mention_real_states(self):
        a = Nfioa(
            name="acc",
            states=[("p",)],
            inputs=(),
            outputs=(),
            initial=("p",),
            acceptance=Acceptance.muller([[("zz",)]]),
            transitions=[],
        )
        assert any("muller member" in d for d in validate(a))

    def test_require_valid_raises_with_diagnostics(self):
        a = tiny([Transition(("p",), ("zz",), ("a",), ("",))])
        with pytest.raises(InvalidAutomaton):
            require_valid(a)

    def test_shared_bad_labels_are_reported_once_per_transition(self):
        ins = (ComponentAlphabet("i0", ("a",)), ComponentAlphabet("i1", ("b",)))
        outs = (ComponentAlphabet("o0", ("x",)),)
        states = [(f"s{i}",) for i in range(40)]
        bad = [("a", "b"), ("c", ""), ("", "a"), ("a",), ("a", "b", "")]
        transitions = [
            Transition(s, t, bad[i % len(bad)], ("y",) if i % 3 else ("",))
            for i, (s, t) in enumerate(zip(states, states[1:] + [("zz",)]))
        ]
        a = Nfioa("shared", states, ins, outs, states[0], Acceptance.final([]), transitions)
        diags = validate(a)
        assert diags == _transition_diagnostics(a)
        assert diags.count("input label ('a', 'b') activates more than one component") == 8
        assert diags.count("output character 'y' not in component 'o0'") == 26

    def test_mixed_width_states_are_reported(self):
        a = Nfioa(
            name="widths",
            states=[("p",), ("p", "q")],
            inputs=(),
            outputs=(),
            initial=("p",),
            acceptance=Acceptance.final([("p",)]),
            transitions=[],
        )
        assert any("width" in d for d in validate(a))


def _transition_diagnostics(a):
    """Per-transition reference: every label checked anew on each transition."""
    out = []
    for t in a.transitions:
        if t.source not in a.states:
            out.append(f"transition source {t.source!r} not a state")
        if t.target not in a.states:
            out.append(f"transition target {t.target!r} not a state")
        for side, vc, comps in (("input", t.input, a.inputs), ("output", t.output, a.outputs)):
            if len(vc) != len(comps):
                out.append(f"{side} label {vc!r} has width {len(vc)}, expected {len(comps)}")
                continue
            active = [(k, ch) for k, ch in enumerate(vc) if ch != EPSILON]
            if len(active) > 1:
                out.append(f"{side} label {vc!r} activates more than one component")
            for k, ch in active:
                if ch not in comps[k].characters:
                    out.append(f"{side} character {ch!r} not in component {comps[k].name!r}")
    return out


class TestClassify:
    def test_deterministic_machine(self):
        det = examples.det_admin_role()
        c = classify(det)
        assert c.is_deterministic and c.is_function and not c.has_spontaneous

    def test_spontaneous_machine_is_not_deterministic(self):
        c = classify(examples.user_role())
        assert c.has_spontaneous and not c.is_deterministic

    def test_same_state_same_input_twice_is_not_a_function(self):
        a = tiny(
            [
                Transition(("p",), ("q",), ("a",), ("",)),
                Transition(("p",), ("p",), ("a",), ("x",)),
            ]
        )
        c = classify(a)
        assert not c.is_function and not c.is_deterministic


class TestReachabilityAndPrune:
    def test_unreachable_state_is_pruned(self):
        a = Nfioa(
            name="island",
            states=[("p",), ("q",), ("island",)],
            inputs=(),
            outputs=(),
            initial=("p",),
            acceptance=Acceptance.muller([[("p",), ("q",)], [("island",)]]),
            transitions=[
                Transition(("p",), ("q",), (), ()),
                Transition(("q",), ("p",), (), ()),
                Transition(("island",), ("island",), (), ()),
            ],
        )
        assert reachable_states(a) == frozenset({("p",), ("q",)})
        p = prune(a)
        assert p.states == frozenset({("p",), ("q",)})
        assert p.acceptance.muller_sets == frozenset({frozenset({("p",), ("q",)})})

    def test_prune_is_idempotent(self):
        a = examples.user_role()
        assert prune(prune(a)) == prune(a)


class TestEquality:
    def test_names_do_not_matter(self):
        a = examples.user_role()
        b = Nfioa(
            name="Renamed",
            states=a.states,
            inputs=tuple(ComponentAlphabet("other", c.characters) for c in a.inputs),
            outputs=tuple(ComponentAlphabet("other", c.characters) for c in a.outputs),
            initial=a.initial,
            acceptance=a.acceptance,
            transitions=a.transitions,
        )
        assert automata_equal(a, b).equal

    def test_alphabet_difference_is_detected(self):
        a = tiny([])
        b = tiny([], in_chars=("a", "extra"))
        rep = automata_equal(a, b)
        assert not rep.equal and "alphabets differ" in rep.reason

    def test_transition_difference_names_an_example(self):
        a = tiny([Transition(("p",), ("q",), ("a",), ("",))])
        b = tiny([])
        rep = automata_equal(a, b, up_to_reachability=False)
        assert not rep.equal and "transition sets differ" in rep.reason

    def test_reachability_insensitive_mode(self):
        extra = examples.user_role()
        island = Nfioa(
            name="big",
            states=extra.states | {("island",)},
            inputs=extra.inputs,
            outputs=extra.outputs,
            initial=extra.initial,
            acceptance=extra.acceptance,
            transitions=extra.transitions,
        )
        assert automata_equal(extra, island).equal
        assert not automata_equal(extra, island, up_to_reachability=False).equal


class TestWithInitial:
    def test_restart_preserves_everything_else(self):
        a = examples.user_role()
        b = with_initial(a, ("crit",))
        assert b.initial == ("crit",) and b.transitions == a.transitions

    def test_unknown_initial_is_rejected(self):
        with pytest.raises(WiringError):
            with_initial(examples.user_role(), ("nope",))


class TestProjection:
    def test_identity_projection_changes_nothing(self):
        a = examples.server_role()
        assert automata_equal(project(a, identity_projection(a)), a).equal

    def test_erasing_characters_silences_transitions(self):
        a = examples.user_role()
        p = Projection(
            state_maps=({},),
            input_maps=({"cf_req": EPSILON, "cf_fin": EPSILON},),
            output_maps=({"req": EPSILON, "fin": EPSILON},),
        )
        image = project(a, p)
        assert all(is_silent(t.input) and is_silent(t.output) for t in image.transitions)
        assert image.inputs[0].characters == frozenset()

    def test_state_collapse_merges_states(self):
        a = examples.user_role()
        p = Projection(
            state_maps=({"try": "busy", "crit": "busy", "exit": "busy"},),
            input_maps=({},),
            output_maps=({},),
        )
        image = project(a, p)
        assert image.states == frozenset({("remn",), ("busy",)})

    def test_projection_must_be_idempotent(self):
        with pytest.raises(WiringError):
            Projection(state_maps=({"a": "b", "b": "c"},), input_maps=(), output_maps=())

    def test_projection_may_not_erase_states(self):
        with pytest.raises(WiringError):
            Projection(state_maps=({"a": EPSILON},), input_maps=(), output_maps=())

    def test_width_mismatch_is_rejected(self):
        a = examples.user_role()
        with pytest.raises(WiringError):
            project(a, Projection(state_maps=({}, {}), input_maps=({},), output_maps=({},)))


class TestRandomMachines:
    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_random_nfioa_is_always_valid(self, seed):
        a = random_nfioa(seed)
        assert validate(a) == []

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_random_nfioa_is_reproducible(self, seed):
        assert automata_equal(
            random_nfioa(seed), random_nfioa(seed), up_to_reachability=False
        ).equal
