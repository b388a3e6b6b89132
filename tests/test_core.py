"""Core machine representation: validation, classification, equality."""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import fioa.core
from fioa import (
    Acceptance,
    ComponentAlphabet,
    EPSILON,
    InvalidAutomaton,
    LazyProduct,
    Nfioa,
    Projection,
    Transition,
    WiringError,
    automata_equal,
    classify,
    is_consistent_cond,
    is_quasi_deterministic,
    project,
    prune,
    random_nfioa,
    reachable_states,
    require_valid,
    specifies,
    system_from_dfioa,
    validate,
    weak_product,
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


def _unchecked(build, *args, **kwargs):
    """`build(*args, **kwargs)` with construction's validation switched off,
    so the automaton it returns may be invalid: `validate` diagnoses it,
    and `replace(it)` hands its fields to the constructor unchanged."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fioa.core, "validate", lambda a: [])
        return build(*args, **kwargs)


def _refusal(build, *args, **kwargs) -> list[str]:
    """The diagnostics `build(*args, **kwargs)` is refused with."""
    with pytest.raises(InvalidAutomaton) as info:
        build(*args, **kwargs)
    return info.value.diagnostics


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

    def test_an_invalid_automaton_cannot_be_built(self):
        fields = dict(
            name="broken",
            states=[("p",), ("p", "q")],
            inputs=(ComponentAlphabet("in0", ("a",)),),
            outputs=(),
            initial=("zz",),
            acceptance=Acceptance.final([("yy",)]),
            transitions=[(("p",), ("zz",), ("b",), ())],
        )
        diags = _refusal(Nfioa, **fields)
        assert diags == validate(_unchecked(Nfioa, **fields))
        assert len(diags) == 5 and diags[0] == "initial state ('zz',) not in state set"

    def test_replace_cannot_make_an_automaton_invalid(self):
        a = examples.user_role()
        diags = _refusal(replace, a, initial=("nowhere",))
        assert diags == validate(_unchecked(replace, a, initial=("nowhere",)))
        assert diags == ["initial state ('nowhere',) not in state set"]

    def test_queries_do_not_validate_again(self, monkeypatch):
        det, user = examples.det_admin_role(), examples.user_role()
        calls = []
        monkeypatch.setattr(fioa.core, "validate", lambda a: calls.append(a.name) or [])
        classify(user)
        is_consistent_cond(user)
        is_quasi_deterministic(user)
        s = system_from_dfioa(det)
        specifies(det, [next(iter(s.table.values()))])
        LazyProduct([det, user])
        assert calls == []


class TestValidate:
    def test_valid_machine_has_no_diagnostics(self):
        a = tiny([Transition(("p",), ("q",), ("a",), ("",))])
        assert validate(a) == []
        assert require_valid(a) is a

    def test_unknown_character_is_reported(self):
        diags = _refusal(tiny, [Transition(("p",), ("q",), ("b",), ("",))])
        assert any("'b'" in d for d in diags)

    def test_two_active_slots_are_rejected(self):
        diags = _refusal(
            Nfioa,
            name="wide",
            states=[("p",)],
            inputs=(ComponentAlphabet("i0", ("a",)), ComponentAlphabet("i1", ("b",))),
            outputs=(),
            initial=("p",),
            acceptance=Acceptance.final([("p",)]),
            transitions=[Transition(("p",), ("p",), ("a", "b"), ())],
        )
        assert any("more than one component" in d for d in diags)

    def test_dangling_transition_endpoint_is_reported(self):
        diags = _refusal(tiny, [Transition(("p",), ("zz",), ("a",), ("",))])
        assert any("not a state" in d for d in diags)

    def test_initial_outside_states_is_reported(self):
        diags = _refusal(tiny, [], initial="zz", states=("p", "q"))
        assert any("initial state" in d for d in diags)

    def test_acceptance_must_mention_real_states(self):
        diags = _refusal(
            Nfioa,
            name="acc",
            states=[("p",)],
            inputs=(),
            outputs=(),
            initial=("p",),
            acceptance=Acceptance.muller([[("zz",)]]),
            transitions=[],
        )
        assert any("muller member" in d for d in diags)

    def test_empty_state_set_is_the_only_diagnostic(self):
        dangling = [Transition(("p",), ("q",), (), ())]
        fields = ("none", [], (), (), ("p",), Acceptance.final([("q",)]), dangling)
        assert _refusal(Nfioa, *fields) == ["state set is empty"]

    def test_empty_string_character_is_reported(self):
        assert _refusal(tiny, [], in_chars=("a", ""), out_chars=("",)) == [
            "input component 'in0' declares the empty string as a character",
            "output component 'out0' declares the empty string as a character",
        ]

    @pytest.mark.parametrize(
        "mode, finals, members, diagnostic",
        [
            ("final", [("q",)], [[("q",)]], "final-mode acceptance carries muller sets"),
            ("muller", [("q",)], [[("q",)]], "muller-mode acceptance carries final states"),
            ("buchi", [], [], "unknown acceptance mode 'buchi'"),
        ],
    )
    def test_acceptance_fields_must_fit_the_mode(self, mode, finals, members, diagnostic):
        acceptance = Acceptance(mode, frozenset(finals), frozenset(map(frozenset, members)))
        assert _refusal(replace, tiny([]), acceptance=acceptance) == [diagnostic]

    def test_require_valid_raises_with_diagnostics(self):
        bad = [Transition(("p",), ("zz",), ("a",), ("",))]
        diags = _refusal(tiny, bad)
        assert diags == _refusal(require_valid, _unchecked(tiny, bad)) == [
            "transition target ('zz',) not a state"
        ]

    def test_shared_bad_labels_are_reported_once_per_transition(self):
        ins = (ComponentAlphabet("i0", ("a",)), ComponentAlphabet("i1", ("b",)))
        outs = (ComponentAlphabet("o0", ("x",)),)
        states = [(f"s{i}",) for i in range(40)]
        bad = [("a", "b"), ("c", ""), ("", "a"), ("a",), ("a", "b", "")]
        transitions = [
            Transition(s, t, bad[i % len(bad)], ("y",) if i % 3 else ("",))
            for i, (s, t) in enumerate(zip(states, states[1:] + [("zz",)]))
        ]
        fields = ("shared", states, ins, outs, states[0], Acceptance.final([]), transitions)
        diags = _refusal(Nfioa, *fields)
        assert diags == _transition_diagnostics(_unchecked(Nfioa, *fields))
        assert diags.count("input label ('a', 'b') activates more than one component") == 8
        assert diags.count("output character 'y' not in component 'o0'") == 26

    def test_mixed_width_states_are_reported(self):
        diags = _refusal(
            Nfioa,
            name="widths",
            states=[("p",), ("p", "q")],
            inputs=(),
            outputs=(),
            initial=("p",),
            acceptance=Acceptance.final([("p",)]),
            transitions=[],
        )
        assert any("width" in d for d in diags)

    def test_faulty_states_are_listed_in_sorted_order(self):
        """The order is the automaton's own, whatever order its sets were
        built in or the hash seed gave them."""
        wide = [(f"s{i}", "x") for i in range(10)]
        missing = [(f"f{i}",) for i in range(8)]

        def build(states, finals):
            return Nfioa("faulty", states, (), (), ("p",), Acceptance.final(finals), [])

        want = [f"state {s!r} has width 2, expected 1" for s in sorted(wide, key=repr)]
        want += [f"final state {s!r} not a state" for s in sorted(missing, key=repr)]
        assert _refusal(build, [("p",)] + wide, missing) == want
        assert _refusal(build, wide[::-1] + [("p",)], missing[::-1]) == want


def _transition_diagnostics(a):
    """Per-transition reference: every label checked anew on each transition,
    the transitions in `repr` order."""
    out = []
    for t in sorted(a.transitions, key=repr):
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


def _reference_validate(a):
    """The per-transition validator: states, then transitions, walked one
    by one in `repr` order whether or not anything is wrong."""
    out = []
    if not a.states:
        return ["state set is empty"]
    width = len(a.initial)
    if a.initial not in a.states:
        out.append(f"initial state {a.initial!r} not in state set")
    for s in sorted(a.states, key=repr):
        if len(s) != width:
            out.append(f"state {s!r} has width {len(s)}, expected {width}")
        if "" in s:
            out.append(f"state {s!r} contains an empty component value")
    for side, comps in (("input", a.inputs), ("output", a.outputs)):
        for comp in comps:
            if EPSILON in comp.characters:
                out.append(f"{side} component {comp.name!r} declares the empty string as a character")
    out.extend(_transition_diagnostics(a))
    acc = a.acceptance
    if acc.mode == "final":
        for s in sorted(acc.final_states, key=repr):
            if s not in a.states:
                out.append(f"final state {s!r} not a state")
        if acc.muller_sets:
            out.append("final-mode acceptance carries muller sets")
    elif acc.mode == "muller":
        for member in sorted(acc.muller_sets, key=lambda m: sorted(map(repr, m))):
            for s in sorted(member, key=repr):
                if s not in a.states:
                    out.append(f"muller member mentions non-state {s!r}")
        if acc.final_states:
            out.append("muller-mode acceptance carries final states")
    else:
        out.append(f"unknown acceptance mode {acc.mode!r}")
    return out


def _reference_classify(a):
    """`classify` by its definition, one transition at a time."""
    spontaneous = False
    pairs = set()
    functional = True
    for t in a.transitions:
        spontaneous = spontaneous or all(ch == EPSILON for ch in t.input)
        if (t.source, t.input) in pairs:
            functional = False
        pairs.add((t.source, t.input))
    return (spontaneous, functional, functional and not spontaneous)


def _inject(a, kind, rng):
    """`a` with one fault of the given kind; call it through `_unchecked`."""
    ts = sorted(a.transitions)
    t = rng.choice(ts)
    side = rng.choice(("input", "output"))
    comps = a.inputs if side == "input" else a.outputs
    label = getattr(t, side)
    if kind == "bad source":
        return replace(a, transitions=a.transitions - {t} | {t._replace(source=("zz",))})
    if kind == "bad target":
        return replace(a, transitions=a.transitions - {t} | {t._replace(target=("zz",))})
    if kind == "wrong-width label":
        return replace(a, transitions=a.transitions | {t._replace(**{side: label + ("",)})})
    if kind == "two active slots":
        both = tuple(sorted(c.characters)[0] for c in comps)
        return replace(a, transitions=a.transitions | {t._replace(**{side: both})})
    if kind == "unknown character":
        odd = single_char(len(comps), rng.randrange(len(comps)), "z")
        return replace(a, transitions=a.transitions | {t._replace(**{side: odd})})
    if kind == "empty state slot":
        return replace(a, states=a.states | {("",)})
    if kind == "wrong-width state":
        return replace(a, states=a.states | {("s0", "s9")})
    if kind == "final state outside":
        return replace(a, acceptance=Acceptance.final(a.acceptance.final_states | {("zz",)}))
    if kind == "muller member outside":
        return replace(a, acceptance=Acceptance.muller([sorted(a.states)[:2], [a.initial, ("zz",)]]))
    raise AssertionError(kind)


FAULTS = (
    "bad source",
    "bad target",
    "wrong-width label",
    "two active slots",
    "unknown character",
    "empty state slot",
    "wrong-width state",
    "final state outside",
    "muller member outside",
)


class TestValidateAndClassifyAgainstTheirDefinitions:
    """`validate` decides the all-valid case on whole sets and walks the
    transitions only to report faults; `classify` reads distinct pairs.
    Both must agree with the one-at-a-time definitions, diagnostics in
    the same order."""

    def _cases(self):
        rng = random.Random(2026)
        for seed in range(150):
            a = random_nfioa(
                rng.randrange(10**9),
                n_states=rng.randint(1, 5),
                n_inputs=rng.randint(2, 3),
                n_outputs=rng.randint(2, 3),
                n_transitions=rng.randint(1, 14),
            )
            yield (), a
            if a.transitions:
                kind = FAULTS[seed % len(FAULTS)]
                yield (kind,), _unchecked(_inject, a, kind, rng)
                first, second = rng.sample(FAULTS, 2)
                once = _unchecked(_inject, a, first, rng)
                yield (first, second), _unchecked(_inject, once, second, rng)

    def test_diagnostics_equal_the_per_transition_walk(self):
        """Every faulty case is rebuilt from its fields by `replace`, which
        must refuse it with the reference's diagnostics."""
        seen = Counter()
        for kinds, a in self._cases():
            if not kinds:
                assert validate(a) == _reference_validate(a) == [], kinds
            else:
                diags = _refusal(replace, a)
                assert diags == validate(a) == _reference_validate(a), kinds
                assert diags
            seen.update(kinds)
            seen["two faults"] += len(kinds) == 2
        assert set(FAULTS) <= set(seen)
        assert seen["two faults"] >= 100

    def test_classify_matches_its_definition(self):
        classes = Counter()
        for kinds, a in self._cases():
            if kinds:
                _refusal(replace, a)
                continue
            c = classify(a)
            assert tuple(c) == _reference_classify(a)
            classes[c] += 1
        assert {c.has_spontaneous for c in classes} == {True, False}
        assert {c.is_function for c in classes} == {True, False}
        assert any(c.is_deterministic for c in classes)

    def test_products_of_deterministic_administrators(self):
        for k in range(1, 4):
            a, _ = weak_product([examples.det_admin_role()] * k)
            assert validate(a) == _reference_validate(a) == []
            assert tuple(classify(a)) == _reference_classify(a) == (False, True, True)


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


    def test_each_remaining_difference_is_named(self):
        a = tiny([])
        muller = replace(a, acceptance=Acceptance.muller([{("q",)}]))
        cases = [
            (replace(a, inputs=(*a.inputs, ComponentAlphabet("in1", "b"))), "interface widths differ"),
            (replace(a, outputs=()), "interface widths differ"),
            (replace(a, initial=("q",)), "initial states differ: ('p',) vs ('q',)"),
            (muller, "acceptance modes differ"),
            (replace(a, acceptance=Acceptance.final([("p",)])), "final-state sets differ"),
        ]
        for b, reason in cases:
            assert automata_equal(a, b, up_to_reachability=False) == (False, reason)
        other = replace(a, acceptance=Acceptance.muller([{("p",)}, {("q",)}]))
        assert automata_equal(muller, other, up_to_reachability=False) == (False, "muller families differ")


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
        identity = Projection(
            state_maps=tuple({} for _ in range(a.state_width)),
            input_maps=tuple({} for _ in a.inputs),
            output_maps=tuple({} for _ in a.outputs),
        )
        assert automata_equal(project(a, identity), a).equal

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

    def test_interface_width_mismatch_is_rejected(self):
        a = examples.user_role()
        with pytest.raises(WiringError, match="^projection interface widths do not match the automaton$"):
            project(a, Projection(state_maps=({},), input_maps=(), output_maps=({},)))
        with pytest.raises(WiringError, match="^projection interface widths do not match the automaton$"):
            project(a, Projection(state_maps=({},), input_maps=({},), output_maps=({}, {})))

    def test_the_silent_character_is_not_a_key(self):
        with pytest.raises(WiringError, match="^projection maps the silent character$"):
            Projection(state_maps=({},), input_maps=({EPSILON: "a"},), output_maps=({},))

    def test_final_states_are_projected(self):
        a = replace(tiny([]), acceptance=Acceptance.final([("p",), ("q",)]))
        p = Projection(state_maps=({"q": "p"},), input_maps=({},), output_maps=({},))
        image = project(a, p)
        assert image.states == frozenset({("p",)})
        assert image.acceptance == Acceptance.final([("p",)])


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
