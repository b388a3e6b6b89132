"""Clocked execution of deterministic machines."""
from __future__ import annotations

import random
from dataclasses import replace

import pytest

from fioa import (
    FiniteSystem,
    InvalidAutomaton,
    PreconditionError,
    StepRejected,
    Transition,
    drive,
    examples,
    render_trace,
    specifies,
    step,
    system_from_dfioa,
    weak_product,
)
from fioa.core import epsilon_char, single_char


@pytest.fixture()
def det_admin_system():
    return system_from_dfioa(examples.det_admin_role())


# DetAdmin inputs are [svc, ring, clk]; a full duty cycle:
TOKEN_IN = single_char(3, 1, "token")
REQ_IN = single_char(3, 0, "req")
FIN_IN = single_char(3, 0, "fin")
TIMEOUT_IN = single_char(3, 2, "timeout")
DUTY_CYCLE = (TOKEN_IN, REQ_IN, FIN_IN, TIMEOUT_IN)


class TestSystemCreation:
    def test_initial_snapshot_is_at_time_zero_and_silent(self, det_admin_system):
        s = det_admin_system
        assert s.time == 0
        assert s.state == ("absent",)
        assert s.input_reg == epsilon_char(3)
        assert s.output_reg == epsilon_char(3)

    def test_spontaneous_machines_are_refused(self):
        with pytest.raises(PreconditionError, match="spontaneously"):
            system_from_dfioa(examples.user_role())

    def test_relational_machines_are_refused(self):
        base = examples.det_admin_role()
        doubled = Transition(("avail",), ("absent",), REQ_IN, epsilon_char(3))
        relational = base.__class__(
            name="twice",
            states=base.states,
            inputs=base.inputs,
            outputs=base.outputs,
            initial=base.initial,
            acceptance=base.acceptance,
            transitions=base.transitions | {doubled},
        )
        with pytest.raises(PreconditionError, match="several transitions"):
            system_from_dfioa(relational)

    def test_invalid_machines_are_refused(self):
        base = examples.det_admin_role()
        stray = Transition(("avail",), ("nowhere",), REQ_IN, epsilon_char(3))
        invalid = replace(base, transitions=base.transitions | {stray})
        with pytest.raises(InvalidAutomaton, match="not a state"):
            system_from_dfioa(invalid)


class TestStepping:
    def test_step_returns_output_and_advances_the_clock(self, det_admin_system):
        out, nxt = step(det_admin_system, TOKEN_IN)
        assert out == single_char(3, 1, "trigger")  # outputs are [svc, trig, ring]
        assert nxt.time == 1
        assert nxt.state == ("avail",)
        assert nxt.input_reg == TOKEN_IN
        assert nxt.output_reg == out

    def test_snapshots_are_immutable_so_histories_branch(self, det_admin_system):
        _, after = step(det_admin_system, TOKEN_IN)
        assert det_admin_system.time == 0
        out_a, _ = step(after, REQ_IN)
        out_b, _ = step(after, TIMEOUT_IN)
        assert out_a == single_char(3, 0, "cf_req")
        assert out_b == single_char(3, 2, "token")

    def test_successors_share_the_step_table(self, det_admin_system):
        _, after = step(det_admin_system, TOKEN_IN)
        assert after.table is det_admin_system.table
        assert "table" not in repr(after)
        rebuilt = FiniteSystem(after.automaton, after.time, after.state, after.input_reg, after.output_reg)
        assert rebuilt == after
        assert step(rebuilt, REQ_IN) == step(after, REQ_IN)

    def test_unexpected_input_is_rejected_with_position(self, det_admin_system):
        with pytest.raises(StepRejected, match="time 0"):
            step(det_admin_system, FIN_IN)


class TestDrive:
    def test_duty_cycle_returns_home(self, det_admin_system):
        trace, final = drive(det_admin_system, DUTY_CYCLE)
        assert len(trace) == 4
        assert final.time == 4
        assert final.state == ("absent",)
        assert [t.source for t in trace] == [
            ("absent",),
            ("avail",),
            ("serving",),
            ("avail",),
        ]

    def test_driven_trace_specifies_the_machine(self, det_admin_system):
        trace, _ = drive(det_admin_system, DUTY_CYCLE)
        assert specifies(examples.det_admin_role(), trace)

    def test_corrupted_trace_is_rejected(self, det_admin_system):
        trace, _ = drive(det_admin_system, DUTY_CYCLE)
        forged = (Transition(("absent",), ("serving",), TOKEN_IN, epsilon_char(3)),) + trace[1:]
        assert not specifies(examples.det_admin_role(), forged)

    def test_trace_not_from_the_start_is_rejected(self, det_admin_system):
        trace, _ = drive(det_admin_system, DUTY_CYCLE)
        assert not specifies(examples.det_admin_role(), trace[1:])

    def test_empty_trace_is_vacuously_specified(self):
        assert specifies(examples.det_admin_role(), ())

    def test_disconnected_entries_are_not_a_run(self, det_admin_system):
        # Each entry is a transition and the first starts at the initial
        # state, but the second starts at absent while the machine is at avail.
        (first,), _ = drive(det_admin_system, [TOKEN_IN])
        assert first.source == ("absent",) and first.target == ("avail",)
        assert not specifies(examples.det_admin_role(), (first, first))


def _stepwise(s, word):
    """`drive` by its definition: one `step` per input."""
    entries = []
    for vc in word:
        before = s.state
        out, s = step(s, vc)
        entries.append(Transition(before, s.state, tuple(vc), out))
    return tuple(entries), s


def _seeded_word(a, rng, length, reject_at):
    """An accepted word for deterministic `a`, walked from its initial
    state; at `reject_at` (if any) an input the machine has no move for."""
    by_source = {}
    for t in sorted(a.transitions):
        by_source.setdefault(t.source, []).append(t)
    state, word = a.initial, []
    for i in range(length):
        if i == reject_at:
            enabled = {t.input for t in by_source[state]}
            bad = next(vc for vc in sorted({t.input for t in a.transitions}) if vc not in enabled)
            word.append(list(bad) if rng.random() < 0.5 else bad)
            return word
        t = rng.choice(by_source[state])
        word.append(list(t.input) if rng.random() < 0.2 else t.input)
        state = t.target
    return word


class TestDriveAgainstRepeatedSteps:
    @pytest.mark.parametrize("k", [1, 5])
    def test_traces_snapshots_and_rejections_agree(self, k):
        a, _ = weak_product([examples.det_admin_role()] * k)
        start = system_from_dfioa(a)
        rng = random.Random(9000 + k)
        rejected = 0
        for n in range(30):
            length = rng.randint(0, 300)
            reject_at = rng.randrange(length) if length and n % 3 == 0 else None
            word = _seeded_word(a, rng, length, reject_at)
            # Some words are driven from a later snapshot than the first.
            cut = rng.randint(0, max(0, len(word) - 1)) if n % 2 else 0
            _, s0 = _stepwise(start, word[:cut])
            word = word[cut:]
            try:
                expected = _stepwise(s0, word)
            except StepRejected as exc:
                with pytest.raises(StepRejected) as got:
                    drive(s0, word)
                assert str(got.value) == str(exc)
                rejected += 1
                continue
            trace, final = drive(s0, word)
            assert trace == expected[0]
            assert all(e is start.table[e.source, e.input] for e in trace)
            assert final == expected[1]
            assert (final.time, final.input_reg, final.output_reg) == (
                expected[1].time,
                expected[1].input_reg,
                expected[1].output_reg,
            )
            assert final.table is start.table
            assert specifies(a, trace) == (not trace or s0.state == a.initial)
        assert rejected == 10


class TestRenderTrace:
    def test_rendering_with_named_components(self, det_admin_system):
        a = examples.det_admin_role()
        trace, _ = drive(det_admin_system, DUTY_CYCLE[:2])
        text = render_trace(trace, inputs=a.inputs, outputs=a.outputs)
        lines = text.splitlines()
        assert lines[0] == "0\tabsent\tring.token\ttrig.trigger\tavail"
        assert lines[1] == "1\tavail\tsvc.req\tsvc.cf_req\tserving"

    def test_rendering_without_names_uses_slot_indices(self, det_admin_system):
        trace, _ = drive(det_admin_system, DUTY_CYCLE[:1])
        assert render_trace(trace) == "0\tabsent\t1.token\t1.trigger\tavail"

    def test_silent_slots_render_as_dashes(self):
        t = Transition(("a", "b"), ("a", "c"), ("", ""), ("", ""))
        assert render_trace([t]) == "0\ta|b\t-\t-\ta|c"
