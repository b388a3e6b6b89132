"""Clocked execution of deterministic machines."""
from __future__ import annotations

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
