"""DOT export: deterministic, well-shaped graph text."""
from __future__ import annotations

import re

import pytest

import oracle
from fioa import Acceptance, Nfioa, examples, export_dot, weak_product


@pytest.fixture(scope="module")
def mutex(mutex_env):
    return mutex_env.networks["closed_mutex"].restricted


class TestAutomatonExport:
    def test_single_state_machine(self):
        a = examples.idle_user_role()
        dot = export_dot(a)
        assert dot.startswith('digraph "IdleUser" {')
        assert dot.endswith("}\n")
        assert 'n0 [label="idle", penwidth=2]' in dot

    def test_product_export_has_all_sixteen_nodes(self):
        prod, _ = weak_product([examples.user_role(), examples.server_role()])
        dot = export_dot(prod)
        assert len(re.findall(r"^  n\d+ \[", dot, re.M)) == 16
        assert len(re.findall(r"^  n\d+ -> n\d+ ", dot, re.M)) == 32

    def test_edge_labels_show_component_and_character(self):
        dot = export_dot(examples.user_role())
        assert '[label="- / svc.req"]' in dot
        assert '[label="svc.cf_req / -"]' in dot

    def test_final_states_get_double_borders(self):
        a = Nfioa(
            name="goal",
            states=[("go",), ("done",)],
            inputs=(),
            outputs=(),
            initial=("go",),
            acceptance=Acceptance.final([("done",)]),
            transitions=[],
        )
        dot = export_dot(a)
        assert "peripheries=2" in dot

    def test_quotes_and_backslashes_are_escaped(self):
        a = Nfioa(
            name='odd"name\\',
            states=[("s",)],
            inputs=(),
            outputs=(),
            initial=("s",),
            acceptance=Acceptance.final([("s",)]),
            transitions=[],
        )
        dot = export_dot(a)
        assert 'digraph "odd\\"name\\\\" {' in dot


class TestConfigGraphExport:
    def test_handshake_cycle_has_eight_nodes_and_edges(self, mutex):
        dot = export_dot(mutex)
        assert len(re.findall(r"^  c\d+ \[", dot, re.M)) == 8
        assert len(re.findall(r"^  c\d+ -> c\d+ ", dot, re.M)) == 8

    def test_excited_configurations_are_marked(self, mutex):
        dot = export_dot(mutex)
        assert dot.count("style=dashed") == 4
        assert "!req@u.svc>c.svc" in dot  # pending request, named by its channel

    def test_initial_configuration_is_bold(self, mutex):
        dot = export_dot(mutex)
        assert len(re.findall(r"penwidth=2", dot)) == 1


class TestAgainstTheOracle:
    def test_every_differential_graph_exports_as_the_oracle_writes_it(self, differential, unwired):
        for r, naive in differential + unwired:
            assert export_dot(r) == oracle.dot(naive, r.name, r.inputs, r.outputs), r.name


class TestDeterminism:
    def test_exports_are_byte_identical_across_runs(self, mutex):
        assert export_dot(mutex) == export_dot(mutex)
        a = examples.user_role()
        assert export_dot(a) == export_dot(a)

    def test_export_of_a_rebuilt_network_is_identical(self, mutex):
        rebuilt = examples.build("mutex").networks["closed_mutex"].restricted
        assert export_dot(rebuilt) == export_dot(mutex)
