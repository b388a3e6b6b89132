"""Network specs: aliasing, wiring forms, compilation errors, and the
token-ring family built from them."""
from __future__ import annotations

import ast
import importlib.util
import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import fioa
from fioa import (
    Acceptance,
    Channel,
    ChannelSpec,
    ComponentAlphabet,
    Condition,
    ConditionSpec,
    InvalidAutomaton,
    IoPattern,
    NetFactor,
    NetworkDef,
    Nfioa,
    PatternSpec,
    Scope,
    WiringError,
    build_network,
    channel_str,
    compile_network,
    edge_census,
    examples,
    is_well_formed,
    reachable_states,
)
from fioa.channels import FlatRecipe, acceptance_anchors, is_consistent
from fioa.dsl import WorkbenchDocument, resolve
from fioa.network import BuiltNetwork
from fioa.product import LazyProduct, acceptance_within


def mutex_spec(**kwargs) -> NetworkDef:
    return NetworkDef(
        name="pair",
        factors=(
            NetFactor("u", examples.user_role()),
            NetFactor("c", examples.server_role()),
        ),
        **kwargs,
    )


class TestCompile:
    def test_aliases_become_factor_names(self):
        compiled = compile_network(mutex_spec())
        assert [f.name for f in compiled.factors] == ["u", "c"]

    def test_duplicate_alias_is_rejected(self):
        spec = NetworkDef(
            name="dup",
            factors=(
                NetFactor("u", examples.user_role()),
                NetFactor("u", examples.server_role()),
            ),
        )
        with pytest.raises(WiringError, match="used twice"):
            compile_network(spec)

    def test_unknown_factor_in_channel_is_rejected(self):
        spec = mutex_spec(channels=(ChannelSpec("ghost", "svc", "c", "svc"),))
        with pytest.raises(WiringError, match="unknown factor"):
            compile_network(spec)

    def test_unknown_component_name_is_rejected(self):
        spec = mutex_spec(channels=(ChannelSpec("u", "mail", "c", "svc"),))
        with pytest.raises(WiringError, match="no component named"):
            compile_network(spec)

    def test_component_index_out_of_range_is_rejected(self):
        spec = mutex_spec(channels=(ChannelSpec("u", 5, "c", "svc"),))
        with pytest.raises(WiringError, match="out of range"):
            compile_network(spec)

    def test_name_and_index_channel_forms_agree(self):
        by_name = compile_network(
            mutex_spec(channels=(ChannelSpec("u", "svc", "c", "svc"),))
        )
        by_index = compile_network(
            mutex_spec(channels=(ChannelSpec("u", 0, "c", 0),))
        )
        assert by_name.channels == by_index.channels == (Channel(0, 1),)

    def test_ambiguous_component_name_needs_an_index(self):
        relay = examples.build("mitm").networks["relay"]
        spec = NetworkDef(
            name="wrap",
            factors=(
                NetFactor("u", examples.user_role()),
                NetFactor("m", relay.automaton),
            ),
            channels=(ChannelSpec("u", "svc", "m", "svc"),),
        )
        with pytest.raises(WiringError, match="ambiguous"):
            compile_network(spec)

    def test_initial_override_is_applied(self):
        spec = NetworkDef(
            name="late",
            factors=(NetFactor("u", examples.user_role(), initial=("crit",)),),
        )
        compiled = compile_network(spec)
        assert compiled.factors[0].initial == ("crit",)

    def test_initial_override_must_name_a_state(self):
        spec = NetworkDef(
            name="late",
            factors=(NetFactor("u", examples.user_role(), initial=("nowhere",)),),
        )
        with pytest.raises(WiringError):
            compile_network(spec)

    def test_an_unresolved_network_is_refused(self):
        # Parsed, the administrator's factors still name their machines.
        with pytest.raises(WiringError, match=r"factor 'c' still names 'Server'; resolve the document first"):
            build_network(examples.administrator_def())

    def test_condition_arity_must_match_scoped_width(self):
        spec = mutex_spec(
            conditions=(ConditionSpec("veto", ("*", "*", "*"), ("*", "*", "*")),)
        )
        with pytest.raises(WiringError, match="arity"):
            compile_network(spec)

    def test_condition_scope_must_not_repeat_a_factor(self):
        # Both halves of the patterns would land on u's one slot.
        spec = mutex_spec(
            conditions=(ConditionSpec("odd", ("try", "remn"), ("crit", "*"), on=("u", "u")),)
        )
        with pytest.raises(WiringError, match="condition 'odd' scopes factor 'u' twice"):
            compile_network(spec)

    def test_scoped_condition_patterns_follow_the_on_listing(self):
        spec = mutex_spec(
            conditions=(
                ConditionSpec("veto", ("crit",), ("exit",), on=("c",)),
            )
        )
        compiled = compile_network(spec)
        (c,) = compiled.conditions
        assert c.source == ("*", "crit")
        assert c.target == ("*", "exit")
        assert c.scope.state_components == (1,)

    def test_channel_label_is_factor_qualified(self):
        built = build_network(mutex_spec(channels=(ChannelSpec("u", "svc", "c", "svc"),)))
        assert channel_str(built.restricted, Channel(0, 1)) == "u.svc>c.svc"

    def test_literal_pattern_compiles_to_flat_component(self):
        spec = mutex_spec(
            conditions=(
                ConditionSpec(
                    "veto",
                    ("*", "*"),
                    ("*", "*"),
                    output=PatternSpec.literal("c", "svc", "cf_fin"),
                ),
            )
        )
        (c,) = compile_network(spec).conditions
        assert c.output.kind == "literal"
        assert c.output.component == 1  # granter's flat output slot
        assert c.output.character == "cf_fin"

    def test_spans_at_nonzero_offsets_place_channels_patterns_and_scope(self):
        """Timer, a two-slot relay and a server: the relay's state, input and
        output slots are 1 and 2, the server's are 3 in each vector."""
        relay = examples.build("mitm").networks["relay"].automaton
        spec = NetworkDef(
            name="offsets",
            factors=(
                NetFactor("t", examples.timer_role()),
                NetFactor("m", relay),
                NetFactor("c", examples.server_role()),
            ),
            channels=(ChannelSpec("m", 1, "c", "svc"),),
            conditions=(
                ConditionSpec(
                    "veto",
                    ("crit", "*", "remn"),
                    ("exit", "try", "*"),
                    input=PatternSpec.active("c", "svc"),
                    output=PatternSpec.literal("m", 1, "req"),
                    on=("c", "m"),
                ),
            ),
        )
        compiled = compile_network(spec)
        assert compiled.channels == (Channel(2, 3),)
        (c,) = compiled.conditions
        assert c.source == ("*", "*", "remn", "crit")
        assert c.target == ("*", "try", "*", "exit")
        assert (c.input.kind, c.input.component) == ("active", 3)
        assert (c.output.kind, c.output.component, c.output.character) == ("literal", 2, "req")
        assert c.scope == Scope((3, 1, 2), (3, 1, 2), (3, 1, 2))


def _spec_parts(seq, none):
    """A factor, a channel and a condition, with `seq` for every sequence
    and `none` for every omitted pattern."""
    return (
        NetFactor("u", examples.user_role(), seq(["try"])),
        ChannelSpec("u", "svc", "c", "svc"),
        ConditionSpec("no_try", seq(["try"]), seq(["*"]), none, none, seq(["u"])),
    )


def _user_from_lists() -> Nfioa:
    a = examples.user_role()
    return Nfioa(
        a.name, list(a.states), list(a.inputs), list(a.outputs), list(a.initial),
        a.acceptance, list(a.transitions),
    )


# Each case: a value built from lists and None patterns, and the same
# value built from its normal form.
_NORMAL_FORMS = {
    "NetFactor": lambda: (_spec_parts(list, None)[0], _spec_parts(tuple, PatternSpec.any())[0]),
    "ConditionSpec": lambda: (_spec_parts(list, None)[2], _spec_parts(tuple, PatternSpec.any())[2]),
    "NetworkDef": lambda: (
        NetworkDef("n", *([part] for part in _spec_parts(list, None))),
        NetworkDef("n", *((part,) for part in _spec_parts(tuple, PatternSpec.any()))),
    ),
    # A parsed network carries its position, which equality ignores.
    "NetworkDef parsed": lambda: (
        NetworkDef(
            "closed_mutex",
            [NetFactor("u", "User"), NetFactor("c", "Server")],
            [ChannelSpec("u", "svc", "c", "svc"), ChannelSpec("c", "svc", "u", "svc")],
            [],
            Acceptance.muller([frozenset(examples.MUTEX_CYCLE)]),
        ),
        examples.document("mutex").networks[0],
    ),
    "ComponentAlphabet": lambda: (ComponentAlphabet("c", ["x"]), ComponentAlphabet("c", {"x"})),
    "Condition": lambda: (
        Condition("no_try", ["try"], ["*"], None, None),
        Condition("no_try", ("try",), ("*",), IoPattern.any(), IoPattern.any()),
    ),
    "Nfioa": lambda: (_user_from_lists(), examples.user_role()),
}


class TestNormalForm:
    @pytest.mark.parametrize("case", sorted(_NORMAL_FORMS))
    def test_value_types_store_their_normal_form(self, case):
        given, normal = _NORMAL_FORMS[case]()
        assert given == normal
        assert hash(given) == hash(normal)

    def test_the_former_names_are_the_merged_types(self):
        assert fioa.FactorRef is fioa.NetFactor and fioa.NetworkSpec is fioa.NetworkDef

    def test_replace_with_a_transition_list_is_still_validated(self):
        user = examples.user_role()
        bad = [*user.transitions, (("remn",), ("nowhere",), ("",), ("",))]
        with pytest.raises(InvalidAutomaton, match="nowhere"):
            replace(user, transitions=bad)


class TestBuild:
    def test_channel_networks_come_with_a_config_graph(self, mutex_env):
        built = mutex_env.networks["closed_mutex"]
        assert built.restricted is not None
        assert built.automaton is built.restricted.base

    def test_channel_free_networks_are_eager(self, admin_env):
        built = admin_env.networks["administrator"]
        assert built.restricted is None
        assert len(built.automaton.states) == 12

    def test_acceptance_override_lands_on_the_result(self, mutex_env):
        built = mutex_env.networks["closed_mutex"]
        assert built.automaton.acceptance == Acceptance.muller(
            [frozenset(examples.MUTEX_CYCLE)]
        )

    def test_acceptance_override_is_read_without_building_the_flat_automaton(self):
        built = examples.build("mutex").networks["closed_mutex"]
        r = built.restricted
        override = Acceptance.muller([frozenset(examples.MUTEX_CYCLE)])
        states = frozenset(c.state for c in r.graph.nodes)
        assert acceptance_within(built.compiled.factors, states) != override
        rep = is_consistent(r)
        assert r.acceptance == override
        assert rep.anchors == frozenset(map(r.graph.nodes.__getitem__, acceptance_anchors(r.graph, override)))
        assert isinstance(vars(r)["base"], FlatRecipe)
        assert built.automaton is r.base and r.base.acceptance == override

    def test_a_bad_acceptance_override_fails_the_build(self):
        channels = (ChannelSpec("u", "svc", "c", "svc"), ChannelSpec("c", "svc", "u", "svc"))
        bad = Acceptance.final([("crit", "nowhere")])
        with pytest.raises(InvalidAutomaton, match=r"final state crit\|nowhere not a state"):
            build_network(mutex_spec(channels=channels, acceptance=bad))

    def test_a_given_automaton_is_kept_as_given(self, mutex_env):
        built = mutex_env.networks["closed_mutex"]
        a = replace(built.automaton, name="other")
        given = BuiltNetwork(built.compiled, a, built.restricted)
        assert given.automaton is a and given.restricted is built.restricted

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ring_flat_automaton_is_the_eager_one(self, n, same_as_eager_base):
        built = resolve(examples.ring_document(n)).networks[f"ring{n}"]
        assert isinstance(vars(built.restricted)["base"], FlatRecipe)
        same_as_eager_base(LazyProduct(built.compiled.factors, name=built.name), built.restricted)
        assert built.automaton is built.restricted.base

    def test_coord5w_flat_automaton_is_the_eager_one(self, same_as_eager_base):
        built = build_network(pairwise_mutex_spec(5, wired=True))
        same_as_eager_base(LazyProduct(built.compiled.factors, name=built.name), built.restricted)
        assert built.automaton is built.restricted.base

    def test_lazy_exploration_only_materializes_reachable_states(self, ring2_env):
        built = ring2_env.networks["ring2"]
        # raw product state count is astronomically larger
        assert len(built.automaton.states) < 200
        assert built.automaton.states == frozenset(
            c.state for c in built.restricted.graph.configs
        )


# Sizes as the oracle `scripts/derive_expected.py` prints them ("ring n=..."
# and "mutex n=..." lines); the oracle test below keeps the two in step.

# ring n: (configurations, edges, excited configurations)
RING_SIZES = {2: (170, 232, 122), 3: (909, 1332, 693), 4: (4212, 6480, 3348)}

# mutex n: (eager reachable states, kept transitions,
#           server-wired configurations, edges, excited configurations)
MUTEX_SIZES = {3: (54, 171, 108, 198, 54), 4: (189, 876, 378, 837, 189)}

# ring n: edges per census row, in the oracle's words ("ring n=... row census")
RING_CENSUS = {
    2: {("excited", "consume", "chan"): 12, ("excited", "consume", "eps"): 110, ("relaxed", "eps", "chan"): 110},
    3: {("excited", "consume", "chan"): 54, ("excited", "consume", "eps"): 639, ("relaxed", "eps", "chan"): 639},
    4: {("excited", "consume", "chan"): 216, ("excited", "consume", "eps"): 3132, ("relaxed", "eps", "chan"): 3132},
}


def _oracle_row(row) -> tuple[str, str, str]:
    """An `EdgeClass` in the oracle's words."""
    words = {"silent-in": "eps", "open-in": "open", "silent-out": "eps", "channel-out": "chan", "open-out": "open"}
    return row.mode, words.get(row.input_kind, row.input_kind), words[row.output_kind]


def _sizes(r) -> tuple[int, int, int]:
    excited = sum(1 for cfg in r.graph.configs if cfg.excited)
    return len(r.graph.configs), r.graph.edge_count, excited


class TestTokenRings:
    def test_two_cell_ring_size_is_frozen(self, ring2_env):
        r = ring2_env.networks["ring2"].restricted
        assert _sizes(r) == RING_SIZES[2]
        assert is_well_formed(r).ok

    def test_three_cell_ring_size_is_frozen(self, ring3_env):
        r = ring3_env.networks["ring3"].restricted
        assert _sizes(r) == RING_SIZES[3]
        assert is_well_formed(r).ok

    def test_four_cell_ring_size_is_frozen(self):
        r = resolve(examples.ring_document(4)).networks["ring4"].restricted
        assert _sizes(r) == RING_SIZES[4]
        assert is_well_formed(r).ok

    def test_ring_census_is_frozen(self, ring2_env, ring3_env):
        rings = {
            2: ring2_env.networks["ring2"].restricted,
            3: ring3_env.networks["ring3"].restricted,
            4: resolve(examples.ring_document(4)).networks["ring4"].restricted,
        }
        for n, r in rings.items():
            assert {_oracle_row(row): k for row, k in edge_census(r).items()} == RING_CENSUS[n], n

    def test_exactly_one_token_alive_everywhere(self, ring2_env, ring3_env):
        for env, name, ring_slots in (
            (ring2_env, "ring2", (1, 3)),
            (ring3_env, "ring3", (1, 3, 5)),
        ):
            r = env.networks[name].restricted
            for cfg in r.graph.configs:
                held = sum(1 for i in ring_slots if cfg.state[i] != "abst")
                in_flight = 1 if cfg.pending and cfg.pending[1] == "token" else 0
                assert held + in_flight == 1, (name, cfg)

    def test_mutual_exclusion_holds_for_clients(self, ring2_env, ring3_env):
        for env, name, user_slots in (
            (ring2_env, "ring2", (6, 7)),
            (ring3_env, "ring3", (9, 10, 11)),
        ):
            r = env.networks[name].restricted
            for cfg in r.graph.configs:
                in_crit = sum(1 for i in user_slots if cfg.state[i] == "crit")
                assert in_crit <= 1, (name, cfg)


def pairwise_mutex_spec(n: int, wired: bool) -> NetworkDef:
    """n users; condition mx_i_j denies u_j entering crit while u_i is in
    crit.  Wired, u0 talks to a server over both service channels."""
    factors = [NetFactor(f"u{i}", examples.user_role()) for i in range(n)]
    channels = ()
    if wired:
        factors.append(NetFactor("c", examples.server_role()))
        channels = (ChannelSpec("u0", "svc", "c", "svc"), ChannelSpec("c", "svc", "u0", "svc"))
    conditions = tuple(
        ConditionSpec(f"mx_{i}_{j}", ("crit", "try"), ("crit", "crit"), on=(f"u{i}", f"u{j}"))
        for i in range(n)
        for j in range(n)
        if i != j
    )
    return NetworkDef(f"mutex{n}", tuple(factors), channels, conditions)


class TestPairwiseMutex:
    """Many conditions per network: n(n-1) pairwise exclusion vetoes."""

    @pytest.mark.parametrize("n", sorted(MUTEX_SIZES))
    def test_size_is_frozen(self, n):
        eager = build_network(pairwise_mutex_spec(n, wired=False)).automaton
        wired = build_network(pairwise_mutex_spec(n, wired=True)).restricted
        sizes = (len(reachable_states(eager)), len(eager.transitions), *_sizes(wired))
        assert sizes == MUTEX_SIZES[n]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("wired", [False, True])
    def test_compiled_conditions_agree_with_veto(self, n, wired, compiled_agrees):
        c = compile_network(pairwise_mutex_spec(n, wired=wired))
        # The eager product is checked up to the size of coord5's, the
        # benchmark's.
        seen = compiled_agrees(c.factors, c.channels, c.conditions, eager_cap=25_000)
        # Each user's entry into crit keeps a guard, one residue per other
        # user; no move is vetoed out of every state.
        assert seen["guarded moves"] == n and seen["moves left out"] == 0, seen
        assert seen["guard vetoes"] > 0 and seen["eager checked"] == (n < 6 or not wired), seen

    @pytest.mark.parametrize("n", sorted(MUTEX_SIZES))
    def test_no_two_users_are_ever_in_crit(self, n):
        eager = build_network(pairwise_mutex_spec(n, wired=False)).automaton
        for state in reachable_states(eager):
            assert state.count("crit") <= 1, state


def test_the_scale_benchmark_checks_the_frozen_sizes(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
    spec = importlib.util.spec_from_file_location("bench", script)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert {n: bench.KNOWN[n] for n in RING_SIZES} == RING_SIZES
    out = tmp_path / "bench.json"
    subprocess.run(
        [sys.executable, str(script), "--quick", "--sizes", "2", "--out", str(out)],
        check=True,
        capture_output=True,
    )
    run = json.loads(out.read_text(encoding="utf-8"))["runs"]["tree1"]
    ring2 = run["rings"]["2"]
    assert (ring2["configurations"], ring2["edges"], ring2["excited"]) == RING_SIZES[2]
    assert ring2["seconds"] > 0 and ring2["maxrss_mb"] > 0
    queries = run["queries"]["2"]
    assert (queries["census_edges"], queries["dot_edges"]) == (RING_SIZES[2][1],) * 2
    assert queries["census_s"] > 0 and queries["dot_s"] > 0
    # `--quick` builds coord5, eager and wired.
    assert sorted(run["coord"]) == ["5"]
    eager, wired = run["coord"]["5"]["eager"], run["coord"]["5"]["wired"]
    shape = ("states", "transitions", "reachable", "consistent", "anchors", "quasidet")
    assert tuple(eager[k] for k in shape) == bench.KNOWN_COORD[5]["eager"] == (1024, 4245, 648, False, 0, False)
    assert (wired["configurations"], wired["edges"], wired["excited"]) == bench.KNOWN_COORD[5]["wired"]
    assert eager["seconds"] > 0 and wired["maxrss_mb"] > 0
    assert eager["consistency_s"] > 0 and eager["quasidet_s"] > 0


def test_the_oracle_prints_the_frozen_sizes():
    script = Path(__file__).resolve().parent.parent / "scripts" / "derive_expected.py"
    out = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, check=True
    ).stdout
    rings = {
        int(m[0]): tuple(map(int, m[1:]))
        for m in re.findall(r"^ring n=(\d+): configs=(\d+), edges=(\d+), excited=(\d+),", out, re.M)
    }
    mutexes = {
        int(m[0]): tuple(map(int, m[1:]))
        for m in re.findall(
            r"^mutex n=(\d+): reachable=(\d+), kept=(\d+); "
            r"wired configs=(\d+), edges=(\d+), excited=(\d+)$",
            out,
            re.M,
        )
    }
    censuses = {
        int(m[0]): dict(ast.literal_eval(m[1])) for m in re.findall(r"^ring n=(\d+) row census: (.*)$", out, re.M)
    }
    assert rings == RING_SIZES
    assert censuses == RING_CENSUS
    assert mutexes == MUTEX_SIZES


@pytest.fixture(scope="module")
def lax_ring():
    doc = WorkbenchDocument(
        automata=(
            examples.user_role(),
            examples.server_role(),
            examples.ring_role(),
            examples.timer_role(),
        ),
        networks=(
            examples.lax_administrator_def(),
            examples.ring_def(2, name="lax_ring", admin_ref="lax_administrator"),
        ),
        directives=(),
    )
    return resolve(doc).networks["lax_ring"].restricted


class TestLaxRingControl:
    """Dropping the token-possession rules really breaks exclusion."""

    def test_lax_ring_grows_extra_configurations(self, lax_ring):
        assert len(lax_ring.graph.configs) == 264
        assert lax_ring.graph.edge_count == 376

    def test_two_clients_can_sit_in_crit_at_once(self, lax_ring):
        offenders = [
            c
            for c in lax_ring.graph.configs
            if c.state[6] == "crit" and c.state[7] == "crit"
        ]
        assert len(offenders) == 6
