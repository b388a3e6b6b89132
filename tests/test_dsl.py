"""Workbench text format: parsing, canonical serialization, resolution,
and the shipped corpus, which `fioa.examples` loads."""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from fioa import (
    Acceptance,
    DslError,
    examples,
    parse,
    resolve,
    serialize,
)
from fioa.channels import FlatRecipe
from fioa.core import ComponentAlphabet, Nfioa
from fioa.dsl import Directive, NetFactor, NetworkDef, Token, WorkbenchDocument, load, tokenize
from fioa.network import ConditionSpec, PatternSpec

CORPUS = Path(__file__).resolve().parent.parent / "src" / "fioa" / "corpus"

MINIMAL = """
automaton Blinker {
  states dark, lit;
  initial dark;
  inputs btn: {push};
  outputs lamp: {glow};
  accept muller {{dark, lit}};
  trans dark -> lit on btn.push / lamp.glow;
  trans lit -> dark on - / -;
}
"""


class TestParsing:
    def test_minimal_automaton_parses(self):
        doc = parse(MINIMAL)
        (a,) = doc.automata
        assert a.name == "Blinker"
        assert a.states == frozenset({("dark",), ("lit",)})
        assert len(a.transitions) == 2
        assert a.acceptance == Acceptance.muller([[("dark",), ("lit",)]])

    def test_comments_and_whitespace_are_ignored(self):
        commented = MINIMAL.replace(
            "states dark, lit;", "states dark, lit;  # the two phases\n"
        )
        assert parse(commented) == parse(MINIMAL)

    def test_tokens_carry_kind_text_and_position(self):
        text = "trans a->b # note\n\t on x.c_1 / 42;"
        assert tokenize(text) == [
            Token("ident", "trans", 1, 1),
            Token("ident", "a", 1, 7),
            Token("punct", "->", 1, 8),
            Token("ident", "b", 1, 10),
            Token("ident", "on", 2, 3),
            Token("ident", "x", 2, 6),
            Token("punct", ".", 2, 7),
            Token("ident", "c_1", 2, 8),
            Token("punct", "/", 2, 12),
            Token("int", "42", 2, 14),
            Token("punct", ";", 2, 16),
            Token("eof", "", 2, 17),
        ]

    def test_errors_carry_line_and_column(self):
        bad = MINIMAL.replace("initial dark;", "initial dark")
        with pytest.raises(DslError) as err:
            parse(bad)
        assert err.value.line is not None
        assert f"line {err.value.line}" in str(err.value)

    def test_unknown_top_level_word_is_rejected(self):
        with pytest.raises(DslError, match="expected 'automaton'"):
            parse("blueprint X {}")

    def test_automaton_refused_by_its_constructor_is_a_positioned_error(self, monkeypatch):
        # The parser checks what text can get wrong before it builds; a
        # refusal by `Nfioa` itself still names the automaton and its line.
        import fioa.core

        monkeypatch.setattr(fioa.core, "validate", lambda a: ["first fault", "second fault"])
        with pytest.raises(DslError) as err:
            parse(MINIMAL)
        assert str(err.value) == "line 2, col 11: automaton 'Blinker' is malformed: first fault"

    def test_reserved_words_cannot_name_machines(self):
        with pytest.raises(DslError, match="reserved"):
            parse(MINIMAL.replace("Blinker", "network"))

    def test_duplicate_names_are_rejected(self):
        with pytest.raises(DslError, match="declared twice"):
            parse(MINIMAL + MINIMAL)

    def test_accept_section_is_mandatory(self):
        bad = MINIMAL.replace("accept muller {{dark, lit}};", "")
        with pytest.raises(DslError, match="no 'accept' section"):
            parse(bad)

    def test_transitions_must_name_declared_states(self):
        bad = MINIMAL.replace("trans lit -> dark", "trans lit -> dusk")
        with pytest.raises(DslError, match="undeclared state 'dusk'"):
            parse(bad)

    def test_labels_must_name_declared_characters(self):
        bad = MINIMAL.replace("btn.push /", "btn.shove /")
        with pytest.raises(DslError, match="character 'shove'"):
            parse(bad)

    def test_labels_must_name_declared_components(self):
        bad = MINIMAL.replace("btn.push /", "dial.push /")
        with pytest.raises(DslError, match="unknown input component"):
            parse(bad)

    def test_acceptance_must_name_declared_states(self):
        bad = MINIMAL.replace("{{dark, lit}}", "{{dark, dawn}}")
        with pytest.raises(DslError, match="acceptance names undeclared"):
            parse(bad)

    def test_unknown_check_kind_is_rejected(self):
        with pytest.raises(DslError, match="unknown check kind"):
            parse(MINIMAL + "check sparkling Blinker;")

    def test_known_check_kinds_parse_into_directives(self):
        doc = parse(MINIMAL + "check wellformed Blinker;\ncheck valid Blinker;")
        assert doc.directives == (
            Directive("wellformed", "Blinker"),
            Directive("valid", "Blinker"),
        )

    def test_a_check_may_name_what_is_declared_after_it(self):
        assert parse("check valid Blinker;\n" + MINIMAL).directives == (Directive("valid", "Blinker"),)


NETWORK = MINIMAL + """
network Loop {
  use b1 = Blinker;
  use b2 = Blinker init lit;
  channel b1.lamp -> b2.btn;
  condition hush on (b1, b2): from (dark, *) to (*, lit) input b1.btn.push output active(b2.lamp) deny;
  accept muller {{(dark, lit)}};
}
"""


def _edit(base: str, old: str, new: str) -> str:
    assert old in base, old
    return base.replace(old, new, 1)


# One row per place the tokenizer or parser raises: a malformed document
# and the exact error, position included (`resolve`'s error is pinned in
# `TestNetworkBlocks`).  The `validate` call on a parsed automaton has
# no row: no text reaches it, since every fault it reports is caught earlier.
PARSE_ERRORS = [
    ("unexpected-character", _edit(MINIMAL, "trans lit", "trans $lit"),
     "line 9, col 9: unexpected character '$'"),
    ("expected-punct", _edit(MINIMAL, "initial dark;", "initial dark"),
     "line 5, col 3: expected ';', found 'inputs'"),
    ("expected-punct-at-end", "automaton Blinker",
     "line 1, col 18: expected '{', found 'end of input'"),
    ("expected-ident", "automaton 42 {}",
     "line 1, col 11: expected automaton name, found '42'"),
    ("reserved-name", _edit(MINIMAL, "Blinker", "network"),
     "line 2, col 11: 'network' is a reserved word and cannot be used as an automaton name"),
    ("expected-keyword", _edit(MINIMAL, "lit on btn", "lit by btn"),
     "line 8, col 21: expected 'on', found 'by'"),
    ("expected-keyword-not-punct", _edit(NETWORK, "input b1", "; b1"),
     "line 16, col 58: expected 'deny', found ';'"),
    ("automaton-declared-twice", MINIMAL + MINIMAL,
     "line 12, col 1: name 'Blinker' is declared twice"),
    ("network-declared-twice", NETWORK + NETWORK[len(MINIMAL):],
     "line 20, col 1: name 'Loop' is declared twice"),
    ("unknown-top-level", "blueprint X {}",
     "line 1, col 1: expected 'automaton', 'network', or 'check', found 'blueprint'"),
    ("unknown-check-kind", MINIMAL + "check sparkling Blinker;",
     "line 11, col 7: unknown check kind 'sparkling' (expected one of consistent, "
     "deterministic, protocol, quasidet, valid, wellformed)"),
    ("undeclared-check-target", MINIMAL + "check valid Blinkers;",
     "line 11, col 13: no automaton or network named 'Blinkers'; declared: Blinker"),
    ("duplicate-states", _edit(MINIMAL, "initial dark;", "initial dark;\n  states dark;"),
     "line 5, col 3: duplicate 'states' section"),
    ("duplicate-initial", _edit(MINIMAL, "initial dark;", "initial dark;\n  initial lit;"),
     "line 5, col 3: duplicate 'initial' section"),
    ("duplicate-inputs", _edit(MINIMAL, "initial dark;", "initial dark;\n  inputs;"),
     "line 6, col 3: duplicate 'inputs' section"),
    ("duplicate-outputs", _edit(MINIMAL, "initial dark;", "initial dark;\n  outputs;\n  outputs;"),
     "line 6, col 3: duplicate 'outputs' section"),
    ("duplicate-automaton-accept", _edit(MINIMAL, "}\n", "  accept final {dark};\n}\n"),
     "line 10, col 3: duplicate 'accept' section"),
    ("unknown-automaton-section", _edit(MINIMAL, "initial dark;", "initial dark;\n  colour red;"),
     "line 5, col 3: expected an automaton section, found 'colour'"),
    ("unclosed-automaton", MINIMAL.rstrip()[:-1],
     "line 10, col 1: expected an automaton section, found 'end of input'"),
    ("missing-states", _edit(MINIMAL, "states dark, lit;", ""),
     "line 2, col 11: automaton 'Blinker' has no 'states' section"),
    ("missing-initial", _edit(MINIMAL, "initial dark;", ""),
     "line 2, col 11: automaton 'Blinker' has no 'initial' section"),
    ("missing-accept", _edit(MINIMAL, "accept muller {{dark, lit}};", ""),
     "line 2, col 11: automaton 'Blinker' has no 'accept' section"),
    ("undeclared-initial", _edit(MINIMAL, "initial dark;", "initial dusk;"),
     "line 2, col 11: initial state 'dusk' is not declared"),
    ("undeclared-acceptance-state", _edit(MINIMAL, "{{dark, lit}}", "{{dark, dawn}}"),
     "line 2, col 11: acceptance names undeclared state 'dawn'"),
    ("undeclared-transition-state", _edit(MINIMAL, "trans lit -> dark", "trans lit -> dusk"),
     "line 9, col 3: transition names undeclared state 'dusk'"),
    ("unknown-label-component", _edit(MINIMAL, "btn.push /", "dial.push /"),
     "line 8, col 3: unknown input component 'dial'"),
    ("undeclared-label-character", _edit(MINIMAL, "/ lamp.glow", "/ lamp.flash"),
     "line 8, col 3: character 'flash' is not declared for output component 'lamp'"),
    ("duplicate-component", _edit(MINIMAL, "btn: {push}", "btn: {push}, btn: {pull}"),
     "line 5, col 23: duplicate component 'btn'"),
    ("unknown-acceptance-mode", _edit(MINIMAL, "muller {{", "buchi {{"),
     "line 7, col 10: expected 'muller' or 'final' after 'accept'"),
    ("state-tuple-width", _edit(MINIMAL, "{{dark, lit}}", "{{dark, (lit, dark)}}"),
     "line 7, col 25: state tuple has 2 slots, expected 1"),
    ("duplicate-factor-alias", _edit(NETWORK, "use b2 =", "use b1 ="),
     "line 14, col 3: duplicate factor alias 'b1'"),
    ("duplicate-network-accept",
     _edit(NETWORK, "accept muller {{(dark, lit)}};", "accept muller {{(dark, lit)}};\n  accept final {(dark, dark)};"),
     "line 18, col 3: duplicate 'accept' section"),
    ("unknown-network-section", _edit(NETWORK, "channel b1", "wire b1"),
     "line 15, col 3: expected a network section, found 'wire'"),
    ("network-without-use", "network Empty {\n  accept final {(a, b)};\n}\n",
     "line 1, col 9: network 'Empty' has no 'use' lines"),
    ("unknown-channel-alias", _edit(NETWORK, "channel b1.lamp", "channel b3.lamp"),
     "line 15, col 11: unknown factor alias 'b3'"),
    ("wrong-channel-indexing", _edit(NETWORK, "channel b1.lamp", "channel b1.in[0]"),
     "line 15, col 14: the sending end must use 'out' indexing"),
    ("channel-index-not-int", _edit(NETWORK, "channel b1.lamp", "channel b1.out[x]"),
     "line 15, col 18: expected a component index"),
    ("reserved-channel-component", _edit(NETWORK, "-> b2.btn", "-> b2.any"),
     "line 15, col 25: 'any' is a reserved word and cannot name a component"),
    ("unknown-scope-alias", _edit(NETWORK, "on (b1, b2)", "on (b1, zz)"),
     "line 16, col 26: unknown factor alias 'zz'"),
    ("repeated-scope-alias", _edit(NETWORK, "on (b1, b2)", "on (b2, b2)"),
     "line 16, col 26: condition 'hush' scopes factor alias 'b2' twice"),
    ("unknown-active-alias", _edit(NETWORK, "active(b2.lamp)", "active(zz.lamp)"),
     "line 16, col 90: unknown factor alias 'zz'"),
    ("unknown-literal-alias", _edit(NETWORK, "input b1.btn.push", "input zz.btn.push"),
     "line 16, col 64: unknown factor alias 'zz'"),
    ("wrong-input-pattern-indexing", _edit(NETWORK, "input b1.btn.push", "input b1.out[0].push"),
     "line 16, col 67: an input pattern must use 'in' indexing"),
    ("wrong-output-pattern-indexing", _edit(NETWORK, "active(b2.lamp)", "active(b2.in[0])"),
     "line 16, col 93: an output pattern must use 'out' indexing"),
]


class TestErrorTable:
    def test_the_base_document_parses_and_round_trips(self):
        doc = parse(NETWORK)
        assert doc.networks[0].conditions == (
            ConditionSpec(
                "hush",
                ("dark", "*"),
                ("*", "lit"),
                input=PatternSpec.literal("b1", "btn", "push"),
                output=PatternSpec.active("b2", "lamp"),
                on=("b1", "b2"),
            ),
        )
        assert parse(serialize(doc)) == doc

    @pytest.mark.parametrize(
        "text, message", [row[1:] for row in PARSE_ERRORS], ids=[row[0] for row in PARSE_ERRORS]
    )
    def test_each_error_site_reports_its_text_and_position(self, text, message):
        with pytest.raises(DslError) as err:
            parse(text)
        assert str(err.value) == message


class TestNetworkBlocks:
    WIRED = MINIMAL + """
network Loop {
  use b1 = Blinker;
  use b2 = Blinker init lit;
  channel b1.lamp -> b2.btn;
}
"""

    def test_factors_channels_and_overrides_parse(self):
        doc = parse(self.WIRED)
        (net,) = doc.networks
        assert net.factors == (
            NetFactor("b1", "Blinker", None),
            NetFactor("b2", "Blinker", ("lit",)),
        )
        assert len(net.channels) == 1

    def test_channel_alphabets_are_still_checked_at_build(self):
        with pytest.raises(Exception, match="not readable"):
            resolve(parse(self.WIRED))

    @pytest.mark.parametrize(
        "text, message",
        [
            (_edit(WIRED, "channel b1.lamp -> b2.btn;", "accept final {(dark, dim)};"),
             "final state dark|dim not a state"),
            (WIRED, "channel b1.lamp>b2.btn: sender characters ['glow'] not readable"),
            (_edit(WIRED, "b2.btn;", "b2.knob;"), "b2 input has no component named 'knob'"),
        ],
        ids=["unknown-accept-state", "unreadable-channel", "unknown-component"],
    )
    def test_a_build_error_names_the_network_and_its_line(self, text, message):
        with pytest.raises(DslError) as err:
            resolve(parse(text))
        assert (err.value.line, err.value.col) == (12, 1)
        assert str(err.value) == f"line 12, col 1: network 'Loop': {message}"

    def test_factor_references_resolve_in_declaration_order(self):
        with pytest.raises(DslError) as err:
            resolve(
                WorkbenchDocument(
                    automata=(),
                    networks=(NetworkDef("ghost_net", (NetFactor("g", "Ghost"),), (), (), None),),
                    directives=(),
                )
            )
        assert str(err.value) == "network 'ghost_net' uses 'Ghost', which is not declared before it"

    def test_an_undeclared_reference_names_its_use_line(self):
        doc = parse(MINIMAL + "\nnetwork ghost_net {\n  use b = Blinker;\n  use g = Ghost;\n}\n")
        with pytest.raises(DslError) as err:
            resolve(doc)
        assert str(err.value) == (
            "line 14, col 3: network 'ghost_net' uses 'Ghost', which is not declared before it"
        )

    def test_an_unknown_start_state_names_its_use_line(self):
        doc = parse(MINIMAL + "\nnetwork Pair {\n  use b = Blinker;\n  use d = Blinker init dim;\n}\n")
        with pytest.raises(DslError) as err:
            resolve(doc)
        assert (err.value.line, err.value.col) == (14, 3)
        assert str(err.value) == "line 14, col 3: network 'Pair' starts 'd' in dim, which is not a state of 'Blinker'"
        nested = (
            MINIMAL + "\nnetwork Pair {\n  use b = Blinker;\n  use c = Blinker;\n}\n"
            "\nnetwork Outer {\n  use p = Pair init (lit, dim);\n}\n"
        )
        with pytest.raises(DslError) as err:
            resolve(parse(nested))
        assert str(err.value) == (
            "line 18, col 3: network 'Outer' starts 'p' in lit|dim, which is not a state of 'Pair'"
        )

    def test_a_wired_network_is_flattened_when_read_or_used(self):
        text = (CORPUS / "mutex.pw").read_text(encoding="utf-8")
        env = resolve(parse(text))
        r = env.networks["closed_mutex"].restricted
        assert list(env.automata) == ["User", "Server", "closed_mutex"] and len(env.automata) == 3
        assert "closed_mutex" in env.automata and "nothing" not in env.automata
        assert isinstance(vars(r)["base"], FlatRecipe)
        assert env.automata["closed_mutex"] is r.base
        used = resolve(parse(text + "network outer {\n  use m = closed_mutex;\n}\n"))
        assert used.networks["outer"].compiled.factors[0].states == used.automata["closed_mutex"].states
        assert isinstance(vars(used.networks["closed_mutex"].restricted)["base"], Nfioa)

    def test_networks_can_be_factors_of_later_networks(self, mitm_env):
        # the relay network is consumed as a machine by the wrapper
        assert "relay" in mitm_env.networks
        assert "mitm_relayed" in mitm_env.networks
        relay = mitm_env.networks["relay"].automaton
        assert relay.state_width == 2


class TestSerialization:
    def test_round_trip_text_to_document(self):
        doc = parse(MINIMAL)
        assert parse(serialize(doc)) == doc

    def test_final_acceptance_an_empty_interface_and_any_input_round_trip(self):
        text = (
            "automaton Beacon {\n"
            "  states dark, lit;\n"
            "  initial dark;\n"
            "  outputs lamp: {glow};\n"
            "  accept final {lit};\n"
            "  trans dark -> lit on - / lamp.glow;\n"
            "  trans lit -> dark on - / -;\n"
            "}\n"
            "\n"
            "network lone {\n"
            "  use b = Beacon;\n"
            "  condition stay_dark: from (dark) to (lit) input any deny;\n"
            "}\n"
        )
        doc = parse(text)
        assert doc.automata[0].inputs == ()
        assert doc.automata[0].acceptance == Acceptance.final([("lit",)])
        assert doc.networks[0].conditions[0].input == PatternSpec.any()
        assert serialize(doc) == text
        assert parse(serialize(doc)) == doc

    @pytest.mark.parametrize(
        "pattern, named, text",
        [
            (PatternSpec.literal("b1", 0, "push"), PatternSpec.literal("b1", "btn", "push"), "input b1.in[0].push"),
            (PatternSpec.active("b1", 0), PatternSpec.active("b1", "btn"), "input active(b1.in[0])"),
            (PatternSpec.literal("b2", 0, "glow"), PatternSpec.literal("b2", "lamp", "glow"), "output b2.out[0].glow"),
            (PatternSpec.active("b2", 0), PatternSpec.active("b2", "lamp"), "output active(b2.out[0])"),
        ],
        ids=["input-literal", "input-active", "output-literal", "output-active"],
    )
    def test_pattern_ports_by_index_round_trip(self, pattern, named, text):
        def network(p):
            side = "input" if text.startswith("input") else "output"
            cond = ConditionSpec("hush", ("dark", "*"), ("*", "lit"), **{side: p})
            return NetworkDef("Pair", (NetFactor("b1", "Blinker"), NetFactor("b2", "Blinker")), conditions=(cond,))

        blinker = parse(MINIMAL).automata[0]
        doc = WorkbenchDocument((blinker,), (network(pattern),))
        assert f" {text} deny;" in serialize(doc)
        assert parse(serialize(doc)) == doc
        by_name = WorkbenchDocument((blinker,), (network(named),))
        by_index, by_name = (resolve(d).networks["Pair"].compiled.conditions for d in (doc, by_name))
        assert by_index == by_name

    def test_serialization_is_canonical(self):
        doc = parse(MINIMAL)
        assert serialize(parse(serialize(doc))) == serialize(doc)

    @pytest.mark.parametrize(
        "acceptance, line",
        [(Acceptance.final([]), "final {}"), (Acceptance.muller([]), "muller {}"),
         (Acceptance.muller([[]]), "muller {{}}")],
        ids=["final", "muller", "muller-empty-member"],
    )
    def test_empty_acceptance_sets_round_trip(self, acceptance, line):
        blinker = replace(parse(MINIMAL).automata[0], acceptance=acceptance)
        lone = NetworkDef("lone", (NetFactor("b", "Blinker"),), acceptance=acceptance)
        doc = WorkbenchDocument((blinker,), (lone,))
        text = serialize(doc)
        assert text.count(f"  accept {line};\n") == 2  # the automaton's and the network's
        assert parse(text) == doc
        assert resolve(parse(text)).networks["lone"].automaton.acceptance == acceptance

    @pytest.mark.parametrize(
        "kind, value",
        [("state", "on"), ("state", "a b"), ("state", "1x"), ("component", "a b"), ("character", "1x"),
         ("alias", "on"), ("condition", "a b")],
    )
    def test_a_name_text_cannot_spell_is_refused(self, kind, value):
        edits = {
            "state": dict(states=[(value,)], initial=(value,), transitions=(), acceptance=Acceptance.final([])),
            "component": dict(inputs=(ComponentAlphabet(value, ("push",)),), transitions=()),
            "character": dict(inputs=(ComponentAlphabet("btn", (value,)),), transitions=()),
        }
        blinker = replace(parse(MINIMAL).automata[0], **edits.get(kind, {}))
        conditions = (ConditionSpec(value, ("*",), ("*",)),) if kind == "condition" else ()
        lone = NetworkDef("lone", (NetFactor(value if kind == "alias" else "b", "Blinker"),), conditions=conditions)
        owner = "automaton 'Blinker'" if kind in edits else "network 'lone'"
        with pytest.raises(DslError, match=rf"^{owner} has {kind} {value!r}, which text cannot spell"):
            serialize(WorkbenchDocument((blinker,), (lone,)))

    def test_composite_state_machines_have_no_text_form(self, admin_env):
        admin = admin_env.networks["administrator"].automaton
        doc = WorkbenchDocument(automata=(admin,), networks=(), directives=())
        with pytest.raises(DslError, match="composite states"):
            serialize(doc)


class TestCorpus:
    @pytest.mark.parametrize("name", sorted(examples.names()))
    def test_builder_documents_round_trip(self, name):
        """`examples` serves each shipped file as it is, and every file is canonical."""
        text = examples.text(name)
        assert text == (CORPUS / f"{name}.pw").read_text(encoding="utf-8")
        assert examples.document(name) == parse(text)
        assert serialize(parse(text)) == text

    @pytest.mark.parametrize("name", sorted(examples.names()))
    def test_shipped_files_match_their_builders(self, name):
        """What Python still builds agrees with every shipped file.

        Each machine is what its role accessor returns, ``administrator``
        is :func:`examples.administrator_def`, every ring network is what
        the ring generator makes, ``ringN`` is ``ring_document(N)`` and
        ``ring2_eq`` is ``ring_eq_document()``.
        """
        roles = {
            "User": examples.user_role,
            "Server": examples.server_role,
            "DeafServer": examples.deaf_server_role,
            "Ring": examples.ring_role,
            "Timer": examples.timer_role,
            "IdleUser": examples.idle_user_role,
            "DetAdmin": examples.det_admin_role,
            "StickyAdmin": examples.sticky_admin_role,
        }
        det = {"admin_first_init": ("avail",), "user_ref": "IdleUser"}
        nets = {
            "administrator": examples.administrator_def,
            "ring2": lambda: examples.ring_def(2, name="ring2"),
            "ring3": lambda: examples.ring_def(3, name="ring3"),
            "ring_quasi": lambda: examples.ring_def(2, name="ring_quasi", user_ref="IdleUser"),
            "ring_det": lambda: examples.ring_def(2, name="ring_det", admin_ref="DetAdmin", **det),
            "ring_sticky": lambda: examples.ring_def(2, name="ring_sticky", admin_ref="StickyAdmin", **det),
        }
        doc = examples.document(name)
        for machine in doc.automata:
            assert machine == roles[machine.name](), machine.name
        for net in doc.networks:
            if net.name in nets:
                assert net == nets[net.name](), net.name
        if name in ("ring2", "ring3"):
            assert examples.ring_document(int(name[len("ring"):])) == doc
        if name == "ring2_eq":
            assert examples.ring_eq_document() == doc

    def test_documents_are_parsed_once_and_builds_are_fresh(self):
        assert examples.document("mutex") is examples.document("mutex")
        first, second = examples.build("mutex"), examples.build("mutex")
        assert first.automata is not second.automata
        assert first.networks is not second.networks

    def test_machines_declared_in_several_files_agree(self):
        """Role accessors read the first file declaring a machine; every other file agrees.

        Networks may differ (``broken_mutex`` wires a deaf server into its
        ``closed_mutex``), except the shared ``administrator``.
        """
        declared: dict[str, object] = {}
        for name in examples.names():
            doc = examples.document(name)
            for decl in doc.automata + tuple(n for n in doc.networks if n.name == "administrator"):
                assert declared.setdefault(decl.name, decl) == decl, (name, decl.name)
        assert declared["User"] == examples.user_role()
        assert declared["Ring"] == examples.ring_role()
        assert declared["administrator"] == examples.administrator_def()

    def test_the_lax_administrator_drops_the_token_possession_rules(self):
        lax, admin = examples.lax_administrator_def(), examples.administrator_def()
        assert [c.name for c in lax.conditions] == ["keep_token_while_serving", "confirm_before_handover"]
        assert (lax.name, lax.factors, lax.acceptance) == ("lax_administrator", admin.factors, None)

    def test_corpus_directory_has_no_strays(self):
        assert {p.stem for p in CORPUS.glob("*.pw")} == set(examples.names())

    @pytest.mark.parametrize("name", sorted(examples.names()))
    def test_every_corpus_file_loads_and_resolves(self, name):
        env = resolve(load(str(CORPUS / f"{name}.pw")))
        assert env.automata

    def test_unknown_example_name_is_a_key_error(self):
        with pytest.raises(KeyError, match="mutex"):
            examples.document("does_not_exist")
