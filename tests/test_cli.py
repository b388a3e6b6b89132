"""Command-line interface: exit codes and output contracts."""
from __future__ import annotations

import json
import os
import re
import runpy
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import fioa
import fioa.channels
import fioa.core
from fioa import examples
from fioa.cli import cli
from fioa.dsl import CHECK_KINDS, load, resolve

CORPUS = Path(__file__).resolve().parent.parent / "src" / "fioa" / "corpus"

MUTEX = str(CORPUS / "mutex.pw")
BROKEN = str(CORPUS / "broken_mutex.pw")
ADMIN = str(CORPUS / "administrator.pw")
MITM = str(CORPUS / "mitm.pw")
RING2 = str(CORPUS / "ring2.pw")
RING_EQ = str(CORPUS / "ring2_eq.pw")


class TestValidate:
    @pytest.mark.parametrize("name", sorted(examples.names()))
    def test_every_shipped_document_validates(self, name, capsys):
        assert cli(["validate", str(CORPUS / f"{name}.pw")]) == 0
        out = capsys.readouterr().out
        assert "automaton" in out

    def test_directive_lines_are_reported(self, capsys):
        assert cli(["validate", MUTEX]) == 0
        out = capsys.readouterr().out
        assert "check wellformed closed_mutex: ok" in out
        assert "check consistent closed_mutex: ok" in out
        assert "check protocol closed_mutex: ok" in out
        assert "check quasidet closed_mutex: ok" in out

    def test_failing_directive_flips_the_exit_code(self, tmp_path, capsys):
        doc = (CORPUS / "broken_mutex.pw").read_text(encoding="utf-8")
        bad = tmp_path / "bad.pw"
        bad.write_text(doc + "\ncheck wellformed closed_mutex;\n", encoding="utf-8")
        assert cli(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "check wellformed closed_mutex: FAIL" in out

    def test_each_directive_target_is_explored_once(self, monkeypatch, capsys):
        """`administrator.pw` checks two graph properties of one channel-free
        network; both read one exploration of its graph, the one `cbr`
        keeps on the automaton."""
        calls, real = [], fioa.channels._explore
        monkeypatch.setattr(fioa.channels, "_explore", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        assert cli(["validate", ADMIN]) == 0
        out = capsys.readouterr().out
        assert "check quasidet administrator: ok" in out
        assert "check consistent administrator: ok" in out
        assert len(calls) == 1

    def test_graph_directives_build_no_flat_automaton(self, monkeypatch, capsys):
        """`mutex.pw` checks four graph properties of the wired
        `closed_mutex`; none of them builds its flat automaton."""
        built = []
        monkeypatch.setattr(fioa.core, "validate", lambda a, real=fioa.core.validate: built.append(a.name) or real(a))
        assert cli(["validate", MUTEX]) == 0
        assert capsys.readouterr().out.count(" closed_mutex: ok") == 4
        assert "closed_mutex" not in built
        assert cli(["check", "protocol", MUTEX, "closed_mutex"]) == 0
        assert "closed_mutex" not in built

    def test_valid_and_deterministic_directives(self, tmp_path, capsys):
        path = tmp_path / "coins.pw"
        path.write_text(
            "automaton Toggle {\n"
            "  states lo, hi;\n"
            "  initial lo;\n"
            "  inputs press: {p};\n"
            "  accept final {hi};\n"
            "  trans lo -> hi on press.p / -;\n"
            "  trans hi -> lo on press.p / -;\n"
            "}\n"
            "automaton Coin {\n"
            "  states lo, hi;\n"
            "  initial lo;\n"
            "  inputs press: {p};\n"
            "  accept final {hi};\n"
            "  trans lo -> lo on press.p / -;\n"
            "  trans lo -> hi on press.p / -;\n"
            "}\n"
            "check valid Toggle;\n"
            "check deterministic Toggle;\n"
            "check valid Coin;\n"
            "check deterministic Coin;\n",
            encoding="utf-8",
        )
        assert cli(["validate", str(path)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == [
            "automaton Toggle: 2 states, 2 transitions, deterministic",
            "automaton Coin: 2 states, 2 transitions, nondeterministic",
        ]
        assert out[-4:] == [
            "check valid Toggle: ok (2 states)",
            "check deterministic Toggle: ok (at most one move per state and input)",
            "check valid Coin: ok (2 states)",
            "check deterministic Coin: FAIL (2 moves on press.p from lo)",
        ]
        users = tmp_path / "users.pw"
        users.write_text(
            (CORPUS / "mutex.pw").read_text(encoding="utf-8") + "check deterministic User;\n",
            encoding="utf-8",
        )
        assert cli(["validate", str(users)]) == 1
        out = capsys.readouterr().out.splitlines()
        # User has one move per state and input; its only fault is spontaneity
        assert out[0] == "automaton User: 4 states, 4 transitions, spontaneous"
        assert out[-1] == "check deterministic User: FAIL (spontaneous move from crit)"

    def test_missing_file_is_a_usage_error(self, capsys):
        assert cli(["validate", "/nonexistent/nowhere.pw"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_an_unknown_start_state_names_its_use_line(self, tmp_path, capsys):
        text = (CORPUS / "mutex.pw").read_text(encoding="utf-8")
        bad = tmp_path / "bad.pw"
        bad.write_text(text.replace("  use c = Server;", "  use c = Server init nowhere;"), encoding="utf-8")
        assert cli(["validate", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: line 27, col 3: network 'closed_mutex' starts 'c' in nowhere, "
            "which is not a state of 'Server'\n"
        )


    def test_an_undeclared_check_target_stops_before_any_output(self, tmp_path, capsys):
        text = (CORPUS / "mutex.pw").read_text(encoding="utf-8")
        bad = tmp_path / "bad.pw"
        bad.write_text(text + "check wellformed nosuch;\n", encoding="utf-8")
        line = text.count("\n") + 1
        assert cli(["validate", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: line {line}, col 18: no automaton or network named 'nosuch'; "
            "declared: Server, User, closed_mutex\n"
        )


class TestCheckKinds:
    def test_directives_answer_exactly_the_parsed_kinds(self):
        env = resolve(load(MUTEX))
        for kind in sorted(CHECK_KINDS):
            ok, detail = fioa.cli._run_directive(env, kind, "closed_mutex")
            assert isinstance(ok, bool) and detail
        # The parser and `fioa check`'s choices refuse every other kind
        # first, so this guard answers only a library caller.
        with pytest.raises(fioa.cli._UsageError, match="unknown check kind 'unaffected'"):
            fioa.cli._run_directive(env, "unaffected", "closed_mutex")

    def test_every_check_choice_but_unaffected_is_a_directive_kind(self):
        (commands,) = [a for a in fioa.cli._build_parser()._actions if a.dest == "command"]
        (kind,) = [a for a in commands.choices["check"]._actions if a.dest == "kind"]
        assert "unaffected" in kind.choices
        assert set(kind.choices) - {"unaffected"} <= CHECK_KINDS


class TestProduct:
    def test_product_report(self, capsys):
        assert cli(["product", MUTEX, "User", "Server"]) == 0
        out = capsys.readouterr().out
        assert "states: 16" in out
        assert "transitions: 32" in out
        assert "spontaneous: yes" in out

    def test_unknown_name_is_a_usage_error(self, capsys):
        assert cli(["product", MUTEX, "User", "Ghost"]) == 2

    def test_one_name_is_a_usage_error(self, capsys):
        assert cli(["product", MUTEX, "User"]) == 2
        assert capsys.readouterr().err == "error: product needs at least two automaton names\n"


class TestRestrictionReports:
    def test_cbr_census(self, capsys):
        assert cli(["cbr", MUTEX, "closed_mutex"]) == 0
        out = capsys.readouterr().out
        assert "configurations: 8" in out
        assert "edges: 8" in out
        assert "census relaxed/silent-in/channel-out: 4" in out
        assert "census excited/consume/silent-out: 4" in out

    def test_cond_on_a_wired_network_reports_its_graph(self, capsys):
        assert cli(["cond", MUTEX, "closed_mutex"]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == ["configurations: 8", "edges: 8"]

    def test_cond_on_an_automaton_is_a_usage_error(self, capsys):
        assert cli(["cond", MUTEX, "User"]) == 2
        assert capsys.readouterr().err == (
            "error: no network named 'User'; declared: closed_mutex\n"
        )

    def test_hitting_the_configuration_cap_is_a_usage_error(self, monkeypatch, capsys):
        import fioa.network

        monkeypatch.setattr(fioa.network, "cbr", partial(fioa.network.cbr, cap=100))
        assert cli(["cbr", str(CORPUS / "ring3.pw"), "ring3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: configuration cap of 100 exceeded while expanding")

    def test_cond_report(self, capsys):
        assert cli(["cond", ADMIN, "administrator"]) == 0
        out = capsys.readouterr().out
        assert "conditions: 4" in out
        assert "transitions kept: 20 of 24" in out
        assert "reachable states: 11" in out


# A network without channels, like a plain automaton, is a restriction by
# no channels; `{tmp}` is a directory holding broken_mutex.pw with three
# checks appended, the second of which fails its precondition.
_ANSWERS = [
    (
        "cbr-administrator",
        ["cbr", ADMIN, "administrator"],
        0,
        ["network administrator", "configurations: 11", "edges: 18", "channels: 0", "conditions: 4"],
    ),
    (
        "run-administrator",
        ["run", ADMIN, "administrator", "--bound", "5"],
        0,
        ["0\tremn|abst\tc.svc.req\t-\ttry|abst"],
    ),
    (
        "safety-administrator",
        ["safety", ADMIN, "administrator", "--predicate", "state[0] == 'crit'"],
        1,
        ["safe: no", "violation: crit|avlb", "path length: 3"],
    ),
    (
        "equiv-administrator",
        ["equiv", ADMIN, "administrator", "administrator"],
        0,
        ["sufficient bound: 121", "bound used: None", "equivalent: yes"],
    ),
    (
        "wellformed-administrator",
        ["check", "wellformed", ADMIN, "administrator"],
        0,
        ["wellformed: yes (every sent character can be consumed)"],
    ),
    (
        "protocol-administrator",
        ["check", "protocol", ADMIN, "administrator"],
        1,
        [
            "protocol: no (open components: input c.svc, input r.ring, input r.clk, "
            "output c.svc, output r.trig, output r.ring)"
        ],
    ),
    ("cbr-User", ["cbr", MUTEX, "User"], 0, ["automaton User", "configurations: 4"]),
    (
        "validate-precondition",
        ["validate", "{tmp}/checks.pw"],
        1,
        [
            "check wellformed closed_mutex: FAIL (stuck excited configuration try|remn !req@u.svc>c.svc)",
            "check consistent closed_mutex: FAIL (closed_mutex is not well-formed: "
            "excited configuration try|remn !req@u.svc>c.svc cannot consume its pending character)",
            "check protocol closed_mutex: ok (all components wired)",
        ],
    ),
]


@pytest.mark.parametrize(
    "argv, code, shown", [row[1:] for row in _ANSWERS], ids=[row[0] for row in _ANSWERS]
)
def test_every_name_has_a_configuration_graph(argv, code, shown, tmp_path, capsys):
    checks = "check wellformed closed_mutex;\ncheck consistent closed_mutex;\ncheck protocol closed_mutex;\n"
    (tmp_path / "checks.pw").write_text(
        (CORPUS / "broken_mutex.pw").read_text(encoding="utf-8") + checks, encoding="utf-8"
    )
    assert cli([arg.format(tmp=tmp_path) for arg in argv]) == code
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line in shown] == shown


class TestCheck:
    def test_consistent_ok(self, capsys):
        assert cli(["check", "consistent", MUTEX, "closed_mutex"]) == 0
        assert "consistent: yes" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "path, network, code, verdict",
        [
            (MUTEX, "closed_mutex", 0, "consistent: yes (8 anchor configurations)"),
            (
                RING2,
                "ring2",
                1,
                "consistent: no (acceptance is met in none of the reachable "
                "configurations (0 anchors))",
            ),
        ],
    )
    def test_consistent_verdict_names_its_cause(self, path, network, code, verdict, capsys):
        assert cli(["check", "consistent", path, network]) == code
        assert capsys.readouterr().out.strip() == verdict

    def test_consistent_on_a_plain_automaton(self, tmp_path, capsys):
        path = tmp_path / "fork.pw"
        path.write_text(
            "automaton Fork {\n"
            "  states a, b, c;\n"
            "  initial a;\n"
            "  accept final {b};\n"
            "  trans a -> b on - / -;\n"
            "  trans a -> c on - / -;\n"
            "}\n"
            "automaton Lost {\n"
            "  states a, z;\n"
            "  initial a;\n"
            "  accept final {z};\n"
            "  trans a -> a on - / -;\n"
            "}\n",
            encoding="utf-8",
        )
        assert cli(["check", "consistent", str(path), "Fork"]) == 1
        assert capsys.readouterr().out.strip() == (
            "consistent: no (acceptance unreachable from c)"
        )
        assert cli(["check", "consistent", str(path), "Lost"]) == 1
        assert capsys.readouterr().out.strip() == (
            "consistent: no (acceptance is met in none of the reachable configurations (0 anchors))"
        )

    @pytest.mark.parametrize(
        "path, network, stuck",
        [
            (BROKEN, "closed_mutex", "try|remn !req@u.svc>c.svc"),
            (RING_EQ, "ring_sticky", "avail|absent|wait|wait|idle|idle !timeout@t1.clk>a1.clk"),
        ],
        ids=["closed_mutex", "ring_sticky"],
    )
    def test_consistency_of_an_ill_formed_network_names_the_stuck_configuration(
        self, path, network, stuck, capsys
    ):
        assert cli(["check", "consistent", path, network]) == 2
        assert capsys.readouterr().err == (
            f"error: {network} is not well-formed: excited configuration {stuck} "
            "cannot consume its pending character\n"
        )

    def test_wellformed_failure_names_the_stuck_configuration(self, capsys):
        assert cli(["check", "wellformed", BROKEN, "closed_mutex"]) == 1
        out = capsys.readouterr().out
        assert "wellformed: no" in out
        assert "try|remn !req@u.svc>c.svc" in out

    def test_protocol_and_quasidet(self, capsys):
        assert cli(["check", "protocol", MUTEX, "closed_mutex"]) == 0
        assert cli(["check", "quasidet", MUTEX, "closed_mutex"]) == 0

    @pytest.mark.parametrize(
        "path, network, verdict",
        [
            (
                RING2,
                "ring2",
                "quasidet: no (3 moves on - from remn|avlb|remn|abst|triggered|wait|remn|remn)",
            ),
            (MITM, "relay", "quasidet: no (2 moves on - from try|crit)"),
        ],
        ids=["ring2", "relay"],
    )
    def test_quasidet_failure_names_the_nearest_clash(self, path, network, verdict, capsys):
        assert cli(["check", "quasidet", path, network]) == 1
        assert capsys.readouterr().out.strip() == verdict

    def test_failing_quasidet_directive_uses_the_same_words(self, tmp_path, capsys):
        doc = (CORPUS / "mitm.pw").read_text(encoding="utf-8")
        path = tmp_path / "relay.pw"
        path.write_text(doc + "\ncheck quasidet relay;\n", encoding="utf-8")
        assert cli(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "check quasidet relay: FAIL (2 moves on - from try|crit)" in out

    def test_unaffected_reports_each_factor(self, capsys):
        assert cli(["check", "unaffected", ADMIN, "administrator"]) == 0
        out = capsys.readouterr().out
        assert "factor c: unaffected" in out
        assert "factor r: unaffected" in out

    def test_a_network_without_conditions_leaves_every_factor_unaffected(self, capsys):
        # ring3's full product is over the transition cap, so this also
        # shows that the product is not built when there are no conditions.
        assert cli(["check", "unaffected", str(CORPUS / "ring3.pw"), "ring3"]) == 0
        out = capsys.readouterr().out
        aliases = [f"{kind}{i}" for kind in "atu" for i in (1, 2, 3)]
        assert out == "".join(f"factor {alias}: unaffected\n" for alias in aliases)

    def test_unaffected_over_the_product_cap_names_the_check(self, tmp_path, capsys):
        # One condition makes the check build ring3's full product, which
        # is over the transition cap; exploring the network does not help.
        doc = (CORPUS / "ring3.pw").read_text(encoding="utf-8").rstrip()
        assert doc.endswith("}")
        doc = doc[:-1] + (
            "  condition no_double_crit on (u1, u2): "
            "from (crit, *) to (*, crit) input spontaneous deny;\n}\n"
        )
        path = tmp_path / "ring3_cond.pw"
        path.write_text(doc, encoding="utf-8")
        assert cli(["check", "unaffected", str(path), "ring3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: check unaffected needs the full product of ring3, "
            "which is larger than the product cap allows\n"
        )

    def test_gagging_condition_marks_the_factor_affected(self, tmp_path, capsys):
        doc = (CORPUS / "administrator.pw").read_text(encoding="utf-8")
        gagged = doc + (
            "\nnetwork gagged {\n"
            "  use c = Server;\n"
            "  use r = Ring;\n"
            "  condition no_service: from (remn, *) to (try, *) deny;\n"
            "}\n"
        )
        path = tmp_path / "gagged.pw"
        path.write_text(gagged, encoding="utf-8")
        assert cli(["check", "unaffected", str(path), "gagged"]) == 1
        out = capsys.readouterr().out
        assert "factor c: affected" in out
        assert "factor r: unaffected" in out


class TestRun:
    def test_random_run_prints_a_trace(self, capsys):
        assert cli(["run", MUTEX, "closed_mutex", "--bound", "6", "--seed", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("0\tremn|remn\t-\tu.svc.req")
        assert "steps: 6" in out[-1]

    @pytest.mark.parametrize(
        "path, network, seed, bound, sends",
        [
            (MUTEX, "closed_mutex", "1", "6", ["!req@u.svc>c.svc", "!cf_req@c.svc>u.svc"]),
            (MITM, "mitm_relayed", "3", "4", ["!req@m.u.svc>c2.svc", "!req@u1.svc>m.c.svc"]),
        ],
        ids=["closed_mutex", "mitm_relayed"],
    )
    def test_channel_ends_read_like_the_label_columns(
        self, path, network, seed, bound, sends, capsys
    ):
        assert cli(["run", path, network, "--seed", seed, "--bound", bound]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[:-1]]
        assert all(send in "\n".join(row[4] for row in rows) for send in sends)
        for _step, before, consumed, emitted, after in rows:
            if consumed != "-":  # the excited configuration names its reader
                component, char = consumed.rsplit(".", 1)
                _state, pending = before.split(" !")
                assert pending.startswith(f"{char}@") and pending.endswith(f">{component}")
            if " !" in after:  # and the one a send reaches names its writer
                component, char = emitted.rsplit(".", 1)
                _state, pending = after.split(" !")
                assert pending.startswith(f"{char}@{component}>")

    def test_runs_are_reproducible_per_seed(self, capsys):
        cli(["run", MUTEX, "closed_mutex", "--bound", "9", "--seed", "4"])
        first = capsys.readouterr().out
        cli(["run", MUTEX, "closed_mutex", "--bound", "9", "--seed", "4"])
        assert capsys.readouterr().out == first

    def test_exhaustive_summary(self, capsys):
        assert (
            cli(["run", MUTEX, "closed_mutex", "--scheduler", "exhaustive", "--bound", "4"])
            == 0
        )
        out = capsys.readouterr().out
        assert "runs: 1" in out
        assert "deadlocking runs: 0" in out
        assert "shortest run: 4" in out

    def test_script_scheduler_follows_the_file(self, tmp_path, capsys):
        script = tmp_path / "choices.txt"
        script.write_text("0\n0\n0\n", encoding="utf-8")
        assert (
            cli(
                [
                    "run",
                    MUTEX,
                    "closed_mutex",
                    "--scheduler",
                    "script",
                    "--script",
                    str(script),
                ]
            )
            == 0
        )
        assert "steps: 3" in capsys.readouterr().out

    def test_script_scheduler_requires_a_script_file(self, capsys):
        assert cli(["run", MUTEX, "closed_mutex", "--scheduler", "script"]) == 2
        assert "--script" in capsys.readouterr().err

    @pytest.mark.parametrize("scheduler", [[], ["--scheduler", "random"], ["--scheduler", "exhaustive"]])
    def test_a_script_without_the_script_scheduler_is_a_usage_error(self, scheduler, tmp_path, capsys):
        script = tmp_path / "choices.txt"
        script.write_text("0\n", encoding="utf-8")
        assert cli(["run", MUTEX, "closed_mutex", *scheduler, "--script", str(script)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        shown = scheduler[-1] if scheduler else "random"
        assert captured.err == (
            f"error: --script is read only by --scheduler script, not --scheduler {shown}\n"
        )

    def test_out_of_range_choice_is_a_usage_error(self, tmp_path, capsys):
        script = tmp_path / "choices.txt"
        script.write_text("7\n", encoding="utf-8")
        assert (
            cli(
                [
                    "run",
                    MUTEX,
                    "closed_mutex",
                    "--scheduler",
                    "script",
                    "--script",
                    str(script),
                ]
            )
            == 2
        )

    def test_a_random_run_reports_its_deadlock(self, capsys):
        argv = ["run", BROKEN, "DeafServer", "--seed", "1", "--bound", "12"]
        assert cli(argv) == 0
        assert capsys.readouterr().out.splitlines() == ["steps: 0", "halted: deadlock"]

    def test_running_an_ill_formed_network_fails_cleanly(self, capsys):
        assert cli(["run", BROKEN, "closed_mutex"]) == 2

    def test_a_stuck_configuration_is_named_with_channel_labels(self, capsys):
        assert cli(["run", BROKEN, "closed_mutex"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot run closed_mutex: excited configuration "
            "try|remn !req@u.svc>c.svc is stuck\n"
        )

    def test_an_out_of_range_choice_names_its_configuration(self, tmp_path, capsys):
        script = tmp_path / "choices.txt"
        script.write_text("0\n3\n", encoding="utf-8")
        argv = ["run", MUTEX, "closed_mutex", "--scheduler", "script", "--script", str(script)]
        assert cli(argv) == 2
        assert capsys.readouterr().err == (
            "error: step 1: choice 3 out of range "
            "(1 enabled at try|remn !req@u.svc>c.svc)\n"
        )


class TestLaws:
    def test_single_law(self, capsys):
        assert cli(["laws", "separation"]) == 0
        assert "law separation: ok" in capsys.readouterr().out

    def test_all_laws_with_few_seeds(self, capsys):
        assert cli(["laws", "all", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("law ") == 5
        assert "FAIL" not in out

    def test_skips_and_failures_are_counted_and_reported(self, monkeypatch, capsys):
        def fake(law, instance=None, *, seed=0):
            if law == "cbr-commute" and seed == 0:
                return fioa.LawReport(law, False, False, "channels share a component")
            if law == "restr-product-commute" and seed == 2:
                return fioa.LawReport(law, True, False, "lhs has 3 states, rhs 4")
            return fioa.LawReport(law, True, True)

        monkeypatch.setattr(fioa.analysis, "check_law", fake)
        assert cli(["laws", "all", "--seeds", "3"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "law cbr-commute: ok (2 applicable, 1 skipped)",
            "law restr-product-commute: FAIL at seed 2 (lhs has 3 states, rhs 4)",
            "law protocol-product: ok (3 applicable, 0 skipped)",
            "law channel-condition-commute: ok (3 applicable, 0 skipped)",
            "law separation: ok",
        ]

    def test_a_failed_separation_is_reported_without_a_seed(self, monkeypatch, capsys):
        def fake(law, instance=None, *, seed=0):
            return fioa.LawReport(law, True, False, "transition sets differ")

        monkeypatch.setattr(fioa.analysis, "check_law", fake)
        assert cli(["laws", "separation"]) == 1
        assert capsys.readouterr().out == "law separation: FAIL (transition sets differ)\n"

    def test_unknown_law_is_a_usage_error(self, capsys):
        assert cli(["laws", "entropy"]) == 2


class TestEquiv:
    def test_equivalent_networks(self, capsys):
        assert cli(["equiv", RING_EQ, "ring_quasi", "ring_det"]) == 0
        out = capsys.readouterr().out
        assert "sufficient bound: 80" in out
        assert "bound used: None" in out
        assert "equivalent: yes" in out

    def test_distinguishing_trace_is_printed(self, capsys):
        assert cli(["equiv", RING_EQ, "ring_det", "ring_sticky"]) == 1
        out = capsys.readouterr().out
        assert "equivalent: no" in out
        assert "t1.clk>a1.clk timeout" in out
        assert "a1.ring>a2.ring token" in out

    def test_a_bound_below_the_sufficient_one_answers_only_up_to_it(self, capsys):
        assert cli(["equiv", RING_EQ, "ring_quasi", "ring_sticky", "--bound", "1"]) == 0
        assert capsys.readouterr().out == (
            "sufficient bound: 20\n"
            "bound used: 1\n"
            "equivalent: no difference in traces of at most 1 event\n"
        )
        # One more event finds the difference the bound of 1 left unchecked.
        assert cli(["equiv", RING_EQ, "ring_quasi", "ring_sticky", "--bound", "2"]) == 1
        assert "equivalent: no\ndistinguishing trace (2 events):" in capsys.readouterr().out

    def test_a_bound_at_the_sufficient_one_answers_yes(self, capsys):
        assert cli(["equiv", RING_EQ, "ring_quasi", "ring_det", "--bound", "80"]) == 0
        assert capsys.readouterr().out == "sufficient bound: 80\nbound used: 80\nequivalent: yes\n"
        assert cli(["equiv", RING_EQ, "ring_quasi", "ring_det", "--bound", "79"]) == 0
        assert capsys.readouterr().out.endswith("equivalent: no difference in traces of at most 79 events\n")

    def test_a_network_is_equivalent_to_itself(self, capsys):
        assert cli(["equiv", RING_EQ, "ring_quasi", "ring_quasi"]) == 0
        assert cli(["equiv", MUTEX, "closed_mutex", "closed_mutex"]) == 0

    def test_incomparable_networks_are_a_usage_error(self, capsys):
        assert cli(["equiv", RING_EQ, "ring_quasi", "DetAdmin"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: networks have different channel structure\n"

    def test_different_open_interfaces_are_a_usage_error(self, capsys):
        assert cli(["equiv", ADMIN, "Server", "Ring"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: open input components differ: Server has svc ['fin', 'req'], "
            "Ring has ring ['token']\n"
        )
        assert cli(["equiv", ADMIN, "administrator", "administrator"]) == 0
        assert "equivalent: yes" in capsys.readouterr().out


class TestCounts:
    """A count that leaves an answer without evidence is refused when the
    arguments are parsed: no seed run, no event traced, a negative walk."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["laws", "all", "--seeds", "0"], "argument --seeds: must be at least 1, not 0"),
            (
                ["equiv", RING_EQ, "ring_quasi", "ring_sticky", "--bound", "-2"],
                "argument --bound: must be at least 1, not -2",
            ),
            (
                ["equiv", RING_EQ, "ring_quasi", "ring_sticky", "--bound", "0"],
                "argument --bound: must be at least 1, not 0",
            ),
            (["run", RING2, "ring2", "--bound", "-3"], "argument --bound: must be at least 0, not -3"),
        ],
        ids=["laws-seeds-0", "equiv-bound-negative", "equiv-bound-0", "run-bound-negative"],
    )
    def test_a_meaningless_count_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as caught:
            cli(argv)
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"fioa {argv[0]}: error: {message}"

    def test_the_least_counts_are_accepted(self, capsys):
        assert cli(["run", RING2, "ring2", "--bound", "0"]) == 0
        assert capsys.readouterr().out == "steps: 0\n"
        assert cli(["equiv", RING_EQ, "ring_quasi", "ring_sticky", "--bound", "1"]) == 0
        assert "bound used: 1" in capsys.readouterr().out
        assert cli(["laws", "separation", "--seeds", "1"]) == 0
        assert capsys.readouterr().out == "law separation: ok\n"


class TestSafety:
    def test_violation_prints_a_replayable_path(self, capsys):
        code = cli(
            [
                "safety",
                MUTEX,
                "closed_mutex",
                "--predicate",
                "state[0]=='crit' and state[1]=='crit'",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "safe: no" in out
        assert "violation: crit|crit" in out
        assert "path length: 4" in out
        assert "start remn|remn" in out

    def test_exclusion_holds_on_the_ring(self, capsys):
        code = cli(
            [
                "safety",
                RING2,
                "ring2",
                "--predicate",
                "state[6]=='crit' and state[7]=='crit'",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "safe: yes" in out
        assert "configurations checked: 170" in out

    def test_pending_is_visible_to_predicates(self, capsys):
        assert cli(["safety", MUTEX, "closed_mutex", "--predicate", "pending == 'req'"]) == 1

    def test_generator_expressions_see_the_state(self, capsys):
        base = ["safety", RING2, "ring2", "--predicate"]
        assert cli(base + ["state[0] == 'crit' and state[6] == 'crit'"]) == 1
        expected = capsys.readouterr().out
        assert cli(base + ["sum(state[k] == 'crit' for k in (0, 6)) >= 2"]) == 1
        assert capsys.readouterr().out == expected

    def test_bad_predicate_syntax_is_a_usage_error(self, capsys):
        assert cli(["safety", MUTEX, "closed_mutex", "--predicate", "state[0]=="]) == 2
        assert "does not parse" in capsys.readouterr().err

    def test_predicate_runtime_errors_are_usage_errors(self, capsys):
        assert cli(["safety", MUTEX, "closed_mutex", "--predicate", "state[99]=='x'"]) == 2
        assert "predicate failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "predicate, construct",
        [
            ("().__class__.__base__.__subclasses__()", "Attribute"),
            ("__import__('os')", "__import__('os')"),
            ("[__x for __x in state]", "__x"),
            ("state[0]()", "state[0]()"),
            ("len(state, key=0)", "keyword"),
            ("lambda: 0", "Lambda"),
        ],
    )
    def test_predicates_off_the_surface_are_rejected_before_running(
        self, predicate, construct, capsys
    ):
        assert cli(["safety", MUTEX, "closed_mutex", "--predicate", predicate]) == 2
        err = capsys.readouterr().err
        assert "predicate rejected" in err and construct in err

    def test_the_whole_surface_is_accepted(self, capsys):
        base = ["safety", MUTEX, "closed_mutex", "--predicate"]
        assert cli(base + ["state[0]=='crit' and state[1]=='crit'"]) == 1
        expected = capsys.readouterr().out
        predicate = (
            "(sum([x == 'crit' for x in state[0:2]]) + 0 * len(state) // 1 % 5 / 1 - -1 >= 3"
            " and +1 > 0 and 'c' not in ('a',) and 'a' in 'ab' and all([state[-1] != 'x'])"
            " and any(p is None or p is not None for p in (pending,)) and 1 <= 2 < 3)"
            " if pending is None else not True"
        )
        assert cli(base + [predicate]) == 1
        assert capsys.readouterr().out == expected


class TestDot:
    def test_network_target_renders_the_config_graph(self, capsys):
        assert cli(["dot", MUTEX, "closed_mutex"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "closed_mutex" {')
        assert "style=dashed" in out

    def test_automaton_target_renders_the_plain_graph(self, capsys):
        assert cli(["dot", MUTEX, "User"]) == 0
        assert 'digraph "User" {' in capsys.readouterr().out

    def test_out_flag_writes_a_file(self, tmp_path, capsys):
        target = tmp_path / "graph.dot"
        assert cli(["dot", MUTEX, "closed_mutex", "--out", str(target)]) == 0
        assert target.read_text(encoding="utf-8").startswith("digraph")


class TestExamples:
    def test_list_names_everything_bundled(self, capsys):
        assert cli(["examples", "list"]) == 0
        names = capsys.readouterr().out.split()
        assert names == list(examples.names())

    def test_emit_writes_the_canonical_text(self, tmp_path, capsys):
        assert cli(["examples", "emit", "mutex", "--dir", str(tmp_path)]) == 0
        emitted = (tmp_path / "mutex.pw").read_text(encoding="utf-8")
        assert emitted == (CORPUS / "mutex.pw").read_text(encoding="utf-8")

    def test_emit_needs_a_name(self, capsys):
        assert cli(["examples", "emit"]) == 2

    def test_emit_rejects_unknown_names(self, capsys):
        assert cli(["examples", "emit", "perpetuum_mobile"]) == 2


def test_importing_the_cli_loads_no_graph_library():
    src = Path(fioa.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, fioa.cli; print('networkx' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


_HASH_SEED_PROBE = """
import contextlib, io, json, sys
from fioa.cli import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    """Every command's output reads the same under any PYTHONHASHSEED.

    One interpreter per seed runs the whole command list through `cli`.
    """
    bad = tmp_path / "bad.pw"
    bad.write_text(
        "automaton Blinker {\n"
        "  states dark, lit;\n"
        "  initial dark;\n"
        "  accept muller {{dark, lit}, {dusk, dawn, noon}};\n"
        "}\n",
        encoding="utf-8",
    )
    commands = [["validate", str(bad)], ["validate", RING_EQ]]
    for path, network in (
        (MUTEX, "closed_mutex"),
        (RING2, "ring2"),
        (MITM, "mitm_relayed"),
        (RING_EQ, "ring_quasi"),
        (RING_EQ, "ring_sticky"),
    ):
        commands += [
            ["cbr", path, network],
            ["cond", path, network],
            *(["check", kind, path, network] for kind in ("wellformed", "consistent", "quasidet")),
            ["dot", path, network],
            ["run", path, network, "--seed", "1", "--bound", "12"],
        ]
    commands += [
        ["equiv", MITM, "mitm", "mitm_relayed"],
        ["equiv", RING_EQ, "ring_quasi", "ring_det"],
        ["equiv", RING_EQ, "ring_quasi", "ring_sticky"],
    ]
    src = Path(fioa.__file__).resolve().parent.parent

    def outputs_under(seed: str) -> list:
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE, json.dumps(commands)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    # Seeds 0 and 4 once named different states in the first command, when
    # the parser read them from a set.
    first = outputs_under("0")
    assert first[0] == [2, "", "error: line 1, col 11: acceptance names undeclared state 'dusk'\n"]
    assert first[1][0] == 0
    assert {code for code, _out, _err in first} == {0, 1, 2}
    assert outputs_under("4") == first


def test_the_entry_points_run_the_cli(monkeypatch, capsys):
    """`python -m fioa` and the `fioa` console script both dispatch to `cli`."""
    pyproject = (CORPUS.parent.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^fioa = "fioa\.cli:cli"$', pyproject, re.M)
    monkeypatch.setattr(sys, "argv", ["fioa", "examples", "list"])
    with pytest.raises(SystemExit) as caught:
        runpy.run_module("fioa", run_name="__main__")
    assert caught.value.code == 0
    assert tuple(capsys.readouterr().out.split()) == examples.names()
