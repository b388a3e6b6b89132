"""Command-line interface: exit codes and output contracts."""
from __future__ import annotations

import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import fioa
from fioa import examples
from fioa.cli import cli

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

    def test_missing_file_is_a_usage_error(self, capsys):
        assert cli(["validate", "/nonexistent/nowhere.pw"]) == 2
        assert "error:" in capsys.readouterr().err


class TestProduct:
    def test_product_report(self, capsys):
        assert cli(["product", MUTEX, "User", "Server"]) == 0
        out = capsys.readouterr().out
        assert "states: 16" in out
        assert "transitions: 32" in out
        assert "spontaneous: yes" in out

    def test_unknown_name_is_a_usage_error(self, capsys):
        assert cli(["product", MUTEX, "User", "Ghost"]) == 2


class TestRestrictionReports:
    def test_cbr_census(self, capsys):
        assert cli(["cbr", MUTEX, "closed_mutex"]) == 0
        out = capsys.readouterr().out
        assert "configurations: 8" in out
        assert "edges: 8" in out
        assert "census relaxed/silent-in/channel-out: 4" in out
        assert "census excited/consume/silent-out: 4" in out

    def test_cbr_needs_a_channel_network(self, capsys):
        assert cli(["cbr", ADMIN, "administrator"]) == 2

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
            "consistent: no (acceptance is met in none of the reachable states (0 anchors))"
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

    def test_incomparable_networks_are_a_usage_error(self, capsys):
        assert cli(["equiv", RING_EQ, "ring_quasi", "ring_quasi"]) == 0
        assert cli(["equiv", MUTEX, "closed_mutex", "closed_mutex"]) == 0


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


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    """A document's errors and verdicts read the same under any PYTHONHASHSEED."""
    bad = tmp_path / "bad.pw"
    bad.write_text(
        "automaton Blinker {\n"
        "  states dark, lit;\n"
        "  initial dark;\n"
        "  accept muller {{dark, lit}, {dusk, dawn, noon}};\n"
        "}\n",
        encoding="utf-8",
    )
    src = Path(fioa.__file__).resolve().parent.parent

    def fioa_under(seed: str, *args: str) -> tuple[int, str, str]:
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, "-m", "fioa", *args], env=env, capture_output=True, text=True
        )
        return done.returncode, done.stdout, done.stderr

    # Seeds 0 and 4 once named different states here, when the parser read them from a set.
    first = fioa_under("0", "validate", str(bad))
    assert first == (2, "", "error: line 1, col 11: acceptance names undeclared state 'dusk'\n")
    assert fioa_under("4", "validate", str(bad)) == first
    verdicts = fioa_under("0", "validate", RING_EQ)
    assert verdicts[0] == 0
    assert fioa_under("4", "validate", RING_EQ) == verdicts
