"""Analysis toolkit: operator laws, trace equivalence, safety search."""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest

import fioa.analysis
import oracle
from fioa import (
    LAWS,
    Acceptance,
    Channel,
    LawReport,
    TraceEquivalence,
    Transition,
    WiringError,
    automata_equal,
    cbr,
    channel_str,
    check_law,
    cond,
    examples,
    flatten,
    random_nfioa,
    run_law_suite,
    safety_query,
    trace_equivalent,
    trace_language,
    weak_product,
)
from fioa.analysis import law_instance
from fioa.channels import ALL_EDGE_CLASSES, edge_census
from fioa.conditions import Condition, IoPattern, Scope
from fioa.core import ComponentAlphabet, Nfioa
from fioa.dsl import WorkbenchDocument, resolve


REQUEST = (Channel(0, 1), "req")
CONFIRM_REQ = (Channel(1, 0), "cf_req")
RELEASE = (Channel(0, 1), "fin")
CONFIRM_FIN = (Channel(1, 0), "cf_fin")


@pytest.fixture(scope="module")
def mutex(mutex_env):
    return mutex_env.networks["closed_mutex"].restricted


class TestLaws:
    def test_the_five_laws_are_registered(self):
        assert LAWS == (
            "cbr-commute",
            "restr-product-commute",
            "protocol-product",
            "channel-condition-commute",
            "separation",
        )

    @pytest.mark.parametrize("law", [l for l in LAWS if l != "separation"])
    def test_law_holds_on_seeded_instances(self, law):
        for seed in range(40):
            rep = check_law(law, seed=seed)
            assert rep.passed, (law, seed, rep.detail)

    def test_suite_runner_collects_no_failures(self):
        failures = run_law_suite(seeds=25)
        assert all(not bad for bad in failures.values())

    def test_suite_runner_records_each_failure_with_its_seed(self, monkeypatch):
        def fake(law, instance=None, *, seed=0):
            return LawReport(law, True, seed != 1, "lhs has 3 states, rhs 4" if seed == 1 else None)

        monkeypatch.setattr(fioa.analysis, "check_law", fake)
        assert run_law_suite(["cbr-commute", "separation"], seeds=3) == {
            "cbr-commute": [(1, LawReport("cbr-commute", True, False, "lhs has 3 states, rhs 4"))],
            "separation": [],
        }

    @pytest.mark.parametrize("channel", [Channel(2, 0), Channel(0, 2)], ids=["output", "input"])
    def test_a_channel_outside_the_second_factor_is_inapplicable(self, channel):
        a = random_nfioa(1, n_inputs=1, n_outputs=1, n_states=3)
        b = random_nfioa(2, n_inputs=2, n_outputs=2, n_states=3)
        assert check_law("restr-product-commute", (a, b, channel)) == LawReport(
            "restr-product-commute", False, False, "channel is not local to the second factor"
        )

    def test_interfaces_that_cannot_be_closed_pairwise_are_inapplicable(self):
        a1 = random_nfioa(3, n_inputs=2, n_outputs=1, n_states=3)
        a2 = random_nfioa(4, n_inputs=1, n_outputs=1, n_states=3)
        assert check_law("protocol-product", (a1, (), a2, ())) == LawReport(
            "protocol-product", False, False, "interfaces cannot be closed pairwise"
        )

    def test_overlapping_channels_make_an_instance_inapplicable(self):
        a, c1, _ = law_instance("cbr-commute", 0)
        rep = check_law("cbr-commute", (a, c1, c1))
        assert not rep.applicable
        assert rep.passed  # inapplicable never counts as failure

    def test_unknown_law_is_rejected(self):
        with pytest.raises(WiringError):
            check_law("conservation-of-mass")

    def test_unknown_law_with_an_instance_is_rejected(self):
        """A given instance skips `law_instance`, so `check_law` itself refuses the name."""
        with pytest.raises(WiringError, match="^unknown law 'no-such-law'$"):
            check_law("no-such-law", instance=())

    def test_closed_wiring_that_is_no_protocol_fails_the_law(self, monkeypatch):
        assert check_law("protocol-product", seed=0).passed
        monkeypatch.setattr(fioa.analysis, "is_protocol", lambda r: False)
        assert check_law("protocol-product", seed=0) == LawReport(
            "protocol-product", True, False, "closed wiring did not yield a protocol"
        )

    def test_product_with_prerestricted_factor_alone_is_not_enough(self):
        """Why the product/restriction law re-imposes the wiring on both sides.

        Flattening a restricted factor forgets which of its states are only
        reachable mid-handshake, so the bare product lets the other factor
        move from those states.  The law's right-hand side therefore wires
        the channel again after composing; comparing against the bare
        product instead would fail on this two-state walker.
        """

        handshake = Nfioa(
            name="handshake",
            states=[("b0",), ("b1",), ("b2",)],
            inputs=(ComponentAlphabet("mr", ("m",)),),
            outputs=(ComponentAlphabet("ms", ("m",)),),
            initial=("b0",),
            acceptance=Acceptance.final([("b2",)]),
            transitions=[
                Transition(("b0",), ("b1",), ("",), ("m",)),
                Transition(("b1",), ("b2",), ("m",), ("",)),
            ],
        )
        walker = Nfioa(
            name="walker",
            states=[("a0",), ("a1",)],
            inputs=(),
            outputs=(),
            initial=("a0",),
            acceptance=Acceptance.final([("a1",)]),
            transitions=[Transition(("a0",), ("a1",), (), ())],
        )
        loopback = Channel(0, 0)
        prod, index = weak_product([walker, handshake])
        shifted = Channel(index.span("output", 1).start, index.span("input", 1).start)

        lhs = flatten(cbr(prod, (shifted,)))
        mid_handshake_walk = Transition(("a0", "b1"), ("a1", "b1"), ("",), ("",))
        assert mid_handshake_walk not in lhs.transitions

        naive_rhs, _ = weak_product([walker, flatten(cbr(handshake, (loopback,)))])
        assert mid_handshake_walk in naive_rhs.transitions
        assert not automata_equal(lhs, naive_rhs).equal

        law_rhs = flatten(cbr(naive_rhs, (shifted,)))
        assert automata_equal(lhs, law_rhs, up_to_reachability=False).equal

    def test_condition_restriction_also_commutes_with_products(self):
        """Conditions scoped to one factor move through the product freely.

        Guarding a factor's conditions to its own slots (wildcard states and
        shifted component indices elsewhere) makes restricting the product
        agree with composing the restricted factor, up to reachability.
        Unlike channels this needs no second restriction pass: conditions
        carry no handshake state.
        """

        for seed in range(60):
            bystander = random_nfioa(seed=seed)
            target, _, conditions = law_instance("channel-condition-commute", seed + 10_000)
            shifted = tuple(
                _shift_into_product(c, bystander, target) for c in conditions
            )
            prod, _ = weak_product([bystander, target])
            lhs = cond(prod, shifted)
            rhs, _ = weak_product([bystander, cond(target, conditions)])
            verdict = automata_equal(lhs, rhs)
            assert verdict.equal, (seed, verdict.reason)


def _shift_into_product(c, left, right):
    """Re-aim a condition on `right` at the product [left, right]."""

    width = len(left.initial)
    off_in, off_out = len(left.inputs), len(left.outputs)

    def shift_io(pat, off):
        if pat is None or pat.kind in ("any", "silent"):
            return pat
        return IoPattern(
            pat.kind,
            None if pat.component is None else pat.component + off,
            pat.character,
        )

    return Condition(
        name=c.name,
        source=("*",) * width + tuple(c.source),
        target=("*",) * width + tuple(c.target),
        input=shift_io(c.input, off_in),
        output=shift_io(c.output, off_out),
        scope=Scope(
            state_components=tuple(i + width for i in range(len(right.initial))),
            input_components=tuple(i + off_in for i in range(len(right.inputs))),
            output_components=tuple(i + off_out for i in range(len(right.outputs))),
        ),
    )


class TestSeparation:
    def test_direct_and_relayed_interception_agree_exactly(self):
        lhs, rhs = examples.separation_sides()
        assert len(lhs.states) == 40
        assert len(lhs.transitions) == 50
        rep = automata_equal(lhs, rhs, up_to_reachability=False)
        assert rep.equal, rep.reason

    def test_separation_law_report(self):
        rep = check_law("separation")
        assert rep.applicable and rep.ok


class TestTraceLanguage:
    def test_handshake_language_is_a_single_chain(self, mutex):
        lang = trace_language(mutex, 4)
        chain = (REQUEST, CONFIRM_REQ, RELEASE, CONFIRM_FIN)
        assert lang == frozenset(chain[:k] for k in range(5))

    def test_language_grows_with_the_bound(self, mutex):
        assert trace_language(mutex, 2) < trace_language(mutex, 6)

    def test_language_is_prefix_closed(self, mutex):
        lang = trace_language(mutex, 8)
        for trace in lang:
            for k in range(len(trace)):
                assert trace[:k] in lang

    def test_random_instance_languages_are_prefix_closed(self):
        for seed in range(30):
            a, c1, c2 = law_instance("cbr-commute", seed)
            r = cbr(a, (c1, c2))
            lang = trace_language(r, 3)
            assert () in lang
            for trace in lang:
                for k in range(len(trace)):
                    assert trace[:k] in lang, seed
            assert trace_language(r, 2) <= lang, seed


class TestChannelEventsAgainstLabels:
    """The graph's `pending` against the send each output label makes."""

    def test_every_edge_sends_what_its_label_says(self, differential):
        sends = 0
        for r, naive in differential:
            for es in r.graph.edges.values():
                for e in es:
                    assert e.target.pending == oracle.event(naive, e.transition), r.name
                    sends += e.target.pending is not None
        assert sends > 0

    def test_edge_census_matches_the_label_census(self, differential, unwired):
        total = Counter()
        for r, naive in differential + unwired:
            census = edge_census(r)
            assert census == oracle.census(naive), r.name
            total.update(census)
        assert set(total) == set(ALL_EDGE_CLASSES)

    def test_trace_language_matches_the_label_traces(self, differential, corpus_oracle):
        lockstep = oracle.Lockstep()
        longest = 0
        for r, naive in differential[len(corpus_oracle) :]:
            lang = trace_language(r, 4)
            assert lang == lockstep.trace_language(naive, 4), r.name
            longest = max(longest, max(map(len, lang)))
        assert longest == 4
        assert max(lockstep.closure_sizes) >= 2


class TestTraceEquivalence:
    def test_quasi_and_deterministic_rings_are_equivalent(self, ring_eq_env):
        quasi = ring_eq_env.networks["ring_quasi"].restricted
        det = ring_eq_env.networks["ring_det"].restricted
        assert len(quasi.graph.configs) == 10
        assert len(det.graph.configs) == 8
        verdict = trace_equivalent(quasi, det)
        assert verdict.equal
        assert verdict.sufficient_bound == 80
        assert verdict.bound_used is None  # ran to fixpoint

    def test_sticky_ring_is_distinguished_after_two_events(self, ring_eq_env):
        det = ring_eq_env.networks["ring_det"].restricted
        sticky = ring_eq_env.networks["ring_sticky"].restricted
        verdict = trace_equivalent(det, sticky)
        assert not verdict.equal
        assert verdict.distinguishing == (
            (Channel(6, 2), "timeout"),  # timer fires at the first cell
            (Channel(2, 4), "token"),  # the handover the sticky cell refuses
        )

    def test_busy_users_expose_the_quasi_administrator(self):
        """With idle clients the two administrators look alike; with real
        ones the checker refutes equivalence and produces a witness.

        The network administrator may answer a request with nothing
        scheduled between the timer firing and the confirmation, while the
        one-machine administrator that consumed a timeout has already
        committed the token to its neighbour.  The shortest witness is
        exactly that: a timeout at the first cell followed by a client
        request the quasi ring can still absorb.
        """

        doc = WorkbenchDocument(
            automata=(
                examples.user_role(),
                examples.server_role(),
                examples.ring_role(),
                examples.timer_role(),
                examples.det_admin_role(),
            ),
            networks=(
                examples.administrator_def(),
                examples.ring_def(2, name="busy_quasi"),
                examples.ring_def(
                    2,
                    name="busy_det",
                    admin_ref="DetAdmin",
                    admin_first_init=("avail",),
                ),
            ),
        )
        resolved = resolve(doc)
        quasi = resolved.networks["busy_quasi"].restricted
        det = resolved.networks["busy_det"].restricted
        verdict = trace_equivalent(quasi, det)
        assert not verdict.equal
        assert verdict.bound_used is None  # refuted at the fixpoint, not cut off
        assert verdict.distinguishing == (
            (Channel(6, 2), "timeout"),
            (Channel(8, 0), "req"),
        )
        labels = [channel_str(quasi, ch) for ch, _ in verdict.distinguishing]
        assert labels == ["t1.clk>a1.r.clk", "u1.svc>a1.c.svc"]

    def test_too_small_a_bound_hides_the_difference(self, ring_eq_env):
        det = ring_eq_env.networks["ring_det"].restricted
        sticky = ring_eq_env.networks["ring_sticky"].restricted
        verdict = trace_equivalent(det, sticky, bound=1)
        assert verdict.equal
        assert verdict.bound_used == 1

    def test_different_channel_structure_is_a_precondition_failure(self, mutex, ring_eq_env):
        with pytest.raises(WiringError, match="channel structure"):
            trace_equivalent(mutex, ring_eq_env.networks["ring_det"].restricted)

    def test_different_sender_alphabets_are_a_precondition_failure(self, mutex):
        base = flatten(mutex)
        widened = Nfioa(
            name="wide",
            states=base.states,
            inputs=(
                base.inputs[0],
                ComponentAlphabet(
                    base.inputs[1].name, base.inputs[1].characters | {"ping"}
                ),
            ),
            outputs=(
                ComponentAlphabet(
                    base.outputs[0].name, base.outputs[0].characters | {"ping"}
                ),
                base.outputs[1],
            ),
            initial=base.initial,
            acceptance=base.acceptance,
            transitions=base.transitions,
        )
        other = cbr(widened, mutex.channels)
        with pytest.raises(WiringError) as caught:
            trace_equivalent(mutex, other)
        assert str(caught.value) == (
            "channel u.svc>c.svc carries ['fin', 'req'] on one side, "
            "['fin', 'ping', 'req'] on the other"
        )

    def test_different_open_interfaces_are_a_precondition_failure(self, admin_env):
        server, ring = admin_env.automata["Server"], admin_env.automata["Ring"]
        with pytest.raises(WiringError) as caught:
            trace_equivalent(cbr(server), cbr(ring))
        assert str(caught.value) == (
            "open input components differ: Server has svc ['fin', 'req'], Ring has ring ['token']"
        )
        for kind in ("input", "output"):
            # The same interface with one more component, which never moves.
            wider = replace(
                server,
                name="wider",
                transitions=[t._replace(**{kind: getattr(t, kind) + ("",)}) for t in server.transitions],
                **{f"{kind}s": getattr(server, f"{kind}s") + (ComponentAlphabet("idle", ("x",)),)},
            )
            with pytest.raises(WiringError) as caught:
                trace_equivalent(cbr(wider), cbr(server))
            assert str(caught.value) == (
                f"open {kind} components differ: wider has idle ['x'], Server has no more"
            )
            assert trace_equivalent(cbr(wider), cbr(wider)).equal

    def test_every_network_is_equivalent_to_itself(self, all_restrictions):
        from fioa import is_well_formed

        for built in all_restrictions:
            r = built.restricted
            if not is_well_formed(r).ok:
                continue
            assert trace_equivalent(r, r).equal


def _ring(n):  # as built, and the oracle's graph of it
    built = resolve(examples.ring_document(n)).networks[f"ring{n}"]
    c = built.compiled
    return built.restricted, oracle.explore(c.factors, c.channels, c.conditions)


class TestTraceEquivalenceAgainstTheNaiveLockstep:
    BOUNDS = (None, 1, 2, 4)

    def _compare(self, lockstep, one, other):
        """Both walks on an ordered pair of `(r, naive)` at every bound; False if incomparable."""
        (r1, n1), (r2, n2) = one, other
        for bound in self.BOUNDS:
            want = lockstep.trace_equivalent(n1, n2, bound)
            if want is None:
                with pytest.raises(WiringError):
                    trace_equivalent(r1, r2, bound=bound)
                return False
            got = trace_equivalent(r1, r2, bound=bound)
            assert isinstance(got, TraceEquivalence)
            assert got == want, (r1.name, r2.name, bound)
            self.verdicts[got.equal] += 1
        return True

    @pytest.fixture(autouse=True)
    def _tally(self):
        self.verdicts = Counter()

    def test_every_corpus_pair_with_the_same_channel_skeleton(self, corpus_oracle):
        lockstep = oracle.Lockstep()
        compared = sum(self._compare(lockstep, one, other) for one in corpus_oracle for other in corpus_oracle)
        assert compared > len(corpus_oracle)  # more than the self-pairs
        assert self.verdicts[False] and self.verdicts[True]
        assert max(lockstep.closure_sizes) >= 2

    def test_bounded_trace_languages_of_the_corpus(self, corpus_oracle):
        lockstep = oracle.Lockstep()
        longest = 0
        for r, naive in corpus_oracle:
            lang = trace_language(r, 4)
            assert lang == lockstep.trace_language(naive, 4), r.name
            longest = max(longest, max(map(len, lang)))
        assert longest == 4
        assert max(lockstep.closure_sizes) >= 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rings_against_a_rebuilt_copy(self, n):
        lockstep = oracle.Lockstep()
        r, naive = _ring(n)
        copy = resolve(examples.ring_document(n)).networks[f"ring{n}"].restricted
        assert r is not copy
        assert self._compare(lockstep, (r, naive), (copy, naive))
        assert self.verdicts == {True: len(self.BOUNDS)}
        assert max(lockstep.closure_sizes) >= 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ring_trace_languages_at_bound_six(self, n):
        r, naive = _ring(n)
        lang = trace_language(r, 6)
        assert lang == oracle.Lockstep().trace_language(naive, 6)
        assert max(map(len, lang)) == 6

    def test_closures_that_differ_only_by_nonsenders_reached_at_different_depths(self):
        """Trace `a` and trace `b a` reach silent closures with the same
        senders but different configurations that send nothing: after `a`
        the closure also holds a silent 2-cycle.  The copy drops the send
        that follows `a b`, so the shortest distinguishing trace runs
        through the shorter of the two.
        """
        T = lambda s, t, i="", o="": Transition((s,), (t,), (i,), (o,))
        transitions = {
            T("p0", "p1", o="a"), T("p1", "q", i="a"),
            T("q", "q2"), T("q2", "q"), T("q", "r"),
            T("p0", "p2", o="b"), T("p2", "p3", i="b"),
            T("p3", "p4", o="a"), T("p4", "r", i="a"),
            T("r", "r1", o="b"), T("r1", "r2", i="b"),
            T("r2", "r3", o="a"), T("r3", "p0", i="a"),
        }
        states = sorted({t.source for t in transitions})
        a = Nfioa(
            name="merge",
            states=states,
            inputs=(ComponentAlphabet("in", "ab"),),
            outputs=(ComponentAlphabet("out", "ab"),),
            initial=("p0",),
            acceptance=Acceptance.final(states),
            transitions=transitions,
        )
        loop = (Channel(0, 0),)
        cut = replace(a, name="cut", transitions=transitions - {T("r2", "r3", o="a")})
        r, copy = cbr(a, loop), cbr(cut, loop)
        n, n_copy = oracle.explore([a], loop), oracle.explore([cut], loop)
        ev_a, ev_b = (loop[0], "a"), (loop[0], "b")

        lockstep, view = oracle.Lockstep(), fioa.analysis._EventView(r)
        steps = lockstep.event_steps(n, lockstep.closure(n, [n.initial]))
        after_a, after_ba = steps[ev_a], lockstep.event_steps(n, steps[ev_b])[ev_a]
        assert after_a != after_ba
        first = dict(zip(*view.steps(view.initial)))
        assert first[ev_a] == dict(zip(*view.steps(first[ev_b])))[ev_a]

        for bound in self.BOUNDS:
            for (r1, n1), (r2, n2) in (((r, n), (copy, n_copy)), ((copy, n_copy), (r, n))):
                got = trace_equivalent(r1, r2, bound=bound)
                assert got == lockstep.trace_equivalent(n1, n2, bound), (r1.name, bound)
                if bound in (None, 4):
                    assert got.distinguishing == (ev_a, ev_b, ev_a)
                else:
                    assert got.equal

    def test_random_networks_against_a_copy_with_a_transition_dropped(self, generated):
        lockstep = oracle.Lockstep()
        for case, built in generated[:100]:
            c = built.compiled
            a = weak_product(c.factors)[0]
            if not a.transitions:
                continue  # nothing to drop
            r1 = cbr(a, c.channels, conditions=c.conditions)
            drop = random.Random(case.seed).choice(sorted(r1.base.transitions or a.transitions))
            cut = replace(a, transitions=a.transitions - {drop})
            r2 = cbr(cut, c.channels, conditions=c.conditions)
            n2 = oracle.explore([cut], c.channels, c.conditions)
            assert self._compare(lockstep, (r1, case.naive), (r2, n2)), case.seed
            assert self._compare(lockstep, (r2, n2), (r1, case.naive)), case.seed
        assert self.verdicts[False] >= 20 and self.verdicts[True] >= 20
        assert sum(k for k in lockstep.closure_sizes if k >= 2) > 0
        assert lockstep.silent_cycles > 0


class TestEventViewAgainstTheNaiveClosures:
    """Each view node is the naive silent closure cut down to its senders:
    the configurations with an edge whose target has a `pending`."""

    @staticmethod
    def _check(lockstep, r, naive):
        """The invariant on every configuration of `r`; how many closures
        held a configuration that sends nothing."""
        view = fioa.analysis._EventView(r)
        number = {c: i for i, c in enumerate(r.graph.nodes)}

        def senders(closure):
            return frozenset(
                number[c] for c in closure if any(oracle.event(naive, t) for t, _ in naive.edges[c])
            )

        cut = 0
        for i, c in enumerate(r.graph.nodes):
            closure = lockstep.closure(naive, [c])
            node = view._closure(i)
            assert node == senders(closure), (r.name, i)
            cut += len(node) < len(closure)
            events, nexts = view.steps(node)
            want = lockstep.event_steps(naive, closure)
            assert events == tuple(sorted(want)), (r.name, i)
            assert nexts == tuple(senders(want[ev]) for ev in events), (r.name, i)
        return cut

    def test_every_corpus_restriction(self, corpus_oracle):
        lockstep = oracle.Lockstep()
        assert all(self._check(lockstep, r, naive) for r, naive in corpus_oracle)

    def test_chains_of_single_silent_moves(self):
        """Sending `a` leads into a silent 2-cycle of configurations with one
        move each, which sends nothing; sending `b` leads down a chain of
        single silent moves to a sender, whose send leads back to the
        initial configuration through one more.  Every configuration on a
        chain gets the closure of the chain's end.  The copy drops that
        last send."""
        T = lambda s, t, i="", o="": Transition((s,), (t,), (i,), (o,))
        transitions = {
            T("p0", "p1", o="a"), T("p1", "c0", i="a"), T("c0", "c1"), T("c1", "c0"),
            T("p0", "p2", o="b"), T("p2", "d0", i="b"), T("d0", "d1"), T("d1", "d2"),
            T("d2", "d3", o="a"), T("d3", "p0", i="a"),
        }
        states = sorted({t.source for t in transitions})
        a = Nfioa(
            name="chains",
            states=states,
            inputs=(ComponentAlphabet("in", "ab"),),
            outputs=(ComponentAlphabet("out", "ab"),),
            initial=("p0",),
            acceptance=Acceptance.final(states),
            transitions=transitions,
        )
        loop = (Channel(0, 0),)
        cut = replace(a, name="cut", transitions=transitions - {T("d2", "d3", o="a")})
        r, copy = cbr(a, loop), cbr(cut, loop)
        n, n_copy = oracle.explore([a], loop), oracle.explore([cut], loop)
        ev_a, ev_b = (loop[0], "a"), (loop[0], "b")
        number = {(c.state[0], c.excited): i for i, c in enumerate(r.graph.nodes)}

        view = fioa.analysis._EventView(r)
        first = dict(zip(*view.steps(view.initial)))
        assert first == {ev_a: frozenset(), ev_b: frozenset({number["d2", False]})}
        cycle = [("p1", True), ("c0", False), ("c1", False)]
        chain = [("p2", True), ("d0", False), ("d1", False), ("d2", False)]
        assert {view._closures[number[k]] for k in cycle} == {frozenset()}
        assert {view._closures[number[k]] for k in chain} == {first[ev_b]}
        # `d3`'s one silent move ends at the initial configuration, whose
        # closure is known.
        assert dict(zip(*view.steps(first[ev_b]))) == {ev_a: view.initial}
        assert view._closures[number["d3", True]] is view.initial

        lockstep = oracle.Lockstep()
        assert self._check(lockstep, r, n) and self._check(lockstep, copy, n_copy)
        assert lockstep.silent_cycles > 0
        assert trace_language(r, 5) == lockstep.trace_language(n, 5)
        for bound in (None, 1, 2, 3):
            for (r1, n1), (r2, n2) in (((r, n), (copy, n_copy)), ((copy, n_copy), (r, n))):
                got = trace_equivalent(r1, r2, bound=bound)
                assert got == lockstep.trace_equivalent(n1, n2, bound), (r1.name, bound)
                assert got.distinguishing == (None if bound == 1 else (ev_b, ev_a))

    def test_random_networks(self, generated):
        lockstep = oracle.Lockstep()
        cut = sum(self._check(lockstep, built.restricted, case.naive) > 0 for case, built in generated)
        assert cut >= len(generated) // 2
        assert lockstep.silent_cycles > 0


class TestSafety:
    def test_shared_criticality_is_reachable_in_the_handshake(self, mutex):
        report = safety_query(mutex, lambda c: c.state == ("crit", "crit"))
        assert not report.ok
        assert report.violation.state == ("crit", "crit")
        assert len(report.path) == 4
        # the path replays from the initial configuration
        at = mutex.graph.initial
        for edge in report.path:
            assert edge in mutex.graph.edges[at]
            at = edge.target
        assert at == report.violation

    def test_unreachable_shapes_come_back_safe(self, mutex):
        report = safety_query(
            mutex, lambda c: c.state[0] == "crit" and c.state[1] == "remn"
        )
        assert report.ok
        assert report.violation is None and report.path is None

    def test_violation_at_the_initial_configuration_has_an_empty_path(self, mutex):
        report = safety_query(mutex, lambda c: True)
        assert not report.ok
        assert report.violation == mutex.graph.initial
        assert report.path == ()

    def test_ring_exclusion_as_a_safety_query(self, ring2_env):
        r = ring2_env.networks["ring2"].restricted
        report = safety_query(
            r, lambda c: c.state[6] == "crit" and c.state[7] == "crit"
        )
        assert report.ok
