"""Analysis toolkit: operator laws, trace equivalence, safety search."""
from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import fioa.analysis
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
from fioa.analysis import _weld, law_instance
from fioa.channels import ALL_EDGE_CLASSES, EdgeClass, edge_census
from fioa.conditions import Condition, IoPattern, Scope
from fioa.core import ComponentAlphabet, Nfioa, active_slot
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

    @given(st.integers(min_value=0, max_value=120))
    @settings(max_examples=60, deadline=None)
    def test_condition_restriction_also_commutes_with_products(self, seed):
        """Conditions scoped to one factor move through the product freely.

        Guarding a factor's conditions to its own slots (wildcard states and
        shifted component indices elsewhere) makes restricting the product
        agree with composing the restricted factor, up to reachability.
        Unlike channels this needs no second restriction pass: conditions
        carry no handshake state.
        """

        bystander = random_nfioa(seed=seed)
        target, _, conditions = law_instance("channel-condition-commute", seed + 10_000)
        shifted = tuple(
            _shift_into_product(c, bystander, target) for c in conditions
        )
        prod, _ = weak_product([bystander, target])
        lhs = cond(prod, shifted)
        rhs, _ = weak_product([bystander, cond(target, conditions)])
        verdict = automata_equal(lhs, rhs)
        assert verdict.equal, verdict.reason


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

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_random_instance_languages_are_prefix_closed(self, seed):
        a, c1, c2 = law_instance("cbr-commute", seed)
        r = cbr(a, (c1, c2))
        lang = trace_language(r, 3)
        assert () in lang
        for trace in lang:
            for k in range(len(trace)):
                assert trace[:k] in lang
        assert trace_language(r, 2) <= lang


def _random_wiring(seed):
    """Two random factors' product, welded to one to three random valid channels."""
    rng = random.Random(seed)
    factors = [random_nfioa(rng.randrange(10**9), n_states=3, name=f"f{j}") for j in range(2)]
    prod, _ = weak_product(factors)
    k = rng.randint(1, 3)
    outs = rng.sample(range(len(prod.outputs)), k)
    ins = rng.sample(range(len(prod.inputs)), k)
    chans = tuple(Channel(o, i) for o, i in zip(outs, ins))
    return _weld(prod, chans), chans


def _random_channel_network(seed):
    return cbr(*_random_wiring(seed))


def _event_from_labels(r, t):
    """The send a transition makes, read off its output label."""
    slot = active_slot(t.output)
    if slot is not None:
        for ch in r.channels:
            if ch.out_component == slot[0]:
                return (ch, slot[1])
    return None


def _census_from_labels(r):
    census = Counter()
    for c, es in r.graph.edges.items():
        for e in es:
            ia, oa = active_slot(e.transition.input), active_slot(e.transition.output)
            if c.pending is not None:
                mode, inp = "excited", "consume"
            else:
                mode, inp = "relaxed", "silent-in" if ia is None else "open-in"
            if oa is None:
                out = "silent-out"
            elif _event_from_labels(r, e.transition) is not None:
                out = "channel-out"
            else:
                out = "open-out"
            census[EdgeClass(mode, inp, out)] += 1
    return dict(census)


def _traces_from_labels(r, bound):
    """Every channel-event trace of length <= bound, by walking paths."""
    seen = {(r.graph.initial, ())}
    frontier = deque(seen)
    while frontier:
        c, trace = frontier.popleft()
        for e in r.graph.edges[c]:
            ev = _event_from_labels(r, e.transition)
            nxt = (e.target, trace if ev is None else trace + (ev,))
            if len(nxt[1]) <= bound and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(trace for _, trace in seen)


@pytest.fixture(scope="module")
def random_networks():
    return [_random_channel_network(seed) for seed in range(120)]


class TestChannelEventsAgainstLabels:
    """The graph's `pending` against the send each output label makes."""

    def test_every_edge_sends_what_its_label_says(self, random_networks):
        sends = 0
        for seed, r in enumerate(random_networks):
            for es in r.graph.edges.values():
                for e in es:
                    assert e.target.pending == _event_from_labels(r, e.transition), seed
                    sends += e.target.pending is not None
        assert sends > 0

    def test_edge_census_matches_the_label_census(self, random_networks):
        total = Counter()
        for seed, r in enumerate(random_networks):
            census = edge_census(r)
            assert census == _census_from_labels(r), seed
            total.update(census)
        assert set(total) == set(ALL_EDGE_CLASSES)

    def test_trace_language_matches_the_label_traces(self, random_networks):
        longest = 0
        for seed, r in enumerate(random_networks):
            lang = trace_language(r, 4)
            assert lang == _traces_from_labels(r, 4), seed
            longest = max(longest, max(map(len, lang)))
        assert longest == 4


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


class _NaiveLockstep:
    """The lockstep walk that recomputes every silent closure from scratch.

    It is the reference for `trace_equivalent`: a closure is rebuilt by
    breadth-first search for every set of send targets, and every frontier
    entry carries its whole trace.  It also tallies the closure sizes and
    the silent cycles it meets, so a test can show those cases occurred.
    """

    def __init__(self):
        self.closure_sizes = Counter()
        self.silent_cycles = 0

    def closure(self, r, cfgs):
        seen = set(cfgs)
        frontier = deque(seen)
        while frontier:
            c = frontier.popleft()
            for e in r.graph.edges[c]:
                if e.target.pending is None:
                    if e.target in seen:
                        # back to a start through another configuration
                        self.silent_cycles += e.target != c and e.target in cfgs
                    else:
                        seen.add(e.target)
                        frontier.append(e.target)
        self.closure_sizes[len(seen)] += 1
        return frozenset(seen)

    def event_steps(self, r, closure):
        steps = {}
        for c in closure:
            for e in r.graph.edges[c]:
                ev = e.target.pending
                if ev is not None:
                    steps.setdefault(ev, set()).add(e.target)
        return {ev: self.closure(r, tgts) for ev, tgts in steps.items()}

    def trace_equivalent(self, r1, r2, bound):
        if set(r1.channels) != set(r2.channels):
            raise WiringError("networks have different channel structure")
        for ch in r1.channels:
            o1 = r1.base.outputs[ch.out_component].characters
            o2 = r2.base.outputs[ch.out_component].characters
            if o1 != o2:
                raise WiringError(f"channel {ch} carries different characters")
        sufficient = len(r1.graph.edges) * len(r2.graph.edges)
        s1 = self.closure(r1, [r1.graph.initial])
        s2 = self.closure(r2, [r2.graph.initial])
        seen = {(s1, s2)}
        frontier = deque([((), s1, s2)])
        while frontier:
            trace, c1, c2 = frontier.popleft()
            if bound is not None and len(trace) >= bound:
                continue
            e1, e2 = self.event_steps(r1, c1), self.event_steps(r2, c2)
            if set(e1) != set(e2):
                ev = sorted(set(e1) ^ set(e2))[0]
                return TraceEquivalence(False, trace + (ev,), sufficient, bound)
            for ev in sorted(e1):
                pair = (e1[ev], e2[ev])
                if pair not in seen:
                    seen.add(pair)
                    frontier.append((trace + (ev,), e1[ev], e2[ev]))
        return TraceEquivalence(True, None, sufficient, bound)

    def trace_language(self, r, bound):
        """Every trace of length <= bound, each frontier entry with its closure."""
        traces = {()}
        frontier = deque([((), self.closure(r, [r.graph.initial]))])
        while frontier:
            trace, closure = frontier.popleft()
            if len(trace) < bound:
                for ev, nxt in self.event_steps(r, closure).items():
                    if trace + (ev,) not in traces:
                        traces.add(trace + (ev,))
                        frontier.append((trace + (ev,), nxt))
        return frozenset(traces)


def _ring(n):
    return resolve(examples.ring_document(n)).networks[f"ring{n}"].restricted


class TestTraceEquivalenceAgainstTheNaiveLockstep:
    BOUNDS = (None, 1, 2, 4)

    def _compare(self, naive, r1, r2):
        """Both walks on one ordered pair at every bound; False if incomparable."""
        for bound in self.BOUNDS:
            try:
                want = naive.trace_equivalent(r1, r2, bound)
            except WiringError:
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

    def test_every_corpus_pair_with_the_same_channel_skeleton(self, all_restrictions):
        naive = _NaiveLockstep()
        nets = [b.restricted for b in all_restrictions]
        compared = sum(self._compare(naive, r1, r2) for r1 in nets for r2 in nets)
        assert compared > len(nets)  # more than the self-pairs
        assert self.verdicts[False] and self.verdicts[True]
        assert max(naive.closure_sizes) >= 2

    def test_bounded_trace_languages_of_the_corpus(self, all_restrictions):
        naive = _NaiveLockstep()
        longest = 0
        for built in all_restrictions:
            r = built.restricted
            lang = trace_language(r, 4)
            assert lang == naive.trace_language(r, 4), r.name
            longest = max(longest, max(map(len, lang)))
        assert longest == 4
        assert max(naive.closure_sizes) >= 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rings_against_a_rebuilt_copy(self, n):
        naive = _NaiveLockstep()
        r, copy = _ring(n), _ring(n)
        assert r is not copy
        assert self._compare(naive, r, copy)
        assert self.verdicts == {True: len(self.BOUNDS)}
        assert max(naive.closure_sizes) >= 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ring_trace_languages_at_bound_six(self, n):
        naive = _NaiveLockstep()
        r = _ring(n)
        lang = trace_language(r, 6)
        assert lang == naive.trace_language(r, 6)
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
        r = cbr(a, loop)
        copy = cbr(replace(a, name="cut", transitions=transitions - {T("r2", "r3", o="a")}), loop)
        ev_a, ev_b = (loop[0], "a"), (loop[0], "b")

        naive, view = _NaiveLockstep(), fioa.analysis._EventView(r)
        steps = naive.event_steps(r, naive.closure(r, [r.graph.initial]))
        after_a, after_ba = steps[ev_a], naive.event_steps(r, steps[ev_b])[ev_a]
        assert after_a != after_ba
        first = dict(zip(*view.steps(view.initial)))
        assert first[ev_a] == dict(zip(*view.steps(first[ev_b])))[ev_a]

        for bound in self.BOUNDS:
            for r1, r2 in ((r, copy), (copy, r)):
                got = trace_equivalent(r1, r2, bound=bound)
                assert got == naive.trace_equivalent(r1, r2, bound), (r1.name, bound)
                if bound in (None, 4):
                    assert got.distinguishing == (ev_a, ev_b, ev_a)
                else:
                    assert got.equal

    def test_random_networks_against_a_copy_with_a_transition_dropped(self):
        naive = _NaiveLockstep()
        for seed in range(100):
            a, chans = _random_wiring(seed)
            r1 = cbr(a, chans)
            rng = random.Random(seed)
            drop = rng.choice(sorted(r1.base.transitions or a.transitions))
            r2 = cbr(replace(a, transitions=a.transitions - {drop}), chans)
            assert self._compare(naive, r1, r2), seed
            assert self._compare(naive, r2, r1), seed
        assert self.verdicts[False] >= 20 and self.verdicts[True] >= 20
        assert sum(k for k in naive.closure_sizes if k >= 2) > 0
        assert naive.silent_cycles > 0


class TestEventViewAgainstTheNaiveClosures:
    """Each view node is the naive silent closure cut down to its senders:
    the configurations with an edge whose target has a `pending`."""

    @staticmethod
    def _check(naive, r):
        """The invariant on every configuration of `r`; how many closures
        held a configuration that sends nothing."""
        view = fioa.analysis._EventView(r)
        edges = r.graph.edges
        number = {c: i for i, c in enumerate(r.graph.nodes)}

        def senders(closure):
            return frozenset(
                number[c] for c in closure if any(e.target.pending is not None for e in edges[c])
            )

        cut = 0
        for i, c in enumerate(r.graph.nodes):
            closure = naive.closure(r, [c])
            node = view._closure(i)
            assert node == senders(closure), (r.name, i)
            cut += len(node) < len(closure)
            events, nexts = view.steps(node)
            want = naive.event_steps(r, closure)
            assert events == tuple(sorted(want)), (r.name, i)
            assert nexts == tuple(senders(want[ev]) for ev in events), (r.name, i)
        return cut

    def test_every_corpus_restriction(self, all_restrictions):
        naive = _NaiveLockstep()
        assert all(self._check(naive, b.restricted) for b in all_restrictions)

    def test_random_networks(self):
        naive = _NaiveLockstep()
        cut = sum(self._check(naive, _random_channel_network(seed)) > 0 for seed in range(100))
        assert cut >= 50
        assert naive.silent_cycles > 0


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
