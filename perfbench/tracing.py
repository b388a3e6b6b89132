"""Spans and counters for the traced run, recorded from outside fioa.

A span is (name, start, end, parent span index, op id), kept in memory
and written out when the run ends.  Calls too frequent for one span each
(``LazyProduct.outgoing``, ``Condition.matches``) are timed and counted
into per-parent totals instead, so a layer's self time is its span time
minus its child spans and minus the hot calls made inside it.

The stepwise build goes compile_network -> LazyProduct -> cbr ->
require_valid(flatten(...)) (or weak_product -> cond for channel-free
networks), the path ``fioa.network.build_network`` takes, with traced
subclasses passed in where the public API accepts them.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from fioa import (
    BuiltNetwork,
    Condition,
    FactorRef,
    LazyProduct,
    NetworkSpec,
    Nfioa,
    RestrictedAutomaton,
    automata_equal,
    cbr,
    compile_network,
    cond,
    flatten,
    require_valid,
    weak_product,
)


class NullTracer:
    """Stands in for a Tracer in the timed run: records nothing."""

    enabled = False
    op = None  # id of the op (repeat) that spans are recorded under

    @contextmanager
    def span(self, name):
        yield

    def call(self, span_name, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)

    def counted(self, name, fn):
        return fn


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.hot = defaultdict(float)  # (name, parent span name) -> seconds
        self.counts = defaultdict(int)
        self.networks = defaultdict(lambda: [0, 0.0])  # name -> [configs, cbr seconds]

    @contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else None
        rec = [name, perf_counter(), None, parent, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def call(self, span_name, fn, /, *args, **kwargs):
        with self.span(span_name):
            return fn(*args, **kwargs)

    def counted(self, name, fn):
        def wrapper(*args):
            self.counts[name] += 1
            return fn(*args)

        return wrapper

    def add_hot(self, name, seconds):
        parent = self.spans[self.stack[-1]][0] if self.stack else None
        self.hot[(name, parent)] += seconds

    def total(self, name) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def hot_total(self, name) -> float:
        return sum(v for (n, _p), v in self.hot.items() if n == name)

    def self_time(self, name) -> float:
        """Span time of `name` minus its child spans and hot calls inside it."""
        children = sum(
            s[2] - s[1]
            for s in self.spans
            if s[3] is not None and self.spans[s[3]][0] == name
        )
        hot = sum(v for (_n, p), v in self.hot.items() if p == name)
        return self.total(name) - children - hot

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p, "op": op}
                        for n, s, e, p, op in self.spans
                    ],
                    "hot": [
                        {"name": n, "parent": p, "seconds": v} for (n, p), v in sorted(self.hot.items(), key=str)
                    ],
                    "counts": dict(self.counts),
                },
                handle,
            )


class TracedLazyProduct(LazyProduct):
    """LazyProduct whose successor generation is timed and counted."""

    def __init__(self, tracer: Tracer, factors, *, name=None):
        self._tracer = tracer
        super().__init__(factors, name=name)

    def outgoing(self, state):
        t0 = perf_counter()
        out = super().outgoing(state)
        tr = self._tracer
        tr.add_hot("product.outgoing", perf_counter() - t0)
        tr.counts["product.outgoing_calls"] += 1
        tr.counts["product.candidates"] += len(out)
        return out


class TracedCondition(Condition):
    """Condition whose matching is timed and counted.

    Both restriction paths test a transition against the conditions in
    order and stop at the first match, so calls on the first condition
    count the transitions examined and every match is one veto.
    """

    def __init__(self, c: Condition, tracer: Tracer, first: bool):
        super().__init__(c.name, c.source, c.target, c.input, c.output, c.scope)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_first", first)

    def matches(self, t) -> bool:
        t0 = perf_counter()
        hit = super().matches(t)
        tr = self._tracer
        tr.add_hot("conditions.match", perf_counter() - t0)
        tr.counts["conditions.match_calls"] += 1
        if self._first:
            tr.counts["conditions.examined"] += 1
        if hit:
            tr.counts["conditions.vetoes"] += 1
        return hit


def _with_acceptance(a: Nfioa, acceptance) -> Nfioa:
    if acceptance is None:
        return a
    return Nfioa(a.name, a.states, a.inputs, a.outputs, a.initial, acceptance, a.transitions)


def build_stepwise(tracer: Tracer, spec: NetworkSpec) -> BuiltNetwork:
    """build_network's steps, each under its own span."""
    with tracer.span("network.build"):
        compiled = tracer.call("network.compile", compile_network, spec)
        conds = tuple(
            TracedCondition(c, tracer, i == 0) for i, c in enumerate(compiled.conditions)
        )
        if compiled.channels:
            lazy = tracer.call(
                "product.lazy_init", TracedLazyProduct, tracer, compiled.factors, name=spec.name
            )
            t0 = perf_counter()
            r = tracer.call(
                "channels.cbr", cbr, lazy, compiled.channels, conditions=conds, name=spec.name
            )
            seconds = perf_counter() - t0
            g = r.graph
            tracer.counts["channels.configs"] += len(g.edges)
            tracer.counts["channels.edges"] += g.edge_count
            tracer.counts["channels.excited"] += sum(1 for c in g.edges if c.pending is not None)
            tracer.networks[spec.name][0] += len(g.edges)
            tracer.networks[spec.name][1] += seconds
            if spec.acceptance is not None:
                base = _with_acceptance(r.base, spec.acceptance)
                r = RestrictedAutomaton(base, r.channels, r.graph, r.conditions, r.name)
            automaton = tracer.call("core.validate", require_valid, flatten(r))
            return BuiltNetwork(compiled, automaton, r)
        prod, _index = tracer.call("product.weak_product", weak_product, compiled.factors, name=spec.name)
        tracer.counts["product.weak_product_transitions"] += len(prod.transitions)
        a = tracer.call("conditions.cond", cond, prod, conds, name=spec.name)
        a = tracer.call("core.validate", require_valid, _with_acceptance(a, spec.acceptance))
        return BuiltNetwork(compiled, a, None)


def resolve_stepwise(tracer: Tracer, doc) -> dict[str, BuiltNetwork]:
    """dsl.resolve's loop over a document, with stepwise network builds."""
    built: dict[str, BuiltNetwork] = {}
    with tracer.span("dsl.resolve"):
        automata = {a.name: a for a in doc.automata}
        for n in doc.networks:
            factors = tuple(FactorRef(f.alias, automata[f.ref], initial=f.initial) for f in n.factors)
            spec = NetworkSpec(n.name, factors, n.channels, n.conditions, n.acceptance)
            b = build_stepwise(tracer, spec)
            built[n.name] = b
            automata[n.name] = b.automaton
    return built


def same_build(a: BuiltNetwork, b: BuiltNetwork) -> bool:
    """Equal flat automata and, for wired networks, equal configuration graphs."""
    if not automata_equal(a.automaton, b.automaton, up_to_reachability=False).equal:
        return False
    if (a.restricted is None) != (b.restricted is None):
        return False
    if a.restricted is None:
        return True
    ga, gb = a.restricted.graph, b.restricted.graph
    return ga.initial == gb.initial and ga.edges == gb.edges


@contextmanager
def traced_cli_bindings(tracer: Tracer):
    """Route the CLI's document loading and network builds through spans.

    ``fioa.cli`` calls ``load``/``resolve`` through its own module
    namespace and ``fioa.dsl`` calls ``parse``/``build_network`` through
    its; rebinding those names for the duration of one command splits a
    command's time into parsing, resolving and building.
    """
    import fioa.cli
    import fioa.dsl

    def parse(text):
        tracer.counts["dsl.parse_bytes"] += len(text)
        return tracer.call("dsl.parse", original["parse"], text)

    original = {
        "load": fioa.cli.load,
        "resolve": fioa.cli.resolve,
        "parse": fioa.dsl.parse,
        "build_network": fioa.dsl.build_network,
    }
    fioa.cli.load = lambda path: tracer.call("dsl.load", original["load"], path)
    fioa.cli.resolve = lambda doc: tracer.call("dsl.resolve", original["resolve"], doc)
    fioa.dsl.parse = parse
    fioa.dsl.build_network = lambda spec: tracer.call("network.build", original["build_network"], spec)
    try:
        yield
    finally:
        fioa.cli.load = original["load"]
        fioa.cli.resolve = original["resolve"]
        fioa.dsl.parse = original["parse"]
        fioa.dsl.build_network = original["build_network"]
