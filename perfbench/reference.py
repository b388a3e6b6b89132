"""Independent reference for the benchmark's correctness checks.

Deliberately does NOT import the fioa package.  Every role is a
hand-coded transition table, every network is explored by a from-scratch
breadth-first search over (factor states, pending character), and every
count or verdict the benchmark compares against is derived here.  The
style follows ``scripts/derive_expected.py``; the explorer is lazy so it
reaches ring5 (17,955 configurations) without enumerating the raw product.

Transitions are ``(source, target, input, output)`` where a label is a
``(component, char)`` pair or None for silence.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import product as cartesian

USER = {
    "initial": "remn",
    "trans": [
        ("remn", "try", None, ("svc", "req")),
        ("try", "crit", ("svc", "cf_req"), None),
        ("crit", "exit", None, ("svc", "fin")),
        ("exit", "remn", ("svc", "cf_fin"), None),
    ],
}

SERVER = {
    "initial": "remn",
    "trans": [
        ("remn", "try", ("svc", "req"), None),
        ("try", "crit", None, ("svc", "cf_req")),
        ("crit", "exit", ("svc", "fin"), None),
        ("exit", "remn", None, ("svc", "cf_fin")),
    ],
}

RING = {
    "initial": "abst",
    "trans": [
        ("abst", "avlb", ("ring", "token"), ("trig", "trigger")),
        ("avlb", "interm", ("clk", "timeout"), None),
        ("interm", "abst", None, ("ring", "token")),
    ],
}

TIMER = {
    "initial": "wait",
    "trans": [
        ("wait", "triggered", ("trig", "trigger"), None),
        ("triggered", "wait", None, ("clk", "timeout")),
    ],
}

IDLE_USER = {"initial": "idle", "trans": []}

DET_ADMIN = {
    "initial": "absent",
    "trans": [
        ("absent", "avail", ("ring", "token"), ("trig", "trigger")),
        ("avail", "serving", ("svc", "req"), ("svc", "cf_req")),
        ("serving", "avail", ("svc", "fin"), ("svc", "cf_fin")),
        ("avail", "absent", ("clk", "timeout"), ("ring", "token")),
    ],
}

STICKY_ADMIN = {
    "initial": "absent",
    "trans": [t for t in DET_ADMIN["trans"] if t[:2] != ("avail", "absent")],
}

# Interface slot order of the deterministic administrator, for the executor.
DET_INPUTS = ("svc", "ring", "clk")
DET_OUTPUTS = ("svc", "trig", "ring")

# Size of the administrator network's single Muller member: the (server,
# ring) pairs the coordinated administrator reaches.
ADMIN_LIVE = 11


def _administrator_deny(state, tgt, inp, out):
    """The four deny rules of the corpus administrator, hand-coded."""
    if inp is not None:
        return False
    if state[1] == "abst" and tgt[0] == "crit":
        return True  # need the token to serve
    if state[0] == "try" and tgt[1] == "abst":
        return True  # keep the token while entering
    if state[0] == "crit" and tgt[1] == "abst":
        return True  # keep the token while serving
    if state[1] == "interm" and tgt[0] == "remn" and out == ("svc", "cf_fin"):
        return True  # confirm the finish before handing the token over
    return False


def administrator():
    """Server x ring cell with the deny rules, as one table over state pairs."""
    s_states = sorted({t[0] for t in SERVER["trans"]})
    r_states = sorted({t[0] for t in RING["trans"]})
    trans = []
    for s, r in cartesian(s_states, r_states):
        for (p, q, inp, out) in SERVER["trans"]:
            if p == s and not _administrator_deny((s, r), (q, r), inp, out):
                trans.append(((s, r), (q, r), inp, out))
        for (p, q, inp, out) in RING["trans"]:
            if p == r and not _administrator_deny((s, r), (s, q), inp, out):
                trans.append(((s, r), (s, q), inp, out))
    return {"initial": ("remn", "abst"), "trans": trans}


# ---------------------------------------------------------------------------
# networks and their configuration graphs


class Network:
    """Factors as (alias, table, initial), channels keyed by (alias, comp)."""

    def __init__(self, factors, channels, deny=None):
        self.aliases = [a for a, _t, _i in factors]
        pos = {a: i for i, a in enumerate(self.aliases)}
        self.initial = tuple(init if init is not None else t["initial"] for _a, t, init in factors)
        self.by_source = []
        for _a, table, _i in factors:
            idx = {}
            for (p, q, inp, out) in table["trans"]:
                idx.setdefault(p, []).append((q, inp, out))
            self.by_source.append(idx)
        self.channels = {
            (pos[sa], sc): (pos[ra], rc) for (sa, sc), (ra, rc) in channels.items()
        }
        self.wired_inputs = set(self.channels.values())
        self.deny = deny


class Graph:
    def __init__(self, start, order, edges):
        self.start = start
        self.order = order
        self.edges = edges  # cfg -> [(target cfg, factor, inp, out)]

    @property
    def edge_count(self):
        return sum(len(v) for v in self.edges.values())

    @property
    def excited(self):
        return sum(1 for (_s, p) in self.order if p is not None)


def explore(net: Network) -> Graph:
    """Channel-restricted configuration graph by breadth-first search.

    A relaxed configuration moves spontaneously or reads an input no
    channel feeds; an excited one must consume its pending character on
    the receiving factor.  A sent character on a wired output becomes the
    next configuration's pending character.
    """
    start = (net.initial, None)
    order = [start]
    seen = {start}
    edges = {}
    frontier = deque([start])
    while frontier:
        cfg = frontier.popleft()
        state, pending = cfg
        here = []
        for i, local in enumerate(state):
            for (q, inp, out) in net.by_source[i].get(local, ()):
                if net.deny is not None and net.deny(state, i, q, inp, out):
                    continue
                if pending is None:
                    if inp is not None and (i, inp[0]) in net.wired_inputs:
                        continue
                elif inp is None or (i, inp[0], inp[1]) != pending:
                    continue
                npend = None
                if out is not None and (i, out[0]) in net.channels:
                    rf, rc = net.channels[(i, out[0])]
                    npend = (rf, rc, out[1])
                nxt = (state[:i] + (q,) + state[i + 1 :], npend)
                here.append((nxt, i, inp, out))
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
                    frontier.append(nxt)
        edges[cfg] = here
    return Graph(start, order, edges)


def flat_state(state) -> tuple:
    """Concatenate factor states the way a flat product vector does."""
    out = []
    for local in state:
        if isinstance(local, tuple):
            out.extend(local)
        else:
            out.append(local)
    return tuple(out)


def census(net: Network, g: Graph) -> dict:
    """Nine-way edge classification: (mode, input kind, output kind) -> count."""
    rows = {}
    for cfg in g.order:
        excited = cfg[1] is not None
        for (_nxt, i, inp, out) in g.edges[cfg]:
            if excited:
                ik = "consume"
            else:
                ik = "silent-in" if inp is None else "open-in"
            if out is None:
                ok = "silent-out"
            elif (i, out[0]) in net.channels:
                ok = "channel-out"
            else:
                ok = "open-out"
            row = ("excited" if excited else "relaxed", ik, ok)
            rows[row] = rows.get(row, 0) + 1
    return rows


def stuck_excited(g: Graph) -> set:
    """Excited configurations with no way to consume their character."""
    return {cfg for cfg in g.order if cfg[1] is not None and not g.edges[cfg]}


def quasi_deterministic(g: Graph) -> bool:
    """At most one edge per input label (silence included) at every node."""
    for cfg in g.order:
        labels = [(i, inp) if inp is not None else None for (_n, i, inp, _o) in g.edges[cfg]]
        if len(labels) != len(set(labels)):
            return False
    return True


def _event(net: Network, i, out):
    if out is not None and (i, out[0]) in net.channels:
        return (net.aliases[i], out[0], out[1])
    return None


def _closure(net, g, cfgs):
    seen = set(cfgs)
    work = list(seen)
    while work:
        c = work.pop()
        for (nxt, i, _inp, out) in g.edges[c]:
            if _event(net, i, out) is None and nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return frozenset(seen)


def _event_steps(net, g, closure, cache):
    if closure not in cache:
        steps = {}
        for c in closure:
            for (nxt, i, _inp, out) in g.edges[c]:
                ev = _event(net, i, out)
                if ev is not None:
                    steps.setdefault(ev, set()).add(nxt)
        cache[closure] = {ev: _closure(net, g, tg) for ev, tg in steps.items()}
    return cache[closure]


def trace_count(net: Network, g: Graph, bound: int) -> int:
    """Number of channel-event traces of length <= bound (prefix-closed)."""
    cache = {}
    memo = {}

    def count(closure, depth):
        key = (closure, depth)
        if key not in memo:
            total = 1
            if depth > 0:
                for nxt in _event_steps(net, g, closure, cache).values():
                    total += count(nxt, depth - 1)
            memo[key] = total
        return memo[key]

    return count(_closure(net, g, [g.start]), bound)


def distinguishing_length(n1, g1, n2, g2):
    """Length of a shortest trace one network has and the other lacks, or None."""
    c1, c2 = {}, {}
    start = (_closure(n1, g1, [g1.start]), _closure(n2, g2, [g2.start]))
    seen = {start}
    frontier = deque([(0, start)])
    while frontier:
        depth, (a, b) = frontier.popleft()
        sa = _event_steps(n1, g1, a, c1)
        sb = _event_steps(n2, g2, b, c2)
        if set(sa) != set(sb):
            return depth + 1
        for ev in sa:
            pair = (sa[ev], sb[ev])
            if pair not in seen:
                seen.add(pair)
                frontier.append((depth + 1, pair))
    return None


def exhaustive_runs(g: Graph, bound: int) -> int:
    """Runs that deadlock or reach the step bound, counted by recursion."""
    memo = {}

    def count(cfg, left):
        key = (cfg, left)
        if key not in memo:
            es = g.edges[cfg]
            memo[key] = 1 if (not es or left == 0) else sum(count(n, left - 1) for (n, *_r) in es)
        return memo[key]

    return count(g.start, bound)


# ---------------------------------------------------------------------------
# the ring workload


def ring_network(n: int, admin=None, admin_init=("remn", "avlb"), user=USER) -> Network:
    """Ring of n administrators a_i, timers t_i and users u_i (corpus wiring)."""
    admin = admin or administrator()
    factors = [(f"a{i}", admin, admin_init if i == 1 else None) for i in range(1, n + 1)]
    factors += [(f"t{i}", TIMER, "triggered" if i == 1 else None) for i in range(1, n + 1)]
    factors += [(f"u{i}", user, None) for i in range(1, n + 1)]
    ch = {}
    for i in range(1, n + 1):
        succ = i % n + 1
        ch[(f"u{i}", "svc")] = (f"a{i}", "svc")
        ch[(f"a{i}", "svc")] = (f"u{i}", "svc")
        ch[(f"a{i}", "ring")] = (f"a{succ}", "ring")
        ch[(f"a{i}", "trig")] = (f"t{i}", "trig")
        ch[(f"t{i}", "clk")] = (f"a{i}", "clk")
    return Network(factors, ch)


def ring_facts(n: int, trace_bound: int, exhaustive_bound: int | None = None) -> dict:
    """Everything the benchmark checks about ring n."""
    net = ring_network(n)
    g = explore(net)
    two_crit = token_bad = 0
    for (state, pending) in g.order:
        # factor order: administrators a1..an, timers t1..tn, users u1..un
        if sum(1 for u in state[2 * n :] if u == "crit") >= 2:
            two_crit += 1
        held = sum(1 for a in range(n) if state[a][1] != "abst")
        flying = 1 if pending is not None and pending[2] == "token" else 0
        if held + flying != 1:
            token_bad += 1
    distinct = {s for (s, _p) in g.order}
    # The product Muller member is the full rectangle of factor members
    # (administrator live set x timer states x user states); it survives
    # only if every one of its states is reachable.
    rectangle = (ADMIN_LIVE * 2 * 4) ** n
    facts = {
        "configs": len(g.order),
        "edges": g.edge_count,
        "excited": g.excited,
        "states": {flat_state(s) for s in distinct},
        "census": census(net, g),
        "well_formed": not stuck_excited(g),
        "quasi_deterministic": quasi_deterministic(g),
        "consistent": False if rectangle > len(distinct) else None,
        "anchors": 0 if rectangle > len(distinct) else None,
        "two_crit_safe": two_crit == 0,
        "token_safe": token_bad == 0,
        "traces": trace_count(net, g, trace_bound),
    }
    if exhaustive_bound is not None:
        facts["exhaustive_runs"] = exhaustive_runs(g, exhaustive_bound)
    return facts


def ring_eq_facts() -> dict:
    """The corpus ring2_eq pairs: quasi vs det, quasi vs sticky."""
    quasi = ring_network(2, user=IDLE_USER)
    det = ring_network(2, admin=DET_ADMIN, admin_init="avail", user=IDLE_USER)
    sticky = ring_network(2, admin=STICKY_ADMIN, admin_init="avail", user=IDLE_USER)
    gq, gd, gs = explore(quasi), explore(det), explore(sticky)
    return {
        "det": distinguishing_length(quasi, gq, det, gd),
        "sticky": distinguishing_length(quasi, gq, sticky, gs),
    }


# ---------------------------------------------------------------------------
# the coord workload


def mutual_exclusion_deny(users: int):
    """Deny a user entering crit while another user is in crit."""

    def deny(state, i, q, _inp, _out):
        if i >= users or q != "crit" or state[i] != "try":
            return False
        return any(state[j] == "crit" for j in range(users) if j != i)

    return deny


def coord_facts(n: int) -> dict:
    """Channel-free and server-wired mutual exclusion of n users."""
    deny = mutual_exclusion_deny(n)
    eager = Network([(f"u{i}", USER, None) for i in range(n)], {}, deny)
    g = explore(eager)
    reach = {s for (s, _p) in g.order}
    closed_form = 3**n + n * 3 ** (n - 1)
    # Condition restriction keeps every non-vetoed move out of every
    # product state (all 4**n are reachable before restriction).
    states = list(cartesian(*(["remn", "try", "crit", "exit"],) * n))
    kept = 0
    for s in states:
        for i in range(n):
            for (p, q, inp, out) in USER["trans"]:
                if p == s[i] and not deny(s, i, q, inp, out):
                    kept += 1
    labels_clash = False
    for s in reach:
        silent = 0
        for i in range(n):
            for (p, q, inp, out) in USER["trans"]:
                if p == s[i] and inp is None and not deny(s, i, q, inp, out):
                    silent += 1
        labels_clash = labels_clash or silent > 1
    wired = Network(
        [(f"u{i}", USER, None) for i in range(n)] + [("c", SERVER, None)],
        {("u0", "svc"): ("c", "svc"), ("c", "svc"): ("u0", "svc")},
        deny,
    )
    gw = explore(wired)
    stuck = stuck_excited(gw)
    return {
        "reachable": len(reach),
        "closed_form": closed_form,
        "kept": kept,
        # The product Muller member is all 4**n states; it anchors nothing
        # unless all of them are reachable.
        "consistent": False if len(reach) < 4**n else None,
        "anchors": 0 if len(reach) < 4**n else None,
        "quasi_deterministic": not labels_clash,
        "wired_configs": len(gw.order),
        "wired_edges": gw.edge_count,
        "wired_excited": gw.excited,
        "wired_well_formed": not stuck,
        "wired_stuck": {(flat_state(s), p[2]) for (s, p) in stuck},
    }


# ---------------------------------------------------------------------------
# the executor


def det_admin_walk(k: int, steps: int, seed: int):
    """Seeded input word for k deterministic administrators, with its outputs.

    Picks a factor and one of its enabled moves per step from the table,
    so every letter is accepted.  Returns (word, outputs, final state) in
    flat-vector form: factor j owns input/output slots 3j .. 3j+2.
    """
    rng = random.Random(seed)
    by_source = {}
    for (p, q, inp, out) in DET_ADMIN["trans"]:
        by_source.setdefault(p, []).append((q, inp, out))
    for moves in by_source.values():
        moves.sort()
    state = [DET_ADMIN["initial"]] * k
    word, outputs = [], []

    def vec(label, j, slots):
        v = [""] * (3 * k)
        if label is not None:
            v[3 * j + slots.index(label[0])] = label[1]
        return tuple(v)

    for _ in range(steps):
        j = rng.randrange(k)
        q, inp, out = rng.choice(by_source[state[j]])
        word.append(vec(inp, j, DET_INPUTS))
        outputs.append(vec(out, j, DET_OUTPUTS))
        state[j] = q
    return word, outputs, tuple(state)
