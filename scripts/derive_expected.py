#!/usr/bin/env python3
"""Independent derivation of the expected values frozen in the test suite.

Deliberately does NOT import the fioa package: everything here is a
from-scratch BFS over hand-coded transition tables, so the numbers it
prints are an oracle for the real implementation rather than an echo of
it.  Run it and compare with the literals in tests/.
"""

from collections import deque
from itertools import product as cartesian

# ---------------------------------------------------------------------------
# Role tables.  Transitions are (source, target, input, output) where the
# labels are (component, char) pairs or None for silence.

USER = {
    "name": "user",
    "initial": "remn",
    "trans": [
        ("remn", "try", None, ("svc", "req")),
        ("try", "crit", ("svc", "cf_req"), None),
        ("crit", "exit", None, ("svc", "fin")),
        ("exit", "remn", ("svc", "cf_fin"), None),
    ],
}

SERVER = {
    "name": "server",
    "initial": "remn",
    "trans": [
        ("remn", "try", ("svc", "req"), None),
        ("try", "crit", None, ("svc", "cf_req")),
        ("crit", "exit", ("svc", "fin"), None),
        ("exit", "remn", None, ("svc", "cf_fin")),
    ],
}

RING = {
    "name": "ring",
    "initial": "abst",
    "trans": [
        ("abst", "avlb", ("ring", "token"), ("trig", "trigger")),
        ("avlb", "interm", ("clk", "timeout"), None),
        ("interm", "abst", None, ("ring", "token")),
    ],
}

TIMER = {
    "name": "timer",
    "initial": "wait",
    "trans": [
        ("wait", "triggered", ("trig", "trigger"), None),
        ("triggered", "wait", None, ("clk", "timeout")),
    ],
}

DET_ADMIN = {
    "name": "det_admin",
    "initial": "absent",
    "trans": [
        ("absent", "avail", ("ring", "token"), ("trig", "trigger")),
        ("avail", "serving", ("svc", "req"), ("svc", "cf_req")),
        ("serving", "avail", ("svc", "fin"), ("svc", "cf_fin")),
        ("avail", "absent", ("clk", "timeout"), ("ring", "token")),
    ],
}

IDLE_USER = {"name": "idle_user", "initial": "idle", "trans": []}


def factor_moves(factors):
    """Weak product over factor tables: one factor moves per transition.

    Returns the initial product state and `expand(state)`, the list of
    `(target, input, output)` moves from a state.  States are tuples of
    factor states; labels become (factor, component, char).
    """
    names = [f["name"] for f in factors]
    init = tuple(f["initial"] for f in factors)
    by_source = [dict() for _ in factors]
    for i, f in enumerate(factors):
        for (p, q, inp, out) in f["trans"]:
            by_source[i].setdefault(p, []).append((q, inp, out))

    def expand(state):
        res = []
        for i in range(len(factors)):
            for (q, inp, out) in by_source[i].get(state[i], []):
                tgt = state[:i] + (q,) + state[i + 1 :]
                lift = lambda lab, i=i: None if lab is None else (names[i] + str(i), lab[0], lab[1])
                res.append((tgt, lift(inp), lift(out)))
        return res

    return init, expand


class OnDemand(dict):
    """A transition table filled in as `explore` asks for each state."""

    def __init__(self, expand):
        super().__init__()
        self.expand = expand

    def __missing__(self, state):
        self[state] = moves = self.expand(state)
        return moves


def interleave(factors):
    """The weak product's moves from every reachable product state.

    Only reachable product states are generated (all the factor tables
    here are fully reachable, so nothing is lost).
    """
    init, expand = factor_moves(factors)
    trans = {}
    seen = {init}
    frontier = deque([init])
    while frontier:
        s = frontier.popleft()
        trans[s] = expand(s)
        for (t, _i, _o) in trans[s]:
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return init, trans


def explore(init, trans, channels, deny=None):
    """Channel-restricted configuration graph.

    channels: dict (sender_tag, component) -> (receiver_tag, component).
    A configuration is (state, pending) with pending either None or
    (receiver_tag, component, char).  Excited configurations admit only
    the consuming transitions; relaxed ones admit silent moves and reads
    of non-channel inputs.  `deny(state, tgt, inp, out)` filters edges.
    """
    wired_inputs = set(channels.values())
    start = (init, None)
    graph = {}
    order = [start]
    seenset = {start}
    frontier = deque([start])
    while frontier:
        cfg = frontier.popleft()
        state, pending = cfg
        edges = []
        for (tgt, inp, out) in trans[state]:
            if deny and deny(state, tgt, inp, out):
                continue
            if pending is None:
                if inp is not None and (inp[0], inp[1]) in wired_inputs:
                    continue  # channel inputs only fire to consume a pending char
            else:
                if inp is None or (inp[0], inp[1]) != pending[:2] or inp[2] != pending[2]:
                    continue
            if out is not None and (out[0], out[1]) in channels:
                rcv = channels[(out[0], out[1])]
                npend = (rcv[0], rcv[1], out[2])
            else:
                npend = None
            nxt = (tgt, npend)
            edges.append((nxt, inp, out))
            if nxt not in seenset:
                seenset.add(nxt)
                order.append(nxt)
                frontier.append(nxt)
        graph[cfg] = edges
    return start, order, graph


def row_census(order, graph, channels):
    """Edges per table row (excited?, input kind, output kind), sorted."""
    census = {}
    for cfg in order:
        for (nxt, inp, out) in graph[cfg]:
            row = (
                "excited" if cfg[1] else "relaxed",
                "consume" if cfg[1] else ("eps" if inp is None else "open"),
                "eps" if out is None else ("chan" if (out[0], out[1]) in channels else "open"),
            )
            census[row] = census.get(row, 0) + 1
    return sorted(census.items())


def main():
    # ------------------------------------------------------------------
    print("== mutex protocol (user x server, both service channels wired) ==")
    init, trans = interleave([USER, SERVER])
    channels = {("user0", "svc"): ("server1", "svc"), ("server1", "svc"): ("user0", "svc")}
    start, order, graph = explore(init, trans, channels)
    print(f"configurations: {len(order)}")
    for cfg in order:
        outs = graph[cfg]
        print(f"  {cfg} -> {len(outs)} edge(s)")
    # cycle check: every node exactly one outgoing edge and one cycle
    assert all(len(graph[c]) == 1 for c in order)
    cyc = [start]
    while True:
        nxt = graph[cyc[-1]][0][0]
        if nxt == start:
            break
        cyc.append(nxt)
    print(f"cycle length: {len(cyc)}")
    print("cycle states:", [c[0] for c in cyc])
    events = []
    cur = start
    for _ in range(len(cyc)):
        nxt, inp, out = graph[cur][0]
        if out is not None and (out[0], out[1]) in channels:
            events.append(out[2])
        cur = nxt
    print("event cycle:", events)

    print("row census:", row_census(order, graph, channels))

    print()
    print("== mutex trace language, bound 4 ==")
    langs = set()
    work = deque([(start, ())])
    seen = {(start, ())}
    while work:
        cfg, tr = work.popleft()
        langs.add(tr)
        for (nxt, inp, out) in graph[cfg]:
            ev = out[2] if out and (out[0], out[1]) in channels else None
            ntr = tr + (ev,) if ev else tr
            if len(ntr) <= 4 and (nxt, ntr) not in seen:
                seen.add((nxt, ntr))
                work.append((nxt, ntr))
    print(sorted(langs, key=lambda t: (len(t), t)))

    # ------------------------------------------------------------------
    print()
    print("== coordinated administrator: server x ring with conditions ==")
    init, trans = interleave([SERVER, RING])
    full = [(s, e) for s, es in trans.items() for e in es]
    print(f"uncoordinated product transitions (reachable sources): {len(full)}")

    def deny(state, tgt, inp, out):
        spont = inp is None
        if spont and state[1] == "abst" and tgt[0] == "crit":
            return True  # token needed to enter service
        if spont and state[0] == "try" and tgt[1] == "abst":
            return True  # hold token while confirming entry
        if spont and state[0] == "crit" and tgt[1] == "abst":
            return True  # hold token while request is served
        if (
            spont
            and state[1] == "interm"
            and tgt[0] == "remn"
            and out is not None
            and out[1:] == ("svc", "cf_fin")
        ):
            return True  # pass token on before confirming the finish
        return False

    kept = [(s, e) for s, es in trans.items() for e in es if not deny(s, e[0], e[1], e[2])]
    print(f"after conditions: {len(kept)}")

    # reachability over the restricted relation
    adj = {}
    for (s, (t, i, o)) in kept:
        adj.setdefault(s, []).append((t, i, o))
    seen = {init}
    fr = deque([init])
    while fr:
        s = fr.popleft()
        for (t, _i, _o) in adj.get(s, []):
            if t not in seen:
                seen.add(t)
                fr.append(t)
    print(f"reachable coordinated states: {len(seen)}", sorted(seen))
    unreach = sorted(set(trans) - seen)
    print("unreachable:", unreach)

    # quasi-determinism over reachable states: <=1 transition per input char
    bad = []
    for s in sorted(seen):
        per = {}
        for (t, i, o) in adj.get(s, []):
            key = i[1:] if i else None
            per.setdefault(key, []).append((t, i, o))
        for key, lst in per.items():
            if len(lst) > 1:
                bad.append((s, key, lst))
    print("coordinated quasi-det violations:", bad)

    per = {}
    for (t, i, o) in trans[("try", "interm")]:
        key = i[1:] if i else None
        per.setdefault(key, []).append(t)
    print("uncoordinated (try, interm) by input:", per)

    # strong connectivity of the reachable coordinated graph
    def reach_from(x, edges):
        got = {x}
        q = deque([x])
        while q:
            u = q.popleft()
            for (v, _i, _o) in edges.get(u, []):
                if v not in got:
                    got.add(v)
                    q.append(v)
        return got

    scc_ok = all(seen <= reach_from(s, adj) for s in seen)
    print("reachable part strongly connected:", scc_ok)

    # ------------------------------------------------------------------
    print()
    print("== closed ring of 2 (idle users): quasi vs deterministic admin ==")

    # build via interleave() with renamed tags -- interleave tags by index,
    # so factor order gives unique tags: a1=0, a2=1, t1=2, t2=3, u1=4, u2=5
    def build(admin, init_override1, init_override2):
        f1 = dict(admin, initial=init_override1)
        f2 = dict(admin, initial=init_override2)
        t1 = dict(TIMER, initial="triggered")
        facs = [f1, f2, t1, TIMER, IDLE_USER, IDLE_USER]
        init, trans = interleave(facs)
        tag = lambda f, i: f["name"] + str(i)
        A1, A2, T1, T2, U1, U2 = (tag(facs[i], i) for i in range(6))
        ch = {
            (U1, "svc"): (A1, "svc"), (A1, "svc"): (U1, "svc"),
            (U2, "svc"): (A2, "svc"), (A2, "svc"): (U2, "svc"),
            (A1, "ring"): (A2, "ring"), (A2, "ring"): (A1, "ring"),
            (A1, "trig"): (T1, "trig"), (T1, "clk"): (A1, "clk"),
            (A2, "trig"): (T2, "trig"), (T2, "clk"): (A2, "clk"),
        }
        return explore(init, trans, ch)

    # quasi-deterministic administrator = coordinated server x ring, flattened
    # into a single role table over components svc/ring/clk/trig.
    coord = {
        "name": "admin",
        "initial": ("remn", "abst"),
        "trans": [],
    }
    for (s, (t, i, o)) in kept:
        coord["trans"].append((s, t, i and i[1:], o and o[1:]))
    # flatten state tuples into single hashable values
    flat = {
        "name": "admin",
        "initial": "remn|abst",
        "trans": [("|".join(s), "|".join(t), i, o) for (s, t, i, o) in coord["trans"]],
    }

    def lasso_traces(admin, i1, i2, bound):
        # events are compared under structural channel names, not the factor
        # display tags, which differ between the two admin variants
        start, order, graph = build(admin, i1, i2)
        canon = {"0": "x1", "1": "x2", "2": "t1", "3": "t2"}
        traces = set()
        work = deque([(start, ())])
        seen = {(start, ())}
        while work:
            cfg, tr = work.popleft()
            traces.add(tr)
            for (nxt, inp, out) in graph[cfg]:
                ev = None
                if out is not None:
                    ev = (canon[out[0][-1]], out[1], out[2])
                ntr = tr + (ev,) if ev else tr
                if len(ntr) <= bound and (nxt, ntr) not in seen:
                    seen.add((nxt, ntr))
                    work.append((nxt, ntr))
        return traces, len(order)

    q_traces, q_cfgs = lasso_traces(flat, "remn|avlb", "remn|abst", 8)
    d_traces, d_cfgs = lasso_traces(DET_ADMIN, "avail", "absent", 8)
    print(f"quasi ring configs: {q_cfgs}, det ring configs: {d_cfgs}")
    print(f"trace sets equal at bound 8: {q_traces == d_traces}")
    print("longest trace:", max(sorted(q_traces), key=len))

    broken = dict(DET_ADMIN)
    broken["trans"] = [t for t in DET_ADMIN["trans"] if t[:2] != ("avail", "absent")]
    b_traces, _ = lasso_traces(broken, "avail", "absent", 8)
    diff = sorted(q_traces ^ b_traces, key=lambda t: (len(t), t))
    print("shortest distinguishing vs broken det admin:", diff[0] if diff else None)

    # ------------------------------------------------------------------
    print()
    print("== rings with active users: safety ==")

    def build_ring(n):
        admins = [dict(flat, initial=("remn|avlb" if i == 0 else "remn|abst")) for i in range(n)]
        timers = [dict(TIMER, initial=("triggered" if i == 0 else "wait")) for i in range(n)]
        users = [dict(USER) for _ in range(n)]
        facs = admins + timers + users
        # Expanded on demand: the unwired ring4 product is far larger than
        # its configuration graph.
        init, expand = factor_moves(facs)
        trans_r = OnDemand(expand)
        tags = [facs[i]["name"] + str(i) for i in range(len(facs))]
        A, T, U = tags[:n], tags[n : 2 * n], tags[2 * n :]
        ch = {}
        for i in range(n):
            ch[(U[i], "svc")] = (A[i], "svc")
            ch[(A[i], "svc")] = (U[i], "svc")
            ch[(A[i], "ring")] = (A[(i + 1) % n], "ring")
            ch[(A[i], "trig")] = (T[i], "trig")
            ch[(T[i], "clk")] = (A[i], "clk")
        return explore(init, trans_r, ch), ch

    for n in (2, 3, 4):
        (start, order, graph), ch = build_ring(n)
        edges = sum(len(v) for v in graph.values())
        excited = sum(1 for (_state, pending) in order if pending is not None)
        viol_crit = viol_token = deadlocks = 0
        for (state, pending) in order:
            users = state[2 * n :]
            admins = state[:n]
            crits = sum(1 for u in users if u == "crit")
            possession = sum(1 for a in admins if a.split("|")[1] != "abst")
            inflight = 1 if (pending is not None and pending[2] == "token") else 0
            if crits >= 2:
                viol_crit += 1
            if possession + inflight != 1:
                viol_token += 1
            if not graph[(state, pending)]:
                deadlocks += 1
        print(
            f"ring n={n}: configs={len(order)}, edges={edges}, excited={excited}, "
            f"two-crit={viol_crit}, token-viol={viol_token}, deadlocks={deadlocks}"
        )
        print(f"ring n={n} row census:", row_census(order, graph, ch))

    # negative control: drop both token-possession conditions (1 and 2 --
    # they overlap on the entry-at-abst transition, so dropping only one
    # changes nothing)
    def deny_no_need_token(state, tgt, inp, out):
        spont = inp is None
        if spont and state[0] == "crit" and tgt[1] == "abst":
            return True
        if (
            spont
            and state[1] == "interm"
            and tgt[0] == "remn"
            and out is not None
            and out[1:] == ("svc", "cf_fin")
        ):
            return True
        return False

    kept_bad = [
        (s, e) for s, es in trans.items() for e in es if not deny_no_need_token(s, e[0], e[1], e[2])
    ]
    flat_bad = {
        "name": "admin",
        "initial": "remn|abst",
        "trans": [("|".join(s), "|".join(t), i and i[1:], o and o[1:]) for (s, (t, i, o)) in kept_bad],
    }
    saved_flat = dict(flat)
    flat.clear()
    flat.update(flat_bad)
    (start, order, graph), _ = build_ring(2)
    bad_crit = sum(
        1 for (state, _p) in order if sum(1 for u in state[4:] if u == "crit") >= 2
    )
    print(f"ring n=2 WITHOUT the token-possession condition: two-crit configs={bad_crit}")
    flat.clear()
    flat.update(saved_flat)

    # ------------------------------------------------------------------
    print()
    print("== n users in pairwise mutual exclusion (conditions mx_i_j) ==")

    def pairwise_mutex_deny(n):
        """Condition mx_i_j: user j may not enter crit while user i is in crit.

        One test per ordered pair, the way the conditions are declared;
        each matching move changes user j's slot, so it is active inside
        the pair's scope.
        """
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]

        def deny(state, tgt, inp, out):
            return any(
                (state[i], state[j], tgt[i], tgt[j]) == ("crit", "try", "crit", "crit")
                for (i, j) in pairs
            )

        return deny

    for n in (3, 4):
        deny_mx = pairwise_mutex_deny(n)
        init, trans = interleave([USER] * n)
        kept = {s: [e for e in es if not deny_mx(s, *e)] for s, es in trans.items()}
        reach = {init}
        fr = deque([init])
        while fr:
            s = fr.popleft()
            for (t, _i, _o) in kept[s]:
                if t not in reach:
                    reach.add(t)
                    fr.append(t)
        server = f"server{n}"
        init_w, trans_w = interleave([USER] * n + [SERVER])
        ch = {("user0", "svc"): (server, "svc"), (server, "svc"): ("user0", "svc")}
        start, order, graph = explore(init_w, trans_w, ch, deny=deny_mx)
        edges = sum(len(v) for v in graph.values())
        excited = sum(1 for (_state, pending) in order if pending is not None)
        print(
            f"mutex n={n}: reachable={len(reach)}, kept={sum(len(es) for es in kept.values())}; "
            f"wired configs={len(order)}, edges={edges}, excited={excited}"
        )

    # ------------------------------------------------------------------
    print()
    print("== man-in-the-middle separation: independent cross-check ==")

    def mitm_deny_flat(state, tgt, inp, out):
        scoped_tags = ("server1", "user2")
        active = (
            state[1] != tgt[1]
            or state[2] != tgt[2]
            or (inp is not None and inp[0] in scoped_tags)
            or (out is not None and out[0] in scoped_tags)
        )
        if not active:
            return False
        spont = inp is None
        c1, u2 = state[1], state[2]
        c1t, u2t = tgt[1], tgt[2]
        if spont and u2 == "remn" and c1t == "crit":
            return True
        if spont and u2 == "try" and c1t == "crit":
            return True
        if spont and c1 == "crit" and u2t == "exit":
            return True
        if spont and u2 == "exit" and c1t == "remn":
            return True
        return False

    init4, trans4 = interleave([USER, SERVER, USER, SERVER])
    ch4 = {
        ("user0", "svc"): ("server1", "svc"),
        ("server1", "svc"): ("user0", "svc"),
        ("user2", "svc"): ("server3", "svc"),
        ("server3", "svc"): ("user2", "svc"),
    }
    startL, orderL, graphL = explore(init4, trans4, ch4, deny=mitm_deny_flat)

    # right-hand side: restrict the (server, user) middle first, then couple
    initM, transM = interleave([SERVER, USER])

    def mid_deny(state, tgt, inp, out):
        spont = inp is None
        if spont and state[1] == "remn" and tgt[0] == "crit":
            return True
        if spont and state[1] == "try" and tgt[0] == "crit":
            return True
        if spont and state[0] == "crit" and tgt[1] == "exit":
            return True
        if spont and state[1] == "exit" and tgt[0] == "remn":
            return True
        return False

    flat_mid = {"name": "middle", "initial": "remn|remn", "trans": []}
    for s, es in transM.items():
        for (t, i, o) in es:
            if mid_deny(s, t, i, o):
                continue
            qual = lambda lab: None if lab is None else (lab[0] + "." + lab[1], lab[2])
            flat_mid["trans"].append(("|".join(s), "|".join(t), qual(i), qual(o)))

    initR, transR = interleave([USER, flat_mid, SERVER])
    chR = {
        ("user0", "svc"): ("middle1", "server0.svc"),
        ("middle1", "server0.svc"): ("user0", "svc"),
        ("middle1", "user1.svc"): ("server2", "svc"),
        ("server2", "svc"): ("middle1", "user1.svc"),
    }
    startR, orderR, graphR = explore(initR, transR, chR)

    def norm_state_L(s):
        return s

    def norm_state_R(s):
        return (s[0],) + tuple(s[1].split("|")) + (s[2],)

    nodesL = {(norm_state_L(s), p and p[2]) for (s, p) in orderL}
    nodesR = {(norm_state_R(s), p and p[2]) for (s, p) in orderR}
    edgesL = sum(len(v) for v in graphL.values())
    edgesR = sum(len(v) for v in graphR.values())
    print(f"lhs configs={len(orderL)} edges={edgesL}; rhs configs={len(orderR)} edges={edgesR}")
    print(f"normalized node sets equal: {nodesL == nodesR}")

    canonL = {("user0", "svc"): "p1u", ("server1", "svc"): "p1c", ("user2", "svc"): "p2u", ("server3", "svc"): "p2c"}
    canonR = {("user0", "svc"): "p1u", ("middle1", "server0.svc"): "p1c", ("middle1", "user1.svc"): "p2u", ("server2", "svc"): "p2c"}

    def traces_of(start, graph, channels, canon, bound):
        traces = set()
        work = deque([(start, ())])
        seen = {(start, ())}
        while work:
            cfg, tr = work.popleft()
            traces.add(tr)
            for (nxt, inp, out) in graph[cfg]:
                ev = None
                if out is not None and (out[0], out[1]) in channels:
                    ev = (canon[(out[0], out[1])], out[2])
                ntr = tr + (ev,) if ev else tr
                if len(ntr) <= bound and (nxt, ntr) not in seen:
                    seen.add((nxt, ntr))
                    work.append((nxt, ntr))
        return traces

    tL = traces_of(startL, graphL, ch4, canonL, 8)
    tR = traces_of(startR, graphR, chR, canonR, 8)
    print(f"trace sets (bound 8) equal: {tL == tR}; lhs traces={len(tL)}")


if __name__ == "__main__":
    main()
