"""Worked examples: mutual exclusion, token-ring coordination, relaying.

Every example is exposed as a :class:`~fioa.dsl.WorkbenchDocument` so it
can be serialized to workbench text, rebuilt, and exercised from the
command line.  The machines follow a request/confirm service discipline:

* ``User`` asks for a resource (``req``), enters its critical phase once
  the grant (``cf_req``) arrives, then releases (``fin``/``cf_fin``).
* ``Server`` is the matching granter.
* ``Ring``/``Timer`` circulate a token: a ring cell that receives the
  token arms its timer, and passes the token on when the timeout fires.
* ``administrator`` couples a server with a ring cell by deny rules so
  that grants are only issued while the cell holds the token.
* ``DetAdmin`` is a single-machine administrator with the same wire
  protocol, used for trace-equivalence comparisons.
* ``mitm`` chains two service protocols through a relaying middle pair
  and shows that scoping deny rules to that pair is the same as
  restricting the pair standalone and then wiring it.
"""
from __future__ import annotations

from dataclasses import replace

from .core import Acceptance, ComponentAlphabet, Nfioa, Transition, epsilon_char, single_char
from .dsl import Directive, NetFactor, NetworkDef, ResolvedDocument, WorkbenchDocument, resolve
from .network import ChannelSpec, ConditionSpec, PatternSpec

__all__ = [
    "names",
    "document",
    "text",
    "build",
    "separation_sides",
    "user_role",
    "server_role",
    "deaf_server_role",
    "ring_role",
    "timer_role",
    "idle_user_role",
    "det_admin_role",
    "sticky_admin_role",
    "closed_mutex_def",
    "administrator_def",
    "lax_administrator_def",
    "ring_def",
    "MUTEX_CYCLE",
    "ADMIN_LIVE_STATES",
]


# ---------------------------------------------------------------------------
# role machines
# ---------------------------------------------------------------------------


def _vec(comps: tuple[ComponentAlphabet, ...], label: str | None):
    if label is None:
        return epsilon_char(len(comps))
    comp, char = label.split(".")
    for k, c in enumerate(comps):
        if c.name == comp:
            return single_char(len(comps), k, char)
    raise ValueError(f"unknown component {comp!r}")


def _machine(name, *, states, initial, inputs, outputs, rows, accept=None) -> Nfioa:
    in_comps = tuple(ComponentAlphabet(n, frozenset(cs)) for n, cs in inputs)
    out_comps = tuple(ComponentAlphabet(n, frozenset(cs)) for n, cs in outputs)
    transitions = [
        Transition((src,), (tgt,), _vec(in_comps, ilab), _vec(out_comps, olab))
        for src, tgt, ilab, olab in rows
    ]
    if accept is None:
        accept = Acceptance.muller([frozenset((s,) for s in states)])
    return Nfioa(
        name=name,
        states=frozenset((s,) for s in states),
        inputs=in_comps,
        outputs=out_comps,
        initial=(initial,),
        acceptance=accept,
        transitions=frozenset(transitions),
    )


def user_role() -> Nfioa:
    """A client cycling request -> critical -> release."""

    return _machine(
        "User",
        states=("remn", "try", "crit", "exit"),
        initial="remn",
        inputs=(("svc", ("cf_req", "cf_fin")),),
        outputs=(("svc", ("req", "fin")),),
        rows=(
            ("remn", "try", None, "svc.req"),
            ("try", "crit", "svc.cf_req", None),
            ("crit", "exit", None, "svc.fin"),
            ("exit", "remn", "svc.cf_fin", None),
        ),
    )


def server_role() -> Nfioa:
    """The matching granter for :func:`user_role`."""

    return _machine(
        "Server",
        states=("remn", "try", "crit", "exit"),
        initial="remn",
        inputs=(("svc", ("req", "fin")),),
        outputs=(("svc", ("cf_req", "cf_fin")),),
        rows=(
            ("remn", "try", "svc.req", None),
            ("try", "crit", None, "svc.cf_req"),
            ("crit", "exit", "svc.fin", None),
            ("exit", "remn", None, "svc.cf_fin"),
        ),
    )


def deaf_server_role() -> Nfioa:
    """A server that never picks up requests: breaks well-formedness."""

    base = server_role()
    dropped = frozenset(
        t for t in base.transitions if not (t.source == ("remn",) and t.target == ("try",))
    )
    return replace(base, name="DeafServer", transitions=dropped)


def ring_role() -> Nfioa:
    """One cell of a token ring; announces token arrival on ``trig``."""

    return _machine(
        "Ring",
        states=("abst", "avlb", "interm"),
        initial="abst",
        inputs=(("ring", ("token",)), ("clk", ("timeout",))),
        outputs=(("trig", ("trigger",)), ("ring", ("token",))),
        rows=(
            ("abst", "avlb", "ring.token", "trig.trigger"),
            ("avlb", "interm", "clk.timeout", None),
            ("interm", "abst", None, "ring.token"),
        ),
    )


def timer_role() -> Nfioa:
    """Armed by a trigger, eventually fires a timeout."""

    return _machine(
        "Timer",
        states=("wait", "triggered"),
        initial="wait",
        inputs=(("trig", ("trigger",)),),
        outputs=(("clk", ("timeout",)),),
        rows=(
            ("wait", "triggered", "trig.trigger", None),
            ("triggered", "wait", None, "clk.timeout"),
        ),
    )


def idle_user_role() -> Nfioa:
    """A client that never asks for anything (its send alphabet is empty)."""

    return _machine(
        "IdleUser",
        states=("idle",),
        initial="idle",
        inputs=(("svc", ("cf_req", "cf_fin")),),
        outputs=(("svc", ()),),
        rows=(),
    )


def det_admin_role() -> Nfioa:
    """A one-machine administrator with the administrator's wire protocol.

    Component order matches the flat interface of the built
    ``administrator`` network (inputs ``svc, ring, clk``; outputs
    ``svc, trig, ring``) so the two can be swapped inside a ring and
    compared channel-for-channel.
    """

    return _machine(
        "DetAdmin",
        states=("absent", "avail", "serving"),
        initial="absent",
        inputs=(("svc", ("req", "fin")), ("ring", ("token",)), ("clk", ("timeout",))),
        outputs=(("svc", ("cf_req", "cf_fin")), ("trig", ("trigger",)), ("ring", ("token",))),
        rows=(
            ("absent", "avail", "ring.token", "trig.trigger"),
            ("avail", "serving", "svc.req", "svc.cf_req"),
            ("serving", "avail", "svc.fin", "svc.cf_fin"),
            ("avail", "absent", "clk.timeout", "ring.token"),
        ),
        # Two fair loops: circulating the token without ever serving, and
        # the full service cycle.  Both count as accepting runs.
        accept=Acceptance.muller(
            [
                frozenset({("absent",), ("avail",)}),
                frozenset({("absent",), ("avail",), ("serving",)}),
            ]
        ),
    )


def sticky_admin_role() -> Nfioa:
    """A deterministic administrator that never passes the token on."""

    base = det_admin_role()
    dropped = frozenset(
        t for t in base.transitions if not (t.source == ("avail",) and t.target == ("absent",))
    )
    return replace(base, name="StickyAdmin", transitions=dropped)


# ---------------------------------------------------------------------------
# network definitions
# ---------------------------------------------------------------------------

#: The service handshake loop of the wired user/server pair.
MUTEX_CYCLE: tuple[tuple[str, str], ...] = (
    ("remn", "remn"),
    ("try", "remn"),
    ("try", "try"),
    ("try", "crit"),
    ("crit", "crit"),
    ("exit", "crit"),
    ("exit", "exit"),
    ("exit", "remn"),
)

#: Every (server, ring) pair the coordinated administrator can reach.
ADMIN_LIVE_STATES: tuple[tuple[str, str], ...] = (
    ("crit", "avlb"),
    ("crit", "interm"),
    ("exit", "abst"),
    ("exit", "avlb"),
    ("exit", "interm"),
    ("remn", "abst"),
    ("remn", "avlb"),
    ("remn", "interm"),
    ("try", "abst"),
    ("try", "avlb"),
    ("try", "interm"),
)


def closed_mutex_def(*, server_ref: str = "Server", with_acceptance: bool = True) -> NetworkDef:
    """User and server wired to each other on the service lane."""

    acceptance = Acceptance.muller([frozenset(MUTEX_CYCLE)]) if with_acceptance else None
    return NetworkDef(
        name="closed_mutex",
        factors=(NetFactor("u", "User"), NetFactor("c", server_ref)),
        channels=(
            ChannelSpec("u", "svc", "c", "svc"),
            ChannelSpec("c", "svc", "u", "svc"),
        ),
        acceptance=acceptance,
    )


_ADMIN_CONDITIONS: tuple[ConditionSpec, ...] = (
    ConditionSpec(
        "need_token_to_serve",
        ("*", "abst"),
        ("crit", "*"),
        input=PatternSpec.spontaneous(),
    ),
    ConditionSpec(
        "keep_token_while_entering",
        ("try", "*"),
        ("*", "abst"),
        input=PatternSpec.spontaneous(),
    ),
    ConditionSpec(
        "keep_token_while_serving",
        ("crit", "*"),
        ("*", "abst"),
        input=PatternSpec.spontaneous(),
    ),
    ConditionSpec(
        "confirm_before_handover",
        ("*", "interm"),
        ("remn", "*"),
        input=PatternSpec.spontaneous(),
        output=PatternSpec.literal("c", "svc", "cf_fin"),
    ),
)


def administrator_def() -> NetworkDef:
    """Server and ring cell coordinated by deny rules (no channels)."""

    return NetworkDef(
        name="administrator",
        factors=(NetFactor("c", "Server"), NetFactor("r", "Ring")),
        conditions=_ADMIN_CONDITIONS,
        acceptance=Acceptance.muller([frozenset(ADMIN_LIVE_STATES)]),
    )


def lax_administrator_def() -> NetworkDef:
    """Administrator missing both token-possession rules (a negative control).

    Without ``need_token_to_serve`` and ``keep_token_while_entering`` a
    ring of these administrators lets two servers sit in ``crit`` at
    once.
    """

    return NetworkDef(
        name="lax_administrator",
        factors=(NetFactor("c", "Server"), NetFactor("r", "Ring")),
        conditions=_ADMIN_CONDITIONS[2:],
        acceptance=None,
    )


def ring_def(
    n: int,
    *,
    name: str,
    admin_ref: str = "administrator",
    admin_first_init: tuple[str, ...] = ("remn", "avlb"),
    user_ref: str = "User",
) -> NetworkDef:
    """A ring of ``n`` administrators, their timers, and their clients.

    Administrator ``a1`` starts holding the token with its timer already
    triggered; everyone else starts token-less and quiet.  Each
    administrator serves its own client and passes the token to its
    clockwise neighbour when its timer fires.
    """

    factors: list[NetFactor] = []
    for i in range(1, n + 1):
        factors.append(NetFactor(f"a{i}", admin_ref, admin_first_init if i == 1 else None))
    for i in range(1, n + 1):
        factors.append(NetFactor(f"t{i}", "Timer", ("triggered",) if i == 1 else None))
    for i in range(1, n + 1):
        factors.append(NetFactor(f"u{i}", user_ref))
    channels: list[ChannelSpec] = []
    for i in range(1, n + 1):
        succ = i % n + 1
        channels.append(ChannelSpec(f"u{i}", "svc", f"a{i}", "svc"))
        channels.append(ChannelSpec(f"a{i}", "svc", f"u{i}", "svc"))
        channels.append(ChannelSpec(f"a{i}", "ring", f"a{succ}", "ring"))
        channels.append(ChannelSpec(f"a{i}", "trig", f"t{i}", "trig"))
        channels.append(ChannelSpec(f"t{i}", "clk", f"a{i}", "clk"))
    return NetworkDef(name=name, factors=tuple(factors), channels=tuple(channels))


_RELAY_PATTERNS: tuple[tuple[str, tuple[str, str], tuple[str, str]], ...] = (
    ("no_entry_while_relay_remn", ("*", "remn"), ("crit", "*")),
    ("no_entry_while_relay_try", ("*", "try"), ("crit", "*")),
    ("no_relay_exit_while_crit", ("crit", "*"), ("*", "exit")),
    ("no_reset_while_relay_exit", ("*", "exit"), ("remn", "*")),
)


def _relay_conditions(on: tuple[str, str] | None) -> tuple[ConditionSpec, ...]:
    return tuple(
        ConditionSpec(name, source, target, input=PatternSpec.spontaneous(), on=on)
        for name, source, target in _RELAY_PATTERNS
    )


def mitm_def() -> NetworkDef:
    """Two service protocols chained through the pair (c1, u2).

    The deny rules are scoped to the middle pair: the first server only
    grants entry once the relayed request has been granted, and only
    resets after the relay has reset.
    """

    return NetworkDef(
        name="mitm",
        factors=(
            NetFactor("u1", "User"),
            NetFactor("c1", "Server"),
            NetFactor("u2", "User"),
            NetFactor("c2", "Server"),
        ),
        channels=(
            ChannelSpec("u1", "svc", "c1", "svc"),
            ChannelSpec("c1", "svc", "u1", "svc"),
            ChannelSpec("u2", "svc", "c2", "svc"),
            ChannelSpec("c2", "svc", "u2", "svc"),
        ),
        conditions=_relay_conditions(("c1", "u2")),
    )


def relay_def() -> NetworkDef:
    """The middle pair on its own: a server and a user under the same rules."""

    return NetworkDef(
        name="relay",
        factors=(NetFactor("c", "Server"), NetFactor("u", "User")),
        conditions=_relay_conditions(None),
    )


def mitm_relayed_def() -> NetworkDef:
    """The chained protocol built from the standalone restricted relay.

    The relay's flat interface keeps both halves' lanes, so its
    components are addressed by index: input/output 0 is the server
    side, input/output 1 the user side.
    """

    return NetworkDef(
        name="mitm_relayed",
        factors=(
            NetFactor("u1", "User"),
            NetFactor("m", "relay"),
            NetFactor("c2", "Server"),
        ),
        channels=(
            ChannelSpec("u1", "svc", "m", 0),
            ChannelSpec("m", 0, "u1", "svc"),
            ChannelSpec("m", 1, "c2", "svc"),
            ChannelSpec("c2", "svc", "m", 1),
        ),
    )


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def mutex_document() -> WorkbenchDocument:
    return WorkbenchDocument(
        automata=(user_role(), server_role()),
        networks=(closed_mutex_def(),),
        directives=(
            Directive("wellformed", "closed_mutex"),
            Directive("consistent", "closed_mutex"),
            Directive("protocol", "closed_mutex"),
            Directive("quasidet", "closed_mutex"),
        ),
    )


def broken_mutex_document() -> WorkbenchDocument:
    return WorkbenchDocument(
        automata=(user_role(), deaf_server_role()),
        networks=(closed_mutex_def(server_ref="DeafServer", with_acceptance=False),),
    )


def administrator_document() -> WorkbenchDocument:
    return WorkbenchDocument(
        automata=(server_role(), ring_role()),
        networks=(administrator_def(),),
        directives=(
            Directive("quasidet", "administrator"),
            Directive("consistent", "administrator"),
        ),
    )


def mitm_document() -> WorkbenchDocument:
    return WorkbenchDocument(
        automata=(user_role(), server_role()),
        networks=(mitm_def(), relay_def(), mitm_relayed_def()),
    )


def ring_document(n: int) -> WorkbenchDocument:
    return WorkbenchDocument(
        automata=(user_role(), server_role(), ring_role(), timer_role()),
        networks=(
            administrator_def(),
            ring_def(n, name=f"ring{n}"),
        ),
    )


def ring_eq_document() -> WorkbenchDocument:
    return WorkbenchDocument(
        automata=(
            server_role(),
            ring_role(),
            timer_role(),
            idle_user_role(),
            det_admin_role(),
            sticky_admin_role(),
        ),
        networks=(
            administrator_def(),
            ring_def(2, name="ring_quasi", user_ref="IdleUser"),
            ring_def(
                2,
                name="ring_det",
                admin_ref="DetAdmin",
                admin_first_init=("avail",),
                user_ref="IdleUser",
            ),
            ring_def(
                2,
                name="ring_sticky",
                admin_ref="StickyAdmin",
                admin_first_init=("avail",),
                user_ref="IdleUser",
            ),
        ),
    )


_BUILDERS = {
    "mutex": mutex_document,
    "broken_mutex": broken_mutex_document,
    "administrator": administrator_document,
    "mitm": mitm_document,
    "ring2": lambda: ring_document(2),
    "ring3": lambda: ring_document(3),
    "ring2_eq": ring_eq_document,
}


def names() -> tuple[str, ...]:
    """The shipped example documents, in teaching order."""

    return tuple(_BUILDERS)


def document(name: str) -> WorkbenchDocument:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown example {name!r}; available: {', '.join(_BUILDERS)}") from None
    return builder()


def text(name: str) -> str:
    """Canonical workbench text for an example document."""

    from .dsl import serialize

    return serialize(document(name))


def build(name: str) -> ResolvedDocument:
    """Parse nothing, build everything: resolve the example in memory."""

    return resolve(document(name))


def separation_sides() -> tuple[Nfioa, Nfioa]:
    """Both constructions of the relayed composite, flattened.

    Left: deny rules scoped to the middle pair of the fully wired
    four-machine network.  Right: the middle pair restricted standalone,
    then wired between the outer machines.
    """

    env = build("mitm")
    return env.automata["mitm"], env.automata["mitm_relayed"]
