"""Worked examples: mutual exclusion, token-ring coordination, relaying.

The shipped corpus, ``src/fioa/corpus/*.pw``, is the one definition of
every example; this module loads it.  The machines follow a
request/confirm service discipline:

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

Only token rings are generated here (:func:`ring_def`), since rings of
any size are needed.  Documents and automata are frozen, so
:func:`document` parses each file once and shares the result.
"""
from __future__ import annotations

import functools
import os
from dataclasses import replace

from .core import Nfioa
from .dsl import NetFactor, NetworkDef, ResolvedDocument, WorkbenchDocument, parse, resolve
from .network import ChannelSpec

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
    "administrator_def",
    "lax_administrator_def",
    "ring_def",
    "ring_document",
    "ring_eq_document",
    "MUTEX_CYCLE",
    "ADMIN_LIVE_STATES",
]

_CORPUS = os.path.join(os.path.dirname(__file__), "corpus")

# Teaching order.
_NAMES = ("mutex", "broken_mutex", "administrator", "mitm", "ring2", "ring3", "ring2_eq")


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def names() -> tuple[str, ...]:
    """The shipped example documents, in teaching order."""

    return _NAMES


def text(name: str) -> str:
    """The shipped workbench text of an example document."""

    if name not in _NAMES:
        raise KeyError(f"unknown example {name!r}; available: {', '.join(_NAMES)}")
    with open(os.path.join(_CORPUS, f"{name}.pw"), encoding="utf-8") as handle:
        return handle.read()


@functools.cache
def document(name: str) -> WorkbenchDocument:
    return parse(text(name))


def build(name: str) -> ResolvedDocument:
    """Resolve an example document (a fresh, mutable result on every call)."""

    return resolve(document(name))


def _automaton(doc: str, name: str) -> Nfioa:
    return next(a for a in document(doc).automata if a.name == name)


# ---------------------------------------------------------------------------
# role machines
# ---------------------------------------------------------------------------


def user_role() -> Nfioa:
    """A client cycling request -> critical -> release."""

    return _automaton("mutex", "User")


def server_role() -> Nfioa:
    """The matching granter for :func:`user_role`."""

    return _automaton("mutex", "Server")


def deaf_server_role() -> Nfioa:
    """A server that never picks up requests: breaks well-formedness."""

    return _automaton("broken_mutex", "DeafServer")


def ring_role() -> Nfioa:
    """One cell of a token ring; announces token arrival on ``trig``."""

    return _automaton("ring2", "Ring")


def timer_role() -> Nfioa:
    """Armed by a trigger, eventually fires a timeout."""

    return _automaton("ring2", "Timer")


def idle_user_role() -> Nfioa:
    """A client that never asks for anything (its send alphabet is empty)."""

    return _automaton("ring2_eq", "IdleUser")


def det_admin_role() -> Nfioa:
    """A one-machine administrator with the administrator's wire protocol.

    Component order matches the flat interface of the built
    ``administrator`` network (inputs ``svc, ring, clk``; outputs
    ``svc, trig, ring``) so the two can be swapped inside a ring and
    compared channel-for-channel.
    """

    return _automaton("ring2_eq", "DetAdmin")


def sticky_admin_role() -> Nfioa:
    """A deterministic administrator that never passes the token on."""

    return _automaton("ring2_eq", "StickyAdmin")


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


def administrator_def() -> NetworkDef:
    """Server and ring cell coordinated by deny rules (no channels)."""

    return next(n for n in document("ring2").networks if n.name == "administrator")


def lax_administrator_def() -> NetworkDef:
    """Administrator missing both token-possession rules (a negative control).

    Without ``need_token_to_serve`` and ``keep_token_while_entering`` a
    ring of these administrators lets two servers sit in ``crit`` at
    once.
    """

    admin = administrator_def()
    return replace(admin, name="lax_administrator", conditions=admin.conditions[2:], acceptance=None)


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

    cells = range(1, n + 1)
    factors = (
        [NetFactor(f"a{i}", admin_ref, admin_first_init if i == 1 else None) for i in cells]
        + [NetFactor(f"t{i}", "Timer", ("triggered",) if i == 1 else None) for i in cells]
        + [NetFactor(f"u{i}", user_ref) for i in cells]
    )
    channels: list[ChannelSpec] = []
    for i in cells:
        succ = i % n + 1
        channels.append(ChannelSpec(f"u{i}", "svc", f"a{i}", "svc"))
        channels.append(ChannelSpec(f"a{i}", "svc", f"u{i}", "svc"))
        channels.append(ChannelSpec(f"a{i}", "ring", f"a{succ}", "ring"))
        channels.append(ChannelSpec(f"a{i}", "trig", f"t{i}", "trig"))
        channels.append(ChannelSpec(f"t{i}", "clk", f"a{i}", "clk"))
    return NetworkDef(name=name, factors=tuple(factors), channels=tuple(channels))


def ring_document(n: int) -> WorkbenchDocument:
    """``ring2``'s machines and administrator around a ring of ``n`` cells."""

    ring2 = document("ring2")
    return replace(ring2, networks=(administrator_def(), ring_def(n, name=f"ring{n}")))


def ring_eq_document() -> WorkbenchDocument:
    return document("ring2_eq")


def separation_sides() -> tuple[Nfioa, Nfioa]:
    """Both constructions of the relayed composite, flattened.

    Left: deny rules scoped to the middle pair of the fully wired
    four-machine network.  Right: the middle pair restricted standalone,
    then wired between the outer machines.
    """

    env = build("mitm")
    return env.automata["mitm"], env.automata["mitm_relayed"]
