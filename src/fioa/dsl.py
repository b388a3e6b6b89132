"""Text format for automata and networks.

A workbench document is a sequence of ``automaton`` blocks, ``network``
blocks, and ``check`` directives.  Automaton blocks describe single-slot
machines (states are bare names); composite state spaces only arise from
networks, which are written in terms of previously declared automata or
networks.  The grammar is line-oriented only by convention — the parser
is free-form and every statement ends with a semicolon.

    automaton User {
      states crit, exit, remn, try;
      initial remn;
      inputs svc: {cf_fin, cf_req};
      outputs svc: {fin, req};
      accept muller {{crit, exit, remn, try}};
      trans remn -> try on - / svc.req;
      ...
    }

    network closed_mutex {
      use u = User;
      use c = Server;
      channel u.svc -> c.svc;
      channel c.svc -> u.svc;
      accept muller {{(remn, remn), ...}};
    }

    check consistent closed_mutex;

``parse`` turns text into a ``WorkbenchDocument``; ``serialize`` renders
the canonical form (sorted states, characters, and transitions; declared
order for network parts); ``resolve`` builds every network in
declaration order so names can refer to earlier results.
"""
from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, Iterator, NamedTuple, TypeVar

from .core import Acceptance, ComponentAlphabet, Nfioa, epsilon_char, label_str, single_char, state_str
from .errors import DslError, InvalidAutomaton, WiringError
from .network import (
    BuiltNetwork,
    ChannelSpec,
    ConditionSpec,
    NetFactor,
    NetworkDef,
    PatternSpec,
    build_network,
)

RESERVED = frozenset(
    {
        "automaton", "network", "states", "initial", "inputs", "outputs",
        "accept", "muller", "final", "trans", "on", "use", "init", "channel",
        "condition", "from", "to", "input", "output", "deny", "spontaneous",
        "any", "active", "check",
    }
)

CHECK_KINDS = frozenset(
    {"wellformed", "consistent", "protocol", "quasidet", "deterministic", "valid"}
)

# Block sections that may appear more than once; every other one at most once.
_REPEATABLE = frozenset({"trans", "use", "channel", "condition"})

_T = TypeVar("_T")


# ---------------------------------------------------------------------------
# document model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Directive:
    """A ``check`` line: an assertion the document makes about a name."""

    kind: str
    target: str
    # (line, col) of the target name when parsed from text
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class WorkbenchDocument:
    automata: tuple[Nfioa, ...] = ()
    networks: tuple[NetworkDef, ...] = ()
    directives: tuple[Directive, ...] = ()


class _Automata(Mapping):
    """Declared automata, then networks' flat automata, by name.

    A network's is its build's ``automaton``, read, and so for a wired
    network built, only when asked for by name or by value.
    """

    def __init__(self, declared: dict[str, Nfioa], networks: dict[str, BuiltNetwork]):
        self._declared, self._networks = declared, networks

    def __getitem__(self, name: str) -> Nfioa:
        if name in self._declared:
            return self._declared[name]
        return self._networks[name].automaton

    def __contains__(self, name) -> bool:
        return name in self._declared or name in self._networks

    def __iter__(self) -> Iterator[str]:
        return chain(self._declared, self._networks)

    def __len__(self) -> int:
        return len(self._declared) + len(self._networks)


@dataclass
class ResolvedDocument:
    """Every document name bound to a concrete machine.

    ``automata`` maps each name — declared automata and built networks
    alike — to an operable automaton; ``networks`` additionally keeps the
    full build result (restriction graph included) for network names.
    `resolve` makes ``automata`` a read-only view over the declared
    automata and ``networks``, in which a wired network's flat automaton
    is built the first time it is read.
    """

    automata: Mapping[str, Nfioa]
    networks: dict[str, BuiltNetwork]


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "punct" | "eof"
    value: str
    line: int
    col: int


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"

# Group names are token kinds; ``skip`` (blanks and comments) makes no token.
_TOKEN_RE = re.compile(
    rf"""
    (?P<skip>[ \t\r\n]+|\#[^\n]*)
  | (?P<ident>{_IDENT})
  | (?P<int>\d+)
  | (?P<punct>->|[{{}}()\[\],;:./=*-])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        if start != pos:
            break  # the character at `pos` starts no token
        pos = m.end()
        kind = m.lastgroup
        if kind != "skip":
            tokens.append(Token._make((kind, m.group(), line, start - line_start + 1)))
        elif (newline := text.rfind("\n", start, pos)) >= 0:
            line += text.count("\n", start, pos)
            line_start = newline + 1
    if pos != len(text):
        raise DslError(f"unexpected character {text[pos]!r}", line=line, col=pos - line_start + 1)
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = tokenize(text)
        self.pos = 0

    # --- token plumbing ---

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None) -> DslError:
        tok = tok or self.peek()
        return DslError(message, line=tok.line, col=tok.col)

    def unexpected(self, wanted: str, tok: Token) -> DslError:
        return self.fail(f"expected {wanted}, found {tok.value or 'end of input'!r}", tok)

    # Keywords and punctuation match on their text alone: no identifier
    # spells a punctuation mark, and no keyword is a number.

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].value == text

    def take(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.value != text:
            raise self.unexpected(repr(text), tok)
        return tok

    def end(self, value: _T) -> _T:
        """Close a statement with ';' and return what it read."""
        self.expect(";")
        return value

    def expect_ident(self, what: str = "name") -> Token:
        tok = self.next()
        if tok.kind != "ident":
            raise self.unexpected(what, tok)
        return tok

    def expect_name(self, what: str = "name") -> Token:
        tok = self.expect_ident(what)
        if tok.value in RESERVED:
            article = "an" if what[0] in "aeiou" else "a"
            raise self.fail(f"{tok.value!r} is a reserved word and cannot be used as {article} {what}", tok)
        return tok

    def expect_alias(self, aliases: set[str], tok: Token | None = None) -> str:
        """Read a factor alias (or check `tok`, one already read) against `aliases`."""
        tok = tok or self.expect_name("factor alias")
        if tok.value not in aliases:
            raise self.fail(f"unknown factor alias {tok.value!r}", tok)
        return tok.value

    def comma_list(self, read: Callable[[], _T]) -> list[_T]:
        items = [read()]
        while self.take(","):
            items.append(read())
        return items

    def braced(self, read: Callable[[], _T]) -> list[_T]:
        """``{ item, ... }``, which may be empty."""
        self.expect("{")
        items = [] if self.at("}") else self.comma_list(read)
        self.expect("}")
        return items

    def parse_body(self, kind: str, readers: dict[str, Callable[[Token], object]]) -> dict:
        """Read a ``{ ... }`` block of sections, each led by its keyword.

        A reader gets its keyword's token.  Repeatable sections collect a
        list; any other section may appear once.
        """
        self.expect("{")
        found: dict = {}
        while not self.take("}"):
            tok = self.next()
            read = readers.get(tok.value)
            if read is None:
                raise self.unexpected(f"{kind} section", tok)
            if tok.value in _REPEATABLE:
                found.setdefault(tok.value, []).append(read(tok))
            elif tok.value in found:
                raise self.fail(f"duplicate {tok.value!r} section", tok)
            else:
                found[tok.value] = read(tok)
        return found

    # --- document ---

    def parse_document(self) -> WorkbenchDocument:
        automata: list[Nfioa] = []
        networks: list[NetworkDef] = []
        directives: list[Directive] = []
        seen: set[str] = set()
        while self.peek().kind != "eof":
            tok = self.next()
            if tok.value == "check":
                directives.append(self.parse_directive())
                continue
            if tok.value == "automaton":
                decl, into = self.parse_automaton(), automata
            elif tok.value == "network":
                decl, into = self.parse_network(tok), networks
            else:
                raise self.unexpected("'automaton', 'network', or 'check'", tok)
            if decl.name in seen:
                raise self.fail(f"name {decl.name!r} is declared twice", tok)
            seen.add(decl.name)
            into.append(decl)
        for d in directives:
            if d.target not in seen:
                names = ", ".join(sorted(seen))
                raise DslError(f"no automaton or network named {d.target!r}; declared: {names}", *d.pos)
        return WorkbenchDocument(tuple(automata), tuple(networks), tuple(directives))

    def parse_directive(self) -> Directive:
        kind_tok = self.expect_ident("check kind")
        if kind_tok.value not in CHECK_KINDS:
            raise self.fail(
                f"unknown check kind {kind_tok.value!r} (expected one of {', '.join(sorted(CHECK_KINDS))})",
                kind_tok,
            )
        target = self.expect_name("target name")
        return self.end(Directive(kind_tok.value, target.value, pos=(target.line, target.col)))

    # --- automaton blocks ---

    def parse_automaton(self) -> Nfioa:
        name_tok = self.expect_name("automaton name")
        found = self.parse_body(
            "an automaton",
            {
                "states": lambda _: self.end(self.comma_list(lambda: self.expect_name().value)),
                "initial": lambda _: self.end(self.expect_name("state").value),
                "inputs": lambda _: self.parse_interface(),
                "outputs": lambda _: self.parse_interface(),
                "accept": lambda _: self.parse_named_acceptance(),
                "trans": self.parse_transition,
            },
        )
        for section in ("states", "initial", "accept"):
            if section not in found:
                raise self.fail(f"automaton {name_tok.value!r} has no {section!r} section", name_tok)
        states, initial, (acceptance, named) = found["states"], found["initial"], found["accept"]
        inputs = found.get("inputs", ())
        outputs = found.get("outputs", ())
        state_set = set(states)
        if initial not in state_set:
            raise self.fail(f"initial state {initial!r} is not declared", name_tok)
        for s in named:
            if s not in state_set:
                raise self.fail(f"acceptance names undeclared state {s!r}", name_tok)
        built: list = []
        in_names = [c.name for c in inputs]
        out_names = [c.name for c in outputs]
        for tok, src, tgt, icomp, ichar, ocomp, ochar in found.get("trans", ()):
            if src not in state_set or tgt not in state_set:
                missing = src if src not in state_set else tgt
                raise self.fail(f"transition names undeclared state {missing!r}", tok)
            ivec = epsilon_char(len(inputs))
            if icomp is not None:
                ivec = self._label_vector(tok, inputs, in_names, icomp, ichar, "input")
            ovec = epsilon_char(len(outputs))
            if ocomp is not None:
                ovec = self._label_vector(tok, outputs, out_names, ocomp, ochar, "output")
            built.append(((src,), (tgt,), ivec, ovec))
        try:
            return Nfioa(
                name=name_tok.value,
                states=frozenset((s,) for s in states),
                inputs=inputs,
                outputs=outputs,
                initial=(initial,),
                acceptance=acceptance,
                transitions=frozenset(built),
            )
        except InvalidAutomaton as exc:
            raise self.fail(
                f"automaton {name_tok.value!r} is malformed: {exc.diagnostics[0]}", name_tok
            ) from None

    def _label_vector(
        self,
        tok: Token,
        comps: tuple[ComponentAlphabet, ...],
        names: list[str],
        comp: str,
        char: str | None,
        side: str,
    ):
        if comp not in names:
            raise self.fail(f"unknown {side} component {comp!r}", tok)
        k = names.index(comp)
        if char not in comps[k].characters:
            raise self.fail(f"character {char!r} is not declared for {side} component {comp!r}", tok)
        return single_char(len(comps), k, char)

    def parse_interface(self) -> tuple[ComponentAlphabet, ...]:
        comps: list[ComponentAlphabet] = []
        if self.take(";"):
            return ()

        def component() -> None:
            name_tok = self.expect_name("component name")
            self.expect(":")
            chars = self.braced(lambda: self.expect_name("character").value)
            if any(c.name == name_tok.value for c in comps):
                raise self.fail(f"duplicate component {name_tok.value!r}", name_tok)
            comps.append(ComponentAlphabet(name_tok.value, frozenset(chars)))

        self.comma_list(component)
        return self.end(tuple(comps))

    def parse_named_acceptance(self) -> tuple[Acceptance, list[str]]:
        """An automaton's acceptance, and the states it names in text order."""
        start = self.pos
        acceptance = self.parse_acceptance(width=1)
        # Between `accept` and `;` every non-reserved identifier is a state.
        named = [
            t.value for t in self.tokens[start : self.pos] if t.kind == "ident" and t.value not in RESERVED
        ]
        return acceptance, named

    def parse_acceptance(self, width: int | None) -> Acceptance:
        if self.take("muller"):
            return self.end(Acceptance.muller(self.braced(lambda: self.parse_state_set(width))))
        if self.take("final"):
            return self.end(Acceptance.final(self.parse_state_set(width)))
        raise self.fail("expected 'muller' or 'final' after 'accept'")

    def parse_state_set(self, width: int | None) -> list[tuple[str, ...]]:
        return self.braced(lambda: self.parse_state_vector(width))

    def parse_state_vector(self, width: int | None) -> tuple[str, ...]:
        """A bare state name, or a parenthesised tuple of `width` slots (any when None)."""
        if not self.at("("):
            return (self.expect_name("state").value,)
        tok = self.next()
        parts = self.comma_list(lambda: self.expect_name("state").value)
        self.expect(")")
        if width is not None and len(parts) != width:
            raise self.fail(f"state tuple has {len(parts)} slots, expected {width}", tok)
        return tuple(parts)

    def parse_transition(self, tok: Token):
        src = self.expect_name("state").value
        self.expect("->")
        tgt = self.expect_name("state").value
        self.expect("on")
        icomp, ichar = self.parse_label()
        self.expect("/")
        ocomp, ochar = self.parse_label()
        return self.end((tok, src, tgt, icomp, ichar, ocomp, ochar))

    def parse_label(self) -> tuple[str | None, str | None]:
        if self.take("-"):
            return None, None
        comp = self.expect_name("component").value
        self.expect(".")
        char = self.expect_name("character").value
        return comp, char

    # --- network blocks ---

    def parse_network(self, keyword: Token) -> NetworkDef:
        name_tok = self.expect_name("network name")
        aliases: set[str] = set()

        def use(tok: Token) -> NetFactor:
            f = self.parse_factor(tok)
            if f.alias in aliases:
                raise self.fail(f"duplicate factor alias {f.alias!r}", tok)
            aliases.add(f.alias)
            return f

        found = self.parse_body(
            "a network",
            {
                "use": use,
                "channel": lambda _: self.parse_channel(aliases),
                "condition": lambda _: self.parse_condition(aliases),
                "accept": lambda _: self.parse_acceptance(width=None),
            },
        )
        if "use" not in found:
            raise self.fail(f"network {name_tok.value!r} has no 'use' lines", name_tok)
        return NetworkDef(
            name=name_tok.value,
            factors=tuple(found["use"]),
            channels=tuple(found.get("channel", ())),
            conditions=tuple(found.get("condition", ())),
            acceptance=found.get("accept"),
            pos=(keyword.line, keyword.col),
        )

    def parse_factor(self, use: Token) -> NetFactor:
        alias = self.expect_name("factor alias").value
        self.expect("=")
        ref = self.expect_name("machine name").value
        initial = self.parse_state_vector(width=None) if self.take("init") else None
        return self.end(NetFactor(alias, ref, initial, pos=(use.line, use.col)))

    def parse_channel(self, aliases: set[str]) -> ChannelSpec:
        out_end = self.parse_port(aliases, "out", "the sending end")
        self.expect("->")
        in_end = self.parse_port(aliases, "in", "the receiving end")
        return self.end(ChannelSpec(*out_end, *in_end))

    def parse_port(self, aliases: set[str], side: str, what: str) -> tuple[str, int | str]:
        """``alias.component`` or ``alias.side[k]``: a factor's interface
        slot on `side` ("out" or "in"), by name or by index; `what` names
        the port in the error for an index on the other side."""
        alias = self.expect_alias(aliases)
        self.expect(".")
        tok = self.expect_ident("component")
        if tok.value in ("out", "in") and self.at("["):
            if tok.value != side:
                raise self.fail(f"{what} must use {side!r} indexing", tok)
            self.next()
            idx = self.next()
            if idx.kind != "int":
                raise self.fail("expected a component index", idx)
            self.expect("]")
            return alias, int(idx.value)
        if tok.value in RESERVED:
            raise self.fail(f"{tok.value!r} is a reserved word and cannot name a component", tok)
        return alias, tok.value

    def parse_condition(self, aliases: set[str]) -> ConditionSpec:
        name = self.expect_name("condition name").value
        on: tuple[str, ...] | None = None
        if self.take("on"):
            self.expect("(")
            scoped = self.comma_list(lambda: self.expect_name("factor alias"))
            self.expect(")")
            on = ()
            for tok in scoped:
                if self.expect_alias(aliases, tok) in on:
                    raise self.fail(f"condition {name!r} scopes factor alias {tok.value!r} twice", tok)
                on += (tok.value,)
        self.expect(":")
        self.expect("from")
        source = self.parse_pattern_vector()
        self.expect("to")
        target = self.parse_pattern_vector()
        input_pat = self.parse_io_pattern(aliases, "in") if self.take("input") else None
        output_pat = self.parse_io_pattern(aliases, "out") if self.take("output") else None
        self.expect("deny")
        return self.end(ConditionSpec(name, source, target, input=input_pat, output=output_pat, on=on))

    def parse_pattern_vector(self) -> tuple[str, ...]:
        self.expect("(")
        parts = self.comma_list(lambda: "*" if self.take("*") else self.expect_name("state or '*'").value)
        self.expect(")")
        return tuple(parts)

    def parse_io_pattern(self, aliases: set[str], side: str) -> PatternSpec:
        """An input (`side` "in") or output ("out") label pattern."""
        if self.take("any"):
            return PatternSpec.any()
        if self.take("spontaneous"):
            return PatternSpec.spontaneous()
        what = f"{'an input' if side == 'in' else 'an output'} pattern"
        if self.take("active"):
            self.expect("(")
            port = self.parse_port(aliases, side, what)
            self.expect(")")
            return PatternSpec.active(*port)
        port = self.parse_port(aliases, side, what)
        self.expect(".")
        return PatternSpec.literal(*port, self.expect_name("character").value)


def parse(text: str) -> WorkbenchDocument:
    """Parse workbench text into a document."""

    return _Parser(text).parse_document()


def load(path: str) -> WorkbenchDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


_NAME = re.compile(_IDENT)


def _namer(owner: str) -> Callable[[str, object], str]:
    """`name(kind, value)` for the serializer writing `owner`: `value`, when
    `parse` reads it back as one name, else a `DslError` naming `owner`.

    A readable name is the tokenizer's ``ident`` and no reserved word.
    """

    def name(kind: str, value) -> str:
        if not isinstance(value, str) or value in RESERVED or _NAME.fullmatch(value) is None:
            raise DslError(
                f"{owner} has {kind} {value!r}, which text cannot spell: a name is a letter or '_' "
                "followed by letters, digits or '_', and no reserved word"
            )
        return value

    return name


def _fmt_state(state: tuple[str, ...], name) -> str:
    if len(state) == 1:
        return name("state", state[0])
    return "(" + ", ".join(name("state", v) for v in state) + ")"


def _fmt_state_set(states: frozenset[tuple[str, ...]], name) -> str:
    return "{" + ", ".join(_fmt_state(s, name) for s in sorted(states)) + "}"


def _fmt_acceptance(acc: Acceptance, name) -> str:
    if acc.mode == "final":
        return f"accept final {_fmt_state_set(acc.final_states, name)};"
    members = sorted(acc.muller_sets, key=lambda m: sorted(m))
    inner = ", ".join(_fmt_state_set(m, name) for m in members)
    return "accept muller {" + inner + "};"


def _fmt_interface(keyword: str, comps, name) -> str | None:
    if not comps:
        return None
    decls = ", ".join(
        f"{name('component', c.name)}: {{{', '.join(name('character', ch) for ch in sorted(c.characters))}}}"
        for c in comps
    )
    return f"{keyword} {decls};"


def _serialize_automaton(a: Nfioa) -> list[str]:
    if a.state_width != 1:
        raise DslError(
            f"automaton {a.name!r} has composite states and no text form; express it as a network"
        )
    name = _namer(f"automaton {a.name!r}")
    lines = [f"automaton {name('automaton name', a.name)} {{"]
    # Every other state written below, and every label, is one checked here.
    lines.append("  states " + ", ".join(name("state", s[0]) for s in sorted(a.states)) + ";")
    lines.append(f"  initial {a.initial[0]};")
    for kw, comps in (("inputs", a.inputs), ("outputs", a.outputs)):
        decl = _fmt_interface(kw, comps, name)
        if decl:
            lines.append("  " + decl)
    lines.append("  " + _fmt_acceptance(a.acceptance, name))
    for t in sorted(a.transitions):
        lines.append(
            f"  trans {t.source[0]} -> {t.target[0]} on "
            f"{label_str(t.input, a.inputs)} / {label_str(t.output, a.outputs)};"
        )
    lines.append("}")
    return lines


def _fmt_port(alias: str, comp: int | str, side: str, name) -> str:
    if isinstance(comp, int):
        return f"{name('alias', alias)}.{side}[{comp}]"
    return f"{name('alias', alias)}.{name('component', comp)}"


def _fmt_pattern(p: PatternSpec, side: str, name) -> str:
    if p.kind == "any":
        return "any"
    if p.kind == "spontaneous":
        return "spontaneous"
    port = _fmt_port(p.factor, p.component, side, name)
    if p.kind == "active":
        return f"active({port})"
    return f"{port}.{name('character', p.character)}"


def _serialize_network(n: NetworkDef) -> list[str]:
    name = _namer(f"network {n.name!r}")

    def pattern(vector: tuple[str, ...]) -> str:
        return "(" + ", ".join(v if v == "*" else name("state", v) for v in vector) + ")"

    lines = [f"network {name('network name', n.name)} {{"]
    for f in n.factors:
        init = "" if f.initial is None else f" init {_fmt_state(f.initial, name)}"
        lines.append(f"  use {name('alias', f.alias)} = {name('machine name', f.ref)}{init};")
    for c in n.channels:
        lines.append(
            "  channel "
            + _fmt_port(c.out_factor, c.out_component, "out", name)
            + " -> "
            + _fmt_port(c.in_factor, c.in_component, "in", name)
            + ";"
        )
    for cond in n.conditions:
        scope = "" if cond.on is None else " on (" + ", ".join(name("alias", a) for a in cond.on) + ")"
        parts = [
            f"  condition {name('condition', cond.name)}{scope}:",
            "from " + pattern(cond.source),
            "to " + pattern(cond.target),
        ]
        parts.append(f"input {_fmt_pattern(cond.input, 'in', name)}")
        if cond.output.kind != "any":
            parts.append(f"output {_fmt_pattern(cond.output, 'out', name)}")
        parts.append("deny;")
        lines.append(" ".join(parts))
    if n.acceptance is not None:
        lines.append("  " + _fmt_acceptance(n.acceptance, name))
    lines.append("}")
    return lines


def serialize(doc: WorkbenchDocument) -> str:
    """Render a document in canonical text form."""

    chunks: list[str] = []
    for a in doc.automata:
        chunks.append("\n".join(_serialize_automaton(a)))
    for n in doc.networks:
        chunks.append("\n".join(_serialize_network(n)))
    if doc.directives:
        chunks.append("\n".join(f"check {d.kind} {d.target};" for d in doc.directives))
    return "\n\n".join(chunks) + "\n"


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------


def resolve(doc: WorkbenchDocument) -> ResolvedDocument:
    """Bind every declared name, building networks in declaration order.

    A ``use`` line may refer to an automaton or to any network declared
    earlier in the document; a network used as a factor contributes its
    built (restricted, flattened) automaton, which is built then.
    """

    networks: dict[str, BuiltNetwork] = {}
    env = ResolvedDocument(_Automata({a.name: a for a in doc.automata}, networks), networks)
    for n in doc.networks:
        factors = []
        for f in n.factors:
            line, col = f.pos or (None, None)
            if f.ref not in env.automata:
                raise DslError(
                    f"network {n.name!r} uses {f.ref!r}, which is not declared before it", line, col
                )
            a = env.automata[f.ref]
            if f.initial is not None and f.initial not in a.states:
                raise DslError(
                    f"network {n.name!r} starts {f.alias!r} in {state_str(f.initial)}, "
                    f"which is not a state of {f.ref!r}", line, col
                )
            factors.append(replace(f, ref=a))
        try:
            networks[n.name] = build_network(replace(n, factors=factors))
        except (WiringError, InvalidAutomaton) as exc:
            raise DslError(f"network {n.name!r}: {exc}", *(n.pos or (None, None))) from exc
    return env
