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
from dataclasses import dataclass, field

from .core import Acceptance, ComponentAlphabet, Nfioa, epsilon_char, label_str, single_char, validate
from .errors import DslError
from .network import (
    BuiltNetwork,
    ChannelSpec,
    ConditionSpec,
    FactorRef,
    NetworkSpec,
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


# ---------------------------------------------------------------------------
# document model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetFactor:
    """One ``use`` line: a named slot filled by a declared machine."""

    alias: str
    ref: str
    initial: tuple[str, ...] | None = None


@dataclass(frozen=True)
class NetworkDef:
    """A network block, still referring to its parts by name."""

    name: str
    factors: tuple[NetFactor, ...]
    channels: tuple[ChannelSpec, ...] = ()
    conditions: tuple[ConditionSpec, ...] = ()
    acceptance: Acceptance | None = None


@dataclass(frozen=True)
class Directive:
    """A ``check`` line: an assertion the document makes about a name."""

    kind: str
    target: str


@dataclass(frozen=True)
class WorkbenchDocument:
    automata: tuple[Nfioa, ...] = ()
    networks: tuple[NetworkDef, ...] = ()
    directives: tuple[Directive, ...] = ()

    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.automata) + tuple(n.name for n in self.networks)


@dataclass
class ResolvedDocument:
    """Every document name bound to a concrete machine.

    ``automata`` maps each name — declared automata and built networks
    alike — to an operable automaton; ``networks`` additionally keeps the
    full build result (restriction graph included) for network names.
    """

    automata: dict[str, Nfioa] = field(default_factory=dict)
    networks: dict[str, BuiltNetwork] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "punct" | "eof"
    value: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<arrow>->)
  | (?P<punct>[{}()\[\],;:./=*-])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslError(f"unexpected character {text[pos]!r}", line=line, col=col)
        lexeme = m.group(0)
        kind = m.lastgroup
        if kind == "ident":
            tokens.append(Token("ident", lexeme, line, col))
        elif kind == "int":
            tokens.append(Token("int", lexeme, line, col))
        elif kind in ("arrow", "punct"):
            tokens.append(Token("punct", lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
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

    def expect_punct(self, value: str) -> Token:
        tok = self.next()
        if tok.kind != "punct" or tok.value != value:
            raise self.fail(f"expected {value!r}, found {tok.value or 'end of input'!r}", tok)
        return tok

    def expect_ident(self, what: str = "name") -> Token:
        tok = self.next()
        if tok.kind != "ident":
            raise self.fail(f"expected {what}, found {tok.value or 'end of input'!r}", tok)
        return tok

    def expect_name(self, what: str = "name") -> Token:
        tok = self.expect_ident(what)
        if tok.value in RESERVED:
            raise self.fail(f"{tok.value!r} is a reserved word and cannot be used as a {what}", tok)
        return tok

    def expect_keyword(self, word: str) -> Token:
        tok = self.next()
        if tok.kind != "ident" or tok.value != word:
            raise self.fail(f"expected {word!r}, found {tok.value or 'end of input'!r}", tok)
        return tok

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == value

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.value == word

    def take_punct(self, value: str) -> bool:
        if self.at_punct(value):
            self.next()
            return True
        return False

    def take_keyword(self, word: str) -> bool:
        if self.at_keyword(word):
            self.next()
            return True
        return False

    # --- document ---

    def parse_document(self) -> WorkbenchDocument:
        automata: list[Nfioa] = []
        networks: list[NetworkDef] = []
        directives: list[Directive] = []
        seen: set[str] = set()
        while self.peek().kind != "eof":
            tok = self.peek()
            if self.take_keyword("automaton"):
                a = self.parse_automaton()
                if a.name in seen:
                    raise self.fail(f"name {a.name!r} is declared twice", tok)
                seen.add(a.name)
                automata.append(a)
            elif self.take_keyword("network"):
                n = self.parse_network()
                if n.name in seen:
                    raise self.fail(f"name {n.name!r} is declared twice", tok)
                seen.add(n.name)
                networks.append(n)
            elif self.take_keyword("check"):
                directives.append(self.parse_directive())
            else:
                raise self.fail(
                    f"expected 'automaton', 'network', or 'check', found {tok.value or 'end of input'!r}",
                    tok,
                )
        return WorkbenchDocument(tuple(automata), tuple(networks), tuple(directives))

    def parse_directive(self) -> Directive:
        kind_tok = self.expect_ident("check kind")
        if kind_tok.value not in CHECK_KINDS:
            raise self.fail(
                f"unknown check kind {kind_tok.value!r} (expected one of {', '.join(sorted(CHECK_KINDS))})",
                kind_tok,
            )
        target = self.expect_name("target name")
        self.expect_punct(";")
        return Directive(kind_tok.value, target.value)

    # --- automaton blocks ---

    def parse_automaton(self) -> Nfioa:
        name_tok = self.expect_name("automaton name")
        self.expect_punct("{")
        states: list[str] | None = None
        initial: str | None = None
        inputs: tuple[ComponentAlphabet, ...] | None = None
        outputs: tuple[ComponentAlphabet, ...] | None = None
        acceptance: Acceptance | None = None
        transitions: list[tuple[Token, str, str, str | None, str | None, str | None, str | None]] = []
        while not self.take_punct("}"):
            tok = self.peek()
            if self.take_keyword("states"):
                if states is not None:
                    raise self.fail("duplicate 'states' section", tok)
                states = self.parse_name_list()
                self.expect_punct(";")
            elif self.take_keyword("initial"):
                if initial is not None:
                    raise self.fail("duplicate 'initial' section", tok)
                initial = self.expect_name("state").value
                self.expect_punct(";")
            elif self.take_keyword("inputs"):
                if inputs is not None:
                    raise self.fail("duplicate 'inputs' section", tok)
                inputs = self.parse_interface()
            elif self.take_keyword("outputs"):
                if outputs is not None:
                    raise self.fail("duplicate 'outputs' section", tok)
                outputs = self.parse_interface()
            elif self.take_keyword("accept"):
                if acceptance is not None:
                    raise self.fail("duplicate 'accept' section", tok)
                acceptance = self.parse_acceptance(width=1)
            elif self.take_keyword("trans"):
                transitions.append(self.parse_transition(tok))
            else:
                raise self.fail(
                    f"expected an automaton section, found {tok.value or 'end of input'!r}", tok
                )
        if states is None:
            raise self.fail(f"automaton {name_tok.value!r} has no 'states' section", name_tok)
        if initial is None:
            raise self.fail(f"automaton {name_tok.value!r} has no 'initial' section", name_tok)
        if acceptance is None:
            raise self.fail(f"automaton {name_tok.value!r} has no 'accept' section", name_tok)
        inputs = inputs or ()
        outputs = outputs or ()
        state_set = set(states)
        if initial not in state_set:
            raise self.fail(f"initial state {initial!r} is not declared", name_tok)
        named = (
            {s for member in acceptance.muller_sets for s in member}
            if acceptance.mode == "muller"
            else set(acceptance.final_states)
        )
        for (s,) in named:
            if s not in state_set:
                raise self.fail(f"acceptance names undeclared state {s!r}", name_tok)
        built: list = []
        in_names = [c.name for c in inputs]
        out_names = [c.name for c in outputs]
        for tok, src, tgt, icomp, ichar, ocomp, ochar in transitions:
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
        automaton = Nfioa(
            name=name_tok.value,
            states=frozenset((s,) for s in states),
            inputs=inputs,
            outputs=outputs,
            initial=(initial,),
            acceptance=acceptance,
            transitions=frozenset(built),
        )
        issues = validate(automaton)
        if issues:
            raise self.fail(f"automaton {name_tok.value!r} is malformed: {issues[0]}", name_tok)
        return automaton

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

    def parse_name_list(self) -> list[str]:
        names = [self.expect_name().value]
        while self.take_punct(","):
            names.append(self.expect_name().value)
        return names

    def parse_interface(self) -> tuple[ComponentAlphabet, ...]:
        comps: list[ComponentAlphabet] = []
        if self.take_punct(";"):
            return ()
        while True:
            name_tok = self.expect_name("component name")
            self.expect_punct(":")
            self.expect_punct("{")
            chars: list[str] = []
            if not self.at_punct("}"):
                chars.append(self.expect_name("character").value)
                while self.take_punct(","):
                    chars.append(self.expect_name("character").value)
            self.expect_punct("}")
            if any(c.name == name_tok.value for c in comps):
                raise self.fail(f"duplicate component {name_tok.value!r}", name_tok)
            comps.append(ComponentAlphabet(name_tok.value, frozenset(chars)))
            if not self.take_punct(","):
                break
        self.expect_punct(";")
        return tuple(comps)

    def parse_acceptance(self, width: int | None) -> Acceptance:
        if self.take_keyword("muller"):
            self.expect_punct("{")
            members: list[frozenset[tuple[str, ...]]] = []
            while True:
                members.append(frozenset(self.parse_state_set(width)))
                if not self.take_punct(","):
                    break
            self.expect_punct("}")
            self.expect_punct(";")
            return Acceptance.muller(members)
        if self.take_keyword("final"):
            finals = self.parse_state_set(width)
            self.expect_punct(";")
            return Acceptance.final(finals)
        raise self.fail("expected 'muller' or 'final' after 'accept'")

    def parse_state_set(self, width: int | None) -> list[tuple[str, ...]]:
        self.expect_punct("{")
        states = [self.parse_state_vector(width)]
        while self.take_punct(","):
            states.append(self.parse_state_vector(width))
        self.expect_punct("}")
        return states

    def parse_state_vector(self, width: int | None) -> tuple[str, ...]:
        if self.at_punct("("):
            tok = self.next()
            parts = [self.expect_name("state").value]
            while self.take_punct(","):
                parts.append(self.expect_name("state").value)
            self.expect_punct(")")
            if width is not None and len(parts) != width:
                raise self.fail(f"state tuple has {len(parts)} slots, expected {width}", tok)
            return tuple(parts)
        tok = self.expect_name("state")
        if width is not None and width != 1:
            raise self.fail(f"expected a state tuple with {width} slots", tok)
        return (tok.value,)

    def parse_transition(self, tok: Token):
        src = self.expect_name("state").value
        self.expect_punct("->")
        tgt = self.expect_name("state").value
        self.expect_keyword("on")
        icomp, ichar = self.parse_label()
        self.expect_punct("/")
        ocomp, ochar = self.parse_label()
        self.expect_punct(";")
        return (tok, src, tgt, icomp, ichar, ocomp, ochar)

    def parse_label(self) -> tuple[str | None, str | None]:
        if self.take_punct("-"):
            return None, None
        comp = self.expect_name("component").value
        self.expect_punct(".")
        char = self.expect_name("character").value
        return comp, char

    # --- network blocks ---

    def parse_network(self) -> NetworkDef:
        name_tok = self.expect_name("network name")
        self.expect_punct("{")
        factors: list[NetFactor] = []
        channels: list[ChannelSpec] = []
        conditions: list[ConditionSpec] = []
        acceptance: Acceptance | None = None
        aliases: set[str] = set()
        while not self.take_punct("}"):
            tok = self.peek()
            if self.take_keyword("use"):
                f = self.parse_factor(tok)
                if f.alias in aliases:
                    raise self.fail(f"duplicate factor alias {f.alias!r}", tok)
                aliases.add(f.alias)
                factors.append(f)
            elif self.take_keyword("channel"):
                channels.append(self.parse_channel(aliases))
            elif self.take_keyword("condition"):
                conditions.append(self.parse_condition(aliases))
            elif self.take_keyword("accept"):
                if acceptance is not None:
                    raise self.fail("duplicate 'accept' section", tok)
                acceptance = self.parse_acceptance(width=None)
            else:
                raise self.fail(
                    f"expected a network section, found {tok.value or 'end of input'!r}", tok
                )
        if not factors:
            raise self.fail(f"network {name_tok.value!r} has no 'use' lines", name_tok)
        return NetworkDef(
            name=name_tok.value,
            factors=tuple(factors),
            channels=tuple(channels),
            conditions=tuple(conditions),
            acceptance=acceptance,
        )

    def parse_factor(self, tok: Token) -> NetFactor:
        alias = self.expect_name("factor alias").value
        self.expect_punct("=")
        ref = self.expect_name("machine name").value
        initial: tuple[str, ...] | None = None
        if self.take_keyword("init"):
            initial = self.parse_state_vector(width=None)
        self.expect_punct(";")
        return NetFactor(alias, ref, initial)

    def parse_channel(self, aliases: set[str]) -> ChannelSpec:
        out_alias, out_comp = self.parse_channel_end(aliases, "out")
        self.expect_punct("->")
        in_alias, in_comp = self.parse_channel_end(aliases, "in")
        self.expect_punct(";")
        return ChannelSpec(out_alias, out_comp, in_alias, in_comp)

    def parse_channel_end(self, aliases: set[str], side: str) -> tuple[str, int | str]:
        alias_tok = self.expect_name("factor alias")
        if alias_tok.value not in aliases:
            raise self.fail(f"unknown factor alias {alias_tok.value!r}", alias_tok)
        self.expect_punct(".")
        tok = self.expect_ident("component")
        if tok.value in ("out", "in") and self.at_punct("["):
            if tok.value != side:
                raise self.fail(
                    f"the {'sending' if side == 'out' else 'receiving'} end must use {side!r} indexing",
                    tok,
                )
            self.expect_punct("[")
            idx = self.next()
            if idx.kind != "int":
                raise self.fail("expected a component index", idx)
            self.expect_punct("]")
            return alias_tok.value, int(idx.value)
        if tok.value in RESERVED:
            raise self.fail(f"{tok.value!r} is a reserved word and cannot name a component", tok)
        return alias_tok.value, tok.value

    def parse_condition(self, aliases: set[str]) -> ConditionSpec:
        name = self.expect_name("condition name").value
        on: tuple[str, ...] | None = None
        if self.take_keyword("on"):
            self.expect_punct("(")
            scoped = [self.expect_name("factor alias").value]
            while self.take_punct(","):
                scoped.append(self.expect_name("factor alias").value)
            self.expect_punct(")")
            for a in scoped:
                if a not in aliases:
                    raise self.fail(f"unknown factor alias {a!r}")
            on = tuple(scoped)
        self.expect_punct(":")
        self.expect_keyword("from")
        source = self.parse_pattern_vector()
        self.expect_keyword("to")
        target = self.parse_pattern_vector()
        input_pat: PatternSpec | None = None
        output_pat: PatternSpec | None = None
        if self.take_keyword("input"):
            input_pat = self.parse_io_pattern(aliases)
        if self.take_keyword("output"):
            output_pat = self.parse_io_pattern(aliases)
        self.expect_keyword("deny")
        self.expect_punct(";")
        return ConditionSpec(name, source, target, input=input_pat, output=output_pat, on=on)

    def parse_pattern_vector(self) -> tuple[str, ...]:
        self.expect_punct("(")
        parts = [self.parse_pattern_slot()]
        while self.take_punct(","):
            parts.append(self.parse_pattern_slot())
        self.expect_punct(")")
        return tuple(parts)

    def parse_pattern_slot(self) -> str:
        if self.take_punct("*"):
            return "*"
        return self.expect_name("state or '*'").value

    def parse_io_pattern(self, aliases: set[str]) -> PatternSpec:
        tok = self.peek()
        if self.take_keyword("any"):
            return PatternSpec.any()
        if self.take_keyword("spontaneous"):
            return PatternSpec.spontaneous()
        if self.take_keyword("active"):
            self.expect_punct("(")
            alias = self.expect_name("factor alias").value
            if alias not in aliases:
                raise self.fail(f"unknown factor alias {alias!r}", tok)
            self.expect_punct(".")
            comp = self.expect_name("component").value
            self.expect_punct(")")
            return PatternSpec.active(alias, comp)
        alias_tok = self.expect_name("factor alias")
        if alias_tok.value not in aliases:
            raise self.fail(f"unknown factor alias {alias_tok.value!r}", alias_tok)
        self.expect_punct(".")
        comp = self.expect_name("component").value
        self.expect_punct(".")
        char = self.expect_name("character").value
        return PatternSpec.literal(alias_tok.value, comp, char)


def parse(text: str) -> WorkbenchDocument:
    """Parse workbench text into a document."""

    return _Parser(text).parse_document()


def load(path: str) -> WorkbenchDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def _fmt_state(state: tuple[str, ...]) -> str:
    if len(state) == 1:
        return state[0]
    return "(" + ", ".join(state) + ")"


def _fmt_state_set(states: frozenset[tuple[str, ...]]) -> str:
    return "{" + ", ".join(_fmt_state(s) for s in sorted(states)) + "}"


def _fmt_acceptance(acc: Acceptance) -> str:
    if acc.mode == "final":
        return f"accept final {_fmt_state_set(acc.final_states)};"
    members = sorted(acc.muller_sets, key=lambda m: sorted(m))
    inner = ", ".join(_fmt_state_set(m) for m in members)
    return "accept muller {" + inner + "};"


def _fmt_interface(keyword: str, comps) -> str | None:
    if not comps:
        return None
    decls = ", ".join(f"{c.name}: {{{', '.join(sorted(c.characters))}}}" for c in comps)
    return f"{keyword} {decls};"


def _serialize_automaton(a: Nfioa) -> list[str]:
    if a.state_width != 1:
        raise DslError(
            f"automaton {a.name!r} has composite states and no text form; express it as a network"
        )
    lines = [f"automaton {a.name} {{"]
    lines.append("  states " + ", ".join(s[0] for s in sorted(a.states)) + ";")
    lines.append(f"  initial {a.initial[0]};")
    for kw, comps in (("inputs", a.inputs), ("outputs", a.outputs)):
        decl = _fmt_interface(kw, comps)
        if decl:
            lines.append("  " + decl)
    lines.append("  " + _fmt_acceptance(a.acceptance))
    for t in sorted(a.transitions):
        lines.append(
            f"  trans {t.source[0]} -> {t.target[0]} on "
            f"{label_str(t.input, a.inputs)} / {label_str(t.output, a.outputs)};"
        )
    lines.append("}")
    return lines


def _fmt_channel_end(alias: str, comp: int | str, side: str) -> str:
    if isinstance(comp, int):
        return f"{alias}.{side}[{comp}]"
    return f"{alias}.{comp}"


def _fmt_pattern(p: PatternSpec) -> str:
    if p.kind == "any":
        return "any"
    if p.kind == "spontaneous":
        return "spontaneous"
    if p.kind == "active":
        return f"active({p.factor}.{p.component})"
    return f"{p.factor}.{p.component}.{p.character}"


def _serialize_network(n: NetworkDef) -> list[str]:
    lines = [f"network {n.name} {{"]
    for f in n.factors:
        init = "" if f.initial is None else f" init {_fmt_state(f.initial)}"
        lines.append(f"  use {f.alias} = {f.ref}{init};")
    for c in n.channels:
        lines.append(
            "  channel "
            + _fmt_channel_end(c.out_factor, c.out_component, "out")
            + " -> "
            + _fmt_channel_end(c.in_factor, c.in_component, "in")
            + ";"
        )
    for cond in n.conditions:
        scope = "" if cond.on is None else " on (" + ", ".join(cond.on) + ")"
        parts = [
            f"  condition {cond.name}{scope}:",
            "from (" + ", ".join(cond.source) + ")",
            "to (" + ", ".join(cond.target) + ")",
        ]
        input_pat = cond.input or PatternSpec.any()
        parts.append(f"input {_fmt_pattern(input_pat)}")
        if cond.output is not None and cond.output.kind != "any":
            parts.append(f"output {_fmt_pattern(cond.output)}")
        parts.append("deny;")
        lines.append(" ".join(parts))
    if n.acceptance is not None:
        lines.append("  " + _fmt_acceptance(n.acceptance))
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
    built (restricted, flattened) automaton.
    """

    env = ResolvedDocument()
    for a in doc.automata:
        env.automata[a.name] = a
    for n in doc.networks:
        factors = []
        for f in n.factors:
            if f.ref not in env.automata:
                raise DslError(
                    f"network {n.name!r} uses {f.ref!r}, which is not declared before it"
                )
            factors.append(FactorRef(f.alias, env.automata[f.ref], initial=f.initial))
        spec = NetworkSpec(
            name=n.name,
            factors=tuple(factors),
            channels=n.channels,
            conditions=n.conditions,
            acceptance=n.acceptance,
        )
        built = build_network(spec)
        env.networks[n.name] = built
        env.automata[n.name] = built.automaton
    return env
