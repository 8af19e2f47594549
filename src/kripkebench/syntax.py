"""Signatures, first-order formulas, sequents, and their concrete syntax.

Concrete syntax is prefix application throughout: `name(arg1, ..., argk)` for
predicates (arguments are variables) and connectives (arguments are formulas),
`forall x. body` / `exists x. body` for quantifiers, and
`g1, ..., gn => d1, ..., dm` for sequents, with either side possibly empty.
"""

from __future__ import annotations

import re

from .truthfun import Frozen, TruthFunction, builtin, table_bits

RESERVED = ("forall", "exists")
# the most formulas one parsed formula may nest, itself included; parsing
# and evaluation recurse once or more per level
MAX_NESTING = 100
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ParseError(Exception):
    """Malformed concrete syntax; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidSignatureError(Exception):
    """A signature file or declaration violates the signature invariants."""


class Signature(Frozen):
    """Declared predicate symbols (name -> arity) and connectives (name -> table)."""

    __slots__ = ("predicates", "connectives")

    def __init__(self, predicates: dict[str, int], connectives: dict[str, TruthFunction]):
        for name in list(predicates) + list(connectives):
            if not _IDENT.fullmatch(name):
                raise InvalidSignatureError(f"symbol name {name!r} is not an identifier")
            if name in RESERVED:
                raise InvalidSignatureError(f"symbol name {name!r} is a reserved token")
        shared = set(predicates) & set(connectives)
        if shared:
            raise InvalidSignatureError(
                f"names used as both predicate and connective: {sorted(shared)}"
            )
        for name, arity in predicates.items():
            if arity < 0:
                raise InvalidSignatureError(f"predicate {name!r} has negative arity")
        object.__setattr__(self, "predicates", predicates)
        object.__setattr__(self, "connectives", connectives)


class Formula(Frozen):
    """Base class for formula nodes, each with its own `__eq__` and
    `__hash__`, as `Frozen`'s but without its loop over the field names."""

    __slots__ = ()


class Atom(Formula):
    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple[str, ...] = ()):
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", args)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.pred, self.args) == (other.pred, other.args)
        return NotImplemented

    def __hash__(self):
        return hash((self.pred, self.args))


class Conn(Formula):
    __slots__ = ("conn", "args")

    def __init__(self, conn: str, args: tuple[Formula, ...]):
        object.__setattr__(self, "conn", conn)
        object.__setattr__(self, "args", args)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.conn, self.args) == (other.conn, other.args)
        return NotImplemented

    def __hash__(self):
        return hash((self.conn, self.args))


class Quantifier(Formula):
    """Base of `Forall` and `Exists`, which differ only in their class."""

    __slots__ = ("var", "body")

    def __init__(self, var: str, body: Formula):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "body", body)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.var, self.body) == (other.var, other.body)
        return NotImplemented

    def __hash__(self):
        return hash((self.var, self.body))


class Forall(Quantifier):
    __slots__ = ()


class Exists(Quantifier):
    __slots__ = ()


def free_vars(formula: Formula) -> frozenset[str]:
    """Free variables: atoms contribute their arguments, quantifiers bind."""
    if isinstance(formula, Atom):
        return frozenset(formula.args)
    if isinstance(formula, Conn):
        out: frozenset[str] = frozenset()
        for arg in formula.args:
            out |= free_vars(arg)
        return out
    if isinstance(formula, (Forall, Exists)):
        return free_vars(formula.body) - {formula.var}
    raise TypeError(f"not a formula: {formula!r}")


def subformulas(formula: Formula) -> list[Formula]:
    """All subformulas including the formula itself, post-order, deduplicated."""
    seen: set[Formula] = set()
    out: list[Formula] = []

    def walk(node: Formula) -> None:
        if isinstance(node, Conn):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, (Forall, Exists)):
            walk(node.body)
        if node not in seen:
            seen.add(node)
            out.append(node)

    walk(formula)
    return out


def render_formula(formula: Formula) -> str:
    """Canonical text; parse_formula inverts it."""
    if isinstance(formula, Atom):
        if not formula.args:
            return formula.pred
        return f"{formula.pred}({', '.join(formula.args)})"
    if isinstance(formula, Conn):
        return f"{formula.conn}({', '.join(render_formula(a) for a in formula.args)})"
    if isinstance(formula, Forall):
        return f"forall {formula.var}. {render_formula(formula.body)}"
    if isinstance(formula, Exists):
        return f"exists {formula.var}. {render_formula(formula.body)}"
    raise TypeError(f"not a formula: {formula!r}")


class Sequent(Frozen):
    """A pair of formula sets; duplicates collapse and sides are kept in
    canonical (rendered-text) order for deterministic output."""

    __slots__ = ("antecedent", "succedent")

    def __init__(self, antecedent: tuple[Formula, ...], succedent: tuple[Formula, ...]):
        object.__setattr__(self, "antecedent", _canonical_side(antecedent))
        object.__setattr__(self, "succedent", _canonical_side(succedent))

    def formulas(self) -> tuple[Formula, ...]:
        return self.antecedent + self.succedent


def _canonical_side(formulas) -> tuple[Formula, ...]:
    return tuple(sorted(set(formulas), key=render_formula))


def render_sequent(sequent: Sequent) -> str:
    left = ", ".join(render_formula(f) for f in sequent.antecedent)
    right = ", ".join(render_formula(f) for f in sequent.succedent)
    if left:
        return f"{left} => {right}" if right else f"{left} =>"
    return f"=> {right}" if right else "=>"


# --- parsing ---------------------------------------------------------------


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("=>", i):
            tokens.append(("=>", "=>", i))
            i += 2
            continue
        if ch in "(),.":
            tokens.append((ch, ch, i))
            i += 1
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(("IDENT", m.group(), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list, one method per rule."""

    def __init__(self, text: str, signature: Signature):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sig = signature
        self.depth = 0

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def end(self) -> None:
        kind, value, at = self.tokens[self.pos]
        if kind != "EOF":
            raise ParseError(f"trailing input {value!r}", at)

    def items(self, item, closers: tuple[str, ...]) -> list:
        """`item, ..., item`, empty when the next token is in `closers`."""
        if self.tokens[self.pos][0] in closers:
            return []
        out = [item()]
        while self.tokens[self.pos][0] == ",":
            self.pos += 1
            out.append(item())
        return out

    def variable(self) -> str:
        _, var, at = self.expect("IDENT")
        if var in RESERVED:
            raise ParseError(f"{var!r} cannot be a variable name", at)
        return var

    def sequent(self) -> Sequent:
        antecedent = self.items(self.formula, ("=>", "EOF"))
        self.expect("=>")
        return Sequent(tuple(antecedent), tuple(self.items(self.formula, ("=>", "EOF"))))

    def formula(self) -> Formula:
        kind, value, at = self.tokens[self.pos]
        if kind != "IDENT":
            raise ParseError(f"expected a formula, found {value!r}", at)
        if self.depth == MAX_NESTING:
            raise ParseError(f"formula nests more than {MAX_NESTING} levels deep", at)
        self.depth += 1
        formula = self.quantifier() if value in RESERVED else self.application()
        self.depth -= 1
        return formula

    def quantifier(self) -> Formula:
        _, word, _ = self.expect("IDENT")
        var = self.variable()
        self.expect(".")
        body = self.formula()
        return Forall(var, body) if word == "forall" else Exists(var, body)

    def application(self) -> Formula:
        """A connective applied to formulas or a predicate applied to
        variables; a 0-ary symbol is written `name` or `name()`."""
        _, name, at = self.tokens[self.pos]
        self.pos += 1
        if name in self.sig.connectives:
            node, item, want = Conn, self.formula, self.sig.connectives[name].arity
        elif name in self.sig.predicates:
            node, item, want = Atom, self.variable, self.sig.predicates[name]
        else:
            raise ParseError(f"unknown symbol {name!r}", at)
        args = []
        if self.tokens[self.pos][0] == "(":
            self.pos += 1
            args = self.items(item, (")",))
            self.expect(")")
        if len(args) != want:
            kind = "connective" if node is Conn else "predicate"
            raise ParseError(f"{kind} {name!r} expects {want} arguments, got {len(args)}", at)
        return node(name, tuple(args))


def parse_formula(text: str, signature: Signature) -> Formula:
    parser = _Parser(text, signature)
    formula = parser.formula()
    parser.end()
    return formula


def parse_sequent(text: str, signature: Signature) -> Sequent:
    parser = _Parser(text, signature)
    sequent = parser.sequent()
    parser.end()
    return sequent


# --- signature files -------------------------------------------------------


def strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


def parse_signature_directive(
    line: str, lineno: int, predicates: dict[str, int], connectives: dict[str, TruthFunction]
) -> bool:
    """Consume one `pred`/`conn` line; returns False if the line is neither."""
    parts = line.split()
    if parts[0] == "pred":
        if len(parts) != 3:
            raise InvalidSignatureError(f"line {lineno}: expected 'pred NAME ARITY'")
        name = parts[1]
        try:
            arity = int(parts[2])
        except ValueError:
            raise InvalidSignatureError(f"line {lineno}: arity must be an integer") from None
        if name in predicates:
            raise InvalidSignatureError(f"line {lineno}: duplicate predicate {name!r}")
        predicates[name] = arity
        return True
    if parts[0] == "conn":
        if len(parts) == 3 and parts[2] == "builtin":
            name = parts[1]
            try:
                tf = builtin(name)
            except ValueError as exc:
                raise InvalidSignatureError(f"line {lineno}: {exc}") from None
        elif len(parts) == 4:
            name = parts[1]
            try:
                arity = int(parts[2])
            except ValueError:
                raise InvalidSignatureError(f"line {lineno}: arity must be an integer") from None
            try:
                tf = TruthFunction(arity, table_bits(arity, parts[3]))
            except ValueError as exc:
                raise InvalidSignatureError(f"line {lineno}: {exc}") from None
        else:
            raise InvalidSignatureError(
                f"line {lineno}: expected 'conn NAME ARITY TABLE' or 'conn NAME builtin'"
            )
        if name in connectives:
            raise InvalidSignatureError(f"line {lineno}: duplicate connective {name!r}")
        connectives[name] = tf
        return True
    return False


def parse_signature(text: str) -> Signature:
    predicates: dict[str, int] = {}
    connectives: dict[str, TruthFunction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw)
        if not line:
            continue
        if not parse_signature_directive(line, lineno, predicates, connectives):
            raise InvalidSignatureError(f"line {lineno}: unknown directive {line.split()[0]!r}")
    return Signature(predicates, connectives)


def signature_to_text(signature: Signature) -> str:
    lines = [f"pred {name} {arity}" for name, arity in signature.predicates.items()]
    lines += [
        f"conn {name} {tf.arity} {tf.table_string()}"
        for name, tf in signature.connectives.items()
    ]
    return "\n".join(lines) + ("\n" if lines else "")
