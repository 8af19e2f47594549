"""Finite Kripke models, formula and sequent evaluation, validity on a model.

A model is a preordered set of worlds with monotone nonempty domains and a
hereditary interpretation. Only 1-entries of the interpretation are stored;
everything unstated is 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional

from .syntax import (
    Atom,
    Conn,
    Exists,
    Forall,
    Formula,
    InvalidSignatureError,
    Sequent,
    Signature,
    parse_signature_directive,
    signature_to_text,
    strip_comment,
)

Fact = tuple[str, str, tuple[str, ...]]


class InvalidModelError(Exception):
    """A model file or model value violates the model invariants."""


@dataclass(frozen=True, eq=True)
class KripkeModel:
    """Worlds with a preorder, per-world domains, and stored 1-facts.

    `worlds` order and per-world element order are significant: they fix the
    canonical enumeration order of counterwitnesses.
    """

    worlds: tuple[str, ...]
    order: frozenset[tuple[str, str]]
    domains: dict[str, tuple[str, ...]]
    facts: frozenset[Fact]

    def successors(self, world: str) -> tuple[str, ...]:
        return tuple(v for v in self.worlds if (world, v) in self.order)


def reflexive_transitive_closure(
    worlds: Iterable[str], pairs: Iterable[tuple[str, str]]
) -> frozenset[tuple[str, str]]:
    worlds = list(worlds)
    reach = {w: {w} for w in worlds}
    for a, b in pairs:
        reach[a].add(b)
    changed = True
    while changed:
        changed = False
        for w in worlds:
            extra = set()
            for v in reach[w]:
                extra |= reach[v]
            if not extra <= reach[w]:
                reach[w] |= extra
                changed = True
    return frozenset((w, v) for w in worlds for v in reach[w])


def validate_model(model: KripkeModel) -> list[str]:
    """All invariant violations, as human-readable strings; empty means valid."""
    violations: list[str] = []
    worlds = model.worlds
    world_set = set(worlds)
    if len(world_set) != len(worlds):
        violations.append("duplicate world names")
    if set(model.domains) != world_set:
        violations.append("domains must be declared for exactly the declared worlds")
        return violations

    ordered_pairs = sorted(model.order)
    for a, b in ordered_pairs:
        if a not in world_set or b not in world_set:
            violations.append(f"order pair ({a}, {b}) mentions an undeclared world")
    for w in worlds:
        if (w, w) not in model.order:
            violations.append(f"order is not reflexive at {w}")
    for a, b in ordered_pairs:
        for c, d in ordered_pairs:
            if b == c and (a, d) not in model.order:
                violations.append(f"order is not transitive: {a} <= {b} <= {d}")

    domain_sets = {w: set(model.domains[w]) for w in worlds}
    for w in worlds:
        if not model.domains[w]:
            violations.append(f"domain of {w} is empty")
        if len(domain_sets[w]) != len(model.domains[w]):
            violations.append(f"domain of {w} lists duplicate elements")
    for a, b in ordered_pairs:
        if a in domain_sets and b in domain_sets and not domain_sets[a] <= domain_sets[b]:
            missing = sorted(domain_sets[a] - domain_sets[b])
            violations.append(f"domain not monotone: {missing} in D({a}) but not D({b})")

    arities: dict[str, int] = {}
    for w, pred, args in sorted(model.facts):
        if w not in world_set:
            violations.append(f"fact at undeclared world {w}")
            continue
        if pred in arities and arities[pred] != len(args):
            violations.append(f"predicate {pred} used with inconsistent arities")
        arities.setdefault(pred, len(args))
        for e in args:
            if e not in domain_sets[w]:
                violations.append(f"fact {pred}{args} at {w} uses {e} outside D({w})")
    # heredity: each stored 1-entry must persist at every successor
    for w, pred, args in sorted(model.facts):
        if w not in world_set:
            continue
        for v in model.successors(w):
            if (v, pred, args) not in model.facts:
                violations.append(
                    f"heredity violated: {pred}{args} is 1 at {w} but 0 at {v} >= {w}"
                )
    return violations


def require_valid_model(model: KripkeModel) -> None:
    """Raise InvalidModelError listing every violation of `validate_model`."""
    violations = validate_model(model)
    if violations:
        raise InvalidModelError("invalid model:\n" + "\n".join(violations))


def is_constant_domain(model: KripkeModel) -> bool:
    """Whether all worlds share one domain (assumes a valid model)."""
    sets = {frozenset(model.domains[w]) for w in model.worlds}
    return len(sets) <= 1


# --- compiled evaluation ------------------------------------------------------
#
# A formula is compiled once into integer nodes, and a model is labelled as in
# the labelling algorithm of CTL model checking (Clarke, Emerson & Sistla,
# TOPLAS 1986): the label of a subformula under an assignment of its free
# variables is the set of worlds where it takes value 1, held as a bitmask
# over the model's worlds and computed from its children's labels. Labels are
# computed on demand and memoized per model by (node id, elements at the
# node's free-variable slots). A label may have any bits at worlds whose
# domain misses an assigned element; no value at a world where the assignment
# is defined ever reads them, because domains grow along the order.

ATOM, CONN, FORALL, EXISTS = range(4)


class CompiledFormulas:
    """Formulas over one signature, compiled to integer nodes on demand.

    Each distinct subformula gets an id in post-order, so children come before
    their parents, and each variable name gets a fixed slot of the
    environment list the labelling reads. `nodes[id]` is a tuple
    `(kind, a, b, key)`:

    - `(ATOM, pred, argument slots, key)`
    - `(CONN, rows where the table is 0 as bit tuples, child ids, key)`
    - `(FORALL, bound slot, body id, key)` and the same for `EXISTS`

    where `key` is an `itemgetter` of the node's free-variable slots (None for
    a closed node). Nodes hold only tuples, ints, strings and itemgetters, so
    a compiled form pickles for worker processes.
    """

    def __init__(self, signature: Signature):
        self.signature = signature
        self.nodes: list[tuple] = []
        self.free: list[tuple[str, ...]] = []  # sorted free variables per node
        self.slots: dict[str, int] = {}
        self._ids: dict[Formula, int] = {}
        self._zero_rows: dict[str, tuple[tuple[int, ...], ...]] = {}

    def slot(self, var: str) -> int:
        return self.slots.setdefault(var, len(self.slots))

    def add(self, formula: Formula) -> int:
        """The id of the formula's node, compiling it and its subformulas if new."""
        got = self._ids.get(formula)
        if got is not None:
            return got
        if isinstance(formula, Atom):
            free = frozenset(formula.args)
            head = (ATOM, formula.pred, tuple(self.slot(x) for x in formula.args))
        elif isinstance(formula, Conn):
            children = tuple(self.add(arg) for arg in formula.args)
            zero_rows = self._zero_rows.get(formula.conn)
            if zero_rows is None:
                table = self.signature.connectives[formula.conn].table
                width = len(formula.args)
                zero_rows = self._zero_rows[formula.conn] = tuple(
                    tuple((row >> (width - 1 - i)) & 1 for i in range(width))
                    for row, bit in enumerate(table)
                    if not bit
                )
            free = frozenset(x for child in children for x in self.free[child])
            head = (CONN, zero_rows, children)
        elif isinstance(formula, (Forall, Exists)):
            body = self.add(formula.body)
            free = frozenset(self.free[body]) - {formula.var}
            kind = FORALL if isinstance(formula, Forall) else EXISTS
            head = (kind, self.slot(formula.var), body)
        else:
            raise TypeError(f"not a formula: {formula!r}")
        variables = tuple(sorted(free))
        key = itemgetter(*(self.slot(x) for x in variables)) if variables else None
        node = len(self.nodes)
        self.nodes.append(head + (key,))
        self.free.append(variables)
        self._ids[formula] = node
        return node


class Frame:
    """A model's worlds, order and domains, with what evaluation derives from
    them alone.

    A frame holds the world bits, the up-set of each world, the worlds whose
    domain holds each element and, filled on demand, each world's
    assignments of a number of variables and the worlds none of whose
    successors lies in a given set. It reads no facts, so the scalar
    `Evaluator` of one model and the `SlicedEvaluator` of every
    interpretation of a frame build it alike.
    """

    def __init__(
        self,
        worlds: tuple[str, ...],
        order: frozenset[tuple[str, str]],
        domains: dict[str, tuple[str, ...]],
    ):
        self.worlds = worlds
        self.domains = domains
        bits = [1 << i for i in range(len(worlds))]
        self.full = (1 << len(worlds)) - 1
        self.bit = dict(zip(worlds, bits))
        ups = self.bit.copy()
        for a, b in order:
            ups[a] |= self.bit[b]
        self.ups = tuple(zip(bits, ups.values()))
        self.named = tuple(zip(bits, worlds))
        # element -> the worlds whose domain holds it
        self.present: dict[str, int] = {}
        for w, bit in zip(worlds, bits):
            for e in domains[w]:
                self.present[e] = self.present.get(e, 0) | bit
        self.elements = tuple(self.present.items())
        self._points: dict[int, tuple] = {}
        self._above: dict[int, int] = {}

    def points(self, count: int) -> tuple[tuple[int, str, tuple[tuple[str, ...], ...]], ...]:
        """Per world in declaration order, `(bit, world, assignments)`, where
        the assignments are the tuples of `count` elements of its domain in
        the scan order of `find_refutation`."""
        got = self._points.get(count)
        if got is None:
            got = self._points[count] = tuple(
                (bit, w, tuple(itertools.product(self.domains[w], repeat=count)))
                for bit, w in self.named
            )
        return got

    def above_none_of(self, bad: int) -> int:
        """The worlds none of whose successors lies in `bad`."""
        got = self._above.get(bad)
        if got is None:
            got = 0
            for bit, up in self.ups:
                if not up & bad:
                    got |= bit
            self._above[bad] = got
        return got


@dataclass
class CompiledSequent:
    """A sequent's formulas compiled once, for evaluation on many models."""

    formulas: CompiledFormulas
    antecedent: tuple[int, ...]
    succedent: tuple[int, ...]
    variables: tuple[str, ...]  # the sequent's free variables, sorted
    slots: tuple[int, ...]


def compile_sequent(signature: Signature, sequent: Sequent) -> CompiledSequent:
    formulas = CompiledFormulas(signature)
    antecedent = tuple(formulas.add(f) for f in sequent.antecedent)
    succedent = tuple(formulas.add(f) for f in sequent.succedent)
    variables = tuple(sorted({x for node in antecedent + succedent for x in formulas.free[node]}))
    slots = tuple(formulas.slot(x) for x in variables)
    return CompiledSequent(formulas, antecedent, succedent, variables, slots)


class Evaluator:
    """Evaluates formulas on one validated model.

    Formulas are compiled on first use into `compiled`, which may be shared
    with other evaluators over the same signature. Labels are memoized, and
    so are connective labels by their children's labels, so a shared
    compiled form never changes values, only speed. Construction reads no
    facts.
    """

    def __init__(
        self,
        model: KripkeModel,
        signature: Signature,
        compiled: Optional[CompiledFormulas] = None,
    ):
        self.model = model
        self.signature = signature
        self.compiled = CompiledFormulas(signature) if compiled is None else compiled
        self.frame = Frame(model.worlds, model.order, model.domains)
        self._full = self.frame.full
        self._named = self.frame.named
        self._elements = self.frame.elements
        self._above_none_of = self.frame.above_none_of
        self._connectives: dict = {}
        self._nodes = self.compiled.nodes
        self._memo: dict = {}

    def value(self, world: str, assignment: dict[str, str], formula: Formula) -> int:
        bit = self.frame.bit.get(world)
        if bit is None:
            raise ValueError(f"unknown world {world!r}")
        node = self.compiled.add(formula)
        for x in self.compiled.free[node]:
            if x not in assignment:
                raise ValueError(f"unbound free variable {x!r}")
            if not self.frame.present.get(assignment[x], 0) & bit:
                raise ValueError(
                    f"assignment sends {x!r} to {assignment[x]!r}, not in D({world})"
                )
        env = [assignment.get(x) for x in self.compiled.slots]
        return 1 if self._label(node, env) & bit else 0

    def sequent_value(self, world: str, assignment: dict[str, str], sequent: Sequent) -> int:
        for f in sequent.antecedent:
            if self.value(world, assignment, f) != 1:
                return 1
        for f in sequent.succedent:
            if self.value(world, assignment, f) != 0:
                return 1
        return 0

    def refutation(self, sequent: CompiledSequent) -> Optional[tuple[str, dict[str, str]]]:
        """First point (world, assignment) where the sequent gets value 0,
        in the scan order of `find_refutation`."""
        env: list = [None] * len(self.compiled.slots)
        slots = sequent.slots
        refuting: dict[tuple[str, ...], int] = {}
        for bit, w, combos in self.frame.points(len(slots)):
            for combo in combos:
                mask = refuting.get(combo)
                if mask is None:
                    for slot, e in zip(slots, combo):
                        env[slot] = e
                    mask = refuting[combo] = self._refuting(sequent, env)
                if mask & bit:
                    return w, dict(zip(sequent.variables, combo))
        return None

    def _refuting(self, sequent: CompiledSequent, env: list) -> int:
        """The worlds where every antecedent formula is 1 and every succedent one 0."""
        mask = self._full
        for node in sequent.antecedent:
            mask &= self._label(node, env)
            if not mask:
                return 0
        for node in sequent.succedent:
            mask &= ~self._label(node, env)
            if not mask:
                return 0
        return mask

    def _label(self, node: int, env: list) -> int:
        kind, a, b, key = self._nodes[node]
        memo_key = node if key is None else (node, key(env))
        memo = self._memo
        got = memo.get(memo_key)
        if got is not None:
            return got
        if kind == ATOM:
            args = tuple([env[slot] for slot in b])
            facts = self.model.facts
            mask = 0
            for bit, w in self._named:
                if (w, a, args) in facts:
                    mask |= bit
        elif kind == CONN:
            labels = tuple([self._label(child, env) for child in b])
            conn_key = (node, labels)
            mask = self._connectives.get(conn_key)
            if mask is None:
                full = self._full
                bad = 0
                for row in a:
                    cell = full
                    for label, one in zip(labels, row):
                        cell &= label if one else ~label
                    bad |= cell
                mask = self._connectives[conn_key] = self._above_none_of(bad)
        else:
            saved = env[a]
            label = self._label
            if kind == FORALL:
                bad = 0
                for e, present in self._elements:
                    env[a] = e
                    bad |= present & ~label(b, env)
                mask = self._above_none_of(bad)
            else:
                mask = 0
                for e, present in self._elements:
                    env[a] = e
                    mask |= present & label(b, env)
            env[a] = saved
        memo[memo_key] = mask
        return mask


class SlicedEvaluator:
    """Labels every interpretation of one frame at once, by bit-slicing
    (Biham, "A fast new DES implementation in software", FSE 1997).

    The models of a batch share the frame and differ only in their facts.
    Model m owns bit m of a Python int, and a label is a tuple of such ints,
    one plane per world: bit m of plane i is the value at world i in model
    m. `atoms` maps `(pred, args)` to the planes of that atom (all 0 when
    absent), and `full` has one bit per model. Connectives and quantifiers
    take the steps of `Evaluator` plane by plane, with complement taken
    within `full`, and labels are memoized by (node id, assigned elements)
    as there, so a label that depends on few atoms is shared by every model
    that agrees on them at no extra cost.
    """

    def __init__(self, compiled: CompiledFormulas, frame: Frame, atoms: dict, full: int):
        count = len(frame.worlds)
        self._nodes = compiled.nodes
        self._slot_count = len(compiled.slots)
        self._frame = frame
        self._atoms = atoms
        self._full = full
        self._worlds = range(count)
        self._zero = (0,) * count
        # per world, the indices of its up-set; per element, of its holders
        self._ups = tuple(tuple(j for j in range(count) if up >> j & 1) for _, up in frame.ups)
        self._holders = tuple(
            (e, tuple(j for j in range(count) if present >> j & 1))
            for e, present in frame.elements
        )
        self._memo: dict = {}

    def refuting_models(self, sequent: CompiledSequent) -> int:
        """The models, as bits, that some point refutes: a world and an
        assignment from its domain where every antecedent formula is 1 and
        every succedent one 0."""
        env: list = [None] * self._slot_count
        slots = sequent.slots
        refuting: dict[tuple[str, ...], tuple[int, ...]] = {}
        hits = 0
        for i, (_, _, combos) in enumerate(self._frame.points(len(slots))):
            for combo in combos:
                planes = refuting.get(combo)
                if planes is None:
                    for slot, e in zip(slots, combo):
                        env[slot] = e
                    planes = refuting[combo] = self._refuting(sequent, env)
                hits |= planes[i]
        return hits

    def _refuting(self, sequent: CompiledSequent, env: list) -> tuple[int, ...]:
        full = self._full
        planes = (full,) * len(self._zero)
        for nodes, flip in ((sequent.antecedent, 0), (sequent.succedent, full)):
            for node in nodes:
                planes = tuple([p & (flip ^ q) for p, q in zip(planes, self._label(node, env))])
                if not any(planes):
                    return planes
        return planes

    def _above_none_of(self, bad: list[int]) -> tuple[int, ...]:
        """Per world, the models where no successor lies in `bad`."""
        full = self._full
        out = []
        for up in self._ups:
            hit = 0
            for j in up:
                hit |= bad[j]
            out.append(full ^ hit)
        return tuple(out)

    def _label(self, node: int, env: list) -> tuple[int, ...]:
        kind, a, b, key = self._nodes[node]
        memo_key = node if key is None else (node, key(env))
        memo = self._memo
        got = memo.get(memo_key)
        if got is not None:
            return got
        full = self._full
        if kind == ATOM:
            planes = self._atoms.get((a, tuple([env[slot] for slot in b])), self._zero)
        elif kind == CONN:
            labels = [self._label(child, env) for child in b]
            bad = []
            for i in self._worlds:
                acc = 0
                for row in a:
                    cell = full
                    for label, one in zip(labels, row):
                        cell &= label[i] if one else full ^ label[i]
                    acc |= cell
                bad.append(acc)
            planes = self._above_none_of(bad)
        else:
            # forall collects the models where the body is 0, exists those
            # where it is 1
            flip = full if kind == FORALL else 0
            saved = env[a]
            acc = [0] * len(self._zero)
            for e, holders in self._holders:
                env[a] = e
                body = self._label(b, env)
                for j in holders:
                    acc[j] |= flip ^ body[j]
            env[a] = saved
            planes = self._above_none_of(acc) if kind == FORALL else tuple(acc)
        memo[memo_key] = planes
        return planes


def eval_formula(
    model: KripkeModel,
    signature: Signature,
    world: str,
    assignment: dict[str, str],
    formula: Formula,
) -> int:
    return Evaluator(model, signature).value(world, assignment, formula)


def find_refutation(
    model: KripkeModel,
    signature: Signature,
    sequent: Sequent,
    *,
    compiled: Optional[CompiledSequent] = None,
) -> Optional[tuple[str, dict[str, str]]]:
    """First point (world, assignment) where the sequent gets value 0.

    Worlds are scanned in declaration order, assignments with variables in
    sorted order and elements in declaration order; returns None when the
    model validates the sequent. `compiled`, from `compile_sequent(signature,
    sequent)`, saves compiling the sequent again.
    """
    if compiled is None:
        compiled = compile_sequent(signature, sequent)
    return Evaluator(model, signature, compiled.formulas).refutation(compiled)


def classical_eval(
    signature: Signature,
    domain: tuple[str, ...],
    facts: frozenset[tuple[str, tuple[str, ...]]],
    assignment: dict[str, str],
    formula: Formula,
) -> int:
    """Plain truth-table evaluation over one nonempty domain.

    Independent of the Kripke evaluator; coincides with it on the induced
    one-world model.
    """
    if not domain:
        raise ValueError("classical evaluation needs a nonempty domain")
    if isinstance(formula, Atom):
        for x in formula.args:
            if x not in assignment:
                raise ValueError(f"unbound free variable {x!r}")
        args = tuple(assignment[x] for x in formula.args)
        return 1 if (formula.pred, args) in facts else 0
    if isinstance(formula, Conn):
        tf = signature.connectives[formula.conn]
        index = 0
        for arg in formula.args:
            index = (index << 1) | classical_eval(signature, domain, facts, assignment, arg)
        return tf.table[index]
    if isinstance(formula, Forall):
        return (
            1
            if all(
                classical_eval(
                    signature, domain, facts, {**assignment, formula.var: a}, formula.body
                )
                for a in domain
            )
            else 0
        )
    if isinstance(formula, Exists):
        return (
            1
            if any(
                classical_eval(
                    signature, domain, facts, {**assignment, formula.var: a}, formula.body
                )
                for a in domain
            )
            else 0
        )
    raise TypeError(f"not a formula: {formula!r}")


def one_world_model(
    domain: tuple[str, ...], facts: Iterable[tuple[str, tuple[str, ...]]], world: str = "w0"
) -> KripkeModel:
    """The one-world Kripke model induced by a classical structure."""
    return KripkeModel(
        worlds=(world,),
        order=frozenset({(world, world)}),
        domains={world: tuple(domain)},
        facts=frozenset((world, pred, args) for pred, args in facts),
    )


# --- model files -------------------------------------------------------------
#
# Line format ('#' starts a comment):
#   pred NAME ARITY / conn NAME ARITY TABLE / conn NAME builtin   (optional)
#   worlds: w1 w2 ...
#   order: w1 w2            one generating pair per line, closed by the loader
#   domain w1: a1 a2
#   fact w1: p(a1, a2)      0-ary facts as `fact w1: T` or `fact w1: T()`
# Unstated facts are 0.


def parse_model_text(text: str) -> tuple[KripkeModel, Signature]:
    predicates: dict[str, int] = {}
    connectives = {}
    worlds: list[str] = []
    pairs: list[tuple[str, str]] = []
    domains: dict[str, list[str]] = {}
    facts: set[Fact] = set()

    def fail(lineno: int, message: str) -> None:
        raise InvalidModelError(f"line {lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw)
        if not line:
            continue
        try:
            if parse_signature_directive(line, lineno, predicates, connectives):
                continue
        except InvalidSignatureError as exc:
            raise InvalidModelError(str(exc)) from None
        head, colon, rest = line.partition(":")
        head = head.strip()
        rest = rest.strip()
        if not colon:
            fail(lineno, f"unknown directive {line.split()[0]!r}")
        parts = head.split()
        kind = parts[0] if parts else ""
        if head == "worlds":
            for w in rest.split():
                if w in worlds:
                    fail(lineno, f"duplicate world {w!r}")
                worlds.append(w)
        elif head == "order":
            pair = rest.split()
            if len(pair) != 2:
                fail(lineno, "expected 'order: LOWER UPPER'")
            pairs.append((pair[0], pair[1]))
        elif kind == "domain":
            if len(parts) != 2:
                fail(lineno, "expected 'domain WORLD: elements'")
            w = parts[1]
            bucket = domains.setdefault(w, [])
            for e in rest.split():
                if e in bucket:
                    fail(lineno, f"duplicate element {e!r} in domain of {w}")
                bucket.append(e)
        elif kind == "fact":
            if len(parts) != 2:
                fail(lineno, "expected 'fact WORLD: pred(args)'")
            w = parts[1]
            name, paren, argtext = rest.partition("(")
            name = name.strip()
            if paren:
                if not argtext.endswith(")"):
                    fail(lineno, "unbalanced parentheses in fact")
                argtext = argtext[:-1]
                args = tuple(a.strip() for a in argtext.split(",")) if argtext.strip() else ()
            else:
                args = ()
            if not name:
                fail(lineno, "fact is missing a predicate name")
            facts.add((w, name, args))
        else:
            fail(lineno, f"unknown directive {head!r}")

    known = set(worlds)
    for a, b in pairs:
        if a not in known or b not in known:
            raise InvalidModelError(f"order pair ({a}, {b}) mentions an undeclared world")
    for w in domains:
        if w not in known:
            raise InvalidModelError(f"domain declared for undeclared world {w!r}")
    for w, pred, args in sorted(facts):
        if w not in known:
            raise InvalidModelError(f"fact declared at undeclared world {w!r}")
        declared = predicates.get(pred)
        if declared is not None and declared != len(args):
            raise InvalidModelError(
                f"fact {pred}{args} clashes with declared arity {declared}"
            )
        predicates.setdefault(pred, len(args))

    model = KripkeModel(
        worlds=tuple(worlds),
        order=reflexive_transitive_closure(worlds, pairs),
        domains={w: tuple(domains.get(w, ())) for w in worlds},
        facts=frozenset(facts),
    )
    require_valid_model(model)
    try:
        signature = Signature(predicates, connectives)
    except InvalidSignatureError as exc:
        raise InvalidModelError(str(exc)) from None
    return model, signature


def model_to_text(model: KripkeModel, signature: Optional[Signature] = None) -> str:
    lines = [] if signature is None else signature_to_text(signature).splitlines()
    lines.append("worlds: " + " ".join(model.worlds))
    index = {w: i for i, w in enumerate(model.worlds)}
    for a, b in sorted(model.order, key=lambda p: (index[p[0]], index[p[1]])):
        if a != b:
            lines.append(f"order: {a} {b}")
    for w in model.worlds:
        lines.append(f"domain {w}: " + " ".join(model.domains[w]))
    for w, pred, args in sorted(model.facts, key=lambda f: (index[f[0]], f[1], f[2])):
        rendered = f"{pred}({', '.join(args)})" if args else pred
        lines.append(f"fact {w}: {rendered}")
    return "\n".join(lines) + "\n"


def load_model(path: str) -> tuple[KripkeModel, Signature]:
    with open(path, encoding="utf-8") as handle:
        return parse_model_text(handle.read())
