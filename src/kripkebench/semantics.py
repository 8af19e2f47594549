"""Finite Kripke models, formula and sequent evaluation, validity on a model.

A model is a preordered set of worlds with monotone nonempty domains and a
hereditary interpretation. Only 1-entries of the interpretation are stored;
everything unstated is 0.
"""

from __future__ import annotations

import itertools
from functools import cached_property, reduce
from operator import and_, itemgetter, or_
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

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
from .truthfun import Frozen

Fact = tuple[str, str, tuple[str, ...]]
Labels = dict[tuple[str, tuple[str, ...]], int]  # (pred, args) -> a label


class InvalidModelError(Exception):
    """A model file or model value violates the model invariants."""


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def bits(mask: int) -> bytes:
    """Bit k of the mask as byte k, 0 or 1, up to its highest set bit."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


class KripkeModel(Frozen):
    """Worlds with a preorder, per-world domains, and the 1-entries of the
    interpretation as atom labels.

    The order is stored as up-set masks: `up[i]` is the mask of the worlds
    above `worlds[i]`, bit j standing for `worlds[j]`. `labels` maps each
    atom `(pred, args)` that holds somewhere to the mask of the worlds where
    it holds; no mask is 0. A model is built from `facts`, `(world, pred,
    args)` triples, or from `labels`. `order`, the pairs `(a, b)` with b
    above a, and `facts` are views built when first read, `facts` from the
    labels unless it was given. A fact at an undeclared world has no bit, so
    only `facts` keeps it, for `validate_model` to report.

    `worlds` order and per-world element order are significant: they fix the
    canonical enumeration order of counterwitnesses.
    """

    def __init__(
        self,
        worlds: tuple[str, ...],
        up: tuple[int, ...],
        domains: dict[str, tuple[str, ...]],
        facts: Optional[Iterable[Fact]] = None,
        *,
        labels: Optional[Labels] = None,
    ):
        if (facts is None) == (labels is None):
            raise TypeError("a model takes either facts or labels")
        if labels is None:
            facts = frozenset(facts)
            self.__dict__["facts"] = facts  # the view is the triples given
            position = {w: i for i, w in enumerate(worlds)}
            labels = {}
            for w, pred, args in facts:
                i = position.get(w)
                if i is not None:
                    labels[pred, args] = labels.get((pred, args), 0) | 1 << i
        self.__dict__.update(worlds=worlds, up=tuple(up), domains=domains, labels=labels)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.worlds, self.up, self.domains, self.labels) == (
                other.worlds, other.up, other.domains, other.labels
            )
        return NotImplemented

    def __repr__(self):
        return (
            f"{type(self).__name__}(worlds={self.worlds!r}, up={self.up!r},"
            f" domains={self.domains!r}, labels={self.labels!r})"
        )

    @cached_property
    def order(self) -> frozenset[tuple[str, str]]:
        return frozenset(
            (w, v)
            for w, mask in zip(self.worlds, self.up)
            for v in itertools.compress(self.worlds, bits(mask))
        )

    @cached_property
    def facts(self) -> frozenset[Fact]:
        return frozenset(
            (w, pred, args)
            for (pred, args), mask in self.labels.items()
            for w in itertools.compress(self.worlds, bits(mask))
        )


def reflexive_transitive_closure(
    worlds: Iterable[str], pairs: Iterable[tuple[str, str]]
) -> tuple[int, ...]:
    """The up-set masks of the least preorder holding the pairs, bit i
    standing for the i-th world. By Warshall's algorithm on each world's
    reach mask: once every world that reaches world k also reaches what k
    reaches, for each k in turn, the masks are closed."""
    index = {w: i for i, w in enumerate(worlds)}
    reach = [1 << i for i in range(len(index))]
    for a, b in pairs:
        reach[index[a]] |= 1 << index[b]
    for k in range(len(reach)):
        bit, through = 1 << k, reach[k]
        reach = [mask | through if mask & bit else mask for mask in reach]
    return tuple(reach)


def validate_model(model: KripkeModel) -> list[str]:
    """All invariant violations, as human-readable strings; empty means valid.
    Each kind comes in sorted order of the names it mentions."""
    violations: list[str] = []
    worlds, up = model.worlds, model.up
    if not worlds:
        violations.append("the model declares no worlds")
    world_set = set(worlds)
    if len(world_set) != len(worlds):
        violations.append("duplicate world names")
    if set(model.domains) != world_set:
        violations.append("domains must be declared for exactly the declared worlds")
        return violations

    positions = range(len(worlds))
    for i, w in enumerate(worlds):
        if not up[i] >> i & 1:
            violations.append(f"order is not reflexive at {w}")
    # a <= b <= d without a <= d: d lies in up[b] but not in up[a]
    broken = []
    for i, mask in enumerate(up):
        if reduce(or_, itertools.compress(up, bits(mask)), 0) & ~mask:
            for j in itertools.compress(positions, bits(mask)):
                for k in itertools.compress(positions, bits(up[j] & ~mask)):
                    broken.append((worlds[i], worlds[j], worlds[k]))
    for a, b, d in sorted(broken):
        violations.append(f"order is not transitive: {a} <= {b} <= {d}")

    domain_sets = {w: set(model.domains[w]) for w in worlds}
    for w in worlds:
        if not model.domains[w]:
            violations.append(f"domain of {w} is empty")
        if len(domain_sets[w]) != len(model.domains[w]):
            violations.append(f"domain of {w} lists duplicate elements")
    # a <= b with D(a) not within D(b): b lies outside the worlds holding D(a)
    holding: dict[str, int] = {}
    for i, w in enumerate(worlds):
        for e in domain_sets[w]:
            holding[e] = holding.get(e, 0) | 1 << i
    shrinking = []
    for i, w in enumerate(worlds):
        within = reduce(and_, map(holding.get, domain_sets[w]), -1)
        for j in itertools.compress(positions, bits(up[i] & ~within)):
            shrinking.append((w, worlds[j]))
    for a, b in sorted(shrinking):
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
    lost = []
    for (pred, args), label in model.labels.items():
        for i in itertools.compress(positions, bits(label)):
            if up[i] & ~label:
                lost.append((worlds[i], pred, args, up[i] & ~label))
    for w, pred, args, missing in sorted(lost):
        for v in itertools.compress(worlds, bits(missing)):
            violations.append(f"heredity violated: {pred}{args} is 1 at {w} but 0 at {v} >= {w}")
    return violations


def require_valid_model(model: KripkeModel) -> None:
    """Raise InvalidModelError listing every violation of `validate_model`."""
    violations = validate_model(model)
    if violations:
        raise InvalidModelError("invalid model:\n" + "\n".join(violations))


def upward_closed_subsets(
    candidates: tuple[int, ...], up: Sequence[int], max_count: Optional[int] = None
) -> list[int]:
    """The subsets of the worlds at `candidates`, increasing positions, that
    are closed upward within them under the order with up-set masks `up`,
    as masks over world positions, in increasing order.

    Positions are placed from the highest down, each left out before it is
    put in, which keeps mask order. Position p may be left out when no
    chosen position lies below it in the order, and put in when every
    placed position above it in the order is chosen; in a transitive order
    one of the two always holds, so no partial set is dropped. So the family
    never shrinks as positions are placed, and past `max_count` (at least 1)
    partial sets it raises ValueError before it is built to the end.
    """
    inside = sum(1 << p for p in candidates)
    masks = [0]
    for p in reversed(candidates):
        bit = 1 << p
        above = up[p] & inside
        below = sum(1 << q for q in candidates if q != p and up[q] & bit)
        grown = []
        for chosen in masks:
            if not below & chosen:
                grown.append(chosen)
            if not (above & ~chosen) >> (p + 1):
                grown.append(chosen | bit)
        masks = grown
        if max_count is not None and len(masks) > max_count:
            raise ValueError(f"more than {max_count} upward-closed sets")
    return masks


# --- compiled evaluation ------------------------------------------------------
#
# A formula is compiled once into integer nodes, and models are labelled as in
# the labelling algorithm of CTL model checking (Clarke, Emerson & Sistla,
# TOPLAS 1986): the label of a subformula under an assignment of its free
# variables is where it takes value 1, computed from its children's labels.
# One label covers `width` models at once, by bit-slicing (Biham, "A fast new
# DES implementation in software", FSE 1997): it is one int in world-major
# blocks of `width` bits, and bit `i * width + m` is the value at world i in
# model m. The models may be of one frame or of several frames on the same
# worlds, since every step acts on each model's bits alone. With width 1 it
# is the bitmask of the worlds of one model. Labels are computed on demand
# and memoized per evaluator by (node id, elements at the node's
# free-variable slots). A label may have any bits at worlds whose domain
# misses an assigned element; no value at a world where the assignment is
# defined ever reads them, because domains grow along the order.

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
    a closed node).
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
    """A frame's worlds, up-set masks and domains, with what labelling
    `width` models of it at once derives from them alone.

    A frame holds, per world with a world strictly below it, the offset of
    its block and, for each world strictly below it, the shift to that
    world's block with the mask of the models whose order has the pair,
    `ones` when every model has it; per element, the bits of the blocks
    where the world's domain holds it. It reads no facts, so the evaluators
    of every chunk of a frame's interpretations share it.
    `Frame.side_by_side` lays several frames on the same worlds out in one
    block width, each frame's models a run of bits in every block, so that
    the models of a batch of frames label at once.
    """

    def __init__(
        self,
        worlds: tuple[str, ...],
        up: Sequence[int],
        domains: dict[str, tuple[str, ...]],
        width: int = 1,
    ):
        self._lay_out(worlds, ((up, domains, width),))

    @classmethod
    def side_by_side(
        cls,
        worlds: tuple[str, ...],
        frames: Sequence[tuple[Sequence[int], dict[str, tuple[str, ...]], int]],
    ) -> Frame:
        """The frames `(up, domains, size)` in one layout: the models of
        each fill the next `size` bits of every block, in the given order."""
        frame = cls.__new__(cls)
        frame._lay_out(worlds, frames)
        return frame

    def _lay_out(self, worlds, frames) -> None:
        width = sum(size for _, _, size in frames)
        self.width = width
        self.ones = (1 << width) - 1
        self.full = (1 << len(worlds) * width) - 1
        offsets = [i * width for i in range(len(worlds))]
        self.offset = dict(zip(worlds, offsets))
        self.named = tuple(zip(offsets, worlds))
        spread = self.full // self.ones  # bit 0 of every block
        # per world, the offsets of the worlds strictly below it, which the
        # up-set step shifts the world's block to, each with the models it
        # holds in; every model is reflexive, so the step keeps each block
        # where it is without a shift
        below: list[list[tuple[int, int]]] = [[] for _ in worlds]
        # element -> the bits of the blocks whose world's domain holds it:
        # with one domain at every world, as in a completion, whole runs
        self.present: dict[str, int] = {}
        start = 0
        for up, domains, size in frames:
            models = ((1 << size) - 1) << start
            start += size
            for i, (offset, mask) in enumerate(zip(offsets, up)):
                pair = (offset, models)
                for lower in itertools.compress(below, bits(mask & ~(1 << i))):
                    lower.append(pair)
            first = domains[worlds[0]] if worlds else ()
            if domains == dict.fromkeys(worlds, first):
                for e in first:
                    self.present[e] = self.present.get(e, 0) | models * spread
            else:
                for offset, w in self.named:
                    for e in domains[w]:
                        self.present[e] = self.present.get(e, 0) | models << offset
        if len(frames) > 1:  # one shift of a pair serves every frame that has it
            below = [_merged(lower) for lower in below]
        self.below = tuple((offset, tuple(lower)) for offset, lower in zip(offsets, below) if lower)
        self.elements = tuple(self.present.items())


def _merged(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    models: dict[int, int] = {}
    for offset, held in pairs:
        models[offset] = models.get(offset, 0) | held
    return list(models.items())


class CompiledSequent(NamedTuple):
    """A sequent's formulas compiled once, for evaluation on many models."""

    formulas: CompiledFormulas
    antecedent: tuple[int, ...]
    succedent: tuple[int, ...]
    slots: tuple[int, ...]  # of the sequent's free variables


def compile_sequent(signature: Signature, sequent: Sequent) -> CompiledSequent:
    formulas = CompiledFormulas(signature)
    antecedent = tuple(formulas.add(f) for f in sequent.antecedent)
    succedent = tuple(formulas.add(f) for f in sequent.succedent)
    variables = tuple(sorted({x for node in antecedent + succedent for x in formulas.free[node]}))
    slots = tuple(formulas.slot(x) for x in variables)
    return CompiledSequent(formulas, antecedent, succedent, slots)


class Evaluator:
    """Labels `frame.width` interpretations of one frame at once.

    `Evaluator(model, signature)` labels one validated model, a batch of
    width 1, and `Evaluator.of_frame` a batch whose atom labels are given.
    Formulas are compiled on first use into `compiled`, which `of_frame`
    evaluators over the same signature may share; a shared compiled form
    never changes values, only speed.
    """

    def __init__(self, model: KripkeModel, signature: Signature):
        # at width 1 a model's labels are its atom labels
        frame = Frame(model.worlds, model.up, model.domains)
        self._start(CompiledFormulas(signature), frame, model.labels)

    @classmethod
    def of_frame(
        cls, compiled: CompiledFormulas, frame: Frame, atoms: Labels
    ) -> Evaluator:
        """An evaluator of `frame.width` models of the frame, where `atoms`
        maps `(pred, args)` to the label of that atom (0 when absent): a
        dict, or anything with its `get`."""
        evaluator = cls.__new__(cls)
        evaluator._start(compiled, frame, atoms)
        return evaluator

    def _start(self, compiled: CompiledFormulas, frame: Frame, atoms: dict) -> None:
        self.compiled = compiled
        self.frame = frame
        self._atoms = atoms
        self._nodes = compiled.nodes
        self._memo: dict = {}

    def value(self, world: str, assignment: dict[str, str], formula: Formula) -> int:
        """The formula's value at the world in model 0 of the batch."""
        offset = self.frame.offset.get(world)
        if offset is None:
            raise ValueError(f"unknown world {world!r}")
        node = self.compiled.add(formula)
        for x in self.compiled.free[node]:
            if x not in assignment:
                raise ValueError(f"unbound free variable {x!r}")
            if not self.frame.present.get(assignment[x], 0) >> offset & 1:
                raise ValueError(
                    f"assignment sends {x!r} to {assignment[x]!r}, not in D({world})"
                )
        env = [assignment.get(x) for x in self.compiled.slots]
        return self._label(node, env) >> offset & 1

    def label(self, assignment: dict[str, str], formula: Formula) -> int:
        """The formula's label under the assignment. With width 1 bit i is
        its value at world i, wherever that world's domain holds the
        assigned elements; elsewhere the bit is unspecified."""
        node = self.compiled.add(formula)
        for x in self.compiled.free[node]:
            if x not in assignment:
                raise ValueError(f"unbound free variable {x!r}")
        return self._label(node, [assignment.get(x) for x in self.compiled.slots])

    def sequent_value(self, world: str, assignment: dict[str, str], sequent: Sequent) -> int:
        for f in sequent.antecedent:
            if self.value(world, assignment, f) != 1:
                return 1
        for f in sequent.succedent:
            if self.value(world, assignment, f) != 0:
                return 1
        return 0

    def refuted_models(self, sequent: CompiledSequent) -> int:
        """The models, as the bits of one block, that some point refutes.

        Each assignment of the sequent's free variables to the frame's
        elements is labelled once, from the worlds whose domain holds all of
        it, so no bit where the assignment is undefined is read.
        """
        frame = self.frame
        env: list = [None] * len(self.compiled.slots)
        hits = 0
        for combo in itertools.product(frame.elements, repeat=len(sequent.slots)):
            start = frame.full
            for slot, (e, present) in zip(sequent.slots, combo):
                env[slot] = e
                start &= present
            if start:
                hits |= self._refuting(sequent, env, start)
        blocks = 0
        for offset, _ in frame.named:
            blocks |= hits >> offset & frame.ones
        return blocks

    def _refuting(self, sequent: CompiledSequent, env: list, mask: int) -> int:
        """Where in `mask` every antecedent formula is 1 and every succedent
        one 0."""
        for node in sequent.antecedent:
            mask &= self._label(node, env)
            if not mask:
                return 0
        for node in sequent.succedent:
            mask &= ~self._label(node, env)
            if not mask:
                return 0
        return mask

    def _above_none_of(self, bad: int) -> int:
        """Where no successor lies in `bad`, which lies within `frame.full`:
        each world's block of `bad` stays and is shifted to the offset of
        every world strictly below it, in the models whose order has that
        pair."""
        ones = self.frame.ones
        hit = bad
        for offset, below in self.frame.below:
            block = bad >> offset & ones
            if block:
                for shift, models in below:
                    hit |= (block & models) << shift
        return self.frame.full ^ hit

    def _label(self, node: int, env: list) -> int:
        kind, a, b, key = self._nodes[node]
        memo_key = node if key is None else (node, key(env))
        memo = self._memo
        got = memo.get(memo_key)
        if got is not None:
            return got
        if kind == ATOM:
            mask = self._atoms.get((a, tuple([env[slot] for slot in b])), 0)
        elif kind == CONN:
            labels = [self._label(child, env) for child in b]
            bad = 0
            for row in a:
                cell = self.frame.full
                for label, one in zip(labels, row):
                    cell &= label if one else ~label
                bad |= cell
            mask = self._above_none_of(bad)
        else:
            saved = env[a]
            label = self._label
            if kind == FORALL:
                bad = 0
                for e, present in self.frame.elements:
                    env[a] = e
                    bad |= present & ~label(b, env)
                mask = self._above_none_of(bad)
            else:
                mask = 0
                for e, present in self.frame.elements:
                    env[a] = e
                    mask |= present & label(b, env)
            env[a] = saved
        memo[memo_key] = mask
        return mask


def eval_formula(
    model: KripkeModel,
    signature: Signature,
    world: str,
    assignment: dict[str, str],
    formula: Formula,
) -> int:
    return Evaluator(model, signature).value(world, assignment, formula)


def find_refutation(
    model: KripkeModel, signature: Signature, sequent: Sequent
) -> Optional[tuple[str, dict[str, str]]]:
    """The first point of `refuting_points`, or None when the model
    validates the sequent."""
    return next(refuting_points(model, signature, sequent), None)


def refuting_points(
    model: KripkeModel, signature: Signature, sequent: Sequent
) -> Iterator[tuple[str, dict[str, str]]]:
    """Each point (world, assignment) where the sequent gets value 0, by
    direct recursion on the four Kripke clauses.

    Worlds come in declaration order, and each world's assignments with the
    variables in sorted order and elements in the order of its domain, the
    last variable varying fastest. It shares no code with `Evaluator`, and on
    a one-world model it is classical evaluation. A value is memoized by
    (subformula, world, elements at its free variables), so the work stays
    polynomial.
    """
    facts = model.facts
    worlds = model.worlds
    up = {w: list(itertools.compress(worlds, bits(mask))) for w, mask in zip(worlds, model.up)}
    free: dict[int, tuple[str, ...]] = {}  # by id of subformula, found in one walk
    memo: dict[tuple, bool] = {}

    def walk(f: Formula) -> set[str]:
        kind = type(f)
        if kind is Atom:
            return set(f.args)
        got = set()
        for arg in f.args if kind is Conn else (f.body,):
            got |= walk(arg)
        if kind is not Conn:
            got.discard(f.var)
        free[id(f)] = tuple(got)
        return got

    def holds(f: Formula, w: str, rho: dict[str, str]) -> bool:
        kind = type(f)
        if kind is Atom:
            return (w, f.pred, tuple(map(rho.__getitem__, f.args))) in facts
        key = (id(f), w, *map(rho.__getitem__, free[id(f)]))
        got = memo.get(key)
        if got is None:
            if kind is Conn:
                table = signature.connectives[f.conn].table
                got = True
                for v in up[w]:
                    index = 0
                    for arg in f.args:
                        index = 2 * index + holds(arg, v, rho)
                    if not table[index]:
                        got = False
                        break
            else:
                # forall holds unless the body fails above; exists fails unless it holds here
                want = got = kind is Forall
                inner = dict(rho)
                for v in up[w] if want else (w,):
                    for inner[f.var] in model.domains[v]:
                        if holds(f.body, v, inner) != want:
                            got = not want
                            break
                    if got != want:
                        break
            memo[key] = got
        return got

    variables = sorted(set().union(*map(walk, sequent.formulas())))
    for w in model.worlds:
        for combo in itertools.product(model.domains[w], repeat=len(variables)):
            rho = dict(zip(variables, combo))
            if all(holds(f, w, rho) for f in sequent.antecedent) and not any(
                holds(f, w, rho) for f in sequent.succedent
            ):
                yield w, rho


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
                for a in args:  # domain elements are nonempty words
                    if len(a.split()) != 1:
                        fail(lineno, f"fact argument {a!r} is empty or contains whitespace")
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
        up=reflexive_transitive_closure(worlds, pairs),
        domains={w: tuple(domains.get(w, ())) for w in worlds},
        facts=frozenset(facts),
    )
    require_valid_model(model)
    try:
        signature = Signature(predicates, connectives)
    except InvalidSignatureError as exc:
        raise InvalidModelError(str(exc)) from None
    return model, signature


def model_header(
    worlds: tuple[str, ...], up: Sequence[int], domains: dict, signature: Optional[Signature] = None
) -> list[str]:
    """The lines of a model file before its facts: the signature, the
    worlds, the strict order pairs in world order, read from the up-set
    masks, and each world's domain."""
    lines = [] if signature is None else signature_to_text(signature).splitlines()
    lines.append("worlds: " + " ".join(worlds))
    for i, (a, mask) in enumerate(zip(worlds, up)):
        prefix = f"order: {a} "
        lines.extend(prefix + b for b in itertools.compress(worlds, bits(mask & ~(1 << i))))
    for w in worlds:
        lines.append(f"domain {w}: " + " ".join(domains[w]))
    return lines


def model_to_text(model: KripkeModel, signature: Optional[Signature] = None) -> str:
    """The model file of a valid model. Facts come by world, then by
    predicate, then by argument names compared as strings."""
    lines = model_header(model.worlds, model.up, model.domains, signature)
    index = {w: i for i, w in enumerate(model.worlds)}
    for w, pred, args in sorted(model.facts, key=lambda f: (index[f[0]], f[1], f[2])):
        lines.append(f"fact {w}: {pred}({', '.join(args)})" if args else f"fact {w}: {pred}")
    return "\n".join(lines) + "\n"


def load_model(path: str) -> tuple[KripkeModel, Signature]:
    with open(path, encoding="utf-8") as handle:
        return parse_model_text(handle.read())
