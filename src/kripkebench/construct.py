"""Tree unravelings, bar checks, choice functions, and the constant-domain
completion of a finite tree model.

The completion replaces the individual domain with partial choice functions
on tree nodes (upward-closed, root-barring domains, constant along branches)
and reinterprets predicates pointwise wherever all argument functions are
defined. On finite trees the completion is exact as a construction; the
bar-determinacy property that the infinite construction enjoys must be
checked explicitly, which is what the main-lemma checker does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .semantics import Evaluator, InvalidModelError, KripkeModel, require_valid_model
from .syntax import Formula, Sequent, Signature, free_vars, render_formula, subformulas


@dataclass(frozen=True)
class TreeModel:
    """A Kripke model whose order is a rooted tree partial order.

    `parent` is the covering relation (child -> parent); `last` maps nodes of
    an unraveled tree back to the source world they evaluate like;
    `truncated` marks bounded stuttered unravelings, whose value- and
    bar-preservation guarantees hold only in the limit.
    """

    model: KripkeModel
    root: str
    parent: dict[str, str]
    last: Optional[dict[str, str]] = None
    truncated: bool = False

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.model.worlds

    def children(self, node: str) -> tuple[str, ...]:
        return tuple(c for c in self.nodes if self.parent.get(c) == node)

    def leaves(self) -> tuple[str, ...]:
        withchild = set(self.parent.values())
        return tuple(n for n in self.nodes if n not in withchild)

    def upset(self, node: str) -> frozenset[str]:
        return frozenset(v for v in self.nodes if (node, v) in self.model.order)


def tree_from_model(model: KripkeModel, last: Optional[dict[str, str]] = None) -> TreeModel:
    """View a validated model as a tree, or raise InvalidModelError.

    Requires an antisymmetric order with a unique minimum in which every
    non-root world has exactly one covering predecessor.
    """
    require_valid_model(model)
    for a, b in sorted(model.order):
        if a != b and (b, a) in model.order:
            raise InvalidModelError(f"order has a cycle through {a} and {b}")
    minima = [
        w
        for w in model.worlds
        if all(v == w or (v, w) not in model.order for v in model.worlds)
    ]
    if len(minima) != 1:
        raise InvalidModelError(f"tree needs a unique root, found minima {minima}")
    root = minima[0]
    covers = _covering_relation(model)
    parent: dict[str, str] = {}
    for w in model.worlds:
        if w == root:
            continue
        predecessors = [v for v in model.worlds if w in covers[v]]
        if len(predecessors) != 1:
            raise InvalidModelError(f"world {w} has {len(predecessors)} covering predecessors")
        parent[w] = predecessors[0]
    # the declared order must be exactly the ancestor relation of the tree
    ancestry = set()
    for w in model.worlds:
        node = w
        while True:
            ancestry.add((node, w))
            if node == root:
                break
            node = parent[node]
    if ancestry != set(model.order):
        raise InvalidModelError("order is not generated by the parent relation")
    return TreeModel(model=model, root=root, parent=parent, last=last)


# --- unraveling --------------------------------------------------------------


def _covering_relation(model: KripkeModel) -> dict[str, tuple[str, ...]]:
    """Each world's immediate successors: the worlds strictly above it with
    none strictly between."""
    covers: dict[str, list[str]] = {w: [] for w in model.worlds}
    for w in model.worlds:
        for v in model.worlds:
            if v == w or (w, v) not in model.order:
                continue
            if any(
                u != w and u != v and (w, u) in model.order and (u, v) in model.order
                for u in model.worlds
            ):
                continue
            covers[w].append(v)
    return {w: tuple(vs) for w, vs in covers.items()}


def _assemble_tree(
    model: KripkeModel, chains: list[tuple[str, ...]], truncated: bool
) -> TreeModel:
    node_name = {chain: "/".join(chain) for chain in chains}
    if len(set(node_name.values())) != len(chains):
        # world names containing '/' can only come from re-unraveling output
        raise ValueError(
            "world names containing '/' collide under chain naming;"
            " rename the worlds before unraveling"
        )
    worlds = tuple(node_name[c] for c in chains)
    parent = {node_name[c]: node_name[c[:-1]] for c in chains if len(c) > 1}
    order = set()
    for c in chains:
        for k in range(1, len(c) + 1):
            order.add((node_name[c[:k]], node_name[c]))
    last = {node_name[c]: c[-1] for c in chains}
    domains = {node_name[c]: model.domains[c[-1]] for c in chains}
    facts = frozenset(
        (node, pred, args)
        for node, source in last.items()
        for w, pred, args in model.facts
        if w == source
    )
    tree_model = KripkeModel(
        worlds=worlds, order=frozenset(order), domains=domains, facts=facts
    )
    return TreeModel(
        model=tree_model,
        root=node_name[chains[0]],
        parent=parent,
        last=last,
        truncated=truncated,
    )


def unravel_strict(model: KripkeModel, start: str) -> TreeModel:
    """Unravel a finite partial order into the tree of covering paths from start.

    Every node evaluates exactly like its last world in the source model (the
    successor cones of a node and of its last world project onto the same
    upset). Preorders with genuine cycles are rejected; use unravel_stuttered
    for those.
    """
    require_valid_model(model)
    if start not in model.domains:
        raise ValueError(f"unknown start world {start!r}")
    for a, b in sorted(model.order):
        if a != b and (b, a) in model.order:
            raise ValueError(
                f"order has a cycle through {a} and {b}; strict unraveling needs a"
                " partial order, use unravel_stuttered instead"
            )
    covers = _covering_relation(model)
    chains: list[tuple[str, ...]] = []
    frontier: list[tuple[str, ...]] = [(start,)]
    while frontier:
        chain = frontier.pop(0)
        chains.append(chain)
        for v in covers[chain[-1]]:
            frontier.append(chain + (v,))
    return _assemble_tree(model, chains, truncated=False)


def unravel_stuttered(model: KripkeModel, start: str, length_bound: int) -> TreeModel:
    """Unravel into the tree of non-decreasing world sequences from start,
    truncated at the given total length. The result is marked truncated:
    value and bar preservation hold only in the limit of growing bounds."""
    if length_bound < 1:
        raise ValueError("length bound must be at least 1")
    require_valid_model(model)
    if start not in model.domains:
        raise ValueError(f"unknown start world {start!r}")
    chains: list[tuple[str, ...]] = []
    frontier: list[tuple[str, ...]] = [(start,)]
    while frontier:
        chain = frontier.pop(0)
        chains.append(chain)
        if len(chain) < length_bound:
            for v in model.successors(chain[-1]):
                frontier.append(chain + (v,))
    return _assemble_tree(model, chains, truncated=True)


# --- bars, upward-closed sets, partitions ------------------------------------


def is_upward_closed(tree: TreeModel, nodes: frozenset[str]) -> bool:
    return all(child in nodes for node in nodes for child in tree.children(node))


def bars(tree: TreeModel, node: str, barrier: frozenset[str]) -> bool:
    """Whether every maximal chain from the node meets the barrier set."""
    if node not in tree.model.domains:
        raise ValueError(f"unknown node {node!r}")
    for leaf in tree.leaves():
        if (node, leaf) not in tree.model.order:
            continue
        current = leaf
        hit = False
        while True:
            if current in barrier:
                hit = True
                break
            if current == node:
                break
            current = tree.parent[current]
        if not hit:
            return False
    return True


def partition_upward_closed(
    tree: TreeModel, nodes: frozenset[str]
) -> list[tuple[str, frozenset[str]]]:
    """Split an upward-closed set into its parent-child connected blocks.

    Each block is upward-closed with a unique minimum; returned as
    (minimum, block) pairs sorted by node position. The upset of a single
    node comes back as one block.
    """
    if not nodes <= set(tree.nodes):
        raise ValueError("input set mentions unknown nodes")
    if not is_upward_closed(tree, nodes):
        raise ValueError("input set is not upward-closed")
    position = {n: i for i, n in enumerate(tree.nodes)}
    remaining = set(nodes)
    blocks: list[tuple[str, frozenset[str]]] = []
    while remaining:
        seed_node = min(remaining, key=position.__getitem__)
        block = {seed_node}
        frontier = [seed_node]
        while frontier:
            node = frontier.pop()
            neighbours = [
                c for c in tree.children(node) if c in remaining and c not in block
            ]
            p = tree.parent.get(node)
            if p is not None and p in remaining and p not in block:
                neighbours.append(p)
            block.update(neighbours)
            frontier.extend(neighbours)
        minima = [
            n for n in block if tree.parent.get(n) not in block
        ]
        if len(minima) != 1:
            raise AssertionError(f"block {sorted(block)} has minima {sorted(minima)}")
        blocks.append((minima[0], frozenset(block)))
        remaining -= block
    blocks.sort(key=lambda pair: position[pair[0]])
    return blocks


def deepest_common_ancestor(tree: TreeModel, a: str, b: str) -> str:
    """The order-infimum of two nodes: their deepest common ancestor."""
    ancestors = set()
    node = a
    while True:
        ancestors.add(node)
        if node == tree.root:
            break
        node = tree.parent[node]
    node = b
    while node not in ancestors:
        node = tree.parent[node]
    return node


# --- choice functions ---------------------------------------------------------


@dataclass(frozen=True)
class ChoiceFunction:
    """A partial map node -> element, stored as sorted (node, element) pairs."""

    entries: tuple[tuple[str, str], ...]

    @classmethod
    def from_map(cls, mapping: dict[str, str]) -> "ChoiceFunction":
        return cls(tuple(sorted(mapping.items())))

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(node for node, _ in self.entries)

    def value(self, node: str) -> str:
        for n, e in self.entries:
            if n == node:
                return e
        raise KeyError(node)

    def as_dict(self) -> dict[str, str]:
        return dict(self.entries)


def check_choice_function(tree: TreeModel, function: ChoiceFunction) -> list[str]:
    """Violations of the four choice-function conditions; empty means valid."""
    violations = []
    dom = function.domain
    mapping = function.as_dict()
    if not dom <= set(tree.nodes):
        violations.append("domain mentions unknown nodes")
        return violations
    if not is_upward_closed(tree, dom):
        violations.append("domain is not upward-closed")
    if not bars(tree, tree.root, dom):
        violations.append("domain does not bar the root")
    for node in sorted(dom):
        if mapping[node] not in tree.model.domains[node]:
            violations.append(f"value {mapping[node]} at {node} is outside its domain")
    for node in sorted(dom):
        for other in sorted(dom):
            if (node, other) in tree.model.order and mapping[node] != mapping[other]:
                violations.append(
                    f"values differ along a branch: {node}->{mapping[node]},"
                    f" {other}->{mapping[other]}"
                )
    return violations


def extend_choice(
    tree: TreeModel,
    barrier: frozenset[str],
    node: str,
    pins: dict[str, str],
) -> ChoiceFunction:
    """A choice function defined on (upset(node) ∩ barrier) plus the region
    incomparable with its block minima, taking pinned values at the block
    minima and the first declared element elsewhere.

    `barrier` must be upward-closed and bar the root; `pins` must pin exactly
    the block minima of upset(node) ∩ barrier, each within that node's domain.
    """
    if not is_upward_closed(tree, barrier):
        raise ValueError("barrier set is not upward-closed")
    if not bars(tree, tree.root, barrier):
        raise ValueError("barrier set does not bar the root")
    if node not in tree.model.domains:
        raise ValueError(f"unknown node {node!r}")
    pinned_region = tree.upset(node) & barrier
    blocks = partition_upward_closed(tree, pinned_region)
    minima = [m for m, _ in blocks]
    if set(pins) != set(minima):
        raise ValueError(
            f"pins must be keyed by the block minima {sorted(minima)},"
            f" got {sorted(pins)}"
        )
    for m in minima:
        if pins[m] not in tree.model.domains[m]:
            raise ValueError(f"pin {pins[m]!r} at {m} is outside its domain")
    incomparable = frozenset(
        u
        for u in tree.nodes
        if all(
            (u, m) not in tree.model.order and (m, u) not in tree.model.order
            for m in minima
        )
    )
    mapping: dict[str, str] = {}
    for minimum, block in blocks:
        for member in block:
            mapping[member] = pins[minimum]
    for minimum, block in partition_upward_closed(tree, incomparable):
        fallback = tree.model.domains[minimum][0]
        for member in block:
            mapping[member] = fallback
    result = ChoiceFunction.from_map(mapping)
    problems = check_choice_function(tree, result)
    if problems:
        raise AssertionError("extend_choice produced an invalid function: " + "; ".join(problems))
    return result


def enumerate_choice_functions(
    tree: TreeModel, max_count: int = 50000
) -> Iterator[ChoiceFunction]:
    """All choice functions on the tree, in a fixed construction order.

    A domain is upward-closed and bars the root exactly when it contains
    every leaf; values are constant per parent-child block and drawn from the
    block minimum's domain.
    """
    position = {n: i for i, n in enumerate(tree.nodes)}
    leaves = set(tree.leaves())
    internal = [n for n in tree.nodes if n not in leaves]
    produced = 0
    for mask in range(1 << len(internal)):
        dom = set(leaves) | {internal[k] for k in range(len(internal)) if (mask >> k) & 1}
        if not is_upward_closed(tree, frozenset(dom)):
            continue
        blocks = partition_upward_closed(tree, frozenset(dom))
        value_menus = [tree.model.domains[minimum] for minimum, _ in blocks]
        for values in itertools.product(*value_menus):
            mapping = {}
            for (minimum, block), element in zip(blocks, values):
                for member in block:
                    mapping[member] = element
            produced += 1
            if produced > max_count:
                raise ValueError(
                    f"more than {max_count} choice functions; raise max_count to proceed"
                )
            yield ChoiceFunction.from_map(mapping)


# --- constant-domain completion ----------------------------------------------


@dataclass(frozen=True)
class ConstantDomainCompletion:
    """The completed model: same tree order, one shared domain of choice
    functions named F0, F1, ... in enumeration order."""

    tree: TreeModel
    model: KripkeModel
    functions: dict[str, ChoiceFunction]

    def function_id(self, function: ChoiceFunction) -> str:
        for name, f in self.functions.items():
            if f == function:
                return name
        raise KeyError("not an element of the completed domain")


def complete_to_constant_domain(
    tree: TreeModel, signature: Signature
) -> ConstantDomainCompletion:
    """Interpret predicates over choice functions: a tuple satisfies a
    predicate at a node iff the pointwise facts hold at every reachable node
    where all the functions are defined (for 0-ary predicates: at every
    reachable node).

    Sets of functions are bitsets over their enumeration index. For each
    node, predicate and values of the first arity-1 arguments there, the
    bitset of last arguments that make a non-fact is computed once; a tuple
    holds at a world iff its last argument is in none of these bitsets over
    the world's up-set."""
    functions = {f"F{i}": f for i, f in enumerate(enumerate_choice_functions(tree))}
    names = tuple(functions)
    nodes = tree.nodes
    position = {n: i for i, n in enumerate(nodes)}
    upsets = [[position[v] for v in tree.upset(n)] for n in nodes]
    # values[i][k]: the value of function k at node i, None where undefined;
    # by_value[i][e]: the bitset of functions taking value e at node i
    values = [[None] * len(names) for _ in nodes]
    by_value: list[dict[str, int]] = [{} for _ in nodes]
    for k, function in enumerate(functions.values()):
        for node, element in function.entries:
            i = position[node]
            values[i][k] = element
            by_value[i][element] = by_value[i].get(element, 0) | 1 << k
    everyone = (1 << len(names)) - 1
    true_at: dict[str, set[tuple[int, tuple[str, ...]]]] = {}
    for w, pred, args in tree.model.facts:
        true_at.setdefault(pred, set()).add((position[w], args))
    facts = []
    for pred, arity in signature.predicates.items():
        true = true_at.get(pred)
        if true is None:
            continue  # everything stays 0
        if arity == 0:
            bad = {i for i in range(len(nodes)) if (i, ()) not in true}
            facts.extend((w, pred, ()) for w, up in zip(nodes, upsets) if bad.isdisjoint(up))
            continue
        bad_last: dict[tuple[int, tuple[str, ...]], int] = {}
        for head in itertools.product(range(len(names)), repeat=arity - 1):
            bad_at = []  # per node: the bitset of last arguments that make a non-fact
            for i, row in enumerate(values):
                prefix = tuple(row[k] for k in head)
                if None in prefix:
                    bad_at.append(0)  # a head function is undefined at node i
                    continue
                key = (i, prefix)
                if key not in bad_last:
                    bad_last[key] = 0
                    for element, bits in by_value[i].items():
                        if (i, prefix + (element,)) not in true:
                            bad_last[key] |= bits
                bad_at.append(bad_last[key])
            head_names = tuple(names[k] for k in head)
            # one argument tuple per last argument, shared by every world
            combos = [head_names + (name,) for name in names]
            for w, up in zip(nodes, upsets):
                excluded = 0
                for i in up:
                    excluded |= bad_at[i]
                good = everyone & ~excluded
                facts.extend(
                    (w, pred, combo) for combo in itertools.compress(combos, _bits(good))
                )
    completed = KripkeModel(
        worlds=tree.model.worlds,
        order=tree.model.order,
        domains={w: names for w in tree.model.worlds},
        facts=frozenset(facts),
    )
    return ConstantDomainCompletion(tree=tree, model=completed, functions=functions)


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> bytes:
    """Bit k of the mask as byte k, 0 or 1."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def lift_assignment(
    completion: ConstantDomainCompletion, assignment: dict[str, str]
) -> dict[str, str]:
    """Send each variable to the total choice function constantly equal to
    its value (which must lie in the root's domain)."""
    tree = completion.tree
    lifted = {}
    for var, element in sorted(assignment.items()):
        if element not in tree.model.domains[tree.root]:
            raise ValueError(f"{element!r} is not in the root domain")
        constant = ChoiceFunction.from_map({n: element for n in tree.nodes})
        lifted[var] = completion.function_id(constant)
    return lifted


# --- main-lemma instance checking ----------------------------------------------


@dataclass(frozen=True)
class BarViolation:
    subformula: Formula
    node: str
    assignment: tuple[tuple[str, str], ...]
    value: int


@dataclass(frozen=True, slots=True)  # a whole-tree check keeps one per instance
class EquivalenceReport:
    """Outcome of one main-lemma instance: a node and an assignment of
    choice-function names to the formula's free variables.

    status is 'holds' when truth in the completed model at the node matches
    the pointwise condition over reachable nodes where the assignment is
    defined, 'fails' when they differ, and 'precondition-failed' when some
    subformula is not bar-determined on this tree, which voids the
    equivalence regardless of the two values.
    """

    node: str
    assignment: dict[str, str]
    status: str
    completed_value: int
    pointwise_condition: bool
    bar_violation: Optional[BarViolation] = None


@dataclass(frozen=True)
class MainLemmaReport:
    """Outcome of the main lemma for one formula at a list of instances.

    status is 'holds' when every instance holds, else the status of the
    first instance that does not.
    """

    formula: Formula
    completion: ConstantDomainCompletion
    status: str
    instances: tuple[EquivalenceReport, ...]
    bar_violation: Optional[BarViolation]

    def as_json(self) -> dict:
        """The report as the `check-main-lemma` command prints it."""
        report = {
            "formula": render_formula(self.formula),
            "node-count": len(self.completion.tree.nodes),
            "function-count": len(self.completion.functions),
            "status": self.status,
            "instances": [
                {
                    "node": instance.node,
                    "assignment": instance.assignment,
                    "completed-value": instance.completed_value,
                    "pointwise-condition": instance.pointwise_condition,
                    "status": instance.status,
                }
                for instance in self.instances
            ],
        }
        violation = self.bar_violation
        if violation is not None:
            report["bar-violation"] = {
                "subformula": render_formula(violation.subformula),
                "node": violation.node,
                "assignment": dict(violation.assignment),
                "value": violation.value,
            }
        return report


def instance_status(
    completed_value: int, condition: bool, violation: Optional[BarViolation]
) -> str:
    """The status of a main-lemma instance, as EquivalenceReport defines it."""
    if violation is not None:
        return "precondition-failed"
    if (completed_value == 1) == condition:
        return "holds"
    return "fails"


def bar_precondition_violation(
    tree: TreeModel, signature: Signature, formula: Formula
) -> Optional[BarViolation]:
    """First subformula instance whose value is not bar-determined: value 1 at
    a node iff its value-1 successor set bars the node."""
    evaluator = Evaluator(tree.model, signature)
    for sub in subformulas(formula):
        variables = sorted(free_vars(sub))
        for node in tree.nodes:
            for combo in itertools.product(tree.model.domains[node], repeat=len(variables)):
                assignment = dict(zip(variables, combo))
                value = evaluator.value(node, assignment, sub)
                one_set = frozenset(
                    v
                    for v in tree.upset(node)
                    if evaluator.value(v, assignment, sub) == 1
                )
                if (value == 1) != bars(tree, node, one_set):
                    return BarViolation(sub, node, tuple(sorted(assignment.items())), value)
    return None


def pointwise_condition(
    completion: ConstantDomainCompletion,
    signature: Signature,
    formula: Formula,
    node: str,
    lifted: dict[str, str],
    evaluator: Optional[Evaluator] = None,
) -> bool:
    """Whether the formula holds at every node above the given one where all
    assigned choice functions are defined, reading the assignment pointwise.

    `evaluator`, an evaluator on the tree's model, lets many calls share
    compiled formulas and labels."""
    tree = completion.tree
    shared = set(tree.nodes)
    for var in free_vars(formula):
        shared &= completion.functions[lifted[var]].domain
    if evaluator is None:
        evaluator = Evaluator(tree.model, signature)
    for v in tree.nodes:
        if (node, v) not in tree.model.order or v not in shared:
            continue
        pointwise = {
            var: completion.functions[lifted[var]].value(v) for var in free_vars(formula)
        }
        if evaluator.value(v, pointwise, formula) != 1:
            return False
    return True


def check_main_lemma(
    completion: ConstantDomainCompletion,
    signature: Signature,
    formula: Formula,
    instances: Optional[Iterable[tuple[str, dict[str, str]]]] = None,
) -> MainLemmaReport:
    """Evaluate both sides of the completion equivalence literally at each
    (node, assignment of choice-function names) instance and report.

    By default the instances are every node with every assignment of the
    formula's free variables, in node order and then in product order of the
    completed domain. The tree is checked for bar-determinacy once, and one
    evaluator per model serves every instance.
    """
    tree = completion.tree
    violation = bar_precondition_violation(tree, signature, formula)
    if instances is None:
        variables = sorted(free_vars(formula))
        instances = (
            (node, dict(zip(variables, combo)))
            for node in tree.nodes
            for combo in itertools.product(
                completion.model.domains[node], repeat=len(variables)
            )
        )
    completed = Evaluator(completion.model, signature)
    pointwise = Evaluator(tree.model, signature)
    reports = []
    overall = "holds"
    for node, lifted in instances:
        value = completed.value(node, lifted, formula)
        condition = pointwise_condition(
            completion, signature, formula, node, lifted, pointwise
        )
        status = instance_status(value, condition, violation)
        if overall == "holds":
            overall = status
        reports.append(EquivalenceReport(node, lifted, status, value, condition, violation))
    return MainLemmaReport(formula, completion, overall, tuple(reports), violation)


def check_main_lemma_instance(
    tree: TreeModel,
    signature: Signature,
    formula: Formula,
    node: str,
    lifted: dict[str, str],
    completion: Optional[ConstantDomainCompletion] = None,
) -> EquivalenceReport:
    """The main-lemma check at one instance."""
    if completion is None:
        completion = complete_to_constant_domain(tree, signature)
    return check_main_lemma(completion, signature, formula, [(node, lifted)]).instances[0]


# --- end-to-end pipeline --------------------------------------------------------


@dataclass(frozen=True)
class PipelineReport:
    """Outcome of refutation-preserving completion of a poset countermodel."""

    status: str  # "refuted" | "inconclusive"
    tree: TreeModel
    completion: ConstantDomainCompletion
    lifted: dict[str, str]
    equivalence: dict[str, str]  # rendered formula -> instance status
    completed_sequent_value: Optional[int]


def constant_domain_pipeline(
    model: KripkeModel,
    signature: Signature,
    sequent: Sequent,
    world: str,
    assignment: dict[str, str],
) -> PipelineReport:
    """Unravel a refuted poset model, complete it, and re-check the refutation.

    The refutation point survives unraveling exactly (checked); the completed
    model's refutation is asserted only when every formula of the sequent
    passes the main-lemma instance check, otherwise the outcome is
    inconclusive rather than guessed.
    """
    evaluator = Evaluator(model, signature)
    if evaluator.sequent_value(world, assignment, sequent) != 0:
        raise ValueError("the given point does not refute the sequent")
    tree = unravel_strict(model, world)
    tree_eval = Evaluator(tree.model, signature)
    if tree_eval.sequent_value(tree.root, assignment, sequent) != 0:
        raise AssertionError("unraveling failed to preserve the refutation point")
    completion = complete_to_constant_domain(tree, signature)
    lifted = lift_assignment(
        completion, {x: assignment[x] for x in sorted(assignment)}
    )
    statuses = {}
    all_hold = True
    for formula in sequent.formulas():
        relevant = {x: lifted[x] for x in free_vars(formula)}
        report = check_main_lemma(completion, signature, formula, [(tree.root, relevant)])
        statuses[render_formula(formula)] = report.status
        all_hold = all_hold and report.status == "holds"
    if not all_hold:
        return PipelineReport("inconclusive", tree, completion, lifted, statuses, None)
    value = Evaluator(completion.model, signature).sequent_value(
        tree.root, lifted, sequent
    )
    if value != 0:
        raise AssertionError(
            "all instances hold but the completed model does not refute"
        )
    return PipelineReport("refuted", tree, completion, lifted, statuses, value)
