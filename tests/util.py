"""Seeded generators shared by the test modules."""

from __future__ import annotations

import itertools
import json
import random
from typing import NamedTuple

from kripkebench.construct import (
    BarViolation,
    EquivalenceReport,
    MainLemmaReport,
    TreeModel,
    bar_precondition_violation,
    enumerate_choice_functions,
    instance_status,
)
from kripkebench import search
from kripkebench.search import (
    Refuted,
    SearchBounds,
    ValidUpToBounds,
    _chain_orders,
    _restrict_to_sequent,
    _tree_orders,
    decode_model,
    enumerate_frames,
)
from kripkebench.semantics import (
    Evaluator,
    Frame,
    KripkeModel,
    compile_sequent,
    reflexive_transitive_closure,
    refuting_points,
    validate_model,
)
from kripkebench.syntax import (
    Atom,
    Conn,
    Exists,
    Forall,
    Sequent,
    Signature,
    free_vars,
    render_formula,
    signature_to_text,
    subformulas,
)
from kripkebench.truthfun import TruthFunction

DEFAULT_PREDICATES = {"p": 1, "q": 1, "r": 0}


def sequent_free_vars(sequent: Sequent) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for f in sequent.formulas():
        out |= free_vars(f)
    return out


def truth_function_from_bits(bits: str) -> TruthFunction:
    """A truth function from its table bit string; the arity is inferred from
    its length."""
    n = len(bits).bit_length() - 1
    if 1 << n != len(bits):
        raise ValueError(f"table length {len(bits)} is not a power of two")
    return TruthFunction(n, tuple(int(c) for c in bits))


def truth_function_to_json(tf: TruthFunction) -> str:
    """The connective file of a truth function, as `TruthFunction.from_json`
    reads it."""
    return json.dumps({"arity": tf.arity, "table": tf.table_string()})


def nary_meet_closure(f: TruthFunction, n: int) -> bool:
    """Whether the meet of any n inputs mapped to 1 is also mapped to 1.

    Brute force over all n-tuples of 1-valued inputs.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    ones = [i for i, bit in enumerate(f.table) if bit]
    full = (1 << f.arity) - 1

    def rec(depth: int, acc: int) -> bool:
        if depth == n:
            return bool(f.table[acc])
        return all(rec(depth + 1, acc & i) for i in ones)

    return rec(0, full)


def up_masks(worlds, pairs):
    """The up-set masks of the relation `pairs` on `worlds`, not closed:
    bit j of mask i is set where `(worlds[i], worlds[j])` is a pair."""
    index = {w: i for i, w in enumerate(worlds)}
    up = [0] * len(worlds)
    for a, b in pairs:
        up[index[a]] |= 1 << index[b]
    return tuple(up)


def order_pairs(worlds, up):
    """The pairs `(a, b)` of the relation with up-set masks `up`."""
    return frozenset(
        (a, b) for a, mask in zip(worlds, up) for j, b in enumerate(worlds) if mask >> j & 1
    )


def successors(model, world):
    """The worlds above `world` in the model's order, in world order."""
    return tuple(v for v in model.worlds if (world, v) in model.order)


def random_model(
    rng: random.Random,
    max_worlds: int = 4,
    max_domain: int = 2,
    predicates: dict[str, int] | None = None,
    allow_cycles: bool = False,
) -> KripkeModel:
    """A random valid model: random order, monotone domains, hereditary facts."""
    predicates = DEFAULT_PREDICATES if predicates is None else predicates
    n = rng.randint(1, max_worlds)
    worlds = tuple(f"w{i}" for i in range(n))
    pairs = [
        (f"w{i}", f"w{j}")
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    ]
    if allow_cycles and n >= 2 and rng.random() < 0.25:
        i = rng.randrange(n - 1)
        pairs.append((f"w{i + 1}", f"w{i}"))
    up = reflexive_transitive_closure(worlds, pairs)
    order = order_pairs(worlds, up)
    universe = tuple(f"a{k}" for k in range(max_domain))
    base = {
        w: {rng.choice(universe)} | {e for e in universe if rng.random() < 0.4}
        for w in worlds
    }
    domains = {}
    for w in worlds:
        below = set()
        for v in worlds:
            if (v, w) in order:
                below |= base[v]
        domains[w] = tuple(e for e in universe if e in below)
    facts: set = set()
    for pred, arity in predicates.items():
        for args in itertools.product(universe, repeat=arity):
            valid = [w for w in worlds if all(e in domains[w] for e in args)]
            chosen = {w for w in valid if rng.random() < 0.35}
            for w in chosen:
                for v in worlds:
                    if (w, v) in order:
                        facts.add((v, pred, args))
    model = KripkeModel(worlds, up, domains, frozenset(facts))
    assert not validate_model(model), "generator produced an invalid model"
    return model


def one_world_model(domain, facts, world="w0") -> KripkeModel:
    """The one-world Kripke model of a classical structure, whose facts are
    (pred, args) pairs over `domain`."""
    return KripkeModel(
        worlds=(world,),
        up=(1,),
        domains={world: tuple(domain)},
        facts=frozenset((world, pred, args) for pred, args in facts),
    )


def make_tree(
    parents: tuple[int, ...],
    domains: dict[str, tuple[str, ...]] | None = None,
    facts: frozenset = frozenset(),
) -> TreeModel:
    """Tree from a parent vector: node i+1 hangs under node parents[i].

    Default domains grow from ('a',) at the root to ('a', 'b') below it.
    """
    n = len(parents) + 1
    nodes = tuple(f"n{i}" for i in range(n))
    parent = {f"n{i + 1}": f"n{parents[i]}" for i in range(len(parents))}
    pairs = [(p, c) for c, p in parent.items()]
    up = reflexive_transitive_closure(nodes, pairs)
    if domains is None:
        domains = {
            node: ("a",) if node == "n0" else ("a", "b") for node in nodes
        }
    model = KripkeModel(nodes, up, domains, facts)
    return TreeModel(model=model, root="n0", parent=parent)


def all_tree_shapes(max_nodes: int):
    """Parent vectors of every labeled rooted tree with up to max_nodes nodes."""
    for n in range(1, max_nodes + 1):
        for parents in itertools.product(*(range(i) for i in range(1, n))):
            yield parents


def random_tree_facts(
    rng: random.Random, tree: TreeModel, predicates: dict[str, int], rate: float
) -> frozenset:
    """Facts for each predicate, each argument tuple made true at random nodes
    where it is defined and closed upward along the tree order."""
    model = tree.model
    universe = sorted({e for d in model.domains.values() for e in d})
    facts = set()
    for pred, arity in predicates.items():
        for args in itertools.product(universe, repeat=arity):
            for node in model.worlds:
                if set(args) <= set(model.domains[node]) and rng.random() < rate:
                    facts |= {(v, pred, args) for v in successors(model, node)}
    return frozenset(facts)


# --- name-based references of the paper's tree steps ---------------------------
#
# The program reads leaves, block minima and blocks from the tree's up-set
# masks. These references read the parent map and the order pairs instead,
# so they share no code with it.


def leaves_of(tree):
    """The tree's nodes without a child, in node order."""
    with_child = set(tree.parent.values())
    return tuple(n for n in tree.nodes if n not in with_child)


def upset_of(tree, node):
    """The nodes at or above `node` in the tree's order pairs."""
    return frozenset(v for v in tree.nodes if (node, v) in tree.model.order)


def is_upward_closed(tree, nodes):
    """Whether every child of a member is a member."""
    return all(child in nodes for child, p in tree.parent.items() if p in nodes)


def bars(tree, node, barrier):
    """Whether every maximal chain from the node meets the barrier set: in
    a tree, whether every leaf above the node lies above some barrier node
    above the node."""
    if node not in tree.model.domains:
        raise ValueError(f"unknown node {node!r}")
    above = upset_of(tree, node)
    met = set()
    for b in above & barrier:
        met |= upset_of(tree, b)
    return all(leaf in met for leaf in leaves_of(tree) if leaf in above)


def partition_upward_closed(tree, nodes):
    """Split an upward-closed set into its parent-child connected blocks.

    Each block is the up-set of a member whose parent lies outside the set;
    returned as (minimum, block) pairs in node order. The upset of a single
    node comes back as one block.
    """
    if not nodes <= set(tree.nodes):
        raise ValueError("input set mentions unknown nodes")
    if not is_upward_closed(tree, nodes):
        raise ValueError("input set is not upward-closed")
    return [
        (n, upset_of(tree, n))
        for n in tree.nodes
        if n in nodes and tree.parent.get(n) not in nodes
    ]


def check_choice_function(tree, function):
    """Violations of the four choice-function conditions; empty means valid."""
    violations = []
    dom = frozenset(function)
    if not dom <= set(tree.nodes):
        violations.append("domain mentions unknown nodes")
        return violations
    if not is_upward_closed(tree, dom):
        violations.append("domain is not upward-closed")
    if not bars(tree, tree.root, dom):
        violations.append("domain does not bar the root")
    for node in sorted(dom):
        if function[node] not in tree.model.domains[node]:
            violations.append(f"value {function[node]} at {node} is outside its domain")
    for node in sorted(dom):
        above = upset_of(tree, node)
        for other in sorted(dom):
            if other in above and function[node] != function[other]:
                violations.append(
                    f"values differ along a branch: {node}->{function[node]},"
                    f" {other}->{function[other]}"
                )
    return violations


def extend_choice(tree, barrier, node, pins):
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
    pinned_region = upset_of(tree, node) & barrier
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
    # neither at or below a block minimum nor in a block
    above = frozenset().union(*(block for _, block in blocks))
    incomparable = frozenset(
        u
        for u in tree.nodes
        if u not in above and not any((u, m) in tree.model.order for m in minima)
    )
    mapping = {}
    for minimum, block in blocks:
        mapping.update(dict.fromkeys(block, pins[minimum]))
    for minimum, block in partition_upward_closed(tree, incomparable):
        mapping.update(dict.fromkeys(block, tree.model.domains[minimum][0]))
    result = dict(sorted(mapping.items()))
    problems = check_choice_function(tree, result)
    if problems:
        raise AssertionError("extend_choice produced an invalid function: " + "; ".join(problems))
    return result


def is_constant_domain(model):
    """Whether all worlds share one domain (assumes a valid model)."""
    return len({frozenset(model.domains[w]) for w in model.worlds}) <= 1


def tv_leq(a, b):
    """The componentwise order on truth vectors of one length: every entry
    of a is <= the matching entry of b."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a.bits, b.bits))


# --- reference oracle --------------------------------------------------------


def reference_completion(tree, signature):
    """The constant-domain completion by one set scan per argument tuple:
    `complete_to_constant_domain` must return an equal result."""
    functions = {f"F{i}": f for i, f in enumerate(enumerate_choice_functions(tree))}
    names = tuple(functions)
    upsets = {n: upset_of(tree, n) for n in tree.nodes}
    facts = set()
    for pred, arity in signature.predicates.items():
        has_any = any(p == pred for _, p, _ in tree.model.facts)
        if not has_any:
            continue  # everything stays 0
        for combo in itertools.product(names, repeat=arity):
            domains = [frozenset(functions[name]) for name in combo]
            shared = set(tree.nodes)
            for d in domains:
                shared &= d
            bad = {
                v
                for v in shared
                if (v, pred, tuple(functions[name][v] for name in combo))
                not in tree.model.facts
            }
            for w in tree.nodes:
                if not (upsets[w] & bad):
                    facts.add((w, pred, combo))
    completed = KripkeModel(
        worlds=tree.model.worlds,
        up=tree.model.up,
        domains={w: names for w in tree.model.worlds},
        facts=frozenset(facts),
    )
    return ReferenceCompletion(functions, completed)


class ReferenceCompletion(NamedTuple):
    """What `reference_completion` gives: the choice functions by name, and
    the completed model."""

    functions: dict
    model: KripkeModel


def label_blocks(model):
    """The blocks a `ConstantDomainCompletion` stores for its completed
    model, by their definition, from any constant-domain model: for each
    predicate and head, the labels of the atoms ending in the domain's j-th
    element side by side, bit `i * k + j` at world i with k elements.
    Blocks that are 0 are left out."""
    elements = model.domains[model.worlds[0]]
    k = len(elements)
    blocks = {}
    for (pred, args), label in model.labels.items():
        if not args or not label:
            continue
        j = elements.index(args[-1])
        for i in range(len(model.worlds)):
            if label >> i & 1:
                key = (pred, args[:-1])
                blocks[key] = blocks.get(key, 0) | 1 << i * k + j
    return blocks


def label_zero_ary(model):
    """The 0-ary labels a `ConstantDomainCompletion` stores for its
    completed model, by their definition: for each 0-ary atom that holds
    somewhere, bit i where it is a fact at world i."""
    index = {w: i for i, w in enumerate(model.worlds)}
    labels = {}
    for w, pred, args in model.facts:
        if not args:
            labels[pred, ()] = labels.get((pred, ()), 0) | 1 << index[w]
    return labels


def reference_model_to_text(model, signature=None):
    """`semantics.model_to_text` by one key-function sort of every fact:
    the writer must return the same text."""
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


def reference_pointwise_condition(completion, evaluator, formula, node, lifted):
    """Whether the formula holds at every node above the given one where all
    assigned choice functions are defined, reading the assignment pointwise
    with `evaluator`, an evaluator on the tree's model."""
    tree = completion.tree
    functions = {var: completion.functions[lifted[var]] for var in free_vars(formula)}
    for v in upset_of(tree, node):
        if all(v in f for f in functions.values()):
            pointwise = {var: f[v] for var, f in functions.items()}
            if evaluator.value(v, pointwise, formula) != 1:
                return False
    return True


def reference_main_lemma(completion, signature, formula, instances=None):
    """`construct.check_main_lemma` read instance by instance: the value at
    the node on the completed model, and the pointwise condition over the
    node's up-set. The checker must return an equal report."""
    tree = completion.tree
    if instances is None:
        variables = sorted(free_vars(formula))
        instances = [
            (node, dict(zip(variables, combo)))
            for node in tree.nodes
            for combo in itertools.product(
                completion.model.domains[node], repeat=len(variables)
            )
        ]
    pointwise = Evaluator(tree.model, signature)
    violation = bar_precondition_violation(tree, pointwise, formula)
    completed = Evaluator(completion.model, signature)
    reports = []
    overall = "holds"
    for node, lifted in instances:
        value = completed.value(node, lifted, formula)
        condition = reference_pointwise_condition(completion, pointwise, formula, node, lifted)
        status = instance_status(value, condition, violation)
        if overall == "holds":
            overall = status
        reports.append(EquivalenceReport(node, lifted, status, value, condition, violation))
    return MainLemmaReport(formula, completion, overall, tuple(reports), violation)


def reference_report_json(report):
    """A main-lemma report as the JSON object that `check-main-lemma` prints
    with `json.dumps(..., indent=2)`: `construct.format_main_lemma` must
    write the same text."""
    written = {
        "formula": render_formula(report.formula),
        "node-count": len(report.completion.tree.nodes),
        "function-count": len(report.completion.functions),
        "status": report.status,
        "instances": [
            {
                "node": instance.node,
                "assignment": instance.assignment,
                "completed-value": instance.completed_value,
                "pointwise-condition": instance.pointwise_condition,
                "status": instance.status,
            }
            for instance in report.instances
        ],
    }
    violation = report.bar_violation
    if violation is not None:
        written["bar-violation"] = {
            "subformula": render_formula(violation.subformula),
            "node": violation.node,
            "assignment": dict(violation.assignment),
            "value": violation.value,
        }
    return written


def choice_functions_by_masks(tree):
    """Every choice function on the tree, by a scan of all masks over the
    internal nodes in increasing order, keeping the upward-closed domains
    that hold every leaf."""
    leaves = set(leaves_of(tree))
    internal = [n for n in tree.nodes if n not in leaves]
    for mask in range(1 << len(internal)):
        dom = frozenset(leaves | {internal[k] for k in range(len(internal)) if mask >> k & 1})
        if not is_upward_closed(tree, dom):
            continue
        blocks = partition_upward_closed(tree, dom)
        for values in itertools.product(*(tree.model.domains[m] for m, _ in blocks)):
            mapping = {}
            for (_, block), element in zip(blocks, values):
                for member in block:
                    mapping[member] = element
            yield dict(sorted(mapping.items()))


def closure_by_fixpoint(worlds, pairs):
    """`semantics.reflexive_transitive_closure` by a set fixpoint: each
    world's reach set grows by the reach sets of its members until none
    grows. The closure must return the same pairs."""
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


def validate_model_by_pairs(model):
    """The order and heredity checks of `validate_model` by scans over all
    pairs of order pairs and over all worlds, with its messages in its
    order."""
    violations = []
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
    arities = {}
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
    for w, pred, args in sorted(model.facts):
        if w not in world_set:
            continue
        for v in worlds:
            if (w, v) in model.order and (v, pred, args) not in model.facts:
                violations.append(
                    f"heredity violated: {pred}{args} is 1 at {w} but 0 at {v} >= {w}"
                )
    return violations


def poset_orders_by_masks(n):
    """Every poset on 0..n-1 whose indexing extends it, by a scan of all
    masks over the index-increasing pairs, in increasing mask order."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        strict = {pairs[k] for k in range(len(pairs)) if (mask >> k) & 1}
        if all(
            (a, d) in strict
            for (a, b) in strict
            for (c, d) in strict
            if b == c
        ):
            yield frozenset(strict) | frozenset((i, i) for i in range(n))


def preorder_orders_by_masks(n):
    """Every preorder on 0..n-1, by a scan of all masks over the pairs
    (i, j), i != j, in increasing mask order."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(pairs)):
        strict = {pairs[k] for k in range(len(pairs)) if (mask >> k) & 1}
        if all(
            (a, d) in strict or a == d
            for (a, b) in strict
            for (c, d) in strict
            if b == c
        ):
            yield frozenset(strict) | frozenset((i, i) for i in range(n))


def upward_closed_subsets_by_masks(candidates, order):
    """The subsets of `candidates` closed upward under `order` within them,
    by a scan of all masks over candidate positions, in increasing mask
    order."""
    out = []
    for mask in range(1 << len(candidates)):
        chosen = {candidates[k] for k in range(len(candidates)) if (mask >> k) & 1}
        if all((w, v) not in order or v in chosen for w in chosen for v in candidates):
            out.append(frozenset(chosen))
    return out


REFERENCE_ORDERS = {
    "chain": lambda n: (order_pairs(range(n), up) for up in _chain_orders(n)),
    "tree": lambda n: (order_pairs(range(n), up) for up in _tree_orders(n)),
    "poset": poset_orders_by_masks,
    "any-preorder": preorder_orders_by_masks,
}


def _nonempty_subsets(universe):
    """The nonempty subsets of the universe as tuples, in increasing mask
    order over its positions."""
    out = []
    for mask in range(1, 1 << len(universe)):
        out.append(tuple(e for k, e in enumerate(universe) if (mask >> k) & 1))
    return out


def reference_enumerate_models(signature, bounds, constant_domain=False):
    """The unreduced model stream: every order of the shape, rooted or not,
    every domain assignment (one domain at every world when
    `constant_domain`), and every model's fact slots built anew.
    `enumerate_models` must be its subsequence of the models that
    `is_canonical` accepts, model by model."""
    universe = tuple(f"a{k}" for k in range(bounds.max_domain))
    subsets = _nonempty_subsets(universe)
    for n in range(1, bounds.max_worlds + 1):
        worlds = tuple(f"w{i}" for i in range(n))
        for index_order in REFERENCE_ORDERS[bounds.shape](n):
            up = up_masks(range(n), index_order)
            if constant_domain:
                domain_choices = ((d,) * n for d in subsets)
            else:
                domain_choices = (
                    combo
                    for combo in itertools.product(subsets, repeat=n)
                    if all(
                        set(combo[a]) <= set(combo[b])
                        for (a, b) in index_order
                        if a != b
                    )
                )
            for combo in domain_choices:
                domains = {worlds[i]: combo[i] for i in range(n)}
                slots = []
                for pred, arity in signature.predicates.items():
                    for args in itertools.product(universe, repeat=arity):
                        valid = tuple(
                            i for i in range(n) if all(e in set(combo[i]) for e in args)
                        )
                        if not valid:
                            continue
                        slots.append(
                            (pred, args, upward_closed_subsets_by_masks(valid, index_order))
                        )
                for choice in itertools.product(*(options for _, _, options in slots)):
                    facts = frozenset(
                        (worlds[i], pred, args)
                        for (pred, args, _), chosen in zip(slots, choice)
                        for i in chosen
                    )
                    yield KripkeModel(worlds=worlds, up=up, domains=domains, facts=facts)


def is_canonical(model, shape):
    """Whether the reduced search keeps `model`: the domain of w0 is a prefix
    a0..a{k-1}, and w0 lies below every world unless the shape is
    `any-preorder`."""
    root = model.worlds[0]
    domain = model.domains[root]
    return domain == tuple(f"a{k}" for k in range(len(domain))) and (
        shape == "any-preorder" or all((root, w) in model.order for w in model.worlds)
    )


def naive_evaluator(model, sig):
    """`naive_value` on one model, as a function of (world, assignment,
    formula): each world's successors and the fact set are built once per
    model, and each value is the direct recursion on the four clauses, with
    no memo and no sharing.

    Kept independent of the program's evaluator on purpose.
    """
    facts = model.facts
    above = {w: successors(model, w) for w in model.worlds}

    def value(world, assignment, formula):
        if isinstance(formula, Atom):
            args = tuple(assignment[x] for x in formula.args)
            return 1 if (world, formula.pred, args) in facts else 0
        if isinstance(formula, Conn):
            tf = sig.connectives[formula.conn]
            for v in above[world]:
                index = 0
                for arg in formula.args:
                    index = 2 * index + value(v, assignment, arg)
                if tf.table[index] == 0:
                    return 0
            return 1
        if isinstance(formula, Forall):
            for v in above[world]:
                for a in model.domains[v]:
                    if value(v, {**assignment, formula.var: a}, formula.body) == 0:
                        return 0
            return 1
        if isinstance(formula, Exists):
            for a in model.domains[world]:
                if value(world, {**assignment, formula.var: a}, formula.body) == 1:
                    return 1
            return 0
        raise TypeError

    return value


def naive_value(model, sig, world, assignment, formula):
    """Direct recursion on the four clauses: no memo, no sharing."""
    return naive_evaluator(model, sig)(world, assignment, formula)


def shifted_above_none_of(evaluator, bad):
    """A planted labelling fault for `Evaluator._above_none_of`: each
    world's block is shifted one world too far, the one it keeps in place
    too."""
    frame = evaluator.frame
    hit = bad << frame.width
    for offset, below in frame.below:
        block = bad >> offset & frame.ones
        if block:
            for shift, models in below:
                hit |= (block & models) << (shift + frame.width)
    return frame.full ^ hit & frame.full


def naive_bar_violation(tree, sig, formula):
    """`construct.bar_precondition_violation` by its definition: at each
    instance, value 1 iff the value-1 part of the node's up-set, computed by
    `naive_value`, bars the node."""
    model = tree.model
    naive = naive_evaluator(model, sig)
    for sub in subformulas(formula):
        variables = sorted(free_vars(sub))
        for node in tree.nodes:
            for combo in itertools.product(model.domains[node], repeat=len(variables)):
                rho = dict(zip(variables, combo))
                value = naive(node, rho, sub)
                one_set = frozenset(v for v in upset_of(tree, node) if naive(v, rho, sub) == 1)
                if (value == 1) != bars(tree, node, one_set):
                    return BarViolation(sub, node, tuple(sorted(rho.items())), value)
    return None


def sharing_evaluator(formulas, model) -> Evaluator:
    """A width-1 evaluator of the model over shared compiled formulas."""
    frame = Frame(model.worlds, model.up, model.domains)
    return Evaluator.of_frame(formulas, frame, model.labels)


def reference_frame_fields(worlds, order, domains, width=1) -> dict:
    """`Frame`'s `offset`, `below`, `named`, `present` and `elements` by the
    general loop over every order pair, every world and every element of its
    domain; the offsets strictly below a world come in world order, each
    with the mask of all `width` models, and a world with none below it is
    left out."""
    ones = (1 << width) - 1
    offsets = [i * width for i in range(len(worlds))]
    offset = dict(zip(worlds, offsets))
    below = {w: set() for w in worlds}
    for a, b in order:
        if a != b:
            below[b].add(offset[a])
    named = tuple(zip(offsets, worlds))
    present = {}
    for o, w in named:
        for e in domains[w]:
            present[e] = present.get(e, 0) | ones << o
    return {
        "offset": offset,
        "below": tuple(
            (offset[w], tuple((o, ones) for o in sorted(below[w]))) for w in worlds if below[w]
        ),
        "named": named,
        "present": present,
        "elements": tuple(present.items()),
    }


def naive_refutation(model, sig, sequent):
    """First (world, assignment) where `naive_value` gives the sequent value 0,
    scanning worlds in declaration order, variables sorted and elements in
    declaration order."""
    variables = sorted(sequent_free_vars(sequent))
    naive = naive_evaluator(model, sig)
    for w in model.worlds:
        for combo in itertools.product(model.domains[w], repeat=len(variables)):
            rho = dict(zip(variables, combo))
            if all(naive(w, rho, f) == 1 for f in sequent.antecedent) and all(
                naive(w, rho, f) == 0 for f in sequent.succedent
            ):
                return w, rho
    return None


def naive_decide(sig, sequent, mode, bounds):
    """`decide` rebuilt on `naive_refutation`: the first model of the
    unreduced `reference_enumerate_models` stream that the naive scan
    refutes."""
    if mode == "classical":
        bounds = SearchBounds(1, bounds.max_domain, bounds.shape)
    used = {
        f.pred for g in sequent.formulas() for f in subformulas(g) if isinstance(f, Atom)
    }
    search_sig = Signature(
        {p: a for p, a in sig.predicates.items() if p in used}, dict(sig.connectives)
    )
    for model in reference_enumerate_models(search_sig, bounds, mode == "cd"):
        witness = naive_refutation(model, sig, sequent)
        if witness is not None:
            return Refuted(model, *witness)
    return ValidUpToBounds(bounds)


def per_frame_decide(sig, sequent, mode, bounds):
    """`decide` labelling each frame of `enumerate_frames` alone, chunk by
    chunk over its own `labelled` frame, in stream order: the labelling cap
    is counted and checked per frame before the frame is labelled, and the
    first countermodel is decoded and given the first point of
    `refuting_points`. It reads no frame stream kept between calls and
    builds no batch."""
    if mode == "classical":
        bounds = SearchBounds(1, bounds.max_domain, bounds.shape)
    compiled = compile_sequent(sig, sequent)
    labellings = 0
    for frame in enumerate_frames(_restrict_to_sequent(sig, compiled), bounds, mode == "cd"):
        labellings += len(frame.chunks) * len(frame.labelled.present) ** len(compiled.slots)
        if labellings > search.MAX_MODELS:
            raise ValueError(
                f"the search labels more than {search.MAX_MODELS} assignments; lower the bounds"
            )
        for chunk, atoms in enumerate(frame.chunks):
            evaluator = Evaluator.of_frame(compiled.formulas, frame.labelled, atoms)
            hits = evaluator.refuted_models(compiled)
            if hits:
                model = decode_model(frame, chunk * frame.inner + (hits & -hits).bit_length() - 1)
                assert not validate_model(model)
                return Refuted(model, *next(refuting_points(model, sig, sequent)))
    return ValidUpToBounds(bounds)
