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

import functools
import itertools
import json
from functools import cached_property
from operator import gt, itemgetter, or_
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .semantics import CompiledFormulas, Evaluator, Frame, InvalidModelError, KripkeModel
from .semantics import Labels, bits, model_header, upward_closed_subsets
from .syntax import Formula, Sequent, Signature, free_vars, render_formula, subformulas
from .truthfun import Frozen

# the most nodes or order pairs an unraveled tree, choice functions an
# enumeration, or instances a main-lemma check may have
MAX_COUNT = 50_000
# the most (node, argument tuple) pairs a completion may scan: nodes times
# functions to the arity, summed over the predicates that have facts
MAX_COMPLETION_PAIRS = 1_000_000
# the most characters of node names an unraveled tree's order pairs may
# take, the pair (a, b) taking len(a) + len(b). Names are '/'-joined chains,
# so on one world they grow with the length bound, and the order written out
# as names with its cube.
MAX_NAME_CHARS = 2_000_000


class TreeModel(Frozen):
    """A Kripke model whose order is a rooted tree partial order.

    `parent` is the covering relation (child -> parent); `last` maps nodes of
    an unraveled tree back to the source world they evaluate like;
    `truncated` marks bounded stuttered unravelings, whose value- and
    bar-preservation guarantees hold only in the limit.
    """

    __slots__ = ("model", "root", "parent", "last", "truncated")

    def __init__(
        self,
        model: KripkeModel,
        root: str,
        parent: dict[str, str],
        last: Optional[dict[str, str]] = None,
        truncated: bool = False,
    ):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "last", last)
        object.__setattr__(self, "truncated", truncated)

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.model.worlds


def tree_from_model(model: KripkeModel) -> TreeModel:
    """View a validated model as a tree, or raise InvalidModelError.

    Requires an antisymmetric order with a unique minimum in which every
    non-root world has exactly one covering predecessor. Then the order is
    the parent relation's ancestry: in a finite poset every v < w is a chain
    of covers, and each cover is a parent step. The model must already
    pass `validate_model`, as a loaded model does; it is not checked again.
    """
    cycle = _least_cycle(model.worlds, model.up)
    if cycle:
        a, b = cycle
        raise InvalidModelError(f"order has a cycle through {a} and {b}")
    above_some = functools.reduce(or_, (mask & ~(1 << i) for i, mask in enumerate(model.up)), 0)
    minima = [w for i, w in enumerate(model.worlds) if not above_some >> i & 1]
    if len(minima) != 1:
        raise InvalidModelError(f"tree needs a unique root, found minima {minima}")
    root = minima[0]
    covered_by: dict[str, list[str]] = {w: [] for w in model.worlds}
    for v, covers in _covering_relation(model.worlds, model.up).items():
        for w in covers:
            covered_by[w].append(v)
    for w in model.worlds:
        if w != root and len(covered_by[w]) != 1:
            raise InvalidModelError(f"world {w} has {len(covered_by[w])} covering predecessors")
    parent = {w: covered_by[w][0] for w in model.worlds if w != root}
    return TreeModel(model=model, root=root, parent=parent)


# --- unraveling --------------------------------------------------------------


def _covering_relation(worlds: tuple[str, ...], up: Sequence[int]) -> dict[str, tuple[str, ...]]:
    """Each world's immediate successors, in world order: the worlds strictly
    above it with none strictly between. On its up-set masks, that is its
    strict up-set less the strict up-sets of the worlds in it."""
    above = [mask & ~(1 << i) for i, mask in enumerate(up)]
    covers = {}
    for w, mask in zip(worlds, above):
        between = 0
        for upper in itertools.compress(above, bits(mask)):
            between |= upper
        covers[w] = tuple(itertools.compress(worlds, bits(mask & ~between)))
    return covers


def _least_cycle(worlds: tuple[str, ...], up: Sequence[int]) -> Optional[tuple[str, str]]:
    """The least pair `(a, b)` by name of distinct worlds each above the
    other in a preorder, from its up-set masks, or None. Two worlds are above
    each other exactly when their up-sets are equal, since each lies in its
    own, so the worlds are grouped by up-set and no order pair is sorted."""
    classes: dict[int, list[str]] = {}
    for w, mask in zip(worlds, up):
        classes.setdefault(mask, []).append(w)
    return min((tuple(sorted(c)[:2]) for c in classes.values() if len(c) > 1), default=None)


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
    # a node lies above the nodes on its chain; `along` sums their names
    along = {(): 0}
    name_chars = 0
    for c in chains:
        name = node_name[c]
        along[c] = along[c[:-1]] + len(name)
        name_chars += along[c] + len(c) * len(name)
    if name_chars > MAX_NAME_CHARS:
        raise ValueError(
            f"the unraveled tree's order takes more than {MAX_NAME_CHARS}"
            " characters of node names"
        )
    last = {node_name[c]: c[-1] for c in chains}
    domains = {node_name[c]: model.domains[c[-1]] for c in chains}
    # copies[i]: the mask of the nodes whose last world is the source's world i
    position = {w: i for i, w in enumerate(model.worlds)}
    copies = [0] * len(model.worlds)
    for k, c in enumerate(chains):
        copies[position[c[-1]]] |= 1 << k
    labels = {}
    for atom, mask in model.labels.items():
        label = 0
        for nodes in itertools.compress(copies, bits(mask)):
            label |= nodes
        if label:
            labels[atom] = label
    # children come after their parents, and join them once whole
    index = {c: k for k, c in enumerate(chains)}
    up = [1 << k for k in range(len(chains))]
    for k in range(len(chains) - 1, 0, -1):
        up[index[chains[k][:-1]]] |= up[k]
    tree_model = KripkeModel(worlds, up, domains, labels=labels)
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
    for those. A ladder of diamonds doubles the paths per rung, so more than
    MAX_COUNT nodes, or order pairs, raise ValueError, as do order pairs
    taking more than MAX_NAME_CHARS characters of node names. The model
    must already pass `validate_model`, as a loaded model does; it is not
    checked again."""
    if start not in model.domains:
        raise ValueError(f"unknown start world {start!r}")
    cycle = _least_cycle(model.worlds, model.up)
    if cycle:
        a, b = cycle
        raise ValueError(
            f"order has a cycle through {a} and {b}; strict unraveling needs a"
            " partial order, use unravel_stuttered instead"
        )
    covers = _covering_relation(model.worlds, model.up)
    chains = [(start,)]
    for chain in chains:  # breadth-first: the list grows while it is read
        chains.extend(chain + (v,) for v in covers[chain[-1]])
        if len(chains) > MAX_COUNT:
            raise ValueError(f"the unraveled tree has more than {MAX_COUNT} nodes")
    # a covering path visits each world at most once, so the chains above
    # hold at most MAX_COUNT times the source's worlds
    if sum(map(len, chains)) > MAX_COUNT:
        raise ValueError(f"the unraveled tree's order has more than {MAX_COUNT} pairs")
    return _assemble_tree(model, chains, truncated=False)


def unravel_stuttered(model: KripkeModel, start: str, length_bound: int) -> TreeModel:
    """Unravel into the tree of non-decreasing world sequences from start,
    truncated at the given total length. The result is marked truncated:
    value and bar preservation hold only in the limit of growing bounds.
    On a cycle the tree grows exponentially with the length bound, and even
    on one world its order grows as the square of it: a node's chain lists
    its pairs with the nodes below it. So more than MAX_COUNT order pairs,
    which is at least the node count, raise ValueError, and so does an
    order whose pairs take more than MAX_NAME_CHARS characters of node
    names, which grow with the chains. The model must be valid, as for
    `unravel_strict`."""
    if length_bound < 1:
        raise ValueError("length bound must be at least 1")
    if start not in model.domains:
        raise ValueError(f"unknown start world {start!r}")
    up = dict(zip(model.worlds, model.up))
    chains = [(start,)]
    pairs = 1
    for chain in chains:  # breadth-first: the list grows while it is read
        if len(chain) < length_bound:
            successors = tuple(itertools.compress(model.worlds, bits(up[chain[-1]])))
            chains.extend(chain + (v,) for v in successors)
            pairs += (len(chain) + 1) * len(successors)
        if pairs > MAX_COUNT:
            raise ValueError(
                f"the unraveled tree has more than {MAX_COUNT} nodes or order pairs;"
                " lower the length bound"
            )
    return _assemble_tree(model, chains, truncated=True)


# --- choice functions ---------------------------------------------------------
#
# A choice function is a partial map node -> element: a dict whose keys come
# in sorted node order.


def enumerate_choice_functions(tree: TreeModel) -> Iterator[dict[str, str]]:
    """All choice functions on the tree, in a fixed construction order.

    A domain is upward-closed and bars the root exactly when it contains
    every leaf, a node whose up-set is itself: it is the leaves and an
    upward-closed set of internal nodes, in increasing mask order over them.
    Its blocks are the up-sets of its minima, the members whose parent lies
    outside it, in node order. Values are constant per block and drawn from
    the block minimum's (nonempty) domain, so each domain gives a function,
    and more than MAX_COUNT domains raise ValueError before any function is
    built.
    """
    nodes, up = tree.nodes, tree.model.up
    n = len(nodes)
    position = {node: i for i, node in enumerate(nodes)}
    # a domain is read as bytes: byte i is 1 for a member i, byte n is 0 and
    # stands for the root's parent, and byte n + 1 is 1 and only pads. These
    # read each node's parent's byte and the bytes in key order; the extra
    # index keeps a lone node's result a tuple
    parent_of = itemgetter(*[position.get(tree.parent.get(node), n) for node in nodes], n)
    by_name = sorted(range(n), key=nodes.__getitem__)
    in_key_order = itemgetter(*by_name, n)
    leaves = sum(mask for i, mask in enumerate(up) if mask == 1 << i)
    internal = tuple(i for i, mask in enumerate(up) if mask != 1 << i)
    too_many = f"more than {MAX_COUNT} choice functions"
    try:
        uppers = upward_closed_subsets(internal, up, MAX_COUNT)
    except ValueError:
        raise ValueError(too_many) from None
    block = [0] * n  # each member's block, rewritten per domain
    produced = 0
    for upper in uppers:
        member = bits(leaves | upper | 2 << n)
        # the members whose parent is not one, in node order
        minima = list(itertools.compress(range(n), map(gt, member, parent_of(member))))
        for b, minimum in enumerate(minima):
            for i in itertools.compress(range(n), bits(up[minimum])):
                block[i] = b
        members = list(itertools.compress(by_name, in_key_order(member)))
        keys = [nodes[i] for i in members]
        # each key's block value; the extra 0 keeps a lone key's result a tuple
        pick = itemgetter(*[block[i] for i in members], 0)
        for values in itertools.product(*[tree.model.domains[nodes[m]] for m in minima]):
            produced += 1
            if produced > MAX_COUNT:
                raise ValueError(too_many)
            yield dict(zip(keys, pick(values)))


# --- constant-domain completion ----------------------------------------------


# the name that a completion's `get` reads at every function at once
SLICED = object()


class ConstantDomainCompletion(Frozen):
    """The completed model: same tree order, one shared domain of choice
    functions named F0, F1, ... in enumeration order.

    Its atom labels are stored as `blocks`, which map `(pred, head)` to the
    label of `pred(head..., F_j)` for every j, bit `i * k + j` for node i
    with k functions (blocks that are 0 left out), and `zero_ary`, the
    labels of the 0-ary atoms that hold somewhere. The labelled `model` is
    built from them on first read. `check_main_lemma` reads them through
    `get`, and `completion_to_text` directly, so neither builds the model.
    `by_value[i]` maps each element to the bitset of the functions taking
    it at node i, bit j for F_j."""

    def __init__(
        self,
        tree: TreeModel,
        functions: dict[str, dict[str, str]],
        blocks: Labels,
        zero_ary: Labels,
        by_value: list[dict[str, int]],
    ):
        self.__dict__.update(
            tree=tree, functions=functions, blocks=blocks, zero_ary=zero_ary, by_value=by_value
        )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.tree, self.functions, self.blocks, self.zero_ary) == (
                other.tree, other.functions, other.blocks, other.zero_ary
            )
        return NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}(tree={self.tree!r}, functions={self.functions!r})"

    @cached_property
    def _slicing(self) -> tuple[dict[str, int], int, int]:
        """Each name's column, the ones of a block, and bit 0 of every block."""
        k = len(self.functions)
        stride = sum(1 << i * k for i in range(len(self.tree.nodes)))
        return {name: j for j, name in enumerate(self.functions)}, (1 << k) - 1, stride

    def get(self, atom: tuple[str, tuple], default: int = 0) -> int:
        """The atom's label in the completed model sliced over the functions:
        bit `i * k + j` is its value at node i when `SLICED` names F_j. An
        atom
        - that is 0-ary has its width-1 label spread to whole blocks;
        - with `SLICED` once, as its last argument, is its block;
        - without `SLICED` is the column of its `(pred, head)` block at its
          last argument's index, spread to whole blocks;
        - with `SLICED` elsewhere, or more than once, reads one such column
          per name F_j, placed at bit j of each block.
        So the completion is the atom labels of an `Evaluator.of_frame` of
        width k, which memoizes each atom it reads."""
        index, ones, _ = self._slicing
        pred, args = atom
        if not args:
            label = self.zero_ary.get(atom, default)
            return sum(ones << i * len(index) for i, bit in enumerate(bits(label)) if bit)
        count = args.count(SLICED)
        if not count:
            return self._column(pred, args) * ones
        if count == 1 and args[-1] is SLICED:
            return self.blocks.get((pred, args[:-1]), default)
        label = 0
        for name, j in index.items():
            label |= self._column(pred, tuple(name if a is SLICED else a for a in args)) << j
        return label

    def _column(self, pred: str, args: tuple) -> int:
        """An atom's width-1 label, bit i at bit `i * k`."""
        index, _, stride = self._slicing
        return self.blocks.get((pred, args[:-1]), 0) >> index[args[-1]] & stride

    @cached_property
    def model(self) -> KripkeModel:
        """The labelled model: label j of a block is its bits j, j + k, ...,
        which are every k-th of its binary digits."""
        names = tuple(self.functions)
        k, worlds = len(names), self.tree.model.worlds
        labels = dict(self.zero_ary)
        for (pred, head), block in self.blocks.items():
            # most significant first: label j's digits, from the last world
            # down to the first, start at k - 1 - j and recur every k
            digits = f"{block:0{len(worlds) * k}b}"
            for j, name in enumerate(names):
                label = int(digits[k - 1 - j :: k], 2)
                if label:
                    labels[pred, head + (name,)] = label
        up = self.tree.model.up
        return KripkeModel(worlds, up, dict.fromkeys(worlds, names), labels=labels)

    def function_id(self, function: dict[str, str]) -> str:
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
    the world's up-set, so the bitsets are ORed up the tree, children first,
    and the completion's `blocks` are their complements side by side in
    node order; its model is built from them when read.

    Raises ValueError, before any predicate is scanned, when those pairs of
    a node and an argument tuple number more than MAX_COMPLETION_PAIRS."""
    functions = {f"F{i}": f for i, f in enumerate(enumerate_choice_functions(tree))}
    names = tuple(functions)
    nodes = tree.nodes
    facts = tree.model.labels
    with_facts = {pred for pred, _ in facts}
    pairs = sum(
        len(nodes) * len(names) ** arity
        for pred, arity in signature.predicates.items()
        if pred in with_facts
    )
    if pairs > MAX_COMPLETION_PAIRS:
        raise ValueError(
            f"the completion has {pairs} pairs of a node and an argument tuple,"
            f" more than {MAX_COMPLETION_PAIRS}"
        )
    k = len(names)
    position = {n: i for i, n in enumerate(nodes)}
    up = tree.model.up
    # (child, parent) by index, children first, as a child's up-set is smaller
    children_first = sorted(tree.parent, key=lambda child: up[position[child]].bit_count())
    edges = [(position[child], position[tree.parent[child]]) for child in children_first]
    everyone = (1 << k) - 1
    # columns[j][i]: the value of F_j at node i, None where undefined;
    # by_value[i][e]: the bitset of functions taking value e at node i
    columns = [tuple(map(f.get, nodes)) for f in functions.values()]
    by_value: list[dict[str, int]] = [{} for _ in nodes]
    for j, column in enumerate(columns):
        for members, element in zip(by_value, column):
            if element is not None:
                members[element] = members.get(element, 0) | 1 << j
    zero_ary = {}
    blocks = {}
    for pred, arity in signature.predicates.items():
        if pred not in with_facts:
            continue  # everything stays 0
        if arity == 0:  # hereditary: a node's up-set lies in the label iff it does
            if (pred, ()) in facts:
                zero_ary[pred, ()] = facts[pred, ()]
            continue
        # per node, by the head's values there: the last arguments that make a non-fact
        bad_last: list[dict[tuple, int]] = [{} for _ in nodes]
        for head in itertools.product(range(k), repeat=arity - 1):
            bad_at = [0] * len(nodes)  # per node: the last arguments that make a non-fact
            prefixes = zip(*[columns[h] for h in head]) if head else [()] * len(nodes)
            for i, prefix in enumerate(prefixes):
                if None in prefix:
                    continue  # a head function is undefined at node i
                bad = bad_last[i].get(prefix)
                if bad is None:  # functions with distinct values: the sum is the union
                    bad = bad_last[i][prefix] = sum(
                        members for element, members in by_value[i].items()
                        if not facts.get((pred, prefix + (element,)), 0) >> i & 1
                    )
                bad_at[i] = bad
            for child, parent in edges:  # then: per node, over its up-set
                bad_at[parent] |= bad_at[child]
            block = sum((everyone ^ bad) << i * k for i, bad in enumerate(bad_at))
            if block:
                blocks[pred, tuple(names[h] for h in head)] = block
    return ConstantDomainCompletion(tree, functions, blocks, zero_ary, by_value)


def completion_to_text(
    completion: ConstantDomainCompletion, signature: Optional[Signature] = None
) -> str:
    """`model_to_text` of the completed model, read from the blocks and 0-ary
    labels without building the model. Facts come by world and then in text
    order, which is `(pred, head, last name)` order: names F0, F1, ... and
    predicates are identifiers, whose characters sort after ',', '(', ')'
    and ' ', so where two atoms' texts first differ, two names or
    predicates differ there as strings do, or one ends and its separator
    sorts first, as the shorter string does. So the atom keys are sorted
    once, and each row is read in name order (F10 before F2) through one
    fixed permutation of its columns. Rows repeat across worlds and heads,
    so each distinct row is read once."""
    names = tuple(completion.functions)
    k, worlds = len(names), completion.tree.nodes
    domains = dict.fromkeys(worlds, names)
    lines = model_header(worlds, completion.tree.model.up, domains, signature)
    by_text = sorted(names)
    # a row's bits in name order, after bit k is set to pad it to k bits
    in_text_order = itemgetter(*sorted(range(k), key=names.__getitem__), k)
    pad, ones = 1 << k, (1 << k) - 1
    blocks, zero_ary = completion.blocks, completion.zero_ary
    atoms = sorted([*blocks, *zero_ary])
    decoded: dict[int, tuple[str, ...]] = {}  # by a row: its names, in text order
    for i, w in enumerate(worlds):
        for atom in atoms:
            pred, head = atom
            if atom in zero_ary:
                if zero_ary[atom] >> i & 1:
                    lines.append(f"fact {w}: {pred}")
            elif row := blocks[atom] >> i * k & ones:
                prefix = f"fact {w}: {pred}({''.join(h + ', ' for h in head)}"
                if row not in decoded:
                    held = itertools.compress(by_text, in_text_order(bits(row | pad)))
                    decoded[row] = tuple(held)
                lines.append(prefix + (")\n" + prefix).join(decoded[row]) + ")")
    return "\n".join(lines) + "\n"


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
        constant = dict.fromkeys(sorted(tree.nodes), element)
        lifted[var] = completion.function_id(constant)
    return lifted


# --- main-lemma instance checking ----------------------------------------------


class BarViolation(NamedTuple):
    subformula: Formula
    node: str
    assignment: tuple[tuple[str, str], ...]
    value: int


class EquivalenceReport(NamedTuple):
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


class MainLemmaReport(NamedTuple):
    """Outcome of the main lemma for one formula at a list of instances.

    status is 'holds' when every instance holds, else the status of the
    first instance that does not.
    """

    formula: Formula
    completion: ConstantDomainCompletion
    status: str
    instances: tuple[EquivalenceReport, ...]
    bar_violation: Optional[BarViolation]


def format_main_lemma(report: MainLemmaReport) -> str:
    """The report as `check-main-lemma` prints it: the `json.dumps(...,
    indent=2)` of its JSON object, with the instances written by one fixed
    template into the dump of the rest. Each distinct string is quoted once
    by `json.dumps`, so escaping stays the encoder's."""
    quote = functools.cache(json.dumps)
    written = {}  # by an assignment's items: its text
    instances = []
    for instance in report.instances:
        pairs = tuple(instance.assignment.items())
        assignment = written.get(pairs)
        if assignment is None:
            members = ",\n".join(f"        {quote(x)}: {quote(e)}" for x, e in pairs)
            assignment = written[pairs] = f"{{\n{members}\n      }}" if members else "{}"
        condition = "true" if instance.pointwise_condition else "false"
        instances.append(
            f'    {{\n      "node": {quote(instance.node)},\n'
            f'      "assignment": {assignment},\n'
            f'      "completed-value": {instance.completed_value},\n'
            f'      "pointwise-condition": {condition},\n'
            f'      "status": {quote(instance.status)}\n    }}'
        )
    rest = {
        "formula": render_formula(report.formula),
        "node-count": len(report.completion.tree.nodes),
        "function-count": len(report.completion.functions),
        "status": report.status,
        "instances": [],
    }
    violation = report.bar_violation
    if violation is not None:
        rest["bar-violation"] = {
            "subformula": render_formula(violation.subformula),
            "node": violation.node,
            "assignment": dict(violation.assignment),
            "value": violation.value,
        }
    listed = "[\n" + ",\n".join(instances) + "\n  ]" if instances else "[]"
    # quotes inside strings are escaped, so the first match is the key
    return json.dumps(rest, indent=2).replace('"instances": []', f'"instances": {listed}', 1)


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
    tree: TreeModel, evaluator: Evaluator, formula: Formula
) -> Optional[BarViolation]:
    """First subformula instance whose value is not bar-determined: value 1 at
    a node iff its value-1 successor set bars the node. `evaluator` is an
    evaluator on the tree's model. Values persist upward (facts are
    hereditary), so that set bars a node exactly when it holds every leaf
    above it; one label per assignment gives both, as the leaves' domains
    hold the node's elements."""
    up = tree.model.up
    leaves = sum(1 << i for i, mask in enumerate(up) if mask == 1 << i)
    for sub in subformulas(formula):
        variables = sorted(free_vars(sub))
        for i, node in enumerate(tree.nodes):
            for combo in itertools.product(tree.model.domains[node], repeat=len(variables)):
                assignment = dict(zip(variables, combo))
                label = evaluator.label(assignment, sub)
                value = label >> i & 1
                barred = not up[i] & leaves & ~label
                if value != barred:
                    return BarViolation(sub, node, tuple(sorted(assignment.items())), value)
    return None


def pointwise_condition(
    completion: ConstantDomainCompletion,
    evaluator: Evaluator,
    formula: Formula,
    head: tuple[str, ...],
) -> int:
    """The pointwise side for every function F_j at once, in the completed
    label's layout: bit `i * k + j` is set where a function named in
    `head`, the names of all but the last free variable, or F_j is
    undefined at node i, or the formula holds there with the assignment
    read pointwise by `evaluator`, an evaluator on the tree's model. A
    closed formula fills whole blocks where it holds. Each node's functions
    come grouped by their value there, so a tuple of elements is labelled
    once."""
    variables = sorted(free_vars(formula))
    heads = [completion.functions[name] for name in head]
    k = len(completion.functions)
    ones = (1 << k) - 1
    labels: dict[tuple, int] = {}  # by the elements taken
    mask = 0
    for i, (v, by_value) in enumerate(zip(completion.tree.nodes, completion.by_value)):
        elements = tuple(f.get(v) for f in heads)
        bad = 0  # the functions F_j under which the formula fails at node i
        if None not in elements:
            # the last variable's values, each with its functions; a closed
            # formula has no last variable, and every function shares its value
            for e, members in by_value.items() if variables else [(None, ones)]:
                point = elements + (e,)
                label = labels.get(point)
                if label is None:
                    label = labels[point] = evaluator.label(dict(zip(variables, point)), formula)
                if not label >> i & 1:
                    bad |= members
        mask |= (ones ^ bad) << i * k
    return mask


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
    completed domain; more than MAX_COUNT of them raise ValueError before any
    is evaluated. The tree is checked for bar-determinacy once, and one
    evaluator per model serves every instance, the tree's one both the bar
    check and the pointwise condition. The last free variable is sliced over
    the k functions on both sides: one reading per assignment of the other
    variables gives both sides at every node for every function, bit
    `i * k + j` at node i with the last variable at F_j. The completed side
    is one label of a width-k evaluator whose atom labels are the completion
    itself (see `ConstantDomainCompletion.get`), so its `model` is never
    built. The pointwise side is the mask of `pointwise_condition`, ANDed
    over each node's up-set by that evaluator's up-set step. A closed
    formula's reading is read at the first function.
    """
    tree = completion.tree
    variables = sorted(free_vars(formula))
    domain = tuple(completion.functions)  # the completed domain, in its order
    if instances is None:
        if len(tree.nodes) * len(domain) ** len(variables) > MAX_COUNT:
            raise ValueError(
                f"the main lemma has more than {MAX_COUNT} instances here"
                " (nodes times functions to the number of free variables)"
            )
        # one assignment dict per combination, shared by the nodes
        combos = [dict(zip(variables, c)) for c in itertools.product(domain, repeat=len(variables))]
        instances = ((node, lifted) for node in tree.nodes for lifted in combos)
    pointwise = Evaluator(tree.model, signature)
    violation = bar_precondition_violation(tree, pointwise, formula)
    names = {name: j for j, name in enumerate(domain)}  # the column of each name
    worlds, width = tree.model.worlds, len(names)
    frame = Frame(worlds, tree.model.up, dict.fromkeys(worlds, domain), width=width)
    completed = Evaluator.of_frame(CompiledFormulas(signature), frame, completion)
    position = {n: i for i, n in enumerate(tree.nodes)}
    # by the names of all but the last variable: the completed label and the
    # condition rows, both in the sliced layout
    readings: dict[tuple, tuple[int, int]] = {}
    reports = []
    overall = "holds"
    for node, lifted in instances:
        i = position.get(node)
        if i is None:
            raise ValueError(f"unknown world {node!r}")
        key = tuple(map(lifted.get, variables))
        head, j = key[:-1], names.get(key[-1]) if key else 0
        reading = readings.get(head)
        if reading is None or j is None:
            for x in variables:  # as `Evaluator.value` checks an assignment
                if x not in lifted:
                    raise ValueError(f"unbound free variable {x!r}")
                if lifted[x] not in names:
                    raise ValueError(f"assignment sends {x!r} to {lifted[x]!r}, not in D({node})")
            # a closed formula's assignment stays empty
            label = completed.label(dict(zip(variables, head + (SLICED,))), formula)
            where = pointwise_condition(completion, pointwise, formula, head)
            # where no node of the up-set lies outside the mask
            rows = completed._above_none_of(frame.full ^ where)
            reading = readings[head] = (label, rows)
        label, rows = reading
        bit = i * width + j
        value = label >> bit & 1
        condition = rows >> bit & 1 == 1
        status = instance_status(value, condition, violation)
        if overall == "holds":
            overall = status
        reports.append(EquivalenceReport(node, lifted, status, value, condition, violation))
    return MainLemmaReport(formula, completion, overall, tuple(reports), violation)


# --- end-to-end pipeline --------------------------------------------------------


class PipelineReport(NamedTuple):
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
