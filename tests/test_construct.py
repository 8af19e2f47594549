import importlib.util
import itertools as it
import json
import os
import random
import sys
import time

import pytest

from kripkebench import construct
from kripkebench.cli import main
from kripkebench.construct import (
    SLICED,
    TreeModel,
    bar_precondition_violation,
    check_main_lemma,
    complete_to_constant_domain,
    completion_to_text,
    constant_domain_pipeline,
    enumerate_choice_functions,
    format_main_lemma,
    instance_status,
    lift_assignment,
    tree_from_model,
    unravel_strict,
    unravel_stuttered,
)
from kripkebench.semantics import (
    CompiledFormulas,
    Evaluator,
    Frame,
    InvalidModelError,
    KripkeModel,
    parse_model_text,
    reflexive_transitive_closure,
    validate_model,
)
from kripkebench.search import random_formula
from kripkebench.syntax import Atom, Conn, Exists, Forall, Signature, free_vars, parse_formula, parse_sequent
from kripkebench.synthesize import separating_countermodel
from kripkebench.truthfun import builtin

from util import (
    DEFAULT_PREDICATES,
    all_tree_shapes,
    bars,
    check_choice_function,
    choice_functions_by_masks,
    extend_choice,
    is_constant_domain,
    is_upward_closed,
    leaves_of,
    make_tree,
    naive_bar_violation,
    naive_value,
    partition_upward_closed,
    random_model,
    label_blocks,
    label_zero_ary,
    random_tree_facts,
    reference_completion,
    reference_main_lemma,
    reference_model_to_text,
    reference_frame_fields,
    reference_pointwise_condition,
    reference_report_json,
    up_masks,
    upset_of,
)


@pytest.fixture
def separating():
    return separating_countermodel()


@pytest.fixture
def separating_sig():
    return Signature({"p": 1, "q": 1, "T": 0, "R": 0}, {"or": builtin("or")})


def diamond():
    worlds = ("r", "m1", "m2", "t")
    return KripkeModel(
        worlds=worlds,
        up=reflexive_transitive_closure(
            worlds, [("r", "m1"), ("r", "m2"), ("m1", "t"), ("m2", "t")]
        ),
        domains={w: ("a",) for w in worlds},
        facts=frozenset({("t", "p", ("a",))}),
    )


def bench_workloads(monkeypatch):
    """The benchmark's `workloads` module, loaded without writing bytecode."""
    bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(bench)
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(bench, "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


def completion_workload_trees(workloads):
    """The seven trees of the `completion` workload, each with the signature
    of its model file; the two diamonds unravelled from their first world,
    as `unravel --strict` does."""
    texts = workloads._fixed_models()
    assert len(texts) == 7
    for key, text in texts.items():
        model, parsed = parse_model_text(text)
        if key.startswith("d"):
            yield unravel_strict(model, model.worlds[0]), parsed
        else:
            yield tree_from_model(model), parsed


def formulas_up_to_depth_two(sig):
    """Every formula of depth <= 2 over p/1, q/1, T/0 with one binary
    connective and variable x; the depth-2 layer samples connective wrappers
    over the full depth-1 layer."""
    level0 = [Atom("p", ("x",)), Atom("q", ("x",)), Atom("T")]
    level1 = list(level0)
    for f in level0:
        level1.append(Forall("x", f))
        level1.append(Exists("x", f))
        for g in level0:
            level1.append(Conn("or", (f, g)))
    level2 = list(level1)
    for f in level1[:10]:
        for g in level1[:10]:
            level2.append(Conn("or", (f, g)))
        level2.append(Forall("x", f))
        level2.append(Exists("x", f))
    return level2


class TestUnravelStrict:
    def test_two_world_chain(self, separating):
        tree = unravel_strict(separating, "w1")
        assert tree.nodes == ("w1", "w1/w2")
        assert tree.root == "w1"
        assert tree.last == {"w1": "w1", "w1/w2": "w2"}
        assert not tree.truncated

    def test_values_preserved_on_chain(self, separating, separating_sig):
        tree = unravel_strict(separating, "w1")
        source = Evaluator(separating, separating_sig)
        lifted = Evaluator(tree.model, separating_sig)
        for formula in formulas_up_to_depth_two(separating_sig):
            for node in tree.nodes:
                for a in tree.model.domains[node]:
                    rho = {"x": a}
                    assert lifted.value(node, rho, formula) == source.value(
                        tree.last[node], rho, formula
                    )

    def test_one_world(self):
        model = KripkeModel(
            worlds=("w",), up=(1,), domains={"w": ("a",)},
            facts=frozenset(),
        )
        tree = unravel_strict(model, "w")
        assert tree.nodes == ("w",)

    def test_diamond_duplicates_top(self):
        tree = unravel_strict(diamond(), "r")
        assert len(tree.nodes) == 5
        assert set(tree.nodes) == {"r", "r/m1", "r/m2", "r/m1/t", "r/m2/t"}

    def test_rejects_cycles_and_points_at_stuttered(self):
        worlds = ("w0", "w1")
        cyclic = KripkeModel(
            worlds=worlds,
            up=reflexive_transitive_closure(worlds, [("w0", "w1"), ("w1", "w0")]),
            domains={w: ("a",) for w in worlds},
            facts=frozenset(),
        )
        with pytest.raises(ValueError, match="unravel_stuttered"):
            unravel_strict(cyclic, "w0")

    def test_unknown_start(self, separating):
        with pytest.raises(ValueError):
            unravel_strict(separating, "w9")

    def test_names_the_cycle_pair_of_a_scan_of_the_sorted_pairs(self):
        # the least (a, b) by name with a != b above each other, on random
        # preorders whose world order is not name order
        rng = random.Random(43)
        cyclic = 0
        names = ["a", "b", "w0", "w1", "w10", "w2", "x_", "Z"]
        for _ in range(600):
            worlds = tuple(rng.sample(names, rng.randint(1, 6)))
            pairs = [(a, b) for a in worlds for b in worlds if rng.random() < 0.2]
            up = reflexive_transitive_closure(worlds, pairs)
            model = KripkeModel(worlds, up, dict.fromkeys(worlds, ("a",)), frozenset())
            order = model.order
            want = next(((a, b) for a, b in sorted(order) if a != b and (b, a) in order), None)
            assert construct._least_cycle(worlds, model.up) == want
            if want is None:
                unravel_strict(model, worlds[0])
                continue
            cyclic += 1
            message = f"order has a cycle through {want[0]} and {want[1]}"
            with pytest.raises(ValueError) as got:
                unravel_strict(model, worlds[0])
            assert str(got.value).startswith(message + ";")
            with pytest.raises(InvalidModelError) as got:
                tree_from_model(model)
            assert str(got.value) == message
        assert cyclic > 100

    def test_values_preserved_on_random_posets(self):
        rng = random.Random(42)
        sig = Signature(
            {"p": 1, "q": 1, "r": 0},
            {"not": builtin("not"), "and": builtin("and"), "or": builtin("or")},
        )
        for _ in range(15):
            model = random_model(rng)
            tree = unravel_strict(model, model.worlds[0])
            source = Evaluator(model, sig)
            lifted = Evaluator(tree.model, sig)
            for _ in range(8):
                formula = random_formula(rng, sig, 3, ("x",))
                for node in tree.nodes:
                    for a in tree.model.domains[node]:
                        rho = {"x": a}
                        assert lifted.value(node, rho, formula) == source.value(
                            tree.last[node], rho, formula
                        )


class TestUnravelStuttered:
    def test_length_one_is_single_node(self, separating):
        tree = unravel_stuttered(separating, "w1", 1)
        assert tree.nodes == ("w1",)
        assert tree.truncated

    def test_node_count_matches_direct_enumeration(self, separating):
        # oracle: non-decreasing sequences from w1 of total length <= 3
        order = {("w1", "w1"), ("w1", "w2"), ("w2", "w2")}
        expected = []
        frontier = [("w1",)]
        while frontier:
            seq = frontier.pop(0)
            expected.append(seq)
            if len(seq) < 3:
                for nxt in ("w1", "w2"):
                    if (seq[-1], nxt) in order:
                        frontier.append(seq + (nxt,))
        tree = unravel_stuttered(separating, "w1", 3)
        assert len(tree.nodes) == len(expected) == 6

    def test_last_is_final_component(self, separating):
        tree = unravel_stuttered(separating, "w1", 3)
        assert tree.last["w1/w1/w2"] == "w2"

    def test_accepts_cycles(self):
        worlds = ("w0", "w1")
        cyclic = KripkeModel(
            worlds=worlds,
            up=reflexive_transitive_closure(worlds, [("w0", "w1"), ("w1", "w0")]),
            domains={w: ("a",) for w in worlds},
            facts=frozenset(),
        )
        tree = unravel_stuttered(cyclic, "w0", 2)
        assert len(tree.nodes) == 3  # w0; w0/w0, w0/w1


class TestBars:
    def test_node_bars_itself(self):
        tree = make_tree((0, 0))
        assert bars(tree, "n1", frozenset({"n1"}))

    def test_leaves_bar_everything(self):
        tree = make_tree((0, 0, 1))
        leaves = frozenset(leaves_of(tree))
        for node in tree.nodes:
            assert bars(tree, node, leaves)

    def test_one_of_two_sibling_leaves_does_not_bar_parent(self):
        tree = make_tree((0, 0))
        assert not bars(tree, "n0", frozenset({"n1"}))


class TestPartition:
    def test_upset_is_single_block(self):
        tree = make_tree((0, 1, 1))
        upset = upset_of(tree, "n1")
        assert partition_upward_closed(tree, upset) == [("n1", upset)]

    def test_two_incomparable_leaf_upsets(self):
        tree = make_tree((0, 0))
        blocks = partition_upward_closed(tree, frozenset({"n1", "n2"}))
        assert blocks == [("n1", frozenset({"n1"})), ("n2", frozenset({"n2"}))]

    def test_empty_set(self):
        tree = make_tree((0,))
        assert partition_upward_closed(tree, frozenset()) == []

    def test_rejects_non_upward_closed(self):
        tree = make_tree((0, 1))
        with pytest.raises(ValueError):
            partition_upward_closed(tree, frozenset({"n1"}))

    def test_postconditions_exhaustively_on_small_trees(self):
        for parents in all_tree_shapes(5):
            tree = make_tree(parents)
            nodes = tree.nodes
            for mask in range(1 << len(nodes)):
                subset = frozenset(nodes[k] for k in range(len(nodes)) if (mask >> k) & 1)
                if not is_upward_closed(tree, subset):
                    continue
                blocks = partition_upward_closed(tree, subset)
                union = set()
                for minimum, block in blocks:
                    assert not union & block  # disjoint
                    union |= block
                    assert is_upward_closed(tree, block)
                    assert minimum in block
                    assert all(
                        (minimum, member) in tree.model.order for member in block
                    )
                assert union == set(subset)  # covering


class TestExtendChoice:
    def test_pin_at_root_with_full_barrier(self, separating):
        tree = unravel_strict(separating, "w1")
        everything = frozenset(tree.nodes)
        got = extend_choice(tree, everything, tree.root, {tree.root: "a1"})
        assert got == {"w1": "a1", "w1/w2": "a1"}
        assert check_choice_function(tree, got) == []

    def test_leaf_barrier_pins_one_leaf_defaults_the_rest(self):
        tree = make_tree((0, 0, 0))
        leaves = frozenset(leaves_of(tree))
        got = extend_choice(tree, leaves, "n1", {"n1": "b"})
        assert got == {"n1": "b", "n2": "a", "n3": "a"}
        assert check_choice_function(tree, got) == []

    def test_rejects_wrong_pins(self, separating):
        tree = unravel_strict(separating, "w1")
        everything = frozenset(tree.nodes)
        with pytest.raises(ValueError):
            extend_choice(tree, everything, tree.root, {})
        with pytest.raises(ValueError):
            extend_choice(tree, everything, tree.root, {tree.root: "a2"})

    def test_rejects_bad_barrier(self, separating):
        tree = unravel_strict(separating, "w1")
        with pytest.raises(ValueError):
            extend_choice(tree, frozenset({tree.root}), tree.root, {tree.root: "a1"})


class TestChoiceFunctionEnumeration:
    def test_single_node_tree(self):
        tree = make_tree((), domains={"n0": ("a", "b", "c")})
        functions = list(enumerate_choice_functions(tree))
        assert functions == [
            {"n0": "a"},
            {"n0": "b"},
            {"n0": "c"},
        ]

    def test_chain_values_constant_once_root_included(self):
        tree = make_tree((0,))
        functions = list(enumerate_choice_functions(tree))
        assert {"n0": "a", "n1": "a"} in functions
        assert {"n0": "a", "n1": "b"} not in functions

    def test_unraveled_two_chain_has_three(self, separating):
        tree = unravel_strict(separating, "w1")
        functions = list(enumerate_choice_functions(tree))
        assert functions == [
            {"w1/w2": "a1"},
            {"w1/w2": "a2"},
            {"w1": "a1", "w1/w2": "a1"},
        ]

    def test_every_function_satisfies_invariants(self):
        for parents in all_tree_shapes(4):
            tree = make_tree(parents)
            for f in enumerate_choice_functions(tree):
                assert check_choice_function(tree, f) == []

    def test_equals_the_mask_scan_on_every_tree_shape_up_to_six_nodes(self):
        # same functions, same order, keys in sorted node order
        rng = random.Random(6)
        trees = []
        for parents in all_tree_shapes(6):
            domains = {"n0": rng.choice([("a",), ("a", "b")])}
            for child, parent in enumerate(parents, start=1):
                domains[f"n{child}"] = rng.choice([domains[f"n{parent}"], ("a", "b", "c")])
            trees.append(make_tree(parents, domains))
        # past ten nodes, n10 sorts before n2, so node order is not key order
        for n in (11, 12, 13):
            for _ in range(4):
                parents = tuple(rng.randrange(i) for i in range(1, n))
                domains = {"n0": ("a",)}
                for child, parent in enumerate(parents, start=1):
                    grown = domains[f"n{parent}"] + ("b",) * (rng.random() < 0.15)
                    domains[f"n{child}"] = tuple(dict.fromkeys(grown))
                trees.append(make_tree(parents, domains))
        # breadth-first names: w1/w3 comes before w1/w2/w4 in node order only
        worlds = ("w1", "w2", "w3", "w4", "w5")
        pairs = [("w1", "w2"), ("w1", "w3"), ("w2", "w4"), ("w3", "w4"), ("w4", "w5")]
        domains = {"w1": ("a",), "w2": ("a", "b"), "w3": ("a",), "w4": ("a", "b"), "w5": ("a", "b")}
        model = KripkeModel(worlds, reflexive_transitive_closure(worlds, pairs), domains, frozenset())
        trees.append(unravel_strict(model, "w1"))
        assert sum(list(tree.nodes) != sorted(tree.nodes) for tree in trees) == 13
        for tree in trees:
            got = [list(f.items()) for f in enumerate_choice_functions(tree)]
            assert got == [list(f.items()) for f in choice_functions_by_masks(tree)]

    def test_budget(self, separating, monkeypatch):
        tree = unravel_strict(separating, "w1")
        monkeypatch.setattr(construct, "MAX_COUNT", 2)
        with pytest.raises(ValueError):
            list(enumerate_choice_functions(tree))


class TestCompletion:
    def test_constant_domain_and_valid(self, separating, separating_sig):
        tree = unravel_strict(separating, "w1")
        completion = complete_to_constant_domain(tree, separating_sig)
        assert is_constant_domain(completion.model)
        assert validate_model(completion.model) == []

    def test_zero_ary_clause(self):
        # r true only at the leaf: at the root the universal sweep fails
        tree = make_tree((0,), facts=frozenset({("n1", "r", ())}))
        completion = complete_to_constant_domain(tree, Signature({"r": 0}, {}))
        assert ("n1", "r", ()) in completion.model.facts
        assert ("n0", "r", ()) not in completion.model.facts

    def test_leaf_valued_function_reads_leaf_fact(self, separating, separating_sig):
        tree = unravel_strict(separating, "w1")
        completion = complete_to_constant_domain(tree, separating_sig)
        leaf_a2 = completion.function_id({"w1/w2": "a2"})
        # p(a2) is 0 at the source leaf, so the fact is absent at the root
        assert (tree.root, "p", (leaf_a2,)) not in completion.model.facts
        leaf_a1 = completion.function_id({"w1/w2": "a1"})
        assert (tree.root, "p", (leaf_a1,)) in completion.model.facts

    def test_valid_on_small_random_trees(self):
        rng = random.Random(9)
        for _ in range(15):
            model = random_model(rng, max_worlds=3)
            tree = unravel_strict(model, model.worlds[0])
            completion = complete_to_constant_domain(tree, Signature(DEFAULT_PREDICATES, {}))
            assert validate_model(completion.model) == []


class TestCompletionMatchesReference:
    PREDICATES = {"r": 0, "p": 1, "e": 2, "t": 3}

    def test_every_tree_shape_up_to_five_nodes(self):
        # q is declared in one signature but has no facts
        signatures = (Signature({**self.PREDICATES, "q": 1}, {}), Signature(self.PREDICATES, {}))
        rng = random.Random(2031)
        completed_preds = set()
        for parents in all_tree_shapes(5):
            domains = {"n0": rng.choice([("a",), ("a", "b")])}
            for child, parent in enumerate(parents, start=1):
                domains[f"n{child}"] = rng.choice([domains[f"n{parent}"], ("a", "b")])
            tree = make_tree(parents, domains)
            facts = random_tree_facts(rng, tree, self.PREDICATES, rng.choice([0.15, 0.4]))
            model = KripkeModel(tree.model.worlds, tree.model.up, tree.model.domains, facts)
            tree = TreeModel(model, tree.root, tree.parent, tree.last, tree.truncated)
            for sig in signatures:
                got = complete_to_constant_domain(tree, sig)
                want = reference_completion(tree, sig)
                assert got.functions == want.functions
                assert got.blocks == label_blocks(want.model)
                assert got.zero_ary == label_zero_ary(want.model)
                assert got.model.facts == want.model.facts
                assert got.model == want.model
                completed_preds |= {pred for _, pred, _ in got.model.facts}
        assert completed_preds == set(self.PREDICATES)

    def test_children_listed_before_parents(self):
        # the completion folds non-facts up the tree from the children, so a
        # model whose worlds come leaves first must complete the same
        sig = Signature({"r": 0, "p": 1, "e": 2}, {})
        rng = random.Random(2037)
        for parents in all_tree_shapes(5):
            tree = make_tree(parents)
            facts = random_tree_facts(rng, tree, sig.predicates, 0.3)
            worlds = tuple(reversed(tree.nodes))
            domains = {w: tree.model.domains[w] for w in worlds}
            up = up_masks(worlds, tree.model.order)
            tree = tree_from_model(KripkeModel(worlds, up, domains, facts))
            got = complete_to_constant_domain(tree, sig)
            assert got.blocks == label_blocks(reference_completion(tree, sig).model)

    def test_trees_past_eight_nodes(self):
        # labels of more than eight worlds, wider than one byte
        sig = Signature({"r": 0, "p": 1, "e": 2}, {})
        rng = random.Random(2036)
        for n in (9, 12, 17):
            # a path with a few side branches, which keeps the functions few
            parents = tuple(i - 2 if i % 5 == 0 else i - 1 for i in range(1, n))
            domains = {"n0": ("a",)}
            for child, parent in enumerate(parents, start=1):
                domains[f"n{child}"] = rng.choice([domains[f"n{parent}"]] * 3 + [("a", "b")])
            tree = make_tree(parents, domains)
            tree = make_tree(parents, domains, random_tree_facts(rng, tree, sig.predicates, 0.1))
            got = complete_to_constant_domain(tree, sig)
            want = reference_completion(tree, sig)
            assert got.blocks == label_blocks(want.model)
            assert got.model == want.model
            assert any(mask >> 8 for mask in got.model.labels.values())


class TestLiftAssignment:
    def test_empty(self, separating, separating_sig):
        tree = unravel_strict(separating, "w1")
        completion = complete_to_constant_domain(tree, separating_sig)
        assert lift_assignment(completion, {}) == {}

    def test_constant_total_function(self, separating, separating_sig):
        tree = unravel_strict(separating, "w1")
        completion = complete_to_constant_domain(tree, separating_sig)
        lifted = lift_assignment(completion, {"x": "a1"})
        function = completion.functions[lifted["x"]]
        assert frozenset(function) == set(tree.nodes)
        assert {function[n] for n in tree.nodes} == {"a1"}
        assert check_choice_function(tree, function) == []

    def test_rejects_elements_outside_root_domain(self, separating, separating_sig):
        tree = unravel_strict(separating, "w1")
        completion = complete_to_constant_domain(tree, separating_sig)
        with pytest.raises(ValueError):
            lift_assignment(completion, {"x": "a2"})


class TestMainLemmaInstances:
    def test_atomic_values_always_agree(self):
        # for atoms the two sides coincide by construction of the completion
        rng = random.Random(17)
        sig = Signature({"p": 1, "r": 0}, {})
        for _ in range(10):
            model = random_model(rng, max_worlds=3, predicates={"p": 1, "r": 0})
            tree = unravel_strict(model, model.worlds[0])
            completion = complete_to_constant_domain(tree, sig)
            for formula in (parse_formula("p(x)", sig), parse_formula("r", sig)):
                variables = sorted(free_vars(formula))
                for name in completion.model.domains[tree.root]:
                    lifted = {v: name for v in variables}
                    report = check_main_lemma(
                        completion, sig, formula, [(tree.root, lifted)]
                    ).instances[0]
                    assert (report.completed_value == 1) == report.pointwise_condition

    def test_flip_at_leaf_fails_precondition_at_root(self):
        model = KripkeModel(
            worlds=("r", "l"),
            up=reflexive_transitive_closure(("r", "l"), [("r", "l")]),
            domains={"r": ("a",), "l": ("a",)},
            facts=frozenset({("l", "p", ("a",))}),
        )
        sig = Signature({"p": 1}, {})
        tree = tree_from_model(model)
        completion = complete_to_constant_domain(tree, sig)
        lifted = lift_assignment(completion, {"x": "a"})
        report = check_main_lemma(
            completion, sig, parse_formula("p(x)", sig), [("r", lifted)]
        ).instances[0]
        assert report.status == "precondition-failed"
        assert report.bar_violation.node == "r"
        assert report.bar_violation.value == 0

    def test_constant_values_hold(self):
        sig = Signature({"p": 0, "q": 0}, {"and": builtin("and")})
        tree = make_tree(
            (0, 0),
            domains={n: ("a",) for n in ("n0", "n1", "n2")},
            facts=frozenset((n, "p", ()) for n in ("n0", "n1", "n2")),
        )
        completion = complete_to_constant_domain(tree, sig)
        for text in ("p", "q", "and(p, q)"):
            report = check_main_lemma(
                completion, sig, parse_formula(text, sig), [("n0", {})]
            ).instances[0]
            assert report.status == "holds"

    def test_bar_precondition_reports_first_violation(self):
        tree = make_tree((0,), facts=frozenset({("n1", "r", ())}))
        sig = Signature({"r": 0}, {})
        violation = bar_precondition_violation(
            tree, Evaluator(tree.model, sig), parse_formula("r", sig)
        )
        assert violation is not None and violation.node == "n0"

    def test_never_fails_when_bar_determined_over_meet_closed_connectives(self):
        # with every subformula bar-determined and a connective whose 1-inputs
        # are closed under meets, the two sides must agree at every instance;
        # a reported "fails" would expose a bug in the completion
        import itertools as it

        from kripkebench.construct import pointwise_condition
        from kripkebench.semantics import eval_formula

        sig = Signature({"p": 1, "s": 0}, {"and": builtin("and")})
        formulas = [
            parse_formula(text, sig)
            for text in (
                "s",
                "p(x)",
                "and(s, p(x))",
                "forall x. p(x)",
                "exists x. p(x)",
                "and(forall x. p(x), s)",
                "exists x. and(p(x), s)",
            )
        ]
        instances = 0
        holds = 0
        for parents in all_tree_shapes(3):
            base = make_tree(parents)
            slots = []
            for pred, args_options in (("s", [()]), ("p", [("a",), ("b",)])):
                for args in args_options:
                    valid = tuple(
                        n
                        for n in base.nodes
                        if all(e in base.model.domains[n] for e in args)
                    )
                    if not valid:
                        continue
                    options = [
                        frozenset(chosen)
                        for mask in range(1 << len(valid))
                        for chosen in [
                            {valid[k] for k in range(len(valid)) if (mask >> k) & 1}
                        ]
                        if all(
                            (w, v) not in base.model.order or v in chosen
                            for w in chosen
                            for v in valid
                        )
                    ]
                    slots.append((pred, args, options))
            for choice in it.product(*(options for _, _, options in slots)):
                facts = frozenset(
                    (n, pred, args)
                    for (pred, args, _), chosen in zip(slots, choice)
                    for n in chosen
                )
                tree = make_tree(parents, facts=facts)
                completion = complete_to_constant_domain(tree, sig)
                tree_eval = Evaluator(tree.model, sig)
                for formula in formulas:
                    if bar_precondition_violation(tree, tree_eval, formula) is not None:
                        continue
                    variables = sorted(free_vars(formula))
                    for node in tree.nodes:
                        for combo in it.product(
                            completion.model.domains[node], repeat=len(variables)
                        ):
                            lifted = dict(zip(variables, combo))
                            value = eval_formula(
                                completion.model, sig, node, lifted, formula
                            )
                            # bit i * k + j of the mask sliced over the last variable
                            names = list(completion.functions)
                            k = len(names)
                            head = tuple(lifted[x] for x in variables[:-1])
                            j = names.index(lifted[variables[-1]]) if variables else 0
                            where = pointwise_condition(completion, tree_eval, formula, head)
                            condition = all(
                                where >> tree.nodes.index(v) * k + j & 1 for v in upset_of(tree, node)
                            )
                            assert (value == 1) == condition
                            instances += 1
                            holds += 1
        assert instances > 500


class TestMainLemmaChecker:
    SIG = Signature({"p": 1, "q": 1, "r": 0}, {"or": builtin("or"), "imp": builtin("imp")})
    FORMULAS = (
        "r",
        "p(x)",
        "or(p(x), q(x))",
        "or(p(x), q(y))",
        "imp(q(x), p(x))",
        "forall x. or(p(x), r)",
        "exists y. imp(p(y), q(x))",
    )

    def naive_instance(self, completion, formula, node, lifted):
        """Both sides of the equivalence by the naive evaluator of tests/util."""
        tree = completion.tree
        value = naive_value(completion.model, self.SIG, node, lifted, formula)
        functions = {x: completion.functions[name] for x, name in lifted.items()}
        condition = all(
            naive_value(
                tree.model, self.SIG, v, {x: f[v] for x, f in functions.items()}, formula
            )
            == 1
            for v in upset_of(tree, node)
            if all(v in f for f in functions.values())
        )
        return value, condition

    def test_matches_naive_evaluation_at_every_instance(self):
        rng = random.Random(41)
        # a fork where or(p(x), q(x)) fails: p(b) holds only on one branch, q(a) on the other
        fork = make_tree(
            (0, 0),
            domains={"n0": ("a",), "n1": ("a", "b"), "n2": ("a", "b")},
            facts=frozenset({("n1", "p", ("b",)), ("n2", "q", ("a",))}),
        )
        trees = [fork]
        for _ in range(10):
            model = random_model(rng, max_worlds=3, predicates=self.SIG.predicates)
            trees.append(unravel_strict(model, model.worlds[0]))
        statuses = set()
        for tree in trees:
            completion = complete_to_constant_domain(tree, self.SIG)
            for text in self.FORMULAS:
                formula = parse_formula(text, self.SIG)
                report = check_main_lemma(completion, self.SIG, formula)
                violation = bar_precondition_violation(
                    tree, Evaluator(tree.model, self.SIG), formula
                )
                assert violation == naive_bar_violation(tree, self.SIG, formula)
                assert report.bar_violation == violation
                variables = sorted(free_vars(formula))
                want_points = [
                    (node, dict(zip(variables, combo)))
                    for node in tree.nodes
                    for combo in it.product(completion.model.domains[node], repeat=len(variables))
                ]
                assert [(i.node, i.assignment) for i in report.instances] == want_points
                for instance in report.instances:
                    value, condition = self.naive_instance(
                        completion, formula, instance.node, instance.assignment
                    )
                    assert instance.completed_value == value
                    assert instance.pointwise_condition == condition
                    assert instance.status == instance_status(value, condition, violation)
                    assert instance.bar_violation == violation
                first_other = [i.status for i in report.instances if i.status != "holds"]
                assert report.status == (first_other[0] if first_other else "holds")
                statuses.add(report.status)
        assert statuses == {"holds", "fails", "precondition-failed"}

    def test_instance_check_is_the_checker_at_one_point(self, separating, separating_sig):
        tree = unravel_strict(separating, "w1")
        sig = Signature(separating_sig.predicates, {"or": builtin("or")})
        completion = complete_to_constant_domain(tree, sig)
        formula = parse_formula("or(p(x), q(x))", sig)
        for instance in check_main_lemma(completion, sig, formula).instances:
            point = [(instance.node, instance.assignment)]
            assert check_main_lemma(completion, sig, formula, point).instances[0] == instance
            fresh = complete_to_constant_domain(tree, sig)
            assert check_main_lemma(fresh, sig, formula, point).instances[0] == instance

    def test_one_bar_pass_and_module_level_seams(self, monkeypatch, separating, separating_sig):
        # benchmark tracing wraps these two functions at their module attributes
        import kripkebench.construct as construct_module

        calls = {"bar": 0, "pointwise": 0}
        bar, pointwise = construct_module.bar_precondition_violation, construct_module.pointwise_condition

        def counted_bar(*args, **kwargs):
            calls["bar"] += 1
            return bar(*args, **kwargs)

        def counted_pointwise(*args, **kwargs):
            calls["pointwise"] += 1
            return pointwise(*args, **kwargs)

        monkeypatch.setattr(construct_module, "bar_precondition_violation", counted_bar)
        monkeypatch.setattr(construct_module, "pointwise_condition", counted_pointwise)
        tree = unravel_strict(separating, "w1")
        completion = complete_to_constant_domain(tree, separating_sig)
        report = check_main_lemma(
            completion, separating_sig, parse_formula("p(x)", separating_sig)
        )
        # one pointwise mask per assignment of all but the last variable,
        # which is the empty one for p(x), read at every node
        assert calls == {"bar": 1, "pointwise": 1}
        assert len(report.instances) == len(tree.nodes) * len(completion.functions)


class TestSlicedPointwiseCondition:
    """`pointwise_condition` gives the pointwise side for every function at
    once: for an assignment of all but the last free variable, its bits
    `i * k + j` over a node's up-set must say what the per-instance
    reference of tests/util says at that node, with the last variable at
    F_j, for every node and every whole assignment."""

    SIG = Signature(
        {"r": 0, "p": 1, "e": 2},
        {"imp": builtin("imp"), "or": builtin("or"), "and": builtin("and")},
    )
    # two formulas for each count of free variables, 0 to 3; r is 0-ary
    FORMULAS = (
        "r",
        "or(r, exists x. p(x))",
        "p(x)",
        "imp(p(x), exists y. e(y, x))",
        "e(x, y)",
        "or(e(y, x), imp(p(x), r))",
        "imp(e(x, y), e(z, x))",
        "and(or(e(x, z), r), p(y))",
    )
    # the domain sizes at depths 0, 1 and 2 or more
    DOMAIN_SIZES = ((1, 1, 1), (1, 2, 2), (1, 2, 3), (2, 2, 2))
    # a formula is checked on a tree when nodes times functions to its free
    # variables, the reference calls, are at most this many
    MAX_INSTANCES = 1000

    def checked_instances(self, completion, evaluator, formula):
        """Check every instance against the reference; return their count."""
        tree = completion.tree
        names = list(completion.functions)
        k = len(names)
        variables = sorted(free_vars(formula))
        lasts = names if variables else [None]
        count = 0
        for head in it.product(names, repeat=max(len(variables) - 1, 0)):
            mask = construct.pointwise_condition(completion, evaluator, formula, head)
            assert 0 <= mask < 1 << len(tree.nodes) * k
            for node in tree.nodes:
                ups = [tree.nodes.index(v) * k for v in upset_of(tree, node)]
                for j, last in enumerate(lasts):
                    lifted = dict(zip(variables, head + (last,)))
                    got = all(mask >> u + j & 1 for u in ups)
                    want = reference_pointwise_condition(
                        completion, evaluator, formula, node, lifted
                    )
                    assert got == want, (tree.parent, tree.model.domains, formula, node, lifted)
                    count += 1
        return count

    def test_every_tree_shape_up_to_five_nodes(self):
        rng = random.Random(2036)
        formulas = [parse_formula(text, self.SIG) for text in self.FORMULAS]
        checked = {}  # (free variables, largest domain) -> instances
        for parents in all_tree_shapes(5):
            depth = [0]
            for parent in parents:
                depth.append(depth[parent] + 1)
            for sizes in self.DOMAIN_SIZES:
                domains = {
                    f"n{i}": ("a", "b", "c")[: sizes[min(d, 2)]] for i, d in enumerate(depth)
                }
                tree = make_tree(parents, domains)
                facts = random_tree_facts(rng, tree, self.SIG.predicates, rng.choice([0.3, 0.6]))
                tree = make_tree(parents, domains, facts)
                completion = complete_to_constant_domain(tree, self.SIG)
                evaluator = Evaluator(tree.model, self.SIG)
                k = len(completion.functions)
                for formula in formulas:
                    count = len(free_vars(formula))
                    if len(tree.nodes) * k**count > self.MAX_INSTANCES:
                        continue
                    done = self.checked_instances(completion, evaluator, formula)
                    key = (count, max(sizes))
                    checked[key] = checked.get(key, 0) + done
        assert sorted(checked) == [(v, d) for v in range(4) for d in (1, 2, 3)]


class TestMainLemmaMatchesReference:
    """`check_main_lemma` reads each assignment once over all nodes; the
    reference of tests/util reads each instance at its node and up-set."""

    # the `check-main-lemma` formulas of tests/test_output_digests.py: holds,
    # tree, open, fails and bar violation
    FORMULAS = (
        "forall x. p(x)",
        "forall x. imp(p(x), exists y. q(y))",
        "imp(q(x), p(x))",
        "or(p(x), q(x))",
        "p(x)",
    )
    CONNECTIVES = {"or": builtin("or"), "imp": builtin("imp")}

    def assert_same_reports(self, completion, sig, formulas, rng):
        statuses = set()
        for text in formulas:
            formula = parse_formula(text, sig)
            want = reference_main_lemma(completion, sig, formula)
            assert check_main_lemma(completion, sig, formula) == want
            statuses.add(want.status)
            # explicit instances, in any order and with repeated assignments
            instances = rng.sample(
                [(i.node, i.assignment) for i in want.instances], min(len(want.instances), 12)
            )
            assert check_main_lemma(completion, sig, formula, instances) == reference_main_lemma(
                completion, sig, formula, instances
            )
        return statuses

    def test_every_tree_shape_up_to_five_nodes(self):
        sig = Signature({"p": 1, "q": 1}, self.CONNECTIVES)
        rng = random.Random(2034)
        statuses = set()
        for parents in all_tree_shapes(5):
            domains = {"n0": rng.choice([("a",), ("a", "b")])}
            for child, parent in enumerate(parents, start=1):
                domains[f"n{child}"] = rng.choice([domains[f"n{parent}"], ("a", "b")])
            tree = make_tree(parents, domains)
            facts = random_tree_facts(rng, tree, sig.predicates, rng.choice([0.2, 0.5]))
            completion = complete_to_constant_domain(make_tree(parents, domains, facts), sig)
            statuses |= self.assert_same_reports(completion, sig, self.FORMULAS, rng)
        assert statuses == {"holds", "fails", "precondition-failed"}

    def test_completion_workload_trees(self, monkeypatch):
        workloads = bench_workloads(monkeypatch)
        rng = random.Random(2035)
        for tree, parsed in completion_workload_trees(workloads):
            sig = Signature({**parsed.predicates, "q": 1}, {**parsed.connectives, **self.CONNECTIVES})
            completion = complete_to_constant_domain(tree, sig)
            formulas = self.FORMULAS + (workloads.LEMMA_FORMULA,)
            self.assert_same_reports(completion, sig, formulas, rng)

    def test_width_k_frame_equals_the_general_loop(self, monkeypatch):
        # the frame `check_main_lemma` labels the completion on, every node
        # holding all k functions, and each tree's own width-1 frame
        for tree, parsed in completion_workload_trees(bench_workloads(monkeypatch)):
            names = tuple(complete_to_constant_domain(tree, parsed).functions)
            worlds, order = tree.nodes, tree.model.order
            for domains, width in (
                (dict.fromkeys(worlds, names), len(names)),
                (tree.model.domains, 1),
            ):
                frame = Frame(worlds, tree.model.up, domains, width)
                fields = ("offset", "below", "named", "present", "elements")
                got = {key: getattr(frame, key) for key in fields}
                assert got == reference_frame_fields(worlds, order, domains, width)


class TestSlicedMainLemma:
    """`check_main_lemma` slices the last free variable of the formula on the
    completed model; each report must equal the per-instance reference of
    tests/util, whichever atom reading the slice takes."""

    SIG = Signature(
        {"e": 2, "p": 1, "r": 0, "s": 1, "t": 3},
        {"or": builtin("or"), "imp": builtin("imp")},
    )
    FORMULAS = (
        "exists y. e(x, y)",  # the sliced variable first: read element by element
        "exists y. e(y, x)",  # last: the completion's block
        "e(x, x)",  # repeated
        "forall y. imp(e(y, x), p(y))",
        "imp(e(x, z), p(z))",  # two free variables, z sliced
        "t(y, x, y)",  # the sliced y first and last
        "t(x, x, y)",
        "or(p(x), exists x. e(x, x))",  # the sliced variable bound again
        "r",  # closed, 0-ary
        "imp(r, s(x))",  # s has no facts
        "exists x. e(x, x)",
    )

    def trees(self, rng, count):
        shapes = list(all_tree_shapes(4))
        for _ in range(count):
            parents = rng.choice(shapes)
            domains = {"n0": rng.choice([("a",), ("a", "b")])}
            for child, parent in enumerate(parents, start=1):
                domains[f"n{child}"] = rng.choice([domains[f"n{parent}"], ("a", "b")])
            tree = make_tree(parents, domains)
            # facts for every predicate but s, which keeps none
            predicates = {pred: arity for pred, arity in self.SIG.predicates.items() if pred != "s"}
            facts = random_tree_facts(rng, tree, predicates, rng.choice([0.15, 0.4, 0.7]))
            yield make_tree(parents, domains, facts)

    def test_every_instance_matches_the_reference(self):
        rng = random.Random(2036)
        statuses = set()
        for tree in self.trees(rng, 24):
            completion = complete_to_constant_domain(tree, self.SIG)
            # tree facts are hereditary, so the completion keeps their 0-ary labels
            assert completion.zero_ary == {
                atom: label for atom, label in tree.model.labels.items() if not atom[1]
            }
            for text in self.FORMULAS:
                formula = parse_formula(text, self.SIG)
                want = reference_main_lemma(completion, self.SIG, formula)
                assert check_main_lemma(completion, self.SIG, formula) == want
                statuses.add(want.status)
                instances = rng.sample(
                    [(i.node, i.assignment) for i in want.instances],
                    min(len(want.instances), 10),
                )
                assert check_main_lemma(
                    completion, self.SIG, formula, instances
                ) == reference_main_lemma(completion, self.SIG, formula, instances)
        assert statuses == {"holds", "fails", "precondition-failed"}

    def test_blocks_are_the_labels_side_by_side(self):
        rng = random.Random(2037)
        for tree in self.trees(rng, 8):
            completion = complete_to_constant_domain(tree, self.SIG)
            assert completion.blocks == label_blocks(completion.model)
            assert completion.zero_ary == label_zero_ary(completion.model)

    def test_get_reads_the_width_1_labels_side_by_side(self):
        # through an evaluator of width k, with the sliced x first, last, in
        # the middle, repeated, absent or bound again inside an atom, on a
        # 0-ary atom, and in random formulas
        rng = random.Random(31)
        texts = (
            "e(x, y)", "e(y, x)", "t(y, x, y)", "e(x, x)", "p(y)", "r",
            "or(p(x), exists x. e(x, x))", "imp(r, forall y. e(y, x))",
        )
        for tree in self.trees(rng, 12):
            completion = complete_to_constant_domain(tree, self.SIG)
            names = tuple(completion.functions)
            worlds, k = tree.nodes, len(names)
            frame = Frame(worlds, tree.model.up, dict.fromkeys(worlds, names), width=k)
            sliced = Evaluator.of_frame(CompiledFormulas(self.SIG), frame, completion)
            width1 = Evaluator(completion.model, self.SIG)
            formulas = [parse_formula(text, self.SIG) for text in texts]
            formulas += [random_formula(rng, self.SIG, 3, ("x", "y")) for _ in range(4)]
            for formula in formulas:
                for y in names:
                    label = sliced.label({"x": SLICED, "y": y}, formula)
                    for j, x in enumerate(names):
                        column = width1.label({"x": x, "y": y}, formula)
                        for i in range(len(worlds)):
                            assert label >> i * k + j & 1 == column >> i & 1

    def test_the_check_leaves_the_completed_model_unbuilt(self):
        rng = random.Random(2038)
        for tree in self.trees(rng, 4):
            completion = complete_to_constant_domain(tree, self.SIG)
            for text in self.FORMULAS:
                check_main_lemma(completion, self.SIG, parse_formula(text, self.SIG))
            assert "model" not in completion.__dict__
            assert completion.model is completion.model  # built once, on first read

    @pytest.mark.parametrize(
        "text, assignment, message",
        [
            ("e(x, x)", {}, "unbound free variable 'x'"),
            ("imp(e(x, z), p(z))", {"z": "F0"}, "unbound free variable 'x'"),
            ("imp(e(x, z), p(z))", {"x": "F0"}, "unbound free variable 'z'"),
            ("exists y. e(y, x)", {"x": "G"}, "assignment sends 'x' to 'G', not in D(n1)"),
            ("imp(e(x, z), p(z))", {"x": "a", "z": "F0"}, "assignment sends 'x' to 'a', not in D(n1)"),
            ("imp(e(x, z), p(z))", {"x": "F0", "z": None}, "assignment sends 'z' to None, not in D(n1)"),
        ],
    )
    def test_explicit_instances_raise_as_the_evaluator_does(self, text, assignment, message):
        completion = complete_to_constant_domain(make_tree((0, 0)), self.SIG)
        formula = parse_formula(text, self.SIG)
        # a good instance first: the bad one must still be checked
        good = {x: "F0" for x in free_vars(formula)}
        instances = [("n0", good), ("n1", assignment)]
        with pytest.raises(ValueError) as want:
            reference_main_lemma(completion, self.SIG, formula, instances)
        with pytest.raises(ValueError) as got:
            check_main_lemma(completion, self.SIG, formula, instances)
        assert str(got.value) == str(want.value) == message

    def test_unknown_node(self):
        completion = complete_to_constant_domain(make_tree((0, 0)), self.SIG)
        formula = parse_formula("e(x, x)", self.SIG)
        with pytest.raises(ValueError, match="unknown world 'n9'"):
            check_main_lemma(completion, self.SIG, formula, [("n9", {"x": "F0"})])


class TestMainLemmaWriter:
    """`format_main_lemma` writes the report by template; it must give the
    text of `json.dumps(..., indent=2)` on the report's JSON object, as
    tests/util builds it."""

    def assert_written_as_json(self, report):
        assert format_main_lemma(report) == json.dumps(reference_report_json(report), indent=2)

    def test_every_digest_model_and_formula(self):
        from test_output_digests import CALLS, FILES

        calls = [argv for argv in CALLS.values() if argv[0] == "check-main-lemma"]
        assert len(calls) >= 10
        for _, model_file, text in calls:
            model, sig = parse_model_text(FILES[model_file[1:]])
            completion = complete_to_constant_domain(tree_from_model(model), sig)
            self.assert_written_as_json(check_main_lemma(completion, sig, parse_formula(text, sig)))

    def test_no_instances_a_closed_formula_and_a_bar_violation(self):
        sig = TestSlicedMainLemma.SIG
        # e(a, a) holds at both leaves but not at the root: not bar-determined
        facts = {("n1", "e", ("a", "a")), ("n2", "e", ("a", "a")), ("n2", "r", ())}
        completion = complete_to_constant_domain(make_tree((0, 0), facts=facts), sig)
        empty = check_main_lemma(completion, sig, parse_formula("e(x, x)", sig), instances=[])
        closed = check_main_lemma(completion, sig, parse_formula("r", sig))
        violated = check_main_lemma(completion, sig, parse_formula("e(x, x)", sig))
        assert '"instances": []' in format_main_lemma(empty)
        assert '"assignment": {}' in format_main_lemma(closed)
        assert violated.bar_violation is not None
        for report in (empty, closed, violated):
            self.assert_written_as_json(report)

    def test_the_sliced_lemma_trees(self):
        rng = random.Random(2036)
        sliced = TestSlicedMainLemma()
        for tree in sliced.trees(rng, 24):
            completion = complete_to_constant_domain(tree, sliced.SIG)
            for text in sliced.FORMULAS:
                formula = parse_formula(text, sliced.SIG)
                report = check_main_lemma(completion, sliced.SIG, formula)
                self.assert_written_as_json(report)
                # explicit instances keep their order and their assignments' order
                instances = [
                    (i.node, dict(reversed(i.assignment.items())))
                    for i in rng.sample(report.instances, min(len(report.instances), 10))
                ]
                self.assert_written_as_json(
                    check_main_lemma(completion, sliced.SIG, formula, instances)
                )


class TestCompletionWriter:
    """`completion_to_text` writes the completed model from its blocks; it
    must give the text of `reference_model_to_text` on the built model."""

    SIG = TestSlicedMainLemma.SIG  # 0-ary r, unary p, binary e, ternary t; s keeps no facts

    def trees(self, rng, count):
        """Random trees of up to four nodes; one in three is a root with two
        leaves of three elements each, which gives 9 + 1 or 9 + 2 functions."""
        shapes = list(all_tree_shapes(4))
        for n in range(count):
            wide = n % 3 == 0
            parents = (0, 0) if wide else rng.choice(shapes)
            domains = {"n0": rng.choice([("a",), ("a", "b")])}
            for child, parent in enumerate(parents, start=1):
                menu = [("a", "b", "c")] if wide else [domains[f"n{parent}"], ("a", "b")]
                domains[f"n{child}"] = rng.choice(menu)
            tree = make_tree(parents, domains)
            predicates = {pred: arity for pred, arity in self.SIG.predicates.items() if pred != "s"}
            facts = random_tree_facts(rng, tree, predicates, rng.choice([0.15, 0.4, 0.7]))
            yield make_tree(parents, domains, facts)

    def test_every_tree_matches_the_reference(self):
        rng = random.Random(2040)
        most, preds = 0, set()
        for tree in self.trees(rng, 36):
            completion = complete_to_constant_domain(tree, self.SIG)
            most = max(most, len(completion.functions))
            want = reference_model_to_text(completion.model, self.SIG)
            assert completion_to_text(completion, self.SIG) == want
            assert completion_to_text(completion) == reference_model_to_text(completion.model)
            preds |= {pred for _, pred, _ in completion.model.facts}
        # with 11 functions or more, F10 sorts before F2 and index order is not text order
        assert most >= 11
        assert preds == {"r", "p", "e", "t"}

    def test_complete_never_builds_the_completed_model(self, monkeypatch, tmp_path, capsys):
        from test_output_digests import FILES

        def refuse(self):
            raise AssertionError("the completed model was built")

        monkeypatch.setattr(construct.ConstantDomainCompletion, "model", property(refuse))
        path = tmp_path / "wide.model"
        path.write_text(FILES["wide.model"])
        assert main(["complete", str(path)]) == 0
        assert "fact n2: t(F2, F2, F10)\nfact n2: t(F2, F2, F4)\n" in capsys.readouterr().out


class TestPipeline:
    def test_refutation_survives_completion_with_constant_values(self):
        sig = Signature({"p": 0, "q": 0}, {})
        model = KripkeModel(
            worlds=("w0", "w1"),
            up=reflexive_transitive_closure(("w0", "w1"), [("w0", "w1")]),
            domains={"w0": ("a",), "w1": ("a",)},
            facts=frozenset({("w0", "p", ()), ("w1", "p", ())}),
        )
        sequent = parse_sequent("p => q", sig)
        report = constant_domain_pipeline(model, sig, sequent, "w0", {})
        assert report.status == "refuted"
        assert report.completed_sequent_value == 0
        assert is_constant_domain(report.completion.model)

    def test_non_bar_determined_input_is_inconclusive(self):
        sig = Signature({"p": 0}, {"not": builtin("not")})
        model = KripkeModel(
            worlds=("w0", "w1"),
            up=reflexive_transitive_closure(("w0", "w1"), [("w0", "w1")]),
            domains={"w0": ("a",), "w1": ("a",)},
            facts=frozenset({("w1", "p", ())}),
        )
        sequent = parse_sequent("not(not(p)) => p", sig)
        report = constant_domain_pipeline(model, sig, sequent, "w0", {})
        assert report.status == "inconclusive"
        assert "precondition-failed" in report.equivalence.values()

    def test_rejects_non_refuting_point(self):
        sig = Signature({"p": 0}, {})
        model = KripkeModel(
            worlds=("w0",), up=(1,),
            domains={"w0": ("a",)}, facts=frozenset({("w0", "p", ())}),
        )
        with pytest.raises(ValueError):
            constant_domain_pipeline(model, sig, parse_sequent("=> p", sig), "w0", {})


class TestTreeFromModel:
    def test_accepts_unraveled_models(self, separating):
        tree = unravel_strict(separating, "w1")
        rebuilt = tree_from_model(tree.model)
        assert rebuilt.root == tree.root
        assert rebuilt.parent == tree.parent

    def test_long_chain_becomes_a_tree_quickly(self):
        # validation by pairs of order pairs took about 17 s on these 200 worlds
        worlds = tuple(f"w{i}" for i in range(200))
        model = KripkeModel(
            worlds,
            reflexive_transitive_closure(worlds, zip(worlds, worlds[1:])),
            {w: ("a",) for w in worlds},
            frozenset(),
        )
        started = time.monotonic()
        tree = tree_from_model(model)
        assert time.monotonic() - started < 5
        assert tree.parent == dict(zip(worlds[1:], worlds))

    def test_rejects_diamond(self):
        with pytest.raises(InvalidModelError):
            tree_from_model(diamond())

    def test_rejects_forest(self):
        model = KripkeModel(
            worlds=("w0", "w1"),
            up=(1, 2),
            domains={"w0": ("a",), "w1": ("a",)},
            facts=frozenset(),
        )
        with pytest.raises(InvalidModelError):
            tree_from_model(model)

    def test_parent_ancestry_is_the_order_of_every_small_relation(self):
        # every set of strict pairs on up to 4 worlds, plus the diagonal: 4,165
        # relations, of which exactly the n^(n-1) labelled rooted trees pass
        trees = 0
        for n in range(1, 5):
            worlds = tuple(f"w{i}" for i in range(n))
            pairs = [(a, b) for a in worlds for b in worlds if a != b]
            for mask in range(1 << len(pairs)):
                strict = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
                order = frozenset([(w, w) for w in worlds] + strict)
                up = up_masks(worlds, order)
                model = KripkeModel(worlds, up, {w: ("a",) for w in worlds}, frozenset())
                if validate_model(model):
                    continue  # not a preorder: `tree_from_model` takes valid models
                try:
                    tree = tree_from_model(model)
                except InvalidModelError:
                    continue
                ancestry = set()
                for w in worlds:
                    node = w
                    ancestry.add((node, w))
                    while node in tree.parent:
                        node = tree.parent[node]
                        ancestry.add((node, w))
                assert ancestry == order
                trees += 1
        assert trees == 1 + 2 + 9 + 64
