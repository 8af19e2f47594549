"""Acceptance suite: one test per criterion, exact or exhaustive at desk scale.

Each test prints a single PASS line on success; a failing assertion aborts
the test before the line is printed, so the printed lines double as the
acceptance report (run with `pytest tests/test_acceptance.py -v -s`).
"""

import itertools
import random

import pytest

from kripkebench.construct import complete_to_constant_domain, unravel_strict
from kripkebench.search import (
    Refuted,
    SearchBounds,
    ValidUpToBounds,
    check_relations_on_corpus,
    decide,
    random_formula,
    sequent_corpus,
)
from kripkebench.semantics import Evaluator, validate_model
from kripkebench.syntax import Signature, free_vars, parse_sequent
from kripkebench.truthfun import (
    builtin,
    enumerate_truth_functions,
    is_supermultiplicative,
)
from kripkebench.synthesize import synthesize

from util import (
    all_tree_shapes,
    check_choice_function,
    extend_choice,
    is_upward_closed,
    leaves_of,
    make_tree,
    nary_meet_closure,
    partition_upward_closed,
    random_model,
    successors,
    upset_of,
)


def passed(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def test_01_binary_classification():
    # independent oracle: the definition recomputed on raw bit tuples
    inputs = list(itertools.product((0, 1), repeat=2))

    def oracle_supermultiplicative(bits):
        table = {inp: bits[(inp[0] << 1) | inp[1]] for inp in inputs}
        return all(
            table[tuple(min(x, y) for x, y in zip(a, b))]
            for a in inputs
            for b in inputs
            if table[a] and table[b]
        )

    failing = set()
    for tf in enumerate_truth_functions(2):
        oracle = oracle_supermultiplicative(tf.table)
        library, _ = is_supermultiplicative(tf)
        assert oracle == library
        if not library:
            failing.add(tf.table_string())
    assert failing == {"0111", "0110"}
    assert builtin("or").table_string() in failing
    assert builtin("xor").table_string() in failing
    passed(1, "exactly the disjunction and exclusive-disjunction tables fail")


def test_02_meet_closure_equivalence_for_all_ternary_functions():
    for tf in enumerate_truth_functions(3):
        pairwise, _ = is_supermultiplicative(tf)
        closure = all(nary_meet_closure(tf, n) for n in range(1, 5))
        assert pairwise == closure, tf.table_string()
    passed(2, "pairwise property matches n-ary meet closure (n <= 4) on all 256")


def test_03_synthesizer_soundness_for_all_small_arities():
    total = 0
    cases = {"A": 0, "B": 0, "C": 0, "D": 0, "E": 0}
    for arity in (0, 1, 2, 3):
        for tf in enumerate_truth_functions(arity):
            supermultiplicative, _ = is_supermultiplicative(tf)
            if supermultiplicative:
                continue
            certificate = synthesize("c", tf, cd_bounds=None)
            value = Evaluator(certificate.model, certificate.signature).sequent_value(
                "w1", {}, certificate.sequent
            )
            assert value == 0, tf.table_string()
            total += 1
            cases[certificate.case] += 1
    assert total > 0 and cases["E"] > 0  # the sweep exercises every template family
    passed(3, f"{total} non-supermultiplicative functions refuted at the fixed point {dict(cases)}")


def test_04_separation_at_bounds_for_disjunction_and_exclusive_disjunction():
    for name in ("or", "xor"):
        certificate = synthesize(name, builtin(name), cd_bounds=None)
        cd = decide(
            certificate.signature,
            certificate.sequent,
            "cd",
            SearchBounds(3, 2, "tree"),
        )
        assert isinstance(cd, ValidUpToBounds), name
        kripke = decide(
            certificate.signature,
            certificate.sequent,
            "kripke",
            SearchBounds(3, 2, "tree"),
        )
        assert isinstance(kripke, Refuted), name
        assert len(kripke.model.worlds) <= 2
        assert validate_model(kripke.model) == []
    passed(4, "cd search exhausts (W<=3, D<=2, trees); kripke refutes with <=2 worlds")


def test_05_fixed_sequent_verdicts():
    xor_sig = Signature({"p": 1, "r": 0}, {"xor": builtin("xor")})
    mixed = parse_sequent("forall x. xor(p(x), r) => xor(forall x. p(x), r)", xor_sig)
    verdict = decide(xor_sig, mixed, "kripke", SearchBounds(3, 2, "poset"))
    assert isinstance(verdict, ValidUpToBounds)

    neg_sig = Signature({"p": 0}, {"not": builtin("not")})
    ddneg = parse_sequent("not(not(p)) => p", neg_sig)
    refuted = decide(neg_sig, ddneg, "kripke", SearchBounds(2, 1, "chain"))
    assert isinstance(refuted, Refuted)
    assert len(refuted.model.worlds) == 2
    assert ("w0", "w1") in refuted.model.order
    value = Evaluator(refuted.model, neg_sig).sequent_value(
        refuted.world, refuted.assignment, ddneg
    )
    assert value == 0
    passed(5, "propositional-mix sequent kripke-valid at bounds; double negation refuted on a chain")


def test_06_heredity_on_seeded_models():
    rng = random.Random(2026)
    signature = Signature(
        {"p": 1, "q": 1, "r": 0},
        {name: builtin(name) for name in ("not", "and", "or", "imp", "xor", "iff")},
    )
    checks = 0
    for _ in range(500):
        model = random_model(rng, max_worlds=4, max_domain=2, allow_cycles=True)
        evaluator = Evaluator(model, signature)
        formulas = [random_formula(rng, signature, 3, ("x", "y")) for _ in range(24)]
        pairs = [
            (w, v)
            for w in model.worlds
            for v in successors(model, w)
            if w != v
        ]
        for formula in formulas:
            variables = sorted(free_vars(formula))
            for w, v in pairs:
                for combo in itertools.product(model.domains[w], repeat=len(variables)):
                    rho = dict(zip(variables, combo))
                    assert evaluator.value(w, rho, formula) <= evaluator.value(v, rho, formula)
                    checks += 1
    assert checks > 20000
    passed(6, f"{checks} ordered-pair comparisons, all monotone")


def test_07_unraveling_preserves_values_on_seeded_posets():
    rng = random.Random(2027)
    signature = Signature(
        {"p": 1, "q": 1, "r": 0},
        {name: builtin(name) for name in ("not", "and", "or", "imp", "xor", "iff")},
    )
    checks = 0
    multi_node_trees = 0
    for _ in range(100):
        model = random_model(rng, max_worlds=4, max_domain=2)
        # start where the up-set is largest so the unraveled tree is nontrivial
        start = max(model.worlds, key=lambda w: len(successors(model, w)))
        tree = unravel_strict(model, start)
        multi_node_trees += len(tree.nodes) > 1
        source = Evaluator(model, signature)
        lifted = Evaluator(tree.model, signature)
        formulas = [random_formula(rng, signature, 3, ("x", "y")) for _ in range(20)]
        for formula in formulas:
            variables = sorted(free_vars(formula))
            for node in tree.nodes:
                origin = tree.last[node]
                for combo in itertools.product(
                    tree.model.domains[node], repeat=len(variables)
                ):
                    rho = dict(zip(variables, combo))
                    assert lifted.value(node, rho, formula) == source.value(
                        origin, rho, formula
                    )
                    checks += 1
    assert checks > 5000 and multi_node_trees > 40
    passed(7, f"{checks} node evaluations equal their source-world evaluations")


def test_08_partitions_and_choice_extension_exhaustive_on_small_trees():
    partition_checks = 0
    extension_checks = 0
    for parents in all_tree_shapes(6):
        tree = make_tree(parents)
        nodes = tree.nodes
        upward_closed = []
        for mask in range(1 << len(nodes)):
            subset = frozenset(nodes[k] for k in range(len(nodes)) if (mask >> k) & 1)
            if is_upward_closed(tree, subset):
                upward_closed.append(subset)
        for subset in upward_closed:
            blocks = partition_upward_closed(tree, subset)
            union = set()
            for minimum, block in blocks:
                assert not union & block
                union |= block
                assert is_upward_closed(tree, block)
                assert all((minimum, member) in tree.model.order for member in block)
                others = [m for m, b in blocks if b == block and m != minimum]
                assert not others  # unique minimum per block
            assert union == set(subset)
            partition_checks += 1
        leaves = set(leaves_of(tree))
        barriers = [s for s in upward_closed if leaves <= s]
        for barrier in barriers:
            for node in nodes:
                region = upset_of(tree, node) & barrier
                blocks = partition_upward_closed(tree, region)
                menus = [tree.model.domains[minimum] for minimum, _ in blocks]
                for values in itertools.product(*menus):
                    pins = {minimum: v for (minimum, _), v in zip(blocks, values)}
                    function = extend_choice(tree, barrier, node, pins)
                    assert check_choice_function(tree, function) == []
                    assert region <= frozenset(function)
                    for minimum, _ in blocks:
                        assert function[minimum] == pins[minimum]
                    extension_checks += 1
    assert partition_checks > 1000 and extension_checks > 5000
    passed(8, f"{partition_checks} partitions and {extension_checks} extensions verified")


def _monotone_domain_assignments(tree, universe=("a", "b")):
    subsets = [("a",), ("b",), ("a", "b")]
    for combo in itertools.product(subsets, repeat=len(tree.nodes)):
        assignment = dict(zip(tree.nodes, combo))
        if all(
            set(assignment[parent]) <= set(assignment[child])
            for child, parent in tree.parent.items()
        ):
            yield assignment


def _interpretation_slots(tree, domains):
    slots = []
    for pred, args_options in (("r", [()]), ("p", [("a",), ("b",)])):
        for args in args_options:
            valid = tuple(
                n for n in tree.nodes if all(e in domains[n] for e in args)
            )
            if not valid:
                continue
            options = []
            for mask in range(1 << len(valid)):
                chosen = frozenset(valid[k] for k in range(len(valid)) if (mask >> k) & 1)
                if all(
                    (w, v) not in tree.model.order or v in chosen
                    for w in chosen
                    for v in valid
                ):
                    options.append(chosen)
            slots.append((pred, args, options))
    return slots


def test_09_completion_outputs_validate():
    signature = Signature({"p": 1, "r": 0}, {})
    completions = 0
    rng = random.Random(2028)
    for parents in all_tree_shapes(4):
        base = make_tree(parents)
        for domains in _monotone_domain_assignments(base):
            skeleton = make_tree(parents, domains=domains)
            slots = _interpretation_slots(skeleton, domains)
            if len(skeleton.nodes) <= 3:
                choices = itertools.product(*(options for _, _, options in slots))
            else:
                choices = (
                    tuple(rng.choice(options) for _, _, options in slots)
                    for _ in range(10)
                )
            for choice in choices:
                facts = frozenset(
                    (n, pred, args)
                    for (pred, args, _), chosen in zip(slots, choice)
                    for n in chosen
                )
                tree = make_tree(parents, domains=domains, facts=facts)
                assert validate_model(tree.model) == []
                completion = complete_to_constant_domain(tree, signature)
                assert validate_model(completion.model) == []
                completions += 1
    assert completions > 1500
    passed(9, f"{completions} completions all pass model validation including heredity")


def test_10_relations_on_seeded_corpus():
    intuitionistic_sig = Signature(
        {"p": 1, "q": 1, "r": 0},
        {"not": builtin("not"), "and": builtin("and"), "imp": builtin("imp")},
    )
    records = check_relations_on_corpus(
        intuitionistic_sig, sequent_corpus(intuitionistic_sig, 2024, 60)
    )
    inconclusive = sum(1 for r in records if r.inconclusive)
    for record in records:
        if record.cd_refuted and not record.inconclusive:
            assert record.kripke_refuted
    assert inconclusive / len(records) < 0.05

    monotone_sig = Signature(
        {"p": 1, "q": 1, "r": 0}, {"and": builtin("and"), "or": builtin("or")}
    )
    records = check_relations_on_corpus(monotone_sig, sequent_corpus(monotone_sig, 2024, 60))
    inconclusive = sum(1 for r in records if r.inconclusive)
    refuted = 0
    for record in records:
        if record.cd_refuted and not record.inconclusive:
            assert record.kripke_refuted
            assert record.classical_refuted
            refuted += 1
    assert refuted > 0  # the sweep is not vacuous
    assert inconclusive / len(records) < 0.05
    passed(10, f"corpus sweeps consistent; inconclusive rate below 5% ({inconclusive}/60)")
