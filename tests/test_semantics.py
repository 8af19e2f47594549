import itertools
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from kripkebench import construct, semantics
from kripkebench.construct import complete_to_constant_domain, unravel_strict, unravel_stuttered
from kripkebench.semantics import (
    Evaluator,
    InvalidModelError,
    KripkeModel,
    compile_sequent,
    eval_formula,
    find_refutation,
    model_to_text,
    parse_model_text,
    reflexive_transitive_closure,
    refuting_points,
    validate_model,
)
from kripkebench.search import SearchBounds, enumerate_models, random_formula
from kripkebench.syntax import Sequent, Signature, free_vars, parse_formula, parse_sequent
from kripkebench.synthesize import separating_countermodel
from kripkebench.truthfun import BUILTINS, builtin

from util import (
    all_tree_shapes,
    closure_by_fixpoint,
    is_constant_domain,
    make_tree,
    naive_refutation,
    naive_value,
    one_world_model,
    order_pairs,
    random_model,
    random_tree_facts,
    reference_model_to_text,
    sharing_evaluator,
    successors,
    up_masks,
    validate_model_by_pairs,
)


@pytest.fixture
def sig():
    return Signature({"p": 1, "q": 1, "T": 0, "R": 0}, {"or": builtin("or")})


@pytest.fixture
def separating():
    return separating_countermodel()


def chain(*facts_by_world, domain=("a",)):
    """Ascending chain with the given 0-ary facts per world."""
    n = len(facts_by_world)
    worlds = tuple(f"w{i}" for i in range(n))
    return KripkeModel(
        worlds=worlds,
        up=reflexive_transitive_closure(
            worlds, [(worlds[i], worlds[i + 1]) for i in range(n - 1)]
        ),
        domains={w: domain for w in worlds},
        facts=frozenset(
            (worlds[i], pred, ()) for i, preds in enumerate(facts_by_world) for pred in preds
        ),
    )


class TestValidation:
    def test_separating_countermodel_is_valid(self, separating):
        assert validate_model(separating) == []

    def test_domain_monotonicity_violation(self):
        model = KripkeModel(
            worlds=("w0", "w1"),
            up=reflexive_transitive_closure(("w0", "w1"), [("w0", "w1")]),
            domains={"w0": ("a", "b"), "w1": ("a",)},
            facts=frozenset(),
        )
        assert any("monotone" in v for v in validate_model(model))

    def test_heredity_violation(self):
        model = KripkeModel(
            worlds=("w0", "w1"),
            up=reflexive_transitive_closure(("w0", "w1"), [("w0", "w1")]),
            domains={"w0": ("a",), "w1": ("a",)},
            facts=frozenset({("w0", "p", ())}),
        )
        assert any("heredity" in v for v in validate_model(model))

    def test_empty_domain_and_bad_fact(self):
        model = KripkeModel(
            worlds=("w0",),
            up=(1,),
            domains={"w0": ()},
            facts=frozenset({("w0", "p", ("ghost",))}),
        )
        violations = validate_model(model)
        assert any("empty" in v for v in violations)
        assert any("ghost" in v for v in violations)

    def test_missing_reflexivity_and_transitivity(self):
        model = KripkeModel(
            worlds=("w0", "w1", "w2"),
            up=up_masks(("w0", "w1", "w2"), [("w0", "w1"), ("w1", "w2")]),
            domains={w: ("a",) for w in ("w0", "w1", "w2")},
            facts=frozenset(),
        )
        violations = validate_model(model)
        assert any("reflexive" in v for v in violations)
        assert any("transitive" in v for v in violations)

    def test_inconsistent_predicate_arity(self):
        model = KripkeModel(
            worlds=("w0",),
            up=(1,),
            domains={"w0": ("a",)},
            facts=frozenset({("w0", "p", ()), ("w0", "p", ("a",))}),
        )
        assert any("inconsistent" in v for v in validate_model(model))

    VIOLATION_KINDS = (
        "undeclared world", "not reflexive", "not transitive", "lists duplicate", "is empty",
        "not monotone", "inconsistent arities", "outside D", "heredity", "exactly the declared",
    )

    def test_validation_matches_the_pair_scan_on_random_relations(self):
        # relations that need not be orders, facts and domains at undeclared
        # worlds, duplicate or missing domain elements and mixed arities
        rng = random.Random(2026)
        seen = set()
        for _ in range(600):
            worlds = tuple(f"w{i}" for i in range(rng.randint(1, 5)))
            names = worlds + ("u",)
            pairs = [(a, b) for a in worlds for b in worlds if rng.random() < 0.3]
            up = up_masks(worlds, pairs)
            if rng.random() < 0.5:
                up = reflexive_transitive_closure(worlds, pairs)
            domains = {w: tuple(rng.choices("abc", k=rng.randint(0, 3))) for w in worlds}
            if rng.random() < 0.05:
                domains["u"] = ("a",)
            facts = frozenset(
                (rng.choice(names), rng.choice("pq"), tuple(rng.choices("abc", k=rng.randint(0, 2))))
                for _ in range(rng.randint(0, 8))
            )
            model = KripkeModel(worlds, up, domains, facts)
            violations = validate_model(model)
            assert violations == validate_model_by_pairs(model)
            seen |= {kind for kind in self.VIOLATION_KINDS for v in violations if kind in v}
        assert seen == set(self.VIOLATION_KINDS)

    def test_long_chain_validates_quickly(self):
        # a walk over each successor of each order pair is cubic on a chain
        worlds = tuple(f"w{i}" for i in range(600))
        up = tuple((1 << 600) - (1 << i) for i in range(600))
        model = KripkeModel(worlds, up, {w: ("a",) for w in worlds}, frozenset())
        started = time.perf_counter()
        assert validate_model(model) == []
        assert time.perf_counter() - started < 2


class TestClosure:
    def test_matches_the_set_fixpoint(self):
        # random relations on up to 8 worlds, cycles and self-loops included,
        # and the covers read from each closure
        rng = random.Random(41)
        for _ in range(2000):
            worlds = tuple(f"w{i}" for i in range(rng.randint(0, 8)))
            pairs = [(a, b) for a in worlds for b in worlds if rng.random() < 0.2]
            up = reflexive_transitive_closure(worlds, pairs)
            model = KripkeModel(worlds, up, dict.fromkeys(worlds, ("a",)), frozenset())
            order = model.order
            assert order == closure_by_fixpoint(worlds, pairs)
            above = {w: {v for v in worlds if (w, v) in order and v != w} for w in worlds}
            between = {w: set().union(*(above[u] for u in above[w])) for w in worlds}
            assert construct._covering_relation(worlds, up) == {
                w: tuple(v for v in worlds if v in above[w] - between[w]) for w in worlds
            }

    def test_long_chain_closes_quickly(self):
        # the set fixpoint is cubic on a chain
        worlds = tuple(f"w{i}" for i in range(1000))
        started = time.perf_counter()
        up = reflexive_transitive_closure(worlds, zip(worlds, worlds[1:]))
        assert time.perf_counter() - started < 3
        assert sum(mask.bit_count() for mask in up) == 1000 * 1001 // 2


class TestConstantDomain:
    def test_one_world(self):
        assert is_constant_domain(one_world_model(("a",), []))

    def test_separating_countermodel_is_not(self, separating):
        assert not is_constant_domain(separating)

    def test_equal_chain(self):
        assert is_constant_domain(chain((), (), domain=("a", "b")))


class TestEvaluation:
    def test_atom_reads_interpretation(self):
        model = one_world_model(("a", "b"), [("b2", ("a", "b"))])
        sig = Signature({"b2": 2}, {})
        formula = parse_formula("b2(x, y)", sig)
        assert eval_formula(model, sig, "w0", {"x": "a", "y": "b"}, formula) == 1
        assert eval_formula(model, sig, "w0", {"x": "b", "y": "a"}, formula) == 0

    def test_separation_values_at_root(self, separating, sig):
        phi = parse_formula("forall x. or(p(x), q(x))", sig)
        psi = parse_formula("or(forall x. p(x), exists x. q(x))", sig)
        assert eval_formula(separating, sig, "w1", {}, phi) == 1
        assert eval_formula(separating, sig, "w1", {}, psi) == 0

    def test_one_world_connective_is_truth_table(self):
        for facts in ([], [("p", ())], [("q", ())], [("p", ()), ("q", ())]):
            model = one_world_model(("a",), facts)
            sig = Signature({"p": 0, "q": 0}, {"or": builtin("or")})
            formula = parse_formula("or(p, q)", sig)
            expected = 1 if facts else 0
            assert eval_formula(model, sig, "w0", {}, formula) == expected

    def test_unbound_variable(self, separating, sig):
        with pytest.raises(ValueError):
            eval_formula(separating, sig, "w1", {}, parse_formula("p(x)", sig))

    def test_element_outside_domain(self, separating, sig):
        with pytest.raises(ValueError):
            eval_formula(separating, sig, "w1", {"x": "a2"}, parse_formula("p(x)", sig))

    def test_value_ignores_irrelevant_bindings(self, separating, sig):
        formula = parse_formula("p(x)", sig)
        lean = eval_formula(separating, sig, "w1", {"x": "a1"}, formula)
        padded = eval_formula(separating, sig, "w1", {"x": "a1", "z": "a1"}, formula)
        assert lean == padded

    def test_memoized_evaluator_matches_fresh(self, sig):
        rng = random.Random(7)
        for _ in range(20):
            model = random_model(rng)
            shared = Evaluator(model, full_sig())
            for _ in range(10):
                formula = random_formula(rng, full_sig(), 3, ("x",))
                for w in model.worlds:
                    for a in model.domains[w]:
                        rho = {"x": a}
                        assert shared.value(w, rho, formula) == eval_formula(
                            model, full_sig(), w, rho, formula
                        )


def full_sig():
    return Signature({"p": 1, "q": 1, "r": 0}, dict(BUILTINS))


class TestSequentValue:
    def test_both_sides_empty(self, separating, sig):
        assert Evaluator(separating, sig).sequent_value("w1", {}, Sequent((), ())) == 0

    def test_separating_sequent_refuted_at_root(self, separating, sig):
        s = parse_sequent(
            "T, forall x. or(p(x), q(x)) => or(forall x. p(x), exists x. q(x))", sig
        )
        evaluator = Evaluator(separating, sig)
        assert evaluator.sequent_value("w1", {}, s) == 0
        assert evaluator.sequent_value("w2", {}, s) == 1

    def test_shared_formula_never_zero(self):
        rng = random.Random(3)
        sig = full_sig()
        for _ in range(30):
            model = random_model(rng)
            formula = random_formula(rng, sig, 2, ("x",))
            s = Sequent((formula,), (formula,))
            evaluator = Evaluator(model, sig)
            for w in model.worlds:
                for a in model.domains[w]:
                    assert evaluator.sequent_value(w, {"x": a}, s) == 1


class TestModelValidates:
    def test_counterwitness_for_separating_sequent(self, separating, sig):
        s = parse_sequent(
            "T, forall x. or(p(x), q(x)) => or(forall x. p(x), exists x. q(x))", sig
        )
        assert find_refutation(separating, sig, s) == ("w1", {})
        assert find_refutation(separating, sig, s) is not None

    def test_identity_sequent_everywhere(self):
        rng = random.Random(5)
        sig = full_sig()
        s = parse_sequent("p(x) => p(x)", sig)
        for _ in range(25):
            assert find_refutation(random_model(rng), sig, s) is None

    def test_one_world_classical_fact(self):
        model = one_world_model(("a",), [("p", ())])
        sig = Signature({"p": 0}, {})
        assert find_refutation(model, sig, parse_sequent("=> p", sig)) is None

    def test_witness_enumeration_order(self):
        # two worlds both refute: the first declared world wins
        model = chain((), ())
        sig = Signature({"t": 0}, {})
        assert find_refutation(model, sig, parse_sequent("=> t", sig)) == ("w0", {})


def classical_value(sig, domain, facts, assignment, formula):
    """The formula's value in a classical structure, by `refuting_points`
    on its one-world model: 0 exactly where the point refutes `=> formula`."""
    point = ("w0", {x: assignment[x] for x in free_vars(formula)})
    refuted = point in refuting_points(one_world_model(domain, facts), sig, Sequent((), (formula,)))
    return 0 if refuted else 1


class TestClassicalEval:
    def test_double_negation(self):
        sig = Signature({"p": 0}, {"not": builtin("not")})
        formula = parse_formula("not(not(p))", sig)
        for facts in (frozenset(), frozenset({("p", ())})):
            expected = 1 if facts else 0
            assert classical_value(sig, ("a",), facts, {}, formula) == expected

    def test_matches_kripke_on_one_world_models(self):
        rng = random.Random(11)
        sig = full_sig()
        for _ in range(100):
            model = random_model(rng, max_worlds=1)
            world = model.worlds[0]
            flat = frozenset((p, args) for _, p, args in model.facts)
            for _ in range(5):
                formula = random_formula(rng, sig, 3, ("x",))
                for a in model.domains[world]:
                    rho = {"x": a}
                    assert classical_value(
                        sig, model.domains[world], flat, rho, formula
                    ) == eval_formula(model, sig, world, rho, formula)

    def test_quantifiers_reduce_to_domain_sweep(self):
        sig = Signature({"p": 1}, {})
        facts = frozenset({("p", ("a",)), ("p", ("b",))})
        all_p = parse_formula("forall x. p(x)", sig)
        some_p = parse_formula("exists x. p(x)", sig)
        assert classical_value(sig, ("a", "b"), facts, {}, all_p) == 1
        assert classical_value(sig, ("a", "b", "c"), facts, {}, all_p) == 0
        assert classical_value(sig, ("a", "b", "c"), facts, {}, some_p) == 1


class TestHeredity:
    def test_values_monotone_along_order(self):
        rng = random.Random(13)
        sig = full_sig()
        for _ in range(40):
            model = random_model(rng, allow_cycles=True)
            evaluator = Evaluator(model, sig)
            for _ in range(8):
                formula = random_formula(rng, sig, 3, ("x",))
                for w in model.worlds:
                    for v in successors(model, w):
                        for a in model.domains[w]:
                            rho = {"x": a}
                            assert evaluator.value(w, rho, formula) <= evaluator.value(
                                v, rho, formula
                            )


class TestEvaluatorAgainstNaiveRecursion:
    def test_memoized_evaluator_matches_direct_recursion(self):
        rng = random.Random(23)
        sig = full_sig()
        for _ in range(40):
            model = random_model(rng, allow_cycles=True)
            evaluator = Evaluator(model, sig)
            for _ in range(8):
                formula = random_formula(rng, sig, 3, ("x", "y"))
                variables = sorted(free_vars(formula))
                for w in model.worlds:
                    import itertools as it

                    for combo in it.product(model.domains[w], repeat=len(variables)):
                        rho = dict(zip(variables, combo))
                        assert evaluator.value(w, rho, formula) == naive_value(
                            model, sig, w, rho, formula
                        )

    def test_refutation_scan_matches_naive_scan(self):
        # random sequents over x and y are refuted at several worlds and
        # assignments of one model, so the first point found depends on the
        # scan order
        rng = random.Random(29)
        sig = full_sig()

        def side():
            return tuple(
                random_formula(rng, sig, 2, ("x", "y")) for _ in range(rng.randint(0, 2))
            )

        refuted = 0
        for _ in range(60):
            model = random_model(rng, allow_cycles=True)
            for _ in range(4):
                s = Sequent(side(), side())
                witness = find_refutation(model, sig, s)
                assert witness == naive_refutation(model, sig, s)
                refuted += witness is not None
        assert refuted > 0

    def test_refuting_points_match_naive_scan(self):
        # every refuting point in scan order, not only the first one
        rng = random.Random(41)
        sig = full_sig()

        def side():
            return tuple(
                random_formula(rng, sig, 3, ("x", "y")) for _ in range(rng.randint(0, 2))
            )

        refuted = 0
        for _ in range(60):
            model = random_model(rng, allow_cycles=True)
            for _ in range(4):
                s = Sequent(side(), side())
                points = list(refuting_points(model, sig, s))
                variables = sorted(set().union(*map(free_vars, s.formulas())))
                want = []
                for w in model.worlds:
                    for combo in itertools.product(model.domains[w], repeat=len(variables)):
                        rho = dict(zip(variables, combo))
                        if all(naive_value(model, sig, w, rho, f) for f in s.antecedent) and not any(
                            naive_value(model, sig, w, rho, f) for f in s.succedent
                        ):
                            want.append((w, rho))
                assert points == want
                assert next(iter(points), None) == find_refutation(model, sig, s)
                refuted += bool(points)
        assert refuted > 0

    def test_refuting_points_reach_no_part_of_the_labelling(self, monkeypatch, separating, sig):
        def unreachable(*args, **kwargs):
            raise AssertionError("the independent recursion reached the labelling evaluator")

        for name in (
            "compile_sequent", "CompiledFormulas", "Frame", "Evaluator", "eval_formula",
            "find_refutation",
        ):
            monkeypatch.setattr(semantics, name, unreachable)
        s = parse_sequent(
            "T, forall x. or(p(x), q(x)) => or(forall x. p(x), exists x. q(x))", sig
        )
        assert list(refuting_points(separating, sig, s)) == [("w1", {})]

    def test_refuting_points_bounded_on_nested_quantifiers(self):
        # without the memo the recursion grows about 5x per quantifier here
        worlds = tuple(f"w{i}" for i in range(8))
        chain_up = reflexive_transitive_closure(worlds, zip(worlds, worlds[1:]))
        model = KripkeModel(worlds, chain_up, {w: ("a", "b") for w in worlds}, frozenset())
        sig = Signature({"p": 1, "r": 0}, {"imp": builtin("imp")})
        body = "imp(p(x1), p(x1))"
        for i in range(7, 0, -1):
            body = f"forall x{i}. {body}"
        started = time.perf_counter()
        assert next(refuting_points(model, sig, parse_sequent(f"{body} => r", sig))) == ("w0", {})
        assert time.perf_counter() - started < 1

    def test_compiled_sequent_across_frames(self):
        # one compiled sequent serves models that interleave frames, and the
        # in-place change to `shared` must show
        rng = random.Random(37)
        sig = full_sig()
        worlds = ("w0", "w1")
        up = reflexive_transitive_closure(worlds, [("w0", "w1")])
        growing = {"w0": ("a0",), "w1": ("a0", "a1")}
        constant = {"w0": ("a0", "a1"), "w1": ("a0", "a1")}
        facts = frozenset({("w0", "p", ("a0",)), ("w1", "p", ("a0",)), ("w1", "q", ("a1",))})
        shared = dict(growing)
        models = [
            KripkeModel(worlds, up, growing, facts),
            KripkeModel(worlds, up, constant, facts),  # equal order, other domains
            KripkeModel(  # equal contents, distinct objects
                tuple(list(worlds)), tuple(list(up)), dict(growing), frozenset(facts)
            ),
            random_model(rng),
            KripkeModel(worlds, up, growing, facts | {("w1", "r", ())}),
            random_model(rng, allow_cycles=True),
            KripkeModel(worlds, up, shared, facts),
        ]

        def side():
            return tuple(
                random_formula(rng, sig, 2, ("x", "y")) for _ in range(rng.randint(0, 2))
            )

        refuted = 0
        for _ in range(30):
            s = Sequent(side(), side())
            compiled = compile_sequent(sig, s)
            shared.update(growing)
            for model in models:
                hit = bool(sharing_evaluator(compiled.formulas, model).refuted_models(compiled))
                assert hit == (naive_refutation(model, sig, s) is not None)
                refuted += hit
            shared["w0"] = ("a0", "a1")
            hit = bool(sharing_evaluator(compiled.formulas, models[-1]).refuted_models(compiled))
            assert hit == (naive_refutation(models[-1], sig, s) is not None)
        assert refuted > 0


class TestModelFiles:
    def test_round_trip(self, separating, sig):
        text = model_to_text(separating, sig)
        model, parsed_sig = parse_model_text(text)
        assert model == separating
        assert parsed_sig.predicates == {"p": 1, "q": 1, "T": 0, "R": 0}
        assert model_to_text(model, parsed_sig) == text

    def test_round_trip_on_random_models(self):
        rng = random.Random(31)
        for _ in range(40):
            model = random_model(rng, allow_cycles=True)
            reloaded, _ = parse_model_text(model_to_text(model))
            assert reloaded == model

    def test_loader_closes_generating_relation(self):
        text = (
            "worlds: w0 w1 w2\n"
            "order: w0 w1\n"
            "order: w1 w2\n"
            "domain w0: a\ndomain w1: a\ndomain w2: a\n"
        )
        model, _ = parse_model_text(text)
        assert ("w0", "w2") in model.order
        assert ("w0", "w0") in model.order

    def test_facts_default_to_zero(self):
        model, sig = parse_model_text("worlds: w0\ndomain w0: a\nfact w0: p(a)\n")
        assert sig.predicates == {"p": 1}
        assert ("w0", "p", ("a",)) in model.facts
        assert ("w0", "q", ("a",)) not in model.facts

    def test_invalid_model_rejected(self):
        with pytest.raises(InvalidModelError):
            parse_model_text(
                "worlds: w0 w1\norder: w0 w1\ndomain w0: a b\ndomain w1: a\n"
            )
        with pytest.raises(InvalidModelError):
            parse_model_text("worlds: w0\ndomain w0: a\nfact w1: p(a)\n")
        with pytest.raises(InvalidModelError):
            parse_model_text("worlds: w0\ndomain w0: a\nnonsense: x\n")

    def test_order_pair_at_undeclared_world_rejected(self):
        # a model stores up-set masks, which have no bit for such a world
        message = r"^order pair \(w0, u\) mentions an undeclared world$"
        with pytest.raises(InvalidModelError, match=message):
            parse_model_text("worlds: w0\norder: w0 u\ndomain w0: a\n")

    @pytest.mark.parametrize(
        "fact, argument",
        [("p(a,)", "''"), ("p(, a)", "''"), ("p(a b)", "'a b'"), ("p(a,\tb c)", "'b c'")],
    )
    def test_fact_argument_that_is_no_word_rejected_with_its_line(self, fact, argument):
        # no domain element is empty or holds whitespace, so such a fact
        # could only fail validation later, without a line number
        text = f"pred p {fact.count(',') + 1}\nworlds: w0\ndomain w0: a b\nfact w0: {fact}\n"
        message = f"^line 4: fact argument {argument} is empty or contains whitespace$"
        with pytest.raises(InvalidModelError, match=message):
            parse_model_text(text)

    def test_declared_arity_enforced(self):
        with pytest.raises(InvalidModelError):
            parse_model_text(
                "pred p 2\nworlds: w0\ndomain w0: a\nfact w0: p(a)\n"
            )

    def test_long_chain_loads_quickly(self):
        # a scan over pairs of the 20,100 order pairs here took about 17 s
        worlds = [f"w{i}" for i in range(200)]
        lines = ["worlds: " + " ".join(worlds)]
        lines += [f"order: {a} {b}" for a, b in zip(worlds, worlds[1:])]
        lines += [f"domain {w}: a" for w in worlds]
        lines += [f"fact {w}: r" for w in worlds[100:]]
        started = time.monotonic()
        model, _ = parse_model_text("\n".join(lines) + "\n")
        assert time.monotonic() - started < 5
        assert len(model.order) == 200 * 201 // 2

    def test_zero_ary_fact_spellings(self):
        model, _ = parse_model_text("worlds: w0\ndomain w0: a\nfact w0: T\n")
        model2, _ = parse_model_text("worlds: w0\ndomain w0: a\nfact w0: T()\n")
        assert model.facts == model2.facts == frozenset({("w0", "T", ())})


class TestWriterMatchesReference:
    """`model_to_text` and the reference both sort every fact by world,
    predicate and argument names; the texts must agree on every kind of
    model the program writes."""

    PREDICATES = {"r": 0, "p": 1, "e": 2}

    def test_completions(self):
        # q is declared and has no facts; on shape (0, 0), a root with two
        # leaves of four elements gives 4 x 4 + 1 = 17 functions, so F10
        # must come before F2
        sig = Signature({**self.PREDICATES, "q": 1}, {})
        rng = random.Random(2032)
        most = 0
        for parents in all_tree_shapes(4):
            wide = parents == (0, 0)
            domains = {"n0": ("a",)}
            for child, parent in enumerate(parents, start=1):
                domains[f"n{child}"] = ("a", "b", "c", "d") if wide else rng.choice(
                    [domains[f"n{parent}"], ("a", "b")]
                )
            tree = make_tree(parents, domains)
            facts = random_tree_facts(rng, tree, self.PREDICATES, 0.4)
            tree = make_tree(parents, domains, facts)
            completion = complete_to_constant_domain(tree, sig)
            most = max(most, len(completion.functions))
            text = model_to_text(completion.model, sig)
            assert text == reference_model_to_text(completion.model, sig)
        assert most >= 11

    def test_parsed_unravelled_and_decoded_models(self, sig):
        rng = random.Random(2033)
        models = []
        for _ in range(30):
            model = random_model(rng, predicates={**self.PREDICATES, "q": 1})
            models.append(model)
            models.append(unravel_strict(model, model.worlds[0]).model)
            models.append(unravel_stuttered(model, model.worlds[-1], 3).model)
            # the facts in shuffled order, read back by the parser
            lines = model_to_text(model).splitlines()
            rng.shuffle(lines)
            parsed, _ = parse_model_text("\n".join(lines) + "\n")
            assert parsed == model
            models.append(parsed)
        bounds = SearchBounds(2, 2, "poset")
        models += list(itertools.islice(enumerate_models(sig, bounds), 0, 3000, 7))
        assert {p for m in models for _, p, _ in m.facts} >= {"r", "p", "e", "T"}
        for model in models:
            assert model_to_text(model, sig) == reference_model_to_text(model, sig)
            assert model_to_text(model) == reference_model_to_text(model)


# Names that share prefixes and differ in case, for the writer's sort order:
# `a` before `a0` before `a_`, `F10` before `F2`, `P` before `p` before `p_x`.
_WORLD_NAMES = ("a", "a_", "a0", "A", "F1", "F10", "F2", "w")
_ELEMENT_NAMES = ("a", "a_", "a0", "A", "b", "F1", "F10", "F2", "Z", "z_9")
_PREDICATE_NAMES = ("p", "p_x", "p0", "P", "F1", "q")


@st.composite
def _named_models(draw, element_names=_ELEMENT_NAMES):
    """A valid model over the given names: a random preorder, domains grown
    up the order, and random atoms of 0-ary, unary and binary predicates,
    each made true at one world and every world above it."""
    unique = {"min_size": 1, "max_size": 4, "unique": True}
    worlds = tuple(draw(st.lists(st.sampled_from(_WORLD_NAMES), **unique)))
    elements = draw(st.lists(st.sampled_from(element_names), **unique))
    predicates = draw(
        st.dictionaries(st.sampled_from(_PREDICATE_NAMES), st.integers(0, 2), min_size=1)
    )
    pairs = draw(st.lists(st.tuples(st.sampled_from(worlds), st.sampled_from(worlds))))
    up = reflexive_transitive_closure(worlds, pairs)
    order = order_pairs(worlds, up)
    base = {w: set(draw(st.lists(st.sampled_from(elements), min_size=1))) for w in worlds}
    domains = {
        w: tuple(e for e in elements if any(e in base[v] for v in worlds if (v, w) in order))
        for w in worlds
    }
    atoms = draw(
        st.lists(
            st.tuples(
                st.sampled_from(worlds),
                st.sampled_from(sorted(predicates)),
                st.lists(st.sampled_from(elements), min_size=2, max_size=2),
            ),
            max_size=40,
        )
    )
    facts = set()
    for w, pred, args in atoms:
        args = tuple(args[: predicates[pred]])
        if set(args) <= set(domains[w]):
            facts |= {(v, pred, args) for v in worlds if (w, v) in order}
    model = KripkeModel(worlds, up, domains, frozenset(facts))
    assert validate_model(model) == []
    return model


class TestWriterSortOrder:
    """`model_to_text` sorts facts by `(pred, args)`, whatever characters the
    names hold, as the reference does."""

    @settings(max_examples=300, deadline=None)
    @given(_named_models())
    def test_identifier_names(self, model):
        assert model_to_text(model) == reference_model_to_text(model)

    # '!' and '+' sort before ',', where text order and tuple order part
    @settings(max_examples=300, deadline=None)
    @given(_named_models(_ELEMENT_NAMES + ("a!", "a+", "a-")))
    def test_names_with_characters_before_the_separators(self, model):
        assert model_to_text(model) == reference_model_to_text(model)

    def test_a_name_before_the_separators_changes_the_text_order(self):
        # p(a!, b) sorts before p(a, b) as text, after it as a tuple
        model, _ = parse_model_text(
            "worlds: w\ndomain w: a a! b\nfact w: p(a, b)\nfact w: p(a!, b)\n"
        )
        assert model_to_text(model).endswith("fact w: p(a, b)\nfact w: p(a!, b)\n")


# Lines shaped like model-file directives, so that the fuzzer reaches the
# parser's branches and not only its "unknown directive" error.
_MODEL_TOKENS = st.sampled_from(
    ["worlds:", "order:", "domain", "fact", "pred", "conn", "builtin", ":", "(", ")", ",",
     "#", "w0", "w1", "a", "b", "p", "T", "or", "p(a)", "T()", "-1", "0", "1", "2"]
)
_MODEL_LINE = st.one_of(
    st.lists(st.one_of(_MODEL_TOKENS, st.text(max_size=3)), max_size=5).map(" ".join),
    st.tuples(
        st.sampled_from(["pred", "conn"]),
        st.sampled_from(["p", "c", "or"]),
        st.integers(-2, 3).map(str),
        st.sampled_from(["", "0", "01", "0110", "builtin"]),
    ).map(" ".join),
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), st.lists(_MODEL_LINE, max_size=6).map("\n".join)))
@example("worlds: w0\ndomain w0: a\n: oops")
@example("conn c -1 0")
@example("pred p -1")
def test_model_parser_returns_a_model_or_raises_invalid_model_error(text):
    try:
        model, signature = parse_model_text(text)
    except InvalidModelError:
        return
    assert validate_model(model) == []
    assert isinstance(signature, Signature)
