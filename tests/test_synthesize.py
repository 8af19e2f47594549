import pytest
from hypothesis import given, strategies as st

from kripkebench.search import SearchBounds, ValidUpToBounds, enumerate_models
from kripkebench.semantics import (
    Evaluator,
    eval_formula,
    reflexive_transitive_closure,
    validate_model,
)
from kripkebench.semantics import KripkeModel
from kripkebench.syntax import Atom, Conn, Forall, Signature, render_sequent
from kripkebench.truthfun import (
    TruthVector,
    builtin,
    enumerate_truth_functions,
    is_supermultiplicative,
    tv_join,
    tv_meet,
)
from kripkebench.synthesize import (
    biconditional,
    build_sequent,
    case_select,
    find_witness,
    format_certificate,
    separating_countermodel,
    star_vectors,
    synthesis_signature,
    synthesize,
)

from util import successors, truth_function_from_bits


def vec(*bits):
    return TruthVector.of(*bits)


# frozen tables exercising cases C and D, checked against the conditions below
CASE_C_TABLE = truth_function_from_bits("01100011")
CASE_D_TABLE = truth_function_from_bits("01100001")
CASE_E_TABLE = truth_function_from_bits("01101001")


class TestWitness:
    def test_builtin_examples(self):
        assert find_witness(builtin("or")) == (vec(0, 1), vec(1, 0))
        assert find_witness(builtin("xor")) == (vec(0, 1), vec(1, 0))
        with pytest.raises(ValueError):
            find_witness(builtin("and"))

    def test_lexicographic_tie_break(self):
        assert find_witness(CASE_E_TABLE) == (vec(0, 0, 1), vec(0, 1, 0))


class TestStarVectors:
    def test_no_joint_zero_keeps_vectors(self):
        stars = star_vectors(vec(0, 1), vec(1, 0))
        assert stars.a_star == vec(0, 1) and stars.b_star == vec(1, 0)

    def test_joint_zero_positions_raised(self):
        stars = star_vectors(vec(0, 0, 1), vec(0, 1, 0))
        assert stars.a_star == vec(1, 0, 1) and stars.b_star == vec(1, 1, 0)

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
            )
        )
    )
    def test_algebra(self, pair):
        a, b = TruthVector(tuple(pair[0])), TruthVector(tuple(pair[1]))
        stars = star_vectors(a, b)
        top = TruthVector.ones(len(a))
        assert tv_meet(a, stars.b_star) == tv_meet(stars.a_star, b) == tv_meet(a, b)
        assert tv_join(a, stars.b_star) == top
        assert tv_join(stars.a_star, b) == top
        assert tv_join(stars.a_star, stars.b_star) == top


class TestCaseSelection:
    @pytest.mark.parametrize(
        "tf,expected",
        [
            (builtin("xor"), "A"),
            (builtin("or"), "B"),
            (CASE_C_TABLE, "C"),
            (CASE_D_TABLE, "D"),
            (CASE_E_TABLE, "E"),
        ],
    )
    def test_examples(self, tf, expected):
        a, b = find_witness(tf)
        assert case_select(tf, a, b, star_vectors(a, b)) == expected

    def test_case_e_conditions_from_direct_lookups(self):
        tf = CASE_E_TABLE
        a, b = find_witness(tf)
        stars = star_vectors(a, b)
        assert tf(stars.a_star) == 0 and tf(stars.b_star) == 0
        assert tf(tv_meet(stars.a_star, stars.b_star)) == 1
        assert tf(TruthVector.ones(3)) == 1

    def test_rejects_non_witness(self):
        with pytest.raises(ValueError):
            case_select(builtin("or"), vec(1, 1), vec(1, 1), star_vectors(vec(1, 1), vec(1, 1)))

    def test_exactly_one_case_fires_for_every_nonsupermultiplicative_function(self):
        for arity in (2, 3):
            for tf in enumerate_truth_functions(arity):
                supermultiplicative, witness = is_supermultiplicative(tf)
                if supermultiplicative:
                    continue
                a, b = witness
                stars = star_vectors(a, b)
                case = case_select(tf, a, b, stars)
                top = TruthVector.ones(arity)
                conditions = {
                    "A": tf(top) == 0,
                    "B": tf(top) == 1 and tf(stars.a_star) == 1,
                    "C": tf(top) == 1 and tf(stars.a_star) == 0 and tf(stars.b_star) == 1,
                    "D": tf(top) == 1
                    and tf(stars.a_star) == 0
                    and tf(stars.b_star) == 0
                    and tf(tv_meet(stars.a_star, stars.b_star)) == 0,
                    "E": tf(top) == 1
                    and tf(stars.a_star) == 0
                    and tf(stars.b_star) == 0
                    and tf(tv_meet(stars.a_star, stars.b_star)) == 1,
                }
                assert conditions[case]
                assert sum(conditions.values()) == 1


class TestBuildSequent:
    def test_disjunction_template(self):
        certificate = synthesize("or", builtin("or"), cd_bounds=None)
        assert (
            render_sequent(certificate.sequent)
            == "T, forall x. or(p(x), q(x)) => or(forall x. p(x), exists x. q(x))"
        )

    def test_exclusive_disjunction_template(self):
        certificate = synthesize("xor", builtin("xor"), cd_bounds=None)
        assert (
            render_sequent(certificate.sequent)
            == "T, forall x. xor(p(x), q(x)) => xor(forall x. p(x), exists x. q(x))"
        )

    def test_case_e_adds_two_equivalence_antecedents(self):
        certificate = synthesize("c3", CASE_E_TABLE, cd_bounds=None)
        assert certificate.case == "E"
        assert len(certificate.sequent.antecedent) == 4
        forall_p = Forall("x", Atom("p", ("x",)))
        forall_q = Forall("x", Atom("q", ("x",)))
        r = Atom("R")
        # theta positions for stars (1,0,1)/(1,1,0): T at (1,1), alpha at (0,1), beta at (1,0)
        assert Conn("c3", (Atom("T"), r, forall_p)) in certificate.sequent.antecedent
        assert Conn("c3", (Atom("T"), r, forall_q)) in certificate.sequent.antecedent

    def test_joint_zero_position_rejected_in_case_b(self):
        names = {"p": "p", "q": "q", "T": "T", "R": "R"}
        with pytest.raises(ValueError):
            build_sequent("or", builtin("or"), "B", vec(0, 0), vec(0, 1), names)


class TestBiconditional:
    def test_shape_precondition(self):
        with pytest.raises(ValueError):
            biconditional("or", builtin("or"), Atom("A"), Atom("B"))

    def _contract_signature(self):
        return Signature(
            {"T": 0, "A": 0, "B": 0}, {"c3": CASE_E_TABLE}
        )

    def test_semantic_contract_on_enumerated_models(self):
        # exhaustive at |W| <= 3, |D| <= 2 over tree orders
        sig = self._contract_signature()
        formula = biconditional("c3", CASE_E_TABLE, Atom("A"), Atom("B"))
        checked = 0
        for model in enumerate_models(sig, SearchBounds(3, 2, "tree")):
            evaluator = Evaluator(model, sig)
            for w in model.worlds:
                if evaluator.value(w, {}, Atom("T")) != 1:
                    continue
                agree_above = all(
                    evaluator.value(v, {}, Atom("A")) == evaluator.value(v, {}, Atom("B"))
                    for v in successors(model, w)
                )
                assert (evaluator.value(w, {}, formula) == 1) == agree_above
                checked += 1
        assert checked > 100

    def test_identical_arguments_wherever_top_holds(self):
        sig = self._contract_signature()
        formula = biconditional("c3", CASE_E_TABLE, Atom("A"), Atom("A"))
        for model in enumerate_models(sig, SearchBounds(2, 1, "tree")):
            evaluator = Evaluator(model, sig)
            for w in model.worlds:
                if evaluator.value(w, {}, Atom("T")) == 1:
                    assert evaluator.value(w, {}, formula) == 1

    def test_flip_on_chain_breaks_equivalence_at_root(self):
        sig = self._contract_signature()
        worlds = ("w0", "w1")
        model = KripkeModel(
            worlds=worlds,
            up=reflexive_transitive_closure(worlds, [("w0", "w1")]),
            domains={w: ("a",) for w in worlds},
            facts=frozenset(
                {("w0", "T", ()), ("w1", "T", ()), ("w1", "A", ()), ("w0", "B", ()), ("w1", "B", ())}
            ),
        )
        formula = biconditional("c3", CASE_E_TABLE, Atom("A"), Atom("B"))
        assert eval_formula(model, sig, "w0", {}, formula) == 0
        assert eval_formula(model, sig, "w1", {}, formula) == 1


class TestSeparatingCountermodel:
    def test_validates(self):
        assert validate_model(separating_countermodel()) == []

    def test_quantified_values_at_root(self):
        sig = Signature({"p": 1, "q": 1, "T": 0, "R": 0}, {})
        model = separating_countermodel()
        assert eval_formula(model, sig, "w1", {}, Forall("x", Atom("p", ("x",)))) == 0
        from kripkebench.syntax import Exists

        assert eval_formula(model, sig, "w1", {}, Exists("x", Atom("q", ("x",)))) == 0

    def test_argument_vector_at_upper_world_is_first_witness(self):
        certificate = synthesize("xor", builtin("xor"), cd_bounds=None)
        model, sig = certificate.model, certificate.signature
        evaluator = Evaluator(model, sig)
        phi = next(
            f for f in certificate.sequent.antecedent if isinstance(f, Forall)
        )
        inner = phi.body
        values = tuple(
            evaluator.value("w2", {"x": "a2"}, arg) for arg in inner.args
        )
        assert TruthVector(values) == certificate.witness_a


class TestSynthesize:
    def test_supermultiplicative_input_rejected(self):
        with pytest.raises(ValueError):
            synthesize("and", builtin("and"))

    def test_certificate_fields_for_or(self):
        certificate = synthesize("or", builtin("or"), cd_bounds=None)
        assert certificate.case == "B"
        assert certificate.refutation_world == "w1"
        assert certificate.refutation_assignment == {}
        assert all(v == 1 for _, v in certificate.antecedent_values)
        assert all(v == 0 for _, v in certificate.succedent_values)

    def test_refutation_rechecks_via_evaluator(self):
        for name, tf in (("or", builtin("or")), ("xor", builtin("xor")), ("c3", CASE_E_TABLE)):
            certificate = synthesize(name, tf, cd_bounds=None)
            assert (
                Evaluator(certificate.model, certificate.signature).sequent_value(
                    "w1", {}, certificate.sequent
                )
                == 0
            )

    def test_cd_verdict_at_default_bounds(self):
        certificate = synthesize("xor", builtin("xor"))
        assert isinstance(certificate.cd_verdict, ValidUpToBounds)

    @pytest.mark.parametrize("tf", [CASE_C_TABLE, CASE_D_TABLE, CASE_E_TABLE])
    def test_ternary_templates_survive_bounded_cd_search(self, tf):
        bounds = SearchBounds(2, 2, "tree")
        certificate = synthesize("c3", tf, cd_bounds=bounds)
        assert isinstance(certificate.cd_verdict, ValidUpToBounds)

    def test_connective_shadowing_role_name_renames_predicate(self):
        certificate = synthesize("T", builtin("or"), cd_bounds=None)
        assert "T1" in certificate.signature.predicates
        assert "T" not in certificate.signature.predicates
        assert (
            Evaluator(certificate.model, certificate.signature).sequent_value(
                "w1", {}, certificate.sequent
            )
            == 0
        )

    def test_format_is_stable(self):
        certificate = synthesize("or", builtin("or"), cd_bounds=None)
        text = format_certificate(certificate)
        assert text == format_certificate(certificate)
        assert "case: B" in text
        assert "cd-verdict: skipped" in text
        assert "countermodel:" in text


class TestSignatureSynthesis:
    def test_default_roles(self):
        sig, names = synthesis_signature("c", builtin("or"))
        assert names == {"p": "p", "q": "q", "T": "T", "R": "R"}
        assert sig.predicates == {"p": 1, "q": 1, "T": 0, "R": 0}

    def test_collision_renames_with_suffix(self):
        sig, names = synthesis_signature("q", builtin("or"))
        assert names["q"] == "q1"
        assert "q1" in sig.predicates and "q" in sig.connectives
