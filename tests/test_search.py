import hashlib
import itertools
import random

import pytest

from kripkebench import search, semantics
from kripkebench.cli import main
from kripkebench.search import (
    SHAPES,
    InconsistentVerdictError,
    Refuted,
    SearchBounds,
    ValidUpToBounds,
    check_relations_on_corpus,
    classify_connectives,
    decide,
    decode_model,
    enumerate_frames,
    enumerate_models,
    first_refuted,
    random_formula,
    report_relations,
    sequent_corpus,
)
from kripkebench.semantics import (
    Evaluator,
    KripkeModel,
    compile_sequent,
    find_refutation,
    upward_closed_subsets,
    validate_model,
)
from kripkebench.syntax import Signature, parse_sequent, render_sequent
from kripkebench.truthfun import builtin
from kripkebench.synthesize import synthesize

from util import (
    is_canonical,
    is_constant_domain,
    naive_decide,
    naive_refutation,
    order_pairs,
    per_frame_decide,
    poset_orders_by_masks,
    preorder_orders_by_masks,
    reference_enumerate_models,
    sharing_evaluator,
    shifted_above_none_of,
    upward_closed_subsets_by_masks,
)


@pytest.fixture
def or_certificate():
    return synthesize("or", builtin("or"), cd_bounds=None)


def depth(formula):
    from kripkebench.syntax import Atom, Conn, Exists, Forall

    if isinstance(formula, Atom):
        return 0
    if isinstance(formula, Conn):
        return 1 + max((depth(a) for a in formula.args), default=0)
    if isinstance(formula, (Forall, Exists)):
        return 1 + depth(formula.body)
    raise TypeError


class TestBounds:
    def test_budget_guard(self):
        with pytest.raises(ValueError):
            SearchBounds(max_worlds=5, max_domain=4)

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            SearchBounds(max_worlds=2, max_domain=2, shape="lattice")

    def test_positive_guard(self):
        with pytest.raises(ValueError):
            SearchBounds(max_worlds=0, max_domain=1)


class TestEnumeration:
    def test_single_world_single_element_unary_predicate(self):
        sig = Signature({"p": 1}, {})
        models = list(enumerate_models(sig, SearchBounds(1, 1)))
        assert len(models) == 2

    def test_chain_shape_has_unique_order(self):
        sig = Signature({}, {})
        models = [
            m
            for m in enumerate_models(sig, SearchBounds(2, 1, "chain"))
            if len(m.worlds) == 2
        ]
        assert len(models) == 1
        assert ("w0", "w1") in models[0].order

    def test_constant_domain_flag(self):
        sig = Signature({"p": 1}, {})
        for model in enumerate_models(sig, SearchBounds(2, 2, "tree"), constant_domain=True):
            assert is_constant_domain(model)

    @pytest.mark.parametrize("shape", ["chain", "tree", "poset", "any-preorder"])
    def test_every_model_is_valid(self, shape):
        sig = Signature({"p": 1, "r": 0}, {})
        count = 0
        for model in enumerate_models(sig, SearchBounds(3, 2, shape)):
            assert validate_model(model) == []
            count += 1
        assert count > 0

    def test_preorders_extend_posets(self):
        sig = Signature({}, {})
        posets = sum(1 for _ in enumerate_models(sig, SearchBounds(3, 1, "poset")))
        preorders = sum(1 for _ in enumerate_models(sig, SearchBounds(3, 1, "any-preorder")))
        assert preorders > posets

    def test_stream_is_deterministic(self):
        sig = Signature({"p": 1}, {})
        first = list(enumerate_models(sig, SearchBounds(2, 2, "tree")))
        second = list(enumerate_models(sig, SearchBounds(2, 2, "tree")))
        assert first == second

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("constant_domain", [False, True], ids=["kripke", "cd"])
    @pytest.mark.parametrize(
        "predicates, max_worlds, max_domain",
        [
            ({}, 3, 1),
            ({"r": 0, "p": 1}, 3, 2),
            ({"p": 1, "e": 2, "r": 0}, 2, 2),
            ({"p": 1}, 2, 3),
        ],
    )
    def test_stream_equals_reference(
        self, shape, constant_domain, predicates, max_worlds, max_domain
    ):
        # the unreduced stream, less the models that cannot come first
        sig = Signature(predicates, {})
        bounds = SearchBounds(max_worlds, max_domain, shape)
        reduced = (
            m
            for m in reference_enumerate_models(sig, bounds, constant_domain)
            if is_canonical(m, shape)
        )
        count = 0
        stream = enumerate_models(sig, bounds, constant_domain)
        for got, want in itertools.zip_longest(stream, reduced):
            assert got == want
            count += 1
        assert count > 1

    def test_frame_stream_digest(self):
        # every field of every frame but `labelled`, whose repr holds an
        # address, and the refusal of each stream past a cap, over a grid
        # that builds in under a second; recorded before the builder
        # held domains as masks
        digest = hashlib.sha256()
        for predicates in ({"p": 1, "q": 1, "r": 0}, {"e": 2}, {"p": 1}, {"r": 0}):
            sig = Signature(predicates, {})
            for shape in SHAPES:
                for worlds, elements in ((1, 3), (2, 2), (3, 2), (4, 1), (3, 3)):
                    if shape == "any-preorder" and worlds > 3:
                        continue
                    for constant_domain in (False, True):
                        bounds = SearchBounds(worlds, elements, shape)
                        try:
                            for f in enumerate_frames(sig, bounds, constant_domain):
                                # hex, since a label passes int's decimal digit limit
                                chunks = tuple({a: hex(v) for a, v in c.items()} for c in f.chunks)
                                fields = (f.worlds, f.up, f.domains, f.slots, f.size, f.inner)
                                digest.update(repr(fields + (chunks,)).encode())
                        except ValueError as refusal:
                            digest.update(str(refusal).encode())
        assert digest.hexdigest() == (
            "35221d52b411eb7fb7f3182e8dae334628cccfddbc2305efb25d9fc2a88d32df"
        )

    def test_posets_by_extension_equal_the_mask_scan(self):
        counts = []
        for n in range(1, 6):
            got = [order_pairs(range(n), up) for up in search._posets(n)]
            assert got == list(poset_orders_by_masks(n))
            rooted = [o for o in got if all((0, j) in o for j in range(n))]
            assert [order_pairs(range(n), up) for up in search._poset_orders(n)] == rooted
            counts.append((len(got), len(rooted)))
        assert counts == [(1, 1), (2, 1), (7, 2), (40, 7), (357, 40)]

    def test_preorders_by_extension_equal_the_mask_scan(self):
        counts = []
        for n in range(1, 5):
            got = [order_pairs(range(n), up) for up in search._preorder_orders(n)]
            assert got == list(preorder_orders_by_masks(n))
            counts.append(len(got))
        assert counts == [1, 4, 29, 355]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_upward_closed_subsets_equal_the_mask_scan(self, shape):
        # every order of the shape up to 4 worlds, every set of candidates
        for n in range(1, 5):
            for up in search._ORDER_GENERATORS[shape](n):
                order = order_pairs(range(n), up)
                for size in range(n + 1):
                    for candidates in itertools.combinations(range(n), size):
                        want = [
                            sum(1 << i for i in chosen)
                            for chosen in upward_closed_subsets_by_masks(candidates, order)
                        ]
                        assert upward_closed_subsets(candidates, up) == want
                        # the bound admits the whole family and no less
                        assert upward_closed_subsets(candidates, up, len(want)) == want
                        if len(want) > 1:
                            with pytest.raises(ValueError):
                                upward_closed_subsets(candidates, up, len(want) - 1)

    @pytest.mark.parametrize(
        "shape, counts",
        [
            ("chain", [1, 1, 1, 1, 1, 1]),
            ("tree", [1, 1, 2, 6, 24, 120]),  # (n - 1)!
            # the naturally labelled posets on n - 1 points, OEIS A006455
            ("poset", [1, 1, 2, 7, 40, 357]),
            # the preorders on n points, OEIS A000798
            ("any-preorder", [1, 4, 29, 355, 6942]),
        ],
    )
    def test_order_counts_match_cited_sequences(self, shape, counts):
        # at n = 1, 2, ... worlds, each order yielded once
        for n, count in enumerate(counts, start=1):
            orders = list(search._ORDER_GENERATORS[shape](n))
            assert len(orders) == len(set(orders)) == count


class TestDecide:
    def test_double_negation_refuted_on_chain(self):
        sig = Signature({"p": 0}, {"not": builtin("not")})
        s = parse_sequent("not(not(p)) => p", sig)
        verdict = decide(sig, s, "kripke", SearchBounds(2, 1, "chain"))
        assert isinstance(verdict, Refuted)
        # p false at the root, true above
        assert ("w0", "p", ()) not in verdict.model.facts
        assert ("w1", "p", ()) in verdict.model.facts

    def test_refuted_verdict_rechecks(self):
        sig = Signature({"p": 0}, {"not": builtin("not")})
        s = parse_sequent("not(not(p)) => p", sig)
        verdict = decide(sig, s, "kripke", SearchBounds(2, 1, "chain"))
        assert validate_model(verdict.model) == []
        value = Evaluator(verdict.model, sig).sequent_value(verdict.world, verdict.assignment, s)
        assert value == 0

    def test_separating_sequent_kripke_vs_cd(self, or_certificate):
        sig, s = or_certificate.signature, or_certificate.sequent
        kripke = decide(sig, s, "kripke", SearchBounds(2, 2, "tree"))
        assert isinstance(kripke, Refuted)
        cd = decide(sig, s, "cd", SearchBounds(2, 2, "tree"))
        assert isinstance(cd, ValidUpToBounds)

    def test_classical_mode_stays_one_world(self):
        sig = Signature({"p": 0}, {"not": builtin("not")})
        s = parse_sequent("not(not(p)) => p", sig)
        verdict = decide(sig, s, "classical", SearchBounds(3, 2, "poset"))
        assert isinstance(verdict, ValidUpToBounds)
        assert verdict.bounds.max_worlds == 1

    def test_mode_monotonicity_on_refutable_sequent(self):
        sig = Signature({"p": 0}, {})
        s = parse_sequent("=> p", sig)
        bounds = SearchBounds(2, 2, "tree")
        classical = decide(sig, s, "classical", bounds)
        cd = decide(sig, s, "cd", bounds)
        kripke = decide(sig, s, "kripke", bounds)
        assert isinstance(classical, Refuted)
        assert isinstance(cd, Refuted)
        assert isinstance(kripke, Refuted)

    def test_unknown_mode(self):
        sig = Signature({"p": 0}, {})
        with pytest.raises(ValueError):
            decide(sig, parse_sequent("=> p", sig), "beth", SearchBounds(1, 1))

    def test_xor_propositional_mixture_is_kripke_valid_at_bounds(self):
        sig = Signature({"p": 1, "r": 0}, {"xor": builtin("xor")})
        s = parse_sequent("forall x. xor(p(x), r) => xor(forall x. p(x), r)", sig)
        verdict = decide(sig, s, "kripke", SearchBounds(2, 2, "poset"))
        assert isinstance(verdict, ValidUpToBounds)

    @pytest.mark.parametrize(
        "max_worlds, max_domain, evaluated", [(3, 2, 576), (4, 2, 8982), (3, 3, 5262)]
    )
    def test_models_evaluated_on_xor_sequent(
        self, monkeypatch, max_worlds, max_domain, evaluated
    ):
        # rooted orders and prefix root domains only: 9,833, 369,488 and
        # 257,289 models in the unreduced stream; a valid verdict labels
        # every model of the rooted stream, frame by frame
        labelled = []

        def counting(frame, compiled):
            labelled.append(frame.size)
            return first_refuted(frame, compiled)

        monkeypatch.setattr(search, "first_refuted", counting)
        sig = Signature({"p": 1, "r": 0}, {"xor": builtin("xor")})
        s = parse_sequent("forall x. xor(p(x), r) => xor(forall x. p(x), r)", sig)
        bounds = SearchBounds(max_worlds, max_domain, "poset")
        verdict = decide(sig, s, "kripke", bounds)
        assert isinstance(verdict, ValidUpToBounds)
        assert sum(1 for _ in enumerate_models(sig, bounds)) == evaluated
        assert sum(labelled) == evaluated


class TestCensus:
    def test_binary_quadrants_against_direct_oracle(self):
        # independent recount straight from the definitions on bit tuples
        def leq(a, b):
            return all(x <= y for x, y in zip(a, b))

        def meet(a, b):
            return tuple(min(x, y) for x, y in zip(a, b))

        inputs = list(itertools.product((0, 1), repeat=2))
        expected = {(True, True): 0, (True, False): 0, (False, True): 0, (False, False): 0}
        non_supermult = set()
        monotone_count = 0
        for bits in itertools.product((0, 1), repeat=4):
            table = {inp: bits[(inp[0] << 1) | inp[1]] for inp in inputs}
            supermult = all(
                table[meet(a, b)]
                for a in inputs
                for b in inputs
                if table[a] and table[b]
            )
            mono = all(
                table[a] <= table[b] for a in inputs for b in inputs if leq(a, b)
            )
            expected[(supermult, mono)] += 1
            if not supermult:
                non_supermult.add("".join(map(str, bits)))
            if mono:
                monotone_count += 1

        census = classify_connectives(2)
        for key, count in expected.items():
            assert census.count(*key) == count
        assert monotone_count == 6
        assert set(census.tables(False, True)) | set(census.tables(False, False)) == non_supermult
        assert non_supermult == {"0111", "0110"}

    def test_arity_zero_all_supermultiplicative(self):
        census = classify_connectives(0)
        assert census.count(False, True) == 0
        assert census.count(False, False) == 0

    def test_ternary_counts_anchored(self):
        # monotone ternary functions must number 20 (the free distributive
        # lattice on three generators plus bounds); supermultiplicative total
        # cross-checked against a direct in-test recount
        census = classify_connectives(3)
        assert census.count(True, True) + census.count(False, True) == 20
        direct = 0
        for bits in itertools.product((0, 1), repeat=8):
            ones = [i for i in range(8) if bits[i]]
            if all(bits[i & j] for i in ones for j in ones):
                direct += 1
        assert census.count(True, True) + census.count(True, False) == direct
        assert sum(census.count(sm, mono) for sm in (True, False) for mono in (True, False)) == 256

    @pytest.mark.parametrize(
        "arity, supermultiplicative, monotone, both",
        [(0, 2, 2, 2), (1, 4, 3, 3), (2, 14, 6, 5), (3, 122, 20, 9), (4, 4960, 168, 17)],
    )
    def test_counts_match_closed_forms(self, arity, supermultiplicative, monotone, both):
        # supermultiplicative: twice the Moore families on an n-set (OEIS
        # A102896); monotone: the Dedekind numbers (OEIS A000372); both:
        # 2^n + 1, the constant 0 and the principal filters
        census = classify_connectives(arity)
        assert census.count(True, True) + census.count(True, False) == supermultiplicative
        assert census.count(True, True) + census.count(False, True) == monotone
        assert census.count(True, True) == both


class TestRelations:
    def test_negation_conjunction_implication(self):
        sig = Signature({}, {"not": builtin("not"), "and": builtin("and"), "imp": builtin("imp")})
        report = report_relations(sig)
        assert (report.ils_equals_cds, report.cds_equals_cls, report.ils_equals_cls) == (
            True,
            False,
            False,
        )
        assert "not" in [c.name for c in report.connectives if not c.monotonic]

    def test_conjunction_alone(self):
        report = report_relations(Signature({}, {"and": builtin("and")}))
        assert (report.ils_equals_cds, report.cds_equals_cls, report.ils_equals_cls) == (
            True,
            True,
            True,
        )

    def test_disjunction_alone(self):
        report = report_relations(Signature({}, {"or": builtin("or")}))
        assert (report.ils_equals_cds, report.cds_equals_cls, report.ils_equals_cls) == (
            False,
            True,
            False,
        )
        assert [c.name for c in report.connectives if not c.supermultiplicative] == ["or"]


class TestCorpus:
    def test_deterministic_for_fixed_seed(self):
        sig = Signature({"p": 1, "q": 1, "r": 0}, {"and": builtin("and")})
        assert sequent_corpus(sig, 9, 20) == sequent_corpus(sig, 9, 20)
        assert sequent_corpus(sig, 9, 20) != sequent_corpus(sig, 10, 20)

    def test_respects_size_and_depth_bounds(self):
        sig = Signature({"p": 1, "q": 1, "r": 0}, {"and": builtin("and")})
        for s in sequent_corpus(sig, 4, 30):
            assert len(s.antecedent) <= 2 and len(s.succedent) <= 2
            for f in s.formulas():
                assert depth(f) <= 3

    def test_random_formula_depth_zero_is_atomic(self):
        import random

        from kripkebench.syntax import Atom

        sig = Signature({"p": 1, "r": 0}, {"and": builtin("and")})
        rng = random.Random(0)
        for _ in range(20):
            assert isinstance(random_formula(rng, sig, 0), Atom)


class TestTheoremDirections:
    def test_supermultiplicative_signature_kripke_refutation_implies_cd(self):
        # the guaranteed direction over the full supermultiplicative builtin
        # pool; bounded search may still exhaust, which counts as
        # inconclusive, never as failure
        sig = Signature(
            {"p": 1, "q": 1, "r": 0},
            {
                "not": builtin("not"),
                "and": builtin("and"),
                "imp": builtin("imp"),
                "iff": builtin("iff"),
            },
        )
        outcomes = {"cd-refuted": 0, "inconclusive": 0, "kripke-valid": 0}
        for s in sequent_corpus(sig, 21, 12):
            kripke = decide(sig, s, "kripke", SearchBounds(2, 2, "tree"))
            if isinstance(kripke, ValidUpToBounds):
                outcomes["kripke-valid"] += 1
                continue
            cd = decide(sig, s, "cd", SearchBounds(3, 2, "tree"))
            if isinstance(cd, Refuted):
                outcomes["cd-refuted"] += 1
            else:
                outcomes["inconclusive"] += 1
        assert outcomes["cd-refuted"] + outcomes["kripke-valid"] > 0

    def test_corpus_consistency_sweep_flags_nothing_for_monotone_signature(self):
        sig = Signature({"p": 1, "q": 1, "r": 0}, {"and": builtin("and"), "or": builtin("or")})
        records = check_relations_on_corpus(sig, sequent_corpus(sig, 33, 10))
        for record in records:
            if record.cd_refuted:
                assert record.kripke_refuted
                assert record.classical_refuted
            assert not record.inconclusive


class TestDecideAgainstNaiveOracle:
    """`decide` returns the same verdict, model, world and assignment as a
    naive decide over the unreduced model stream."""

    # all but the first search take the first 40 sequents of the corpus
    # only, to keep the test to a few seconds
    @pytest.mark.parametrize(
        "mode, bounds, count",
        [
            ("cd", SearchBounds(2, 2, "tree"), 100),
            ("kripke", SearchBounds(2, 2, "poset"), 40),
            ("kripke", SearchBounds(3, 1, "poset"), 40),
            ("kripke", SearchBounds(2, 2, "any-preorder"), 40),
            ("cd", SearchBounds(2, 2, "any-preorder"), 40),
        ],
    )
    def test_seeded_corpus(self, mode, bounds, count):
        sig = Signature(
            {"p": 1, "q": 1, "r": 0},
            {"not": builtin("not"), "and": builtin("and"), "imp": builtin("imp")},
        )
        verdicts = []
        for s in sequent_corpus(sig, 2024, count):
            verdict = decide(sig, s, mode, bounds)
            assert verdict == naive_decide(sig, s, mode, bounds)
            verdicts.append(isinstance(verdict, Refuted))
        assert 0 < sum(verdicts) < count  # both verdicts occur

    @pytest.mark.parametrize(
        "predicates, connectives, text",
        [
            ({"p": 1, "q": 1}, ("and",),
             "forall x. and(p(x), q(x)) => and(forall x. p(x), forall x. q(x))"),
            ({"p": 1, "r": 0}, ("imp",), "imp(exists x. p(x), r) => forall x. imp(p(x), r)"),
            ({"p": 1, "r": 0}, ("xor",), "forall x. xor(p(x), r) => xor(forall x. p(x), r)"),
            ({"p": 0, "q": 0}, ("or", "imp"), "=> or(imp(p, q), imp(q, p))"),
        ],
    )
    def test_exhaustive_search_sequents(self, predicates, connectives, text):
        sig = Signature(predicates, {c: builtin(c) for c in connectives})
        s = parse_sequent(text, sig)
        bounds = SearchBounds(2, 2, "poset")
        assert decide(sig, s, "kripke", bounds) == naive_decide(sig, s, "kripke", bounds)
        # every model of the stream, not only the first refuted one
        compiled = compile_sequent(sig, s)
        for model in enumerate_models(Signature(predicates, {}), bounds):
            hits = sharing_evaluator(compiled.formulas, model).refuted_models(compiled)
            assert bool(hits) == (naive_refutation(model, sig, s) is not None)


    # at 3 worlds the naive search of the unreduced stream takes about 3 s
    # (kripke) and 1.5 s (cd) over the 40 sequents on chain, and three times
    # that on tree, so tree takes a seeded sample of 8; (3, 2, poset) stays
    # out, as one sequent alone takes 27 s there
    @pytest.mark.parametrize("shape, sample", [("chain", None), ("tree", 8)])
    @pytest.mark.parametrize("mode", ["kripke", "cd"])
    def test_three_worlds(self, mode, shape, sample):
        sig = _corpus_signature()
        sequents = sequent_corpus(sig, 2024, 40)
        if sample is not None:
            sequents = [sequents[i] for i in sorted(random.Random(2024).sample(range(40), sample))]
        bounds = SearchBounds(3, 2, shape)
        verdicts = []
        for s in sequents:
            verdict = decide(sig, s, mode, bounds)
            assert verdict == naive_decide(sig, s, mode, bounds)
            verdicts.append(isinstance(verdict, Refuted))
        assert 0 < sum(verdicts) < len(sequents)  # both verdicts occur

    @pytest.mark.parametrize("shape", ["chain", "tree"])
    @pytest.mark.parametrize("mode", ["kripke", "cd"])
    def test_three_worlds_catch_a_planted_labelling_fault(self, monkeypatch, mode, shape):
        # the comparison above fails when the labelling is wrong: `decide`
        # raises on its re-check or disagrees with the oracle
        monkeypatch.setattr(semantics.Evaluator, "_above_none_of", shifted_above_none_of)
        sig = _corpus_signature()
        bounds = SearchBounds(3, 2, shape)

        def faulty(s):
            try:
                return decide(sig, s, mode, bounds) != naive_decide(sig, s, mode, bounds)
            except InconsistentVerdictError:
                return True

        assert any(faulty(s) for s in sequent_corpus(sig, 2024, 12))


def _corpus_signature():
    return Signature(
        {"p": 1, "q": 1, "r": 0},
        {"not": builtin("not"), "and": builtin("and"), "imp": builtin("imp")},
    )


class TestBitSlicedSearch:
    """`decide` labels every model of a frame at once; model m of a frame's
    slot product is bit m of each world's block of a label."""

    @pytest.mark.parametrize(
        "mode, bounds",
        [
            ("kripke", SearchBounds(2, 2, "poset")),
            ("cd", SearchBounds(3, 1, "tree")),
            ("kripke", SearchBounds(2, 2, "any-preorder")),
        ],
    )
    def test_each_frame_against_its_decoded_models(self, mode, bounds):
        # per frame, not only the first refuted one: the frame's models in
        # the stream are its decoded models in index order, the index
        # `first_refuted` gives is the first one its own evaluator refutes,
        # and every label of a chunk holds, at block i bit m, bit i of the
        # width-1 label on the chunk's model m
        sig = _corpus_signature()
        cd = mode == "cd"
        frames = refuted = labels = 0
        for s in sequent_corpus(sig, 2024, 12):
            compiled = compile_sequent(sig, s)
            formulas = compiled.formulas
            models = enumerate_models(sig, bounds, cd)
            for frame in enumerate_frames(sig, bounds, cd):
                decoded = [decode_model(frame, m) for m in range(frame.size)]
                assert decoded == list(itertools.islice(models, frame.size))
                singles = [sharing_evaluator(formulas, model) for model in decoded]
                want = next(
                    (
                        m
                        for m, single in enumerate(singles)
                        if single.refuted_models(compiled)
                    ),
                    None,
                )
                assert first_refuted(frame, compiled) == want
                frames += 1
                refuted += want is not None
                elements = sorted({e for domain in frame.domains.values() for e in domain})
                for start, batch in search._chunks(frame, formulas):
                    width = batch.frame.width
                    for node, variables in enumerate(formulas.free):
                        for combo in itertools.product(elements, repeat=len(variables)):
                            env = [None] * len(formulas.slots)
                            for x, e in zip(variables, combo):
                                env[formulas.slots[x]] = e
                            label = batch._label(node, env)
                            defined = [
                                i
                                for i, w in enumerate(frame.worlds)
                                if set(combo) <= set(frame.domains[w])
                            ]
                            for m in range(width):
                                one = singles[start + m]._label(node, env)
                                for i in defined:
                                    assert label >> (i * width + m) & 1 == one >> i & 1
                            labels += 1
            assert next(models, None) is None
        assert 0 < refuted < frames
        assert labels > frames

    @pytest.mark.parametrize(
        "text, mode, bounds, position",
        [
            ("not(not(p)) => p", "kripke", SearchBounds(2, 1, "chain"), 3),
            ("=> or(p, not(p))", "kripke", SearchBounds(3, 1, "poset"), 3),
            ("exists x. p(x) => forall x. p(x)", "cd", SearchBounds(2, 2, "tree"), 3),
            ("forall x. or(p(x), q) => or(forall x. p(x), q)", "kripke",
             SearchBounds(2, 2, "tree"), 34),
        ],
    )
    def test_stream_position_of_the_first_countermodel(self, text, mode, bounds, position):
        # the decoded countermodel sits where a model-by-model scan of
        # `enumerate_models` first finds one
        sig = Signature(
            {"p": 1 if "p(x)" in text else 0, "q": 0},
            {"not": builtin("not"), "or": builtin("or")},
        )
        s = parse_sequent(text, sig)
        verdict = decide(sig, s, mode, bounds)
        assert isinstance(verdict, Refuted)
        restricted = search._restrict_to_sequent(sig, compile_sequent(sig, s))
        stream = enumerate_models(restricted, bounds, mode == "cd")
        scan = next(
            m
            for m, model in enumerate(stream)
            if find_refutation(model, sig, s) is not None
        )
        models = enumerate_models(restricted, bounds, mode == "cd")
        assert next(itertools.islice(models, scan, None)) == verdict.model
        assert scan == position

    @pytest.mark.parametrize("cap", [1, 3, 4])
    def test_tiny_chunk_cap_against_naive_decide(self, monkeypatch, cap):
        # most frames span several chunks, so countermodels straddle chunk
        # boundaries and sit in chunks past the first
        monkeypatch.setattr(search, "CHUNK_BITS", cap)
        found = []

        def recording(frame, compiled):
            index = first_refuted(frame, compiled)
            if index is not None:
                found.append(index)
            return index

        monkeypatch.setattr(search, "first_refuted", recording)
        sig = _corpus_signature()
        bounds = SearchBounds(2, 2, "tree")
        for s in sequent_corpus(sig, 2024, 40):
            for mode in ("cd", "kripke"):
                assert decide(sig, s, mode, bounds) == naive_decide(sig, s, mode, bounds)
        assert any(index >= cap for index in found)

    def test_wrong_decode_raises(self, monkeypatch):
        sig = Signature({"p": 0}, {"not": builtin("not")})
        s = parse_sequent("not(not(p)) => p", sig)
        bounds = SearchBounds(2, 1, "chain")
        # a valid model that validates the sequent
        monkeypatch.setattr(
            search,
            "decode_model",
            lambda frame, index: KripkeModel(
                frame.worlds, frame.up, frame.domains, frozenset()
            ),
        )
        with pytest.raises(InconsistentVerdictError, match="scalar evaluator validates"):
            decide(sig, s, "kripke", bounds)
        # an invalid model: p holds at w0 but not at w1 above it
        monkeypatch.setattr(
            search,
            "decode_model",
            lambda frame, index: KripkeModel(
                frame.worlds, frame.up, frame.domains, frozenset({("w0", "p", ())})
            ),
        )
        with pytest.raises(InconsistentVerdictError, match="heredity violated"):
            decide(sig, s, "kripke", bounds)

    def test_planted_labelling_fault_raises(self, monkeypatch):
        # the fault makes the search refute models that validate the
        # sequent; the re-check shares no code with the labelling, so it
        # raises on each of them, and every refuted verdict that remains
        # is a true one
        monkeypatch.setattr(semantics.Evaluator, "_above_none_of", shifted_above_none_of)
        sig = _corpus_signature()
        raised = refuted = 0
        for mode, bounds in (("cd", SearchBounds(2, 2, "tree")), ("kripke", SearchBounds(3, 2))):
            for s in sequent_corpus(sig, 2024, 100):
                try:
                    verdict = decide(sig, s, mode, bounds)
                except InconsistentVerdictError:
                    raised += 1
                    continue
                if isinstance(verdict, Refuted):
                    point = (verdict.world, verdict.assignment)
                    assert naive_refutation(verdict.model, sig, s) == point
                    refuted += 1
        assert raised > 0 and refuted > 0

    def test_recheck_agrees_on_every_countermodel(self):
        # the point the re-check reports is the one the labelling and the
        # naive recursion find first, on every countermodel of the corpus
        sig = _corpus_signature()
        count = 0
        for mode, bounds in (
            ("cd", SearchBounds(2, 2, "tree")),
            ("kripke", SearchBounds(3, 2, "poset")),
            ("classical", SearchBounds(2, 2, "tree")),
        ):
            for s in sequent_corpus(sig, 2024, 100):
                verdict = decide(sig, s, mode, bounds)
                if isinstance(verdict, Refuted):
                    point = (verdict.world, verdict.assignment)
                    assert find_refutation(verdict.model, sig, s) == point
                    assert naive_refutation(verdict.model, sig, s) == point
                    count += 1
        assert count == 236

    def test_caps_on_frames_and_models(self, monkeypatch):
        sig = Signature({"p": 1}, {})
        s = parse_sequent("forall x. p(x) => exists x. p(x)", sig)
        bounds = SearchBounds(3, 1, "poset")
        assert isinstance(decide(sig, s, "kripke", bounds), ValidUpToBounds)
        # frames of 2, 3, 5 and 4 models: one world, a chain of two, and the
        # two rooted orders on three; a cap is the most a search may pass
        sizes = [frame.size for frame in enumerate_frames(sig, bounds)]
        assert sizes == [2, 3, 5, 4]
        monkeypatch.setattr(search, "MAX_FRAMES", len(sizes))
        monkeypatch.setattr(search, "MAX_MODELS", sum(sizes))
        assert isinstance(decide(sig, s, "kripke", bounds), ValidUpToBounds)
        monkeypatch.setattr(search, "MAX_FRAMES", len(sizes) - 1)
        with pytest.raises(ValueError, match=f"more than {len(sizes) - 1} frames"):
            decide(sig, s, "kripke", bounds)
        monkeypatch.setattr(search, "MAX_FRAMES", len(sizes))
        monkeypatch.setattr(search, "MAX_MODELS", sum(sizes) - 1)
        with pytest.raises(ValueError, match=f"more than {sum(sizes) - 1} models"):
            decide(sig, s, "kripke", bounds)


class TestBatches:
    """`decide` labels the frames of one world count in batches
    (`search.Batch`): its verdicts must be those of labelling each frame
    alone (`util.per_frame_decide`), the same model, world and assignment,
    and so must its refusals at the caps."""

    # the predicates, shapes and bounds of `test_frame_stream_digest`; with
    # one world every shape gives the same stream, so it is read once
    PREDICATES = ({"p": 1, "q": 1, "r": 0}, {"e": 2}, {"p": 1}, {"r": 0})
    GRID = [
        SearchBounds(worlds, elements, shape)
        for shape in SHAPES
        for worlds, elements in ((1, 3), (2, 2), (3, 2), (4, 1), (3, 3))
        if (shape != "any-preorder" or worlds <= 3) and (shape == "chain" or worlds > 1)
    ]
    # per predicate set, corpus sequents (seed 2029) whose first countermodel
    # lies past the first frame of a batch at some bounds of the grid
    PAST_FIRST = ((32, 218), (45, 99), (69, 125), (4, 36))

    @pytest.fixture(autouse=True)
    def cold(self):
        search._streams.clear()
        yield
        search._streams.clear()

    @pytest.mark.parametrize("chunk_bits", [search.CHUNK_BITS, 3])
    def test_batches_equal_the_per_frame_loop(self, monkeypatch, chunk_bits):
        # at CHUNK_BITS = 3 most frames are chunked batches of one, and
        # labelling in chunks of 3 takes so long that the grid keeps its
        # (2, 2) bounds, in every shape
        monkeypatch.setattr(search, "CHUNK_BITS", chunk_bits)
        past_first = []

        def recording(batch, compiled):
            index = first_refuted(batch, compiled)
            if index is not None and len(batch.frames) > 1 and index >= batch.starts[1]:
                past_first.append(index)
            return index

        monkeypatch.setattr(search, "first_refuted", recording)
        connectives = {c: builtin(c) for c in ("not", "and", "or", "imp")}
        grid = [b for b in self.GRID if chunk_bits > 3 or (b.max_worlds, b.max_domain) == (2, 2)]
        verdicts = refusals = 0
        for predicates, indices in zip(self.PREDICATES, self.PAST_FIRST):
            sig = Signature(predicates, connectives)
            corpus = sequent_corpus(sig, 2029, 300)
            sequents = [corpus[i] for i in indices] + random.Random(2029).sample(corpus, 4)
            for bounds in grid:
                for mode in ("kripke", "cd", "classical"):
                    for s in sequents:
                        try:
                            want = per_frame_decide(sig, s, mode, bounds)
                        except ValueError as refusal:
                            with pytest.raises(ValueError) as raised:
                                decide(sig, s, mode, bounds)
                            assert str(raised.value) == str(refusal)
                            refusals += 1
                            continue
                        assert decide(sig, s, mode, bounds) == want
                        verdicts += isinstance(want, Refuted)
        assert verdicts > 0
        if chunk_bits > 3:
            assert past_first and refusals > 0

    @pytest.mark.parametrize("chunk_bits", [search.CHUNK_BITS, 16])
    def test_batches_keep_their_rules(self, monkeypatch, chunk_bits):
        # over the grid, each stream's batches hold its frames in order; the
        # first frame of a world count and a chunked frame stand alone; and
        # a batch of several frames, of one world count, fits in CHUNK_BITS
        # models, and one of its frames holds the elements of all, so that
        # it labels no more assignments than that frame counts alone. At
        # CHUNK_BITS = 16 batches close before a frame of every element
        # comes along; the streams of several predicates or a binary one
        # build too many chunks there
        monkeypatch.setattr(search, "CHUNK_BITS", chunk_bits)
        merged = uneven = 0
        for predicates in self.PREDICATES if chunk_bits > 16 else ({"p": 1}, {"r": 0}):
            sig = Signature(predicates, {})
            for bounds in self.GRID:
                for cd in (False, True):
                    try:
                        frames = list(enumerate_frames(sig, bounds, cd))
                    except ValueError:
                        continue
                    batches = list(search._streams.read(sig, bounds, cd))
                    served = [f for b in batches for f in b.frames]
                    # a `labelled` frame has no equality of its own
                    same = [f._replace(labelled=None) for f in served]
                    assert same == [f._replace(labelled=None) for f in frames]
                    frames = served
                    firsts = {
                        id(f) for i, f in enumerate(frames)
                        if i == 0 or len(frames[i - 1].worlds) != len(f.worlds)
                    }
                    for batch in batches:
                        if len(batch.frames) == 1:
                            continue
                        merged += 1
                        assert not firsts & {id(f) for f in batch.frames}
                        assert len({len(f.worlds) for f in batch.frames}) == 1
                        assert batch.size == sum(f.size for f in batch.frames) <= search.CHUNK_BITS
                        own = [set(f.labelled.present) for f in batch.frames]
                        assert set(batch.labelled.present) in own
                        uneven += len({frozenset(e) for e in own}) > 1
                    for f in frames:
                        if id(f) in firsts or f.size > search.CHUNK_BITS:
                            assert any(b.frames == (f,) for b in batches)
        assert merged and uneven

    # the bounded-depth axiom BD2 at x is refuted first on the three-world
    # chain with one element, the sixth frame of the eight the batch of
    # that world count holds; the valid sequent reads the same frame stream.
    # PAD holds intuitionistic laws whose free variables only add to the
    # assignments the labelling counts: 2^8 of them at a frame of two
    # elements
    BOUNDS = SearchBounds(3, 2, "poset")
    PAD = ", ".join(f"imp(p(z{i}), p(z{i}))" for i in range(8))
    REFUTED = "or(q(x), imp(q(x), or(p(x), not(p(x)))))"
    VALID = "imp(q(x), or(q(x), p(x)))"

    def sequents(self, padded):
        sig = Signature({"p": 1, "q": 1}, {c: builtin(c) for c in ("not", "or", "imp")})
        pad = self.PAD if padded else ""
        return sig, [parse_sequent(f"{pad} => {text}", sig) for text in (self.REFUTED, self.VALID)]

    @pytest.mark.parametrize("cap", ["frames", "models", "assignments"])
    def test_a_cap_inside_a_world_count_after_the_countermodel(
        self, monkeypatch, tmp_path, capsys, cap
    ):
        sig, (refuted, valid) = self.sequents(padded=cap == "assignments")
        compiled = compile_sequent(sig, refuted)
        frames = list(enumerate_frames(sig, self.BOUNDS))
        k = next(i for i, frame in enumerate(frames) if first_refuted(frame, compiled) is not None)
        counts = [len(frame.worlds) for frame in frames]
        # the frame before it and the one after it are of its world count,
        # and so is the one before that: a batch holds it past its first frame
        assert counts[k - 2] == counts[k - 1] == counts[k] == counts[k + 1] == 3
        first = decide(sig, refuted, "kripke", self.BOUNDS)
        assert isinstance(first, Refuted)
        # the cap falls at frame k + 1
        if cap == "frames":
            monkeypatch.setattr(search, "MAX_FRAMES", k + 1)
        elif cap == "models":
            monkeypatch.setattr(search, "MAX_MODELS", sum(f.size for f in frames[: k + 1]))
        else:
            labellings = [
                len(f.chunks) * len(f.labelled.present) ** len(compiled.slots) for f in frames
            ]
            # the builder's own count of models never passes this cap
            assert sum(f.size for f in frames) <= sum(labellings[: k + 1])
            monkeypatch.setattr(search, "MAX_MODELS", sum(labellings[: k + 1]))
        assert decide(sig, refuted, "kripke", self.BOUNDS) == first
        assert per_frame_decide(sig, refuted, "kripke", self.BOUNDS) == first
        with pytest.raises(ValueError) as raised:
            per_frame_decide(sig, valid, "kripke", self.BOUNDS)
        message = str(raised.value)
        assert f" {cap};" in message
        with pytest.raises(ValueError) as raised:
            decide(sig, valid, "kripke", self.BOUNDS)
        assert str(raised.value) == message
        path = tmp_path / "valid.seq"
        header = "pred p 1\npred q 1\nconn imp builtin\nconn or builtin\n"
        path.write_text(f"{header}sequent: {render_sequent(valid)}\n")
        argv = [
            "decide", "--mode", "kripke", "--seq", str(path),
            "--max-worlds", "3", "--max-domain", "2", "--shape", "poset",
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


class TestFrameStreamCache:
    """`decide` builds each frame stream once per process, keyed by every
    value `enumerate_frames` reads: the search signature's predicates, the
    bounds, the mode, MAX_FRAMES, MAX_MODELS and CHUNK_BITS. The builder
    alone enforces the caps; the reader serves, extends and drops streams."""

    @pytest.fixture(autouse=True)
    def cold(self):
        search._streams.clear()
        yield
        search._streams.clear()

    def test_warm_cold_and_naive_verdicts_agree(self, monkeypatch):
        # the keys interleave, so a warm read finds its stream part-built by
        # earlier reads and extends it. The naive search of the unreduced
        # stream takes about 5 s at (2, 2) over the grid, but 320 s at
        # (3, 2, poset), so at 3 worlds the cold cache is the reference.
        sig = _corpus_signature()
        bounds = [
            SearchBounds(worlds, 2, shape)
            for worlds in (2, 3)
            for shape in ("tree", "poset", "chain")
        ]
        calls = [
            (s, mode, b)
            for s in sequent_corpus(sig, 2024, 40)
            for mode in ("kripke", "cd", "classical")
            for b in bounds
        ]
        cold = []
        for s, mode, b in calls:
            search._streams.clear()
            cold.append(decide(sig, s, mode, b))
        search._streams.clear()
        warm = [decide(sig, s, mode, b) for s, mode, b in calls]
        assert warm == cold
        for (s, mode, b), verdict in zip(calls, cold):
            if b.max_worlds == 2:
                assert verdict == naive_decide(sig, s, mode, b)
        assert 0 < sum(isinstance(v, Refuted) for v in warm) < len(calls)
        monkeypatch.setattr(search, "CHUNK_BITS", 3)
        s, mode, b = calls[0]
        assert decide(sig, s, mode, b) == cold[0] == naive_decide(sig, s, mode, b)
        (narrow,) = [stream for key, stream in search._streams.streams.items() if key[-1] == 3]
        assert narrow.frames and all(frame.inner <= 3 for frame in narrow.frames)

    def test_each_stream_is_built_once(self, monkeypatch):
        # a refuted call leaves its stream part-built; a valid call on the
        # same key reads that part and extends it with the same builder
        built = []

        def counting(*args):
            built.append(args)
            return enumerate_frames(*args)

        monkeypatch.setattr(search, "enumerate_frames", counting)
        sig = Signature({"p": 1}, {"not": builtin("not")})
        bounds = SearchBounds(3, 2, "poset")
        refuted = parse_sequent("not(not(p(x))) => p(x)", sig)
        valid = parse_sequent("forall x. p(x) => exists x. p(x)", sig)
        first = decide(sig, refuted, "kripke", bounds)
        assert isinstance(first, Refuted)
        (stream,) = search._streams.streams.values()
        assert 0 < len(stream.frames) < 14 and stream.builder is not None
        assert isinstance(decide(sig, valid, "kripke", bounds), ValidUpToBounds)
        assert len(stream.frames) == 14 and stream.builder is None
        assert decide(sig, refuted, "kripke", bounds) == first
        assert len(built) == 1

    def test_returned_domains_are_the_models_own(self):
        sig = Signature({"p": 1}, {"not": builtin("not")})
        s = parse_sequent("not(not(p(x))) => p(x)", sig)
        bounds = SearchBounds(2, 2, "poset")
        want = naive_decide(sig, s, "kripke", bounds)
        first = decide(sig, s, "kripke", bounds)
        assert first == want
        first.model.domains.clear()
        again = decide(sig, s, "kripke", bounds)
        assert again == want
        assert again.model.domains is not first.model.domains

    def test_streams_hold_at_most_the_budget(self, monkeypatch):
        sig = _corpus_signature()
        small = parse_sequent("forall x. p(x) => exists x. p(x)", sig)
        large = parse_sequent("r, forall x. and(p(x), q(x)) => and(r, exists x. q(x))", sig)
        bounds = SearchBounds(3, 2, "poset")
        small_held = sum(
            frame.size + search.FRAME_MODELS
            for frame in enumerate_frames(Signature({"p": 1}, {}), bounds)
        )
        monkeypatch.setattr(search, "STREAM_MODELS", small_held)
        assert isinstance(decide(sig, small, "kripke", bounds), ValidUpToBounds)
        assert search._streams.held == small_held
        # the larger stream alone passes the budget: the smaller is dropped
        # to make room, and then the larger one too, read through unkept
        assert isinstance(decide(sig, large, "kripke", bounds), ValidUpToBounds)
        assert search._streams.streams == {} and search._streams.held == 0
        monkeypatch.setattr(search, "STREAM_MODELS", 3 * small_held)
        assert isinstance(decide(sig, small, "kripke", bounds), ValidUpToBounds)
        held = search._streams.held
        assert isinstance(decide(sig, large, "kripke", bounds), ValidUpToBounds)
        # the larger stream fits beside the smaller one within the budget
        assert held < search._streams.held <= search.STREAM_MODELS
        assert len(search._streams.streams) == 2

    @pytest.mark.parametrize("cap", ["MAX_FRAMES", "MAX_MODELS"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_a_refused_search_holds_nothing(self, monkeypatch, cap, warm):
        # the caps are part of the key, so the builder refuses, warm or cold,
        # and the stream kept under the default caps stays as it was
        sig = Signature({"p": 1}, {})
        s = parse_sequent("forall x. p(x) => exists x. p(x)", sig)
        bounds = SearchBounds(3, 1, "poset")
        if warm:
            assert isinstance(decide(sig, s, "kripke", bounds), ValidUpToBounds)
            assert search._streams.streams
        kept = list(search._streams.streams.items()), search._streams.held
        monkeypatch.setattr(search, cap, 3)
        unit = "frames" if cap == "MAX_FRAMES" else "models"
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^the search has more than 3 {unit}; "):
                decide(sig, s, "kripke", bounds)
            # the same keys and the very same stream objects
            assert (list(search._streams.streams.items()), search._streams.held) == kept
