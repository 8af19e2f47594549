import json

import pytest
from hypothesis import given, strategies as st

from kripkebench.truthfun import (
    BUILTINS,
    TruthFunction,
    TruthVector,
    builtin,
    enumerate_truth_functions,
    is_monotonic,
    is_supermultiplicative,
    tv_meet,
)

from util import nary_meet_closure, truth_function_from_bits, truth_function_to_json, tv_leq


def vec(*bits):
    return TruthVector.of(*bits)


bit_pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
    )
)


class TestVectors:
    def test_leq_examples(self):
        assert tv_leq(vec(0, 1), vec(1, 1))
        assert not tv_leq(vec(1, 0), vec(0, 1))
        assert tv_leq(TruthVector.zeros(3), TruthVector.ones(3))

    def test_meet_examples(self):
        assert tv_meet(vec(0, 1), vec(1, 0)) == vec(0, 0)
        assert tv_meet(vec(1, 0, 1), vec(1, 0, 1)) == vec(1, 0, 1)
        assert tv_meet(vec(0, 1), TruthVector.ones(2)) == vec(0, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tv_leq(vec(0), vec(0, 1))
        with pytest.raises(ValueError):
            tv_meet(vec(0), vec(0, 1))

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            TruthVector.of(0, 2)

    def test_index_round_trip(self):
        for n in range(4):
            for i in range(1 << n):
                assert TruthVector.from_index(i, n).index == i

    @given(bit_pairs)
    def test_meet_commutes(self, pair):
        a, b = TruthVector(tuple(pair[0])), TruthVector(tuple(pair[1]))
        assert tv_meet(a, b) == tv_meet(b, a)

    @given(bit_pairs)
    def test_meet_idempotent_and_ordered(self, pair):
        a, b = TruthVector(tuple(pair[0])), TruthVector(tuple(pair[1]))
        assert tv_meet(a, a) == a
        assert tv_leq(tv_meet(a, b), a)
        assert tv_leq(tv_meet(a, b), b)

    @given(bit_pairs)
    def test_meet_is_infimum(self, pair):
        a, b = TruthVector(tuple(pair[0])), TruthVector(tuple(pair[1]))
        m = tv_meet(a, b)
        for i in range(1 << len(a)):
            c = TruthVector.from_index(i, len(a))
            assert (tv_leq(c, a) and tv_leq(c, b)) == tv_leq(c, m)

    def test_meet_associative(self):
        for n in (1, 2):
            vectors = [TruthVector.from_index(i, n) for i in range(1 << n)]
            for a in vectors:
                for b in vectors:
                    for c in vectors:
                        assert tv_meet(tv_meet(a, b), c) == tv_meet(a, tv_meet(b, c))

    def test_leq_is_partial_order(self):
        vectors = [TruthVector.from_index(i, 2) for i in range(4)]
        for a in vectors:
            assert tv_leq(a, a)
            for b in vectors:
                if tv_leq(a, b) and tv_leq(b, a):
                    assert a == b
                for c in vectors:
                    if tv_leq(a, b) and tv_leq(b, c):
                        assert tv_leq(a, c)


class TestTruthFunctions:
    def test_eval_xor(self):
        xor = builtin("xor")
        assert xor(vec(1, 0)) == 1
        assert xor(vec(1, 1)) == 0

    def test_eval_zero_vector_hits_first_entry(self):
        for tf in enumerate_truth_functions(2):
            assert tf(TruthVector.zeros(2)) == tf.table[0]

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            builtin("xor")(vec(1))

    def test_table_length_checked(self):
        with pytest.raises(ValueError):
            TruthFunction(2, (0, 1))

    def test_supermultiplicative_examples(self):
        ok, witness = is_supermultiplicative(builtin("or"))
        assert not ok and witness == (vec(0, 1), vec(1, 0))
        ok, witness = is_supermultiplicative(builtin("and"))
        assert ok and witness is None
        ok, witness = is_supermultiplicative(builtin("xor"))
        assert not ok and witness == (vec(0, 1), vec(1, 0))

    def test_monotonic_examples(self):
        assert not is_monotonic(builtin("not"))
        assert is_monotonic(builtin("and"))
        assert not is_monotonic(builtin("imp"))

    def test_meet_closure_examples(self):
        assert nary_meet_closure(builtin("and"), 3)
        assert not nary_meet_closure(builtin("or"), 2)
        with pytest.raises(ValueError):
            nary_meet_closure(builtin("and"), 0)

    def test_closure_matches_pairwise_up_to_arity_two(self):
        # the n-ary closure collapses to the pairwise property
        for arity in (0, 1, 2):
            for tf in enumerate_truth_functions(arity):
                pairwise, _ = is_supermultiplicative(tf)
                assert pairwise == all(nary_meet_closure(tf, n) for n in range(1, 5))

    def test_enumeration_counts(self):
        assert len(list(enumerate_truth_functions(1))) == 4
        assert len(list(enumerate_truth_functions(2))) == 16
        assert len(list(enumerate_truth_functions(3))) == 256

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            list(enumerate_truth_functions(5))

    def test_enumeration_is_deterministic_table_order(self):
        tables = [tf.table_string() for tf in enumerate_truth_functions(1)]
        assert tables == ["00", "01", "10", "11"]

    def test_arity_zero_always_supermultiplicative(self):
        for tf in enumerate_truth_functions(0):
            assert is_supermultiplicative(tf)[0]


class TestBuiltins:
    def test_tables(self):
        assert builtin("xor").table == (0, 1, 1, 0)
        assert builtin("iff").table == (1, 0, 0, 1)
        assert builtin("or").table == (0, 1, 1, 1)
        assert builtin("not").table == (1, 0)
        assert builtin("and").table == (0, 0, 0, 1)
        assert builtin("imp").table == (1, 1, 0, 1)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin("nand")

    def test_builtins_mapping_is_consistent(self):
        for name, tf in BUILTINS.items():
            assert builtin(name) == tf


class TestSerialization:
    def test_round_trip(self):
        for tf in (builtin("xor"), TruthFunction(0, (1,)), TruthFunction(3, (0,) * 8)):
            assert TruthFunction.from_json(truth_function_to_json(tf)) == tf

    def test_rejects_bad_payloads(self):
        with pytest.raises(ValueError):
            TruthFunction.from_json('{"arity": 2, "table": "01"}')
        with pytest.raises(ValueError):
            TruthFunction.from_json('{"arity": 1, "table": "0x"}')
        with pytest.raises(ValueError):
            TruthFunction.from_json('{"table": "01"}')

    def test_rejects_boolean_and_negative_arities(self):
        with pytest.raises(ValueError, match="got True"):
            TruthFunction.from_json('{"arity": true, "table": "01"}')
        with pytest.raises(ValueError, match="got -1"):
            TruthFunction.from_json('{"arity": -1, "table": "0"}')

    def test_huge_arity_is_rejected_before_any_shift(self):
        with pytest.raises(ValueError, match="length 2\\^"):
            TruthFunction.from_json('{"arity": %d, "table": "01"}' % 10**30)

    @given(
        st.one_of(
            st.text(max_size=40),
            st.fixed_dictionaries(
                {
                    "arity": st.one_of(
                        st.integers(), st.booleans(), st.none(), st.floats(), st.text(max_size=3)
                    ),
                    "table": st.one_of(
                        st.text(alphabet="01x", max_size=20), st.integers(), st.none()
                    ),
                },
                optional={"extra": st.integers()},
            ).map(json.dumps),
        )
    )
    def test_from_json_returns_or_raises_value_error(self, text):
        try:
            tf = TruthFunction.from_json(text)
        except ValueError:
            return
        assert type(tf.arity) is int and len(tf.table) == 1 << tf.arity

    def test_from_bits(self):
        assert truth_function_from_bits("0110") == builtin("xor")
        with pytest.raises(ValueError):
            truth_function_from_bits("011")
