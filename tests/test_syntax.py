import pytest
from hypothesis import example, given, settings, strategies as st

from kripkebench.syntax import (
    MAX_NESTING,
    Atom,
    Conn,
    Exists,
    Forall,
    InvalidSignatureError,
    ParseError,
    Sequent,
    Signature,
    free_vars,
    parse_formula,
    parse_sequent,
    parse_signature,
    render_formula,
    render_sequent,
    signature_to_text,
    subformulas,
)
from kripkebench.truthfun import TruthFunction, builtin

from util import sequent_free_vars


@pytest.fixture
def sig():
    return Signature(
        {"p": 1, "q": 1, "b": 2, "T": 0, "r": 0},
        {"or": builtin("or"), "not": builtin("not"), "c3": TruthFunction(3, (0,) * 8)},
    )


variables = st.sampled_from(("x", "y", "z"))
atoms = st.one_of(
    st.builds(lambda v: Atom("p", (v,)), variables),
    st.builds(lambda v, w: Atom("b", (v, w)), variables, variables),
    st.just(Atom("r")),
)
formulas = st.recursive(
    atoms,
    lambda kids: st.one_of(
        st.builds(lambda a: Conn("not", (a,)), kids),
        st.builds(lambda a, b: Conn("or", (a, b)), kids, kids),
        st.builds(Forall, variables, kids),
        st.builds(Exists, variables, kids),
    ),
    max_leaves=8,
)


class TestParsing:
    def test_connective_application(self, sig):
        got = parse_formula("or(p(x), q(x))", sig)
        assert got == Conn("or", (Atom("p", ("x",)), Atom("q", ("x",))))

    def test_quantified_ternary(self, sig):
        got = parse_formula("forall x. c3(p(x), q(x), T)", sig)
        assert got == Forall(
            "x", Conn("c3", (Atom("p", ("x",)), Atom("q", ("x",)), Atom("T")))
        )

    def test_arity_mismatch(self, sig):
        with pytest.raises(ParseError):
            parse_formula("p(x, y)", sig)

    def test_unknown_symbol(self, sig):
        with pytest.raises(ParseError):
            parse_formula("s(x)", sig)

    def test_error_carries_position(self, sig):
        with pytest.raises(ParseError) as err:
            parse_formula("or(p(x), !)", sig)
        assert err.value.position == 9

    def test_trailing_input(self, sig):
        with pytest.raises(ParseError):
            parse_formula("p(x) q", sig)

    def test_zero_ary_forms(self, sig):
        assert parse_formula("T", sig) == Atom("T")
        assert parse_formula("T()", sig) == Atom("T")

    def test_reserved_variable_rejected(self, sig):
        with pytest.raises(ParseError):
            parse_formula("forall forall. p(x)", sig)


# every ParseError of the tokenizer and the parser: (text, parse a sequent
# rather than a formula, message, position); `top` is a 0-ary connective
_NESTED = "not(" * (MAX_NESTING + 1) + "T" + ")" * (MAX_NESTING + 1)
_PARSE_ERRORS = [
    ("or(p(x), !)", False, "unexpected character '!'", 9),
    ("", False, "expected a formula, found ''", 0),
    ("or(p(x), )", False, "expected a formula, found ')'", 9),
    ("p(x), => r", True, "expected a formula, found '=>'", 6),
    ("or(, T)", False, "expected a formula, found ','", 3),
    (_NESTED, False, f"formula nests more than {MAX_NESTING} levels deep", 4 * MAX_NESTING),
    ("forall forall. p(x)", False, "'forall' cannot be a variable name", 7),
    ("p(exists)", False, "'exists' cannot be a variable name", 2),
    ("b(x, forall)", False, "'forall' cannot be a variable name", 5),
    ("s", False, "unknown symbol 's'", 0),
    ("not(s(x))", False, "unknown symbol 's'", 4),
    ("or", False, "connective 'or' expects 2 arguments, got 0", 0),
    ("not(or(T))", False, "connective 'or' expects 2 arguments, got 1", 4),
    ("or()", False, "connective 'or' expects 2 arguments, got 0", 0),
    ("top(T)", False, "connective 'top' expects 0 arguments, got 1", 0),
    ("p", False, "predicate 'p' expects 1 arguments, got 0", 0),
    ("not(p(x, y))", False, "predicate 'p' expects 1 arguments, got 2", 4),
    ("p()", False, "predicate 'p' expects 1 arguments, got 0", 0),
    ("T(x)", False, "predicate 'T' expects 0 arguments, got 1", 0),
    ("or(T, T", False, "expected ')', found ''", 7),
    ("p(x y)", False, "expected ')', found 'y'", 4),
    ("p(x,)", False, "expected 'IDENT', found ')'", 4),
    ("p(, x)", False, "expected 'IDENT', found ','", 2),
    ("forall . p(x)", False, "expected 'IDENT', found '.'", 7),
    ("forall x p(x)", False, "expected '.', found 'p'", 9),
    ("p(x), p(y)", True, "expected '=>', found ''", 10),
    ("p(x) q", False, "trailing input 'q'", 5),
    ("p(x) => p(y) r", True, "trailing input 'r'", 13),
    ("p(x) => => r", True, "trailing input '=>'", 8),
]


@pytest.mark.parametrize("text, sequent, message, position", _PARSE_ERRORS)
def test_parse_error_message_and_position(text, sequent, message, position):
    sig = Signature(
        {"p": 1, "b": 2, "T": 0},
        {"or": builtin("or"), "not": builtin("not"), "top": TruthFunction(0, (1,))},
    )
    with pytest.raises(ParseError) as err:
        (parse_sequent if sequent else parse_formula)(text, sig)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


class TestFreeVars:
    def test_binder_removes(self, sig):
        assert free_vars(parse_formula("forall x. b(x, y)", sig)) == {"y"}

    def test_connective_union(self, sig):
        assert free_vars(parse_formula("or(p(x), q(y))", sig)) == {"x", "y"}

    def test_zero_ary_atom(self, sig):
        assert free_vars(Atom("T")) == frozenset()

    @given(formulas)
    def test_conn_is_exact_union(self, inner):
        wrapped = Conn("or", (inner, Atom("r")))
        assert free_vars(wrapped) == free_vars(inner) | free_vars(Atom("r"))


class TestSubformulas:
    def test_atom(self):
        assert subformulas(Atom("p", ("x",))) == [Atom("p", ("x",))]

    def test_quantifier(self):
        f = Forall("x", Atom("p", ("x",)))
        assert subformulas(f) == [Atom("p", ("x",)), f]

    def test_duplicates_collapse(self):
        f = Conn("or", (Atom("p", ("x",)), Atom("p", ("x",))))
        assert subformulas(f) == [Atom("p", ("x",)), f]


class TestRendering:
    @pytest.mark.parametrize(
        "text",
        [
            "or(p(x), q(x))",
            "forall x. c3(p(x), q(x), T)",
            "forall x. exists y. b(x, y)",
        ],
    )
    def test_round_trip_examples(self, sig, text):
        formula = parse_formula(text, sig)
        assert parse_formula(render_formula(formula), sig) == formula
        assert render_formula(formula) == text

    @given(formulas)
    def test_round_trip_random(self, formula):
        sig = Signature(
            {"p": 1, "b": 2, "r": 0}, {"or": builtin("or"), "not": builtin("not")}
        )
        assert parse_formula(render_formula(formula), sig) == formula


class TestSequents:
    def test_parse_and_duplicates_collapse(self, sig):
        s = parse_sequent("p(x), p(x), q(x) => r", sig)
        assert s.antecedent == (Atom("p", ("x",)), Atom("q", ("x",)))
        assert s.succedent == (Atom("r"),)

    def test_empty_sides(self, sig):
        assert parse_sequent("=> r", sig) == Sequent((), (Atom("r"),))
        assert parse_sequent("p(x) =>", sig) == Sequent((Atom("p", ("x",)),), ())
        assert parse_sequent("=>", sig) == Sequent((), ())

    def test_canonical_order_is_render_order(self, sig):
        s = Sequent((Atom("q", ("x",)), Atom("p", ("x",))), ())
        assert s.antecedent == (Atom("p", ("x",)), Atom("q", ("x",)))

    def test_render_round_trip(self, sig):
        for text in ("p(x), q(y) => r", "=> r", "p(x) =>", "=>"):
            s = parse_sequent(text, sig)
            assert parse_sequent(render_sequent(s), sig) == s

    def test_missing_arrow(self, sig):
        with pytest.raises(ParseError):
            parse_sequent("p(x), q(x)", sig)

    def test_free_vars(self, sig):
        s = parse_sequent("b(x, y) => p(z)", sig)
        assert sequent_free_vars(s) == {"x", "y", "z"}


class TestSignature:
    def test_reserved_names_rejected(self):
        with pytest.raises(InvalidSignatureError):
            Signature({"forall": 1}, {})
        with pytest.raises(InvalidSignatureError):
            Signature({}, {"exists": builtin("or")})

    def test_shared_name_rejected(self):
        with pytest.raises(InvalidSignatureError):
            Signature({"f": 1}, {"f": builtin("not")})

    def test_signature_file_round_trip(self, sig):
        assert parse_signature(signature_to_text(sig)) == sig

    def test_builtin_shorthand(self):
        parsed = parse_signature("pred p 1\nconn or builtin\n")
        assert parsed.connectives["or"] == builtin("or")

    def test_bad_directives(self):
        with pytest.raises(InvalidSignatureError):
            parse_signature("pred p one\n")
        with pytest.raises(InvalidSignatureError):
            parse_signature("conn f 2 011\n")
        with pytest.raises(InvalidSignatureError):
            parse_signature("frobnicate\n")
        with pytest.raises(InvalidSignatureError):
            parse_signature("pred p 1\npred p 2\n")

    def test_conn_table_check_is_the_json_one(self):
        # `conn NAME ARITY TABLE` lines and connective JSON files share one check
        for arity, table in (("2", "011"), ("-1", "0"), ("1", "0x"), (str(10**30), "01")):
            with pytest.raises(InvalidSignatureError) as raised:
                parse_signature(f"conn f {arity} {table}\n")
            with pytest.raises(ValueError) as direct:
                TruthFunction.from_json(f'{{"arity": {arity}, "table": "{table}"}}')
            assert str(raised.value) == f"line 1: {direct.value}"


# signature lines shaped like `pred`/`conn` directives, so that the fuzzer
# reaches the parser's branches and not only its "unknown directive" error
_SIGNATURE_LINE = st.one_of(
    st.text(max_size=12),
    st.lists(
        st.one_of(
            st.sampled_from(
                ["pred", "conn", "builtin", "p", "or", "xor", "f", "T", "#", "0", "1", "2",
                 "-1", "01", "0110", "0x", "99999999999"]
            ),
            st.text(max_size=3),
        ),
        max_size=5,
    ).map(" ".join),
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), st.lists(_SIGNATURE_LINE, max_size=6).map("\n".join)))
@example("pred p -1")
@example("conn c -1 0")
@example("pred or 1\nconn or builtin")
def test_signature_parser_returns_a_signature_or_raises_invalid_signature_error(text):
    try:
        signature = parse_signature(text)
    except InvalidSignatureError:
        return
    assert isinstance(signature, Signature)
