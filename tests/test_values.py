"""Value semantics of the package's record and value classes: repr, equality,
hash and immutability, as they stood when the classes were frozen
dataclasses. Callers compare, hash and print these values, so none of this
may change with how the classes are defined."""

import pytest

from kripkebench.construct import (
    BarViolation,
    ConstantDomainCompletion,
    check_main_lemma,
    complete_to_constant_domain,
    constant_domain_pipeline,
    tree_from_model,
)
from kripkebench.search import (
    CorpusRecord,
    Refuted,
    SearchBounds,
    ValidUpToBounds,
    classify_connectives,
    report_relations,
)
from kripkebench.semantics import CompiledFormulas, CompiledSequent, KripkeModel
from kripkebench.synthesize import star_vectors, synthesize
from kripkebench.syntax import Atom, Conn, Exists, Forall, Sequent, Signature
from kripkebench.truthfun import TruthFunction, TruthVector

# each class's fields in repr order; ConstantDomainCompletion's blocks,
# zero_ary and by_value are not in its repr
FIELDS = {
    "SearchBounds": ("max_worlds", "max_domain", "shape"),
    "ValidUpToBounds": ("bounds",),
    "Refuted": ("model", "world", "assignment"),
    "ConnectiveCensus": ("arity", "quadrants"),
    "ConnectiveProperties": ("name", "supermultiplicative", "monotonic", "witness"),
    "RelationReport": ("connectives",),
    "CorpusRecord": (
        "sequent", "kripke_refuted", "cd_refuted", "classical_refuted", "inconclusive", "note"
    ),
    "Signature": ("predicates", "connectives"),
    "TruthVector": ("bits",),
    "TruthFunction": ("arity", "table"),
    "Atom": ("pred", "args"),
    "Conn": ("conn", "args"),
    "Forall": ("var", "body"),
    "Exists": ("var", "body"),
    "Sequent": ("antecedent", "succedent"),
    "KripkeModel": ("worlds", "up", "domains", "labels"),
    "TreeModel": ("model", "root", "parent", "last", "truncated"),
    "ConstantDomainCompletion": ("tree", "functions"),
    "BarViolation": ("subformula", "node", "assignment", "value"),
    "MainLemmaReport": ("formula", "completion", "status", "instances", "bar_violation"),
    "PipelineReport": (
        "status", "tree", "completion", "lifted", "equivalence", "completed_sequent_value"
    ),
    "StarVectors": ("a_star", "b_star"),
    "SeparationCertificate": (
        "connective", "truth_function", "case", "witness_a", "witness_b", "star_a", "star_b",
        "signature", "sequent", "model", "refutation_world", "refutation_assignment",
        "antecedent_values", "succedent_values", "cd_verdict",
    ),
}

# a field holds a dict, so hashing raises TypeError
UNHASHABLE = {
    "Refuted", "ConnectiveCensus", "Signature", "KripkeModel", "TreeModel",
    "ConstantDomainCompletion", "MainLemmaReport", "PipelineReport", "SeparationCertificate",
}

# the repr of the small values, whose sets have at most one member, so
# that it does not depend on how strings hash
MODEL = (
    "KripkeModel(worlds=('w',), up=(1,), domains={'w': ('a',)},"
    " labels={('p', ('a',)): 1})"
)
TREE = f"TreeModel(model={MODEL}, root='w', parent={{}}, last=None, truncated=False)"
PX = "Atom(pred='p', args=('x',))"
REPRS = {
    "SearchBounds": "SearchBounds(max_worlds=2, max_domain=1, shape='tree')",
    "ValidUpToBounds": (
        "ValidUpToBounds(bounds=SearchBounds(max_worlds=2, max_domain=1, shape='tree'))"
    ),
    "Refuted": f"Refuted(model={MODEL}, world='w', assignment={{'x': 'a'}})",
    "ConnectiveCensus": (
        "ConnectiveCensus(arity=1, quadrants={(True, True): ('00', '01', '11'),"
        " (True, False): ('10',), (False, True): (), (False, False): ()})"
    ),
    "ConnectiveProperties": (
        "ConnectiveProperties(name='or', supermultiplicative=False, monotonic=True,"
        " witness=('01', '10'))"
    ),
    "RelationReport": (
        "RelationReport(connectives=(ConnectiveProperties(name='or',"
        " supermultiplicative=False, monotonic=True, witness=('01', '10')),))"
    ),
    "CorpusRecord": (
        f"CorpusRecord(sequent=Sequent(antecedent=({PX},), succedent=(Atom(pred='q', args=()),)),"
        " kripke_refuted=None, cd_refuted=False, classical_refuted=None, inconclusive=False,"
        " note='')"
    ),
    "Signature": (
        "Signature(predicates={'p': 1, 'q': 0},"
        " connectives={'or': TruthFunction(arity=2, table=(0, 1, 1, 1))})"
    ),
    "TruthVector": "TruthVector(bits=(1, 0))",
    "TruthFunction": "TruthFunction(arity=2, table=(0, 1, 1, 1))",
    "Atom": PX,
    "Conn": f"Conn(conn='or', args=({PX}, Atom(pred='q', args=())))",
    "Forall": f"Forall(var='x', body={PX})",
    "Exists": f"Exists(var='x', body={PX})",
    "Sequent": f"Sequent(antecedent=({PX},), succedent=(Atom(pred='q', args=()),))",
    "KripkeModel": MODEL,
    "TreeModel": TREE,
    "ConstantDomainCompletion": (
        f"ConstantDomainCompletion(tree={TREE}, functions={{'F0': {{'w': 'a'}}}})"
    ),
    "BarViolation": f"BarViolation(subformula={PX}, node='w', assignment=(('x', 'F0'),), value=1)",
    "StarVectors": "StarVectors(a_star=TruthVector(bits=(1, 0)), b_star=TruthVector(bits=(0, 1)))",
}


def build() -> dict:
    """One instance of each class, every part built anew."""
    sig = Signature({"p": 1, "q": 0}, {"or": TruthFunction(2, (0, 1, 1, 1))})
    px = Atom("p", ("x",))
    bounds = SearchBounds(2, 1, "tree")
    model = KripkeModel(("w",), (1,), {"w": ("a",)}, [("w", "p", ("a",))])
    sequent = Sequent((px,), (Atom("q"),))
    tree = tree_from_model(model)
    completion = complete_to_constant_domain(tree, sig)
    relations = report_relations(sig)
    return {
        "SearchBounds": bounds,
        "ValidUpToBounds": ValidUpToBounds(bounds),
        "Refuted": Refuted(model, "w", {"x": "a"}),
        "ConnectiveCensus": classify_connectives(1),
        "ConnectiveProperties": relations.connectives[0],
        "RelationReport": relations,
        "CorpusRecord": CorpusRecord(sequent, None, False, None, False, ""),
        "Signature": sig,
        "TruthVector": TruthVector((1, 0)),
        "TruthFunction": TruthFunction(2, (0, 1, 1, 1)),
        "Atom": px,
        "Conn": Conn("or", (px, Atom("q"))),
        "Forall": Forall("x", px),
        "Exists": Exists("x", px),
        "Sequent": sequent,
        "KripkeModel": model,
        "TreeModel": tree,
        "ConstantDomainCompletion": completion,
        "BarViolation": BarViolation(px, "w", (("x", "F0"),), 1),
        "MainLemmaReport": check_main_lemma(completion, sig, px),
        "PipelineReport": constant_domain_pipeline(model, sig, sequent, "w", {"x": "a"}),
        "StarVectors": star_vectors(TruthVector((1, 0)), TruthVector((0, 1))),
        "SeparationCertificate": synthesize("xor", TruthFunction(2, (0, 1, 1, 0)), None),
    }


VALUES = build()
AGAIN = build()


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_repr_lists_the_fields_in_order(name):
    value = VALUES[name]
    assert type(value).__name__ == name
    shown = ", ".join(f"{f}={getattr(value, f)!r}" for f in FIELDS[name])
    assert repr(value) == f"{name}({shown})"
    if name in REPRS:
        assert repr(value) == REPRS[name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_values_built_apart_are_equal(name):
    value, again = VALUES[name], AGAIN[name]
    assert value is not again
    assert value == again and not value != again
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(again)


@pytest.mark.parametrize("name", sorted(set(FIELDS) - UNHASHABLE))
def test_hash_is_the_hash_of_the_field_tuple(name):
    value = VALUES[name]
    assert hash(value) == hash(tuple(getattr(value, f) for f in FIELDS[name]))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_assignment_raises_attribute_error(name):
    value = VALUES[name]
    with pytest.raises(AttributeError):
        setattr(value, FIELDS[name][0], None)
    with pytest.raises(AttributeError):
        value.unknown = None
    assert getattr(value, FIELDS[name][0]) is not None


def test_formula_nodes_compare_by_class():
    px = Atom("p", ("x",))
    assert Forall("x", px) != Exists("x", px)
    assert Exists("x", px) != Forall("x", px)
    assert px != ("p", ("x",)) and ("p", ("x",)) != px
    assert Atom("q") == Atom("q", ())
    assert Conn("or", (px, px)) != Conn("and", (px, px))
    assert len({Forall("x", px), Exists("x", px), Forall("x", px)}) == 2


def test_equality_reads_every_compared_field():
    model = VALUES["KripkeModel"]
    labelled = KripkeModel(model.worlds, model.up, model.domains, labels=dict(model.labels))
    assert labelled == model
    assert KripkeModel(model.worlds, model.up, {"w": ("a", "b")}, labels=model.labels) != model
    assert SearchBounds(2, 1, "tree") != SearchBounds(2, 1, "poset")
    assert Sequent((Atom("q"),), ()) != Sequent((), (Atom("q"),))
    # the completion's by_value is left out of its equality
    completion = VALUES["ConstantDomainCompletion"]
    args = completion.tree, completion.functions, completion.blocks, completion.zero_ary
    assert ConstantDomainCompletion(*args, []) == completion
    assert ConstantDomainCompletion(*args[:2], {}, {}, []) != completion


def test_compiled_sequent_is_a_record_of_its_parts():
    formulas = CompiledFormulas(VALUES["Signature"])
    parts = (formulas, (0,), (1,), (0,))
    compiled = CompiledSequent(*parts)
    assert compiled == CompiledSequent(*parts)
    assert CompiledSequent(CompiledFormulas(VALUES["Signature"]), *parts[1:]) != compiled
    assert repr(compiled) == (
        f"CompiledSequent(formulas={formulas!r}, antecedent=(0,), succedent=(1,), slots=(0,))"
    )
