"""Separating-sequent synthesis from a non-supermultiplicative connective.

Given any connective whose truth function maps two inputs to 1 but their
meet to 0, this module builds a sequent that is valid over constant-domain
models yet fails in a fixed two-world model with a growing domain, together
with a re-checkable certificate of both halves (the second only up to
bounds).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .search import DEFAULT_CD_BOUNDS, Refuted, SearchBounds, Verdict, decide
from .semantics import (
    KripkeModel,
    model_to_text,
    reflexive_transitive_closure,
    refuting_points,
    validate_model,
)
from .syntax import (
    Atom,
    Conn,
    Exists,
    Forall,
    Formula,
    Sequent,
    Signature,
    render_formula,
    render_sequent,
)
from .truthfun import (
    TruthFunction,
    TruthVector,
    is_supermultiplicative,
    tv_join,
    tv_meet,
)

ROLE_KEYS = ("p", "q", "T", "R")


def find_witness(tf: TruthFunction) -> tuple[TruthVector, TruthVector]:
    """Lexicographically least pair mapped to 1 whose meet is mapped to 0."""
    supermultiplicative, witness = is_supermultiplicative(tf)
    if supermultiplicative:
        raise ValueError("the truth function is supermultiplicative; no witness exists")
    assert witness is not None
    return witness


class StarVectors(NamedTuple):
    """The witness pair with joint-zero positions raised to 1."""

    a_star: TruthVector
    b_star: TruthVector


def star_vectors(a: TruthVector, b: TruthVector) -> StarVectors:
    if len(a) != len(b):
        raise ValueError("witness vectors must have equal length")
    a_star = TruthVector(
        tuple(1 if a[i] == 0 and b[i] == 0 else a[i] for i in range(len(a)))
    )
    b_star = TruthVector(
        tuple(1 if a[i] == 0 and b[i] == 0 else b[i] for i in range(len(b)))
    )
    top = TruthVector.ones(len(a))
    meet = tv_meet(a, b)
    assert tv_meet(a, b_star) == meet and tv_meet(a_star, b) == meet
    assert tv_join(a, b_star) == top and tv_join(a_star, b) == top
    assert tv_join(a_star, b_star) == top
    return StarVectors(a_star, b_star)


def case_select(
    tf: TruthFunction, a: TruthVector, b: TruthVector, stars: StarVectors
) -> str:
    """The five-way case split; exhaustive and mutually exclusive in order."""
    if tf(a) != 1 or tf(b) != 1 or tf(tv_meet(a, b)) != 0:
        raise ValueError("not a witness pair for this truth function")
    if tf(TruthVector.ones(tf.arity)) == 0:
        return "A"
    if tf(stars.a_star) == 1:
        return "B"
    if tf(stars.b_star) == 1:
        return "C"
    if tf(tv_meet(stars.a_star, stars.b_star)) == 0:
        return "D"
    return "E"


def synthesis_signature(conn_name: str, tf: TruthFunction) -> tuple[Signature, dict[str, str]]:
    """Predicates p/1, q/1, T/0, R/0 next to the connective, renaming any of
    the four with a numeric suffix if the connective already took the name."""
    names = {}
    for key in ROLE_KEYS:
        candidate = key
        suffix = 1
        while candidate == conn_name:
            candidate = f"{key}{suffix}"
            suffix += 1
        names[key] = candidate
    predicates = {names["p"]: 1, names["q"]: 1, names["T"]: 0, names["R"]: 0}
    return Signature(predicates, {conn_name: tf}), names


def _selected_vectors(
    case: str, a: TruthVector, b: TruthVector, stars: StarVectors
) -> tuple[TruthVector, TruthVector]:
    if case in ("A", "D", "E"):
        return a, b
    if case == "B":
        return stars.a_star, b
    if case == "C":
        return a, stars.b_star
    raise ValueError(f"unknown case {case!r}")


def build_sequent(
    conn_name: str,
    tf: TruthFunction,
    case: str,
    left: TruthVector,
    right: TruthVector,
    names: dict[str, str],
) -> Sequent:
    """Assemble the case's sequent template from its selector vectors.

    Positions where both selectors are 0 take the designated always-0 formula
    (the connective applied to all-T in case A, the 0-ary R in D and E; such
    positions cannot occur in B or C); (0,1) positions quantify p, (1,0)
    positions quantify q, (1,1) positions take T.
    """
    arity = tf.arity
    if len(left) != arity or len(right) != arity:
        raise ValueError("selector vectors must match the connective arity")
    top = Atom(names["T"])
    if case == "A":
        zero: Optional[Formula] = Conn(conn_name, (top,) * arity)
    elif case in ("D", "E"):
        zero = Atom(names["R"])
    elif case in ("B", "C"):
        zero = None
    else:
        raise ValueError(f"unknown case {case!r}")

    def pick(i: int, universal_side: bool) -> Formula:
        bits = (left[i], right[i])
        if bits == (0, 0):
            if zero is None:
                raise ValueError(f"case {case} admits no joint-zero selector position")
            return zero
        if bits == (0, 1):
            return Forall("x", Atom(names["p"], ("x",))) if universal_side else Atom(names["p"], ("x",))
        if bits == (1, 0):
            return Exists("x", Atom(names["q"], ("x",))) if universal_side else Atom(names["q"], ("x",))
        return top

    phi = Forall("x", Conn(conn_name, tuple(pick(i, False) for i in range(arity))))
    psi = Conn(conn_name, tuple(pick(i, True) for i in range(arity)))
    antecedent: list[Formula] = [top, phi]
    if case == "E":
        r = Atom(names["R"])
        antecedent.append(
            biconditional(conn_name, tf, r, Forall("x", Atom(names["p"], ("x",))), top)
        )
        antecedent.append(
            biconditional(conn_name, tf, r, Forall("x", Atom(names["q"], ("x",))), top)
        )
    return Sequent(tuple(antecedent), (psi,))


def biconditional(
    conn_name: str,
    tf: TruthFunction,
    alpha: Formula,
    beta: Formula,
    top: Formula = Atom("T"),
) -> Formula:
    """The derived equivalence connective available in case-E shapes.

    Applies the connective to alpha at (0,1) star positions, beta at (1,0),
    and T at (1,1); wherever T holds, the result is 1 exactly when alpha and
    beta agree at every reachable world.
    """
    stars = star_vectors(*find_witness(tf))
    ones = TruthVector.ones(tf.arity)
    if not (
        tf(stars.a_star) == 0
        and tf(stars.b_star) == 0
        and tf(tv_meet(stars.a_star, stars.b_star)) == 1
        and tf(ones) == 1
    ):
        raise ValueError("the connective does not have the case-E shape")
    args = []
    for i in range(tf.arity):
        bits = (stars.a_star[i], stars.b_star[i])
        if bits == (0, 1):
            args.append(alpha)
        elif bits == (1, 0):
            args.append(beta)
        else:  # joint-zero star positions cannot occur: the stars join to all-ones
            args.append(top)
    return Conn(conn_name, tuple(args))


def separating_countermodel(names: Optional[dict[str, str]] = None) -> KripkeModel:
    """The fixed two-world model with a growing domain that refutes every
    synthesized sequent: p holds of the root element, q only of the element
    appearing above, T everywhere, R nowhere."""
    if names is None:
        names = {key: key for key in ROLE_KEYS}
    p, q, top = names["p"], names["q"], names["T"]
    worlds = ("w1", "w2")
    return KripkeModel(
        worlds=worlds,
        up=reflexive_transitive_closure(worlds, [("w1", "w2")]),
        domains={"w1": ("a1",), "w2": ("a1", "a2")},
        facts=frozenset(
            {
                ("w1", p, ("a1",)),
                ("w2", p, ("a1",)),
                ("w2", q, ("a2",)),
                ("w1", top, ()),
                ("w2", top, ()),
            }
        ),
    )


class SeparationCertificate(NamedTuple):
    connective: str
    truth_function: TruthFunction
    case: str
    witness_a: TruthVector
    witness_b: TruthVector
    star_a: TruthVector
    star_b: TruthVector
    signature: Signature
    sequent: Sequent
    model: KripkeModel
    refutation_world: str
    refutation_assignment: dict[str, str]
    antecedent_values: tuple[tuple[str, int], ...]
    succedent_values: tuple[tuple[str, int], ...]
    cd_verdict: Optional[Verdict]


def synthesize(
    conn_name: str,
    tf: TruthFunction,
    cd_bounds: Optional[SearchBounds] = DEFAULT_CD_BOUNDS,
) -> SeparationCertificate:
    """Full pipeline: witness, stars, case, sequent, refutation, cd verdict.

    Raises ValueError for supermultiplicative input. Pass cd_bounds=None to
    skip the bounded constant-domain search (the refutation is still checked).
    """
    a, b = find_witness(tf)
    stars = star_vectors(a, b)
    case = case_select(tf, a, b, stars)
    signature, names = synthesis_signature(conn_name, tf)
    left, right = _selected_vectors(case, a, b, stars)
    sequent = build_sequent(conn_name, tf, case, left, right, names)
    model = separating_countermodel(names)
    point = next(refuting_points(model, signature, sequent), None)
    if validate_model(model) or point != ("w1", {}):
        raise AssertionError(
            f"synthesized sequent is not refuted at the expected point:"
            f" {render_sequent(sequent)}"
        )
    # refuted at w1 under the empty assignment: there every antecedent
    # formula is 1 and every succedent formula 0, by definition
    antecedent_values = tuple((render_formula(f), 1) for f in sequent.antecedent)
    succedent_values = tuple((render_formula(f), 0) for f in sequent.succedent)
    verdict = (
        decide(signature, sequent, "cd", cd_bounds) if cd_bounds is not None else None
    )
    return SeparationCertificate(
        connective=conn_name,
        truth_function=tf,
        case=case,
        witness_a=a,
        witness_b=b,
        star_a=stars.a_star,
        star_b=stars.b_star,
        signature=signature,
        sequent=sequent,
        model=model,
        refutation_world="w1",
        refutation_assignment={},
        antecedent_values=antecedent_values,
        succedent_values=succedent_values,
        cd_verdict=verdict,
    )


def format_certificate(certificate: SeparationCertificate) -> str:
    """Stable structured-text rendering, designed for diffing."""
    lines = [
        f"connective: {certificate.connective}",
        f"arity: {certificate.truth_function.arity}",
        f"table: {certificate.truth_function.table_string()}",
        f"case: {certificate.case}",
        f"witness-a: {certificate.witness_a}",
        f"witness-b: {certificate.witness_b}",
        f"star-a: {certificate.star_a}",
        f"star-b: {certificate.star_b}",
        f"sequent: {render_sequent(certificate.sequent)}",
        f"refutation-world: {certificate.refutation_world}",
        "refutation-assignment: (empty)",
    ]
    for rendered, value in certificate.antecedent_values:
        lines.append(f"antecedent-value: {value} {rendered}")
    for rendered, value in certificate.succedent_values:
        lines.append(f"succedent-value: {value} {rendered}")
    if certificate.cd_verdict is None:
        lines.append("cd-verdict: skipped")
    elif isinstance(certificate.cd_verdict, Refuted):
        lines.append("cd-verdict: refuted (constant-domain countermodel found!)")
    else:
        bounds = certificate.cd_verdict.bounds
        lines.append(
            "cd-verdict: valid-up-to-bounds"
            f" max-worlds={bounds.max_worlds} max-domain={bounds.max_domain}"
            f" shape={bounds.shape}"
        )
    lines.append("countermodel:")
    lines.append(model_to_text(certificate.model, certificate.signature).rstrip("\n"))
    return "\n".join(lines) + "\n"
