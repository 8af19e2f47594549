"""Command-line front door.

Exit codes: 0 success / valid-up-to-bounds, 1 refuted (or a failed lemma
check), 2 usage or parse error, 3 invalid model or signature file. Output is
byte-identical across runs for a fixed configuration; the optional timing
line is off by default.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from typing import Optional

from . import search, semantics  # construct and synthesize load in the commands that use them
from .search import SearchBounds, ValidUpToBounds
from .semantics import InvalidModelError, model_to_text
from .syntax import (
    InvalidSignatureError,
    ParseError,
    Signature,
    parse_formula,
    parse_sequent,
    parse_signature,
    strip_comment,
)
from .truthfun import (
    TruthFunction,
    builtin,
    is_monotonic,
    is_supermultiplicative,
)

# the most sequents `report-relations --corpus` may sweep (about 5 s); the
# corpus is built whole before the sweep starts
MAX_CORPUS = 10_000


def _connective_from_args(args) -> tuple[str, TruthFunction]:
    if args.builtin:
        return args.builtin, builtin(args.builtin)
    with open(args.connective, encoding="utf-8") as handle:
        tf = TruthFunction.from_json(handle.read())
    name = args.name or os.path.splitext(os.path.basename(args.connective))[0]
    return name, tf


def _bounds_from_args(args) -> SearchBounds:
    return SearchBounds(
        max_worlds=args.max_worlds,
        max_domain=args.max_domain,
        shape=args.shape,
    )


def _load_problem(path: str) -> tuple[Signature, str]:
    """A sequent file: signature directives plus one `sequent:` line."""
    sequent_text: Optional[str] = None
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = strip_comment(raw)
        if line.startswith("sequent:"):
            if sequent_text is not None:
                raise InvalidSignatureError(f"line {lineno}: duplicate sequent line")
            sequent_text = line[len("sequent:"):].strip()
            # blanked, so that the signature parser numbers every other line
            # as the file does
            lines[lineno - 1] = ""
    if sequent_text is None:
        raise InvalidSignatureError(f"{path}: missing 'sequent:' line")
    return parse_signature("\n".join(lines)), sequent_text


def _add_bounds_arguments(sub) -> None:
    sub.add_argument("--max-worlds", type=int, default=3)
    sub.add_argument("--max-domain", type=int, default=2)
    sub.add_argument("--shape", choices=search.SHAPES, default="poset")


def _add_connective_arguments(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin")
    group.add_argument("--connective", help="JSON file with arity and table")
    sub.add_argument("--name", help="connective name when read from a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kripkebench",
        description="Kripke countermodel search and constant-domain constructions"
        " for first-order logic with truth-functional connectives.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--workers", type=int, default=1, help="must be at least 1; search runs in one process"
    )
    common.add_argument("--timing", action="store_true", help="append an elapsed-time line")
    commands = parser.add_subparsers(dest="subcommand", required=True)

    def add_parser(name, **kwargs):
        return commands.add_parser(name, parents=[common], **kwargs)

    analyze = add_parser("analyze-connective", help="property report for one connective")
    _add_connective_arguments(analyze)

    dec = add_parser("decide", help="bounded countermodel search for a sequent")
    dec.add_argument("--mode", choices=search.MODES, required=True)
    dec.add_argument("--seq", required=True, help="sequent file")
    _add_bounds_arguments(dec)

    syn = add_parser("synthesize", help="separating sequent for a connective")
    _add_connective_arguments(syn)
    cd_bounds = search.DEFAULT_CD_BOUNDS
    syn.add_argument(
        "--cd-bounds",
        nargs=2,
        type=int,
        metavar=("WORLDS", "DOMAIN"),
        default=(cd_bounds.max_worlds, cd_bounds.max_domain),
        help="bounds for the constant-domain check",
    )
    syn.add_argument("--no-cd-check", action="store_true")
    syn.add_argument("--output", help="write the certificate here instead of stdout")

    unravel = add_parser("unravel", help="tree unraveling of a model")
    style = unravel.add_mutually_exclusive_group(required=True)
    style.add_argument("--strict", action="store_true")
    style.add_argument("--stutter", type=int, metavar="LENGTH")
    unravel.add_argument("model")
    unravel.add_argument("--root", help="start world (default: first declared)")

    complete = add_parser("complete", help="constant-domain completion of a tree model")
    complete.add_argument("model")

    lemma = add_parser(
        "check-main-lemma",
        help="check the completion equivalence for a formula on a tree model",
    )
    lemma.add_argument("model")
    lemma.add_argument("formula")

    census = add_parser("census", help="classify all truth functions of an arity")
    census.add_argument("--arity", type=int, required=True)
    census.add_argument("--list", action="store_true", help="list tables even for arity 3+")

    relations = add_parser(
        "report-relations", help="which validity classes coincide over a signature"
    )
    group = relations.add_mutually_exclusive_group(required=True)
    group.add_argument("--sig", help="signature file")
    group.add_argument("--builtins", help="comma-separated builtin connectives")
    relations.add_argument(
        "--corpus",
        type=int,
        default=0,
        help=f"also run the seeded corpus consistency sweep of this size, at most {MAX_CORPUS}",
    )
    relations.add_argument("--seed", type=int, default=0, help="seed of the corpus")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call rather than at import.

    Parsing leaves the parser unchanged, so one serves every call.
    """
    return build_parser()


def cmd_analyze(args) -> int:
    name, tf = _connective_from_args(args)
    supermultiplicative, witness = is_supermultiplicative(tf)
    print(f"connective: {name}")
    print(f"arity: {tf.arity}")
    print(f"table: {tf.table_string()}")
    print(f"monotonic: {'yes' if is_monotonic(tf) else 'no'}")
    print(f"supermultiplicative: {'yes' if supermultiplicative else 'no'}")
    if witness is not None:
        print(f"witness-a: {witness[0]}")
        print(f"witness-b: {witness[1]}")
    return 0


def cmd_decide(args) -> int:
    signature, sequent_text = _load_problem(args.seq)
    sequent = parse_sequent(sequent_text, signature)
    verdict = search.decide(signature, sequent, args.mode, _bounds_from_args(args))
    if isinstance(verdict, ValidUpToBounds):
        b = verdict.bounds
        print(
            f"verdict: valid-up-to-bounds mode={args.mode} max-worlds={b.max_worlds}"
            f" max-domain={b.max_domain} shape={b.shape}"
        )
        return 0
    print(f"verdict: refuted mode={args.mode}")
    print(f"world: {verdict.world}")
    assignment = " ".join(f"{k}={v}" for k, v in sorted(verdict.assignment.items()))
    print(f"assignment: {assignment if assignment else '(empty)'}")
    print("countermodel:")
    print(model_to_text(verdict.model, signature), end="")
    return 1


def cmd_synthesize(args) -> int:
    from . import synthesize
    name, tf = _connective_from_args(args)
    if args.no_cd_check:
        cd_bounds = None
    else:
        worlds, domain = args.cd_bounds
        cd_bounds = SearchBounds(worlds, domain, search.DEFAULT_CD_BOUNDS.shape)
    certificate = synthesize.synthesize(name, tf, cd_bounds)
    text = synthesize.format_certificate(certificate)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def cmd_unravel(args) -> int:
    from . import construct
    model, signature = semantics.load_model(args.model)
    start = model.worlds[0] if args.root is None else args.root
    if args.strict:
        tree = construct.unravel_strict(model, start)
    else:
        tree = construct.unravel_stuttered(model, start, args.stutter)
    print(f"# root: {tree.root}")
    if tree.truncated:
        print("# truncated: value/bar preservation holds only in the limit")
    assert tree.last is not None
    for node in tree.nodes:
        print(f"# last {node}: {tree.last[node]}")
    print(model_to_text(tree.model, signature), end="")
    return 0


def cmd_complete(args) -> int:
    from . import construct
    model, signature = semantics.load_model(args.model)
    tree = construct.tree_from_model(model)
    completion = construct.complete_to_constant_domain(tree, signature)
    for name, function in completion.functions.items():
        rendered = ", ".join(f"{n}: {e}" for n, e in function.items())
        print(f"# {name} = {{{rendered}}}")
    print(construct.completion_to_text(completion, signature), end="")
    return 0


def cmd_check_main_lemma(args) -> int:
    from . import construct
    model, signature = semantics.load_model(args.model)
    tree = construct.tree_from_model(model)
    formula = parse_formula(args.formula, signature)
    completion = construct.complete_to_constant_domain(tree, signature)
    report = construct.check_main_lemma(completion, signature, formula)
    print(construct.format_main_lemma(report))
    return 0 if report.status == "holds" else 1


def cmd_census(args) -> int:
    census = search.classify_connectives(args.arity)
    print(f"arity: {census.arity}")
    print(f"functions: {1 << (1 << census.arity)}")
    labels = {
        (True, True): "supermultiplicative, monotonic",
        (True, False): "supermultiplicative, non-monotonic",
        (False, True): "non-supermultiplicative, monotonic",
        (False, False): "non-supermultiplicative, non-monotonic",
    }
    for key in ((True, True), (True, False), (False, True), (False, False)):
        tables = census.tables(*key)
        line = f"{labels[key]}: {len(tables)}"
        if args.arity <= 2 or args.list:
            line += " [" + " ".join(tables) + "]"
        print(line)
    return 0


def cmd_report_relations(args) -> int:
    if args.corpus < 0:
        raise ValueError(f"--corpus must be at least 0, not {args.corpus}")
    if args.corpus > MAX_CORPUS:
        raise ValueError(f"--corpus must be at most {MAX_CORPUS}, not {args.corpus}")
    if args.sig:
        with open(args.sig, encoding="utf-8") as handle:
            signature = parse_signature(handle.read())
    else:
        names = [n.strip() for n in args.builtins.split(",") if n.strip()]
        signature = Signature({"p": 1, "q": 1, "r": 0}, {n: builtin(n) for n in names})
    if args.corpus and not signature.predicates:
        raise InvalidSignatureError("corpus sweep needs predicates in the signature")
    report = search.report_relations(signature)
    for connective in report.connectives:
        parts = [
            f"connective {connective.name}:",
            "supermultiplicative" if connective.supermultiplicative else "non-supermultiplicative",
            "monotonic" if connective.monotonic else "non-monotonic",
        ]
        if connective.witness is not None:
            parts.append(f"witness=({connective.witness[0]},{connective.witness[1]})")
        print(" ".join(parts))
    print(f"intuitionistic = constant-domain: {'yes' if report.ils_equals_cds else 'no'}")
    print(f"constant-domain = classical: {'yes' if report.cds_equals_cls else 'no'}")
    print(f"intuitionistic = classical: {'yes' if report.ils_equals_cls else 'no'}")
    if args.corpus:
        corpus = search.sequent_corpus(signature, args.seed, args.corpus)
        records = search.check_relations_on_corpus(signature, corpus)
        inconclusive = sum(1 for r in records if r.inconclusive)
        refuted = sum(1 for r in records if r.cd_refuted)
        print(f"corpus: {len(records)} sequents, {refuted} cd-refuted, {inconclusive} inconclusive")
    return 0


_COMMANDS = {
    "analyze-connective": cmd_analyze,
    "decide": cmd_decide,
    "synthesize": cmd_synthesize,
    "unravel": cmd_unravel,
    "complete": cmd_complete,
    "check-main-lemma": cmd_check_main_lemma,
    "census": cmd_census,
    "report-relations": cmd_report_relations,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    started = time.monotonic()
    try:
        if args.workers < 1:
            raise ValueError("workers must be at least 1")
        code = _COMMANDS[args.subcommand](args)
    except (ParseError, ValueError, search.InconsistentVerdictError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidModelError, InvalidSignatureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.timing:
        print(f"# elapsed: {time.monotonic() - started:.3f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
