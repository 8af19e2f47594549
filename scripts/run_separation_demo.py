#!/usr/bin/env python3
"""Synthesize separating sequents for every non-supermultiplicative function
of a chosen arity and re-check each certificate, with bounded constant-domain
verification for a few highlighted connectives."""

import argparse

from kripkebench.search import SearchBounds
from kripkebench.semantics import Evaluator
from kripkebench.synthesize import format_certificate, synthesize
from kripkebench.truthfun import builtin, enumerate_truth_functions, is_supermultiplicative


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--arity", type=int, default=3)
    parser.add_argument("--show", type=int, default=2, help="certificates to print in full")
    parser.add_argument("--cd-worlds", type=int, default=3)
    parser.add_argument("--cd-domain", type=int, default=2)
    args = parser.parse_args()

    cd_bounds = SearchBounds(args.cd_worlds, args.cd_domain, "tree")
    for name in ("or", "xor"):
        certificate = synthesize(name, builtin(name), cd_bounds)
        print(format_certificate(certificate))

    shown = 0
    total = 0
    cases = {}
    for tf in enumerate_truth_functions(args.arity):
        supermultiplicative, _ = is_supermultiplicative(tf)
        if supermultiplicative:
            continue
        certificate = synthesize("c", tf, cd_bounds=None)
        value = Evaluator(certificate.model, certificate.signature).sequent_value(
            "w1", {}, certificate.sequent
        )
        assert value == 0
        cases[certificate.case] = cases.get(certificate.case, 0) + 1
        total += 1
        if shown < args.show:
            print(format_certificate(certificate))
            shown += 1
    print(f"arity {args.arity}: {total} certificates, all refuted at the fixed point; cases {cases}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
