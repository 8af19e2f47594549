#!/usr/bin/env python3
"""Desk-scale check that bounded verdicts across the three model classes are
mutually consistent on a seeded corpus of random sequents."""

import argparse

from kripkebench.search import CORPUS_SMALL_BOUNDS, check_relations_on_corpus, sequent_corpus
from kripkebench.syntax import Signature
from kripkebench.truthfun import builtin


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--count", type=int, default=60)
    parser.add_argument(
        "--connectives", default="not,and,imp", help="comma-separated builtin names"
    )
    args = parser.parse_args()

    names = [n.strip() for n in args.connectives.split(",") if n.strip()]
    signature = Signature({"p": 1, "q": 1, "r": 0}, {n: builtin(n) for n in names})
    corpus = sequent_corpus(signature, args.seed, args.count)
    records = check_relations_on_corpus(signature, corpus)
    cd_refuted = sum(1 for r in records if r.cd_refuted)
    inconclusive = sum(1 for r in records if r.inconclusive)
    classical = sum(1 for r in records if r.classical_refuted)
    print(f"signature: {{{args.connectives}}}  corpus: {len(records)} (seed {args.seed})")
    b = CORPUS_SMALL_BOUNDS
    print(f"cd-refuted at ({b.max_worlds},{b.max_domain},{b.shape}): {cd_refuted}")
    print(f"classically refuted (when the monotone theorem applies): {classical}")
    print(f"inconclusive: {inconclusive}")
    for record in records:
        if record.inconclusive:
            print(f"  inconclusive: {record.note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
