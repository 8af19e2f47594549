"""`decide` against the naive oracle at the bounds of the `kripke-exhaust`
workload.

`util.naive_decide` scans the unreduced model stream model by model, sharing
no code with `enumerate_frames` or `Evaluator`. This compares the two on the
40 corpus sequents of seed 2024 at (3, 2, poset), in kripke, cd and
classical mode: the same verdict, and for a refutation the same model, world
and assignment. It
takes minutes, not seconds, so pytest does not collect it. Run it as

    PYTHONPATH=src python tests/oracle_grid.py

It prints each disagreement and a summary line, and exits 1 on any
disagreement.
"""

import sys
import time

from kripkebench.search import Refuted, SearchBounds, decide, sequent_corpus
from kripkebench.syntax import render_sequent

from test_search import _corpus_signature
from util import naive_decide

BOUNDS = SearchBounds(3, 2, "poset")
MODES = ("kripke", "cd", "classical")
COUNT = 40


def main() -> int:
    sig = _corpus_signature()
    sequents = sequent_corpus(sig, 2024, COUNT)
    started = time.monotonic()
    refuted = disagreements = 0
    for mode in MODES:
        for i, s in enumerate(sequents):
            verdict = decide(sig, s, mode, BOUNDS)
            if verdict != naive_decide(sig, s, mode, BOUNDS):
                disagreements += 1
                print(f"{mode} sequent {i}: decide and the oracle disagree: {render_sequent(s)}")
            refuted += isinstance(verdict, Refuted)
    print(
        f"{len(MODES) * COUNT} verdicts at {BOUNDS}, {refuted} refuted,"
        f" {disagreements} disagreements, {time.monotonic() - started:.1f} s"
    )
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
