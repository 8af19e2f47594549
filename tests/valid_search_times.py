"""The time of warm in-process `decide` calls on valid sequents.

A valid verdict labels every model of the frame stream, so these calls show
the labelling's cost alone once the stream is built. The sequents are the
three valid ones of the `kripke-exhaust` workload at (3, 2, poset), and the
xor one of them at (4, 2, poset). Each is decided once to build its stream,
then CALLS times more; the median and least time of a call are printed. No
time is checked: the script exits 1 only if a verdict is not
valid-up-to-bounds. Run it as

    PYTHONPATH=src python tests/valid_search_times.py
"""

import statistics
import sys
import time

from kripkebench.search import SearchBounds, ValidUpToBounds, decide
from kripkebench.syntax import Signature, parse_sequent
from kripkebench.truthfun import builtin

CALLS = 200
SMALL = SearchBounds(3, 2, "poset")
LARGE = SearchBounds(4, 2, "poset")
XOR = ({"p": 1, "r": 0}, "xor", "forall x. xor(p(x), r) => xor(forall x. p(x), r)")
SEARCHES = (
    ({"p": 1, "q": 1}, "and", "forall x. and(p(x), q(x)) => and(forall x. p(x), forall x. q(x))"),
    ({"p": 1, "r": 0}, "imp", "imp(exists x. p(x), r) => forall x. imp(p(x), r)"),
)


def main() -> int:
    wrong = 0
    for (predicates, conn, text), bounds in [(s, SMALL) for s in SEARCHES + (XOR,)] + [(XOR, LARGE)]:
        sig = Signature(predicates, {conn: builtin(conn)})
        sequent = parse_sequent(text, sig)
        verdict = decide(sig, sequent, "kripke", bounds)
        times = []
        for _ in range(CALLS):
            start = time.perf_counter()
            decide(sig, sequent, "kripke", bounds)
            times.append(time.perf_counter() - start)
        valid = isinstance(verdict, ValidUpToBounds)
        wrong += not valid
        print(
            f"({bounds.max_worlds}, {bounds.max_domain}, {bounds.shape}) {text}:"
            f" {'valid-up-to-bounds' if valid else 'WRONG: refuted'},"
            f" median {statistics.median(times) * 1e6:.0f} us,"
            f" least {min(times) * 1e6:.0f} us over {CALLS} warm calls"
        )
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
