"""A fixed computation that measures how fast the host runs Python right now.

On a shared virtual machine the same code runs a fifth or more faster or
slower from one minute to the next, and CPU time follows wall time, so a
plain timing varies with the host more than with the program. The benchmark
times this computation at regular intervals throughout a run and reports the
program's times as multiples of it: a value in `ref` units is the program's
time divided by the median time of one reference evaluation in the same run.

The computation is the benchmark's own naive Kripke evaluator (`check.holds`)
on a fixed model, so it does the same kind of work as the program (recursion,
tuples, dicts and set lookups) but shares no code with it. The collector is
off while it runs, so the size of the program's heap does not change it.
"""

from __future__ import annotations

import gc
import itertools
from time import perf_counter
from types import SimpleNamespace

import check

# Worlds, elements, predicates and variables are ints: their hashes do not
# depend on the interpreter's per-process string-hash seed, so neither do the
# set and dict lookups here.
P, E = 0, 1
X, Y = 0, 1
# a diamond with one more world on top; domains grow from 1 to 4 elements
_WORLDS = (0, 1, 2, 3, 4)
_EDGES = ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4))
_DOMAINS = {0: (0,), 1: (0, 1), 2: (0, 2), 3: (0, 1, 2), 4: (0, 1, 2, 3)}
# forall x. imp(p(x), exists y. e(y, x)), and forall x. exists y. and(p(y), e(x, y))
_FORMULAS = (
    ("forall", X, ("conn", (1, 1, 0, 1), (
        ("atom", P, (X,)), ("exists", Y, ("atom", E, (Y, X)))))),
    ("forall", X, ("exists", Y, ("conn", (0, 0, 0, 1), (
        ("atom", P, (Y,)), ("atom", E, (X, Y)))))),
)


def _model() -> SimpleNamespace:
    order = {(w, w) for w in _WORLDS} | set(_EDGES)
    while True:
        extra = {(a, d) for a, b in order for c, d in order if b == c} - order
        if not extra:
            break
        order |= extra
    facts = set()
    for w in _WORLDS:
        for i, (x, y) in enumerate(itertools.product(_DOMAINS[w], repeat=2)):
            if (i + w) % 3 == 0:
                facts.add((w, E, (x, y)))
        for x in _DOMAINS[w][::2]:
            facts.add((w, P, (x,)))
    # close the facts upward, as in a Kripke model
    facts = {(v, pred, args) for w, pred, args in facts for v in _WORLDS if (w, v) in order}
    return SimpleNamespace(worlds=_WORLDS, order=order, domains=_DOMAINS, facts=facts)


_MODEL = _model()
ROUNDS = 4


def reference_seconds() -> float:
    """Time of one reference evaluation: every formula at every world, ROUNDS times."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(ROUNDS):
            for formula in _FORMULAS:
                for world in _WORLDS:
                    check.holds(_MODEL, world, {}, formula)
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()
