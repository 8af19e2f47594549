"""Seeded inputs for the four benchmark workloads, and the checks of their outputs.

`build(name, seed, directory)` writes a workload's input files into
`directory` and returns the calls to make through `kripkebench.cli.main`.
The seed changes every input file but not the work: it renames symbols,
keeping their sort order so that the program visits formulas, variables and
models in the same order, and it shuffles the order of the jobs.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import string
from dataclasses import dataclass
from typing import Callable, Optional

import check

WORKLOADS = ("kripke-exhaust", "cd-separation", "corpus-sweep", "completion")

# Every call runs in-process with one worker: a closed loop of one client.
WORKERS = ["--workers", "1"]


@dataclass
class Call:
    key: str
    argv: list[str]
    # run only when the previous call of the job exited 1 (refuted)
    if_refuted: bool = False
    # write stdout here after the call; later calls of the job read it
    save_to: Optional[str] = None


@dataclass
class Workload:
    jobs: list[list[Call]]
    # (exit code, stdout) by call key -> failure messages by call key
    check: Callable[[dict[str, tuple[int, str]]], dict[str, str]]

    @property
    def calls(self) -> list[Call]:
        return [call for job in self.jobs for call in job]


def _write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _renaming(rng: random.Random, names) -> dict[str, str]:
    """Each name keeps its first letter and gains four seeded letters.

    The symbols a workload renames have pairwise distinct first letters, and
    none shares its first letter with a connective or quantifier it is sorted
    against, so the program's canonical orders do not change.
    """
    return {n: n + "".join(rng.choice(string.ascii_lowercase) for _ in range(4)) for n in names}


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _rename(text: str, mapping: dict[str, str]) -> str:
    return _IDENT.sub(lambda m: mapping.get(m.group(), m.group()), text)


def _sequent_file(predicates: dict[str, int], connectives, sequent: str) -> str:
    lines = [f"pred {p} {a}" for p, a in predicates.items()]
    lines += [f"conn {c} builtin" for c in connectives]
    return "\n".join(lines + [f"sequent: {sequent}"]) + "\n"


def _failures(results, checks) -> dict[str, str]:
    """Run `checks` (key -> thunk) and collect the messages of those that fail."""
    failed = {}
    for key, thunk in checks.items():
        if key not in results:
            continue
        try:
            thunk(*results[key])
        except (check.CheckFailure, KeyError, IndexError, ValueError) as exc:
            failed[key] = f"{type(exc).__name__}: {exc}"
    return failed


# --- kripke-exhaust -----------------------------------------------------------

# (predicates, connectives, sequent, refuted at (3, 2, poset)). A pass of
# these four takes about 6 s, so a run has several passes; the valid sequent
# `exists x. or(p(x), q(x)) => or(exists x. p(x), exists x. q(x))` alone would
# add 5 s.
KRIPKE_SEQUENTS = (
    ({"p": 1, "q": 1}, ("and",),
     "forall x. and(p(x), q(x)) => and(forall x. p(x), forall x. q(x))", False),
    ({"p": 1, "r": 0}, ("imp",), "imp(exists x. p(x), r) => forall x. imp(p(x), r)", False),
    ({"p": 1, "r": 0}, ("xor",), "forall x. xor(p(x), r) => xor(forall x. p(x), r)", False),
    # Dummett's linearity axiom: its countermodels need three branching worlds
    ({"p": 0, "q": 0}, ("or", "imp"), "=> or(imp(p, q), imp(q, p))", True),
)
KRIPKE_BOUNDS = (3, 2, "poset")


def kripke_exhaust(seed: int, directory: str) -> Workload:
    rng = random.Random(seed)
    names = _renaming(rng, ("p", "q", "r", "x"))
    jobs, checks = [], {}
    for i, (predicates, connectives, text, refuted) in enumerate(KRIPKE_SEQUENTS):
        sequent = _rename(text, names)
        predicates = {names[p]: a for p, a in predicates.items()}
        path = _write(directory, f"k{i}.seq", _sequent_file(predicates, connectives, sequent))
        key = f"k{i}"
        jobs.append([Call(key, ["decide", "--mode", "kripke", "--seq", path] + WORKERS)])
        tables = {c: check.BUILTIN_TABLES[c] for c in connectives}

        def verify(code, out, sequent=sequent, tables=tables, refuted=refuted):
            got = check.check_decide(code, out, sequent, tables, "kripke", KRIPKE_BOUNDS)
            if got != refuted:
                raise check.CheckFailure(f"verdict refuted={got}, known answer refuted={refuted}")

        checks[key] = verify
    rng.shuffle(jobs)
    return Workload(jobs, lambda results: _failures(results, checks))


# --- cd-separation ------------------------------------------------------------

# The non-supermultiplicative tables: both binary ones (or, xor), the least
# table of each of the eight argument-permutation orbits of size 6 of ternary
# ones (cases A, B and C, 4,872 cd models each), and one case-D table, whose
# sequent adds the 0-ary R (22,470 cd models). Tables of one orbit differ by
# up to a fifth in cost, so the seed names the connectives but does not pick
# them.
TABLES = (
    "0111", "0110",
    "00011010", "00011011", "00101100", "00101101",
    "00101110", "00101111", "10011010", "10011011",
    "00101001",
)
CD_BOUNDS = (3, 2)


def cd_separation(seed: int, directory: str) -> Workload:
    rng = random.Random(seed)
    jobs, checks = [], {}
    for i, table in enumerate(TABLES):
        arity = len(table).bit_length() - 1
        name = _renaming(rng, ("c",))["c"]
        path = _write(directory, f"s{i}.json", json.dumps({"arity": arity, "table": table}))
        key = f"s{i}"
        jobs.append([Call(key, ["synthesize", "--connective", path, "--name", name] + WORKERS)])
        bits = tuple(int(b) for b in table)
        checks[key] = lambda code, out, bits=bits: check.check_certificate(code, out, bits, CD_BOUNDS)
    rng.shuffle(jobs)
    return Workload(jobs, lambda results: _failures(results, checks))


# --- corpus-sweep -------------------------------------------------------------

# The corpus is one fixed draw of the program's `sequent_corpus`, the one its
# tests and scripts use. Draws of 100 sequents differ threefold in cost (a
# few cd-valid sequents enumerate every model), so the seed renames the
# symbols and orders the jobs instead of drawing another corpus.
CORPUS_SEED = 2024
CORPUS_SIZE = 100
CORPUS_PREDICATES = {"p": 1, "q": 1, "r": 0}
CORPUS_CONNECTIVES = ("not", "and", "imp")
SMALL = (2, 2, "tree")
LARGE = (3, 2, "poset")


def _bounds_args(bounds) -> list[str]:
    worlds, domain, shape = bounds
    return ["--max-worlds", str(worlds), "--max-domain", str(domain), "--shape", shape]


def corpus_sweep(seed: int, directory: str) -> Workload:
    from kripkebench.search import sequent_corpus
    from kripkebench.syntax import Signature, render_sequent
    from kripkebench.truthfun import builtin

    signature = Signature(CORPUS_PREDICATES, {c: builtin(c) for c in CORPUS_CONNECTIVES})
    rng = random.Random(seed)
    names = _renaming(rng, ("p", "q", "r", "x", "y"))
    predicates = {names[p]: a for p, a in CORPUS_PREDICATES.items()}
    tables = {c: check.BUILTIN_TABLES[c] for c in CORPUS_CONNECTIVES}
    jobs, sequents = [], {}
    for i, sequent in enumerate(sequent_corpus(signature, CORPUS_SEED, CORPUS_SIZE)):
        text = _rename(render_sequent(sequent), names)
        path = _write(directory, f"c{i}.seq", _sequent_file(predicates, CORPUS_CONNECTIVES, text))
        sequents[i] = text
        decide = ["decide", "--seq", path] + WORKERS
        jobs.append([
            Call(f"c{i}.cd", decide + ["--mode", "cd"] + _bounds_args(SMALL)),
            Call(f"c{i}.kripke", decide + ["--mode", "kripke"] + _bounds_args(LARGE), if_refuted=True),
            Call(f"c{i}.classical", decide + ["--mode", "classical"] + _bounds_args(SMALL)),
        ])
    rng.shuffle(jobs)

    def check_corpus(results):
        checks, refuted = {}, {}
        for i, text in sequents.items():
            for mode, bounds in (("cd", SMALL), ("kripke", LARGE), ("classical", SMALL)):
                key = f"c{i}.{mode}"

                def verify(code, out, key=key, text=text, mode=mode, bounds=bounds):
                    refuted[key] = check.check_decide(code, out, text, tables, mode, bounds)

                checks[key] = verify
        failed = _failures(results, checks)
        # classical-refuted => cd-refuted => kripke-refuted, at these bounds
        for i in sequents:
            cd, kripke, classical = (f"c{i}.{m}" for m in ("cd", "kripke", "classical"))
            if refuted.get(classical) and cd in refuted and not refuted[cd]:
                failed.setdefault(cd, "classically refuted but cd-valid")
            if refuted.get(cd) and not refuted.get(kripke):
                failed.setdefault(kripke, "cd-refuted but not kripke-refuted")
        return failed

    return Workload(jobs, check_corpus)


# --- completion ---------------------------------------------------------------

# Parent vectors (node i+1 hangs under node parents[i]) of the fixed trees.
TREE_SHAPES = (
    (0, 0, 1, 1), (0, 0, 1, 2, 2), (0, 0, 1, 1, 2, 2), (0, 1, 2, 1, 0, 5), (0, 0, 0, 1, 2, 3),
)
DIAMONDS = 2
DOMAINS_BY_DEPTH = (("a",), ("a", "b"), ("a", "b", "c"))
COMPLETION_PREDICATES = {"p": 1, "e": 2}
FACTS_PER_PREDICATE = {"p": 4, "e": 14}
# The facts are one fixed draw. Draws differ by up to twofold in the cost of
# `check-main-lemma` (how soon `exists` finds a witness), so the seed renames
# worlds, elements, predicates and variables and orders the jobs instead.
FACTS_SEED = 2028
# The main lemma is claimed for supermultiplicative connectives only; with a
# non-supermultiplicative one such as `or`, instances can rightly fail.
LEMMA_FORMULA = "imp(p(x), exists y. e(y, x))"


def _closure(worlds, pairs) -> set[tuple[str, str]]:
    order = {(w, w) for w in worlds} | set(pairs)
    while True:
        extra = {(a, d) for a, b in order for c, d in order if b == c} - order
        if not extra:
            return order
        order |= extra


def _model_text(worlds, pairs, depth, rng) -> str:
    """A model on a fixed order whose domains grow with depth, with a fixed
    number of random facts per predicate, each closed upward."""
    order = _closure(worlds, pairs)
    domains = {w: DOMAINS_BY_DEPTH[min(depth[w], 2)] for w in worlds}
    facts = set()
    for pred, arity in COMPLETION_PREDICATES.items():
        slots = [
            (w, args)
            for args in itertools.product(DOMAINS_BY_DEPTH[-1], repeat=arity)
            for w in worlds
            if set(args) <= set(domains[w])
        ]
        for w, args in rng.sample(slots, FACTS_PER_PREDICATE[pred]):
            facts |= {(v, pred, args) for v in worlds if (w, v) in order}
    lines = [f"pred {p} {a}" for p, a in COMPLETION_PREDICATES.items()]
    lines += ["conn imp builtin", "worlds: " + " ".join(worlds)]
    lines += [f"order: {a} {b}" for a, b in pairs]
    lines += [f"domain {w}: " + " ".join(domains[w]) for w in worlds]
    lines += [f"fact {w}: {p}({', '.join(args)})" for w, p, args in sorted(facts)]
    return "\n".join(lines) + "\n"


def _fixed_models() -> dict[str, str]:
    """Model texts by key: diamonds `d*`, to unravel first, and trees `t*`."""
    rng = random.Random(FACTS_SEED)
    models = {}
    for i in range(DIAMONDS):
        # a diamond with one more world on top; it unravels to a 7-node tree
        worlds = ("w0", "w1", "w2", "w3", "w4")
        pairs = [("w0", "w1"), ("w0", "w2"), ("w1", "w3"), ("w2", "w3"), ("w3", "w4")]
        depth = {"w0": 0, "w1": 1, "w2": 1, "w3": 2, "w4": 3}
        models[f"d{i}"] = _model_text(worlds, pairs, depth, rng)
    for i, parents in enumerate(TREE_SHAPES):
        worlds = tuple(f"n{k}" for k in range(len(parents) + 1))
        depth = {"n0": 0}
        for child, parent in enumerate(parents, start=1):
            depth[worlds[child]] = depth[worlds[parent]] + 1
        pairs = [(worlds[parent], worlds[child]) for child, parent in enumerate(parents, start=1)]
        models[f"t{i}"] = _model_text(worlds, pairs, depth, rng)
    return models


def completion(seed: int, directory: str) -> Workload:
    rng = random.Random(seed)
    names = _renaming(rng, ("a", "b", "c", "p", "e", "x", "y", "n", "w"))
    for k in range(8):  # worlds keep their index, so they sort as before
        names[f"n{k}"], names[f"w{k}"] = f"{names['n']}{k}", f"{names['w']}{k}"
    formula = _rename(LEMMA_FORMULA, names)
    jobs, models = [], {}
    for key, text in _fixed_models().items():
        source = _write(directory, f"{key}.model", _rename(text, names))
        job = []
        tree = source
        if key.startswith("d"):
            tree = os.path.join(directory, f"{key}.tree")
            job.append(Call(f"{key}.unravel", ["unravel", "--strict", source] + WORKERS, save_to=tree))
        job.append(Call(f"{key}.complete", ["complete", tree] + WORKERS))
        job.append(Call(f"{key}.lemma", ["check-main-lemma", tree, formula] + WORKERS))
        jobs.append(job)
        models[key] = source
    rng.shuffle(jobs)

    def check_completion(results):
        failed = {}
        for key, source in models.items():
            step = key
            try:
                with open(source, encoding="utf-8") as handle:
                    tree_text = handle.read()
                if key.startswith("d"):
                    step = f"{key}.unravel"
                    tree_text = check.check_unravel(*results[step], tree_text)
                step = f"{key}.complete"
                completed, tables = check.check_completion(*results[step], tree_text)
                step = f"{key}.lemma"
                check.check_main_lemma(*results[step], completed, formula, tables)
            except (check.CheckFailure, KeyError, IndexError, ValueError) as exc:
                failed[step] = f"{type(exc).__name__}: {exc}"
        return failed

    return Workload(jobs, check_completion)


GENERATORS = {
    "kripke-exhaust": kripke_exhaust,
    "cd-separation": cd_separation,
    "corpus-sweep": corpus_sweep,
    "completion": completion,
}


def build(name: str, seed: int, directory: str) -> Workload:
    os.makedirs(directory, exist_ok=True)
    return GENERATORS[name](seed, directory)
