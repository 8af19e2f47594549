"""Output checker for the benchmark, independent of the program's evaluator.

Formulas are parsed by a small parser of the concrete syntax defined here and
evaluated by a naive recursive Kripke evaluator written from the semantics:

- an atom holds at w when its fact is stored at w;
- a connective holds at w when its truth table gives 1 at every v >= w;
- `forall x` holds at w when the body holds at every v >= w for every element
  of D(v); `exists x` holds at w when the body holds at w for some element of
  D(w);
- a sequent has value 0 at (w, rho) exactly when every antecedent holds and
  no succedent holds.

Only model files are read with the program's `parse_model_text`, as a
countermodel printed by the program must re-parse through it.
"""

from __future__ import annotations

import itertools
import json
import re

from kripkebench.semantics import InvalidModelError, parse_model_text

BUILTIN_TABLES = {
    "not": (1, 0),
    "and": (0, 0, 0, 1),
    "or": (0, 1, 1, 1),
    "imp": (1, 1, 0, 1),
    "xor": (0, 1, 1, 0),
    "iff": (1, 0, 0, 1),
}

_TOKEN = re.compile(r"\s*(=>|[(),.]|[A-Za-z_][A-Za-z0-9_]*)")


class CheckFailure(Exception):
    """An output that contradicts the independent semantics."""


# --- concrete syntax ---------------------------------------------------------


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise CheckFailure(f"cannot tokenize {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_sequent(text: str, connectives: dict[str, tuple[int, ...]]):
    """(antecedent, succedent) as tuples of formula trees.

    Trees are ("atom", pred, vars), ("conn", table, args), ("forall", var,
    body) and ("exists", var, body). Any identifier that is not a connective
    is read as a predicate.
    """
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise CheckFailure(f"expected {expected!r} at token {pos} of {text!r}")
        pos += 1
        return tok

    def formula():
        head = take()
        if head in ("forall", "exists"):
            var = take()
            take(".")
            return (head, var, formula())
        if head in connectives:
            args = []
            if peek() == "(":
                take("(")
                while peek() != ")":
                    args.append(formula())
                    if peek() == ",":
                        take(",")
                take(")")
            return ("conn", connectives[head], tuple(args))
        variables = []
        if peek() == "(":
            take("(")
            while peek() != ")":
                variables.append(take())
                if peek() == ",":
                    take(",")
            take(")")
        return ("atom", head, tuple(variables))

    def side():
        out = []
        while peek() not in ("=>", None):
            out.append(formula())
            if peek() == ",":
                take(",")
        return tuple(out)

    antecedent = side()
    take("=>")
    succedent = side()
    if peek() is not None:
        raise CheckFailure(f"trailing tokens in {text!r}")
    return antecedent, succedent


def free_variables(formula) -> set[str]:
    kind = formula[0]
    if kind == "atom":
        return set(formula[2])
    if kind == "conn":
        return set().union(*(free_variables(a) for a in formula[2]))
    return free_variables(formula[2]) - {formula[1]}


# --- naive Kripke semantics --------------------------------------------------


def holds(model, world: str, rho: dict[str, str], formula) -> bool:
    kind = formula[0]
    if kind == "atom":
        return (world, formula[1], tuple(rho[x] for x in formula[2])) in model.facts
    above = [v for v in model.worlds if (world, v) in model.order]
    if kind == "conn":
        table, args = formula[1], formula[2]
        for v in above:
            index = 0
            for arg in args:
                index = 2 * index + holds(model, v, rho, arg)
            if not table[index]:
                return False
        return True
    var, body = formula[1], formula[2]
    if kind == "forall":
        return all(
            holds(model, v, {**rho, var: d}, body) for v in above for d in model.domains[v]
        )
    return any(holds(model, world, {**rho, var: d}, body) for d in model.domains[world])


def sequent_value(model, world: str, rho: dict[str, str], sequent) -> int:
    antecedent, succedent = sequent
    if all(holds(model, world, rho, f) for f in antecedent) and not any(
        holds(model, world, rho, f) for f in succedent
    ):
        return 0
    return 1


def model_problems(model) -> list[str]:
    """Violations of the Kripke-model conditions, checked from scratch."""
    worlds, order, domains = model.worlds, model.order, model.domains
    problems = []
    if any((w, w) not in order for w in worlds):
        problems.append("order not reflexive")
    for (a, b), (c, d) in itertools.product(order, repeat=2):
        if b == c and (a, d) not in order:
            problems.append(f"order not transitive at {a} {b} {d}")
            break
    for a, b in order:
        if not domains[a] or not set(domains[a]) <= set(domains[b]):
            problems.append(f"domains not monotone or empty at {a} <= {b}")
    for w, pred, args in model.facts:
        if not set(args) <= set(domains[w]):
            problems.append(f"fact {pred}{args} outside D({w})")
        for v in worlds:
            if (w, v) in order and (v, pred, args) not in model.facts:
                problems.append(f"heredity fails for {pred}{args} from {w} to {v}")
                break
    return problems


def parse_model(text: str):
    """Model and declared connectives of a printed model, via the program's parser."""
    try:
        model, signature = parse_model_text(text)
    except InvalidModelError as exc:
        raise CheckFailure(f"printed model does not re-parse: {exc}") from None
    problems = model_problems(model)
    if problems:
        raise CheckFailure("printed model is not a Kripke model: " + "; ".join(problems[:3]))
    connectives = {name: tf.table for name, tf in signature.connectives.items()}
    return model, connectives


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# --- per-command output checks -----------------------------------------------


def check_decide(code: int, out: str, sequent_text: str, connectives, mode: str, bounds) -> bool:
    """Check one `decide` output; returns whether it reports a refutation."""
    lines = out.split("\n")
    max_worlds, max_domain, shape = bounds
    if code == 0:
        effective = 1 if mode == "classical" else max_worlds
        expected = (
            f"verdict: valid-up-to-bounds mode={mode} max-worlds={effective}"
            f" max-domain={max_domain} shape={shape}"
        )
        _require(out == expected + "\n", f"unexpected valid output {out[:200]!r}")
        return False
    _require(code == 1, f"exit code {code}")
    _require(lines[0] == f"verdict: refuted mode={mode}", f"bad verdict line {lines[0]!r}")
    _require(lines[1].startswith("world: ") and lines[2].startswith("assignment: "), "bad header")
    _require(lines[3] == "countermodel:", "missing countermodel")
    world = lines[1][len("world: "):]
    rho_text = lines[2][len("assignment: "):]
    rho = dict(p.split("=", 1) for p in rho_text.split()) if rho_text != "(empty)" else {}
    model, _ = parse_model("\n".join(lines[4:]))
    sequent = parse_sequent(sequent_text, connectives)
    needed = set().union(*(free_variables(f) for f in sequent[0] + sequent[1]))
    _require(set(rho) == needed, f"assignment {rho} does not bind exactly {sorted(needed)}")
    _require(world in model.worlds, f"unknown world {world}")
    _require(all(rho[x] in model.domains[world] for x in rho), "assignment outside D(world)")
    _require(len(model.worlds) <= (1 if mode == "classical" else max_worlds), "too many worlds")
    universe = set().union(*(set(d) for d in model.domains.values()))
    _require(len(universe) <= max_domain, "domain bound exceeded")
    if mode == "cd":
        _require(len({frozenset(d) for d in model.domains.values()}) == 1, "domain not constant")
    _require(sequent_value(model, world, rho, sequent) == 0, "countermodel does not refute")
    return True


def check_certificate(code: int, out: str, table: tuple[int, ...], cd_bounds) -> None:
    """A synthesize certificate: its model refutes at w1 and cd search found nothing."""
    _require(code == 0, f"exit code {code}")
    fields, model_text = {}, None
    lines = out.split("\n")
    for i, line in enumerate(lines):
        if line == "countermodel:":
            model_text = "\n".join(lines[i + 1:])
            break
        key, _, value = line.partition(": ")
        fields.setdefault(key, []).append(value)
    _require(model_text is not None, "certificate lacks a countermodel")
    _require(fields["table"] == ["".join(map(str, table))], "certificate names another table")
    max_worlds, max_domain = cd_bounds
    _require(
        fields["cd-verdict"]
        == [f"valid-up-to-bounds max-worlds={max_worlds} max-domain={max_domain} shape=tree"],
        f"cd verdict {fields['cd-verdict']}",
    )
    _require(fields["refutation-world"] == ["w1"], "refutation world is not w1")
    model, connectives = parse_model(model_text)
    _require(len(model.worlds) == 2, "certificate model does not have two worlds")
    sequent = parse_sequent(fields["sequent"][0], connectives)
    _require(sequent_value(model, "w1", {}, sequent) == 0, "certificate model does not refute")
    for key, side in (("antecedent-value", sequent[0]), ("succedent-value", sequent[1])):
        reported = sorted(int(v.split(" ", 1)[0]) for v in fields.get(key, []))
        _require(reported == sorted(int(holds(model, "w1", {}, f)) for f in side), f"wrong {key}")


def check_unravel(code: int, out: str, source_text: str) -> str:
    """A strict unraveling: a tree whose nodes copy their source world.

    Returns the printed tree model text, the input of the later calls.
    """
    _require(code == 0, f"exit code {code}")
    source, _ = parse_model(source_text)
    tree, _ = parse_model(out)
    last = {}
    for line in out.split("\n"):
        if line.startswith("# last "):
            node, _, world = line[len("# last "):].partition(": ")
            last[node] = world
    _require(set(last) == set(tree.worlds), "unraveling does not map every node")
    _require(_is_tree(tree), "unraveling is not a tree")
    for node, world in last.items():
        _require(tree.domains[node] == source.domains[world], f"domain of {node} differs")
        here = {(p, a) for w, p, a in tree.facts if w == node}
        there = {(p, a) for w, p, a in source.facts if w == world}
        _require(here == there, f"facts of {node} differ from {world}")
    return out


def _is_tree(model) -> bool:
    """One minimal world, and the worlds below any world form a chain."""
    below = {w: [v for v in model.worlds if (v, w) in model.order] for w in model.worlds}
    if sum(below[w] == [w] for w in model.worlds) != 1:
        return False
    return all(
        (a, b) in model.order or (b, a) in model.order
        for chain in below.values()
        for a in chain
        for b in chain
    )


def check_completion(code: int, out: str, tree_text: str):
    """A completion: a valid constant-domain model on the same tree order."""
    _require(code == 0, f"exit code {code}")
    tree, _ = parse_model(tree_text)
    completed, connectives = parse_model(out)
    _require(completed.worlds == tree.worlds and completed.order == tree.order, "order changed")
    _require(len({frozenset(d) for d in completed.domains.values()}) == 1, "domain not constant")
    names = [line.split(" ", 2)[1] for line in out.split("\n") if line.startswith("# F")]
    _require(sorted(names) == sorted(completed.domains[tree.worlds[0]]), "function list differs")
    return completed, connectives


def check_main_lemma(code: int, out: str, completed, formula_text: str, connectives) -> None:
    """No instance fails, and each completed value matches the completed model."""
    report = json.loads(out)
    statuses = [i["status"] for i in report["instances"]]
    _require("fails" not in statuses, "a main-lemma instance fails")
    _require(code == (0 if report["status"] == "holds" else 1), f"exit code {code}")
    expected_overall = next((s for s in statuses if s != "holds"), "holds")
    _require(report["status"] == expected_overall, "overall status inconsistent")
    _require(report["function-count"] == len(completed.domains[completed.worlds[0]]), "count")
    (formula,), _ = parse_sequent(formula_text + " =>", connectives)
    for instance in report["instances"]:
        value = holds(completed, instance["node"], instance["assignment"], formula)
        _require(int(value) == instance["completed-value"], "completed value disagrees")
