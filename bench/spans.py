"""Spans around the program's layers, recorded from outside the program.

`Tracer.install()` replaces public functions at the module attributes through
which their callers reach them (for example `search.find_refutation` as
`decide` sees it, and `synthesize.decide`) with timing wrappers, and
`uninstall()` puts the originals back. No file of the program changes.

Coarse calls (one CLI call, one `decide`, one parse) each get a span with a
parent. Per-model calls (`enumerate_models` steps, `find_refutation`) and
per-instance calls (`eval_formula`, `pointwise_condition`) are too many to
keep one by one: they add to a per-name (count, seconds) total on the span
that was open when they ran. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from time import perf_counter

from kripkebench import cli, construct, search, semantics, synthesize

# wrapped module attribute -> span name
SPANS = (
    (cli, "main", "cli.main"),
    (cli, "parse_sequent", "syntax.parse"),
    (cli, "parse_formula", "syntax.parse"),
    (cli, "parse_signature", "syntax.parse"),
    (search, "decide", "search.decide"),
    (synthesize, "decide", "search.decide"),
    (synthesize, "synthesize", "synthesize.synthesize"),
    (construct, "unravel_strict", "construct.unravel"),
    (construct, "complete_to_constant_domain", "construct.complete"),
    (construct, "bar_precondition_violation", "construct.lemma"),
)
# counts taken from a span's result
RESULT_COUNTS = {
    "construct.complete": lambda completion: {
        "choice_functions": len(completion.functions),
        "completed_facts": len(completion.model.facts),
    },
}
TOTALS = (
    (search, "find_refutation", "semantics.find_refutation"),
    (semantics, "eval_formula", "semantics.eval_formula"),
    (construct, "pointwise_condition", "construct.lemma"),
)


class Span:
    __slots__ = ("name", "parent", "pass_index", "start", "end", "totals", "counts")

    def __init__(self, name, parent, pass_index):
        self.name = name
        self.parent = parent
        self.pass_index = pass_index
        self.start = perf_counter()
        self.end = None
        self.totals: dict[str, list] = {}  # name -> [count, seconds]
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.pass_index = 0
        self._originals = []

    # --- recording ------------------------------------------------------------

    def _open(self, name) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, parent, self.pass_index)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()

    def _current(self) -> Span:
        return self.spans[self.stack[-1]]

    def _add(self, name: str, seconds: float, count: int = 1) -> None:
        entry = self._current().totals.setdefault(name, [0, 0.0])
        entry[0] += count
        entry[1] += seconds

    def _span_wrapper(self, original, name):
        counter = RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if counter:
                span.counts.update(counter(result))
            return result

        return wrapper

    def _total_wrapper(self, original, name):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._add(name, perf_counter() - start)

        return wrapper

    def _enumerate_wrapper(self, original):
        prefixes = {k: tuple(f"a{i}" for i in range(k)) for k in range(1, 17)}

        def wrapper(signature, bounds):
            models = original(signature, bounds)
            while True:
                start = perf_counter()
                try:
                    model = next(models)
                except StopIteration:
                    self._add("search.enumerate_models", perf_counter() - start, 0)
                    return
                counted = perf_counter()
                self._add("search.enumerate_models", counted - start)
                counts = self._current().counts
                root = model.worlds[0]
                counts[f"w{len(model.worlds)}"] += 1
                domain = model.domains[root]
                if domain == prefixes.get(len(domain)) and all(
                    (root, v) in model.order for v in model.worlds
                ):
                    counts["rooted"] += 1
                # the tracer's own work, kept out of the self time of `decide`
                self._add("trace.bookkeeping", perf_counter() - counted)
                yield model

        return wrapper

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._replace(module, attr, self._span_wrapper(getattr(module, attr), name))
        for module, attr, name in TOTALS:
            self._replace(module, attr, self._total_wrapper(getattr(module, attr), name))
        self._replace(search, "enumerate_models", self._enumerate_wrapper(search.enumerate_models))

    def _replace(self, module, attr, wrapper) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    # --- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans and totals cover."""
        out = [span.end - span.start - sum(s for _, s in span.totals.values()) for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                out[span.parent] -= span.end - span.start
        return out

    def pass_metrics(self, pass_index: int, output_bytes: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass."""
        selves = self.self_times()
        spans = [(s, selves[i]) for i, s in enumerate(self.spans) if s.pass_index == pass_index]
        totals: dict[str, list] = {}
        counts: Counter = Counter()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        time_in: Counter = Counter()
        for span, own in spans:
            calls[span.name] += 1
            self_s[span.name] += own
            time_in[span.name] += span.end - span.start
            counts.update(span.counts)
            for name, (count, seconds) in span.totals.items():
                entry = totals.setdefault(name, [0, 0.0])
                entry[0] += count
                entry[1] += seconds
        models, enumerate_s = totals.get("search.enumerate_models", [0, 0.0])
        evaluated, refutation_s = totals.get("semantics.find_refutation", [0, 0.0])
        formula_calls, formula_s = totals.get("semantics.eval_formula", [0, 0.0])
        _, pointwise_s = totals.get("construct.lemma", [0, 0.0])
        metrics = {
            "search.models_generated": models,
            "search.enumerate_s": enumerate_s,
            "search.us_per_model": 1e6 * enumerate_s / models if models else 0.0,
            "search.decide_calls": calls["search.decide"],
            "search.decide_self_s": self_s["search.decide"],
            "search.rooted_share": counts["rooted"] / models if models else 0.0,
            "semantics.models_evaluated": evaluated,
            "semantics.eval_s": refutation_s + formula_s,
            "semantics.us_per_model": 1e6 * refutation_s / evaluated if evaluated else 0.0,
            "semantics.eval_formula_calls": formula_calls,
            "construct.unravel_s": time_in["construct.unravel"],
            "construct.choice_functions": counts["choice_functions"],
            "construct.complete_s": time_in["construct.complete"],
            "construct.completed_facts": counts["completed_facts"],
            "construct.lemma_s": time_in["construct.lemma"] + pointwise_s,
            "synthesize.calls": calls["synthesize.synthesize"],
            "synthesize.self_s": self_s["synthesize.synthesize"],
            "syntax.parse_s": time_in["syntax.parse"],
            "cli.calls": calls["cli.main"],
            "cli.self_s": self_s["cli.main"],
            "cli.output_bytes": output_bytes,
        }
        for worlds in (1, 2, 3):
            metrics[f"search.models_generated.w{worlds}"] = counts[f"w{worlds}"]
        return metrics

    def dump(self, path: str) -> None:
        selves = self.self_times()
        records = [
            {
                "id": i,
                "name": s.name,
                "parent": s.parent,
                "pass": s.pass_index,
                "start": s.start,
                "end": s.end,
                "self": selves[i],
                "totals": s.totals,
                "counts": dict(s.counts),
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(records, handle)


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
