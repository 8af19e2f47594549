"""The module attributes the benchmark's tracer wraps must stay callable,
and the counts it takes from their results must still read.

`bench/spans.py` replaces them by name when it installs, so deleting or
renaming one breaks the traced benchmark run; these tests fail first.
"""

import importlib.util
import os
import sys

import pytest

from kripkebench import search
from kripkebench.construct import complete_to_constant_domain, unravel_strict
from kripkebench.syntax import Signature
from kripkebench.synthesize import separating_countermodel

from util import reference_completion

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "spans.py")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_is_callable(spans):
    seams = [(module, attr) for module, attr, _ in spans.SPANS + spans.TOTALS]
    seams.append((search, "enumerate_models"))
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr in seams
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_completion_counts_read_from_a_real_completion(spans):
    # the tracer counts the completed facts through the model's `facts` view
    sig = Signature({"p": 1, "q": 1, "T": 0, "R": 0}, {})
    tree = unravel_strict(separating_countermodel(), "w1")
    completion = complete_to_constant_domain(tree, sig)
    counts = spans.RESULT_COUNTS["construct.complete"](completion)
    want = reference_completion(tree, sig)
    assert counts == {
        "choice_functions": len(want.functions),
        "completed_facts": len(want.model.facts),
    }
    assert counts["completed_facts"] > 0
