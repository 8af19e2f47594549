"""The module attributes the benchmark's tracer wraps must stay callable.

`bench/spans.py` replaces them by name when it installs, so deleting or
renaming one breaks the traced benchmark run; this test fails first.
"""

import importlib.util
import os
import sys

from kripkebench import search

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "spans.py")


def test_every_wrapped_attribute_is_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    seams = [(module, attr) for module, attr, _ in spans.SPANS + spans.TOTALS]
    seams.append((search, "enumerate_models"))
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr in seams
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
