"""Every module-level function and class of the package has a caller in the
program: the package itself, the scripts or the benchmark.

A definition counts as called when its name appears outside its own
definition in any of those files, as a name, as an attribute, or as a
string constant (`bench/spans.py` wraps module attributes by their names).
An import alone does not count. Definitions that only tests call belong in
`tests/util.py`, where they serve as reference implementations.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kripkebench")
CALLER_DIRS = (PACKAGE, os.path.join(ROOT, "scripts"), os.path.join(ROOT, "bench"))

# name -> why it stays without a caller
ALLOWED = {
    "constant_domain_pipeline": "the sufficiency sweep of ROADMAP item 2 is to call it",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _sources(directory):
    """The parsed modules of the directory's Python files."""
    for folder, _, files in os.walk(directory):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as f:
                    yield ast.parse(f.read(), filename=path)


def _mentions(tree):
    """The names, attributes and string constants under an AST node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def uncalled_definitions():
    """The names of the package's module-level definitions that no file of
    the program names outside the definition itself, sorted."""
    defined = set()
    named = set()
    for directory in CALLER_DIRS:
        for module in _sources(directory):
            for statement in module.body:
                own = isinstance(statement, DEFINITIONS) and directory == PACKAGE
                if own:
                    defined.add(statement.name)
                named.update(
                    name
                    for name in _mentions(statement)
                    if not (own and name == statement.name)
                )
    return sorted(defined - named)


def test_every_definition_in_src_has_a_caller():
    # an allowlist entry whose definition went, or gained a caller, goes too
    assert uncalled_definitions() == sorted(ALLOWED)
