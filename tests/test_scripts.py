"""The experiment scripts under scripts/ run to the end with their defaults."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = ("run_census.py", "run_corpus_relations.py", "run_separation_demo.py")


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_exits_zero(script):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
