"""Tests of the benchmark itself: `python3 -m pytest -q bench` from the repo root."""

from __future__ import annotations

import contextlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from kripkebench import cli  # noqa: E402


def traced_metrics(argv: list[str]) -> dict[str, float]:
    tracer = spans.Tracer()
    tracer.install()
    try:
        code, out, _ = run.invoke(cli, argv)
    finally:
        tracer.uninstall()
    assert code in (0, 1), out
    return tracer.pass_metrics(0, len(out))


def test_traced_counts_reproduce_the_baseline(tmp_path):
    kripke = workloads.build("kripke-exhaust", 7, str(tmp_path / "k"))
    (xor,) = [c for c in kripke.calls if c.key == "k2"]  # ROADMAP's xor sequent
    metrics = traced_metrics(xor.argv)
    assert metrics["search.models_generated"] == 9833
    assert metrics["semantics.models_evaluated"] == 9833
    assert metrics["search.decide_calls"] == 1 and metrics["cli.calls"] == 1

    separation = workloads.build("cd-separation", 7, str(tmp_path / "s"))
    (certificate,) = [c for c in separation.calls if c.key == "s1"]  # xor's table, 0110
    metrics = traced_metrics(certificate.argv)
    assert metrics["search.models_generated"] == 4872
    assert metrics["synthesize.calls"] == 1
    assert metrics["search.rooted_share"] > 0


class PlantedCli:
    """The real CLI, except that the first fact of every printed model is dropped."""

    @staticmethod
    def main(argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        lines = buffer.getvalue().split("\n")
        facts = [i for i, line in enumerate(lines) if line.startswith("fact ")]
        if facts:
            del lines[facts[0]]
        print("\n".join(lines), end="")
        return code


def test_planted_wrong_countermodel_counts_as_failed(tmp_path):
    workload = workloads.build("kripke-exhaust", 7, str(tmp_path / "in"))
    # Dummett's sequent, whose countermodel loses the fact p at w1
    workload.jobs = [job for job in workload.jobs if job[0].key == "k3"]
    for side in ("honest", "planted"):
        os.makedirs(tmp_path / side)

    honest = run.Run(cli, workload, str(tmp_path / "honest"))
    with honest.sampling():
        honest.one_pass()
    assert honest.failures()[:2] == (1, 0)
    # the timer sampled the host during the call, and its probes are not latency
    assert honest.probes and honest.reference_s() > 0
    assert 0 < honest.latencies["k3"][0]

    planted = run.Run(PlantedCli, workload, str(tmp_path / "planted"))
    planted.one_pass()
    planted.one_pass()
    attempted, failed, messages = planted.failures()
    assert (attempted, failed) == (2, 2)
    assert "does not refute" in next(iter(messages.values()))


def snapshot(name: str, seed: int, directory) -> tuple:
    workload = workloads.build(name, seed, str(directory))
    files = {}
    for entry in sorted(os.listdir(directory)):
        with open(os.path.join(directory, entry), encoding="utf-8") as handle:
            files[entry] = handle.read()
    argvs = [[a.replace(str(directory), "") for a in c.argv] for c in workload.calls]
    return files, argvs


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        first = snapshot(name, 11, tmp_path / name / "a")
        assert first == snapshot(name, 11, tmp_path / name / "b")
        assert first != snapshot(name, 12, tmp_path / name / "c")
