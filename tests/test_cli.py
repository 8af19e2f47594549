import argparse
import ast
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from kripkebench import cli, construct, search, semantics, synthesize
from kripkebench.cli import main
from kripkebench.semantics import KripkeModel, parse_model_text

from util import shifted_above_none_of


OR_SEQUENT = (
    "pred p 1\n"
    "pred q 1\n"
    "pred T 0\n"
    "conn or builtin\n"
    "sequent: T, forall x. or(p(x), q(x)) => or(forall x. p(x), exists x. q(x))\n"
)

SEPARATING_MODEL = (
    "pred p 1\npred q 1\npred T 0\n"
    "worlds: w1 w2\n"
    "order: w1 w2\n"
    "domain w1: a1\n"
    "domain w2: a1 a2\n"
    "fact w1: p(a1)\nfact w1: T\n"
    "fact w2: p(a1)\nfact w2: q(a2)\nfact w2: T\n"
)

# sequent files: arbitrary text, or declarations, at most one malformed
# directive and a `sequent:` line of whole formulas or of fragments
_DIRECTIVES = st.lists(
    st.sampled_from(
        ["pred p 1", "pred q 0", "pred r 2", "conn or builtin", "conn not builtin", "conn c 2 0110"]
    ),
    unique=True,
)
_NOISE = st.one_of(
    st.tuples(
        st.sampled_from(["pred", "conn"]),
        st.sampled_from(["p", "q", "or", "c"]),
        st.integers(-2, 3).map(str),
        st.sampled_from(["", "0", "01", "0110", "builtin"]),
    ).map(" ".join),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
)
_FORMULAS = st.lists(
    st.sampled_from(
        ["p(x)", "q", "r(x, y)", "or(p(x), q)", "not(q)", "c(q, q)", "forall x. p(x)",
         "exists y. r(y, x)"]
    ),
    max_size=2,
).map(", ".join)
_SEQUENT_LINE = st.one_of(
    st.tuples(_FORMULAS, _FORMULAS).map(lambda sides: f"sequent: {sides[0]} => {sides[1]}"),
    st.lists(
        st.sampled_from(["p(x)", "q", "or(", "forall x.", "exists", ",", "=>", "(", ")", "."]),
        max_size=8,
    ).map(lambda parts: "sequent: " + " ".join(parts)),
)
_SEQUENT_FILES = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",))),
    st.tuples(_DIRECTIVES, _SEQUENT_LINE, st.lists(_NOISE, max_size=1))
    .map(lambda parts: "\n".join(parts[0] + [parts[1]] + parts[2])),
)


# connective files: arbitrary text, JSON values, and objects with the two
# keys holding values of any type
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
_CONNECTIVE_FILES = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",))),
    _JSON.map(json.dumps),
    st.fixed_dictionaries(
        {
            "arity": st.integers(-2, 4) | _JSON,
            "table": st.text("01", max_size=17) | _JSON,
        }
    ).map(json.dumps),
)
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def assert_usage_error(code, capsys):
    """Exit 2 with one `error:` line and nothing on stdout."""
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.fixture
def or_seq_file(tmp_path):
    path = tmp_path / "or.seq"
    path.write_text(OR_SEQUENT)
    return str(path)


@pytest.fixture
def separating_file(tmp_path):
    path = tmp_path / "separating.model"
    path.write_text(SEPARATING_MODEL)
    return str(path)


class TestAnalyze:
    def test_builtin_or(self, capsys):
        assert main(["analyze-connective", "--builtin", "or"]) == 0
        out = capsys.readouterr().out
        assert "supermultiplicative: no" in out
        assert "monotonic: yes" in out
        assert "witness-a: 01" in out
        assert "witness-b: 10" in out

    def test_unknown_builtin_is_usage_error(self, capsys):
        assert main(["analyze-connective", "--builtin", "nand"]) == 2

    @pytest.mark.parametrize("arity", ["-1", "true"])
    def test_bad_arity_in_file_is_usage_error(self, arity, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"arity": %s, "table": "01"}' % arity)
        assert main(["analyze-connective", "--connective", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: arity must be a nonnegative integer, got {arity.capitalize()}\n"
        )

    def test_connective_file(self, tmp_path, capsys):
        path = tmp_path / "maj.json"
        path.write_text('{"arity": 3, "table": "00010111"}')
        assert main(["analyze-connective", "--connective", str(path), "--name", "maj"]) == 0
        out = capsys.readouterr().out
        assert "connective: maj" in out

    def test_deeply_nested_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        assert_usage_error(main(["analyze-connective", "--connective", str(path)]), capsys)

    @settings(max_examples=200, deadline=None)
    @given(_CONNECTIVE_FILES)
    @example(DEEP_JSON)
    @example('{"arity": 1, "table": "01"}')
    @example('{"arity": 99999999999999999999, "table": "01"}')
    def test_any_connective_file_exits_with_a_contract_code(self, text):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "fuzz.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["analyze-connective", "--connective", path])
        assert code in (0, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestDecide:
    def test_cd_valid_up_to_bounds(self, or_seq_file, capsys):
        code = main(
            [
                "decide", "--mode", "cd", "--seq", or_seq_file,
                "--max-worlds", "3", "--max-domain", "2", "--shape", "tree",
            ]
        )
        assert code == 0
        assert "valid-up-to-bounds" in capsys.readouterr().out

    def test_kripke_refuted_emits_countermodel(self, or_seq_file, capsys):
        code = main(
            [
                "decide", "--mode", "kripke", "--seq", or_seq_file,
                "--max-worlds", "2", "--max-domain", "2", "--shape", "tree",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        model_text = out.split("countermodel:\n", 1)[1]
        model, _ = parse_model_text(model_text)
        assert len(model.worlds) == 2

    def test_parse_error_in_sequent_is_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.seq"
        path.write_text("pred p 1\nsequent: p(x\n")
        assert main(["decide", "--mode", "kripke", "--seq", str(path)]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# c\n\npred p x\nsequent: p\n", "error: line 3: arity must be an integer\n"),
            ("sequent: p\npred p 1\npred p 1\n", "error: line 3: duplicate predicate 'p'\n"),
            # a duplicate sequent line is reported before any directive
            ("sequent: p\npred p x\nsequent: p\n", "error: line 3: duplicate sequent line\n"),
        ],
    )
    def test_signature_errors_name_the_line_of_the_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.seq"
        path.write_text(text)
        assert main(["decide", "--mode", "cd", "--seq", str(path)]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)

    def test_missing_file_is_exit_two(self, capsys):
        assert main(["decide", "--mode", "kripke", "--seq", "/nonexistent"]) == 2

    @pytest.mark.parametrize(
        "arity, succedent, code, message",
        [
            # refuted by the first model of the first frame, whose one
            # element gives one fact slot
            (12, "", 1, "verdict: refuted"),
            # the second frame alone has 2^16 fact slots
            (16, "p(ARGS)", 2, f"error: the search has more than {search.MAX_MODELS} models"),
        ],
    )
    def test_wide_predicate_builds_only_the_slots_it_searches(
        self, tmp_path, capsys, arity, succedent, code, message
    ):
        args = ", ".join(["x"] * arity)
        path = tmp_path / "wide.seq"
        path.write_text(f"pred p {arity}\nsequent: p({args}) => {succedent.replace('ARGS', args)}\n")
        started = time.monotonic()
        got = main(
            [
                "decide", "--mode", "kripke", "--seq", str(path),
                "--max-worlds", "1", "--max-domain", "4",
            ]
        )
        assert time.monotonic() - started < 10
        assert got == code
        captured = capsys.readouterr()
        assert message in (captured.out if code == 1 else captured.err)

    def test_budget_violation_is_usage_error(self, or_seq_file):
        code = main(
            [
                "decide", "--mode", "kripke", "--seq", or_seq_file,
                "--max-worlds", "9", "--max-domain", "9",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "mode, shape, max_worlds, max_domain",
        [("cd", "chain", "500", "1"), ("kripke", "poset", "2", "22")],
    )
    def test_runaway_bounds_are_refused_at_once(
        self, tmp_path, capsys, mode, shape, max_worlds, max_domain
    ):
        # with worlds x domain uncapped, the 500-world chain ran past 30 s and
        # 22 elements built all 2^22 domains before the frame cap fired
        path = tmp_path / "r.seq"
        path.write_text("pred r 0\nsequent: r => r\n")
        started = time.monotonic()
        code = main(
            [
                "decide", "--mode", mode, "--seq", str(path), "--shape", shape,
                "--max-worlds", max_worlds, "--max-domain", max_domain,
            ]
        )
        assert time.monotonic() - started < 1
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        product = int(max_worlds) * int(max_domain)
        assert captured.err == (
            f"error: max_worlds * max_domain = {product} exceeds budget {search.BUDGET}\n"
        )

    @pytest.mark.parametrize("option", [["--budget", "64"], ["--seed", "3"]])
    def test_removed_options_are_argparse_errors(self, or_seq_file, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["decide", "--mode", "kripke", "--seq", or_seq_file] + option)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unrecognized arguments: " + " ".join(option) in captured.err

    @pytest.mark.parametrize(
        "max_worlds, max_domain, cap",
        [
            ("16", "1", f"{search.MAX_FRAMES} frames"),
            ("8", "2", f"{search.MAX_MODELS} models"),
        ],
    )
    def test_search_past_its_caps_is_usage_error(
        self, tmp_path, capsys, max_worlds, max_domain, cap
    ):
        # within the budget of 16, but a valid sequent is searched to the
        # end: far more frames or models than any test or workload searches
        path = tmp_path / "valid.seq"
        path.write_text("pred p 1\nsequent: forall x. p(x) => exists x. p(x)\n")
        started = time.monotonic()
        code = main(
            [
                "decide", "--mode", "kripke", "--seq", str(path),
                "--max-worlds", max_worlds, "--max-domain", max_domain,
            ]
        )
        assert time.monotonic() - started < 10
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the search has more than {cap}; lower the bounds\n"

    @pytest.mark.parametrize("cap, unit", [("MAX_FRAMES", "frames"), ("MAX_MODELS", "models")])
    def test_a_search_past_its_caps_is_refused_again(
        self, tmp_path, capsys, monkeypatch, cap, unit
    ):
        # the caps are part of a frame stream's key, so after the first,
        # passing call the lowered cap builds a new stream, which is refused
        # and not kept, and the second refusal reads the same
        path = tmp_path / "valid.seq"
        path.write_text("pred p 1\nsequent: forall x. p(x) => exists x. p(x)\n")
        argv = [
            "decide", "--mode", "kripke", "--seq", str(path),
            "--max-worlds", "3", "--max-domain", "1",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(search, cap, 3)
        results = []
        for _ in range(2):
            results.append((main(argv), capsys.readouterr()))
        assert results[0] == results[1]
        code, captured = results[0]
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: the search has more than 3 {unit}; lower the bounds\n"

    @pytest.mark.parametrize("count, seconds", [(14, 5), (20, 1)])
    def test_assignments_past_the_cap_are_usage_error(self, tmp_path, capsys, count, seconds):
        # 3^count assignments of the free variables at the frame of three
        # elements, 4,782,969 at 14; the sequent is valid, so every frame
        # would be labelled
        atoms = ", ".join(f"p(x{i})" for i in range(count))
        path = tmp_path / "wide.seq"
        path.write_text(f"pred p 1\nsequent: {atoms} => exists y. p(y)\n")
        started = time.monotonic()
        code = main(
            [
                "decide", "--mode", "kripke", "--seq", str(path),
                "--max-worlds", "1", "--max-domain", "3",
            ]
        )
        assert time.monotonic() - started < seconds
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the search labels more than {search.MAX_MODELS} assignments;"
            " lower the bounds\n"
        )

    def test_inconsistent_countermodel_is_never_printed(
        self, or_seq_file, capsys, monkeypatch
    ):
        # a planted wrong decode: the model without facts validates the sequent
        monkeypatch.setattr(
            search,
            "decode_model",
            lambda frame, index: KripkeModel(
                frame.worlds, frame.up, frame.domains, frozenset()
            ),
        )
        code = main(
            [
                "decide", "--mode", "kripke", "--seq", or_seq_file,
                "--max-worlds", "2", "--max-domain", "2", "--shape", "tree",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: inconsistent search: ")

    def test_planted_labelling_fault_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # the fault refutes `not(not(r)) => r` on a model that validates it,
        # and the independent re-check stops it before anything is printed
        monkeypatch.setattr(semantics.Evaluator, "_above_none_of", shifted_above_none_of)
        path = tmp_path / "dn.seq"
        path.write_text("pred r 0\nconn not builtin\nsequent: not(not(r)) => r\n")
        code = main(["decide", "--mode", "kripke", "--seq", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: inconsistent search: ")

    def test_deeply_nested_sequent_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "deep.seq"
        path.write_text(
            "pred p 0\nconn not builtin\nsequent: => " + "not(" * 400 + "p" + ")" * 400 + "\n"
        )
        assert_usage_error(main(["decide", "--mode", "kripke", "--seq", str(path)]), capsys)

    @settings(max_examples=300, deadline=None)
    @given(_SEQUENT_FILES)
    @example("pred p 1\nsequent: p(x\n")
    @example("sequent: a => b\nsequent: c\n")
    @example("conn c -1 0\nsequent: =>\n")
    def test_any_sequent_file_exits_with_a_contract_code(self, text):
        # exit 0-3 and no traceback; a usage or file error is one `error: ` line
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "fuzz.seq")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(
                    [
                        "decide", "--mode", "kripke", "--seq", path,
                        "--max-worlds", "2", "--max-domain", "1",
                    ]
                )
        assert code in (0, 1, 2, 3)
        if code >= 2:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


class TestSynthesizeCommand:
    def test_xor_certificate(self, capsys):
        assert main(["synthesize", "--builtin", "xor", "--no-cd-check"]) == 0
        out = capsys.readouterr().out
        assert "case: A" in out
        assert "cd-verdict: skipped" in out
        assert "sequent: T, forall x. xor(p(x), q(x)) => xor(forall x. p(x), exists x. q(x))" in out

    def test_supermultiplicative_is_domain_error(self, capsys):
        assert main(["synthesize", "--builtin", "and"]) == 2

    def test_deeply_nested_connective_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        assert_usage_error(main(["synthesize", "--connective", str(path)]), capsys)

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "cert.txt"
        code = main(
            ["synthesize", "--builtin", "or", "--no-cd-check", "--output", str(path)]
        )
        assert code == 0
        assert "case: B" in path.read_text()


class TestUnravelCommand:
    def test_strict(self, separating_file, capsys):
        assert main(["unravel", "--strict", separating_file]) == 0
        out = capsys.readouterr().out
        assert "# root: w1" in out
        assert "# last w1/w2: w2" in out
        assert "truncated" not in out

    def test_stutter_marks_truncation(self, separating_file, capsys):
        assert main(["unravel", "--stutter", "2", separating_file]) == 0
        out = capsys.readouterr().out
        assert "# truncated" in out
        assert "w1/w1" in out

    def test_invalid_model_is_exit_three(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("worlds: w0 w1\norder: w0 w1\ndomain w0: a b\ndomain w1: a\n")
        assert main(["unravel", "--strict", str(path)]) == 3

    def test_root_flag(self, separating_file, capsys):
        assert main(["unravel", "--strict", separating_file, "--root", "w2"]) == 0
        out = capsys.readouterr().out
        assert "# root: w2" in out
        assert "w1" not in out.split("worlds:")[1].splitlines()[0]

    @pytest.mark.parametrize("root", ["", "w9"])
    def test_unknown_root_is_usage_error(self, separating_file, capsys, root):
        code = main(["unravel", "--strict", separating_file, "--root", root])
        assert_usage_error(code, capsys)

    def test_stuttered_output_feeds_complete(self, separating_file, tmp_path, capsys):
        assert main(["unravel", "--stutter", "2", separating_file]) == 0
        out = capsys.readouterr().out
        tree_path = tmp_path / "stutter.model"
        tree_path.write_text(
            "\n".join(l for l in out.splitlines() if not l.startswith("#")) + "\n"
        )
        assert main(["complete", str(tree_path)]) == 0
        model_text = "\n".join(
            line
            for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")
        )
        model, _ = parse_model_text(model_text)
        assert len(set(tuple(d) for d in model.domains.values())) == 1

    def test_cycle_is_usage_error_for_strict(self, tmp_path):
        path = tmp_path / "cyc.model"
        path.write_text(
            "worlds: w0 w1\norder: w0 w1\norder: w1 w0\ndomain w0: a\ndomain w1: a\n"
        )
        assert main(["unravel", "--strict", str(path)]) == 2
        assert main(["unravel", "--stutter", "2", str(path)]) == 0

    def test_stutter_past_the_node_cap_is_usage_error(self, tmp_path, capsys):
        # on a 2-cycle the tree doubles per unit of length: 2^30 - 1 nodes at 30
        path = tmp_path / "cyc.model"
        path.write_text(
            "worlds: w0 w1\norder: w0 w1\norder: w1 w0\ndomain w0: a\ndomain w1: a\n"
        )
        assert main(["unravel", "--stutter", "30", str(path)]) == 2
        assert "more than 50000 nodes" in capsys.readouterr().err

    def test_stutter_past_the_pair_cap_is_usage_error(self, tmp_path, capsys):
        # one world: a chain of 50000 nodes, within the node cap, but a chain
        # of L nodes has L(L+1)/2 order pairs and names of up to L worlds
        path = tmp_path / "one.model"
        path.write_text("worlds: w0\ndomain w0: a\n")
        started = time.monotonic()
        assert main(["unravel", "--stutter", "50000", str(path)]) == 2
        assert time.monotonic() - started < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "more than 50000 nodes or order pairs" in captured.err

    def test_stutter_past_the_name_bound_is_usage_error(self, tmp_path, capsys):
        # one world: a chain of 315 nodes has 49,770 order pairs, within the
        # pair cap, but its '/'-joined names would write about 47.7 MB
        path = tmp_path / "one.model"
        path.write_text("worlds: w0\ndomain w0: a\n")
        started = time.monotonic()
        assert main(["unravel", "--stutter", "315", str(path)]) == 2
        assert time.monotonic() - started < 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the unraveled tree's order takes more than 2000000 characters of node names\n"
        )
        assert main(["unravel", "--stutter", "100", str(path)]) == 0
        assert len(capsys.readouterr().out) < 2 * construct.MAX_NAME_CHARS

    def test_strict_past_the_pair_cap_is_usage_error(self, tmp_path, capsys):
        # a chain of 320 worlds unravels to 320 nodes and 51,360 order pairs
        worlds = [f"n{i}" for i in range(320)]
        lines = ["worlds: " + " ".join(worlds)]
        lines += [f"order: {a} {b}" for a, b in zip(worlds, worlds[1:])]
        lines += [f"domain {w}: a" for w in worlds]
        path = tmp_path / "chain.model"
        path.write_text("\n".join(lines) + "\n")
        assert main(["unravel", "--strict", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the unraveled tree's order has more than 50000 pairs\n"

    def test_strict_past_the_node_cap_is_usage_error(self, tmp_path, capsys):
        # a ladder of 14 diamonds b_i < l_i, r_i < b_{i+1} has 2^16 - 3
        # covering paths from b0
        rungs = 14
        worlds = [f"b{i}" for i in range(rungs + 1)]
        worlds += [f"{side}{i}" for i in range(rungs) for side in "lr"]
        lines = ["worlds: " + " ".join(worlds)]
        for i in range(rungs):
            for side in "lr":
                lines.append(f"order: b{i} {side}{i}")
                lines.append(f"order: {side}{i} b{i + 1}")
        lines += [f"domain {w}: a" for w in worlds]
        path = tmp_path / "ladder.model"
        path.write_text("\n".join(lines) + "\n")
        assert main(["unravel", "--strict", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the unraveled tree has more than 50000 nodes\n"


@pytest.mark.parametrize(
    "argv",
    [["unravel", "--strict", "MODEL"], ["complete", "MODEL"], ["check-main-lemma", "MODEL", "p(a)"]],
)
def test_model_without_worlds_is_exit_three(tmp_path, capsys, argv):
    path = tmp_path / "empty.model"
    path.write_text("pred p 1\n")
    assert main([str(path) if a == "MODEL" else a for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: invalid model:", "the model declares no worlds"]


class TestCompleteCommand:
    def test_completion_output_parses(self, separating_file, capsys):
        assert main(["complete", separating_file]) == 0
        out = capsys.readouterr().out
        model_text = "\n".join(
            line for line in out.splitlines() if not line.startswith("#")
        )
        model, _ = parse_model_text(model_text)
        assert set(model.domains["w1"]) == {"F0", "F1", "F2"}

    def test_non_tree_is_exit_three(self, tmp_path):
        path = tmp_path / "forest.model"
        path.write_text("worlds: w0 w1\ndomain w0: a\ndomain w1: a\n")
        assert main(["complete", str(path)]) == 3

    def test_line_with_empty_head_is_exit_three(self, tmp_path, capsys):
        path = tmp_path / "empty-head.model"
        path.write_text("worlds: w0\ndomain w0: a\n: oops\n")
        assert main(["complete", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: line 3: unknown directive ''"]

    def test_empty_fact_argument_is_exit_three_with_its_line(self, tmp_path, capsys):
        path = tmp_path / "empty-argument.model"
        path.write_text("worlds: w0\ndomain w0: a\nfact w0: p(a,)\n")
        assert main(["complete", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: line 3: fact argument '' is empty or contains whitespace"
        ]

    def test_forty_node_chain_completes(self, tmp_path, capsys):
        # a mask scan over the internal nodes would visit 2^39 domains
        worlds = [f"n{i}" for i in range(40)]
        lines = ["pred p 1", "worlds: " + " ".join(worlds), "fact n39: p(a)"]
        lines += [f"order: {a} {b}" for a, b in zip(worlds, worlds[1:])]
        lines += [f"domain {w}: a" for w in worlds]
        path = tmp_path / "chain.model"
        path.write_text("\n".join(lines) + "\n")
        started = time.monotonic()
        assert main(["complete", str(path)]) == 0
        assert time.monotonic() - started < 10
        # one function per up-set of the chain, each holding the leaf
        out = capsys.readouterr().out
        assert sum(line.startswith("# F") for line in out.splitlines()) == 40

    def test_broom_past_the_choice_function_cap_is_usage_error(self, tmp_path, capsys):
        # a root, 30 internal children and a leaf above each: 2^30 + 1 domains
        lines = ["worlds: r " + " ".join(f"c{i} l{i}" for i in range(30))]
        lines += [f"order: r c{i}\norder: c{i} l{i}" for i in range(30)]
        lines += ["domain r: a"] + [f"domain c{i}: a\ndomain l{i}: a" for i in range(30)]
        path = tmp_path / "broom.model"
        path.write_text("\n".join(lines) + "\n")
        started = time.monotonic()
        assert main(["complete", str(path)]) == 2
        assert time.monotonic() - started < 10
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: more than {construct.MAX_COUNT} choice functions\n"
        )

    @pytest.mark.parametrize("argv", [["complete"], ["check-main-lemma", "@", "e(x, y)"]])
    def test_star_too_large_to_complete_is_usage_error(self, tmp_path, capsys, argv):
        # 3^8 + 1 = 6,562 choice functions, so 9 * 6,562^2 pairs for e
        leaves = [f"l{i}" for i in range(8)]
        lines = ["pred e 2", "worlds: r " + " ".join(leaves), "domain r: a"]
        for leaf in leaves:
            lines += [f"order: r {leaf}", f"domain {leaf}: a b c", f"fact {leaf}: e(a, b)"]
        path = tmp_path / "star.model"
        path.write_text("\n".join(lines) + "\n")
        started = time.monotonic()
        code = main([argv[0], str(path)] + argv[2:])
        assert time.monotonic() - started < 10
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the completion has {9 * 6562 ** 2} pairs of a node and an argument"
            f" tuple, more than {construct.MAX_COMPLETION_PAIRS}\n"
        )


class TestCheckMainLemmaCommand:
    def test_atomic_report(self, separating_file, capsys):
        assert main(["check-main-lemma", separating_file, "forall x. p(x)"]) in (0, 1)
        report = json.loads(capsys.readouterr().out)
        assert report["formula"] == "forall x. p(x)"
        assert report["status"] in ("holds", "fails", "precondition-failed")
        assert report["instances"]

    def test_flip_reports_bar_violation(self, tmp_path, capsys):
        path = tmp_path / "flip.model"
        path.write_text(
            "pred p 1\nworlds: r l\norder: r l\ndomain r: a\ndomain l: a\nfact l: p(a)\n"
        )
        assert main(["check-main-lemma", str(path), "p(x)"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "precondition-failed"
        assert report["bar-violation"]["node"] == "r"

    def test_constant_facts_hold(self, tmp_path, capsys):
        path = tmp_path / "const.model"
        path.write_text(
            "pred p 1\nworlds: r l\norder: r l\ndomain r: a\ndomain l: a\n"
            "fact r: p(a)\nfact l: p(a)\n"
        )
        assert main(["check-main-lemma", str(path), "p(x)"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "holds"

    def test_deeply_nested_formula_is_usage_error(self, separating_file, capsys):
        formula = "forall x. " * 500 + "p(x)"
        assert_usage_error(main(["check-main-lemma", separating_file, formula]), capsys)

    def test_instances_past_the_cap_are_usage_error(self, tmp_path, capsys):
        # 40 nodes times 40 choice functions to the third: 2,560,000 instances
        worlds = [f"n{i}" for i in range(40)]
        lines = ["pred p 1", "conn and builtin", "worlds: " + " ".join(worlds)]
        lines += [f"order: {a} {b}" for a, b in zip(worlds, worlds[1:])]
        lines += [f"domain {w}: a" for w in worlds]
        path = tmp_path / "chain.model"
        path.write_text("\n".join(lines) + "\n")
        started = time.monotonic()
        code = main(["check-main-lemma", str(path), "and(p(x), and(p(y), p(z)))"])
        assert time.monotonic() - started < 5
        assert_usage_error(code, capsys)


class TestCensusCommand:
    def test_arity_two(self, capsys):
        assert main(["census", "--arity", "2"]) == 0
        out = capsys.readouterr().out
        assert "non-supermultiplicative, monotonic: 1 [0111]" in out
        assert "non-supermultiplicative, non-monotonic: 1 [0110]" in out


class TestReportRelationsCommand:
    def test_builtins(self, capsys):
        assert main(["report-relations", "--builtins", "not,and,imp"]) == 0
        out = capsys.readouterr().out
        assert "intuitionistic = constant-domain: yes" in out
        assert "constant-domain = classical: no" in out
        assert "intuitionistic = classical: no" in out

    def test_signature_file(self, tmp_path, capsys):
        path = tmp_path / "sig.txt"
        path.write_text("pred p 1\nconn or builtin\n")
        assert main(["report-relations", "--sig", str(path)]) == 0
        out = capsys.readouterr().out
        assert "connective or: non-supermultiplicative monotonic" in out

    def test_corpus_sweep_line(self, capsys):
        assert main(["report-relations", "--builtins", "and", "--corpus", "4"]) == 0
        out = capsys.readouterr().out
        assert "corpus: 4 sequents" in out

    def test_negative_corpus_is_usage_error(self, capsys):
        assert main(["report-relations", "--builtins", "and", "--corpus", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --corpus must be at least 0, not -5\n"

    def test_corpus_past_the_cap_is_usage_error(self, capsys, monkeypatch):
        # refused before any corpus is built
        monkeypatch.setattr(search, "sequent_corpus", None)
        too_many = str(cli.MAX_CORPUS + 1)
        assert main(["report-relations", "--builtins", "and", "--corpus", too_many]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --corpus must be at most {cli.MAX_CORPUS}, not {too_many}\n"

    def test_corpus_without_predicates_fails_before_any_output(self, tmp_path, capsys):
        path = tmp_path / "sig.txt"
        path.write_text("conn or builtin\n")
        assert main(["report-relations", "--sig", str(path), "--corpus", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: corpus sweep needs predicates in the signature\n"


class TestDeterminism:
    def test_byte_identical_output(self, or_seq_file, capsys):
        args = [
            "decide", "--mode", "kripke", "--seq", or_seq_file,
            "--max-worlds", "2", "--max-domain", "2", "--shape", "tree",
        ]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_timing_line_is_opt_in(self, capsys):
        main(["analyze-connective", "--builtin", "and", "--timing"])
        assert "# elapsed:" in capsys.readouterr().out
        main(["analyze-connective", "--builtin", "and"])
        assert "# elapsed:" not in capsys.readouterr().out

    def test_reused_parser_matches_a_fresh_one(self, or_seq_file, capsys, monkeypatch):
        # each option is followed by a call without it, so a value left over
        # from the previous call would show in the output or the exit code
        decide = [
            "decide", "--mode", "kripke", "--seq", or_seq_file,
            "--max-worlds", "2", "--max-domain", "2", "--shape", "tree",
        ]
        relations = ["report-relations", "--builtins", "or", "--corpus", "4"]
        synthesize = ["synthesize", "--builtin", "xor"]
        calls = [
            relations + ["--seed", "3"],
            relations,
            decide + ["--workers", "0"],
            decide,
            synthesize + ["--no-cd-check"],
            synthesize + ["--cd-bounds", "2", "1"],
            ["decide", "--mode", "intuitionistic", "--seq", or_seq_file],
            ["census", "--arity", "1"],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse exits on usage errors
                code = exc.code
            return code, capsys.readouterr().out

        reused = [run(argv) for argv in calls]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run(argv) for argv in calls]
        assert reused == fresh
        assert [code for code, _ in reused] == [0, 0, 2, 1, 0, 0, 2, 0]
        assert reused[0][1] != reused[1][1]
        assert reused[4][1] != reused[5][1]

    def test_seed_and_workers_accepted_after_subcommand(self, capsys):
        code = main(["report-relations", "--builtins", "and", "--corpus", "3", "--seed", "5"])
        assert code == 0
        assert "corpus: 3 sequents" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_every_option_is_read(name):
    # an option counts as read where `args.<dest>` appears in the command,
    # in a helper it calls, or in `main`, which every command passes through
    helpers = [cli._bounds_from_args, cli._connective_from_args, cli._load_problem]
    command = inspect.getsource(cli._COMMANDS[name])
    readers = [command, inspect.getsource(cli.main)]
    readers += [inspect.getsource(h) for h in helpers if f"{h.__name__}(" in command]
    read = {m for text in readers for m in re.findall(r"\bargs\.(\w+)", text)}
    (subparsers,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    dests = {
        a.dest for a in subparsers.choices[name]._actions if not isinstance(a, argparse._HelpAction)
    }
    assert dests - read == set()


def _fresh_interpreter(probe: str, *args: str) -> str:
    """The stdout of `probe` run by a new interpreter with this package on its path."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        [sys.executable, "-c", probe, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_loads_no_heavy_or_test_modules():
    # the package has no runtime dependencies, and setup_s times this import
    probe = (
        "import sys, kripkebench.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in"
        " {'numpy', 'networkx', 'hypothesis', 'pytest', 'multiprocessing'}))"
    )
    assert _fresh_interpreter(probe) == "[]\n"


def test_construct_and_synthesize_load_only_in_the_commands_that_run_them(
    or_seq_file, separating_file
):
    # each call's exit code and the heavy modules loaded after it, one call
    # after another in one interpreter, starting from the bare import
    probe = (
        "import contextlib, io, json, sys\n"
        "from kripkebench import cli\n"
        "heavy = ('kripkebench.construct', 'kripkebench.synthesize')\n"
        "seen = [[None, [m for m in heavy if m in sys.modules]]]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    seen.append([code, [m for m in heavy if m in sys.modules]])\n"
        "print(json.dumps(seen))\n"
    )
    calls = [
        ["decide", "--mode", "cd", "--seq", or_seq_file, "--max-worlds", "2"],
        ["analyze-connective", "--builtin", "or"],
        ["census", "--arity", "2"],
        ["synthesize", "--builtin", "xor", "--no-cd-check"],
        ["complete", separating_file],
    ]
    seen = json.loads(_fresh_interpreter(probe, json.dumps(calls)))
    synthesize_only = ["kripkebench.synthesize"]
    both = ["kripkebench.construct", "kripkebench.synthesize"]
    assert seen == [[None, []], [0, []], [0, []], [0, []], [0, synthesize_only], [0, both]]


def test_cli_loads_no_dataclasses_inspect_or_json(or_seq_file, separating_file):
    # setup_s times the bare import, and `dataclasses` alone pulls in
    # `inspect`, `ast`, `dis` and `tokenize`; the value classes are plain
    # classes and named tuples, and neither the import nor a search or a
    # connective report reads `json`
    calls = [
        ["decide", "--mode", "cd", "--seq", or_seq_file, "--max-worlds", "2"],
        ["decide", "--mode", "kripke", "--seq", or_seq_file, "--max-worlds", "2"],
        ["analyze-connective", "--builtin", "or"],
        ["synthesize", "--builtin", "xor", "--no-cd-check"],
        ["complete", separating_file],
    ]
    probe = (
        "import contextlib, io, sys\n"
        "from kripkebench import cli\n"
        "heavy = ('dataclasses', 'inspect', 'json')\n"
        "seen = [[None, [m for m in heavy if m in sys.modules]]]\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    seen.append([code, [m for m in heavy if m in sys.modules]])\n"
        "print(seen)\n"
    )
    seen = ast.literal_eval(_fresh_interpreter(probe))
    assert [code for code, _ in seen] == [None, 0, 1, 0, 0, 0]
    assert [loaded for _, loaded in seen[:4]] == [[]] * 4
    assert all("dataclasses" not in loaded for _, loaded in seen)


def test_cd_check_bounds_come_from_one_constant():
    bounds = search.DEFAULT_CD_BOUNDS
    args = cli._parser().parse_args(["synthesize", "--builtin", "xor"])
    assert args.cd_bounds == (bounds.max_worlds, bounds.max_domain)
    default = inspect.signature(synthesize.synthesize).parameters["cd_bounds"].default
    assert default is bounds
