"""Pinned CLI output: the sha256 of (exit code, stdout) for a fixed set of calls.

The digests were recorded before the deletions and moves they guard, so a
change that alters any byte of the default output, or an exit code, fails
here. To see what changed, run the call by hand against both versions.
"""

import hashlib

import pytest

from kripkebench.cli import main

FILES = {
    "or.seq": (
        "pred p 1\npred q 1\npred T 0\nconn or builtin\n"
        "sequent: T, forall x. or(p(x), q(x)) => or(forall x. p(x), exists x. q(x))\n"
    ),
    "open.seq": "pred p 1\npred q 1\nconn imp builtin\nsequent: imp(p(x), q(x)), p(x) => q(y)\n",
    "lem.seq": "pred r 0\nconn or builtin\nconn not builtin\nsequent: => or(r, not(r))\n",
    "separating.model": (
        "pred p 1\npred q 1\npred T 0\n"
        "worlds: w1 w2\norder: w1 w2\ndomain w1: a1\ndomain w2: a1 a2\n"
        "fact w1: p(a1)\nfact w1: T\nfact w2: p(a1)\nfact w2: q(a2)\nfact w2: T\n"
    ),
    # the same model with `imp`, for formulas that read the 0-ary T
    "separating-imp.model": (
        "pred p 1\npred q 1\npred T 0\nconn imp builtin\n"
        "worlds: w1 w2\norder: w1 w2\ndomain w1: a1\ndomain w2: a1 a2\n"
        "fact w1: p(a1)\nfact w1: T\nfact w2: p(a1)\nfact w2: q(a2)\nfact w2: T\n"
    ),
    "diamond.model": (
        "pred p 1\npred q 1\n"
        "worlds: w0 w1 w2 w3\n"
        "order: w0 w1\norder: w0 w2\norder: w1 w3\norder: w2 w3\n"
        "domain w0: a\ndomain w1: a b\ndomain w2: a\ndomain w3: a b\n"
        "fact w1: p(b)\nfact w2: q(a)\nfact w3: p(b)\nfact w3: q(a)\nfact w3: p(a)\n"
    ),
    "tree.model": (
        "pred p 1\npred q 1\nconn imp builtin\n"
        "worlds: n0 n1 n2 n3\n"
        "order: n0 n1\norder: n0 n2\norder: n1 n3\n"
        "domain n0: a\ndomain n1: a b\ndomain n2: a\ndomain n3: a b\n"
        "fact n1: p(a)\nfact n3: p(a)\nfact n3: q(b)\nfact n2: q(a)\n"
    ),
    "fork.model": (
        "pred p 1\npred q 1\nconn or builtin\n"
        "worlds: n0 n1 n2\norder: n0 n1\norder: n0 n2\n"
        "domain n0: a\ndomain n1: a b\ndomain n2: a b\n"
        "fact n1: p(b)\nfact n2: q(a)\n"
    ),
    "flip.model": "pred p 1\nworlds: r l\norder: r l\ndomain r: a\ndomain l: a\nfact l: p(a)\n",
    "edge.model": (
        "pred e 2\npred p 1\nconn imp builtin\n"
        "worlds: n0 n1 n2 n3\n"
        "order: n0 n1\norder: n0 n2\norder: n1 n3\n"
        "domain n0: a\ndomain n1: a b\ndomain n2: a\ndomain n3: a b\n"
        "fact n0: e(a, a)\nfact n1: e(a, a)\nfact n2: e(a, a)\nfact n3: e(a, a)\n"
        "fact n1: e(a, b)\nfact n1: e(b, b)\nfact n1: p(b)\n"
        "fact n3: e(a, b)\nfact n3: e(b, b)\nfact n3: p(b)\nfact n2: p(a)\n"
    ),
    "edge-fork.model": (
        "pred e 2\npred p 1\nconn imp builtin\n"
        "worlds: n0 n1 n2 n3\n"
        "order: n0 n1\norder: n0 n2\norder: n1 n3\n"
        "domain n0: a\ndomain n1: a b\ndomain n2: a\ndomain n3: a b\n"
        "fact n1: e(a, b)\nfact n3: e(a, b)\nfact n3: e(b, b)\nfact n3: p(b)\n"
        "fact n2: e(a, a)\nfact n2: p(a)\n"
    ),
    # 11 choice functions, so that F10 sorts between F1 and F2, with a 0-ary,
    # a unary, a binary and a ternary predicate, and s without facts
    "wide.model": (
        "pred r 0\npred p 1\npred e 2\npred t 3\npred s 1\n"
        "worlds: n0 n1 n2\norder: n0 n1\norder: n0 n2\n"
        "domain n0: a b\ndomain n1: a b c\ndomain n2: a b c\n"
        "fact n0: p(a)\nfact n1: p(a)\nfact n2: p(a)\nfact n1: p(c)\nfact n2: r\n"
        "fact n1: e(a, c)\nfact n1: e(c, c)\nfact n2: e(b, a)\n"
        "fact n0: t(a, b, a)\nfact n1: t(a, b, a)\nfact n2: t(a, b, a)\nfact n2: t(c, c, b)\n"
    ),
    "c3.json": '{"arity": 3, "table": "01101001"}',
    "sig.txt": "pred p 1\npred q 1\nconn or builtin\nconn imp builtin\n",
}

BOUNDS = ["--max-worlds", "2", "--max-domain", "2", "--shape", "tree"]

# name -> argv, with @NAME standing for the path of file NAME
CALLS = {
    "analyze-builtin": ["analyze-connective", "--builtin", "or"],
    "analyze-file": ["analyze-connective", "--connective", "@c3.json", "--name", "c3"],
    "decide-kripke-refuted": ["decide", "--mode", "kripke", "--seq", "@or.seq"] + BOUNDS,
    "decide-kripke-open": ["decide", "--mode", "kripke", "--seq", "@open.seq"] + BOUNDS,
    "decide-cd-valid": [
        "decide", "--mode", "cd", "--seq", "@or.seq",
        "--max-worlds", "3", "--max-domain", "2", "--shape", "tree",
    ],
    "decide-cd-refuted": ["decide", "--mode", "cd", "--seq", "@lem.seq"],
    "decide-classical-valid": ["decide", "--mode", "classical", "--seq", "@lem.seq"],
    "decide-classical-refuted": ["decide", "--mode", "classical", "--seq", "@open.seq"],
    "decide-workers-zero": ["decide", "--mode", "kripke", "--seq", "@or.seq", "--workers", "0"],
    "synthesize-xor-cd": ["synthesize", "--builtin", "xor"],
    "synthesize-file-cd": [
        "synthesize", "--connective", "@c3.json", "--cd-bounds", "2", "2",
    ],
    "synthesize-or-no-cd": ["synthesize", "--builtin", "or", "--no-cd-check"],
    "unravel-strict": ["unravel", "--strict", "@diamond.model"],
    "unravel-stutter": ["unravel", "--stutter", "3", "@separating.model"],
    "complete-separating": ["complete", "@separating.model"],
    "complete-tree": ["complete", "@tree.model"],
    "complete-edge": ["complete", "@edge.model"],
    "complete-wide": ["complete", "@wide.model"],
    "lemma-holds": ["check-main-lemma", "@separating.model", "forall x. p(x)"],
    "lemma-tree": ["check-main-lemma", "@tree.model", "forall x. imp(p(x), exists y. q(y))"],
    "lemma-open": ["check-main-lemma", "@tree.model", "imp(q(x), p(x))"],
    "lemma-fails": ["check-main-lemma", "@fork.model", "or(p(x), q(x))"],
    "lemma-bar-violation": ["check-main-lemma", "@flip.model", "p(x)"],
    "lemma-closed-zero-ary": [
        "check-main-lemma", "@separating-imp.model", "imp(T, exists x. q(x))",
    ],
    "lemma-open-zero-ary": ["check-main-lemma", "@separating-imp.model", "imp(T, q(x))"],
    "lemma-edge-first": ["check-main-lemma", "@edge.model", "exists y. e(x, y)"],
    "lemma-edge-last": ["check-main-lemma", "@edge.model", "exists y. e(y, x)"],
    "lemma-edge-diagonal": ["check-main-lemma", "@edge.model", "e(x, x)"],
    "lemma-edge-two": ["check-main-lemma", "@edge.model", "imp(e(x, z), p(z))"],
    "lemma-edge-forall": ["check-main-lemma", "@edge.model", "forall y. imp(e(y, x), p(y))"],
    "lemma-edge-three": ["check-main-lemma", "@edge.model", "imp(e(x, y), e(z, x))"],
    "lemma-edge-fork-last": ["check-main-lemma", "@edge-fork.model", "exists y. e(y, x)"],
    "lemma-edge-fork-two": ["check-main-lemma", "@edge-fork.model", "imp(e(x, z), p(z))"],
    "census-2": ["census", "--arity", "2"],
    "census-3-list": ["census", "--arity", "3", "--list"],
    "relations-corpus": ["report-relations", "--builtins", "or,imp", "--corpus", "6", "--seed", "4"],
    "relations-sig": ["report-relations", "--sig", "@sig.txt"],
}

DIGESTS = {
    "analyze-builtin": "e6235bad712803edd1b6df1041c368fa4c7e12f5ce223bdecaae01a24b533d70",
    "analyze-file": "e3ac2a4374bad2bc3d6969ad338b80f1c53ff2bdc8bb59120d1c8b1984c7f88f",
    "census-2": "23fc96427fdadc6b99ff7bc30855ea0b133c5e9fe2de235cf55c0b6a68c90c4f",
    "census-3-list": "7ca1f315edf91ae8dfc3095dec2f06f38e0ef3ffe9ac886790cdb31ecc8ef1cc",
    "complete-edge": "c999cd65d20b2c5efdd9a50228351a615866c82f92a7ad5730ada1596b96e742",
    "complete-wide": "9e8d65130f29e55a3d06d5f6f91adefaa48b66a66a3f1deb6e08f793e1ee5832",
    "complete-separating": "9d0d68338552224f8ea850ecbc78fc8d0a68fc7975c61d7117cb3a7a24c35980",
    "complete-tree": "23e77c274d5d6b5e353b718d2391718fcfb502aacab1921521fe0e09effc9ab0",
    "decide-cd-refuted": "8fae7e356eecc4eb36a98258ddd6c7001a976ad71831fa5fac03a6da36e12786",
    "decide-cd-valid": "c6cb018e3300fe8b9570ccb9203d7925250659ab2da047a897239825b89f4267",
    "decide-classical-refuted": "c9c4e6e0a24ad9d547c270e9686d49eefde8d02bb412cd590efa64065c21a9dc",
    "decide-classical-valid": "23d898d1b194cf200297b9ced31147e36f985bc548561a482e3257c9fbd316f9",
    "decide-kripke-open": "1791b17a4c8c862efdd7ed8fe2e7ad711a17399e185e90ca833d1feea00cdbab",
    "decide-kripke-refuted": "e9e5118df5992f83b73474f3d10814e3ccaf900cc0c16f7c5b63e22ef9140889",
    "decide-workers-zero": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "lemma-bar-violation": "f937b6f8f316b99923bd0405547b444390b2b168e45f00c9ee21943ca6092e97",
    "lemma-closed-zero-ary": "21803bf75e440fa4d34b884b2d62700f02643fef987bc1c35d8754dba6e87617",
    "lemma-edge-diagonal": "5f76d997f2cd1c01c391961a4db5c047bf265f0c9efe2c024efefd9c8c6980aa",
    "lemma-edge-first": "d839e3c644ed614dc8064e312e27e4dc033c49ac7662de2e4f09d3d83f5f30c5",
    "lemma-edge-forall": "da5f264c55a3600a5d7a38a8a114ebd163b551e7cf546c50cc833aded8ce4286",
    "lemma-edge-fork-last": "596368afd8510e4ab3fb67f370d4a7ef2fffa098ca2f8b2af1d3d4c2b57a3c2d",
    "lemma-edge-fork-two": "1fde26f6d7f82be80f2bda799494315699a0558d1d345e90c3852c66897663a7",
    "lemma-edge-three": "b82c5bbe736363de98cb0fa06c0848b638540086ef31e89e26358e17bcd31de7",
    "lemma-edge-last": "464a014721d5eed8e7a311303c28eb7312440aca415b03a675005ce42fc2ca31",
    "lemma-edge-two": "a101dfde891cbd77eaa6a955539a1510045ca8dc97f6877bd4ce4af85172ee7e",
    "lemma-fails": "d34ec489522f9aaa56803751f6635685c6967302b63db430adbc0614ab55167c",
    "lemma-holds": "32f8812bbf919d44490c573e99d6c343748dc5a0467b3956d695fec9de4bbfd8",
    "lemma-open-zero-ary": "1ca0f699840901f8953024995dea7c5d4d515f6e67257982c09065c4e78a92b0",
    "lemma-open": "6622748e5b5c19d2a6694683f59578c281d671d6d7193f9e34a0dab53db3c02a",
    "lemma-tree": "6b9c393f00cd0d7835792b82537c8ee20151d37e1365e088756c961aa0742323",
    "relations-corpus": "f4c8f5bf442f29e65d185445114d8b109dc1c31abb9aef9ad00a836c18030dc4",
    "relations-sig": "52f2a6c6b4560db7776e4ed6908f11a9fa60fd6ff1517162d574790f93f51ea6",
    "synthesize-file-cd": "1624b888bf6958d39b27d536b0fcc35fbc7771e6e08a3c9a64ae4a0634ee072c",
    "synthesize-or-no-cd": "6d8b94ae001979231ba2efa0c3bccf538db67b2dc4a058cee9a29e8c8e5ced4d",
    "synthesize-xor-cd": "d236bad25365a99de03cd8c172b17de0374d984b9041309c94c7780219c00015",
    "unravel-strict": "df3ea50916b139ac3872d77491394923be279863f6a42f11ae4c4930f31fada0",
    "unravel-stutter": "b9fc892133af377e7b5b42cdfcb451e55ad17cc53cb19aea248f1dc983018924",
}


def run_call(argv, directory, capsys):
    """The (exit code, stdout) digest of one call, its files written to `directory`."""
    paths = {}
    for name, text in FILES.items():
        path = directory / name
        path.write_text(text)
        paths[name] = str(path)
    code = main([paths[arg[1:]] if arg.startswith("@") else arg for arg in argv])
    out = capsys.readouterr().out
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_output_is_unchanged(name, tmp_path, capsys):
    assert run_call(CALLS[name], tmp_path, capsys) == DIGESTS[name]


def test_every_subcommand_is_pinned():
    pinned = {argv[0] for argv in CALLS.values()}
    assert pinned == {
        "analyze-connective", "decide", "synthesize", "unravel", "complete",
        "check-main-lemma", "census", "report-relations",
    }
    assert set(DIGESTS) == set(CALLS)
