"""The CLI contract: exit code and stdout of every case, byte for byte.

Each case runs `neutromap.cli.main` in process, once with `--format plain`
and once with `--format structured`, and is compared with the frozen
record in `cli_contract.json`.  Every failing case must write exactly one
`error:` line to stderr and nothing else; a successful one writes nothing.

The cases cover every fixture through each command that accepts its kind,
the graph generators with each analysis flag that fits the size guards,
`--from-csv` for every command that takes it, the neutrosophic Petersen
variants, DOT export, and one error input per exit code.

After an intended change of CLI output, rewrite the record with

    PYTHONPATH=src python tests/test_cli_contract.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

from neutromap.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, os.pardir, "fixtures")
RECORD = os.path.join(HERE, "cli_contract.json")
FORMATS = ("plain", "structured")

CSV = {
    "k3": "0, 1, 1\n1, 0, 1\n1, 1, 0\n",
    "c4": "0, 1, 0, 1\n1, 0, 1, 0\n0, 1, 0, 1\n1, 0, 1, 0\n",
    "rel-p": "0.3, I, 1\n0, 0.5, 0.4I\n1, 0, 0.2\n",
    "rel-q": "1, 0.2\n0.4I, 0\n0.7, I\n",
    "cm": "0, 1, I\n-1, 0, 1\n1, 0, 0\n",
    "rm": "1, 0\n0, I\n-1, 1\n",
    "adj-non-square": "0, 1, 1\n1, 0, 1\n",
    "adj-diagonal": "1, 1\n1, 0\n",
    "adj-asymmetric": "0, 1\n0, 0\n",
    "adj-two": "0, 2\n2, 0\n",
    "adj-indeterminate": "0, I\nI, 0\n",
    "ragged": "0, 1\n1\n",
}

MODELS = {
    "bad-header": "neutromap-model 2\nkind graph\n1 0\n",
}

GENERATORS = (
    "petersen", "complete-4", "complete-5", "complete-bipartite-2-3",
    "cycle-5", "cycle-6", "path-4", "star-3", "wheel-5",
)
ANALYSES = (
    "degree", "connectivity", "metrics", "bipartite", "coloring",
    "polynomial", "tree-count", "tutte", "eulerian", "hamiltonian",
)


def _fixture_heads():
    """Fixture name -> its meaningful lines, read as text only."""
    heads = {}
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".model"):
            with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
                heads[name] = [
                    ln.strip() for ln in fh
                    if ln.strip() and not ln.strip().startswith("#")
                ]
    return heads


def _cases():
    cases = []

    def add(case_id, *argv, stdin=None):
        cases.append((case_id, list(argv), stdin))

    for name, lines in _fixture_heads().items():
        f = "@fx/" + name
        kind = lines[1].split()[1]
        add("export-dot/" + name, "export", "dot", f)
        if kind == "graph":
            add("graph/" + name, "graph", "analyze", f)
            add("graph-all/" + name, "graph", "analyze", f,
                *["--" + a for a in ANALYSES])
        elif kind == "neutro-graph":
            add("classify/" + name, "ngraph", "classify", f)
            add("color/" + name, "ngraph", "color", f)
        elif kind == "relation":
            add("props/" + name, "rel", "props", f)
            add("props-eps/" + name, "rel", "props", f, "--epsilon", "0.25")
            add("closure/" + name, "rel", "closure", f)
            add("compose/" + name, "rel", "compose", f, f)
            add("join/" + name, "rel", "join", f, f)
        elif kind == "concept-model":
            names = lines[2].split()[1:]
            for c in names:
                add("cm/%s/%s" % (name, c), "cm", "run", f, "--on", c)
            add("cm-degrade/" + name, "cm", "run", f, "--on", names[0],
                "--degrade")
            add("cm-clamp/" + name, "cm", "run", f, "--on",
                ",".join(names[:2]), "--clamp", names[-1])
            add("link/" + name, "link", f)
            add("link-self/" + name, "link", f, f, "--signed")
        elif kind == "relational-model":
            for side, line in (("domain", lines[2]), ("range", lines[3])):
                for node in line.split()[1:]:
                    add("rm/%s/%s" % (name, node), "rm", "run", f,
                        "--side", side, "--on", node)
            add("link/" + name, "link", f)
    add("rel-compose/R-Q", "rel", "compose",
        "@fx/ex-2.8.5-R.model", "@fx/ex-2.8.5-Q.model")
    add("rel-join/sagittal-R", "rel", "join",
        "@fx/sec-3.7-sagittal.model", "@fx/ex-2.8.5-Q.model")
    add("link/ex-3.7.11", "link",
        "@fx/ex-3.7.11-NE1.model", "@fx/ex-3.7.11-NE2.model")
    add("link-diff/ex-3.7.11", "link",
        "@fx/ex-3.7.11-NE1.model", "@fx/ex-3.7.11-NE2.model",
        "--signed", "--diff", "@fx/ex-3.7.11-printed.csv")
    add("graph-stdin", "graph", "analyze", "-",
        stdin="neutromap-model 1\nkind graph\n3 2\n0 1\n1 2\n")

    for gen in GENERATORS:
        add("gen/" + gen, "graph", "analyze", gen)
        for a in ANALYSES:
            add("gen/%s/%s" % (gen, a), "graph", "analyze", gen, "--" + a)
    # odd cycles whose certificate follows ascending neighbour order
    for gen in ("cycle-9", "wheel-9"):
        add("gen/%s/bipartite" % gen, "graph", "analyze", gen, "--bipartite")
    add("gen-seed/petersen", "graph", "analyze", "petersen", "--tutte",
        "--seed", "7")

    for csv in ("k3", "c4"):
        add("csv-graph/" + csv, "graph", "analyze", "@csv/" + csv,
            "--from-csv")
        add("csv-graph-all/" + csv, "graph", "analyze", "@csv/" + csv,
            "--from-csv", *["--" + a for a in ANALYSES])
    add("csv-rel-props", "rel", "props", "@csv/rel-p", "--from-csv")
    add("csv-rel-closure", "rel", "closure", "@csv/rel-p", "--from-csv")
    add("csv-rel-compose", "rel", "compose", "@csv/rel-p", "@csv/rel-q",
        "--from-csv")
    add("csv-rel-join", "rel", "join", "@csv/rel-p", "@csv/rel-q",
        "--from-csv")
    for c in ("C1", "C2", "C3"):
        add("csv-cm/" + c, "cm", "run", "@csv/cm", "--from-csv", "--on", c)
    add("csv-cm-degrade", "cm", "run", "@csv/cm", "--from-csv", "--on", "C1",
        "--degrade")
    for side, node in (("domain", "D1"), ("domain", "D3"), ("range", "R2")):
        add("csv-rm/" + node, "rm", "run", "@csv/rm", "--from-csv",
            "--side", side, "--on", node)
    add("csv-link", "link", "@fx/ex-1.2.8-A.csv", "@fx/ex-1.2.8-B.csv",
        "--from-csv")
    add("csv-link-signed", "link", "@fx/ex-1.2.8-A.csv",
        "@fx/ex-1.2.8-B.csv", "--from-csv", "--signed")

    for kind in ("vertex", "edge"):
        for k in ("0", "1", "3", "10"):
            add("petersen/%s/%s" % (kind, k), "ngraph", "petersen", kind, k)
    for j, k in (("0", "0"), ("2", "3"), ("5", "5")):
        add("petersen/strong/%s-%s" % (j, k), "ngraph", "petersen", "strong",
            j, k)

    add("error-1/generator-domain", "graph", "analyze", "cycle-2")
    add("error-1/petersen-params", "ngraph", "petersen", "vertex", "1", "2")
    add("error-1/epsilon-range", "rel", "props", "@fx/sec-3.7-abcde.model",
        "--epsilon", "2")
    add("error-1/epsilon-token", "rel", "props", "@fx/sec-3.7-abcde.model",
        "--epsilon", "0.5.5")
    add("error-1/wrong-kind", "cm", "run", "@fx/fig-2.2.3.model", "--on", "C1")
    add("error-1/wrong-side", "rm", "run", "@fx/fig-2.8.11-E1.model",
        "--side", "domain", "--on", "R1")
    for side, on, clamp, bad in (("domain", "D1", "D2", "R1"),
                                 ("range", "R1", "R3", "D2")):
        add("rm-clamp/" + side, "rm", "run", "@fx/fig-2.8.11-E1.model",
            "--side", side, "--on", on, "--clamp", clamp)
        add("error-1/clamp-side/" + side, "rm", "run",
            "@fx/fig-2.8.11-E1.model", "--side", side, "--on", on,
            "--clamp", bad)
    add("error-2/bad-header", "graph", "analyze", "@model/bad-header")
    add("error-2/ragged-csv", "cm", "run", "@csv/ragged", "--from-csv",
        "--on", "C1")
    add("error-3/compose-shapes", "rel", "compose",
        "@fx/sec-3.7-sagittal.model", "@fx/sec-3.7-sagittal.model")
    add("error-4/hamiltonian-guard", "graph", "analyze", "cycle-16",
        "--hamiltonian")
    add("error-5/missing-file", "cm", "run", "no-such.model", "--on", "C1")
    add("error-5/unknown-generator", "graph", "analyze", "moebius-5")
    add("error-5/unknown-concept", "cm", "run", "@fx/ex-3.7.1-E.model",
        "--on", "C9")
    for csv in ("adj-non-square", "adj-diagonal", "adj-asymmetric",
                "adj-two", "adj-indeterminate"):
        add("error-csv/" + csv, "graph", "analyze", "@csv/" + csv,
            "--from-csv")
    return cases


CASES = _cases()


def _resolve(argv, tmpdir):
    out = []
    for a in argv:
        if a.startswith("@fx/"):
            a = os.path.join(FIXTURES, a[4:])
        elif a.startswith("@csv/"):
            a = os.path.join(tmpdir, a[5:] + ".csv")
        elif a.startswith("@model/"):
            a = os.path.join(tmpdir, a[7:] + ".model")
        out.append(a)
    return out


def _write_inputs(tmpdir):
    for name, text in CSV.items():
        with open(os.path.join(tmpdir, name + ".csv"), "w") as fh:
            fh.write(text)
    for name, text in MODELS.items():
        with open(os.path.join(tmpdir, name + ".model"), "w") as fh:
            fh.write(text)


def invoke(argv, stdin, tmpdir):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(_resolve(argv, tmpdir))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmpdir = str(tmp_path_factory.mktemp("contract"))
    _write_inputs(tmpdir)
    return tmpdir


@pytest.fixture(scope="module")
def record():
    with open(RECORD, encoding="utf-8") as fh:
        return json.load(fh)


def test_record_covers_every_case(record):
    assert sorted(record) == sorted(c[0] for c in CASES)


@pytest.mark.parametrize("case_id,argv,stdin", CASES, ids=[c[0] for c in CASES])
def test_cli_contract(case_id, argv, stdin, inputs, record):
    for fmt in FORMATS:
        code, out, err = invoke(["--format", fmt] + argv, stdin, inputs)
        assert [code, out] == record[case_id][fmt], fmt
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, err


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmpdir:
        _write_inputs(tmpdir)
        frozen = {
            case_id: {
                fmt: list(invoke(["--format", fmt] + argv, stdin, tmpdir)[:2])
                for fmt in FORMATS
            }
            for case_id, argv, stdin in CASES
        }
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d cases written to %s" % (len(frozen), RECORD))
