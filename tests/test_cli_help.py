"""argparse's own text: exit code, stdout and stderr of help and usage errors,
byte for byte.

The CLI contract records exit code and stdout only, so this record pins what
argparse prints to stderr as well: the top usage line, which lists every
command, each command's help, and the usage errors of the top parser and of
the sub-parsers.  Each case runs `neutromap.cli.main` in process with
COLUMNS=80, so the wrapping does not follow the terminal.

After an intended change of this text, rewrite the record with

    PYTHONPATH=src python tests/test_cli_help.py
"""

import contextlib
import io
import json
import os

import pytest

from neutromap.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "cli_help.json")
MODEL = os.path.join(HERE, os.pardir, "fixtures", "ex-3.7.1-NE.model")

CASES = {
    "no-arguments": [],
    "help": ["--help"],
    "cm-help": ["cm", "--help"],
    "cm-run-help": ["cm", "run", "--help"],
    "graph-analyze-help": ["graph", "analyze", "--help"],
    "format-then-help": ["--format", "plain", "--help"],
    "format-then-cm-run-help": ["--format", "structured", "cm", "run", "--help"],
    "unknown-command": ["bogus"],
    "cm-without-action": ["cm"],
    "cm-unknown-action": ["cm", "walk"],
    "cm-run-without-on": ["cm", "run", MODEL],
    "root-format-invalid": ["--format=xml", "cm", "run", MODEL, "--on", "C1"],
    "root-format-missing-value": ["--format"],
    "unrecognized-argument": ["cm", "run", MODEL, "--on", "C1", "--bogus"],
    "rel-join-one-input": ["rel", "join", MODEL],
    "petersen-bad-kind": ["ngraph", "petersen", "twisted", "1"],
    "graph-seed-not-int": ["graph", "analyze", "petersen", "--seed", "x"],
}


def invoke(argv):
    """[exit code, stdout, stderr] of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [code, out.getvalue(), err.getvalue()]


@pytest.fixture(scope="module")
def record():
    with open(RECORD, encoding="utf-8") as fh:
        return json.load(fh)


def test_record_covers_every_case(record):
    assert sorted(record) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_cli_help_text(monkeypatch, record, case_id):
    monkeypatch.setenv("COLUMNS", "80")
    assert invoke(CASES[case_id]) == record[case_id]


def test_top_usage_lists_every_command(record):
    usage, error = record["root-format-invalid"][2].split("\nneutromap: error: ")
    assert usage.endswith("\n" + " " * 17 + "{graph,ngraph,rel,cm,rm,link,export} ...")
    assert error.startswith("argument --format: invalid choice: 'xml'")


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    frozen = {case_id: invoke(argv) for case_id, argv in CASES.items()}
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d cases written to %s" % (len(frozen), RECORD))
