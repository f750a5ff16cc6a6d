"""Shared test configuration: the acceptance-criteria summary table and a
bounded child-process runner.

The functions in test_acceptance.py are named test_cNN_*; after a run that
touched any of them, the terminal summary prints one PASS/FAIL line per
criterion so the whole checklist can be read at a glance.
"""

import os
import re
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
CHILD_TIMEOUT = 60  # seconds

CRITERIA = {
    "C01": "matrix product reproduces the worked 2x4 result, corrected 4I entry included",
    "C02": "crisp child-labor map reaches fixed point 1 0 0 1 1 1 0 within three steps",
    "C03": "neutrosophic child-labor map reaches fixed point 1 I 0 1 1 0 0 within three steps",
    "C04": "second-expert maps reach fixed points 1 1 0 1 0 1 0 and 1 1 0 1 1 0 0",
    "C05": "hacking map reaches I I I 0 I I 1 1 in five steps; degraded run gives 0 0 0 0 0 0 1 1",
    "C06": "linked maps: 4x5 raw product equals the hand expansion; signed diff is reported",
    "C07": "neutrosophic adjacency reproduces the published 5x5 connection matrix",
    "C08": "coloring suite: K4, K5 and the Petersen graph, all under five seconds",
    "C09": "chromatic polynomials match K3, trees, brute-force counts and the edge coefficient",
    "C10": "relation suite: property reports, inverse/associativity laws, transitive closure",
    "C11": "property-based core: ring axioms, matrix-tree counts, Tutte matchings",
    "C12": "dynamics sweep: every fixture model, every binary start, bounded and verified",
}

_results = {}
_NODE = re.compile(r"test_acceptance\.py::test_(c\d{2})_")


def pytest_runtest_logreport(report):
    m = _NODE.search(report.nodeid)
    if m is None:
        return
    cid = m.group(1).upper()
    if report.when == "call":
        _results[cid] = report.outcome
    elif report.outcome != "passed" and cid not in _results:
        _results[cid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for cid in sorted(_results):
        word = "PASS" if _results[cid] == "passed" else "FAIL"
        terminalreporter.write_line(
            "[%s] %s - %s" % (cid, word, CRITERIA.get(cid, ""))
        )


@pytest.fixture
def python_child():
    """Run `python ARGS...` in a child process with `src` on its path.

    The child is killed after `timeout` seconds and the test fails with
    subprocess.TimeoutExpired, so a search that stops terminating fails the
    suite instead of hanging it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )

    def run(*args, timeout=CHILD_TIMEOUT):
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env,
            timeout=timeout,
        )

    return run
