"""Every size guard of `core._GUARDS` at its edge, and the README's exit-4
row against the table.

Each guard has one case: an input whose count is the guard's limit, which
answers, and under a limit one lower trips the guard with the exact message.
Where the real limit is too slow to reach, the case patches in the count of
a small input instead.
"""

import os
import re

import pytest

from neutromap import core
from neutromap.core import NeutroMatrix, SizeLimitError
from neutromap.engines import ConceptModel, balance
from neutromap.formats import parse_model
from neutromap.graphs import (Graph, chromatic_polynomial, coloring, generate, hamiltonian,
                              metrics, spanning_tree_count, tutte)
from neutromap.ngraph import NeutroGraph, neutro_isomorphic
from neutromap.relations import FuzzyNeutroRelation, relational_join

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
PETERSEN = generate("petersen")  # 10 vertices, 15 edges
NEUTRO_PATH = NeutroGraph(9, 1, [(i, i + 1, "R") for i in range(9)])  # 10 vertices
# x1, x2 -> y1, y2, y3 and y1, y2, y3 -> z1, z2: a join table of 2 x 3 x 2 entries
JOIN_P = FuzzyNeutroRelation.from_tokens([["1", "0.5", "I"], ["0", "0.2I", "1"]])
JOIN_Q = FuzzyNeutroRelation.from_tokens(
    [["0.3", "1"], ["I", "0"], ["1", "0.7"]], ["y1", "y2", "y3"], ["z1", "z2"])


def ring(n):
    """A concept model whose n concepts each point at the next, around a ring."""
    names = ["C%d" % (i + 1) for i in range(n)]
    return ConceptModel(names, NeutroMatrix(
        [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]))


# name -> (limit to patch in, or None for the table's; the input; its answer)
EDGES = {
    "graph order": (None, lambda: parse_model(
        "neutromap-model 1\nkind graph\n1000000 0\n").payload.vertex_count, 10 ** 6),
    "graph generator": (15, lambda: generate("petersen").m, 15),
    "distance table": (None, lambda: metrics(Graph(2000)).diameter, None),
    "distance search": (150, lambda: metrics(PETERSEN).diameter, 2),  # 10 x 15 edge visits
    "tutte matrix": (None, lambda: len(tutte(Graph(2000))[0]), 2000),
    "laplacian": (100, lambda: spanning_tree_count(PETERSEN), 2000),
    # (10 + 1) x 15 coefficient bits, and 73 memo states
    "chromatic polynomial size": (165, lambda: chromatic_polynomial(PETERSEN)(3), 120),
    "chromatic polynomial": (73, lambda: chromatic_polynomial(PETERSEN)(3), 120),
    # the sum of len(state)**2 over the states those enter
    "chromatic polynomial memo": (3574, lambda: chromatic_polynomial(PETERSEN)(3), 120),
    "hamiltonian search": (None, lambda: hamiltonian(generate("cycle", 14))[1], True),
    # the search that finds no spanning cycle of the Petersen graph
    "cycle search": (237, lambda: hamiltonian(PETERSEN)[1], False),
    "vertex coloring": (None, lambda: coloring(generate("cycle", 14)).chromatic_number, 2),
    "edge coloring": (
        None, lambda: coloring(generate("complete-bipartite", 4, 5)).edge_chromatic_number, 5),
    "balance": (None, lambda: balance(ring(12)), (True, None)),
    "isomorphism": (None, lambda: neutro_isomorphic(NEUTRO_PATH, NEUTRO_PATH)[0], True),
    "relational join": (12, lambda: len(relational_join(JOIN_P, JOIN_Q)), 12),
}


@pytest.mark.parametrize("name", sorted(set(core._GUARDS) | set(EDGES)),
                         ids=lambda name: name.replace(" ", "-"))
def test_guard_edge(monkeypatch, name):
    # so the cases are the guards: a new guard needs a case, a gone one loses it
    assert name in EDGES and name in core._GUARDS
    limit, run, answer = EDGES[name]
    unit = core._GUARDS[name][1]
    if limit is None:
        limit = core._GUARDS[name][0]
    monkeypatch.setitem(core._GUARDS, name, (limit, unit))
    assert run() == answer
    monkeypatch.setitem(core._GUARDS, name, (limit - 1, unit))
    message = "%s guard: %d %s exceeds %d" % (name, limit, unit, limit - 1)
    with pytest.raises(SizeLimitError, match="^%s$" % re.escape(message)):
        run()


def test_readme_exit_4_row_names_every_guard():
    with open(README, encoding="utf-8") as fh:
        row, = (line for line in fh if line.startswith("| 4 |"))
    for name, (limit, unit) in core._GUARDS.items():
        assert "`%s` above %s %s" % (name, format(limit, ","), unit) in row, name
