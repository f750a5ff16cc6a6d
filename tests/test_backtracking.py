"""The three backtracking searches of the library, checked against the
recursive routines they replaced and on inputs too deep to recurse over.

`balance`, the least-coloring search and `neutro_isomorphic` each run on an
explicit stack.  The recursive routines below are their former form, kept
as reference implementations: the stack versions visit in the same order,
so their first answer (the witness, the colors, the map phi) must be the
same, not merely equivalent.
"""

import random
import sys
import time

from neutromap import core, graphs
from neutromap.core import I, MINUS_ONE, ONE, ZERO, NeutroMatrix, _SIGN_LABELS
from neutromap.engines import ConceptModel, balance
from neutromap.graphs import Graph, coloring, generate
from neutromap.ngraph import NeutroGraph, _TAGS, _signatures, neutro_isomorphic


# --- the recursive reference routines -----------------------------------


def recursive_balance(model):
    n = model.size
    out = [
        [(j, _SIGN_LABELS[w]) for j, w in enumerate(row) if j != i and w]
        for i, row in enumerate(model.weights)
    ]

    witness = None
    plus, minus, indet = _SIGN_LABELS[ONE], _SIGN_LABELS[MINUS_ONE], _SIGN_LABELS[I]

    def compose(s, t):
        if s == indet or t == indet:
            return indet
        return plus if s == t else minus

    for u in range(n):
        found = {}  # v -> {sign: path}

        def walk(v, path, sign):
            nonlocal witness
            if witness is not None:
                return
            signs = found.setdefault(v, {})
            if sign not in signs:
                for other_sign, other_path in signs.items():
                    witness = (
                        (u, v), (other_path, other_sign), (tuple(path), sign)
                    )
                    return
                signs[sign] = tuple(path)
            for w, es in out[v]:
                if w == u or w in path:
                    continue
                path.append(w)
                walk(w, path, compose(sign, es))
                path.pop()

        for w, es in out[u]:
            if witness is None:
                walk(w, [u, w], es)
        if witness is not None:
            return False, witness
    return True, None


def recursive_min_coloring(adj, order, lower):
    size = len(order)
    colors = [None] * size
    k = lower

    def assign(i):
        if i == size:
            return True
        x = order[i]
        used = {colors[w] for w in adj[x] if colors[w] is not None}
        top = min(k - 1, max((c for c in colors if c is not None), default=-1) + 1)
        for c in range(top + 1):
            if c not in used:
                colors[x] = c
                if assign(i + 1):
                    return True
                colors[x] = None
        return False

    while not assign(0):
        k += 1
    return k, colors


def recursive_neutro_isomorphic(G1, G2):
    if (
        G1.n_real != G2.n_real
        or G1.n_indet != G2.n_indet
        or G1.directed != G2.directed
        or G1.m != G2.m
    ):
        return False, None
    sig1, count1 = _signatures(G1)
    sig2, count2 = _signatures(G2)
    if sorted(sig1) != sorted(sig2):
        return False, None
    n = G1.vertex_count
    phi = {}

    def agrees(v, a):
        return all(
            count1[v, x, t] == count2[a, phi[x], t]
            and count1[x, v, t] == count2[phi[x], a, t]
            for x in phi
            for t in _TAGS
        )

    def extend(v):
        if v == n:
            return True
        taken = set(phi.values())
        for a in range(n):
            if a not in taken and sig2[a] == sig1[v]:
                phi[v] = a
                if agrees(v, a) and extend(v + 1):
                    return True
                del phi[v]
        return False

    return (True, phi) if extend(0) else (False, None)


# --- seeded random inputs ------------------------------------------------


def random_concept_model(rng, n):
    density = rng.choice((0.2, 0.35, 0.5))
    weights = [
        [rng.choice((ONE, MINUS_ONE, I)) if i != j and rng.random() < density else ZERO
         for j in range(n)]
        for i in range(n)
    ]
    return ConceptModel(["C%d" % (i + 1) for i in range(n)], NeutroMatrix(weights))


def random_neutro_pair(rng):
    """Two tagged graphs of one kind, loops and parallel edges allowed on
    some: the second is the first relabelled, relabelled with one tag
    flipped, or an unrelated graph."""
    n_real, n_indet = rng.randint(0, 5), rng.randint(0, 3)
    n, directed, multi = n_real + n_indet, rng.random() < 0.5, rng.random() < 0.5

    def tagged():
        edges = []
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if not directed:
                u, v = min(u, v), max(u, v)
            if multi or (u != v and all(e[:2] != (u, v) for e in edges)):
                edges.append((u, v, rng.choice(_TAGS)))
        return edges

    edges = tagged()
    kind = rng.choice(("twin", "flip", "fresh"))
    if kind == "fresh":
        other = tagged()[:len(edges)]
    else:
        reals, indets = list(range(n_real)), list(range(n_real, n))
        rng.shuffle(reals)
        rng.shuffle(indets)
        phi = reals + indets
        other = [(phi[u], phi[v], t) for u, v, t in edges]
        if kind == "flip" and other:
            u, v, t = other.pop(rng.randrange(len(other)))
            other.append((u, v, "R" if t == "I" else "I"))
    return tuple(NeutroGraph(n_real, n_indet, e, directed, True, True) for e in (edges, other))


def stack_depth():
    """Frames on the caller's stack, the caller's own included."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def shallow(search, *args):
    """search(*args) with 50 frames to spare above the caller, and its seconds."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 50)
    try:
        t0 = time.perf_counter()
        result = search(*args)
        return result, time.perf_counter() - t0
    finally:
        sys.setrecursionlimit(limit)


# --- the stack searches answer as the recursive ones did -----------------


def test_balance_matches_the_recursive_reference():
    rng = random.Random(7)
    models = [random_concept_model(rng, rng.randint(1, 9)) for _ in range(400)]
    results = [balance(m) for m in models]
    assert results == [recursive_balance(m) for m in models]
    assert {flag for flag, _ in results} == {True, False}


def test_coloring_matches_the_recursive_reference(monkeypatch):
    rng = random.Random(11)
    cases = [generate("petersen"), generate("complete", 5), generate("wheel", 8)]
    for n in (9, 10, 11, 12) * 12:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        cases.append(Graph(n, rng.sample(pairs, 20)))
    got = [coloring(G) for G in cases]
    monkeypatch.setattr(graphs, "_min_coloring", recursive_min_coloring)
    want = [coloring(G) for G in cases]
    assert got == want
    assert {r.chromatic_number for r in got} >= {3, 4}


def test_neutro_isomorphic_matches_the_recursive_reference():
    rng = random.Random(13)
    pairs = [random_neutro_pair(rng) for _ in range(620)]
    results = [neutro_isomorphic(G1, G2) for G1, G2 in pairs]
    want = [recursive_neutro_isomorphic(G1, G2) for G1, G2 in pairs]
    assert [(flag, phi and list(phi.items())) for flag, phi in results] == [
        (flag, phi and list(phi.items())) for flag, phi in want
    ]
    assert {flag for flag, _ in results} == {True, False}


# --- deep inputs need no deep recursion ----------------------------------


def test_balance_of_a_long_path_map(monkeypatch):
    n = 200
    monkeypatch.setitem(core._GUARDS, "balance", (n, "concepts"))
    weights = [[ONE if j == i + 1 else ZERO for j in range(n)] for i in range(n)]
    model = ConceptModel(["C%d" % (i + 1) for i in range(n)], NeutroMatrix(weights))
    result, seconds = shallow(balance, model)
    assert result == (True, None)
    assert seconds < 1.0


def test_coloring_of_a_long_odd_cycle(monkeypatch):
    monkeypatch.setitem(core._GUARDS, "vertex coloring", (101, "vertices"))
    monkeypatch.setitem(core._GUARDS, "edge coloring", (101, "edges"))
    report, seconds = shallow(coloring, generate("cycle", 101))
    assert (report.chromatic_number, report.edge_chromatic_number) == (3, 3)
    assert report.vertex_colors == (0, 1) * 50 + (2,)
    assert seconds < 1.0


def test_isomorphism_of_long_paths_numbered_both_ways(monkeypatch):
    n = 60
    monkeypatch.setitem(core._GUARDS, "isomorphism", (n, "vertices"))
    forward = NeutroGraph(n, 0, [(i, i + 1, "R") for i in range(n - 1)], directed=True)
    backward = NeutroGraph(n, 0, [(n - 1 - i, n - 2 - i, "R") for i in range(n - 1)],
                           directed=True)
    result, seconds = shallow(neutro_isomorphic, forward, backward)
    assert result == (True, {v: n - 1 - v for v in range(n)})
    assert seconds < 1.0
