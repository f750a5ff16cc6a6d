"""Acceptance checklist: one test per published criterion.

Each test reproduces a worked example or a stated guarantee end to end,
against the frozen expectations in goldens.py and the independent
reimplementations in oracles.py.  conftest.py turns the outcomes into a
PASS/FAIL summary table.
"""

import itertools
import os
import random
import time

from neutromap.core import (
    NeutroMatrix,
    NeutroNumber,
    ONE,
    ZERO,
    nm_mul,
    nm_transpose,
    parse_matrix,
    split,
    unsplit,
)
from neutromap import engines, graphs, ngraph, relations
from neutromap.cli import main as cli_main
from neutromap.formats import parse_model

import goldens
import oracles

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def read(name):
    with open(fx(name), "r", encoding="utf-8") as fh:
        return fh.read()


def nm(pairs):
    return NeutroMatrix(
        [[NeutroNumber(a, b) for a, b in row] for row in pairs]
    )


def load(name):
    return parse_model(read(name)).payload


def test_c01_matrix_product_with_corrected_entry():
    A = parse_matrix(read("ex-1.2.8-A.csv"))
    B = parse_matrix(read("ex-1.2.8-B.csv"))
    assert A == nm(goldens.EX_1_2_8_A)
    assert B == nm(goldens.EX_1_2_8_B)
    AB = nm_mul(A, B)
    assert AB == nm(goldens.EX_1_2_8_AB)  # frozen hand expansion
    # entry (2,1), counting from 1: 4I by expansion, printed as -4I
    assert AB.entry(1, 0) == NeutroNumber(0, 4)
    assert AB.entry(1, 0) != NeutroNumber(*goldens.EX_1_2_8_AB_SOURCE_21)


def run_from_c1(matrix):
    weights = nm(matrix) if isinstance(matrix[0][0], tuple) else NeutroMatrix(matrix)
    names = ["C%d" % (i + 1) for i in range(weights.rows)]
    model = engines.ConceptModel(names, weights)
    return engines.cm_run(model, engines.basis_state(model.size, [0]))


def test_c02_child_labor_crisp_fixed_point():
    pattern, _ = run_from_c1(goldens.CHILD_E)
    assert pattern.kind == "fixed-point"
    assert engines.render_state(pattern.states[0]) == goldens.CHILD_E_FIXED
    assert pattern.steps_to_enter <= 3


def test_c03_child_labor_neutro_fixed_point():
    pattern, _ = run_from_c1(goldens.CHILD_NE)
    assert pattern.kind == "fixed-point"
    assert engines.render_state(pattern.states[0]) == goldens.CHILD_NE_FIXED
    assert pattern.steps_to_enter <= 3


def test_c04_second_expert_fixed_points():
    pattern, _ = run_from_c1(goldens.CHILD_E1)
    assert pattern.kind == "fixed-point"
    assert engines.render_state(pattern.states[0]) == goldens.CHILD_E1_FIXED
    pattern, _ = run_from_c1(goldens.CHILD_NE1)
    assert pattern.kind == "fixed-point"
    assert engines.render_state(pattern.states[0]) == goldens.CHILD_NE1_FIXED


def test_c05_hacking_run_and_degraded_run():
    model = engines.ConceptModel(
        ["C%d" % (i + 1) for i in range(8)], nm(goldens.HACK_NE)
    )
    s0 = engines.basis_state(8, [6])
    pattern, _ = engines.cm_run(model, s0)
    assert pattern.kind == "fixed-point"
    assert engines.render_state(pattern.states[0]) == goldens.HACK_FIXED
    assert pattern.steps_to_enter <= 5

    pattern, _ = engines.cm_run(engines.degrade(model), s0)
    degraded = engines.render_state(pattern.states[0])
    assert degraded == goldens.HACK_DEGRADED_FIXED
    # the printed claim disagrees with its own update rule; recorded, not used
    assert degraded != goldens.HACK_DEGRADED_SOURCE_CLAIM


def test_c06_linked_maps_raw_product_and_diff_report(capsys):
    raw, signed = engines.link([nm(goldens.LINK_NE1), nm(goldens.LINK_NE2)])
    assert (raw.rows, raw.cols) == (4, 5)
    assert raw == nm(goldens.LINK_RAW)  # frozen hand expansion
    assert signed == nm(goldens.LINK_SIGNED)

    # the printed matrix is diffed, never asserted against: the report is
    # the deliverable
    code = cli_main([
        "link", fx("ex-3.7.11-NE1.model"), fx("ex-3.7.11-NE2.model"),
        "--signed", "--diff", fx("ex-3.7.11-printed.csv"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "agreements: 17/20" in out
    assert out.count("diff (") == 3


def test_c07_neutro_adjacency_matches_published_matrix():
    G = load("fig-3.2.8-NA.model")
    M = ngraph.adjacency(G)
    assert M == nm(goldens.FIG_3_2_8_NA)
    assert M == nm_transpose(M)
    assert all(M.entry(i, i) == ZERO for i in range(5))


def test_c08_coloring_suite_under_five_seconds():
    start = time.monotonic()
    K4 = graphs.generate("complete", 4)
    r4 = graphs.coloring(K4)
    assert r4.chromatic_number == 4
    assert r4.edge_chromatic_number == 3
    assert graphs.coloring(graphs.generate("complete", 5)).edge_chromatic_number == 5

    P = graphs.generate("petersen")
    assert set(graphs.degree_report(P).degrees) == {3}
    assert graphs.metrics(P).girth == 5
    assert graphs.coloring(P).edge_chromatic_number == 4
    _closure, flag, cycle = graphs.hamiltonian(P)
    assert flag is False and cycle is None
    assert time.monotonic() - start < 5.0


def test_c09_chromatic_polynomial_suite():
    lam = graphs.Polynomial.monomial(1)
    one = graphs.Polynomial([1])
    K3 = graphs.generate("complete", 3)
    assert graphs.chromatic_polynomial(K3) == lam * (lam - one) * (lam - one - one)

    rng = random.Random(20260822)
    for n in range(1, 9):
        for _ in range(3):
            edges = oracles.random_tree(rng, n)
            p = graphs.chromatic_polynomial(graphs.Graph(n, edges))
            expect = lam
            for _k in range(n - 1):
                expect = expect * (lam - one)
            assert p == expect

    for _ in range(200):
        n = rng.randint(1, 6)
        edges = oracles.random_simple_graph(rng, n)
        G = graphs.Graph(n, edges)
        p = graphs.chromatic_polynomial(G)
        for k in range(1, 5):
            assert p(k) == oracles.count_proper_colorings(n, edges, k)
        assert p.degree == n
        if n >= 1:
            coeff = p.coeffs[n - 1] if n - 1 < len(p.coeffs) else 0
            assert coeff == -G.m


def test_c10_fuzzy_relation_suite():
    compat = load("ex-2.8.3.model")
    report = relations.properties(compat)
    assert report.reflexive is True
    assert report.symmetric is True
    assert report.compatibility is True

    abcde = load("sec-3.7-abcde.model")
    report = relations.properties(abcde)
    assert report.reflexive is False  # diagonal holds 0, 0.3, 0.2
    assert report.symmetric is False

    rng = random.Random(10)
    xs = ["x1", "x2", "x3"]

    def rand_rel(pool):
        toks = [[rng.choice(pool) for _ in range(3)] for _ in range(3)]
        return relations.FuzzyNeutroRelation.from_tokens(
            toks, row_labels=xs, col_labels=xs
        )

    # composition laws on membership-valued relations; with indeterminate
    # entries associativity genuinely fails (see test_relations.py for the
    # counterexample), so that pool checks the inverse law only
    fuzzy = ["0", "0.2", "0.5", "0.7", "1"]
    mixed = fuzzy + ["I", "0.4I"]
    for _ in range(100):
        P, Q, R = (rand_rel(fuzzy) for _ in range(3))
        PQ = relations.maxmin_compose(P, Q)
        assert relations.inverse(PQ) == relations.maxmin_compose(
            relations.inverse(Q), relations.inverse(P)
        )
        assert relations.maxmin_compose(PQ, R) == relations.maxmin_compose(
            P, relations.maxmin_compose(Q, R)
        )
    for _ in range(100):
        P, Q = rand_rel(mixed), rand_rel(mixed)
        assert relations.inverse(relations.maxmin_compose(P, Q)) == (
            relations.maxmin_compose(relations.inverse(Q), relations.inverse(P))
        )

    labels = ["x1", "x2", "x3", "x4"]
    for pool in (["0", "1"], ["0", "0.3", "0.5", "0.7", "1"]):
        for _ in range(50):
            toks = [[rng.choice(pool) for _ in range(4)] for _ in range(4)]
            C = relations.transitive_closure(
                relations.FuzzyNeutroRelation.from_tokens(
                    toks, row_labels=labels, col_labels=labels
                )
            )
            expect = oracles.fw_closure(oracles.fzmat(toks))
            got = [
                [oracles.fz(str(C.entry(i, j))) for j in range(4)]
                for i in range(4)
            ]
            assert got == expect


def test_c11_property_based_core():
    rng = random.Random(11)

    def rand_nn():
        return NeutroNumber(
            rng.randint(-9, 9), rng.randint(-9, 9)
        )

    zero = NeutroNumber(0)
    one = NeutroNumber(1)
    for _ in range(1000):
        x, y, z = rand_nn(), rand_nn(), rand_nn()
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x + zero == x
        assert x * one == x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        # pair-arithmetic oracle agrees
        px, py = (x.real, x.indet), (y.real, y.indet)
        assert (x * y.real is not None) and (
            (x * y).real, (x * y).indet
        ) == oracles.pmul(px, py)
        assert ((x + y).real, (x + y).indet) == oracles.padd(px, py)
        # the split map is a ring isomorphism
        sx, sy = split(x), split(y)
        sxy = split(x * y)
        assert (sxy.first, sxy.second) == (sx.first * sy.first, sx.second * sy.second)
        sxy = split(x + y)
        assert (sxy.first, sxy.second) == (sx.first + sy.first, sx.second + sy.second)
        assert unsplit(sx) == x

    for _ in range(100):
        n = rng.randint(1, 8)
        edges = oracles.random_simple_graph(rng, n)
        G = graphs.Graph(n, edges)
        tau = graphs.spanning_tree_count(G)
        assert tau == oracles.matrix_tree_count(n, edges)
        assert tau == oracles.deletion_contraction_tree_count(n, edges)

    for _ in range(200):
        n = rng.randint(1, 8)
        edges = oracles.random_simple_graph(rng, n)
        G = graphs.Graph(n, edges)
        _matrix, flag = graphs.tutte(G)
        assert flag == oracles.has_perfect_matching(n, edges)


def test_c12_dynamics_sweep_over_all_fixture_models():
    names = sorted(n for n in os.listdir(FIXTURES) if n.endswith(".model"))
    models = []
    for name in names:
        mf = parse_model(read(name))
        if mf.kind == "concept-model":
            models.append((name, mf.payload))
    assert len(models) == 7

    for name, model in models:
        n = model.size
        assert n <= 8
        pair_weights = [
            [(x.real, x.indet) for x in row] for row in model.weights
        ]
        int_weights = None
        if all(
            model.weights.entry(i, j).indet == 0
            for i in range(n) for j in range(n)
        ):
            int_weights = [
                [int(model.weights.entry(i, j).real) for j in range(n)]
                for i in range(n)
            ]
        for bits in itertools.product((0, 1), repeat=n):
            s0 = tuple(ONE if b else ZERO for b in bits)
            clamp = frozenset(i for i, b in enumerate(bits) if b)
            pattern, traj = engines.cm_run(model, s0)

            # all states before the closing repeat are distinct
            assert len(set(traj[:-1])) == len(traj) - 1 <= 3**n

            # the reported pattern satisfies the update equation
            cycle = pattern.states
            for s, nxt in zip(cycle, cycle[1:] + (cycle[0],)):
                raw = oracles.pmat_mul([[(x.real, x.indet) for x in s]], pair_weights)
                stepped = tuple(
                    (1, 0) if j in clamp else oracles.pair_threshold(raw[0][j])
                    for j in range(n)
                )
                assert stepped == tuple((x.real, x.indet) for x in nxt)

            # on indeterminacy-free weights the run is exactly the crisp one
            if int_weights is not None:
                kind, states, otraj = oracles.crisp_fcm_run(
                    int_weights, list(bits), clamp
                )
                assert pattern.kind == kind
                ours = [tuple(int(str(x)) for x in s) for s in pattern.states]
                assert ours == [tuple(s) for s in states]
                walked = [tuple(int(str(x)) for x in s) for s in traj[:-1]]
                assert walked == [tuple(s) for s in otraj]
