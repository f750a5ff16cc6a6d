"""Unit tests for the classical graph layer."""

import random

import pytest

from neutromap.core import SizeLimitError
from neutromap.graphs import (
    Graph,
    Polynomial,
    chromatic_polynomial,
    coloring,
    combine,
    complement,
    connectivity,
    degree_report,
    edit,
    eulerian,
    generate,
    hamiltonian,
    is_bipartite,
    line_graph,
    metrics,
    spanning_tree_count,
    tutte,
)
from neutromap.core import NotFoundError

import goldens
import oracles


def diamond():
    return Graph(goldens.FIG_2_2_3_N, goldens.FIG_2_2_3_EDGES)


class TestGraph:
    def test_edges_are_canonicalized(self):
        G = Graph(3, [(2, 0), (1, 0)])
        assert G.edges == ((0, 1), (0, 2))

    def test_validation(self):
        assert Graph(0).edges == ()  # vertexless graphs are legal
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])  # loop without allow_loops
        with pytest.raises(ValueError):
            Graph(2, [(0, 1), (0, 1)])  # parallel without allow_multi
        assert Graph(2, [(0, 0)], allow_loops=True).m == 1
        assert Graph(2, [(0, 1)] * 2, allow_multi=True).m == 2

    def test_loops_count_twice_in_degree(self):
        G = Graph(2, [(0, 0), (0, 1)], allow_loops=True)
        assert degree_report(G).degrees == (3, 1)


class TestGenerate:
    def test_families(self):
        assert generate("complete", 5).m == 10
        assert generate("complete-bipartite", 2, 3).m == 6
        assert generate("cycle", 5).m == 5
        assert generate("path", 4).m == 3
        assert generate("star", 3).m == 3
        with pytest.raises(ValueError):
            generate("cycle", 2)
        with pytest.raises(ValueError):
            generate("moebius", 5)

    def test_wheel_is_hub_plus_rim(self):
        W = generate("wheel", 5)
        assert W.vertex_count == 6
        d = degree_report(W)
        assert d.degrees[0] == 5
        assert set(d.degrees[1:]) == {3}

    def test_petersen_shape(self):
        P = generate("petersen")
        assert (P.vertex_count, P.m) == (10, 15)
        assert set(degree_report(P).degrees) == {3}
        assert metrics(P).girth == 5


class TestDegreesAndConnectivity:
    def test_diamond_degrees(self):
        assert degree_report(diamond()).sequence == (3, 3, 2, 2)

    def test_cut_vertices_and_edges(self):
        # two triangles sharing vertex 2 via a bridge 2-3
        G = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        r = connectivity(G)
        assert r.is_connected
        assert tuple(sorted(r.cut_vertices)) == (2, 3)
        assert tuple(sorted(r.cut_edges)) == ((2, 3),)

    def test_components(self):
        G = Graph(5, [(0, 1), (2, 3)])
        r = connectivity(G)
        assert len(r.components) == 3
        assert not r.is_connected

    def test_cycle_has_no_cuts(self):
        r = connectivity(generate("cycle", 5))
        assert not r.cut_vertices and not r.cut_edges

    def test_matches_networkx_on_multigraphs(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(1, 9)
            edges = [
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(0, 2 * n))
            ]
            G = Graph(n, edges, allow_multi=True, allow_loops=True)
            H = nx.MultiGraph()
            H.add_nodes_from(range(n))  # keeps the isolated vertices
            H.add_edges_from(edges)
            r = connectivity(G)
            assert r.cut_vertices == set(nx.articulation_points(H))
            assert r.cut_edges == {
                (min(u, v), max(u, v)) for u, v in nx.bridges(H)
            }
            assert len(r.components) == nx.number_connected_components(H)

    def test_long_path_is_all_cuts(self):
        n = 3000
        r = connectivity(generate("path", n))
        assert r.cut_vertices == set(range(1, n - 1))
        assert r.cut_edges == {(i, i + 1) for i in range(n - 1)}

    def test_parallel_edges_and_loops_are_never_bridges(self):
        G = Graph(
            4, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 3)],
            allow_multi=True, allow_loops=True,
        )
        r = connectivity(G)
        assert r.cut_edges == {(1, 2), (2, 3)}
        assert r.cut_vertices == {1, 2}


class TestMetrics:
    def test_diamond_goldens(self):
        r = metrics(diamond())
        assert r.girth == goldens.FIG_2_2_3_GIRTH
        assert r.circumference == goldens.FIG_2_2_3_CIRCUMFERENCE
        assert r.diameter == goldens.FIG_2_2_3_DIAMETER

    def test_loop_and_parallel_girths(self):
        assert metrics(Graph(2, [(0, 0)], allow_loops=True)).girth == 1
        assert metrics(Graph(2, [(0, 1)] * 2, allow_multi=True)).girth == 2

    def test_forest_has_no_cycles(self):
        r = metrics(generate("path", 4))
        assert r.girth is None and r.circumference is None
        assert r.diameter == 3

    def test_disconnected_diameter_is_none(self):
        assert metrics(Graph(4, [(0, 1)])).diameter is None

    def test_distances(self):
        r = metrics(generate("cycle", 4))
        assert r.distances[0] == (0, 1, 2, 1)


class TestBipartite:
    def test_even_cycle(self):
        flag, (a, b) = is_bipartite(generate("cycle", 4))
        assert flag and set(a) | set(b) == {0, 1, 2, 3}

    def test_odd_cycle_witness(self):
        flag, cyc = is_bipartite(generate("cycle", 5))
        assert not flag
        assert len(cyc) % 2 == 1
        E = set(generate("cycle", 5).edges)
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            assert (min(u, v), max(u, v)) in E
        assert len(set(cyc)) == len(cyc)

    def test_loop_is_an_odd_cycle(self):
        flag, cyc = is_bipartite(Graph(2, [(0, 0), (0, 1)], allow_loops=True))
        assert not flag and tuple(cyc) == (0,)


class TestCombineEditLine:
    def test_union_and_sum(self):
        A = Graph(3, [(0, 1)])
        B = Graph(3, [(1, 2)])
        assert combine("union", A, B).edges == ((0, 1), (1, 2))
        assert combine("intersection", A, A).edges == ((0, 1),)
        assert combine("intersection", A, B).edges == ()  # edge-disjoint
        assert combine("sum", A, B).vertex_count == 6

    def test_join_of_singletons_is_edge(self):
        J = combine("join", Graph(1), Graph(1))
        assert (J.vertex_count, J.edges) == (2, ((0, 1),))

    def test_cartesian_square(self):
        C = combine("cartesian-product", generate("path", 2), generate("path", 2))
        assert (C.vertex_count, C.m) == (4, 4)
        assert metrics(C).girth == 4

    def test_complement(self):
        assert complement(generate("complete", 4)).m == 0
        C5 = generate("cycle", 5)
        assert oracles.plain_isomorphic(
            5, list(complement(C5).edges), 5, list(C5.edges)
        )

    def test_line_graph(self):
        K3 = generate("complete", 3)
        assert line_graph(K3).edges == K3.edges
        assert line_graph(generate("path", 4)).edges == ((0, 1), (1, 2))
        assert line_graph(generate("star", 3)).edges == generate("complete", 3).edges

    def test_edit_delete_vertices_reindexes(self):
        G = edit(generate("complete", 4), "delete-vertices", [0])
        assert G.vertex_count == 3 and G.edges == ((0, 1), (0, 2), (1, 2))

    def test_edit_delete_edges_removes_one_instance(self):
        G = Graph(2, [(0, 1)] * 2, allow_multi=True)
        assert edit(G, "delete-edges", [(0, 1)]).m == 1
        with pytest.raises(NotFoundError):
            edit(G, "delete-edges", [(0, 1)] * 3)

    def test_edit_contract_keeps_parallels_drops_loops(self):
        G = edit(generate("complete", 3), "contract-edge", (0, 1))
        assert G.vertex_count == 2 and G.edges == ((0, 1), (0, 1))
        with pytest.raises(NotFoundError):
            edit(generate("path", 3), "contract-edge", (0, 2))


class TestEulerian:
    def test_cycle_is_eulerian(self):
        flag, tour = eulerian(generate("cycle", 5))
        assert flag and len(tour) == 5
        assert tour[0][0] == tour[-1][1]

    def test_odd_degree_fails(self):
        assert eulerian(generate("path", 3))[0] is False

    def test_koenigsberg(self):
        bridges = Graph(
            4,
            [(0, 1), (0, 1), (0, 2), (0, 2), (0, 3), (1, 3), (2, 3)],
            allow_multi=True,
        )
        assert eulerian(bridges)[0] is False

    def test_isolated_vertices_are_tolerated(self):
        G = Graph(4, [(0, 1), (1, 2), (0, 2)])
        flag, tour = eulerian(G)
        assert flag and len(tour) == 3

    def test_edgeless_is_not_eulerian(self):
        assert eulerian(Graph(3))[0] is False

    def test_tour_is_a_closed_trail(self):
        G = Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        flag, tour = eulerian(G)
        assert flag
        assert sorted(tuple(sorted(s)) for s in tour) == list(G.edges)
        for a, b in zip(tour, tour[1:]):
            assert a[1] == b[0]


class TestHamiltonian:
    def test_cycle_found(self):
        closure, flag, cyc = hamiltonian(generate("cycle", 5))
        assert flag and len(cyc) == 5 and len(set(cyc)) == 5

    def test_petersen_is_not_hamiltonian(self):
        assert hamiltonian(generate("petersen"))[1] is False

    def test_star_is_not_hamiltonian(self):
        assert hamiltonian(generate("star", 3))[1] is False

    def test_closure_can_complete(self):
        # K5 minus one edge: degree sum of the missing pair is 3+3=6 >= 5
        G = edit(generate("complete", 5), "delete-edges", [(0, 1)])
        closure, flag, cyc = hamiltonian(G)
        assert closure.m == 10 and flag

    def test_big_complete_closure_shortcut(self):
        closure, flag, cyc = hamiltonian(generate("complete", 16))
        assert flag is True and cyc is None

    def test_guard(self):
        with pytest.raises(SizeLimitError):
            hamiltonian(generate("cycle", 16))

    def test_too_small(self):
        with pytest.raises(ValueError):
            hamiltonian(generate("path", 2))


class TestColoring:
    def test_small_cases(self):
        assert coloring(generate("cycle", 4)).chromatic_number == 2
        assert coloring(generate("cycle", 5)).chromatic_number == 3
        assert coloring(generate("complete", 4)).chromatic_number == 4
        assert coloring(generate("wheel", 5)).chromatic_number == 4

    def test_colorings_are_proper(self):
        G = generate("petersen")
        r = coloring(G)
        for u, v in G.edges:
            assert r.vertex_colors[u] != r.vertex_colors[v]
        by_edge = dict(zip(G.edges, r.edge_colors))
        adj = {}
        for (u, v), c in by_edge.items():
            for x in (u, v):
                assert c not in adj.setdefault(x, set())
                adj[x].add(c)
        assert max(r.vertex_colors) + 1 == r.chromatic_number
        assert max(r.edge_colors) + 1 == r.edge_chromatic_number

    def test_edge_chromatic_classes(self):
        assert coloring(generate("cycle", 6)).edge_chromatic_number == 2
        assert coloring(generate("cycle", 5)).edge_chromatic_number == 3
        assert coloring(generate("complete", 4)).edge_chromatic_number == 3

    def test_edgeless(self):
        r = coloring(Graph(3))
        assert r.chromatic_number == 1 and r.edge_chromatic_number == 0

    def test_loops_refuse_coloring(self):
        with pytest.raises(ValueError):
            coloring(Graph(2, [(0, 0)], allow_loops=True))

    def test_guards(self):
        with pytest.raises(SizeLimitError):
            coloring(generate("cycle", 15))
        with pytest.raises(SizeLimitError):
            coloring(generate("complete-bipartite", 3, 7))  # 21 edges, 10 vertices


class TestPolynomial:
    def test_str_forms(self):
        x = Polynomial.monomial(1)
        assert str(x * x - x - x - x + x + x) == "x^2 - x"
        assert str(Polynomial([0])) == "0"
        assert str(Polynomial([2, 0, 1])) == "x^2 + 2"

    def test_arithmetic_and_eval(self):
        p = Polynomial([1, 2]) * Polynomial([-1, 1])  # (2x+1)(x-1)
        assert [p(k) for k in range(4)] == [-1, 0, 5, 14]
        assert p.degree == 2

    def test_chromatic_k3(self):
        lam = Polynomial.monomial(1)
        expect = lam * (lam - Polynomial([1])) * (lam - Polynomial([2]))
        assert chromatic_polynomial(generate("complete", 3)) == expect

    def test_chromatic_c4(self):
        p = chromatic_polynomial(generate("cycle", 4))
        assert [p(k) for k in (0, 1, 2, 3)] == [0, 0, 2, 18]

    def test_disconnected_is_a_product(self):
        two_edges = Graph(4, [(0, 1), (2, 3)])
        p = chromatic_polynomial(two_edges)
        q = chromatic_polynomial(Graph(2, [(0, 1)]))
        assert p == q * q

    def test_matches_brute_counts(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 5)
            edges = oracles.random_simple_graph(rng, n)
            p = chromatic_polynomial(Graph(n, edges))
            for k in range(4):
                assert p(k) == oracles.count_proper_colorings(n, edges, k)


class TestSpanningTrees:
    def test_known_counts(self):
        assert spanning_tree_count(generate("complete", 4)) == 16
        assert spanning_tree_count(generate("cycle", 5)) == 5
        assert spanning_tree_count(generate("path", 5)) == 1
        assert spanning_tree_count(Graph(4, [(0, 1), (2, 3)])) == 0

    def test_parallel_edges_multiply(self):
        G = Graph(2, [(0, 1)] * 3, allow_multi=True)
        assert spanning_tree_count(G) == 3

    def test_matches_matrix_tree(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(2, 6)
            edges = oracles.random_simple_graph(rng, n)
            assert spanning_tree_count(Graph(n, edges)) == oracles.matrix_tree_count(
                n, edges
            )

    def test_matches_deletion_contraction(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(0, 7)
            edges = oracles.random_simple_graph(rng, n)
            assert spanning_tree_count(
                Graph(n, edges)
            ) == oracles.deletion_contraction_tree_count(n, edges)

    def test_multigraph_with_loops(self):
        # loops never lie on a spanning tree; parallel edges each count
        edges = [(0, 0), (0, 1), (0, 1), (1, 2), (1, 2), (1, 2), (0, 2), (2, 2)]
        G = Graph(3, edges, allow_multi=True, allow_loops=True)
        assert spanning_tree_count(G) == 2 * 3 + 2 * 1 + 3 * 1
        assert spanning_tree_count(G) == oracles.deletion_contraction_tree_count(3, edges)
        assert spanning_tree_count(G) == oracles.matrix_tree_count(3, edges)

    def test_torus_c6_by_c4(self):
        G = combine("cartesian-product", generate("cycle", 6), generate("cycle", 4))
        assert spanning_tree_count(G) == 428_652_000_000


class TestTutte:
    def test_k2(self):
        matrix, flag = tutte(generate("complete", 2))
        assert matrix == (("0", "x12"), ("-x12", "0")) and flag

    def test_odd_order_has_no_one_factor(self):
        assert tutte(generate("complete", 3))[1] is False

    def test_star_vs_cycle(self):
        assert tutte(generate("star", 3))[1] is False
        assert tutte(generate("cycle", 4))[1] is True

    def test_skew_symmetry(self):
        matrix, _ = tutte(diamond())
        for i in range(4):
            assert matrix[i][i] == "0"
            for j in range(i + 1, 4):
                lower, upper = matrix[j][i], matrix[i][j]
                if upper == "0":
                    assert lower == "0"
                else:
                    assert lower == "-" + upper

    def test_deterministic_under_seed(self):
        G = generate("petersen")
        assert tutte(G, seed=5) == tutte(G, seed=5)
