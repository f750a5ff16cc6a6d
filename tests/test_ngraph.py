"""Unit tests for neutrosophic graphs."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutromap.core import NeutroMatrix, NeutroNumber, SizeLimitError
from neutromap.graphs import Graph
from neutromap.ngraph import (
    NeutroGraph,
    adjacency,
    classify,
    classify_walk,
    from_adjacency,
    is_oriented,
    neutro_coloring,
    neutro_components,
    neutro_degree_report,
    neutro_eulerian,
    neutro_isomorphic,
    neutro_petersen,
    neutro_tree,
    strip_indeterminates,
    _signatures,
)

import goldens
import oracles


def fig_3_2_8():
    edges = [(u, v, "R") for u, v in goldens.FIG_3_2_8_REAL_EDGES]
    edges += [(u, v, "I") for u, v in goldens.FIG_3_2_8_INDET_EDGES]
    return NeutroGraph(5, 0, edges)


def walk_graph():
    # v1 v2 v3 are 0 1 2; N1 N2 are 3 4; v1-v2 is the dotted edge
    return NeutroGraph(
        3, 2,
        [(0, 1, "I"), (1, 2, "R"), (1, 3, "R"), (1, 4, "R"), (3, 4, "R")],
    )


class TestNeutroGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            NeutroGraph(1, 1, [(0, 1, "X")])
        with pytest.raises(ValueError):
            NeutroGraph(1, 1, [(0, 2, "R")])
        assert NeutroGraph(0, 0).edges == ()  # all-indeterminate collapse target

    def test_labels(self):
        G = walk_graph()
        assert [G.label(v) for v in range(5)] == ["v1", "v2", "v3", "N1", "N2"]

    def test_classify(self):
        assert classify(NeutroGraph(3, 0, [(0, 1, "R")])) == "plain"
        assert classify(NeutroGraph(2, 1, [(0, 1, "R")])) == "vertex-neutrosophic"
        assert classify(fig_3_2_8()) == "edge-neutrosophic"
        assert classify(walk_graph()) == "strong"

    def test_underlying(self):
        assert walk_graph().underlying() == Graph(
            5, [(0, 1), (1, 2), (1, 3), (1, 4), (3, 4)]
        )


class TestAdjacency:
    def test_round_trip(self):
        G = fig_3_2_8()
        assert from_adjacency(adjacency(G)) == G

    def test_indet_vertex_count_must_be_kept(self):
        G = walk_graph()
        assert from_adjacency(adjacency(G), indet_vertices=2) == G

    def test_asymmetric_undirected_rejected(self):
        M = NeutroMatrix(
            [[NeutroNumber(0), NeutroNumber(1)], [NeutroNumber(0), NeutroNumber(0)]]
        )
        with pytest.raises(ValueError):
            from_adjacency(M)
        assert from_adjacency(M, directed=True).directed

    def test_entries_restricted(self):
        M = NeutroMatrix([[NeutroNumber(2)]])
        with pytest.raises(ValueError):
            from_adjacency(M)
        with pytest.raises(ValueError) as exc:
            from_adjacency(NeutroMatrix([[0, 1], ["-I", 0]]), directed=True)
        assert str(exc.value) == "adjacency entries must be 0, 1 or I; found -I at (2, 1)"

    def test_directed_diagonal_refused(self):
        # the neutro-graph model format has no way to carry a loop
        M = NeutroMatrix([[1, 1], [0, 0]])
        with pytest.raises(ValueError, match="^directed adjacency needs a zero diagonal$"):
            from_adjacency(M, directed=True)
        with pytest.raises(ValueError, match="^undirected adjacency needs a zero diagonal$"):
            from_adjacency(NeutroMatrix([[1, 0], [0, 0]]))


class TestStrip:
    def test_drops_indet_vertices_and_their_edges(self):
        G = strip_indeterminates(walk_graph())
        assert (G.n_real, G.n_indet) == (3, 0)
        assert G.edges == ((0, 1, "I"), (1, 2, "R"))

    def test_plain_result_on_edge_neutro_strip(self):
        # stripping only removes vertices; dotted edges between real
        # vertices survive
        G = strip_indeterminates(fig_3_2_8())
        assert G == fig_3_2_8()


class TestDegreeReport:
    def test_no_indet_vertices(self):
        r = neutro_degree_report(fig_3_2_8())
        assert r.degrees == () and r.min_degree is None and r.max_degree is None

    def test_isolated_and_pendent(self):
        G = NeutroGraph(2, 2, [(0, 1, "R"), (0, 2, "R")])
        r = neutro_degree_report(G)
        assert r.isolated == (3,) and r.pendent == (2,)

    def test_regular_but_not_strongly(self):
        G = NeutroGraph(
            3, 2,
            [(0, 1, "R"), (1, 3, "R"), (3, 4, "R"), (1, 4, "R"), (0, 2, "R")],
        )
        r = neutro_degree_report(G)
        assert r.k_neutro_regular == 2
        assert r.strongly_regular is False

    def test_strongly_regular(self):
        G = NeutroGraph(2, 2, [(0, 1, "R"), (0, 2, "R"), (1, 3, "R"), (2, 3, "R")])
        r = neutro_degree_report(G)
        assert r.k_neutro_regular == 2 and r.strongly_regular is True


class TestClassifyWalk:
    def test_repeated_edge_walk(self):
        kind, neutro, closed = classify_walk(walk_graph(), [0, 1, 3, 1, 2])
        assert (kind, neutro, closed) == ("walk", True, False)

    def test_neutrosophic_path(self):
        assert classify_walk(walk_graph(), [0, 1, 3, 4]) == ("path", True, False)

    def test_cycle_without_dotted_edge_is_not_neutrosophic(self):
        assert classify_walk(walk_graph(), [1, 4, 3, 1]) == ("cycle", False, True)

    def test_trail(self):
        # revisits v2 but repeats no edge
        G = walk_graph()
        assert classify_walk(G, [0, 1, 3, 4, 1, 2]) == ("trail", True, False)

    def test_invalid(self):
        assert classify_walk(walk_graph(), [0, 2]) == ("invalid", False, False)
        assert classify_walk(walk_graph(), [0, 9]) == ("invalid", False, False)
        assert classify_walk(walk_graph(), []) == ("invalid", False, False)

    def test_two_vertex_closed_seq_is_not_a_cycle(self):
        assert classify_walk(walk_graph(), [0, 1, 0])[0] != "cycle"

    def test_vertex_neutro_graph_uses_vertex_clause(self):
        G = NeutroGraph(2, 1, [(0, 1, "R"), (1, 2, "R")])
        assert classify_walk(G, [0, 1, 2]) == ("path", True, False)
        assert classify_walk(G, [0, 1]) == ("path", False, False)

    def test_edge_neutro_graph_uses_edge_clause(self):
        G = NeutroGraph(3, 0, [(0, 1, "I"), (1, 2, "R")])
        assert classify_walk(G, [0, 1, 2]) == ("path", True, False)
        assert classify_walk(G, [1, 2]) == ("path", False, False)

    def test_plain_graph_never_neutrosophic(self):
        G = NeutroGraph(3, 0, [(0, 1, "R"), (1, 2, "R")])
        assert classify_walk(G, [0, 1, 2]) == ("path", False, False)

    def test_multigraph_is_ambiguous(self):
        G = NeutroGraph(2, 0, [(0, 1, "R"), (0, 1, "I")], allow_multi=True)
        with pytest.raises(ValueError):
            classify_walk(G, [0, 1])


class TestComponents:
    def test_two_neutro_components_disconnect(self):
        G = NeutroGraph(4, 2, [(0, 4, "I"), (1, 5, "R"), (2, 3, "R")])
        comps, neutro, flag = neutro_components(G)
        assert comps == ((0, 4), (1, 5), (2, 3))
        assert neutro == ((0, 4), (1, 5)) and flag is True

    def test_one_neutro_component_does_not(self):
        G = NeutroGraph(3, 1, [(0, 3, "I"), (1, 2, "R")])
        comps, neutro, flag = neutro_components(G)
        assert len(comps) == 2 and len(neutro) == 1 and flag is False

    def test_matches_the_rescan_oracle(self):
        rng = random.Random(47)
        flags = set()
        for _ in range(300):
            n = rng.randint(1, 10)
            n_indet = rng.randint(0, n)
            directed = rng.random() < 0.3
            edges = [(u, v, rng.choice("RI")) for u, v in oracles.random_multigraph(rng, n, True)]
            G = NeutroGraph(n - n_indet, n_indet, edges, directed, True, True)
            result = neutro_components(G)
            assert result == oracles.rescan_neutro_components(G)
            flags.add((len(result[0]) > 1, result[2]))
        assert flags == {(False, False), (True, False), (True, True)}


class TestTree:
    def test_path_through_indet_vertices(self):
        T = NeutroGraph(2, 2, [(0, 2, "R"), (2, 3, "I"), (3, 1, "R")])
        r = neutro_tree(T)
        assert r.is_neutro_tree
        assert r.eccentricities == (1, 1)
        assert (r.radius, r.neutro_diameter) == (1, 1)
        assert r.neutro_center == (2, 3)

    def test_cycle_is_not_a_tree(self):
        G = NeutroGraph(2, 1, [(0, 1, "R"), (1, 2, "I"), (0, 2, "R")])
        assert neutro_tree(G).is_neutro_tree is False

    def test_plain_tree_is_not_a_neutro_tree(self):
        G = NeutroGraph(3, 0, [(0, 1, "R"), (1, 2, "R")])
        r = neutro_tree(G)
        assert r.is_neutro_tree is False
        assert r.eccentricities is None

    def test_dense_graph_needs_no_cycle_search(self):
        # K11 with one indeterminate vertex: only distances are needed
        G = NeutroGraph(10, 1, [(u, v, "R") for u in range(11) for v in range(u + 1, 11)])
        start = time.perf_counter()
        r = neutro_tree(G)
        assert time.perf_counter() - start < 1.0
        assert (r.is_neutro_tree, r.eccentricities, r.neutro_center) == (False, (0,), (10,))

    def test_disconnected_is_not_a_tree(self):
        G = NeutroGraph(2, 2, [(0, 2, "I")])
        assert neutro_tree(G).is_neutro_tree is False


class TestEulerian:
    def test_neutro_eulerian_strong_triangle(self):
        G = NeutroGraph(2, 1, [(0, 1, "I"), (1, 2, "R"), (0, 2, "R")])
        assert neutro_eulerian(G) == (True, True)

    def test_edge_neutro_is_not_strongly_eulerian(self):
        G = NeutroGraph(3, 0, [(0, 1, "I"), (1, 2, "R"), (0, 2, "R")])
        assert neutro_eulerian(G) == (True, False)

    def test_plain_graph_is_excluded(self):
        G = NeutroGraph(3, 0, [(0, 1, "R"), (1, 2, "R"), (0, 2, "R")])
        assert neutro_eulerian(G) == (False, False)

    def test_odd_degree_fails(self):
        G = NeutroGraph(2, 1, [(0, 1, "I"), (1, 2, "R")])
        assert neutro_eulerian(G)[0] is False


class TestColoring:
    def test_fig_3_2_8(self):
        G = fig_3_2_8()
        r = neutro_coloring(G)
        assert r.chromatic_number == 3
        assert r.edge_chromatic_number == 3
        real = {(u, v) for u, v, t in G.edges if t == "R"}
        for u, v in real:
            assert r.vertex_colors[u] != r.vertex_colors[v]
        by_edge = dict(zip(G.edges, r.edge_colors))
        for u, v, t in G.edges:
            if t != "R":
                assert by_edge[(u, v, t)] == 0

    def test_dotted_edges_do_not_constrain(self):
        # triangle whose edges are all dotted: every vertex may share color 0
        G = NeutroGraph(3, 0, [(0, 1, "I"), (1, 2, "I"), (0, 2, "I")])
        r = neutro_coloring(G)
        assert r.chromatic_number == 1
        assert r.edge_chromatic_number == 0

    def test_indet_vertices_do_not_constrain(self):
        G = NeutroGraph(2, 1, [(0, 1, "R"), (0, 2, "R"), (1, 2, "R")])
        r = neutro_coloring(G)
        assert r.chromatic_number == 2
        assert r.vertex_colors[2] == 0

    def test_loops_refused(self):
        G = NeutroGraph(2, 0, [(0, 0, "R"), (0, 1, "R")], allow_loops=True)
        with pytest.raises(ValueError):
            neutro_coloring(G)

    def test_arc_and_reverse_share_a_color(self):
        G = NeutroGraph(3, 0, [(0, 1, "R"), (1, 0, "R"), (1, 2, "R")], directed=True)
        r = neutro_coloring(G)
        assert r.chromatic_number == 2
        assert r.edge_chromatic_number == 2
        colors = dict(zip(G.edges, r.edge_colors))
        assert colors[(0, 1, "R")] == colors[(1, 0, "R")] != colors[(1, 2, "R")]

    def test_arcs_against_the_vertex_order(self):
        G = NeutroGraph(3, 0, [(1, 0, "R"), (2, 1, "R"), (0, 2, "I")], directed=True)
        r = neutro_coloring(G)
        assert (r.chromatic_number, r.edge_chromatic_number) == (2, 2)
        assert G.edges[0] == (0, 2, "I") and r.edge_colors[0] == 0
        assert r.edge_colors[1] != r.edge_colors[2]


class TestOppositeArcs:
    # a directed graph holding both 0 -> 1 and 1 -> 0, plus an arc to N1
    G = NeutroGraph(2, 1, [(0, 1, "R"), (1, 0, "I"), (1, 2, "R")], directed=True)

    def test_underlying_keeps_both_as_parallel_edges(self):
        assert self.G.underlying().edges == ((0, 1), (0, 1), (1, 2))

    def test_degree_report(self):
        r = neutro_degree_report(self.G)
        assert r.degrees == (1,) and r.pendent == (2,)

    def test_components(self):
        comps, neutro, disconnected = neutro_components(self.G)
        assert comps == ((0, 1, 2),) and neutro == comps and not disconnected

    def test_tree(self):
        # the two arcs close a cycle of length 2 in the underlying multigraph
        r = neutro_tree(self.G)
        assert r.is_neutro_tree is False and r.eccentricities == (0,)

    def test_eulerian(self):
        assert neutro_eulerian(self.G) == (False, False)
        ring = NeutroGraph(1, 1, [(0, 1, "R"), (1, 0, "I")], directed=True)
        assert neutro_eulerian(ring) == (True, True)


class TestPetersen:
    def test_edge_order_matches_canonical_listing(self):
        # k = 15 marks every edge; the order is spokes, outer cycle, chords
        G = neutro_petersen("edge", 15)
        assert [t for _u, _v, t in G.edges] == ["I"] * 15

    def test_vertex_variant(self):
        G = neutro_petersen("vertex", 2)
        assert (G.n_real, G.n_indet) == (8, 2)
        assert classify(G) == "vertex-neutrosophic"
        assert all(t == "R" for _u, _v, t in G.edges)
        assert G.underlying().m == 15

    def test_edge_variant_counts(self):
        G = neutro_petersen("edge", 3)
        assert (G.n_real, G.n_indet) == (10, 0)
        assert sum(1 for _u, _v, t in G.edges if t == "I") == 3
        assert classify(G) == "edge-neutrosophic"

    def test_edge_variant_marks_spokes_first(self):
        # the first five edges in canonical order are the spokes
        G = neutro_petersen("edge", 5)
        dotted = {(u, v) for u, v, t in G.edges if t == "I"}
        assert dotted == {(i, 5 + i) for i in range(5)}

    def test_strong_variant(self):
        G = neutro_petersen("strong", 1, 2)
        assert (G.n_real, G.n_indet) == (9, 1)
        assert sum(1 for _u, _v, t in G.edges if t == "I") == 2
        assert classify(G) == "strong"

    def test_parameter_count_is_named(self):
        with pytest.raises(ValueError, match="^vertex variant takes exactly one k$"):
            neutro_petersen("vertex", 1, 2)
        with pytest.raises(ValueError, match="^strong variant takes j and k$"):
            neutro_petersen("strong", 1)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            neutro_petersen("vertex", 0)
        with pytest.raises(ValueError):
            neutro_petersen("vertex", 11)
        with pytest.raises(ValueError):
            neutro_petersen("edge", 16)
        with pytest.raises(ValueError):
            neutro_petersen("pentagon", 1)


class TestIsoOriented:
    def test_isomorphic_pair(self):
        H1 = NeutroGraph(2, 1, [(0, 2, "I"), (0, 1, "R")])
        H2 = NeutroGraph(2, 1, [(1, 2, "I"), (0, 1, "R")])
        flag, mapping = neutro_isomorphic(H1, H2)
        assert flag and mapping[2] == 2

    def test_tags_matter(self):
        H1 = NeutroGraph(2, 0, [(0, 1, "I")])
        H2 = NeutroGraph(2, 0, [(0, 1, "R")])
        assert neutro_isomorphic(H1, H2) == (False, None)

    def test_real_indet_vertices_not_interchangeable(self):
        H1 = NeutroGraph(2, 1, [(0, 1, "R")])
        H2 = NeutroGraph(1, 2, [(0, 1, "R")])
        assert neutro_isomorphic(H1, H2)[0] is False

    def test_guard(self):
        big = NeutroGraph(10, 1, [(i, i + 1, "R") for i in range(10)])
        with pytest.raises(SizeLimitError, match="^isomorphism guard: 11 vertices exceeds 10$"):
            neutro_isomorphic(big, big)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        n_real, n_indet = rng.randint(0, 5), rng.randint(0, 3)
        directed = data.draw(st.booleans())
        multi = data.draw(st.booleans())
        G1 = random_neutro_graph(rng, n_real, n_indet, directed, multi)
        twist = data.draw(st.sampled_from(["twin", "flip", "fresh"]))
        if twist == "fresh":
            G2 = random_neutro_graph(rng, n_real, n_indet, directed, multi)
            G2 = NeutroGraph(n_real, n_indet, G2.edges[: G1.m], directed, multi, multi)
        else:
            G2 = relabelled(rng, G1, flip=twist == "flip")
        got = neutro_isomorphic(G1, G2)
        assert got == oracles.brute_force_neutro_isomorphic(G1, G2)
        flag, phi = got
        if flag:
            assert sorted(phi) == sorted(phi.values()) == list(range(G1.vertex_count))
            assert all(phi[v] < n_real for v in range(n_real))
            mapped = []
            for u, v, t in G1.edges:
                a, b = phi[u], phi[v]
                mapped.append((min(a, b), max(a, b), t) if not directed else (a, b, t))
            assert sorted(mapped) == list(G2.edges)

    def test_in_and_out_degrees_are_told_apart(self):
        # a directed 3-path and an out-star share tag degrees when in and
        # out are added together
        path = NeutroGraph(3, 0, [(0, 1, "R"), (1, 2, "R")], directed=True)
        star = NeutroGraph(3, 0, [(1, 0, "R"), (1, 2, "R")], directed=True)
        assert sorted(_signatures(path)[0]) != sorted(_signatures(star)[0])
        assert neutro_isomorphic(path, star) == (False, None)

    def test_arcs_to_mapped_vertices_are_checked_both_ways(self):
        # same in and out degrees: a directed path against a 2-cycle plus an arc
        path = NeutroGraph(4, 0, [(0, 3, "R"), (3, 1, "R"), (1, 2, "R")], directed=True)
        other = NeutroGraph(4, 0, [(1, 2, "R"), (2, 1, "R"), (3, 0, "R")], directed=True)
        assert neutro_isomorphic(path, other) == (False, None)

    def test_oriented(self):
        sym = NeutroGraph(1, 2, [(1, 2, "I"), (2, 1, "I")], directed=True)
        assert is_oriented(sym) is False
        ok = NeutroGraph(1, 2, [(1, 2, "I"), (2, 0, "R")], directed=True)
        assert is_oriented(ok) is True
        with pytest.raises(ValueError):
            is_oriented(walk_graph())


def random_neutro_graph(rng, n_real, n_indet, directed, multi):
    """Random tagged graph; `multi` allows both parallel edges and loops."""
    n = n_real + n_indet
    edges = []
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v and not multi:
            continue
        if not directed:
            u, v = min(u, v), max(u, v)
        if not multi and any((a, b) == (u, v) for a, b, _t in edges):
            continue
        edges.append((u, v, rng.choice("RI")))
    return NeutroGraph(n_real, n_indet, edges, directed, multi, multi)


def relabelled(rng, G, flip):
    """G under a random kind-preserving relabelling, one tag flipped on request."""
    reals = list(range(G.n_real))
    indets = list(range(G.n_real, G.vertex_count))
    rng.shuffle(reals)
    rng.shuffle(indets)
    phi = reals + indets
    edges = [(phi[u], phi[v], t) for u, v, t in G.edges]
    if flip and edges:
        k = rng.randrange(len(edges))
        u, v, t = edges[k]
        edges[k] = (u, v, "R" if t == "I" else "I")
    return NeutroGraph(G.n_real, G.n_indet, edges, G.directed, True, True)
