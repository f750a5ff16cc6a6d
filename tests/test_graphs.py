"""Unit tests for the classical graph layer."""

import ast
import math
import os
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neutromap
from neutromap import core, graphs, ngraph
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
    PETERSEN_EDGES,
    _maximum_matching,
)
from neutromap.core import NotFoundError
from neutromap.ngraph import NeutroGraph

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

    def test_parameter_count_is_named(self):
        with pytest.raises(ValueError, match="^cycle takes 1 parameter, got 2$"):
            generate("cycle", 3, 4)
        with pytest.raises(ValueError, match="^complete-bipartite takes 2 parameters, got 1$"):
            generate("complete-bipartite", 2)
        with pytest.raises(ValueError, match="^petersen takes 0 parameters, got 1$"):
            generate("petersen", 3)

    def test_edge_guard_counts_the_edges_it_will_make(self, monkeypatch):
        for kind, params in (
            ("complete", (7,)), ("complete-bipartite", (3, 4)), ("cycle", (6,)),
            ("path", (5,)), ("star", (4,)), ("wheel", (5,)), ("petersen", ()),
        ):
            monkeypatch.undo()
            m = generate(kind, *params).m
            monkeypatch.setitem(core._GUARDS, "graph generator", (m, "edges"))
            assert generate(kind, *params).m == m
            monkeypatch.setitem(core._GUARDS, "graph generator", (m - 1, "edges"))
            with pytest.raises(SizeLimitError, match="generator guard: %d edges exceeds" % m):
                generate(kind, *params)

    def test_petersen_edges_list_the_generated_graph(self):
        assert Graph(10, PETERSEN_EDGES) == generate("petersen")
        assert PETERSEN_EDGES[:5] == tuple((i, 5 + i) for i in range(5))

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
        r = metrics(Graph(2, [(0, 0)], allow_loops=True))
        assert (r.girth, r.circumference) == (1, 1)
        r = metrics(Graph(2, [(0, 1)] * 2, allow_multi=True))
        assert (r.girth, r.circumference) == (2, 2)
        both = Graph(3, [(0, 0), (1, 2), (1, 2)], allow_multi=True, allow_loops=True)
        r = metrics(both)
        assert (r.girth, r.circumference) == (1, 2)
        twin_loops = Graph(1, [(0, 0), (0, 0)], allow_multi=True, allow_loops=True)
        assert metrics(twin_loops).circumference == 1
        triangle = Graph(3, [(0, 0), (0, 1), (0, 1), (0, 2), (1, 2)],
                         allow_multi=True, allow_loops=True)
        r = metrics(triangle)
        assert (r.girth, r.circumference) == (1, 3)

    def test_forest_has_no_cycles(self):
        r = metrics(generate("path", 4))
        assert r.girth is None and r.circumference is None
        assert r.diameter == 3

    def test_disconnected_diameter_is_none(self):
        assert metrics(Graph(4, [(0, 1)])).diameter is None

    def test_distance_search_guard_edge(self, monkeypatch):
        # complete-500 answers and complete-1400 trips; the table guard is checked first
        assert 500 * 124750 <= core._GUARDS["distance search"][0] < 1400 * 979300
        # Petersen: 10 x 15 edge visits and 10 x 10 entries, each one past its guard
        monkeypatch.setitem(core._GUARDS, "distance search", (149, "edge visits"))
        monkeypatch.setitem(core._GUARDS, "distance table", (99, "entries"))
        with pytest.raises(SizeLimitError, match="^distance table guard: 100 entries exceeds 99$"):
            metrics(generate("petersen"))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10), st.data())
    def test_girth_matches_networkx(self, n, data):
        nx = pytest.importorskip("networkx")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)) if pairs else []
        H = nx.Graph()
        H.add_nodes_from(range(n))
        H.add_edges_from(edges)
        girth = nx.girth(H)
        assert metrics(Graph(n, edges)).girth == (None if girth == math.inf else girth)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 40), st.data())
    def test_sparse_girth_matches_networkx(self, n, data):
        # long shortest cycles, where each BFS runs many layers before it stops
        nx = pytest.importorskip("networkx")
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        edges = oracles.random_simple_graph(rng, n, rng.choice([0.03, 0.06, 0.1]))
        H = nx.Graph()
        H.add_nodes_from(range(n))
        H.add_edges_from(edges)
        girth = nx.girth(H)
        # the circumference beside it in `metrics` is guarded at this size
        got = graphs._girth(n, Graph(n, edges).view()[1])
        assert got == (None if girth == math.inf else girth)

    def test_dense_girth_stops_at_the_first_triangle(self):
        t0 = time.perf_counter()
        assert graphs._girth(300, generate("complete", 300).view()[1]) == 3
        assert graphs._girth(60, generate("complete-bipartite", 30, 30).view()[1]) == 4
        assert time.perf_counter() - t0 < 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10), st.booleans(), st.data())
    def test_circumference_matches_backtracking(self, n, multi, data):
        if multi:
            pairs = [(u, v) for u in range(n) for v in range(u, n)]
            edges = data.draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
        else:
            rng = random.Random(data.draw(st.integers(0, 2**32)))
            edges = shaped_graph(rng, n, data.draw(st.sampled_from(
                ["random", "disconnected", "complete", "chordal", "cycle"])))
        G = Graph(n, edges, allow_multi=multi, allow_loops=multi)
        assert metrics(G).circumference == oracles.backtrack_circumference(n, edges)

    def test_long_cycle_and_path_need_no_deep_recursion(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 50)
        try:
            cycle = metrics(generate("cycle", 300)).circumference
            path = metrics(generate("path", 300)).circumference
        finally:
            sys.setrecursionlimit(limit)
        assert (cycle, path) == (300, None)

    def test_complete_14_stops_at_the_first_spanning_cycle(self):
        t0 = time.perf_counter()
        assert metrics(generate("complete", 14)).circumference == 14
        assert time.perf_counter() - t0 < 1.0

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

    def test_odd_cycle_matches_the_root_chain_oracle(self):
        rng = random.Random(31)
        lengths = set()
        for _ in range(400):
            n = rng.randint(1, 11)
            edges = oracles.random_multigraph(rng, n, rng.random() < 0.2)
            if n >= 5 and rng.random() < 0.5:
                # a long odd cycle, so that the two chains climb far
                ring = rng.sample(range(n), 5 + 2 * rng.randint(0, (n - 5) // 2))
                edges = list(zip(ring, ring[1:] + ring[:1])) + edges[: rng.randint(0, 2)]
            G = Graph(n, edges, allow_multi=True, allow_loops=True)
            flag, cert = is_bipartite(G)
            assert (flag, cert) == oracles.root_chain_bipartite(n, G.edges)
            if not flag:
                lengths.add(len(cert))
        assert {1, 3, 5, 7} <= lengths


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

    def test_line_graph_matches_all_pairs(self):
        rng = random.Random(37)
        for _ in range(300):
            n = rng.randint(1, 9)
            G = Graph(n, oracles.random_multigraph(rng, n, False), allow_multi=True)
            L = line_graph(G)
            assert L.vertex_count == G.m
            assert L.edges == oracles.all_pairs_line_graph(G.edges)

    def test_cartesian_product_matches_neighbour_sets(self):
        rng = random.Random(41)
        for _ in range(200):
            G1, G2 = (
                Graph(n, {(min(e), max(e)) for e in oracles.random_multigraph(rng, n, False)})
                for n in (rng.randint(1, 6), rng.randint(1, 6))
            )
            C = combine("cartesian-product", G1, G2)
            assert (C.vertex_count, C.edges) == oracles.adjacency_cartesian_product(
                G1.vertex_count, G1.edges, G2.vertex_count, G2.edges
            )

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
        # only the contracted edge goes: a loop elsewhere stays
        looped = Graph(3, [(0, 0), (0, 1), (1, 2)], allow_loops=True)
        assert edit(looped, "contract-edge", (1, 2)).edges == ((0, 0), (0, 1))
        with pytest.raises(ValueError, match="cannot contract a loop"):
            edit(looped, "contract-edge", (0, 0))


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

    def test_tour_matches_the_component_count_oracle(self):
        rng = random.Random(43)
        seen = set()
        for _ in range(400):
            n = rng.randint(1, 9)
            edges = oracles.random_multigraph(rng, n, rng.random() < 0.5, closed=True)
            if rng.random() < 0.2:
                edges.append((rng.randrange(n), rng.randrange(n)))
            G = Graph(n, edges, allow_multi=True, allow_loops=True)
            flag, tour = eulerian(G)
            assert (flag, tour) == oracles.component_count_eulerian(n, G.edges)
            even = all(d % 2 == 0 for d in G.degrees())
            seen.add((flag, even and G.m > 0))
        # tours, odd degrees, and even degrees on several edge components
        assert seen == {(True, True), (False, False), (False, True)}


class TestOnePass:
    """connectivity and eulerian answer connectivity from their own single
    traversal, and neutro_components runs no lowpoint DFS."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def record(name):
            inner = getattr(graphs, name)

            def recording(*args):
                calls.append(name)
                return inner(*args)

            monkeypatch.setattr(graphs, name, recording)

        record("_components")
        record("connectivity")
        return calls

    GRAPHS = (
        Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),  # two triangles
        Graph(5, [(0, 1), (0, 1), (1, 2), (1, 2), (3, 3)], allow_multi=True, allow_loops=True),
        generate("wheel", 6),
        generate("cycle", 9),
        Graph(4),
    )

    def test_connectivity_finds_components_in_its_dfs(self, calls):
        for G in self.GRAPHS:
            calls.clear()
            graphs.connectivity(G)
            assert calls == ["connectivity"]

    def test_eulerian_reads_connectivity_off_the_tour(self, calls):
        for G in self.GRAPHS:
            calls.clear()
            graphs.eulerian(G)
            assert calls == []

    def test_neutro_components_runs_one_component_search(self, calls):
        from neutromap.ngraph import NeutroGraph, neutro_components

        G = NeutroGraph(4, 2, [(0, 4, "I"), (1, 5, "R"), (2, 3, "R")])
        assert neutro_components(G)[2] is True
        assert calls == ["_components"]


class TestSharedView:
    """Each Graph builds one ascending neighbour view, and no graphs or ngraph
    routine changes it."""

    # bridges, loops and parallel edges; the simple ones go everywhere
    GRAPHS = (
        Graph(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (5, 6)]),
        Graph(6, [(0, 1), (0, 1), (1, 2), (2, 2), (2, 3), (3, 4), (4, 5), (3, 5)],
              allow_multi=True, allow_loops=True),
        Graph(5, [(0, 1), (0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (3, 4)], allow_multi=True),
        Graph(4, [(0, 0), (0, 1), (1, 2), (1, 3)], allow_loops=True),
        generate("wheel", 6),
        generate("petersen"),
        Graph(4),
    )
    NGRAPHS = (
        NeutroGraph(5, 2, [(0, 1, "R"), (1, 2, "I"), (0, 2, "R"), (2, 3, "R"),
                           (3, 5, "I"), (5, 6, "R"), (4, 4, "R"), (3, 4, "R")],
                    allow_loops=True),
        NeutroGraph(4, 2, [(0, 1, "R"), (0, 1, "I"), (1, 4, "I"), (4, 2, "R"),
                           (2, 3, "R"), (3, 5, "R")], allow_multi=True),
        NeutroGraph(4, 1, [(0, 1, "R"), (1, 2, "I"), (2, 0, "R"), (3, 4, "I"), (4, 3, "R")],
                    directed=True),
    )

    @pytest.fixture
    def read(self, monkeypatch):
        """Every Graph whose view a routine reads, internal ones included."""
        read = []
        view = Graph.view

        def recording(G):
            read.append(G)
            return view(G)

        monkeypatch.setattr(Graph, "view", recording)
        return read

    @staticmethod
    def assert_intact(read):
        """Each view read equals a fresh graph's; returns how many there were."""
        graphs_read = list(read)
        for G in graphs_read:
            fresh = Graph(G.vertex_count, G.edges, True, True)
            assert G.view() == fresh.view()
        read.clear()
        return len(graphs_read)

    def test_view_is_built_once_and_ascending(self):
        G = self.GRAPHS[1]
        incidence, nbrs = G.view()
        assert G.view() is G.view()
        assert incidence[2] == ((1, 2), (2, 3), (3, 4))  # the loop once
        assert nbrs == ((1,), (0, 2), (1, 2, 3), (2, 4, 5), (3, 5), (3, 4))

    def test_graph_routines_leave_every_view_intact(self, read):
        checked = 0
        for G in self.GRAPHS:
            loopless = all(u != v for u, v in G.edges)
            runs = [degree_report, connectivity, metrics, is_bipartite, eulerian,
                    spanning_tree_count]
            if loopless:
                runs += [line_graph, coloring]
            if G.is_simple():
                runs += [hamiltonian, chromatic_polynomial, tutte, complement]
            for routine in runs:
                routine(G)
                checked += self.assert_intact(read)
            if G.m:
                for H in (edit(G, "delete-edges", [G.edges[0]]),
                          edit(G, "delete-vertices", [0])):
                    connectivity(H)
                    metrics(H)
                    checked += self.assert_intact(read)
        assert checked > 4 * len(self.GRAPHS)

    def test_ngraph_routines_leave_every_view_intact(self, read):
        checked = 0
        for G in self.NGRAPHS:
            runs = [ngraph.neutro_components, ngraph.neutro_tree, ngraph.neutro_eulerian]
            if all(u != v for u, v, _t in G.edges):
                runs.append(ngraph.neutro_coloring)
            for routine in runs:
                routine(G)
                checked += self.assert_intact(read)
        assert checked >= 3 * len(self.NGRAPHS)

    def test_only_the_constructor_sets_vertices_and_edges(self):
        """The view is kept beside vertex_count and edges, so nothing in the
        library may set them after Graph.__init__.  NeutroGraph.__init__ sets
        its own tagged edges, which have no view."""
        attrs = ("vertex_count", "edges")
        writes = []

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                    visit(child, scope + (child.name,))
                    continue
                if isinstance(child, ast.Attribute) and child.attr in attrs \
                        and not isinstance(child.ctx, ast.Load):
                    writes.append(scope)
                if isinstance(child, ast.Call) and getattr(
                        child.func, "id", getattr(child.func, "attr", None)
                ) in ("setattr", "__setattr__", "delattr", "__delattr__"):
                    if any(isinstance(a, ast.Constant) and a.value in attrs for a in child.args):
                        writes.append(scope)
                visit(child, scope)

        src = os.path.dirname(neutromap.__file__)
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name), encoding="utf-8") as fh:
                    visit(ast.parse(fh.read()), (name,))
        assert set(writes) == {("graphs.py", "Graph", "__init__"),
                               ("ngraph.py", "NeutroGraph", "__init__")}


class TestHamiltonian:
    def test_cycle_found(self):
        closure, flag, cyc = hamiltonian(generate("cycle", 5))
        assert flag and len(cyc) == 5 and len(set(cyc)) == 5

    def test_petersen_is_not_hamiltonian(self):
        assert hamiltonian(generate("petersen"))[1] is False

    def test_star_is_not_hamiltonian(self):
        assert hamiltonian(generate("star", 3))[1] is False

    def test_big_star_reaches_the_vertex_guard(self):
        # the closure of a star adds nothing; each row stops at its first short partner
        G = generate("star", 20000)
        with pytest.raises(SizeLimitError, match="^hamiltonian search guard: 20001 vertices"):
            hamiltonian(G)

    def test_closure_can_complete(self):
        # K5 minus one edge: degree sum of the missing pair is 3+3=6 >= 5
        G = edit(generate("complete", 5), "delete-edges", [(0, 1)])
        closure, flag, cyc = hamiltonian(G)
        assert closure == generate("complete", 5) and flag

    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 10), st.data())
    def test_cycle_matches_backtracking(self, n, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        edges = shaped_graph(rng, n, data.draw(st.sampled_from(
            ["random", "disconnected", "complete", "chordal", "cycle"])))
        _closure, flag, cycle = hamiltonian(Graph(n, edges))
        expected = oracles.backtrack_ham_cycle(n, edges)
        assert (flag, cycle) == (expected is not None, expected)

    def test_full_search_at_the_vertex_guard_stays_inside_the_state_guard(self):
        # K13 on 1..13 plus a pendant vertex 0: every path 0, 1, ... is tried
        edges = [(0, 1)] + [(u, v) for u in range(1, 14) for v in range(u + 1, 14)]
        G = Graph(14, edges)
        closure, flag, cycle = hamiltonian(G)
        assert (closure.m, flag, cycle) == (79, False, None)
        # hamiltonian skips the search below degree 2, so run it directly
        nbrs = G.view()[1]
        seen = set()
        assert graphs._cycle_search(nbrs, 0, 14, seen) == (0, None)
        assert 0 < len(seen) <= core._GUARDS["cycle search"][0]

    def test_degree_below_two_skips_the_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched a graph with a vertex of degree 1")

        monkeypatch.setattr(graphs, "_cycle_search", no_search)
        G = Graph(12, [(0, 1)] + [(u, v) for u in range(1, 12) for v in range(u + 1, 12)])
        assert hamiltonian(G)[1:] == (False, None)
        assert hamiltonian(generate("star", 5))[1:] == (False, None)

    def test_closure_is_the_graph_when_nothing_joins(self):
        G = generate("cycle", 10)
        assert hamiltonian(G)[0] is G

    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 40), st.data())
    def test_closure_and_guard_match_the_round_oracle(self, n, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        shape = data.draw(st.sampled_from(
            ["random", "sparse", "complete", "complete-bipartite", "pendant"]))
        edges = closure_shaped_graph(rng, n, shape)
        expected = oracles.round_closure(n, edges)
        complete = len(expected) == n * (n - 1) // 2
        if n > core._GUARDS["hamiltonian search"][0] and not complete:
            with pytest.raises(SizeLimitError):
                hamiltonian(Graph(n, edges))
            return
        closure, flag, cycle = hamiltonian(Graph(n, edges))
        assert closure.edges == expected
        if n <= 10:
            ham = oracles.backtrack_ham_cycle(n, edges)
            assert (flag, cycle) == (ham is not None, ham)

    def test_big_complete_closure_shortcut(self):
        closure, flag, cyc = hamiltonian(generate("complete", 16))
        assert flag is True and cyc is None

    def test_closure_shortcut_moves_with_the_guard(self, monkeypatch):
        monkeypatch.setitem(core._GUARDS, "hamiltonian search", (4, "vertices"))
        assert hamiltonian(generate("complete", 4))[1:] == (True, (0, 1, 2, 3))
        assert hamiltonian(generate("complete", 5))[1:] == (True, None)
        with pytest.raises(SizeLimitError, match="^hamiltonian search guard: 5 vertices exceeds 4$"):
            hamiltonian(generate("cycle", 5))

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
        odd = generate("cycle", 5)
        doubled = Graph(5, odd.edges + ((0, 1),), allow_multi=True)
        assert coloring(doubled).vertex_colors == coloring(odd).vertex_colors

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
        """Both entry points answer at 14 vertices and 20 edges and trip one
        above; neutro_coloring counts no indeterminate vertex or edge."""
        def neutro(G):
            n = G.vertex_count
            edges = [(u, v, "R") for u, v in G.edges] + [(0, n, "I")]
            return ngraph.neutro_coloring(NeutroGraph(n, 1, edges))

        for color in (coloring, neutro):
            assert color(generate("cycle", 14)).chromatic_number == 2
            with pytest.raises(SizeLimitError, match="^vertex coloring guard: 15 vertices exceeds 14$"):
                color(generate("cycle", 15))
            assert color(generate("complete-bipartite", 4, 5)).edge_chromatic_number == 5
            with pytest.raises(SizeLimitError, match="^edge coloring guard: 21 edges exceeds 20$"):
                color(generate("complete-bipartite", 3, 7))  # 21 edges, 10 vertices


class TestPolynomial:
    def test_str_forms(self):
        x = Polynomial.monomial(1)
        assert str(x * x - x - x - x + x + x) == "x^2 - x"
        assert str(Polynomial([0])) == "0"
        assert str(Polynomial([2, 0, 1])) == "x^2 + 2"

    def test_str_prints_every_coefficient_as_its_str(self):
        assert str(Polynomial([0, Fraction(7, 6)])) == "7/6x"
        assert str(Polynomial([Fraction(1, 2), Fraction(-3, 4), 0, -5])) == "-5x^3 - 3/4x + 1/2"
        assert str(Polynomial([-1, 3, -12])) == "-12x^2 + 3x - 1"

    def test_arithmetic_and_eval(self):
        p = Polynomial([1, 2]) * Polynomial([-1, 1])  # (2x+1)(x-1)
        assert [p(k) for k in range(4)] == [-1, 0, 5, 14]
        assert p.degree == 2

    def test_mul_takes_fraction_coefficients_on_either_side(self):
        half = Fraction(1, 2)
        assert Polynomial([2]) * Polynomial([half]) == Polynomial([1])
        assert Polynomial([half, 1]) * Polynomial([2, 4, 6]) == Polynomial([1, 4, 7, 6])

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

    def test_tree_closed_form_matches_the_product(self):
        lam = Polynomial([0, 1])
        for n in range(1, 41):
            product = lam
            for _ in range(n - 1):
                product = product * Polynomial([-1, 1])
            for kind, size in (("path", n), ("star", n - 1)):
                if size >= 1:
                    p = chromatic_polynomial(generate(kind, size))
                    assert p == product
                    assert str(p) == str(product)

    def test_trees_match_brute_counts(self):
        rng = random.Random(17)
        for _ in range(12):
            n = rng.randint(2, 6)
            edges = oracles.random_tree(rng, n)
            p = chromatic_polynomial(Graph(n, edges))
            assert p.coeffs == oracles.deletion_contraction_chromatic(n, edges)
            for k in range(4):
                assert p(k) == oracles.count_proper_colorings(n, edges, k)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 9), st.data())
    def test_matches_deletion_contraction_oracle(self, n, data):
        shape = data.draw(st.sampled_from(
            ["random", "empty", "disconnected", "complete", "chordal", "cycle"]))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        edges = shaped_graph(rng, n, shape)
        p = chromatic_polynomial(Graph(n, edges))
        assert p.coeffs == oracles.deletion_contraction_chromatic(n, edges)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_matches_counted_colorings(self, n, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        edges = oracles.random_simple_graph(rng, n)
        p = chromatic_polynomial(Graph(n, edges))
        for k in range(5):
            assert p(k) == oracles.count_proper_colorings(n, edges, k)

    def test_long_cycle_and_path_need_no_deep_recursion(self):
        # a cycle takes its closed form; with one chord it branches
        chorded = Graph(300, generate("cycle", 300).edges + ((0, 100),))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 50)
        try:
            p = chromatic_polynomial(generate("cycle", 300))
            p_chorded = chromatic_polynomial(chorded)
        finally:
            sys.setrecursionlimit(limit)
        # (x - 1)^n + (-1)^n (x - 1) for the n-cycle
        q = Polynomial([-1, 1])
        closed = Polynomial([1])
        for _ in range(300):
            closed = closed * q
        assert p == closed + q
        assert chromatic_polynomial(generate("path", 2000)).coeffs[1] == -1

        # the chord glues C101 and C201 on an edge: P = P(C101) P(C201) / (k (k - 1))
        def cycle(n, k):
            return (k - 1) ** n + (-1) ** n * (k - 1)

        for k in (2, 3, 4, 7):
            assert p_chorded(k) * k * (k - 1) == cycle(101, k) * cycle(201, k)

    def test_cycle_closed_form_matches_the_oracle(self):
        for n in range(3, 41):
            G = generate("cycle", n)
            want = oracles.deletion_contraction_chromatic(n, G.edges)
            assert chromatic_polynomial(G).coeffs == want

    def test_guard_bounds_the_memo(self, monkeypatch):
        monkeypatch.setitem(core._GUARDS, "chromatic polynomial", (100, "states"))
        with pytest.raises(
            SizeLimitError, match="^chromatic polynomial guard: 101 states exceeds 100$"
        ):
            chromatic_polynomial(generate("complete-bipartite", 7, 7))
        assert chromatic_polynomial(generate("complete", 30)).degree == 30

    def test_size_guard_edge(self, monkeypatch):
        # path-10000 answers and cycle-10000 trips, before any state is built
        assert 10001 * 9999 <= core._GUARDS["chromatic polynomial size"][0] < 10001 * 10000
        G = generate("petersen")  # (10 + 1) x 15 bits
        monkeypatch.setitem(core._GUARDS, "chromatic polynomial size", (164, "coefficient bits"))
        monkeypatch.setattr(graphs, "_peel", None)
        with pytest.raises(SizeLimitError, match="^chromatic polynomial size guard: "
                           "165 coefficient bits exceeds 164$"):
            chromatic_polynomial(G)

    @pytest.mark.parametrize("family, states", [
        (("complete-bipartite", 10, 10), 2121),
        (("complete-bipartite", 6, 7), 320),
        (("petersen",), 73),
        (("wheel", 12), 9),
    ])
    def test_state_counts_are_pinned(self, monkeypatch, family, states):
        # the memo, and so the point where the guard trips, is part of the contract
        G = generate(*family)
        monkeypatch.setitem(core._GUARDS, "chromatic polynomial", (states - 1, "states"))
        with pytest.raises(SizeLimitError, match="^chromatic polynomial guard: "
                           "%d states exceeds %d$" % (states, states - 1)):
            chromatic_polynomial(G)
        monkeypatch.setitem(core._GUARDS, "chromatic polynomial", (states, "states"))
        p = chromatic_polynomial(G)
        assert p.coeffs == oracles.deletion_contraction_chromatic(G.vertex_count, G.edges)


def stack_depth():
    """Frames on the caller's stack, the caller's own included."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def shaped_graph(rng, n, shape):
    """A simple graph on n vertices of the named shape."""
    if shape == "empty" or n == 0:
        return []
    if shape == "complete":
        return [(u, v) for u in range(n) for v in range(u + 1, n)]
    if shape == "cycle":
        if n < 3:
            return [(0, 1)] if n == 2 else []
        return [(i, (i + 1) % n) for i in range(n)]
    if shape == "chordal":
        # each new vertex joins a clique among the earlier ones
        edges = []
        cliques = [[0]]
        for v in range(1, n):
            base = rng.choice(cliques)
            joined = [u for u in base if rng.random() < 0.7] or base[:1]
            edges.extend((u, v) for u in joined)
            cliques.append(joined + [v])
        return edges
    if shape == "disconnected":
        cut = rng.randint(0, n)
        return [
            (u, v)
            for u, v in oracles.random_simple_graph(rng, n)
            if (u < cut) == (v < cut)
        ]
    return oracles.random_simple_graph(rng, n)


def closure_shaped_graph(rng, n, shape):
    """A simple graph on n >= 3 vertices for the Hamiltonian closure."""
    if shape == "sparse":
        return oracles.random_simple_graph(rng, n, rng.choice([0.05, 0.1, 0.2]))
    if shape == "complete-bipartite":
        t = rng.randint(1, n - 1)
        return [(u, v) for u in range(t) for v in range(t, n)]
    if shape == "pendant":
        # a random graph on 1..n-1 with vertex 0 hung from one of them
        rest = oracles.random_simple_graph(rng, n - 1)
        return [(0, rng.randint(1, n - 1))] + [(u + 1, v + 1) for u, v in rest]
    return shaped_graph(rng, n, shape)


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

    def test_matches_networkx_on_multigraphs(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(1, 8)
            edges = [
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(0, 3 * n))
            ]
            H = nx.MultiGraph()
            H.add_nodes_from(range(n))
            H.add_edges_from(edges)
            G = Graph(n, edges, allow_multi=True, allow_loops=True)
            assert spanning_tree_count(G) == round(nx.number_of_spanning_trees(H))

    def test_large_disconnected_graph_needs_no_elimination(self):
        # vertex 1 is isolated; the 300x300 cofactor is never eliminated
        G = Graph(300, [(0, 2)] + [(i, i + 1) for i in range(2, 299)])
        start = time.perf_counter()
        assert spanning_tree_count(G) == 0
        assert time.perf_counter() - start < 1.0

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
        assert tutte(G) == tutte(G)

    def test_matches_brute_force(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(0, 12)
            edges = oracles.random_simple_graph(rng, n)
            G = Graph(n, edges)
            assert tutte(G)[1] == oracles.has_perfect_matching(n, edges)
            assert_matching(G, _maximum_matching(n, G.view()[1]))

    def test_matches_random_determinants_and_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(37)
        for k in range(40):
            n = 2 * rng.randint(7, 30)  # an odd order needs no determinant
            edges = oracles.random_simple_graph(rng, n, rng.choice([0.05, 0.1, 0.2, 0.3]))
            G = Graph(n, edges)
            matching = _maximum_matching(n, G.view()[1])
            assert_matching(G, matching)
            assert tutte(G)[1] == oracles.randomized_tutte_flag(n, edges, k)
            H = nx.Graph()
            H.add_nodes_from(range(n))
            H.add_edges_from(edges)
            assert len(matching) == len(nx.max_weight_matching(H, maxcardinality=True))

    @pytest.mark.parametrize("lengths", [(3, 3), (5, 5), (3, 5, 7), (5, 3, 5, 3), (7, 5, 3, 9)])
    @pytest.mark.parametrize("link", [1, 2, 3])
    def test_odd_cycles_joined_by_paths(self, lengths, link):
        nx = pytest.importorskip("networkx")
        n, edges = odd_cycle_chain(lengths, link)
        G = Graph(n, edges)
        matching = _maximum_matching(n, G.view()[1])
        assert_matching(G, matching)
        assert len(matching) == len(nx.max_weight_matching(nx.Graph(edges), maxcardinality=True))
        assert tutte(G)[1] == oracles.randomized_tutte_flag(n, edges, 0)

    @pytest.mark.parametrize("n, edges", [
        # triangles 0-1-4 and 1-2-4 with pendants 3 at 0 and 5 at 2; greedy
        # takes 0-1 and 2-4, and the only augmenting path, 3-0=1-4=2-5, is
        # found from either end only by contracting a triangle
        (6, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (2, 5)]),
        # from a random search: a search that contracts only the scanned
        # vertex's side of an odd cycle leaves the parent links in a loop
        # here, and flipping the augmenting path never ends
        (10, [(0, 1), (0, 2), (0, 6), (0, 8), (1, 3), (1, 4), (1, 5), (1, 7), (2, 3),
              (2, 7), (3, 4), (3, 8), (4, 6), (5, 8), (6, 7), (6, 8), (7, 8), (8, 9)]),
    ])
    def test_augmenting_path_through_a_blossom(self, n, edges):
        G = Graph(n, edges)
        matching = _maximum_matching(n, G.view()[1])
        assert_matching(G, matching)
        assert 2 * len(matching) == n and tutte(G)[1] is True

    def test_petersen_has_a_perfect_matching(self):
        G = generate("petersen")
        matching = _maximum_matching(10, G.view()[1])
        assert_matching(G, matching)
        assert len(matching) == 5 and tutte(G)[1] is True

    @pytest.mark.parametrize("family, params, flag", [
        ("complete-bipartite", (99, 101), False),
        ("complete", (300,), True),
    ])
    def test_large_dense_graphs_are_fast(self, family, params, flag):
        G = generate(family, *params)
        start = time.perf_counter()
        assert tutte(G)[1] is flag
        assert time.perf_counter() - start < 1.0


def assert_matching(G, matching):
    """The pairs are distinct edges of G with no endpoint in common."""
    assert all(pair in G.edges for pair in matching)
    ends = [v for pair in matching for v in pair]
    assert len(ends) == len(set(ends))


def odd_cycle_chain(lengths, link):
    """Odd cycles in a row, each joined to the next by a path of `link` edges."""
    edges, n, prev = [], 0, None
    for size in lengths:
        cyc = list(range(n, n + size))
        edges += [(cyc[i], cyc[(i + 1) % size]) for i in range(size)]
        n += size
        if prev is not None:
            path = [prev] + list(range(n, n + link - 1)) + [cyc[0]]
            n += link - 1
            edges += list(zip(path, path[1:]))
        prev = cyc[size // 2]
    return n, edges
