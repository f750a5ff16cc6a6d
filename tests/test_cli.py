"""End-to-end tests for the command line interface."""

import io
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutromap.cli import main
from neutromap.core import I, NeutroMatrix, ONE, ZERO
from neutromap.engines import ConceptModel, RelationalModel
from neutromap.formats import export_dot, model_for, parse_model, serialize_model
from neutromap.graphs import Graph
from neutromap.ngraph import from_adjacency
from neutromap.relations import FuzzyNeutroRelation, FuzzyNeutroValue

import goldens

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
# a CLI child under a 1.5 GB address-space cap, so a table that would not fit
# ends in a MemoryError instead of swapping
CAPPED_CLI = (
    "import resource, sys; "
    "resource.setrlimit(resource.RLIMIT_AS, (1500000 << 10,) * 2); "
    "from neutromap.cli import main; sys.exit(main(sys.argv[1:]))"
)


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def name_lists(low, high):
    name = st.text(alphabet="abcxyzAB019_-", min_size=1, max_size=4)
    return st.lists(name, min_size=low, max_size=high, unique=True)


def weight_matrices(rows, cols):
    row = st.lists(
        st.sampled_from((-ONE, ZERO, ONE, I)), min_size=cols, max_size=cols
    )
    return st.lists(row, min_size=rows, max_size=rows).map(NeutroMatrix)


class TestModelFiles:
    def test_every_fixture_round_trips(self):
        names = sorted(n for n in os.listdir(FIXTURES) if n.endswith(".model"))
        assert names  # the corpus must be present
        for name in names:
            with open(fx(name), "r", encoding="utf-8") as fh:
                text = fh.read()
            assert serialize_model(parse_model(text)) == text, name

    @settings(deadline=None)
    @given(st.data())
    def test_concept_model_round_trips(self, data):
        names = data.draw(name_lists(1, 5))
        n = len(names)
        clamp = data.draw(st.one_of(
            st.none(), st.frozensets(st.integers(0, n - 1), max_size=n)
        ))
        model = ConceptModel(names, data.draw(weight_matrices(n, n)), clamp)
        assert parse_model(serialize_model(model_for(model))).payload == model

    @settings(deadline=None)
    @given(st.data())
    def test_relational_model_round_trips(self, data):
        names = data.draw(name_lists(2, 8))
        cut = data.draw(st.integers(1, len(names) - 1))
        domain, rng = names[:cut], names[cut:]
        model = RelationalModel(
            domain, rng, data.draw(weight_matrices(len(domain), len(rng)))
        )
        assert parse_model(serialize_model(model_for(model))).payload == model

    @settings(deadline=None)
    @given(st.integers(0, 8), st.data())
    def test_graph_round_trips(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        G = Graph(n, edges)
        assert parse_model(serialize_model(model_for(G))).payload == G

    @settings(deadline=None)
    @given(st.integers(1, 6), st.booleans(), st.data())
    def test_neutro_graph_round_trips(self, n, directed, data):
        # every graph from_adjacency accepts must survive the model format,
        # which carries no loops
        entry = st.sampled_from((ZERO, ONE, I))
        diagonal = data.draw(st.lists(st.sampled_from((ZERO, ZERO, ZERO, ONE, I)),
                                      min_size=n, max_size=n))
        rows = [[diagonal[i] if i == j else data.draw(entry) for j in range(n)]
                for i in range(n)]
        if not directed:
            rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        try:
            G = from_adjacency(NeutroMatrix(rows), data.draw(st.integers(0, n)), directed)
        except ValueError as exc:
            assert "adjacency needs a zero diagonal" in str(exc)
            assert any(x != ZERO for x in diagonal)
            return
        assert parse_model(serialize_model(model_for(G))).payload == G

    @settings(deadline=None)
    @given(st.data())
    def test_relation_round_trips(self, data):
        # labels may be what a model file line cannot carry back: those raise
        label = st.text(alphabet="abcxyzAB019_- ,#\n", max_size=4)
        rows = data.draw(st.lists(label, min_size=1, max_size=4, unique=True))
        cols = data.draw(st.lists(label, min_size=1, max_size=4, unique=True))
        grade = st.builds(
            FuzzyNeutroValue,
            st.fractions(0, 1, max_denominator=12),
            st.booleans(),
        )
        values = data.draw(st.lists(st.lists(grade, min_size=len(cols), max_size=len(cols)),
                                    min_size=len(rows), max_size=len(rows)))
        try:
            R = FuzzyNeutroRelation(rows, cols, values)
        except ValueError:
            assert any(x.splitlines() != [x] or x != x.strip() or "," in x
                       or x.startswith("#") for x in rows + cols)
            return
        assert parse_model(serialize_model(model_for(R))).payload == R

    def test_empty_clamp_is_a_bare_clamp_line(self, capsys, tmp_path):
        model = ConceptModel(["A", "B"], NeutroMatrix([[0, 1], [0, 0]]), [])
        text = serialize_model(model_for(model))
        assert "\nclamp\nmatrix\n" in text
        path = tmp_path / "empty-clamp.model"
        path.write_text(text)
        # with no clamp the start A decays: 1 0 -> 0 1 -> 0 0
        code, out, _ = run(capsys, "cm", "run", str(path), "--on", "A")
        assert code == 0
        assert "fixed point: 0 0" in out

    def test_bad_header_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("neutromap-model 2\nkind graph\n1 0\n")
        code, _, err = run(capsys, "graph", "analyze", str(bad))
        assert code == 2 and err.startswith("error:")

    def test_shape_clash_inside_file_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text(
            "neutromap-model 1\nkind concept-model\nconcepts A B\n"
            "matrix\n0, 1\n1\n"
        )
        code, _, _ = run(capsys, "cm", "run", str(bad), "--on", "A")
        assert code == 2


class TestExitCodes:
    def test_zero_denominator_in_csv_is_a_parse_error(self, capsys, tmp_path):
        z = tmp_path / "z.csv"
        z.write_text("0, 1/0\n1, 0\n")
        code, out, err = run(capsys, "cm", "run", str(z), "--from-csv", "--on", "C1")
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: ") and err.count("\n") == 1

    def test_zero_denominator_in_model_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "z.model"
        bad.write_text(
            "neutromap-model 1\nkind relation\na, b\na, 0, 1/0I\nb, 2+1/0I, 0\n"
        )
        code, _, err = run(capsys, "rel", "props", str(bad))
        assert code == 2 and err.startswith("error: line 4: ")
        assert err.count("\n") == 1

    def test_zero_denominator_epsilon_is_a_domain_error(self, capsys):
        code, out, err = run(
            capsys, "rel", "props", fx("sec-3.7-abcde.model"), "--epsilon", "1/0"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_file_is_not_found(self, capsys):
        code, _, err = run(capsys, "cm", "run", "no-such.model", "--on", "C1")
        assert code == 5 and "no such file" in err

    def test_unknown_generator_is_not_found(self, capsys):
        code, _, _ = run(capsys, "graph", "analyze", "moebius-5")
        assert code == 5

    def test_generator_domain_error(self, capsys):
        code, _, err = run(capsys, "graph", "analyze", "cycle-2")
        assert code == 1 and "error:" in err

    def test_compose_shape_clash(self, capsys):
        code, _, err = run(
            capsys, "rel", "compose",
            fx("sec-3.7-sagittal.model"), fx("sec-3.7-sagittal.model"),
        )
        assert code == 3 and "matching middle labels" in err

    def test_hamiltonian_guard(self, capsys):
        code, _, err = run(
            capsys, "graph", "analyze", "cycle-16", "--hamiltonian"
        )
        assert code == 4 and "error:" in err

    def test_generator_guard(self, python_child):
        # the 1,799,970,000 edges of K60000 would not fit under this cap
        r = python_child(
            "-c", CAPPED_CLI, "graph", "analyze", "complete-60000", "--degree",
            timeout=20,
        )
        assert (r.returncode, r.stdout) == (4, "")
        assert r.stderr == "error: graph generator guard: 1799970000 edges exceeds 1000000\n"

    def test_distance_table_guard(self, python_child):
        # path-100000 is generated, but its 10^10-entry distance table is not
        r = python_child(
            "-c", CAPPED_CLI, "graph", "analyze", "path-100000", "--metrics",
            timeout=20,
        )
        assert (r.returncode, r.stdout) == (4, "")
        assert r.stderr == (
            "error: distance table guard: 10000000000 entries exceeds 4000000\n"
        )

    @pytest.mark.parametrize("family", ["path", "star"])
    def test_tutte_guard(self, python_child, family):
        # the 10^10 names of a 100000-vertex Tutte matrix would not fit under this cap
        r = python_child(
            "-c", CAPPED_CLI, "graph", "analyze", "%s-100000" % family, "--tutte",
            timeout=20,
        )
        n = 100000 + (family == "star")
        assert (r.returncode, r.stdout) == (4, "")
        assert r.stderr == "error: tutte matrix guard: %d entries exceeds 4000000\n" % (n * n)

    @pytest.mark.parametrize("family", ["path", "star"])
    def test_tree_count_guard(self, python_child, family):
        # the 10^10-entry Laplacian of a 100000-vertex graph would not fit under this cap
        r = python_child(
            "-c", CAPPED_CLI, "graph", "analyze", "%s-100000" % family, "--tree-count",
            timeout=20,
        )
        n = 100000 + (family == "star")
        assert (r.returncode, r.stdout) == (4, "")
        assert r.stderr == "error: laplacian guard: %d entries exceeds 4000000\n" % (n * n)

    @pytest.mark.parametrize("family", ["path", "star"])
    def test_polynomial_size_guard(self, python_child, family):
        # n + 1 coefficients of up to 10^5 bits each would not fit under this cap
        r = python_child(
            "-c", CAPPED_CLI, "graph", "analyze", "%s-100000" % family, "--polynomial",
            timeout=20,
        )
        n = 100000 + (family == "star")  # a tree: n - 1 edges
        assert (r.returncode, r.stdout) == (4, "")
        assert r.stderr == (
            "error: chromatic polynomial size guard: %d coefficient bits exceeds 100000000\n"
            % ((n + 1) * (n - 1))
        )

    def test_distance_search_guard(self, python_child):
        # the 1,960,000 distances of K1400 pass the table guard; its n * m searches do not
        r = python_child(
            "-c", CAPPED_CLI, "graph", "analyze", "complete-1400", "--metrics",
            timeout=20,
        )
        assert (r.returncode, r.stdout) == (4, "")
        assert r.stderr == (
            "error: distance search guard: 1371020000 edge visits exceeds 100000000\n"
        )

    def test_model_order_guard(self, python_child, tmp_path):
        # one edge, but 10^9 declared vertices would not fit under this cap
        big = tmp_path / "big.model"
        big.write_text("neutromap-model 1\nkind graph\n1000000000 1\n0 1\n")
        r = python_child("-c", CAPPED_CLI, "graph", "analyze", str(big), timeout=20)
        assert (r.returncode, r.stdout) == (4, "")
        assert r.stderr == "error: graph order guard: 1000000000 vertices exceeds 1000000\n"

    def test_model_order_guard_edge(self, capsys, tmp_path):
        model = tmp_path / "edge.model"
        for n_indet, code in ((999995, 0), (999996, 4)):
            model.write_text("neutromap-model 1\nkind neutro-graph\n5 %d 1 0\n0 1 R\n" % n_indet)
            assert run(capsys, "ngraph", "classify", str(model))[0] == code
        model.write_text("neutromap-model 1\nkind graph\n1000001 0\n")
        assert run(capsys, "graph", "analyze", str(model)) == (
            4, "", "error: graph order guard: 1000001 vertices exceeds 1000000\n"
        )

    def test_generator_parameter_count(self, capsys):
        for name, message in (
            ("cycle-3-4", "cycle takes 1 parameter, got 2"),
            ("complete-bipartite-2", "complete-bipartite takes 2 parameters, got 1"),
            ("complete", "complete takes 1 parameter, got 0"),
            ("petersen-3", "petersen takes 0 parameters, got 1"),
        ):
            assert run(capsys, "graph", "analyze", name) == (1, "", "error: %s\n" % message)

    def test_no_arguments_is_a_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


class TestGraphAnalyze:
    def test_file_defaults_to_degree_and_connectivity(self, capsys):
        code, out, _ = run(capsys, "graph", "analyze", fx("fig-2.2.3.model"))
        assert code == 0
        assert "vertices: 4" in out and "edges: 5" in out
        assert "degree sequence:" in out
        assert "connected: true" in out

    def test_metrics_goldens(self, capsys):
        _, out, _ = run(
            capsys, "graph", "analyze", fx("fig-2.2.3.model"), "--metrics"
        )
        assert "girth: %d" % goldens.FIG_2_2_3_GIRTH in out
        assert "circumference: %d" % goldens.FIG_2_2_3_CIRCUMFERENCE in out
        assert "diameter: %d" % goldens.FIG_2_2_3_DIAMETER in out

    def test_generator_targets(self, capsys):
        _, out, _ = run(capsys, "graph", "analyze", "petersen")
        assert "vertices: 10" in out and "edges: 15" in out
        _, out, _ = run(capsys, "graph", "analyze", "complete-bipartite-2-3")
        assert "vertices: 5" in out and "edges: 6" in out

    def test_coloring_lines(self, capsys):
        _, out, _ = run(capsys, "graph", "analyze", "complete-4", "--coloring")
        assert "chromatic number: 4" in out
        assert "edge chromatic number: 3" in out

    def test_from_csv_adjacency(self, capsys, tmp_path):
        adj = tmp_path / "k3.csv"
        adj.write_text("0, 1, 1\n1, 0, 1\n1, 1, 0\n")
        code, out, _ = run(
            capsys, "graph", "analyze", str(adj), "--from-csv"
        )
        assert code == 0
        assert "vertices: 3" in out and "edges: 3" in out

    def test_stdin_target(self, capsys, monkeypatch):
        with open(fx("ex-2.5.1.model"), "r", encoding="utf-8") as fh:
            text = fh.read()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "graph", "analyze", "-")
        assert code == 0 and "vertices: 4" in out

    def test_structured_format(self, capsys):
        _, out, _ = run(
            capsys, "graph", "analyze", fx("fig-2.2.3.model"),
            "--format", "structured",
        )
        assert "graph.vertices = 4" in out
        assert "vertices:" not in out

    def test_format_flag_before_subcommand(self, capsys):
        _, out, _ = run(
            capsys, "--format", "structured", "graph", "analyze", "cycle-4"
        )
        assert "graph.vertices = 4" in out


class TestPolynomialTotality:
    """1,200-vertex polynomials finish; the memo guard exits 4."""

    def polynomial_line(self, result):
        assert (result.returncode, result.stderr) == (0, "")
        vertices, _edges, line = result.stdout.splitlines()
        assert vertices == "vertices: 1200"
        return line

    def analyze(self, python_child, target, timeout=30):
        return python_child(
            "-m", "neutromap.cli", "graph", "analyze", target, "--polynomial",
            timeout=timeout,
        )

    def test_cycle_1200(self, python_child):
        line = self.polynomial_line(self.analyze(python_child, "cycle-1200"))
        # the x^1199 coefficient is minus the edge count
        assert line.startswith("chromatic polynomial: x^1200 - 1200x^1199 + 719400x^1198 ")
        assert line.endswith(" - 1199x")

    def test_path_1200(self, python_child):
        line = self.polynomial_line(self.analyze(python_child, "path-1200"))
        assert line.startswith("chromatic polynomial: x^1200 - 1199x^1199 + ")
        assert line.endswith(" - x")

    def test_cycle_5000_fits_under_the_cap(self, python_child):
        # a cycle takes its closed form, so no memo of n^2 bits is built
        r = python_child(
            "-c", CAPPED_CLI, "graph", "analyze", "cycle-5000", "--polynomial", timeout=20,
        )
        assert (r.returncode, r.stderr) == (0, "")
        line = r.stdout.splitlines()[2]
        assert line.startswith("chromatic polynomial: x^5000 - 5000x^4999 + 12497500x^4998 ")
        assert line.endswith(" - 4999x")
        r = python_child(
            "-c", CAPPED_CLI, "graph", "analyze", "cycle-10000", "--polynomial", timeout=20,
        )
        assert (r.returncode, r.stdout) == (4, "")
        assert r.stderr == (
            "error: chromatic polynomial size guard: "
            "100010000 coefficient bits exceeds 100000000\n"
        )

    def test_guard_exits_4(self, python_child):
        # K20,23 and K21,22 are the smallest named graphs that trip the guard
        r = self.analyze(python_child, "complete-bipartite-20-23", timeout=60)
        assert (r.returncode, r.stdout) == (4, "")
        assert r.stderr == (
            "error: chromatic polynomial guard: 50001 states exceeds 50000\n"
        )


class TestCycleSearchTotality:
    def test_guard_exits_4(self, python_child):
        r = python_child(
            "-m", "neutromap.cli", "graph", "analyze", "complete-bipartite-9-10",
            "--metrics", timeout=30,
        )
        assert (r.returncode, r.stdout) == (4, "")
        assert r.stderr == "error: cycle search guard: 114689 states exceeds 114688\n"


class TestNgraphCommands:
    def test_classify(self, capsys):
        code, out, _ = run(
            capsys, "ngraph", "classify", fx("fig-3.2.8-NA.model")
        )
        assert code == 0
        assert "classification: edge-neutrosophic" in out
        assert "real vertices: 5" in out
        assert "indeterminate edges: 3" in out

    def test_color(self, capsys):
        _, out, _ = run(capsys, "ngraph", "color", fx("fig-3.2.8-NA.model"))
        assert "neutrosophic chromatic number: 3" in out
        assert "neutrosophic edge chromatic number: 3" in out

    def test_color_directed_opposite_arcs(self, capsys, tmp_path):
        model = tmp_path / "pair.model"
        model.write_text(
            "neutromap-model 1\nkind neutro-graph\n3 0 3 1\n0 1 R\n1 0 R\n2 1 R\n"
        )
        code, out, err = run(capsys, "ngraph", "color", str(model))
        assert (code, err) == (0, "")
        assert "neutrosophic chromatic number: 2" in out
        assert "neutrosophic edge chromatic number: 2" in out
        assert "edge colors: v1-v2=0 v2-v1=0 v3-v2=1" in out

    def test_petersen_model_output(self, capsys):
        code, out, _ = run(capsys, "ngraph", "petersen", "vertex", "3")
        assert code == 0
        mf = parse_model(out)
        assert mf.kind == "neutro-graph"
        assert (mf.payload.n_real, mf.payload.n_indet) == (7, 3)
        assert all(t == "R" for _u, _v, t in mf.payload.edges)

    def test_petersen_param_count(self, capsys):
        code, _, _ = run(capsys, "ngraph", "petersen", "vertex", "1", "2")
        assert code == 1
        code, _, _ = run(capsys, "ngraph", "petersen", "strong", "1")
        assert code == 1


class TestRelCommands:
    def test_props_compatibility(self, capsys):
        _, out, _ = run(capsys, "rel", "props", fx("ex-2.8.3.model"))
        assert "reflexive: true" in out
        assert "symmetric: true" in out
        assert "compatibility: true" in out

    def test_props_abcde(self, capsys):
        _, out, _ = run(capsys, "rel", "props", fx("sec-3.7-abcde.model"))
        assert "reflexive: false" in out
        assert "anti reflexive: true" in out
        assert "symmetric: false" in out

    def test_props_epsilon_range(self, capsys):
        code, _, _ = run(
            capsys, "rel", "props", fx("sec-3.7-abcde.model"),
            "--epsilon", "2",
        )
        assert code == 1

    def test_closure_echoes_a_relation_model(self, capsys):
        code, out, _ = run(
            capsys, "rel", "closure", fx("sec-3.7-abcde.model")
        )
        assert code == 0
        mf = parse_model(out)
        assert mf.kind == "relation"
        assert mf.payload.row_labels == ("a", "b", "c", "d", "e")

    def test_compose_square_relation(self, capsys):
        code, out, _ = run(
            capsys, "rel", "compose",
            fx("sec-3.7-abcde.model"), fx("sec-3.7-abcde.model"),
        )
        assert code == 0
        assert parse_model(out).kind == "relation"


class TestRelFromCsv:
    P = "0.3, I, 1\n0, 0.5, 0.4I\n1, 0, 0.2\n"
    Q = "1, 0.2\n0.4I, 0\n0.7, I\n"

    def csv(self, tmp_path, name):
        path = tmp_path / (name + ".csv")
        path.write_text(getattr(self, name))
        return str(path)

    def test_props(self, capsys, tmp_path):
        code, out, _ = run(capsys, "rel", "props", self.csv(tmp_path, "P"), "--from-csv")
        assert code == 0
        assert "anti reflexive: true" in out and "transitive: false" in out

    def test_closure(self, capsys, tmp_path):
        code, out, _ = run(capsys, "rel", "closure", self.csv(tmp_path, "P"), "--from-csv")
        assert code == 0
        assert out.splitlines()[2:] == [
            "x1, x2, x3",
            "x1, 1, I, 1",
            "x2, 0.4I, 0.5, 0.4I",
            "x3, 1, I, 1",
        ]

    def test_compose(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "rel", "compose",
            self.csv(tmp_path, "P"), self.csv(tmp_path, "Q"), "--from-csv",
        )
        assert code == 0
        assert out.splitlines()[2:] == [
            "x1, x2",
            "x1, 0.7, I",
            "x2, 0.4I, 0.4I",
            "x3, 1, 0.2",
        ]

    def test_join(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "rel", "join",
            self.csv(tmp_path, "P"), self.csv(tmp_path, "Q"), "--from-csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3 * 3 * 2
        assert "x1 x3 x2: I" in lines and "x3 x3 x2: 0.2I" in lines


class TestCmRun:
    def test_child_neutro_golden(self, capsys):
        code, out, _ = run(
            capsys, "cm", "run", fx("ex-3.7.1-E.model"), "--on", "C1"
        )
        assert code == 0
        assert "fixed point: %s" % goldens.CHILD_E_FIXED in out
        code, out, _ = run(
            capsys, "cm", "run", fx("ex-3.7.1-NE.model"), "--on", "C1"
        )
        assert code == 0
        assert "hidden pattern: fixed-point" in out
        assert "fixed point: %s" % goldens.CHILD_NE_FIXED in out

    def test_hacking_trajectory_lines(self, capsys):
        _, out, _ = run(
            capsys, "cm", "run", fx("ex-3.7.2-NE.model"), "--on", "C7"
        )
        for i, state in enumerate(goldens.HACK_TRAJECTORY):
            assert "state %d: %s" % (i, state) in out
        assert "steps to enter: 4" in out

    def test_degrade_flag(self, capsys):
        _, out, _ = run(
            capsys, "cm", "run", fx("ex-3.7.2-NE.model"), "--on", "C7",
            "--degrade",
        )
        assert "fixed point: %s" % goldens.HACK_DEGRADED_FIXED in out

    def test_explicit_clamp(self, capsys):
        _, out, _ = run(
            capsys, "cm", "run", fx("ex-3.7.1-E.model"), "--on", "C1",
            "--clamp", "C1",
        )
        assert "fixed point: %s" % goldens.CHILD_E_FIXED in out

    def test_unknown_concept(self, capsys):
        code, _, err = run(
            capsys, "cm", "run", fx("ex-3.7.1-E.model"), "--on", "C9"
        )
        assert code == 5 and "unknown concept" in err


class TestRmRun:
    def test_employer_domain_golden(self, capsys):
        code, out, _ = run(
            capsys, "rm", "run", fx("fig-2.8.11-E1.model"),
            "--side", "domain", "--on", "D1",
        )
        assert code == 0
        assert "domain fixed point: %s" % goldens.EMPLOYER_DOMAIN_FIXED in out
        assert "range fixed point: %s" % goldens.EMPLOYER_RANGE_FIXED in out

    def test_infant_domain_golden(self, capsys):
        _, out, _ = run(
            capsys, "rm", "run", fx("ex-3.7.10-NR.model"),
            "--side", "domain", "--on", "D1",
        )
        assert "domain fixed point: %s" % goldens.INFANT_DOMAIN_FIXED in out
        assert "range fixed point: %s" % goldens.INFANT_RANGE_FIXED in out

    def test_wrong_side_name(self, capsys):
        code, _, err = run(
            capsys, "rm", "run", fx("fig-2.8.11-E1.model"),
            "--side", "domain", "--on", "R1",
        )
        assert code == 1 and "range side" in err

    def test_clamp_node_on_the_other_side(self, capsys):
        for side, on, clamp in (("domain", "D1", "R1"), ("range", "R1", "D2")):
            assert run(
                capsys, "rm", "run", fx("fig-2.8.11-E1.model"),
                "--side", side, "--on", on, "--clamp", clamp,
            ) == (1, "", "error: clamp node %s is not on the %s side\n" % (clamp, side))


class TestLink:
    def test_signed_diff_against_printed_matrix(self, capsys):
        code, out, _ = run(
            capsys, "link",
            fx("ex-3.7.11-NE1.model"), fx("ex-3.7.11-NE2.model"),
            "--signed", "--diff", fx("ex-3.7.11-printed.csv"),
        )
        assert code == 0
        assert "shape: 4x5" in out
        assert "diff (1,1): computed I printed 1" in out
        assert "diff (1,2): computed 0 printed 1" in out
        assert "diff (1,3): computed I printed 1" in out
        assert "agreements: 17/20" in out

    def test_raw_product(self, capsys):
        code, out, _ = run(
            capsys, "link",
            fx("ex-3.7.11-NE1.model"), fx("ex-3.7.11-NE2.model"),
        )
        assert code == 0
        assert "-2I" in out  # raw entry (1,1) before sign thresholding


class TestExportDot:
    def test_neutro_graph_marks_indeterminacy(self, capsys, tmp_path):
        _, out, _ = run(capsys, "ngraph", "petersen", "vertex", "3")
        model = tmp_path / "petersen.model"
        model.write_text(out)
        code, dot, _ = run(capsys, "export", "dot", str(model))
        assert code == 0
        assert "shape=diamond" in dot  # indeterminate vertices

    def test_edge_styles(self, capsys):
        _, dot, _ = run(capsys, "export", "dot", fx("fig-3.2.8-NA.model"))
        assert dot.count("style=dotted") == 3
        assert '"v1" -- "v2";' in dot

    def test_plain_graph(self, capsys):
        _, dot, _ = run(capsys, "export", "dot", fx("fig-2.2.3.model"))
        assert dot.startswith("graph G {")
        assert dot.rstrip().endswith("}")

    def test_names_are_escaped(self):
        dot = export_dot(ConceptModel(['a"b', "c\\"], [[0, 1], [0, 0]]))
        assert '  "a\\"b" -> "c\\\\" [label="+1"];' in dot.splitlines()


# the commands that read each model kind, with `-` for the model on stdin;
# `{name}` is the first concept or domain name of the fixture before mutation
FUZZ_COMMANDS = {
    "graph": (["graph", "analyze", "-"], ["export", "dot", "-"]),
    "neutro-graph": (["ngraph", "classify", "-"], ["ngraph", "color", "-"]),
    "relation": (["rel", "props", "-"], ["rel", "closure", "-"]),
    "concept-model": (["cm", "run", "-", "--on", "{name}"], ["export", "dot", "-"]),
    "relational-model": (["rm", "run", "-", "--side", "domain", "--on", "{name}"],),
}


def _fuzz_cases():
    """(fixture text, argv) for each fixture and each command that reads it."""
    cases = []
    for fixture in sorted(os.listdir(FIXTURES)):
        if fixture.endswith(".model"):
            with open(fx(fixture), "r", encoding="utf-8") as fh:
                text = fh.read()
            mf = parse_model(text)
            names = getattr(mf.payload, "concept_names", None) or getattr(
                mf.payload, "domain_names", [""])
            cases += [(text, [a.format(name=names[0]) for a in argv])
                      for argv in FUZZ_COMMANDS[mf.kind]]
    return cases


# the tokens of a model text after its header and kind lines, and their
# kinds: integers (counts, vertices, weights), other numbers, and names
TOKEN = re.compile(r"[^\s,]+")
KINDS = (re.compile(r"-?\d+"), re.compile(r"[-+\d./]*I?"), re.compile(".*"))


def _kind(token):
    return next(i for i, kind in enumerate(KINDS) if kind.fullmatch(token))


# an edit: where (taken modulo the text length), how many characters to
# delete there, and what to insert in their place; or which token (taken
# modulo their count) to replace by which other token of its kind in the text
EDITS = st.one_of(
    st.tuples(
        st.integers(0, 10 ** 4), st.integers(0, 3),
        st.text(alphabet="0123456789 -+/.,IRCDx\n", max_size=2),
    ),
    st.tuples(st.integers(0, 10 ** 4), st.integers(0, 10 ** 4)),
)


def _edit(text, edit):
    """`text` after one edit of EDITS."""
    if len(edit) == 3:
        where, cut, insert = edit
        where %= len(text) + 1
        return text[:where] + insert + text[where + cut:]
    body = text.find("\n", text.find("\n") + 1) + 1
    tokens = list(TOKEN.finditer(text, body))
    if not tokens:
        return text
    old = tokens[edit[0] % len(tokens)]
    like = [t[0] for t in tokens if _kind(t[0]) == _kind(old[0])]
    return text[:old.start()] + like[edit[1] % len(like)] + text[old.end():]


class TestCliFuzz:
    """Mutated model text gives an exit code of 0-5 and, on failure, one
    `error:` line; no exception escapes `main`."""

    @settings(deadline=timedelta(seconds=5), max_examples=150)
    @given(st.sampled_from(_fuzz_cases()), st.lists(EDITS, min_size=1, max_size=3))
    def test_mutated_model(self, case, edits):
        text, argv = case
        for edit in edits:
            text = _edit(text, edit)
        out, err = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        finally:
            sys.stdin = stdin
        err = err.getvalue()
        assert code in range(6)
        if code:
            assert err.count("\n") == 1 and err.startswith("error: "), err
        else:
            assert err == ""
