"""End-to-end tests for the command line interface."""

import io
import os

import pytest

from neutromap.cli import main, parse_model, serialize_model

import goldens

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestModelFiles:
    def test_every_fixture_round_trips(self):
        names = sorted(n for n in os.listdir(FIXTURES) if n.endswith(".model"))
        assert names  # the corpus must be present
        for name in names:
            with open(fx(name), "r", encoding="utf-8") as fh:
                text = fh.read()
            assert serialize_model(parse_model(text)) == text, name

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
