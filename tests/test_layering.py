"""Layering: the library loads without the command-line front end, the
package loads no layer until one of its names is used, and each command
loads only the layers it calls and none of the heavy standard modules;
only a command that builds a+bI numbers loads `core` and `fractions`."""

import ast
import os

import pytest

import neutromap
from neutromap import core

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

EXPORTS = {
    "I", "NeutroMatrix", "NeutroNumber", "NotFoundError", "ONE", "ParseError",
    "ShapeError", "SizeLimitError", "SplitPair", "ZERO", "neutro_dimension",
    "nm_mul", "nm_rank", "nm_transpose", "nn_add", "nn_mul", "parse_matrix",
    "parse_number", "render_matrix", "split", "unsplit",
    "ColoringReport", "ConnectivityReport", "DegreeReport", "Graph",
    "MetricsReport", "Polynomial", "chromatic_polynomial", "coloring",
    "combine", "complement", "connectivity", "degree_report", "edit",
    "eulerian", "generate", "hamiltonian", "is_bipartite", "line_graph",
    "metrics", "spanning_tree_count", "tutte",
    "NeutroColoringReport", "NeutroDegreeReport", "NeutroGraph",
    "NeutroTreeReport", "adjacency", "classify", "classify_walk",
    "from_adjacency", "is_oriented", "neutro_coloring", "neutro_components",
    "neutro_degree_report", "neutro_eulerian", "neutro_isomorphic",
    "neutro_petersen", "neutro_tree", "strip_indeterminates",
    "DomRanHeight", "FI", "FONE", "FZERO", "FuzzyNeutroRelation",
    "FuzzyNeutroValue", "INDETERMINATE", "PropertyReport",
    "check_homomorphism", "dom_ran_height", "inverse", "lattice_max",
    "lattice_min", "maxmin_compose", "properties", "relational_join",
    "transitive_closure", "tri_all",
    "ConceptModel", "HiddenPattern", "RelationalModel", "RmResult", "balance",
    "basis_state", "cm_run", "degrade", "frm_convertible", "link",
    "parse_state", "render_state", "rm_run", "threshold",
    "ModelFile", "export_dot", "model_for", "parse_model", "serialize_model",
}

# `dataclasses` pulls in `inspect`, which pulls in `ast` and `dis`: several
# milliseconds at every start of a command that needs none of them
HEAVY = ("ast", "dataclasses", "dis", "inspect")
# the exact rationals, loaded with `core` only
EXACT = ("decimal", "fractions")
# prints the neutromap submodules and the HEAVY and EXACT modules a child
# has loaded after running its code
LOADED = (
    "import sys; {}; "
    "print(sorted(m for m in sys.modules if m.startswith('neutromap.') "
    "or m in %r), file=sys.stderr)" % (HEAVY + EXACT,)
)
RUN_CLI = "from neutromap.cli import main; main(sys.argv[1:])"


def test_import_neutromap_leaves_out_cli_and_argparse(python_child):
    r = python_child(
        "-c",
        "import sys, neutromap; "
        "print(sorted({'argparse', 'neutromap.cli'} & set(sys.modules)))",
    )
    assert (r.returncode, r.stdout, r.stderr) == (0, "[]\n", "")


def test_module_help_writes_nothing_to_stderr(python_child):
    r = python_child("-m", "neutromap.cli", "--help")
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout.startswith("usage: neutromap")


def test_import_neutromap_loads_no_layer(python_child):
    r = python_child("-c", LOADED.format("import neutromap"))
    assert (r.returncode, r.stderr) == (0, "[]\n")


def test_import_cli_loads_no_heavy_module(python_child):
    r = python_child("-c", LOADED.format("import neutromap.cli"))
    assert (r.returncode, r.stderr) == (
        0, "['neutromap.base', 'neutromap.cli', 'neutromap.formats']\n"
    )


def _fixture(name):
    return os.path.join(FIXTURES, name)


# every command loads the cli, base and formats; beyond those, only these,
# and `fractions` and `decimal` exactly when `core` is among them
@pytest.mark.parametrize(
    "argv, layers",
    [
        (["graph", "analyze", "complete-5"], {"graphs"}),
        (["graph", "analyze", _fixture("fig-2.2.3.model")], {"graphs"}),
        (["ngraph", "color", _fixture("fig-3.2.8-NA.model")], {"graphs", "ngraph"}),
        (["rel", "props", _fixture("ex-2.8.3.model")], {"core", "relations"}),
        (["cm", "run", _fixture("ex-3.7.1-NE.model"), "--on", "C1"], {"core", "engines"}),
        (
            ["rm", "run", _fixture("ex-3.7.10-NR.model"), "--side", "domain", "--on", "D1"],
            {"core", "engines"},
        ),
        (
            ["link", _fixture("ex-3.7.11-NE1.model"), _fixture("ex-3.7.11-NE2.model")],
            {"core", "engines"},
        ),
        (["export", "dot", _fixture("ex-2.8.3.model")], {"core", "relations"}),
    ],
    ids=["graph-analyze", "graph-analyze-model", "ngraph-color", "rel-props", "cm-run",
         "rm-run", "link", "export-dot"],
)
def test_command_loads_only_its_layers(python_child, argv, layers):
    r = python_child("-c", LOADED.format(RUN_CLI), *argv)
    # a failing command would print an `error:` line before the module list
    assert r.returncode == 0 and r.stdout and r.stderr.startswith("["), r.stderr
    loaded = ast.literal_eval(r.stderr)
    exact = EXACT if "core" in layers else ()
    assert loaded == sorted(
        ["neutromap." + m for m in {"base", "cli", "formats"} | layers] + list(exact))


def _module_trees():
    """(file name, parsed tree) for each module of the package."""
    src = os.path.dirname(neutromap.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def test_value_equality_is_written_once():
    """Only core's NeutroNumber, equal to ints and Fractions and hashed like
    them, and base's `_Value` write `__eq__`/`__hash__`; every other value
    class inherits them from `_Value` and gives only its `_key()`."""
    written = set()
    for name, tree in _module_trees():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                written |= {
                    (name, cls.name, node.name) for node in cls.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name in ("__eq__", "__hash__")
                }
    assert written == {
        (name, cls, method)
        for name, cls in (("core.py", "NeutroNumber"), ("base.py", "_Value"))
        for method in ("__eq__", "__hash__")
    }


def test_guards_live_in_one_table():
    """Every `_check_guard` call names a `_GUARDS` entry by a string literal,
    every entry has a call, and no module keeps a `*_GUARD` constant."""
    called, constants = set(), set()
    for name, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check_guard":
                guard = node.args[0]
                assert isinstance(guard, ast.Constant), (name, node.lineno)
                assert guard.value in core._GUARDS, (name, node.lineno)
                called.add(guard.value)
        constants |= {
            (name, target.id) for stmt in tree.body if isinstance(stmt, ast.Assign)
            for target in stmt.targets
            if isinstance(target, ast.Name) and target.id.endswith("_GUARD")
        }
    assert called == set(core._GUARDS)
    assert constants == set()


def test_no_library_function_recurses():
    """No function of the library layers, nested ones included, calls its own
    name: every search keeps its own stack, so the depth of an input never
    meets the interpreter's recursion limit.  The CLI, which recurses over
    one printed value, is outside."""
    layers = {"base.py", "core.py", "engines.py", "formats.py", "graphs.py", "ngraph.py",
              "relations.py"}
    recursive = {
        (name, func.name)
        for name, tree in _module_trees() if name in layers
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == func.name
    }
    assert recursive == set()


def test_all_is_the_export_list():
    assert len(neutromap.__all__) == len(EXPORTS)
    assert set(neutromap.__all__) == EXPORTS


def test_star_import_binds_every_export():
    namespace = {}
    exec("from neutromap import *", namespace)
    assert EXPORTS <= set(namespace)
    assert namespace["Graph"] is neutromap.graphs.Graph
    assert namespace["INDETERMINATE"] is neutromap.relations.INDETERMINATE


def test_layer_resolves_after_bare_import(python_child):
    r = python_child(
        "-c",
        "import neutromap; print(neutromap.graphs.Graph.__module__, "
        "neutromap.formats.__name__)",
    )
    assert (r.returncode, r.stdout, r.stderr) == (
        0, "neutromap.graphs neutromap.formats\n", ""
    )


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        neutromap.no_such_name


def test_dir_lists_all_and_the_exports():
    assert {"__all__", "__version__"} | EXPORTS <= set(dir(neutromap))
