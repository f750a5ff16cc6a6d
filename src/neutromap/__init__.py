"""Neutrosophic numbers, graphs, relations and cognitive maps.

The package is organized by layer: errors, records and size guards in
`base`, exact a+bI arithmetic in `core`, which re-exports `base`, classical
desk-scale graph theory in `graphs`, its neutrosophic extension in `ngraph`,
fuzzy/neutrosophic relations in `relations`, cognitive and relational map
engines in `engines`, and the textual model file and DOT export in
`formats`.  `import neutromap` loads none of them: a layer loads
on first use of one of its names (or of the layer itself), through the
module `__getattr__` of PEP 562.  The command-line front end,
`neutromap.cli`, sits on top and is never loaded from here.
"""

import importlib

__version__ = "0.1.0"

# layer -> the names it exports; the keys are the layer names themselves
_EXPORTS = {
    "core": """I NeutroMatrix NeutroNumber NotFoundError ONE ParseError ShapeError
        SizeLimitError SplitPair ZERO neutro_dimension nm_mul nm_rank nm_transpose
        nn_add nn_mul parse_matrix parse_number render_matrix split unsplit""",
    "graphs": """ColoringReport ConnectivityReport DegreeReport Graph MetricsReport
        Polynomial chromatic_polynomial coloring combine complement connectivity
        degree_report edit eulerian generate hamiltonian is_bipartite line_graph
        metrics spanning_tree_count tutte""",
    "ngraph": """NeutroColoringReport NeutroDegreeReport NeutroGraph NeutroTreeReport
        adjacency classify classify_walk from_adjacency is_oriented neutro_coloring
        neutro_components neutro_degree_report neutro_eulerian neutro_isomorphic
        neutro_petersen neutro_tree strip_indeterminates""",
    "relations": """DomRanHeight FI FONE FZERO FuzzyNeutroRelation FuzzyNeutroValue
        INDETERMINATE PropertyReport check_homomorphism dom_ran_height inverse
        lattice_max lattice_min maxmin_compose properties relational_join
        transitive_closure tri_all""",
    "engines": """ConceptModel HiddenPattern RelationalModel RmResult balance
        basis_state cm_run degrade frm_convertible link parse_state render_state
        rm_run threshold""",
    "formats": "ModelFile export_dot model_for parse_model serialize_model",
}
_OWNER = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it on the package, so this runs once
        return importlib.import_module("." + name, __name__)
    if name not in _OWNER:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _OWNER[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
