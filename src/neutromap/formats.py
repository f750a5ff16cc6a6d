"""The textual model file and Graphviz DOT export.

One model format covers every payload kind behind a `kind` tag.  Parsing
and serialization are exact inverses on canonical files: comments and
blank lines are dropped, separators are normalized to ", ", and every file
ends in exactly one newline.  `KINDS` is the one table of kinds: each tag
maps to its payload class, body parser, body writer and DOT writer.  A
payload class is named, not imported, and each body parser imports its own
layer, so a command loads only the layer of the kinds it reads.
"""

import sys
from collections import namedtuple

from .core import (ParseError, SizeLimitError, ZERO, I, _Record, _SIGN_LABELS,
                   _check_guard, matrix_from_lines, meaningful_lines, render_matrix)

MODEL_HEADER = "neutromap-model 1"


class ModelFile(_Record):
    __slots__ = ("kind", "payload")


# payload: "layer.Class"; parse: numbered body lines -> payload; write:
# payload -> body lines; dot: payload -> DOT lines without the closing brace
Kind = namedtuple("Kind", "payload parse write dot")


def _tag(payload):
    """The kind tag of a payload object, or None.

    Only classes of loaded layers are tested: a payload's layer is loaded
    whenever the payload exists.
    """
    for tag, kind in KINDS.items():
        layer, _, name = kind.payload.partition(".")
        module = sys.modules.get("%s.%s" % (__package__, layer))
        if module is not None and isinstance(payload, getattr(module, name)):
            return tag
    return None


def model_for(payload):
    """Wrap a payload object in a ModelFile with its kind tag."""
    tag = _tag(payload)
    if tag is None:
        raise TypeError("no model kind for %r" % (type(payload).__name__,))
    return ModelFile(tag, payload)


def parse_model(text):
    lines = meaningful_lines(text)
    if not lines:
        raise ParseError("empty model file")
    no, first = lines[0]
    if first != MODEL_HEADER:
        raise ParseError("line %d: expected header %r" % (no, MODEL_HEADER))
    if len(lines) < 2 or not lines[1][1].startswith("kind "):
        raise ParseError("missing `kind <kind>` line")
    tag = lines[1][1][5:].strip()
    if tag not in KINDS:
        raise ParseError("unknown model kind %r" % (tag,))
    try:
        return ModelFile(tag, KINDS[tag].parse(lines[2:]))
    except (ParseError, SizeLimitError):
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_model(mf):
    if mf.kind not in KINDS:
        raise ValueError("unknown model kind %r" % (mf.kind,))
    lines = [MODEL_HEADER, "kind " + mf.kind] + KINDS[mf.kind].write(mf.payload)
    return "\n".join(lines) + "\n"


def export_dot(payload):
    """Graphviz text with the house styling for indeterminacy.

    Indeterminate edges are dotted and labeled I; indeterminate vertices get
    a diamond shape and their N_k labels; signed arcs carry +1/-1 labels;
    relational models and relations are ranked bipartite.
    """
    tag = _tag(payload)
    if tag is None:
        raise TypeError("cannot export %r to dot" % (type(payload).__name__,))
    return "\n".join(KINDS[tag].dot(payload) + ["}"]) + "\n"


# -------------------------------------------------------------- body parsers

def _parse_ints(no, line, count, what):
    parts = line.split()
    if len(parts) != count:
        raise ParseError("line %d: expected %s" % (no, what))
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError("line %d: expected %s" % (no, what)) from None


def _parse_graph_body(body):
    from .graphs import Graph

    if not body:
        raise ParseError("graph body needs an `n m` line")
    n, m = _parse_ints(body[0][0], body[0][1], 2, "`n m`")
    _check_guard("graph order", n)
    if len(body) - 1 != m:
        raise ParseError(
            "expected %d edge lines, found %d" % (m, len(body) - 1)
        )
    edges = [
        tuple(_parse_ints(no, line, 2, "`u v`")) for no, line in body[1:]
    ]
    return Graph(n, edges)


def _parse_neutro_body(body):
    from .ngraph import NeutroGraph

    if not body:
        raise ParseError("neutro-graph body needs an `n_real n_indet m directed` line")
    n_real, n_indet, m, directed = _parse_ints(
        body[0][0], body[0][1], 4, "`n_real n_indet m directed`"
    )
    if directed not in (0, 1):
        raise ParseError("line %d: directed flag must be 0 or 1" % (body[0][0],))
    _check_guard("graph order", n_real + n_indet)
    if len(body) - 1 != m:
        raise ParseError(
            "expected %d edge lines, found %d" % (m, len(body) - 1)
        )
    edges = []
    for no, line in body[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[2] not in ("R", "I"):
            raise ParseError("line %d: expected `u v R|I`" % (no,))
        try:
            edges.append((int(parts[0]), int(parts[1]), parts[2]))
        except ValueError:
            raise ParseError("line %d: expected `u v R|I`" % (no,)) from None
    return NeutroGraph(n_real, n_indet, edges, directed=bool(directed))


def _parse_relation_body(body):
    from .relations import FuzzyNeutroRelation, FuzzyNeutroValue

    if not body:
        raise ParseError("relation body needs a column-label header line")
    cols = [c.strip() for c in body[0][1].split(",")]
    if any(not c for c in cols):
        raise ParseError("line %d: empty column label" % (body[0][0],))
    row_labels = []
    rows = []
    for no, line in body[1:]:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != len(cols) + 1:
            raise ParseError(
                "line %d: expected a row label and %d values" % (no, len(cols))
            )
        row_labels.append(parts[0])
        try:
            rows.append([FuzzyNeutroValue.parse(t) for t in parts[1:]])
        except ParseError as exc:
            raise ParseError("line %d: %s" % (no, exc)) from None
    return FuzzyNeutroRelation(row_labels, cols, rows)


def _parse_concept_body(body):
    from .engines import ConceptModel

    if not body or not body[0][1].startswith("concepts "):
        raise ParseError("concept-model body needs a `concepts ...` line")
    names = body[0][1].split()[1:]
    i = 1
    clamp_names = None
    # a bare `clamp` line is the empty clamp: clamp nothing, unlike no line
    if i < len(body) and body[i][1].split()[0] == "clamp":
        clamp_names = body[i][1].split()[1:]
        i += 1
    if i >= len(body) or body[i][1] != "matrix":
        raise ParseError("concept-model body needs a `matrix` line")
    weights = matrix_from_lines(body[i + 1 :], "missing matrix rows")
    clamp = None
    if clamp_names is not None:
        try:
            clamp = frozenset(names.index(c) for c in clamp_names)
        except ValueError:
            raise ParseError("clamp names must be declared concepts") from None
    return ConceptModel(names, weights, clamp)


def _parse_relational_body(body):
    from .engines import RelationalModel

    if not body or not body[0][1].startswith("domain "):
        raise ParseError("relational-model body needs a `domain ...` line")
    domain = body[0][1].split()[1:]
    if len(body) < 2 or not body[1][1].startswith("range "):
        raise ParseError("relational-model body needs a `range ...` line")
    rng = body[1][1].split()[1:]
    if len(body) < 3 or body[2][1] != "matrix":
        raise ParseError("relational-model body needs a `matrix` line")
    weights = matrix_from_lines(body[3:], "missing matrix rows")
    return RelationalModel(domain, rng, weights)


# -------------------------------------------------------------- body writers

def _write_graph_body(G):
    return ["%d %d" % (G.vertex_count, G.m)] + ["%d %d" % e for e in G.edges]


def _write_neutro_body(G):
    head = "%d %d %d %d" % (G.n_real, G.n_indet, G.m, 1 if G.directed else 0)
    return [head] + ["%d %d %s" % e for e in G.edges]


def _write_relation_body(R):
    return [", ".join(R.col_labels)] + [
        ", ".join([lbl] + [str(v) for v in row])
        for lbl, row in zip(R.row_labels, R.values)
    ]


def _write_concept_body(model):
    lines = ["concepts " + " ".join(model.concept_names)]
    if model.default_clamp is not None:
        lines.append(" ".join(
            ["clamp"] + [model.concept_names[i] for i in sorted(model.default_clamp)]
        ))
    return lines + ["matrix"] + render_matrix(model.weights).splitlines()


def _write_relational_body(model):
    return [
        "domain " + " ".join(model.domain_names),
        "range " + " ".join(model.range_names),
        "matrix",
    ] + render_matrix(model.weights).splitlines()


# --------------------------------------------------------------- DOT writers

def _q(name):
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


def _dot_graph(G):
    lines = ["graph G {"]
    for v in range(G.vertex_count):
        lines.append("  %s;" % _q("v%d" % (v + 1)))
    for u, v in G.edges:
        lines.append("  %s -- %s;" % (_q("v%d" % (u + 1)), _q("v%d" % (v + 1))))
    return lines


def _dot_neutro_graph(G):
    head, arrow = ("digraph", "->") if G.directed else ("graph", "--")
    lines = ["%s G {" % (head,)]
    for v in range(G.vertex_count):
        if G.is_indet_vertex(v):
            lines.append("  %s [shape=diamond];" % _q(G.label(v)))
        else:
            lines.append("  %s;" % _q(G.label(v)))
    for u, v, t in G.edges:
        edge = "  %s %s %s" % (_q(G.label(u)), arrow, _q(G.label(v)))
        if t == "I":
            edge += ' [style=dotted, label="I"]'
        lines.append(edge + ";")
    return lines


def _arc(src, dst, label, dotted):
    style = "style=dotted, " if dotted else ""
    return '  %s -> %s [%slabel="%s"];' % (_q(src), _q(dst), style, label)


def _weight_arcs(rows, cols, M):
    """One arc per nonzero weight: I dotted, signs labeled +1/-1."""
    return [
        _arc(x, y, _SIGN_LABELS[w], w == I)
        for i, x in enumerate(rows)
        for j, y in enumerate(cols)
        if (w := M.entry(i, j)) != ZERO
    ]


def _dot_concept(model):
    names = model.concept_names
    return (
        ["digraph G {"] + ["  %s;" % _q(name) for name in names]
        + _weight_arcs(names, names, model.weights)
    )


def _ranked(left, right):
    """Header of a ranked bipartite digraph: left and right columns."""
    return ["digraph G {", "  rankdir=LR;"] + [
        "  { rank=same; %s }" % " ".join("%s;" % _q(x) for x in side)
        for side in (left, right)
    ]


def _dot_relational(model):
    return _ranked(model.domain_names, model.range_names) + _weight_arcs(
        model.domain_names, model.range_names, model.weights
    )


def _dot_relation(R):
    return _ranked(R.row_labels, R.col_labels) + [
        _arc(x, y, v, v.indeterminate)
        for x, row in zip(R.row_labels, R.values)
        for y, v in zip(R.col_labels, row)
        if v.magnitude != 0
    ]


KINDS = {
    "graph": Kind("graphs.Graph", _parse_graph_body, _write_graph_body, _dot_graph),
    "neutro-graph": Kind(
        "ngraph.NeutroGraph", _parse_neutro_body, _write_neutro_body,
        _dot_neutro_graph,
    ),
    "relation": Kind(
        "relations.FuzzyNeutroRelation", _parse_relation_body,
        _write_relation_body, _dot_relation,
    ),
    "concept-model": Kind(
        "engines.ConceptModel", _parse_concept_body, _write_concept_body,
        _dot_concept,
    ),
    "relational-model": Kind(
        "engines.RelationalModel", _parse_relational_body,
        _write_relational_body, _dot_relational,
    ),
}
