"""Model files, DOT export, and the neutromap command-line front end.

One textual model format covers every payload kind behind a `kind` tag.
Parsing and serialization are exact inverses on canonical files: comments
and blank lines are dropped, separators are normalized to ", ", and every
file ends in exactly one newline.

Exit codes: 0 success, 1 generic domain error, 2 parse error, 3 shape
error, 4 size-guard violation, 5 unknown name/file.
"""

import argparse
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import engines, graphs, ngraph, relations
from .core import (
    NeutroMatrix,
    NotFoundError,
    ParseError,
    ShapeError,
    SizeLimitError,
    ZERO,
    I,
    ONE,
    parse_matrix,
    parse_number,
    render_matrix,
)

MODEL_HEADER = "neutromap-model 1"
KINDS = ("graph", "neutro-graph", "relation", "concept-model", "relational-model")


@dataclass(frozen=True)
class ModelFile:
    kind: str
    payload: object


def model_for(payload):
    """Wrap a payload object in a ModelFile with its kind tag."""
    if isinstance(payload, ngraph.NeutroGraph):
        return ModelFile("neutro-graph", payload)
    if isinstance(payload, graphs.Graph):
        return ModelFile("graph", payload)
    if isinstance(payload, relations.FuzzyNeutroRelation):
        return ModelFile("relation", payload)
    if isinstance(payload, engines.ConceptModel):
        return ModelFile("concept-model", payload)
    if isinstance(payload, engines.RelationalModel):
        return ModelFile("relational-model", payload)
    raise TypeError("no model kind for %r" % (type(payload).__name__,))


def _meaningful_lines(text):
    out = []
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((no, line))
    return out


def _parse_ints(no, line, count, what):
    parts = line.split()
    if len(parts) != count:
        raise ParseError("line %d: expected %s" % (no, what))
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError("line %d: expected %s" % (no, what)) from None


def parse_model(text):
    lines = _meaningful_lines(text)
    if not lines:
        raise ParseError("empty model file")
    no, first = lines[0]
    if first != MODEL_HEADER:
        raise ParseError("line %d: expected header %r" % (no, MODEL_HEADER))
    if len(lines) < 2 or not lines[1][1].startswith("kind "):
        raise ParseError("missing `kind <kind>` line")
    kind = lines[1][1][5:].strip()
    body = lines[2:]
    try:
        if kind == "graph":
            payload = _parse_graph_body(body)
        elif kind == "neutro-graph":
            payload = _parse_neutro_body(body)
        elif kind == "relation":
            payload = _parse_relation_body(body)
        elif kind == "concept-model":
            payload = _parse_concept_body(body)
        elif kind == "relational-model":
            payload = _parse_relational_body(body)
        else:
            raise ParseError("unknown model kind %r" % (kind,))
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return ModelFile(kind, payload)


def _parse_graph_body(body):
    if not body:
        raise ParseError("graph body needs an `n m` line")
    n, m = _parse_ints(body[0][0], body[0][1], 2, "`n m`")
    if len(body) - 1 != m:
        raise ParseError(
            "expected %d edge lines, found %d" % (m, len(body) - 1)
        )
    edges = [
        tuple(_parse_ints(no, line, 2, "`u v`")) for no, line in body[1:]
    ]
    return graphs.Graph(n, edges)


def _parse_neutro_body(body):
    if not body:
        raise ParseError("neutro-graph body needs an `n_real n_indet m directed` line")
    n_real, n_indet, m, directed = _parse_ints(
        body[0][0], body[0][1], 4, "`n_real n_indet m directed`"
    )
    if directed not in (0, 1):
        raise ParseError("line %d: directed flag must be 0 or 1" % (body[0][0],))
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
    return ngraph.NeutroGraph(n_real, n_indet, edges, directed=bool(directed))


def _parse_relation_body(body):
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
            rows.append([relations.FuzzyNeutroValue.parse(t) for t in parts[1:]])
        except ParseError as exc:
            raise ParseError("line %d: %s" % (no, exc)) from None
    return relations.FuzzyNeutroRelation(row_labels, cols, rows)


def _matrix_rows(body, what):
    if not body:
        raise ParseError("missing %s rows" % (what,))
    rows = []
    for no, line in body:
        try:
            rows.append([parse_number(tok) for tok in line.split(",")])
        except ParseError as exc:
            raise ParseError("line %d: %s" % (no, exc)) from None
    return NeutroMatrix(rows)


def _parse_concept_body(body):
    if not body or not body[0][1].startswith("concepts "):
        raise ParseError("concept-model body needs a `concepts ...` line")
    names = body[0][1].split()[1:]
    i = 1
    clamp_names = None
    if i < len(body) and body[i][1].startswith("clamp "):
        clamp_names = body[i][1].split()[1:]
        i += 1
    if i >= len(body) or body[i][1] != "matrix":
        raise ParseError("concept-model body needs a `matrix` line")
    weights = _matrix_rows(body[i + 1 :], "matrix")
    clamp = None
    if clamp_names is not None:
        try:
            clamp = frozenset(names.index(c) for c in clamp_names)
        except ValueError:
            raise ParseError("clamp names must be declared concepts") from None
    return engines.ConceptModel(names, weights, clamp)


def _parse_relational_body(body):
    if not body or not body[0][1].startswith("domain "):
        raise ParseError("relational-model body needs a `domain ...` line")
    domain = body[0][1].split()[1:]
    if len(body) < 2 or not body[1][1].startswith("range "):
        raise ParseError("relational-model body needs a `range ...` line")
    rng = body[1][1].split()[1:]
    if len(body) < 3 or body[2][1] != "matrix":
        raise ParseError("relational-model body needs a `matrix` line")
    weights = _matrix_rows(body[3:], "matrix")
    return engines.RelationalModel(domain, rng, weights)


def serialize_model(mf):
    k, p = mf.kind, mf.payload
    lines = [MODEL_HEADER, "kind " + k]
    if k == "graph":
        lines.append("%d %d" % (p.vertex_count, p.m))
        lines += ["%d %d" % e for e in p.edges]
    elif k == "neutro-graph":
        lines.append(
            "%d %d %d %d" % (p.n_real, p.n_indet, p.m, 1 if p.directed else 0)
        )
        lines += ["%d %d %s" % e for e in p.edges]
    elif k == "relation":
        lines.append(", ".join(p.col_labels))
        for lbl, row in zip(p.row_labels, p.values):
            lines.append(", ".join([lbl] + [str(v) for v in row]))
    elif k == "concept-model":
        lines.append("concepts " + " ".join(p.concept_names))
        if p.default_clamp is not None:
            lines.append(
                "clamp "
                + " ".join(p.concept_names[i] for i in sorted(p.default_clamp))
            )
        lines.append("matrix")
        lines += render_matrix(p.weights).splitlines()
    elif k == "relational-model":
        lines.append("domain " + " ".join(p.domain_names))
        lines.append("range " + " ".join(p.range_names))
        lines.append("matrix")
        lines += render_matrix(p.weights).splitlines()
    else:
        raise ValueError("unknown model kind %r" % (k,))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- DOT export

def _q(name):
    return '"%s"' % (name,)


def export_dot(payload):
    """Graphviz text with the house styling for indeterminacy.

    Indeterminate edges are dotted and labeled I; indeterminate vertices get
    a diamond shape and their N_k labels; signed arcs carry +1/-1 labels;
    relational models and relations are ranked bipartite.
    """
    if isinstance(payload, ngraph.NeutroGraph):
        return _dot_neutro_graph(payload)
    if isinstance(payload, graphs.Graph):
        return _dot_graph(payload)
    if isinstance(payload, engines.ConceptModel):
        return _dot_concept(payload)
    if isinstance(payload, engines.RelationalModel):
        return _dot_relational(payload)
    if isinstance(payload, relations.FuzzyNeutroRelation):
        return _dot_relation(payload)
    raise TypeError("cannot export %r to dot" % (type(payload).__name__,))


def _dot_graph(G):
    lines = ["graph G {"]
    for v in range(G.vertex_count):
        lines.append("  %s;" % _q("v%d" % (v + 1)))
    for u, v in G.edges:
        lines.append("  %s -- %s;" % (_q("v%d" % (u + 1)), _q("v%d" % (v + 1))))
    lines.append("}")
    return "\n".join(lines) + "\n"


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
    lines.append("}")
    return "\n".join(lines) + "\n"


_SIGN_LABELS = {1: "+1", -1: "-1"}


def _arc(src, dst, w):
    if w == I:
        return '  %s -> %s [style=dotted, label="I"];' % (src, dst)
    return '  %s -> %s [label="%s"];' % (src, dst, _SIGN_LABELS[w.real])


def _dot_concept(model):
    lines = ["digraph G {"]
    for name in model.concept_names:
        lines.append("  %s;" % _q(name))
    n = model.size
    for i in range(n):
        for j in range(n):
            w = model.weights.entry(i, j)
            if w != ZERO:
                lines.append(
                    _arc(_q(model.concept_names[i]), _q(model.concept_names[j]), w)
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_relational(model):
    lines = ["digraph G {", "  rankdir=LR;"]
    lines.append("  { rank=same; %s }" % " ".join(
        "%s;" % _q(d) for d in model.domain_names
    ))
    lines.append("  { rank=same; %s }" % " ".join(
        "%s;" % _q(r) for r in model.range_names
    ))
    for i, d in enumerate(model.domain_names):
        for j, r in enumerate(model.range_names):
            w = model.weights.entry(i, j)
            if w != ZERO:
                lines.append(_arc(_q(d), _q(r), w))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_relation(R):
    lines = ["digraph G {", "  rankdir=LR;"]
    lines.append("  { rank=same; %s }" % " ".join(
        "%s;" % _q(x) for x in R.row_labels
    ))
    lines.append("  { rank=same; %s }" % " ".join(
        "%s;" % _q(y) for y in R.col_labels
    ))
    for i, x in enumerate(R.row_labels):
        for j, y in enumerate(R.col_labels):
            v = R.values[i][j]
            if v.magnitude == 0:
                continue
            if v.indeterminate:
                lines.append(
                    '  %s -> %s [style=dotted, label="%s"];' % (_q(x), _q(y), v)
                )
            else:
                lines.append('  %s -> %s [label="%s"];' % (_q(x), _q(y), v))
    lines.append("}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- output

def _fmt(v):
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "none"
    if v is relations.INDETERMINATE:
        return "indeterminate"
    if isinstance(v, (list, tuple)):
        return " ".join(_fmt(x) for x in v) if len(v) else "none"
    return str(v)


class _Out:
    def __init__(self, fmt):
        self.structured = fmt == "structured"
        self.lines = []

    def put(self, key, label, value):
        if self.structured:
            self.lines.append("%s = %s" % (key, _fmt(value)))
        else:
            self.lines.append("%s: %s" % (label, _fmt(value)))

    def block(self, key, label, text):
        """A preformatted multi-line block (matrix, model file, dot)."""
        if self.structured:
            for idx, line in enumerate(text.rstrip("\n").split("\n")):
                self.lines.append("%s.%d = %s" % (key, idx, line))
        else:
            if label:
                self.lines.append(label + ":")
            self.lines.append(text.rstrip("\n"))

    def text(self):
        if not self.lines:
            return ""
        return "\n".join(self.lines) + "\n"


# -------------------------------------------------------------------- input

def _read_text(target):
    if target == "-":
        return sys.stdin.read()
    if not os.path.exists(target):
        raise NotFoundError("no such file: %s" % (target,))
    with open(target, "r", encoding="utf-8") as fh:
        return fh.read()


_FAMILIES = ("complete-bipartite", "complete", "cycle", "path", "star", "wheel")


def _generator(name):
    if name == "petersen":
        return graphs.generate("petersen")
    for fam in _FAMILIES:
        if name.startswith(fam + "-"):
            try:
                params = [int(x) for x in name[len(fam) + 1 :].split("-")]
            except ValueError:
                return None
            return graphs.generate(fam, *params)
    return None


def _load_model(target, want):
    mf = parse_model(_read_text(target))
    if mf.kind not in want:
        raise ValueError(
            "%s is a %s model; expected %s" % (target, mf.kind, " or ".join(want))
        )
    return mf.payload


def _load_graph(target, from_csv):
    if from_csv:
        M = parse_matrix(_read_text(target))
        if M.rows != M.cols:
            raise ShapeError("adjacency csv must be square")
        edges = []
        for i in range(M.rows):
            if M.entry(i, i) != ZERO:
                raise ValueError("adjacency csv needs a zero diagonal")
            for j in range(i + 1, M.cols):
                x = M.entry(i, j)
                if x != M.entry(j, i):
                    raise ValueError(
                        "asymmetric adjacency at (%d, %d)" % (i + 1, j + 1)
                    )
                if x == ONE:
                    edges.append((i, j))
                elif x != ZERO:
                    raise ValueError("graph adjacency entries must be 0 or 1")
        return graphs.Graph(M.rows, edges)
    if target != "-" and not os.path.exists(target):
        G = _generator(target)
        if G is None:
            raise NotFoundError("no such file or generator: %s" % (target,))
        return G
    return _load_model(target, ("graph",))


def _load_relation(target, from_csv):
    if from_csv:
        M = parse_matrix(_read_text(target))
        rows = [
            [str(M.entry(i, j)) for j in range(M.cols)] for i in range(M.rows)
        ]
        # one x1.. family on both axes, so the middle labels of two CSVs meet
        labels = ["x%d" % (i + 1) for i in range(max(M.rows, M.cols))]
        return relations.FuzzyNeutroRelation.from_tokens(
            rows, labels[:M.rows], labels[:M.cols]
        )
    return _load_model(target, ("relation",))


def _load_concept_model(target, from_csv):
    if from_csv:
        M = parse_matrix(_read_text(target))
        names = ["C%d" % (i + 1) for i in range(M.rows)]
        return engines.ConceptModel(names, M)
    return _load_model(target, ("concept-model",))


def _load_relational_model(target, from_csv):
    if from_csv:
        M = parse_matrix(_read_text(target))
        dom = ["D%d" % (i + 1) for i in range(M.rows)]
        rng = ["R%d" % (j + 1) for j in range(M.cols)]
        return engines.RelationalModel(dom, rng, M)
    return _load_model(target, ("relational-model",))


def _load_weights(target, from_csv):
    if from_csv:
        return parse_matrix(_read_text(target))
    payload = _load_model(target, ("relational-model", "concept-model"))
    return payload.weights


def _split_names(arg):
    names = [n for n in arg.split(",") if n]
    if not names:
        raise ValueError("empty name list")
    return names


# ----------------------------------------------------------------- commands

def _cmd_graph_analyze(args, fmt):
    G = _load_graph(args.target, args.from_csv)
    out = _Out(fmt)
    out.put("graph.vertices", "vertices", G.vertex_count)
    out.put("graph.edges", "edges", G.m)
    flags = (
        "degree", "connectivity", "metrics", "bipartite", "coloring",
        "polynomial", "tree_count", "tutte", "eulerian", "hamiltonian",
    )
    if not any(getattr(args, f) for f in flags):
        args.degree = args.connectivity = True

    if args.degree:
        r = graphs.degree_report(G)
        out.put("degree.per-vertex", "degrees", r.degrees)
        out.put("degree.min", "min degree", r.min_degree)
        out.put("degree.max", "max degree", r.max_degree)
        out.put("degree.sequence", "degree sequence", r.sequence)
    if args.connectivity:
        r = graphs.connectivity(G)
        out.put("connectivity.components", "components", len(r.components))
        for i, comp in enumerate(r.components):
            out.put("connectivity.component.%d" % i, "component %d" % i, comp)
        out.put("connectivity.connected", "connected", r.is_connected)
        out.put(
            "connectivity.cut-vertices", "cut vertices",
            tuple(sorted(r.cut_vertices)),
        )
        out.put(
            "connectivity.cut-edges", "cut edges",
            tuple("%d-%d" % e for e in sorted(r.cut_edges)),
        )
    if args.metrics:
        r = graphs.metrics(G)
        out.put("metrics.girth", "girth", r.girth)
        out.put("metrics.circumference", "circumference", r.circumference)
        out.put("metrics.diameter", "diameter", r.diameter)
        for v, row in enumerate(r.distances):
            out.put(
                "metrics.distances.%d" % v, "distances from %d" % v,
                tuple("-" if d is None else d for d in row),
            )
    if args.bipartite:
        flag, cert = graphs.is_bipartite(G)
        out.put("bipartite.flag", "bipartite", flag)
        if flag:
            out.put("bipartite.part.0", "part 0", cert[0])
            out.put("bipartite.part.1", "part 1", cert[1])
        else:
            out.put("bipartite.odd-cycle", "odd cycle", cert)
    if args.coloring:
        r = graphs.coloring(G)
        out.put("coloring.chromatic-number", "chromatic number", r.chromatic_number)
        out.put("coloring.vertex-colors", "vertex colors", r.vertex_colors)
        out.put(
            "coloring.edge-chromatic-number", "edge chromatic number",
            r.edge_chromatic_number,
        )
        out.put(
            "coloring.edge-colors", "edge colors",
            tuple(
                "%d-%d=%d" % (u, v, c)
                for (u, v), c in zip(G.edges, r.edge_colors)
            ),
        )
    if args.polynomial:
        out.put(
            "polynomial.chromatic", "chromatic polynomial",
            graphs.chromatic_polynomial(G),
        )
    if args.tree_count:
        out.put(
            "spanning-trees.count", "spanning trees", graphs.spanning_tree_count(G)
        )
    if args.tutte:
        matrix, matching = graphs.tutte(G, seed=args.seed)
        for i, row in enumerate(matrix):
            out.put("tutte.row.%d" % i, "tutte row %d" % i, ", ".join(row))
        out.put("tutte.perfect-matching", "perfect matching", matching)
    if args.eulerian:
        flag, tour = graphs.eulerian(G)
        out.put("eulerian.flag", "eulerian", flag)
        if flag:
            out.put(
                "eulerian.tour", "euler tour",
                tuple("%d-%d" % step for step in tour),
            )
    if args.hamiltonian:
        closure, flag, cycle = graphs.hamiltonian(G)
        out.put(
            "hamiltonian.closure-complete", "closure complete",
            closure.m == G.vertex_count * (G.vertex_count - 1) // 2,
        )
        out.put("hamiltonian.flag", "hamiltonian", flag)
        out.put("hamiltonian.cycle", "hamiltonian cycle", cycle)
    return out.text()


def _cmd_ngraph_classify(args, fmt):
    G = _load_model(args.target, ("neutro-graph",))
    out = _Out(fmt)
    out.put("classify.kind", "classification", ngraph.classify(G))
    out.put("classify.real-vertices", "real vertices", G.n_real)
    out.put("classify.indet-vertices", "indeterminate vertices", G.n_indet)
    real_edges = sum(1 for _u, _v, t in G.edges if t == "R")
    out.put("classify.real-edges", "real edges", real_edges)
    out.put("classify.indet-edges", "indeterminate edges", G.m - real_edges)
    return out.text()


def _cmd_ngraph_color(args, fmt):
    G = _load_model(args.target, ("neutro-graph",))
    r = ngraph.neutro_coloring(G)
    out = _Out(fmt)
    out.put(
        "coloring.chromatic-number", "neutrosophic chromatic number",
        r.chromatic_number,
    )
    out.put(
        "coloring.vertex-colors", "vertex colors",
        tuple(
            "%s=%d" % (G.label(v), c) for v, c in enumerate(r.vertex_colors)
        ),
    )
    out.put(
        "coloring.edge-chromatic-number", "neutrosophic edge chromatic number",
        r.edge_chromatic_number,
    )
    out.put(
        "coloring.edge-colors", "edge colors",
        tuple(
            "%s-%s=%d" % (G.label(u), G.label(v), c)
            for (u, v, _t), c in zip(G.edges, r.edge_colors)
        ),
    )
    return out.text()


def _cmd_ngraph_petersen(args, fmt):
    if args.kind in ("vertex", "edge") and len(args.params) != 1:
        raise ValueError("%s variant takes exactly one k" % (args.kind,))
    if args.kind == "strong" and len(args.params) != 2:
        raise ValueError("strong variant takes j and k")
    G = ngraph.neutro_petersen(args.kind, *args.params)
    out = _Out(fmt)
    out.block("petersen.model", "", serialize_model(model_for(G)))
    return out.text()


def _cmd_rel(args, fmt):
    out = _Out(fmt)
    if args.action == "compose":
        P = _load_relation(args.inputs[0], args.from_csv)
        Q = _load_relation(args.inputs[1], args.from_csv)
        C = relations.maxmin_compose(P, Q)
        out.block("compose.model", "", serialize_model(model_for(C)))
    elif args.action == "closure":
        R = _load_relation(args.inputs[0], args.from_csv)
        C = relations.transitive_closure(R)
        out.block("closure.model", "", serialize_model(model_for(C)))
    elif args.action == "props":
        R = _load_relation(args.inputs[0], args.from_csv)
        report = relations.properties(R, Fraction(args.epsilon))
        for field in (
            "reflexive", "epsilon_reflexive", "irreflexive", "anti_reflexive",
            "symmetric", "asymmetric", "antisymmetric", "transitive",
            "anti_transitive", "compatibility", "partial_order",
        ):
            label = field.replace("_", " ")
            out.put("props." + field.replace("_", "-"), label, getattr(report, field))
    elif args.action == "join":
        P = _load_relation(args.inputs[0], args.from_csv)
        Q = _load_relation(args.inputs[1], args.from_csv)
        table = relations.relational_join(P, Q)
        for (x, y, z), v in table.items():
            out.put("join.%s.%s.%s" % (x, y, z), "%s %s %s" % (x, y, z), v)
    else:
        raise ValueError("unknown rel action %r" % (args.action,))
    return out.text()


def _render_pattern(out, prefix, label, pattern):
    out.put(prefix + ".kind", label + " pattern", pattern.kind)
    if pattern.kind == "fixed-point":
        out.put(
            prefix + ".state", label + " fixed point",
            engines.render_state(pattern.states[0]),
        )
    else:
        for i, s in enumerate(pattern.states):
            out.put(
                "%s.cycle.%d" % (prefix, i), "%s cycle state %d" % (label, i),
                engines.render_state(s),
            )
    out.put(prefix + ".steps", label + " steps to enter", pattern.steps_to_enter)


def _cmd_cm_run(args, fmt):
    model = _load_concept_model(args.model, args.from_csv)
    if args.degrade:
        model = engines.degrade(model)
    on = [model.index(n) for n in _split_names(args.on)]
    clamp = None
    if args.clamp is not None:
        clamp = frozenset(model.index(n) for n in _split_names(args.clamp))
    s0 = engines.basis_state(model.size, on)
    pattern, trajectory = engines.cm_run(model, s0, clamp)
    out = _Out(fmt)
    out.put("concepts", "concepts", model.concept_names)
    for i, s in enumerate(trajectory):
        out.put("state.%d" % i, "state %d" % i, engines.render_state(s))
    if pattern.kind == "fixed-point":
        out.put("pattern.kind", "hidden pattern", "fixed-point")
        out.put(
            "pattern.state", "fixed point", engines.render_state(pattern.states[0])
        )
    else:
        out.put("pattern.kind", "hidden pattern", "limit-cycle")
        for i, s in enumerate(pattern.states):
            out.put(
                "pattern.cycle.%d" % i, "cycle state %d" % i,
                engines.render_state(s),
            )
    out.put("pattern.steps", "steps to enter", pattern.steps_to_enter)
    return out.text()


def _cmd_rm_run(args, fmt):
    model = _load_relational_model(args.model, args.from_csv)
    names = model.domain_names if args.side == "domain" else model.range_names
    on = []
    for name in _split_names(args.on):
        side, idx = model.index(name)
        if side != args.side:
            raise ValueError(
                "%s is on the %s side; run starts on the %s side"
                % (name, side, args.side)
            )
        on.append(idx)
    clamp = None
    if args.clamp is not None:
        clamp = set()
        for name in _split_names(args.clamp):
            side, idx = model.index(name)
            if side != args.side:
                raise ValueError("clamp node %s is not on the %s side" % (name, args.side))
            clamp.add(idx)
    s0 = engines.basis_state(len(names), on)
    result = engines.rm_run(model, s0, args.side, clamp)
    out = _Out(fmt)
    out.put("domain", "domain", model.domain_names)
    out.put("range", "range", model.range_names)
    for i, (X, Y) in enumerate(result.trajectory):
        out.put(
            "pair.%d" % i, "pair %d" % i,
            engines.render_state(X) + " / " + engines.render_state(Y),
        )
    _render_pattern(out, "domain-pattern", "domain", result.domain)
    _render_pattern(out, "range-pattern", "range", result.range)
    return out.text()


def _cmd_link(args, fmt):
    mats = [_load_weights(t, args.from_csv) for t in args.inputs]
    raw, signed = engines.link(mats)
    chosen = signed if args.signed else raw
    out = _Out(fmt)
    out.put("link.shape", "shape", "%dx%d" % (chosen.rows, chosen.cols))
    out.block("link.matrix", "matrix", render_matrix(chosen))
    if args.diff is not None:
        printed = parse_matrix(_read_text(args.diff))
        if (printed.rows, printed.cols) != (signed.rows, signed.cols):
            raise ShapeError(
                "diff matrix is %dx%d, signed result is %dx%d"
                % (printed.rows, printed.cols, signed.rows, signed.cols)
            )
        agree = 0
        for i in range(signed.rows):
            for j in range(signed.cols):
                ours, theirs = signed.entry(i, j), printed.entry(i, j)
                if ours == theirs:
                    agree += 1
                else:
                    out.put(
                        "diff.mismatch.%d.%d" % (i + 1, j + 1),
                        "diff (%d,%d)" % (i + 1, j + 1),
                        "computed %s printed %s" % (ours, theirs),
                    )
        out.put(
            "diff.agreements", "agreements",
            "%d/%d" % (agree, signed.rows * signed.cols),
        )
    return out.text()


def _cmd_export_dot(args, fmt):
    mf = parse_model(_read_text(args.target))
    out = _Out(fmt)
    out.block("dot", "", export_dot(mf.payload))
    return out.text()


# -------------------------------------------------------------------- main

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="neutromap",
        description="Neutrosophic graphs, relations and cognitive maps.",
    )
    parser.add_argument(
        "--format", choices=("plain", "structured"), default=None,
        dest="format_root",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("plain", "structured"), default=None,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graph", help="classical graph analyses")
    gsub = g.add_subparsers(dest="action", required=True)
    ga = gsub.add_parser("analyze", parents=[common])
    ga.add_argument("target", help="model file, - for stdin, or a generator name")
    ga.add_argument("--from-csv", action="store_true", dest="from_csv")
    for flag in (
        "degree", "connectivity", "metrics", "bipartite", "coloring",
        "polynomial", "tree-count", "tutte", "eulerian", "hamiltonian",
    ):
        ga.add_argument("--" + flag, action="store_true",
                        dest=flag.replace("-", "_"))
    ga.add_argument("--seed", type=int, default=0)
    ga.set_defaults(func=_cmd_graph_analyze)

    n = sub.add_parser("ngraph", help="neutrosophic graph analyses")
    nsub = n.add_subparsers(dest="action", required=True)
    nc = nsub.add_parser("classify", parents=[common])
    nc.add_argument("target")
    nc.set_defaults(func=_cmd_ngraph_classify)
    no = nsub.add_parser("color", parents=[common])
    no.add_argument("target")
    no.set_defaults(func=_cmd_ngraph_color)
    np_ = nsub.add_parser("petersen", parents=[common])
    np_.add_argument("kind", choices=("vertex", "edge", "strong"))
    np_.add_argument("params", nargs="+", type=int)
    np_.set_defaults(func=_cmd_ngraph_petersen)

    r = sub.add_parser("rel", help="fuzzy/neutrosophic relations")
    rsub = r.add_subparsers(dest="action", required=True)
    for action, nargs in (("compose", 2), ("closure", 1), ("props", 1), ("join", 2)):
        rp = rsub.add_parser(action, parents=[common])
        rp.add_argument("inputs", nargs=nargs)
        rp.add_argument("--from-csv", action="store_true", dest="from_csv")
        if action == "props":
            rp.add_argument("--epsilon", default="1/2")
        rp.set_defaults(func=_cmd_rel)

    c = sub.add_parser("cm", help="cognitive map runs")
    csub = c.add_subparsers(dest="action", required=True)
    cr = csub.add_parser("run", parents=[common])
    cr.add_argument("model")
    cr.add_argument("--on", required=True, help="comma-separated concepts to switch on")
    cr.add_argument("--clamp", default=None, help="override the clamp set")
    cr.add_argument("--degrade", action="store_true")
    cr.add_argument("--from-csv", action="store_true", dest="from_csv")
    cr.set_defaults(func=_cmd_cm_run)

    m = sub.add_parser("rm", help="relational map runs")
    msub = m.add_subparsers(dest="action", required=True)
    mr = msub.add_parser("run", parents=[common])
    mr.add_argument("model")
    mr.add_argument("--side", choices=("domain", "range"), required=True)
    mr.add_argument("--on", required=True)
    mr.add_argument("--clamp", default=None)
    mr.add_argument("--from-csv", action="store_true", dest="from_csv")
    mr.set_defaults(func=_cmd_rm_run)

    l = sub.add_parser("link", parents=[common], help="fold relational maps")
    l.add_argument("inputs", nargs="+")
    l.add_argument("--signed", action="store_true")
    l.add_argument("--diff", default=None, help="csv matrix to diff the signed result against")
    l.add_argument("--from-csv", action="store_true", dest="from_csv")
    l.set_defaults(func=_cmd_link)

    e = sub.add_parser("export", help="export models")
    esub = e.add_subparsers(dest="action", required=True)
    ed = esub.add_parser("dot", parents=[common])
    ed.add_argument("target")
    ed.set_defaults(func=_cmd_export_dot)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    fmt = args.format or args.format_root or "plain"
    try:
        text = args.func(args, fmt)
    except ParseError as exc:
        return _fail(2, exc)
    except ShapeError as exc:
        return _fail(3, exc)
    except SizeLimitError as exc:
        return _fail(4, exc)
    except NotFoundError as exc:
        return _fail(5, exc)
    except ValueError as exc:
        return _fail(1, exc)
    sys.stdout.write(text)
    return 0


def _fail(code, exc):
    sys.stderr.write("error: %s\n" % (exc,))
    return code


if __name__ == "__main__":
    sys.exit(main())
