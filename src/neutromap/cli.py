"""The neutromap command-line front end.

Reads model files (`-` for stdin), bare CSV matrices (`--from-csv`) and
graph generator names, runs one library call per command, and prints
`label: value` lines or, with `--format structured`, `key = value` lines.
The model file format and DOT export live in `neutromap.formats`.

Exit codes: 0 success, 1 generic domain error, 2 parse error, 3 shape
error, 4 size-guard violation, 5 unknown name/file.
"""

import argparse
import functools
import os
import sys

from .base import NotFoundError, ParseError, ShapeError, SizeLimitError
# at top level, not per handler: perfbench imports these names from neutromap.cli
from .formats import KINDS, export_dot, model_for, parse_model, serialize_model

# ------------------------------------------------------------------- output

def _fmt(v):
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "none"
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


def _generator(name):
    """The graph a name like `cycle-5` or `complete-bipartite-2-3` names."""
    from . import graphs

    words = name.split("-")
    for cut in range(len(words), 0, -1):
        family = "-".join(words[:cut])
        if family in graphs.FAMILIES:
            try:
                params = [int(w) for w in words[cut:]]
            except ValueError:
                break
            return graphs.generate(family, *params)
    raise NotFoundError("no such file or generator: %s" % (name,))


def _load(target, from_csv, *kinds):
    """The payload of a model file of one of `kinds`, or with `from_csv` a
    CSV matrix read as the first kind."""
    if from_csv:
        from .core import parse_matrix

        return KINDS[kinds[0]].csv(parse_matrix(_read_text(target)))
    mf = parse_model(_read_text(target))
    if mf.kind not in kinds:
        raise ValueError("%s is a %s model; expected %s" % (target, mf.kind, " or ".join(kinds)))
    return mf.payload


def _split_names(arg):
    names = [n for n in arg.split(",") if n]
    if not names:
        raise ValueError("empty name list")
    return names


# ----------------------------------------------------------------- commands

_ANALYSES = (
    "degree", "connectivity", "metrics", "bipartite", "coloring",
    "polynomial", "tree-count", "tutte", "eulerian", "hamiltonian",
)


def _cmd_graph_analyze(args, out):
    from . import graphs

    if args.from_csv or args.target == "-" or os.path.exists(args.target):
        G = _load(args.target, args.from_csv, "graph")
    else:
        G = _generator(args.target)
    out.put("graph.vertices", "vertices", G.vertex_count)
    out.put("graph.edges", "edges", G.m)
    if not any(getattr(args, a.replace("-", "_")) for a in _ANALYSES):
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
        out.put("connectivity.cut-vertices", "cut vertices", tuple(sorted(r.cut_vertices)))
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
        out.put("coloring.edge-chromatic-number", "edge chromatic number", r.edge_chromatic_number)
        out.put(
            "coloring.edge-colors", "edge colors",
            tuple(
                "%d-%d=%d" % (u, v, c)
                for (u, v), c in zip(G.edges, r.edge_colors)
            ),
        )
    if args.polynomial:
        out.put("polynomial.chromatic", "chromatic polynomial", graphs.chromatic_polynomial(G))
    if args.tree_count:
        out.put("spanning-trees.count", "spanning trees", graphs.spanning_tree_count(G))
    if args.tutte:
        matrix, matching = graphs.tutte(G)
        for i, row in enumerate(matrix):
            out.put("tutte.row.%d" % i, "tutte row %d" % i, ", ".join(row))
        out.put("tutte.perfect-matching", "perfect matching", matching)
    if args.eulerian:
        flag, tour = graphs.eulerian(G)
        out.put("eulerian.flag", "eulerian", flag)
        if flag:
            out.put("eulerian.tour", "euler tour", tuple("%d-%d" % step for step in tour))
    if args.hamiltonian:
        closure, flag, cycle = graphs.hamiltonian(G)
        out.put(
            "hamiltonian.closure-complete", "closure complete",
            closure.m == G.vertex_count * (G.vertex_count - 1) // 2,
        )
        out.put("hamiltonian.flag", "hamiltonian", flag)
        out.put("hamiltonian.cycle", "hamiltonian cycle", cycle)


def _cmd_ngraph_classify(args, out):
    from . import ngraph

    G = _load(args.target, False, "neutro-graph")
    out.put("classify.kind", "classification", ngraph.classify(G))
    out.put("classify.real-vertices", "real vertices", G.n_real)
    out.put("classify.indet-vertices", "indeterminate vertices", G.n_indet)
    real_edges = sum(1 for _u, _v, t in G.edges if t == "R")
    out.put("classify.real-edges", "real edges", real_edges)
    out.put("classify.indet-edges", "indeterminate edges", G.m - real_edges)


def _cmd_ngraph_color(args, out):
    from . import ngraph

    G = _load(args.target, False, "neutro-graph")
    r = ngraph.neutro_coloring(G)
    out.put("coloring.chromatic-number", "neutrosophic chromatic number", r.chromatic_number)
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


def _cmd_ngraph_petersen(args, out):
    from . import ngraph

    G = ngraph.neutro_petersen(args.kind, *args.params)
    out.block("petersen.model", "", serialize_model(model_for(G)))


def _cmd_rel(args, out):
    from . import relations

    rels = [_load(t, args.from_csv, "relation") for t in args.inputs]
    if args.action in ("compose", "closure"):
        C = (relations.maxmin_compose if args.action == "compose"
             else relations.transitive_closure)(*rels)
        out.block(args.action + ".model", "", serialize_model(model_for(C)))
    elif args.action == "props":
        from fractions import Fraction

        try:
            epsilon = Fraction(args.epsilon)
        except ZeroDivisionError:
            raise ValueError("epsilon has a zero denominator") from None
        report = relations.properties(*rels, epsilon)
        for name in relations.PropertyReport.__slots__:
            out.put("props." + name.replace("_", "-"), name.replace("_", " "),
                    getattr(report, name))
    else:
        table = relations.relational_join(*rels)
        for (x, y, z), v in table.items():
            out.put("join.%s.%s.%s" % (x, y, z), "%s %s %s" % (x, y, z), v)


def _render_pattern(out, key, lead, kind_label, pattern):
    """Hidden-pattern lines; `lead` prefixes the labels after the first."""
    from .engines import render_state

    out.put(key + ".kind", kind_label, pattern.kind)
    if pattern.kind == "fixed-point":
        out.put(key + ".state", lead + "fixed point", render_state(pattern.states[0]))
    else:
        for i, s in enumerate(pattern.states):
            out.put("%s.cycle.%d" % (key, i), "%scycle state %d" % (lead, i), render_state(s))
    out.put(key + ".steps", lead + "steps to enter", pattern.steps_to_enter)


def _cmd_cm_run(args, out):
    from . import engines

    model = _load(args.model, args.from_csv, "concept-model")
    if args.degrade:
        model = engines.degrade(model)
    on = [model.index(n) for n in _split_names(args.on)]
    clamp = None
    if args.clamp is not None:
        clamp = frozenset(model.index(n) for n in _split_names(args.clamp))
    s0 = engines.basis_state(model.size, on)
    pattern, trajectory = engines.cm_run(model, s0, clamp)
    out.put("concepts", "concepts", model.concept_names)
    for i, s in enumerate(trajectory):
        out.put("state.%d" % i, "state %d" % i, engines.render_state(s))
    _render_pattern(out, "pattern", "", "hidden pattern", pattern)


def _cmd_rm_run(args, out):
    from . import engines

    model = _load(args.model, args.from_csv, "relational-model")
    names = model.domain_names if args.side == "domain" else model.range_names

    def indices(text, message):
        """Indices of the named nodes, which must be on the start side."""
        found = []
        for name in _split_names(text):
            side, idx = model.index(name)
            if side != args.side:
                raise ValueError(message % {"name": name, "side": side, "start": args.side})
            found.append(idx)
        return found

    on = indices(args.on, "%(name)s is on the %(side)s side; run starts on the %(start)s side")
    clamp = None
    if args.clamp is not None:
        clamp = indices(args.clamp, "clamp node %(name)s is not on the %(start)s side")
    s0 = engines.basis_state(len(names), on)
    result = engines.rm_run(model, s0, args.side, clamp)
    out.put("domain", "domain", model.domain_names)
    out.put("range", "range", model.range_names)
    for i, (X, Y) in enumerate(result.trajectory):
        out.put(
            "pair.%d" % i, "pair %d" % i,
            engines.render_state(X) + " / " + engines.render_state(Y),
        )
    _render_pattern(out, "domain-pattern", "domain ", "domain pattern", result.domain)
    _render_pattern(out, "range-pattern", "range ", "range pattern", result.range)


def _cmd_link(args, out):
    from . import engines
    from .core import parse_matrix, render_matrix

    if args.from_csv:
        mats = [parse_matrix(_read_text(t)) for t in args.inputs]
    else:
        mats = [
            _load(t, False, "relational-model", "concept-model").weights
            for t in args.inputs
        ]
    raw, signed = engines.link(mats)
    chosen = signed if args.signed else raw
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
        for i, pair in enumerate(zip(signed, printed), 1):
            for j, (ours, theirs) in enumerate(zip(*pair), 1):
                if ours == theirs:
                    agree += 1
                else:
                    out.put("diff.mismatch.%d.%d" % (i, j), "diff (%d,%d)" % (i, j),
                            "computed %s printed %s" % (ours, theirs))
        out.put("diff.agreements", "agreements", "%d/%d" % (agree, signed.rows * signed.cols))


def _cmd_export_dot(args, out):
    mf = parse_model(_read_text(args.target))
    out.block("dot", "", export_dot(mf.payload))


# -------------------------------------------------------------------- main

_COMMANDS = ("graph", "ngraph", "rel", "cm", "rm", "link", "export")


class _Rebuild(Exception):
    """A usage error met by a parser built for one command."""


class _OneCommandParser(argparse.ArgumentParser):
    """Its usage lists one command, so the full parser prints its errors."""

    def error(self, message):
        raise _Rebuild


def _command(argv):
    """The command argv names after a leading top-level --format and its value,
    or None: top-level help and usage errors need the full parser."""
    i = 0
    while i < len(argv) and (argv[i] == "--format" or argv[i].startswith("--format=")):
        i += 1 if "=" in argv[i] else 2
    return argv[i] if i < len(argv) and argv[i] in _COMMANDS else None


@functools.cache
def _build_parser(command=None):
    """The argument parser with every command, or with `command` alone, built
    once per process; parsing leaves it unchanged."""
    parser = (argparse.ArgumentParser if command is None else _OneCommandParser)(
        prog="neutromap",
        description="Neutrosophic graphs, relations and cognitive maps.",
    )
    parser.add_argument("--format", choices=("plain", "structured"), dest="format_root")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "structured"))
    sub = parser.add_subparsers(dest="command", required=True)
    if command in (None, "graph"):
        g = sub.add_parser("graph", help="classical graph analyses")
        gsub = g.add_subparsers(dest="action", required=True)
        ga = gsub.add_parser("analyze", parents=[common])
        ga.add_argument("target", help="model file, - for stdin, or a generator name")
        ga.add_argument("--from-csv", action="store_true", dest="from_csv")
        for a in _ANALYSES:
            ga.add_argument("--" + a, action="store_true")
        ga.add_argument("--seed", type=int, default=0,
                        help="no effect: the perfect-matching decision is deterministic")
        ga.set_defaults(func=_cmd_graph_analyze)

    if command in (None, "ngraph"):
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

    if command in (None, "rel"):
        r = sub.add_parser("rel", help="fuzzy/neutrosophic relations")
        rsub = r.add_subparsers(dest="action", required=True)
        for action, nargs in (("compose", 2), ("closure", 1), ("props", 1), ("join", 2)):
            rp = rsub.add_parser(action, parents=[common])
            rp.add_argument("inputs", nargs=nargs)
            rp.add_argument("--from-csv", action="store_true", dest="from_csv")
            if action == "props":
                rp.add_argument("--epsilon", default="1/2")
            rp.set_defaults(func=_cmd_rel)

    if command in (None, "cm"):
        c = sub.add_parser("cm", help="cognitive map runs")
        csub = c.add_subparsers(dest="action", required=True)
        cr = csub.add_parser("run", parents=[common])
        cr.add_argument("model")
        cr.add_argument("--on", required=True, help="comma-separated concepts to switch on")
        cr.add_argument("--clamp", default=None, help="override the clamp set")
        cr.add_argument("--degrade", action="store_true")
        cr.add_argument("--from-csv", action="store_true", dest="from_csv")
        cr.set_defaults(func=_cmd_cm_run)

    if command in (None, "rm"):
        m = sub.add_parser("rm", help="relational map runs")
        msub = m.add_subparsers(dest="action", required=True)
        mr = msub.add_parser("run", parents=[common])
        mr.add_argument("model")
        mr.add_argument("--side", choices=("domain", "range"), required=True)
        mr.add_argument("--on", required=True)
        mr.add_argument("--clamp", default=None)
        mr.add_argument("--from-csv", action="store_true", dest="from_csv")
        mr.set_defaults(func=_cmd_rm_run)

    if command in (None, "link"):
        l = sub.add_parser("link", parents=[common], help="fold relational maps")
        l.add_argument("inputs", nargs="+")
        l.add_argument("--signed", action="store_true")
        l.add_argument("--diff", default=None, help="csv matrix to diff the signed result against")
        l.add_argument("--from-csv", action="store_true", dest="from_csv")
        l.set_defaults(func=_cmd_link)

    if command in (None, "export"):
        e = sub.add_parser("export", help="export models")
        esub = e.add_subparsers(dest="action", required=True)
        ed = esub.add_parser("dot", parents=[common])
        ed.add_argument("target")
        ed.set_defaults(func=_cmd_export_dot)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = _build_parser(_command(argv)).parse_args(argv)
        except _Rebuild:
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    out = _Out(args.format or args.format_root or "plain")
    try:
        args.func(args, out)
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
    sys.stdout.write(out.text())
    return 0


def _fail(code, exc):
    sys.stderr.write("error: %s\n" % (exc,))
    return code


if __name__ == "__main__":
    sys.exit(main())
