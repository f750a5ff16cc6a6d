"""The cli-oneshot workload: one child interpreter per command.

Each command runs as `python -c "from neutromap.cli import main; ..."` with
PYTHONPATH=src, on fixtures and on model files generated from the seed, in
both output formats.  The expected stdout of a successful command is built
in-process from library results that the independent checks have verified,
laid out by the documented output rules (`label: value` lines, or
`dotted.key = value` lines with --format structured).  A documented error
input succeeds only when it exits with its documented code and prints
exactly one `error:` line.

`rel ... --from-csv` on square CSVs is expected to succeed, as the README
documents; its output is compared value by value, since the labels of a
CSV relation are synthesized.  These commands fail at the seed (exit 3), so
they are kept out of the timed mix, on which no operation may fail, and run
once per run as known defects: their failures are reported apart from
`failed`, and a wrong output still makes the run incorrect.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import checks
from neutromap import engines, graphs, ngraph, relations
from neutromap.cli import export_dot, model_for, parse_model, serialize_model
from neutromap.core import parse_matrix, render_matrix
from workloads import Op, Workload, mix

CHILD = "import sys; from neutromap.cli import main; sys.exit(main(sys.argv[1:]))"


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(root, argv, env, driver=None):
    """Run one command; returns (exit code, stdout, stderr)."""
    head = [sys.executable, "-c", CHILD] if driver is None else [sys.executable, driver]
    proc = subprocess.run(
        head + list(argv), cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


# ------------------------------------------------------------ output rules

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


class Expected:
    def __init__(self, fmt):
        self.structured = fmt == "structured"
        self.lines = []

    def put(self, key, label, value):
        if self.structured:
            self.lines.append("%s = %s" % (key, _fmt(value)))
        else:
            self.lines.append("%s: %s" % (label, _fmt(value)))

    def block(self, key, label, text):
        if self.structured:
            for idx, line in enumerate(text.rstrip("\n").split("\n")):
                self.lines.append("%s.%d = %s" % (key, idx, line))
        else:
            if label:
                self.lines.append(label + ":")
            self.lines.append(text.rstrip("\n"))

    def text(self):
        return "\n".join(self.lines) + "\n" if self.lines else ""


def _verified(why):
    if why:
        raise AssertionError("in-process library result failed its check: " + why)


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read()).payload


# -------------------------------------------------------- expected outputs

def expect_cm_run(out, path, on, degrade):
    model = _load(path)
    if degrade:
        model = engines.degrade(model)
    idx = [model.index(n) for n in on.split(",")]
    s0 = engines.basis_state(model.size, idx)
    pattern, trajectory = engines.cm_run(model, s0)
    _verified(checks.check_cm_run(checks.pairs_matrix(model.weights), s0, model.default_clamp,
                                  (pattern, trajectory)))
    out.put("concepts", "concepts", model.concept_names)
    for i, s in enumerate(trajectory):
        out.put("state.%d" % i, "state %d" % i, engines.render_state(s))
    out.put("pattern.kind", "hidden pattern", pattern.kind)
    if pattern.kind == "fixed-point":
        out.put("pattern.state", "fixed point", engines.render_state(pattern.states[0]))
    else:
        for i, s in enumerate(pattern.states):
            out.put("pattern.cycle.%d" % i, "cycle state %d" % i, engines.render_state(s))
    out.put("pattern.steps", "steps to enter", pattern.steps_to_enter)


def _pattern_lines(out, prefix, label, pattern):
    out.put(prefix + ".kind", label + " pattern", pattern.kind)
    if pattern.kind == "fixed-point":
        out.put(prefix + ".state", label + " fixed point", engines.render_state(pattern.states[0]))
    else:
        for i, s in enumerate(pattern.states):
            out.put("%s.cycle.%d" % (prefix, i), "%s cycle state %d" % (label, i),
                    engines.render_state(s))
    out.put(prefix + ".steps", label + " steps to enter", pattern.steps_to_enter)


def expect_rm_run(out, path, side, on):
    model = _load(path)
    names = model.domain_names if side == "domain" else model.range_names
    s0 = engines.basis_state(len(names), [names.index(n) for n in on.split(",")])
    result = engines.rm_run(model, s0, side)
    _verified(checks.check_rm_run(checks.pairs_matrix(model.weights), s0, side, result))
    out.put("domain", "domain", model.domain_names)
    out.put("range", "range", model.range_names)
    for i, (X, Y) in enumerate(result.trajectory):
        out.put("pair.%d" % i, "pair %d" % i,
                engines.render_state(X) + " / " + engines.render_state(Y))
    _pattern_lines(out, "domain-pattern", "domain", result.domain)
    _pattern_lines(out, "range-pattern", "range", result.range)


PROP_FIELDS = (
    "reflexive", "epsilon_reflexive", "irreflexive", "anti_reflexive", "symmetric",
    "asymmetric", "antisymmetric", "transitive", "anti_transitive", "compatibility",
    "partial_order",
)


def expect_rel(out, action, rels):
    grids = [checks.grades_matrix(R) for R in rels]
    if action == "compose":
        C = relations.maxmin_compose(*rels)
        _verified(checks.check_compose(grids[0], grids[1], C))
        out.block("compose.model", "", serialize_model(model_for(C)))
    elif action == "closure":
        C = relations.transitive_closure(rels[0])
        _verified(checks.check_closure(grids[0], False, checks.closure_oracle(grids[0])[0], C))
        out.block("closure.model", "", serialize_model(model_for(C)))
    elif action == "props":
        report = relations.properties(rels[0], Fraction(1, 2))
        _verified(checks.check_properties(grids[0], Fraction(1, 2), report))
        for f in PROP_FIELDS:
            out.put("props." + f.replace("_", "-"), f.replace("_", " "), getattr(report, f))
    else:
        table = relations.relational_join(*rels)
        _verified(checks.check_join(grids[0], grids[1], rels[0].row_labels, table))
        for (x, y, z), v in table.items():
            out.put("join.%s.%s.%s" % (x, y, z), "%s %s %s" % (x, y, z), v)


def expect_link(out, paths, diff):
    mats = [_load(p).weights for p in paths]
    raw, signed = engines.link(mats)
    _verified(checks.check_link([checks.pairs_matrix(M) for M in mats], (raw, signed)))
    out.put("link.shape", "shape", "%dx%d" % (signed.rows, signed.cols))
    out.block("link.matrix", "matrix", render_matrix(signed))
    with open(diff, encoding="utf-8") as fh:
        printed = parse_matrix(fh.read())
    agree = 0
    for i in range(signed.rows):
        for j in range(signed.cols):
            ours, theirs = signed.entry(i, j), printed.entry(i, j)
            if ours == theirs:
                agree += 1
            else:
                out.put("diff.mismatch.%d.%d" % (i + 1, j + 1), "diff (%d,%d)" % (i + 1, j + 1),
                        "computed %s printed %s" % (ours, theirs))
    out.put("diff.agreements", "agreements", "%d/%d" % (agree, signed.rows * signed.cols))


def expect_graph(out, path):
    G = _load(path)
    n, edges = G.vertex_count, list(G.edges)
    out.put("graph.vertices", "vertices", n)
    out.put("graph.edges", "edges", G.m)
    r = graphs.degree_report(G)
    _verified(checks.check_degree_report(n, edges, r))
    out.put("degree.per-vertex", "degrees", r.degrees)
    out.put("degree.min", "min degree", r.min_degree)
    out.put("degree.max", "max degree", r.max_degree)
    out.put("degree.sequence", "degree sequence", r.sequence)
    c = graphs.connectivity(G)
    _verified(checks.check_connectivity(n, edges, c))
    out.put("connectivity.components", "components", len(c.components))
    for i, comp in enumerate(c.components):
        out.put("connectivity.component.%d" % i, "component %d" % i, comp)
    out.put("connectivity.connected", "connected", c.is_connected)
    out.put("connectivity.cut-vertices", "cut vertices", tuple(sorted(c.cut_vertices)))
    out.put("connectivity.cut-edges", "cut edges", tuple("%d-%d" % e for e in sorted(c.cut_edges)))
    flag, cert = graphs.is_bipartite(G)
    _verified(checks.check_bipartite(n, edges, (flag, cert)))
    out.put("bipartite.flag", "bipartite", flag)
    if flag:
        out.put("bipartite.part.0", "part 0", cert[0])
        out.put("bipartite.part.1", "part 1", cert[1])
    else:
        out.put("bipartite.odd-cycle", "odd cycle", cert)


def _ng_dict(G):
    return {"n_real": G.n_real, "n_indet": G.n_indet, "edges": list(G.edges)}


def expect_ngraph(out, action, path):
    G = _load(path)
    if action == "classify":
        kind = ngraph.classify(G)
        _verified(checks.check_classify(_ng_dict(G), kind))
        real = sum(1 for _u, _v, t in G.edges if t == "R")
        out.put("classify.kind", "classification", kind)
        out.put("classify.real-vertices", "real vertices", G.n_real)
        out.put("classify.indet-vertices", "indeterminate vertices", G.n_indet)
        out.put("classify.real-edges", "real edges", real)
        out.put("classify.indet-edges", "indeterminate edges", G.m - real)
        return
    r = ngraph.neutro_coloring(G)
    _verified(checks.check_neutro_coloring(_ng_dict(G), r))
    out.put("coloring.chromatic-number", "neutrosophic chromatic number", r.chromatic_number)
    out.put("coloring.vertex-colors", "vertex colors",
            tuple("%s=%d" % (G.label(v), c) for v, c in enumerate(r.vertex_colors)))
    out.put("coloring.edge-chromatic-number", "neutrosophic edge chromatic number",
            r.edge_chromatic_number)
    out.put("coloring.edge-colors", "edge colors",
            tuple("%s-%s=%d" % (G.label(u), G.label(v), c)
                  for (u, v, _t), c in zip(G.edges, r.edge_colors)))


def expect_dot(out, path):
    out.block("dot", "", export_dot(_load(path)))


# ------------------------------------------------------- generated inputs

def _grade(rng):
    x = rng.random()
    if x < 0.35:
        return "0"
    if x < 0.7:
        return str(Fraction(rng.randint(1, 10), 10))
    return "I" if x < 0.8 else "%sI" % Fraction(rng.randint(1, 9), 10)


def _weights(rng, rows, cols, density):
    return [[rng.choice(("1", "-1", "I")) if rng.random() < density else "0"
             for _ in range(cols)] for _ in range(rows)]


def _matrix_text(rows):
    return "\n".join(", ".join(r) for r in rows)


def write_inputs(rng, work):
    files = {}

    def put(name, text):
        files[name] = os.path.join(work, name)
        with open(files[name], "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    n = rng.randint(10, 14)
    W = _weights(rng, n, n, 0.2)
    for i in range(n):
        W[i][i] = "0"
    put("ncm.model", "neutromap-model 1\nkind concept-model\nconcepts %s\nmatrix\n%s"
        % (" ".join("C%d" % (i + 1) for i in range(n)), _matrix_text(W)))
    m, k = rng.randint(6, 9), rng.randint(4, 6)
    put("rm.model", "neutromap-model 1\nkind relational-model\ndomain %s\nrange %s\nmatrix\n%s"
        % (" ".join("D%d" % (i + 1) for i in range(m)), " ".join("R%d" % (j + 1) for j in range(k)),
           _matrix_text(_weights(rng, m, k, 0.35))))
    size = rng.randint(6, 9)
    labels = ["x%d" % (i + 1) for i in range(size)]
    for name in ("P", "Q"):
        rows = ["%s, %s" % (lb, ", ".join(_grade(rng) for _ in labels)) for lb in labels]
        put(name + ".model", "neutromap-model 1\nkind relation\n%s\n%s"
            % (", ".join(labels), "\n".join(rows)))
        put(name + ".csv", _matrix_text([[_grade(rng) for _ in labels] for _ in labels]))
    gn = rng.randint(20, 40)
    edges = sorted({tuple(sorted(rng.sample(range(gn), 2))) for _ in range(2 * gn)})
    put("graph.model", "neutromap-model 1\nkind graph\n%d %d\n%s"
        % (gn, len(edges), "\n".join("%d %d" % e for e in edges)))
    nr, ni = rng.randint(4, 7), rng.randint(1, 3)
    nedges = [(u, v, "I" if rng.random() < 0.3 else "R")
              for u in range(nr + ni) for v in range(u + 1, nr + ni) if rng.random() < 0.35]
    put("ngraph.model", "neutromap-model 1\nkind neutro-graph\n%d %d %d 0\n%s"
        % (nr, ni, len(nedges), "\n".join("%d %d %s" % e for e in nedges)))
    put("bad.model", "neutromap-model 1\nkind concept-model\nconcepts C1 C2\nmatrix\n0, 2x\n1, 0")
    return files


def _csv_relation(path):
    with open(path, encoding="utf-8") as fh:
        M = parse_matrix(fh.read())
    labels = ["x%d" % (i + 1) for i in range(M.rows)]
    rows = [[str(M.entry(i, j)) for j in range(M.cols)] for i in range(M.rows)]
    return relations.FuzzyNeutroRelation.from_tokens(rows, labels, labels)


# ----------------------------------------------------------------- checks

def _values(text, structured):
    """Values of an output, without keys, labels or a relation's header line."""
    out, skip = [], False
    for line in text.splitlines():
        v = line.split(" = ", 1)[1] if structured else line.split(": ", 1)[-1]
        if not skip:
            parts = [p.strip() for p in v.split(",")]
            out.append(parts[1:] if len(parts) > 1 else parts)
        skip = v == "kind relation"
    return out


def success_op(kind, argv, fmt, expect, by_value=False):
    out = Expected(fmt)
    try:
        expect(out)
        want, broken = out.text(), None
    except Exception as exc:  # a wrong or failing library leaves nothing to compare with
        want, broken = None, "in-process library result: %s: %s" % (type(exc).__name__, exc)

    def error(result):
        code, stdout, stderr = result
        if "Traceback" in stderr:
            return "traceback"
        if code != 0:
            return "exit %d: %s" % (code, stderr.strip().splitlines()[-1:] or "")
        return None

    def check(result):
        code, stdout, stderr = result
        if broken:
            return broken
        if stderr:
            return "unexpected stderr"
        if by_value:
            ok = _values(stdout, fmt == "structured") == _values(want, fmt == "structured")
        else:
            ok = stdout == want
        return None if ok else "stdout differs from the in-process library result"

    return Op("cli", kind, (argv + ["--format", fmt],), check, error=error)


def error_op(kind, argv, fmt, code):
    def error(result):
        got, stdout, stderr = result
        if "Traceback" in stderr:
            return "traceback"
        lines = stderr.splitlines()
        if got != code or stdout or len(lines) != 1 or not lines[0].startswith("error: "):
            return "expected exit %d with one error line, got exit %d" % (code, got)
        return None

    return Op("cli", kind, (argv + ["--format", fmt],), lambda r: None, error=error)


def cli_oneshot(seed, root, work):
    rng = random.Random(seed)
    f = write_inputs(rng, work)

    def fx(name):
        return os.path.join("fixtures", name)

    def full(p):
        return os.path.join(root, p)

    link_in = [fx("ex-3.7.11-NE1.model"), fx("ex-3.7.11-NE2.model")]
    diff = fx("ex-3.7.11-printed.csv")
    rels = {k: _load(f[k + ".model"]) for k in ("P", "Q")}
    csvs = {k: _csv_relation(f[k + ".csv"]) for k in ("P", "Q")}
    fixture_rel = _load(full(fx("ex-2.8.3.model")))

    success = [
        ("cm-run", ["cm", "run", fx("ex-3.7.1-NE.model"), "--on", "C1"],
         lambda o: expect_cm_run(o, full(fx("ex-3.7.1-NE.model")), "C1", False)),
        ("cm-run", ["cm", "run", f["ncm.model"], "--on", "C1,C3"],
         lambda o: expect_cm_run(o, f["ncm.model"], "C1,C3", False)),
        ("cm-run", ["cm", "run", fx("ex-3.7.2-NE.model"), "--on", "C7", "--degrade"],
         lambda o: expect_cm_run(o, full(fx("ex-3.7.2-NE.model")), "C7", True)),
        ("rm-run", ["rm", "run", fx("fig-2.8.11-E1.model"), "--side", "domain", "--on", "D1"],
         lambda o: expect_rm_run(o, full(fx("fig-2.8.11-E1.model")), "domain", "D1")),
        ("rm-run", ["rm", "run", f["rm.model"], "--side", "range", "--on", "R2"],
         lambda o: expect_rm_run(o, f["rm.model"], "range", "R2")),
        ("rel-props", ["rel", "props", fx("ex-2.8.3.model")],
         lambda o: expect_rel(o, "props", [fixture_rel])),
        ("rel-props", ["rel", "props", f["P.model"]], lambda o: expect_rel(o, "props", [rels["P"]])),
        ("rel-closure", ["rel", "closure", fx("ex-2.8.3.model")],
         lambda o: expect_rel(o, "closure", [fixture_rel])),
        ("rel-closure", ["rel", "closure", f["Q.model"]],
         lambda o: expect_rel(o, "closure", [rels["Q"]])),
        ("rel-compose", ["rel", "compose", f["P.model"], f["Q.model"]],
         lambda o: expect_rel(o, "compose", [rels["P"], rels["Q"]])),
        ("rel-join", ["rel", "join", f["P.model"], f["Q.model"]],
         lambda o: expect_rel(o, "join", [rels["P"], rels["Q"]])),
        ("link", ["link"] + link_in + ["--signed", "--diff", diff],
         lambda o: expect_link(o, [full(p) for p in link_in], full(diff))),
        ("graph-analyze", ["graph", "analyze", fx("fig-2.2.3.model"), "--degree", "--connectivity",
                           "--bipartite"],
         lambda o: expect_graph(o, full(fx("fig-2.2.3.model")))),
        ("graph-analyze", ["graph", "analyze", f["graph.model"], "--degree", "--connectivity",
                           "--bipartite"],
         lambda o: expect_graph(o, f["graph.model"])),
        ("ngraph-classify", ["ngraph", "classify", fx("fig-3.2.8-NA.model")],
         lambda o: expect_ngraph(o, "classify", full(fx("fig-3.2.8-NA.model")))),
        ("ngraph-classify", ["ngraph", "classify", f["ngraph.model"]],
         lambda o: expect_ngraph(o, "classify", f["ngraph.model"])),
        ("ngraph-color", ["ngraph", "color", fx("fig-3.2.8-NA.model")],
         lambda o: expect_ngraph(o, "color", full(fx("fig-3.2.8-NA.model")))),
        ("ngraph-color", ["ngraph", "color", f["ngraph.model"]],
         lambda o: expect_ngraph(o, "color", f["ngraph.model"])),
        ("export-dot", ["export", "dot", fx("ex-3.7.1-NE.model")],
         lambda o: expect_dot(o, full(fx("ex-3.7.1-NE.model")))),
        ("export-dot", ["export", "dot", f["ngraph.model"]],
         lambda o: expect_dot(o, f["ngraph.model"])),
    ]
    from_csv = [
        ("rel-props-csv", ["rel", "props", f["P.csv"], "--from-csv"],
         lambda o: expect_rel(o, "props", [csvs["P"]])),
        ("rel-closure-csv", ["rel", "closure", f["Q.csv"], "--from-csv"],
         lambda o: expect_rel(o, "closure", [csvs["Q"]])),
        ("rel-compose-csv", ["rel", "compose", f["P.csv"], f["Q.csv"], "--from-csv"],
         lambda o: expect_rel(o, "compose", [csvs["P"], csvs["Q"]])),
        ("rel-join-csv", ["rel", "join", f["P.csv"], f["Q.csv"], "--from-csv"],
         lambda o: expect_rel(o, "join", [csvs["P"], csvs["Q"]])),
    ]
    errors = [
        ("error-1", ["rm", "run", fx("fig-2.8.11-E1.model"), "--side", "domain", "--on", "R1"], 1),
        ("error-2", ["cm", "run", f["bad.model"], "--on", "C1"], 2),
        ("error-3", ["rel", "compose", fx("sec-3.7-sagittal.model"), fx("sec-3.7-sagittal.model")], 3),
        ("error-4", ["graph", "analyze", "cycle-16", "--hamiltonian"], 4),
        ("error-5", ["cm", "run", fx("ex-3.7.1-NE.model"), "--on", "C99"], 5),
    ]
    groups, defects = [[], []], []
    for fmt in ("plain", "structured"):
        groups[0] += [success_op(k, a, fmt, e) for k, a, e in success]
        groups[1] += [error_op(k, a, fmt, c) for k, a, c in errors]
        defects += [success_op(k, a, fmt, e, by_value=True) for k, a, e in from_csv]
    ops, warm = mix(groups)
    return Workload("cli-oneshot", ops, warm, 20, 75.0, probe="interpreter",
                    known_defects=defects, setups=3)
