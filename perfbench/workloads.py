"""Seeded inputs and operation lists for the three library workloads.

`build(name, seed, root)` returns a Workload: the operation list that a run
walks in order (wrapping around), the index of one operation of each kind
for warm-up, and the settings of the traced pass.  An operation names a
public function by module and attribute, so that wrappers installed by the
tracer see every call, and carries the independent check of its result and
the work counts derived from it.

Operation kinds are interleaved in proportion, so that any prefix of the
list holds the full mix; the seed changes the inputs, not the order.
"""

import os
import random
from dataclasses import dataclass
from fractions import Fraction

import checks
import goldens
from neutromap import ConceptModel, FuzzyNeutroRelation, NeutroMatrix, NeutroNumber
from neutromap import engines, graphs, ngraph
from neutromap.cli import parse_model


@dataclass
class Op:
    layer: str
    fn: str
    args: tuple
    check: object  # result -> None | reason
    counts: object = None  # result -> {count name: value}
    states: object = None  # result -> iterable of hashable visited states
    expect_error: bool = False  # the documented outcome is an error
    error: object = None  # result -> None | reason, for outcomes that are errors


@dataclass
class Workload:
    name: str
    ops: list
    warmup: list  # indexes into ops, one per kind
    trace_ops: int  # length of the prefix that one traced pass covers
    tail_pct: float  # latency_tail_ms is taken beyond this percentile
    probe: str = "python"  # the host-speed probe that scales its times (speed.py)
    known_defects: list = ()  # ops run once, untimed, outside attempted/failed
    setups: int = 5  # set-ups per run; setup_s is their median
    tail_mean: bool = False  # latency_tail_ms: mean beyond tail_pct, not its value


def interleave(groups):
    """Merge lists so every prefix holds each list in proportion to its size."""
    groups = [g for g in groups if g]
    total = sum(len(g) for g in groups)
    taken = [0] * len(groups)
    out = []
    for t in range(1, total + 1):
        k = max(
            range(len(groups)),
            key=lambda g: (t * len(groups[g]) / total - taken[g], -g),
        )
        out.append(groups[k][taken[k]])
        taken[k] += 1
    return out


def mix(groups):
    """Interleave the groups; warm up on the first (smallest) op of each kind.

    The order does not depend on the seed, so every seed cuts the list at
    the same mix of kinds and sizes; the seed changes only the inputs.
    """
    first = {}
    for g in groups:
        for op in g:
            first.setdefault((op.layer, op.fn), op)
    ops = interleave(groups)
    where = {id(op): i for i, op in enumerate(ops)}
    return ops, [where[id(op)] for op in first.values()]


def load_fixtures(root):
    fx = os.path.join(root, "fixtures")
    models = {}
    for name in sorted(os.listdir(fx)):
        if name.endswith(".model"):
            with open(os.path.join(fx, name), encoding="utf-8") as fh:
                models[name] = parse_model(fh.read())
    return models


def read_fixture(root, name):
    with open(os.path.join(root, "fixtures", name), encoding="utf-8") as fh:
        return fh.read()


# --------------------------------------------------------------- map-sweep

# fixture -> (golden weights, on-index, golden fixed point, degraded fixed point)
CM_GOLDENS = {
    "ex-3.7.1-E.model": (goldens.CHILD_E, 0, goldens.CHILD_E_FIXED, None),
    "ex-3.7.1-NE.model": (goldens.CHILD_NE, 0, goldens.CHILD_NE_FIXED, None),
    "ex-3.7.1-E1.model": (goldens.CHILD_E1, 0, goldens.CHILD_E1_FIXED, None),
    "ex-3.7.1-NE1.model": (goldens.CHILD_NE1, 0, goldens.CHILD_NE1_FIXED, None),
    "ex-3.7.2-NE.model": (
        goldens.HACK_NE, 6, goldens.HACK_FIXED, goldens.HACK_DEGRADED_FIXED,
    ),
}
# 48 generated maps of 16..28 concepts, each run from 2 single-concept starts:
# enough independent maps that their total cost varies little with the seed
NCM_SIZES = tuple(16 + 2 * (i % 7) for i in range(48))
NCM_STARTS = 2


def _golden_pairs(rows):
    return [
        [(Fraction(x[0]), Fraction(x[1])) if isinstance(x, tuple) else (Fraction(x), Fraction(0))
         for x in row]
        for row in rows
    ]


def _render(state):
    return engines.render_state(state)


def _int_weights(W):
    if any(b for row in W for _a, b in row):
        return None
    return [[int(a) for a, _b in row] for row in W]


def _cm_op(tag, model, W, bits, golden=None):
    n = model.size
    s0 = engines.basis_state(n, [i for i, b in enumerate(bits) if b])
    int_W = _int_weights(W)

    def check(result):
        why = checks.check_cm_run(W, s0, model.default_clamp, result)
        if why is None and int_W is not None and model.default_clamp is None:
            why = checks.check_cm_crisp(int_W, bits, result)
        if why is None and golden is not None:
            pattern, trajectory = result
            fixed, traj = golden
            if _render(pattern.states[0]) != fixed:
                why = "golden fixed point %s, got %s" % (fixed, _render(pattern.states[0]))
            elif traj is not None and [_render(s) for s in trajectory[:-1]] != traj:
                why = "golden trajectory differs"
        return why

    def counts(result):
        steps = len(result[1]) - 1
        return {
            "engines.steps": steps,
            "engines.limit_cycles": result[0].kind == "limit-cycle",
            "engines.scalar_ops": steps * n * n,
        }

    def states(result):
        return [(tag, s) for s in result[1]]

    return Op("engines", "cm_run", (model, s0), check, counts=counts, states=states)


def _rm_op(tag, model, W, side, bits, golden=None):
    m, n = model.weights.rows, model.weights.cols
    s0 = engines.basis_state(len(bits), [i for i, b in enumerate(bits) if b])

    def check(result):
        why = checks.check_rm_run(W, s0, side, result)
        if why is None and golden is not None:
            got = (_render(result.domain.states[0]), _render(result.range.states[0]))
            if got != golden:
                why = "golden fixed points %r, got %r" % (golden, got)
        return why

    def counts(result):
        steps = len(result.trajectory) - 1
        cycles = (result.domain.kind == "limit-cycle") + (result.range.kind == "limit-cycle")
        return {
            "engines.steps": steps,
            "engines.limit_cycles": cycles,
            "engines.scalar_ops": steps * 2 * m * n,
        }

    def states(result):
        return [(tag, side, p) for p in result.trajectory]

    return Op("engines", "rm_run", (model, s0, side), check, counts=counts, states=states)


def _bit_starts(n, nonzero=False):
    out = []
    for code in range(2 ** n):
        bits = tuple((code >> (n - 1 - i)) & 1 for i in range(n))
        if nonzero and not any(bits):
            continue
        out.append(bits)
    return out


def _random_ncm(rng, n, density=0.15):
    weights = (NeutroNumber(1), NeutroNumber(-1), NeutroNumber(0, 1))
    rows = [
        [rng.choice(weights) if i != j and rng.random() < density else NeutroNumber(0)
         for j in range(n)]
        for i in range(n)
    ]
    return ConceptModel(["C%d" % (i + 1) for i in range(n)], NeutroMatrix(rows))


def map_sweep(seed, root):
    rng = random.Random(seed)
    fixtures = load_fixtures(root)
    cms = [(k, mf.payload) for k, mf in fixtures.items() if mf.kind == "concept-model"]
    rms = [(k, mf.payload) for k, mf in fixtures.items() if mf.kind == "relational-model"]
    plain, degraded, rm_ops, ncm_ops, misc = [], [], [], [], []

    for name, model in cms:
        W = checks.pairs_matrix(model.weights)
        dmodel = engines.degrade(model)
        dW = checks.pairs_matrix(dmodel.weights)
        gold = CM_GOLDENS.get(name)
        if gold is not None and W != _golden_pairs(gold[0]):
            raise RuntimeError("fixture %s differs from its golden weights" % name)
        for bits in _bit_starts(model.size):
            g = dg = None
            if gold is not None and bits == tuple(int(i == gold[1]) for i in range(model.size)):
                traj = goldens.HACK_TRAJECTORY if name == "ex-3.7.2-NE.model" else None
                g = (gold[2], traj)
                dg = (gold[3], None) if gold[3] else None
            plain.append(_cm_op(name, model, W, bits, g))
            degraded.append(_cm_op("degraded " + name, dmodel, dW, bits, dg))
        misc.append(_degrade_op(model, dW))
        misc.append(_balance_op(model, W))
        misc.append(_frm_op(model, W))

    rm_goldens = {
        ("fig-2.8.11-E1.model", "domain", 0): (goldens.EMPLOYER_DOMAIN_FIXED, goldens.EMPLOYER_RANGE_FIXED),
        ("fig-2.8.11-E1.model", "range", 4): (goldens.EMPLOYER_DOMAIN_FIXED, goldens.EMPLOYER_RANGE_FIXED),
        ("ex-3.7.10-NR.model", "domain", 0): (goldens.INFANT_DOMAIN_FIXED, goldens.INFANT_RANGE_FIXED),
    }
    for name, model in rms:
        W = checks.pairs_matrix(model.weights)
        for side, k in (("domain", model.weights.rows), ("range", model.weights.cols)):
            for bits in _bit_starts(k, nonzero=True):
                g = None
                if sum(bits) == 1:
                    g = rm_goldens.get((name, side, bits.index(1)))
                rm_ops.append(_rm_op(name, model, W, side, bits, g))

    for idx, n in enumerate(NCM_SIZES):
        model = _random_ncm(rng, n)
        W = checks.pairs_matrix(model.weights)
        for i in sorted(rng.sample(range(n), NCM_STARTS)):
            bits = tuple(int(j == i) for j in range(n))
            ncm_ops.append(_cm_op("ncm%d" % idx, model, W, bits))
        misc.append(_frm_op(model, W))

    ops, warm = mix([plain, degraded, rm_ops, ncm_ops, misc])
    return Workload("map-sweep", ops, warm, 600, 95.0)


def _degrade_op(model, dW):
    def check(result):
        if checks.pairs_matrix(result.weights) != dW or result.concept_names != model.concept_names:
            return "degraded model differs"
        return None
    return Op("engines", "degrade", (model,), check)


def _balance_op(model, W):
    return Op("engines", "balance", (model,), lambda r: checks.check_balance(W, r))


def _frm_op(model, W):
    n = len(W)
    edges = sorted({(min(i, j), max(i, j)) for i in range(n) for j in range(n)
                    if W[i][j] != checks.ZERO_P})
    return Op("engines", "frm_convertible", (model,),
              lambda r: checks.check_bipartite(n, edges, r))


# ----------------------------------------------------------------- algebra

MATRIX_SIZES = (16, 20, 24, 28, 32)


def _rational(rng):
    return Fraction(rng.randint(-12, 12), rng.randint(1, 13))


def _token(a, b):
    if b == 0:
        return str(a)
    if a == 0:
        return "%sI" % b
    return "%s%s%sI" % (a, "+" if b > 0 else "-", abs(b))


def _rational_matrix(rng, n):
    pairs = [[(_rational(rng), _rational(rng) if rng.random() < 0.7 else Fraction(0))
              for _ in range(n)] for _ in range(n)]
    text = "\n".join(", ".join(_token(a, b) for a, b in row) for row in pairs)
    return pairs, text


def _nm(pairs):
    return NeutroMatrix([[NeutroNumber(a, b) for a, b in row] for row in pairs])


def _signed_matrix(rng, r, c):
    vals = [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))]
    return [[rng.choice(vals) for _ in range(c)] for _ in range(r)]


# Each chain links directly where shapes conform, else through a shared first
# space (equal row counts), as link does.  Every chain costs 756-840 a+bI
# multiply-adds, and each shape is linked CHAINS_PER_SHAPE times with fresh
# entries: this block of ops of one cost holds the median of the mix, so
# latency_p50_ms does not hinge on how size-dependent ops of other kinds order.
CHAINS_PER_SHAPE = 5
CHAIN_SHAPES = (
    [(8, 10), (10, 10)],
    [(10, 8), (10, 10)],
    [(6, 8), (8, 9), (9, 6)],
    [(8, 6), (8, 10), (6, 6)],
    [(9, 9), (9, 10)],
    [(10, 9), (10, 9)],
)


def _grade_token(rng, real_only):
    x = rng.random()
    if x < 0.35:
        return "0"
    if real_only or x < 0.7:
        return str(Fraction(rng.randint(1, 10), 10))
    if x < 0.8:
        return "I"
    return "%sI" % Fraction(rng.randint(1, 9), 10)


def _relation(rng, n, real_only):
    labels = ["x%d" % (i + 1) for i in range(n)]
    rows = [[_grade_token(rng, real_only) for _ in range(n)] for _ in range(n)]
    R = FuzzyNeutroRelation.from_tokens(rows, labels, labels)
    return R, checks.grades_matrix(R), labels


def algebra(seed, root):
    from neutromap import core

    rng = random.Random(seed)
    parse, mul, rank, render, link, rel = [], [], [], [], [], []

    a_text = read_fixture(root, "ex-1.2.8-A.csv")
    b_text = read_fixture(root, "ex-1.2.8-B.csv")
    A0, B0 = _golden_pairs(goldens.EX_1_2_8_A), _golden_pairs(goldens.EX_1_2_8_B)
    AB0 = _golden_pairs(goldens.EX_1_2_8_AB)
    parse.append(Op("core", "parse_matrix", (a_text,), lambda r: checks.check_matrix_pairs(r, A0)))
    mul.append(_mul_op(_nm(A0), _nm(B0), A0, B0, golden=AB0))

    for n in MATRIX_SIZES:
        A, a_txt = _rational_matrix(rng, n)
        B, _ = _rational_matrix(rng, n)
        parse.append(Op("core", "parse_matrix", (a_txt,),
                        lambda r, A=A: checks.check_matrix_pairs(r, A)))
        mul.append(_mul_op(_nm(A), _nm(B), A, B))
        rank.append(Op("core", "nm_rank", (_nm(A),), lambda r, A=A: checks.check_nm_rank(A, r)))
        render.append(Op("core", "render_matrix", (_nm(B),),
                         lambda r, B=B: checks.check_render(B, r, core.parse_matrix)))
    parse.append(Op("core", "parse_matrix", (b_text,), lambda r: checks.check_matrix_pairs(r, B0)))

    ne1, ne2 = _golden_pairs(goldens.LINK_NE1), _golden_pairs(goldens.LINK_NE2)
    raw0, signed0 = _golden_pairs(goldens.LINK_RAW), _golden_pairs(goldens.LINK_SIGNED)

    def check_fixture_link(r):
        why = checks.check_link([ne1, ne2], r)
        if why is None and (checks.pairs_matrix(r[0]), checks.pairs_matrix(r[1])) != (raw0, signed0):
            why = "linked fixture maps differ from the golden product"
        return why
    link.append(_link_op([ne1, ne2], [(7, 4), (7, 5)], check_fixture_link))
    for shapes in CHAIN_SHAPES * CHAINS_PER_SHAPE:
        chain = [_signed_matrix(rng, r, c) for r, c in shapes]
        link.append(_link_op(chain, shapes, lambda r, c=chain: checks.check_link(c, r)))

    eps = Fraction(1, 2)
    for i, n in enumerate(MATRIX_SIZES):
        R, Rg, labels = _relation(rng, n, real_only=False)
        S, Sg, _ = _relation(rng, n, real_only=True)
        rel.append(_compose_op(R, S, Rg, Sg))
        C, Cg, real = (S, Sg, True) if i % 2 else (R, Rg, False)
        rel.append(_closure_op(C, Cg, real))
        P, Pg = (R, Rg) if i % 2 else (S, Sg)
        rel.append(Op("relations", "properties", (P, eps),
                      lambda r, g=Pg: checks.check_properties(g, eps, r),
                      counts=lambda r, n=n: {"relations.lattice_ops": n ** 3}))
        rel.append(Op("relations", "relational_join", (R, S),
                      lambda r, a=Rg, b=Sg, lb=labels: checks.check_join(a, b, lb, r)))

    ops, warm = mix([parse, mul, rank, render, link, rel])
    return Workload("algebra", ops, warm, 16, 75.0)


def _mul_op(A, B, Ap, Bp, golden=None):
    def check(result):
        why = checks.check_nm_mul(Ap, Bp, result)
        if why is None and golden is not None and checks.pairs_matrix(result) != golden:
            why = "product differs from the golden ex-1.2.8 matrix"
        return why
    work = A.rows * A.cols * B.cols
    return Op("core", "nm_mul", (A, B), check,
              counts=lambda r: {"core.nm_mul.scalar_ops": work})


def _link_op(chain, shapes, check):
    work = checks.link_scalar_ops(shapes)
    return Op("engines", "link", ([_nm(M) for M in chain],), check,
              counts=lambda r: {"core.nm_mul.scalar_ops": work})


def _compose_op(P, Q, Pg, Qg):
    n = len(Pg)
    return Op("relations", "maxmin_compose", (P, Q),
              lambda r: checks.check_compose(Pg, Qg, r),
              counts=lambda r: {"relations.lattice_ops": n * n * n})


def _closure_op(R, Rg, real):
    n = len(Rg)
    memo = []

    def oracle():
        if not memo:
            memo.append(checks.closure_oracle(Rg))
        return memo[0]

    def counts(result):
        rounds = oracle()[1]
        return {"relations.closure_rounds": rounds, "relations.lattice_ops": rounds * n ** 3}
    return Op("relations", "transitive_closure", (R,),
              lambda r: checks.check_closure(Rg, real, oracle()[0], r), counts=counts)


# -------------------------------------------------------- graph-invariants

SPARSE_SIZES = (100, 150, 200, 250, 300)
DENSE_EDGES = {9: 20, 10: 23, 11: 25, 12: 27}
HAM_GUARD = 14


def _sparse_graph(rng, n, kind):
    """m ~ 3n simple graph with a planted perfect matching (n is even)."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set()

    def add(u, v):
        if u != v:
            edges.add((min(u, v), max(u, v)))

    if kind == "eulerian":
        # a hamiltonian cycle plus edge-disjoint triangles keeps degrees even
        for i in range(n):
            add(perm[i], perm[(i + 1) % n])
        while len(edges) + 3 <= 3 * n:
            a, b, c = rng.sample(range(n), 3)
            tri = [(min(x, y), max(x, y)) for x, y in ((a, b), (b, c), (a, c))]
            if not any(e in edges for e in tri):
                edges.update(tri)
        matching = [(perm[i], perm[i + 1]) for i in range(0, n, 2)]
        return sorted(edges), matching
    half = n // 2
    matching = [(perm[i], perm[half + i]) for i in range(half)]
    for u, v in matching:
        add(u, v)
    left = set(perm[:half])
    while len(edges) < 3 * n:
        u, v = rng.sample(range(n), 2)
        if kind == "bipartite" and (u in left) == (v in left):
            continue
        add(u, v)
    return sorted(edges), matching


def _graph_ops(n, edges, matching):
    G = graphs.Graph(n, edges)
    return [
        Op("graphs", "connectivity", (G,), lambda r: checks.check_connectivity(n, edges, r)),
        Op("graphs", "is_bipartite", (G,), lambda r: checks.check_bipartite(n, edges, r)),
        Op("graphs", "eulerian", (G,), lambda r: checks.check_eulerian(n, edges, r)),
        Op("graphs", "degree_report", (G,), lambda r: checks.check_degree_report(n, edges, r)),
        Op("graphs", "tutte", (G,), lambda r: checks.check_tutte(n, edges, matching, r)),
        Op("graphs", "hamiltonian", (G,),
           lambda r: checks.check_hamiltonian(n, edges, HAM_GUARD, r),
           expect_error=n > HAM_GUARD),
    ]


def _random_edges(rng, n, m):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sorted(rng.sample(pairs, m))


def _neutro_graph(rng):
    """6 real and 2 indeterminate vertices, 12 edges of which 4 indeterminate."""
    pairs = rng.sample([(u, v) for u in range(8) for v in range(u + 1, 8)], 12)
    tags = ["I"] * 4 + ["R"] * 8
    rng.shuffle(tags)
    return {"n_real": 6, "n_indet": 2,
            "edges": sorted((u, v, t) for (u, v), t in zip(pairs, tags))}


def _relabel(rng, ng):
    nr, n = ng["n_real"], ng["n_real"] + ng["n_indet"]
    reals, indets = list(range(nr)), list(range(nr, n))
    rng.shuffle(reals)
    rng.shuffle(indets)
    phi = reals + indets
    edges = sorted((min(phi[u], phi[v]), max(phi[u], phi[v]), t) for u, v, t in ng["edges"])
    return dict(ng, edges=edges)


def _flip_one_tag(rng, ng):
    edges = list(ng["edges"])
    k = rng.randrange(len(edges))
    u, v, t = edges[k]
    edges[k] = (u, v, "R" if t == "I" else "I")
    return dict(ng, edges=sorted(edges))


def _ng(ng):
    return ngraph.NeutroGraph(ng["n_real"], ng["n_indet"], ng["edges"])


def _ng_matrix(ng):
    n = ng["n_real"] + ng["n_indet"]
    rows = [[NeutroNumber(0)] * n for _ in range(n)]
    for u, v, t in ng["edges"]:
        rows[u][v] = rows[v][u] = NeutroNumber(0, 1) if t == "I" else NeutroNumber(1)
    return NeutroMatrix(rows)


def graph_invariants(seed, root):
    rng = random.Random(seed)
    sparse, dense, ng_ops = [], [], []
    kinds = ["random", "bipartite", "eulerian"]
    for i, n in enumerate(SPARSE_SIZES * 2):
        edges, matching = _sparse_graph(rng, n, kinds[i % 3])
        sparse.extend(_graph_ops(n, edges, matching))

    for n, m in sorted(DENSE_EDGES.items()):
        for _ in range(2):
            edges = _random_edges(rng, n, m)
            G = graphs.Graph(n, edges)
            dense.append(Op("graphs", "spanning_tree_count", (G,),
                            lambda r, n=n, e=edges: checks.check_tree_count(n, e, r)))
            dense.append(Op("graphs", "chromatic_polynomial", (G,),
                            lambda r, n=n, e=edges: checks.check_chromatic_polynomial(n, e, r)))
            dense.append(Op("graphs", "hamiltonian", (G,),
                            lambda r, n=n, e=edges: checks.check_hamiltonian(n, e, HAM_GUARD, r)))
            if n <= 9:
                dense.append(Op("graphs", "metrics", (G,),
                                lambda r, n=n, e=edges: checks.check_metrics(n, e, r)))
            # vertex and edge coloring inside the default 20-edge guard, and a
            # perfect-matching decision small enough for the brute-force oracle
            cedges = _random_edges(rng, n, 20)
            C = graphs.Graph(n, cedges)
            dense.append(Op("graphs", "coloring", (C,),
                            lambda r, n=n, e=cedges: checks.check_coloring(n, e, r)))
            dense.append(Op("graphs", "tutte", (C,),
                            lambda r, n=n, e=cedges: checks.check_tutte(n, e, None, r)))

    for i in range(20):
        ng = _neutro_graph(rng)
        G = _ng(ng)
        twin = _relabel(rng, ng) if i % 2 == 0 else _flip_one_tag(rng, ng)
        ng_ops += [
            Op("ngraph", "adjacency", (G,), lambda r, g=ng: checks.check_adjacency(g, r)),
            Op("ngraph", "from_adjacency", (_ng_matrix(ng), ng["n_indet"]),
               lambda r, g=ng: checks.check_from_adjacency(g, r)),
            Op("ngraph", "classify", (G,), lambda r, g=ng: checks.check_classify(g, r)),
            Op("ngraph", "neutro_coloring", (G,), lambda r, g=ng: checks.check_neutro_coloring(g, r)),
            Op("ngraph", "neutro_isomorphic", (G, _ng(twin)),
               lambda r, a=ng, b=twin, e=i % 2 == 0: checks.check_isomorphic(a, b, e, r)),
        ]

    ops, warm = mix([sparse, dense, ng_ops])
    return Workload("graph-invariants", ops, warm, 60, 95.0, tail_mean=True)


BUILDERS = {
    "map-sweep": map_sweep,
    "algebra": algebra,
    "graph-invariants": graph_invariants,
}
