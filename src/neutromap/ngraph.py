"""Graphs with indeterminate vertices and edges.

Vertices 0..n_real-1 are real; the remaining indet count get labels N1..Nk.
Every edge carries a tag: "R" (real) or "I" (indeterminate).  Most analyses
delegate to the classical machinery on the underlying graph and layer the
indeterminacy bookkeeping on top.
"""

from dataclasses import dataclass

from . import graphs
from .core import I, NeutroMatrix, SizeLimitError, ZERO, ONE


_TAGS = ("R", "I")


class NeutroGraph:
    __slots__ = ("n_real", "n_indet", "edges", "directed", "allow_multi", "allow_loops")

    def __init__(self, n_real, n_indet, edges=(), directed=False,
                 allow_multi=False, allow_loops=False):
        if n_real < 0 or n_indet < 0:
            raise ValueError("negative vertex count")
        n = n_real + n_indet
        norm = []
        for u, v, tag in edges:
            if tag not in _TAGS:
                raise ValueError("edge tag %r is not R or I" % (tag,))
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge (%d, %d) out of range" % (u, v))
            if u == v and not allow_loops:
                raise ValueError("loop (%d, %d) on a loopless graph" % (u, v))
            if not directed and u > v:
                u, v = v, u
            norm.append((u, v, tag))
        norm.sort()
        if not allow_multi:
            pairs = [(u, v) for u, v, _t in norm]
            if len(set(pairs)) != len(pairs):
                raise ValueError("parallel edges on a simple neutro graph")
        self.n_real = n_real
        self.n_indet = n_indet
        self.edges = tuple(norm)
        self.directed = directed
        self.allow_multi = allow_multi
        self.allow_loops = allow_loops

    @property
    def vertex_count(self):
        return self.n_real + self.n_indet

    @property
    def m(self):
        return len(self.edges)

    def is_simple(self):
        return not self.allow_multi and not self.allow_loops

    def is_indet_vertex(self, v):
        return v >= self.n_real

    def label(self, v):
        """Display label: real vertices v1..vn, indeterminate N1..Nk."""
        if self.is_indet_vertex(v):
            return "N%d" % (v - self.n_real + 1)
        return "v%d" % (v + 1)

    def underlying(self):
        """The plain graph obtained by forgetting tags and vertex kinds."""
        return graphs.Graph(
            self.vertex_count,
            [(u, v) for u, v, _t in self.edges],
            self.allow_multi,
            self.allow_loops,
        )

    def __eq__(self, other):
        if not isinstance(other, NeutroGraph):
            return NotImplemented
        return (
            self.n_real == other.n_real
            and self.n_indet == other.n_indet
            and self.edges == other.edges
            and self.directed == other.directed
        )

    def __hash__(self):
        return hash((self.n_real, self.n_indet, self.edges, self.directed))

    def __repr__(self):
        return "NeutroGraph(%d+%d, m=%d%s)" % (
            self.n_real, self.n_indet, self.m, ", directed" if self.directed else ""
        )


def classify(G):
    """plain | vertex-neutrosophic | edge-neutrosophic | strong."""
    has_nv = G.n_indet > 0
    has_ne = any(t == "I" for _u, _v, t in G.edges)
    if has_nv and has_ne:
        return "strong"
    if has_nv:
        return "vertex-neutrosophic"
    if has_ne:
        return "edge-neutrosophic"
    return "plain"


def adjacency(G):
    """Square matrix over {0, 1, I}; I marks the indeterminate edges."""
    n = G.vertex_count
    rows = [[ZERO] * n for _ in range(n)]
    for u, v, t in G.edges:
        val = I if t == "I" else ONE
        rows[u][v] = val
        if not G.directed:
            rows[v][u] = val
    return NeutroMatrix(rows)


def from_adjacency(M, indet_vertices=0, directed=False):
    """Inverse of adjacency; vertex indeterminacy is supplied out-of-band."""
    if M.rows != M.cols:
        raise ValueError("adjacency matrix must be square")
    if not (0 <= indet_vertices <= M.rows):
        raise ValueError("indeterminate vertex count out of range")
    for i in range(M.rows):
        for j in range(M.cols):
            if M.entry(i, j) not in (ZERO, ONE, I):
                raise ValueError(
                    "adjacency entries must be 0, 1 or I; found %s at (%d, %d)"
                    % (M.entry(i, j), i + 1, j + 1)
                )
    edges = []
    if directed:
        loops = False
        for i in range(M.rows):
            for j in range(M.cols):
                x = M.entry(i, j)
                if x != ZERO:
                    edges.append((i, j, "I" if x == I else "R"))
                    loops = loops or i == j
        return NeutroGraph(
            M.rows - indet_vertices, indet_vertices, edges,
            directed=True, allow_loops=loops,
        )
    for i in range(M.rows):
        if M.entry(i, i) != ZERO:
            raise ValueError("undirected adjacency needs a zero diagonal")
        for j in range(i + 1, M.cols):
            if M.entry(i, j) != M.entry(j, i):
                raise ValueError(
                    "asymmetric adjacency at (%d, %d) with directed=false"
                    % (i + 1, j + 1)
                )
            x = M.entry(i, j)
            if x != ZERO:
                edges.append((i, j, "I" if x == I else "R"))
    return NeutroGraph(M.rows - indet_vertices, indet_vertices, edges)


def strip_indeterminates(G):
    """Delete every indeterminate vertex with its incident edges."""
    edges = [
        (u, v, t)
        for u, v, t in G.edges
        if u < G.n_real and v < G.n_real
    ]
    return NeutroGraph(G.n_real, 0, edges, G.directed, G.allow_multi, G.allow_loops)


@dataclass(frozen=True)
class NeutroDegreeReport:
    degrees: tuple
    min_degree: object
    max_degree: object
    k_neutro_regular: object
    strongly_regular: bool
    isolated: tuple
    pendent: tuple


def neutro_degree_report(G):
    """Degrees of the indeterminate vertices (loops count twice)."""
    deg = G.underlying().degrees()
    indet = list(range(G.n_real, G.vertex_count))
    nd = tuple(deg[v] for v in indet)
    if not indet:
        return NeutroDegreeReport((), None, None, None, False, (), ())
    k = nd[0] if len(set(nd)) == 1 else None
    strongly = k is not None and all(d == k for d in deg)
    return NeutroDegreeReport(
        nd,
        min(nd),
        max(nd),
        k,
        strongly,
        tuple(v for v in indet if deg[v] == 0),
        tuple(v for v in indet if deg[v] == 1),
    )


def classify_walk(G, seq):
    """Classify a vertex sequence as walk/trail/path/cycle/invalid.

    Returns (kind, neutrosophic, closed).  The neutrosophic flag depends on
    the ambient graph's classification: an edge-neutrosophic graph needs an
    indeterminate edge on the walk, a strong graph needs an indeterminate
    vertex and an indeterminate edge, a vertex-neutrosophic graph an
    indeterminate vertex; walks in plain graphs are never neutrosophic.
    """
    seq = list(seq)
    invalid = ("invalid", False, False)
    if not seq:
        return invalid
    n = G.vertex_count
    if any(not (0 <= v < n) for v in seq):
        return invalid
    if G.allow_multi:
        raise ValueError("vertex sequences are ambiguous on a multigraph")
    tag_of = {}
    for u, v, t in G.edges:
        tag_of[(u, v)] = t
        if not G.directed:
            tag_of[(v, u)] = t
    steps = []
    for a, b in zip(seq, seq[1:]):
        if (a, b) not in tag_of:
            return invalid
        steps.append((a, b))

    closed = seq[0] == seq[-1]
    edge_keys = [((a, b) if G.directed or a <= b else (b, a)) for a, b in steps]
    distinct_edges = len(set(edge_keys)) == len(edge_keys)
    if closed and len(seq) >= 4 and len(set(seq[:-1])) == len(seq) - 1:
        kind = "cycle"
    elif len(set(seq)) == len(seq):
        kind = "path"
    elif distinct_edges:
        kind = "trail"
    else:
        kind = "walk"

    used_indet_vertex = any(G.is_indet_vertex(v) for v in seq)
    used_indet_edge = any(tag_of[s] == "I" for s in steps)
    cls = classify(G)
    if cls == "strong":
        neutro = used_indet_vertex and used_indet_edge
    elif cls == "edge-neutrosophic":
        neutro = used_indet_edge
    elif cls == "vertex-neutrosophic":
        neutro = used_indet_vertex
    else:
        neutro = False
    return kind, neutro, closed


def neutro_components(G):
    """Components plus the neutrosophic-disconnection verdict.

    A graph is neutrosophically disconnected only when at least two of its
    components are themselves neutrosophic; one plain component next to one
    neutrosophic component does not qualify.
    """
    comps = graphs.connectivity(G.underlying()).components
    neutro = []
    for comp in comps:
        members = set(comp)
        has_nv = any(G.is_indet_vertex(v) for v in members)
        has_ne = any(
            t == "I" for u, v, t in G.edges if u in members and v in members
        )
        if has_nv or has_ne:
            neutro.append(comp)
    return comps, tuple(neutro), len(neutro) >= 2


@dataclass(frozen=True)
class NeutroTreeReport:
    is_neutro_tree: bool
    eccentricities: object
    radius: object
    neutro_diameter: object
    neutro_center: object


def neutro_tree(G):
    """Neutro tree flag plus the indeterminate-vertex eccentricity family.

    Eccentricity e(n) is the largest whole-graph distance from indeterminate
    vertex n to another indeterminate vertex; the family is absent (None)
    without indeterminate vertices or connectivity.
    """
    U = G.underlying()
    n = U.vertex_count
    comps = graphs.connectivity(U).components
    connected = len(comps) <= 1
    loops = any(u == v for u, v, _t in G.edges)
    acyclic = not loops and U.m == n - len(comps)
    is_tree = acyclic and connected and classify(G) != "plain"

    indet = list(range(G.n_real, G.vertex_count))
    if not indet or not connected:
        return NeutroTreeReport(is_tree, None, None, None, None)
    dist = graphs.metrics(U).distances
    ecc = tuple(max(dist[v][w] for w in indet) for v in indet)
    radius = min(ecc)
    diameter = max(ecc)
    center = tuple(v for v, e in zip(indet, ecc) if e == radius)
    return NeutroTreeReport(is_tree, ecc, radius, diameter, center)


def neutro_eulerian(G):
    """(neutro-eulerian, strongly neutro-eulerian) flags.

    Base test is classical Eulerianness of the underlying graph with every
    edge included; the flags then require some indeterminacy (any, or both
    a vertex and an edge).
    """
    base, _tour = graphs.eulerian(G.underlying())
    cls = classify(G)
    return base and cls != "plain", base and cls == "strong"


NeutroColoringReport = graphs.ColoringReport


def neutro_coloring(G, vertex_guard=14, edge_guard=20):
    """Neutrosophic chromatic number and index.

    Only real-real adjacency through a real edge constrains vertex colors;
    indeterminate vertices and indeterminate edges never force a conflict,
    so chi_N equals chi of the real-vertex/real-edge induced graph.  The
    edge variant likewise colors only the real edges properly.  Unconstrained
    vertices and edges are assigned color 0.
    """
    if any(u == v for u, v, _t in G.edges):
        raise ValueError("coloring is undefined on graphs with loops")
    n = G.vertex_count

    real_edges = sorted(
        {
            (u, v)
            for u, v, t in G.edges
            if t == "R" and not G.is_indet_vertex(u) and not G.is_indet_vertex(v)
        }
    )
    if G.n_real > vertex_guard:
        raise SizeLimitError(
            "vertex coloring guard: %d vertices exceeds %d" % (G.n_real, vertex_guard)
        )
    chi, real_colors = graphs._chromatic(G.n_real, real_edges)
    vertex_colors = tuple(
        real_colors[v] if v < G.n_real else 0 for v in range(n)
    )

    real_sub = [(u, v) for u, v, t in G.edges if t == "R"]
    if len(real_sub) > edge_guard:
        raise SizeLimitError(
            "edge coloring guard: %d edges exceeds %d" % (len(real_sub), edge_guard)
        )
    sub = graphs.Graph(n, real_sub, allow_multi=G.allow_multi)
    chi_e, sub_colors = graphs._edge_chromatic(sub)
    pool = {}
    for e, c in zip(sub.edges, sub_colors):
        pool.setdefault(e, []).append(c)
    edge_colors = []
    for u, v, t in G.edges:
        if t == "R":
            edge_colors.append(pool[(u, v)].pop())
        else:
            edge_colors.append(0)
    return graphs.ColoringReport(chi, vertex_colors, chi_e, tuple(edge_colors))


_PETERSEN_VERTEX_ORDER = tuple(range(10))  # inner pentagon 0..4 first


def _petersen_edge_order():
    spokes = [(i, 5 + i) for i in range(5)]
    outer = [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    outer = [(u, v) if u <= v else (v, u) for u, v in outer]
    chords = [(i, (i + 2) % 5) for i in range(5)]
    chords = [(u, v) if u <= v else (v, u) for u, v in chords]
    return spokes + outer + chords


def neutro_petersen(kind, *params):
    """Neutrosophic Petersen graphs: vertex k | edge k | strong j k.

    Base labeling: inner pentagon 0..4 (chords i,i+2), outer cycle 5..9,
    spokes (i, 5+i).  Marking takes the first k vertices of that labeling
    and/or the first k edges of the canonical order (spokes, outer cycle,
    chords); marked vertices are then reindexed after the real ones,
    preserving relative order, and become N1..Nk.
    """
    if kind == "vertex":
        (k,) = params
        j, k = k, 0
        if not 1 <= j <= 10:
            raise ValueError("vertex count k must satisfy 1 <= k <= 10")
    elif kind == "edge":
        (k,) = params
        j = 0
        if not 1 <= k <= 15:
            raise ValueError("edge count k must satisfy 1 <= k <= 15")
    elif kind == "strong":
        j, k = params
        if not 1 <= j <= 10:
            raise ValueError("vertex count j must satisfy 1 <= j <= 10")
        if not 1 <= k <= 15:
            raise ValueError("edge count k must satisfy 1 <= k <= 15")
    else:
        raise ValueError("unknown petersen kind %r" % (kind,))

    order = _petersen_edge_order()
    tagged = [
        (u, v, "I" if idx < k else "R") for idx, (u, v) in enumerate(order)
    ]
    indet = set(range(j))
    real = [v for v in range(10) if v not in indet]
    remap = {v: i for i, v in enumerate(real)}
    remap.update({v: len(real) + i for i, v in enumerate(sorted(indet))})
    edges = [(remap[u], remap[v], t) for u, v, t in tagged]
    return NeutroGraph(len(real), j, edges)


def neutro_isomorphic(G1, G2, guard=10):
    """Brute-force neutro isomorphism: real->real, indet->indet, tags kept."""
    from itertools import permutations

    if G1.vertex_count > guard or G2.vertex_count > guard:
        raise SizeLimitError(
            "isomorphism guard: order above %d" % (guard,)
        )
    if (
        G1.n_real != G2.n_real
        or G1.n_indet != G2.n_indet
        or G1.directed != G2.directed
        or G1.m != G2.m
    ):
        return False, None

    def key(edges):
        return tuple(sorted(edges))

    target = key(G2.edges)
    reals = range(G1.n_real)
    indets = range(G1.n_real, G1.vertex_count)
    for pr in permutations(range(G2.n_real)):
        for pi in permutations(range(G2.n_real, G2.vertex_count)):
            phi = dict(zip(reals, pr))
            phi.update(zip(indets, pi))
            mapped = []
            for u, v, t in G1.edges:
                a, b = phi[u], phi[v]
                if not G1.directed and a > b:
                    a, b = b, a
                mapped.append((a, b, t))
            if key(mapped) == target:
                return True, phi
    return False, None


def is_oriented(G):
    """No symmetric pair of indeterminate arcs (directed graphs only)."""
    if not G.directed:
        raise ValueError("orientation predicate applies to directed graphs")
    indet_arcs = {(u, v) for u, v, t in G.edges if t == "I"}
    return not any((v, u) in indet_arcs for u, v in indet_arcs if u != v)
