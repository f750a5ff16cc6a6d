"""Graphs with indeterminate vertices and edges.

Vertices 0..n_real-1 are real; the remaining indet count get labels N1..Nk.
Every edge carries a tag: "R" (real) or "I" (indeterminate).  Most analyses
delegate to the classical machinery on the underlying graph, which each
`NeutroGraph` builds once and keeps, and layer the indeterminacy bookkeeping
on top: components come from one search of the underlying graph, and the
neutrosophic ones from one pass over the indeterminate vertices and
I-edges.  Isomorphism is a backtracking search over an explicit stack of
untried images, pruned by per-vertex kind and tag-degree signatures.
"""

from collections import Counter

from . import graphs
from .base import ShapeError, _Record, _Value, _check_guard


_TAGS = ("R", "I")


class NeutroGraph(_Value):
    __slots__ = ("n_real", "n_indet", "edges", "directed", "_graph")

    def __init__(self, n_real, n_indet, edges=(), directed=False,
                 allow_multi=False, allow_loops=False):
        """The switches choose what is accepted, as for `graphs.Graph`; an arc
        and its reverse are not parallel."""
        if n_real < 0 or n_indet < 0:
            raise ValueError("negative vertex count")
        edges = tuple(edges)
        self._graph = graphs.Graph(n_real + n_indet, [e[:2] for e in edges], True, allow_loops)
        norm = []
        for u, v, tag in edges:
            if tag not in _TAGS:
                raise ValueError("edge tag %r is not R or I" % (tag,))
            norm.append((u, v, tag) if directed or u <= v else (v, u, tag))
        norm.sort()
        if not allow_multi and any(a[:2] == b[:2] for a, b in zip(norm, norm[1:])):
            raise ValueError("parallel edges on a simple neutro graph")
        self.n_real = n_real
        self.n_indet = n_indet
        self.edges = tuple(norm)
        self.directed = directed

    @property
    def vertex_count(self):
        return self.n_real + self.n_indet

    @property
    def m(self):
        return len(self.edges)

    def is_indet_vertex(self, v):
        return v >= self.n_real

    def label(self, v):
        """Display label: real vertices v1..vn, indeterminate N1..Nk."""
        if self.is_indet_vertex(v):
            return "N%d" % (v - self.n_real + 1)
        return "v%d" % (v + 1)

    def underlying(self):
        """The plain graph left by forgetting tags, vertex kinds and arc
        directions: one object, built with the graph, so every analysis
        shares its neighbour view."""
        return self._graph

    def _key(self):
        return self.n_real, self.n_indet, self.edges, self.directed

    def __reduce__(self):  # the underlying graph is rebuilt, not carried; both switches on
        return NeutroGraph, (*self._key(), True, True)

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
    from .core import I, NeutroMatrix, ONE, ZERO

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
    from .core import _ACTIVATIONS, _check_entries

    if M.rows != M.cols:
        raise ShapeError("adjacency matrix must be square")
    if not (0 <= indet_vertices <= M.rows):
        raise ValueError("indeterminate vertex count out of range")
    _check_entries(M, _ACTIVATIONS, "adjacency entries")
    # every entry is 0, 1 or I now, so each is read once, as its edge tag ("" for 0)
    tags = [["I" if x.indet else "R" if x.real else "" for x in row] for row in M]
    edges = []
    for i, row in enumerate(tags):
        if row[i]:
            raise ValueError(
                "%s adjacency needs a zero diagonal"
                % ("directed" if directed else "undirected")
            )
        for j in range(0 if directed else i + 1, M.cols):
            tag = row[j]
            if not directed and tag != tags[j][i]:
                raise ValueError(
                    "asymmetric adjacency at (%d, %d) with directed=false"
                    % (i + 1, j + 1)
                )
            if tag:
                edges.append((i, j, tag))
    return NeutroGraph(
        M.rows - indet_vertices, indet_vertices, edges, directed=bool(directed)
    )


def strip_indeterminates(G):
    """Delete every indeterminate vertex with its incident edges."""
    edges = [
        (u, v, t)
        for u, v, t in G.edges
        if u < G.n_real and v < G.n_real
    ]
    return NeutroGraph(G.n_real, 0, edges, G.directed, True, True)


class NeutroDegreeReport(_Record):
    __slots__ = (
        "degrees", "min_degree", "max_degree", "k_neutro_regular",
        "strongly_regular", "isolated", "pendent",
    )


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
    tag_of = {(u, v): t for u, v, t in G.edges}
    if len(tag_of) < G.m:
        raise ValueError("vertex sequences are ambiguous on a multigraph")
    if not G.directed:
        tag_of.update({(v, u): t for (u, v), t in tag_of.items()})
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
    neutrosophic component does not qualify.  A component is neutrosophic
    when it holds an indeterminate vertex or an end of an I-edge.
    """
    comps = tuple(graphs._components(G.vertex_count, G.underlying().view()[1]))
    marked = set(range(G.n_real, G.vertex_count))
    marked.update(u for u, _v, t in G.edges if t == "I")
    neutro = tuple(comp for comp in comps if not marked.isdisjoint(comp))
    return comps, neutro, len(neutro) >= 2


class NeutroTreeReport(_Record):
    __slots__ = ("is_neutro_tree", "eccentricities", "radius", "neutro_diameter", "neutro_center")


def neutro_tree(G):
    """Neutro tree flag plus the indeterminate-vertex eccentricity family.

    Eccentricity e(n) is the largest whole-graph distance from indeterminate
    vertex n to another indeterminate vertex; the family is absent (None)
    without indeterminate vertices or connectivity.
    """
    U = G.underlying()
    n = U.vertex_count
    adj = U.view()[1]
    comps = graphs._components(n, adj)
    connected = len(comps) <= 1
    loops = any(u == v for u, v, _t in G.edges)
    acyclic = not loops and U.m == n - len(comps)
    is_tree = acyclic and connected and classify(G) != "plain"

    indet = list(range(G.n_real, G.vertex_count))
    if not indet or not connected:
        return NeutroTreeReport(is_tree, None, None, None, None)
    dists = [graphs._bfs_dist(n, adj, v) for v in indet]
    ecc = tuple(max(dist[w] for w in indet) for dist in dists)
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


def neutro_coloring(G):
    """Neutrosophic chromatic number and index.

    Only real-real adjacency through a real edge constrains vertex colors;
    indeterminate vertices and indeterminate edges never force a conflict,
    so chi_N equals chi of the real-vertex/real-edge induced graph.  The
    edge variant likewise colors only the real edges properly.  Unconstrained
    vertices and edges are assigned color 0.  On a directed graph an arc and
    its reverse are one adjacency and share a color.
    """
    if any(u == v for u, v, _t in G.edges):
        raise ValueError("coloring is undefined on graphs with loops")
    n = G.vertex_count

    real_edges = {
        (u, v) if u < v else (v, u)
        for u, v, t in G.edges
        if t == "R" and not G.is_indet_vertex(u) and not G.is_indet_vertex(v)
    }
    chi, real_colors = graphs._chromatic(graphs.Graph(G.n_real, real_edges))
    vertex_colors = tuple(
        real_colors[v] if v < G.n_real else 0 for v in range(n)
    )

    # copy k of a real arc and copy k of its reverse are one edge; copies count
    # down from -1, so that the first copy takes the last color of its edge
    copies = {}
    slots = {}  # index of each real arc -> (edge, copy)
    for i, (u, v, t) in enumerate(G.edges):
        if t == "R":
            copies[u, v] = copies.get((u, v), 0) - 1
            slots[i] = ((u, v) if u < v else (v, u), copies[u, v])
    real_sub = sorted(set(slots.values()))
    sub = graphs.Graph(n, [e for e, _k in real_sub], allow_multi=True)
    chi_e, sub_colors = graphs._edge_chromatic(sub)
    color_of = dict(zip(real_sub, sub_colors))
    edge_colors = tuple(color_of[slots[i]] if i in slots else 0 for i in range(G.m))
    return graphs.ColoringReport(chi, vertex_colors, chi_e, edge_colors)


def neutro_petersen(kind, *params):
    """Neutrosophic Petersen graphs: vertex k | edge k | strong j k.

    Base labeling: inner pentagon 0..4 (chords i,i+2), outer cycle 5..9,
    spokes (i, 5+i).  Marking takes the first k vertices of that labeling
    and/or the first k edges of the canonical order (spokes, outer cycle,
    chords); marked vertices are then reindexed after the real ones,
    preserving relative order, and become N1..Nk.
    """
    if kind not in ("vertex", "edge", "strong"):
        raise ValueError("unknown petersen kind %r" % (kind,))
    if len(params) != (2 if kind == "strong" else 1):
        raise ValueError("strong variant takes j and k" if kind == "strong"
                         else "%s variant takes exactly one k" % (kind,))
    if kind == "vertex":
        j, k = params[0], 0
        if not 1 <= j <= 10:
            raise ValueError("vertex count k must satisfy 1 <= k <= 10")
    elif kind == "edge":
        j, k = 0, params[0]
        if not 1 <= k <= 15:
            raise ValueError("edge count k must satisfy 1 <= k <= 15")
    else:
        j, k = params
        if not 1 <= j <= 10:
            raise ValueError("vertex count j must satisfy 1 <= j <= 10")
        if not 1 <= k <= 15:
            raise ValueError("edge count k must satisfy 1 <= k <= 15")

    tagged = [
        (u, v, "I" if idx < k else "R")
        for idx, (u, v) in enumerate(graphs.PETERSEN_EDGES)
    ]
    indet = set(range(j))
    real = [v for v in range(10) if v not in indet]
    remap = {v: i for i, v in enumerate(real)}
    remap.update({v: len(real) + i for i, v in enumerate(sorted(indet))})
    edges = [(remap[u], remap[v], t) for u, v, t in tagged]
    return NeutroGraph(len(real), j, edges)


def neutro_isomorphic(G1, G2):
    """Neutro isomorphism (real->real, indet->indet, tags kept) by backtracking.

    A vertex's signature is its kind and its degree per tag, out and in
    apart on directed graphs.  Vertices 0, 1, ... of G1 map in turn onto
    unused vertices of G2 with the same signature, lowest first, when the
    edge count per tag to every vertex already mapped (itself included,
    for loops) agrees; phi is the first map in lexicographic order.
    """
    order = max(G1.vertex_count, G2.vertex_count)
    _check_guard("isomorphism", order)
    if (
        G1.n_real != G2.n_real
        or G1.n_indet != G2.n_indet
        or G1.directed != G2.directed
        or G1.m != G2.m
    ):
        return False, None
    sig1, count1 = _signatures(G1)
    sig2, count2 = _signatures(G2)
    if sorted(sig1) != sorted(sig2):
        return False, None
    n = G1.vertex_count
    phi, untried = {}, []  # untried[v]: the images v has left to try
    while len(phi) < n:
        v = len(phi)
        if len(untried) == v:
            taken = set(phi.values())
            untried.append(iter([a for a in range(n) if a not in taken and sig2[a] == sig1[v]]))
        for a in untried[v]:
            phi[v] = a
            if all(count1[v, x, t] == count2[a, phi[x], t]
                   and count1[x, v, t] == count2[phi[x], a, t]
                   for x in phi for t in _TAGS):
                break
            del phi[v]
        else:
            untried.pop()
            if not untried:
                return False, None
            del phi[v - 1]
    return True, phi


def _signatures(G):
    """Per vertex (kind, per-tag degrees); edge counts keyed (u, v, tag)."""
    sig = [[G.is_indet_vertex(v), 0, 0, 0, 0] for v in range(G.vertex_count)]
    counts = Counter()
    into = 3 if G.directed else 1
    for u, v, t in G.edges:
        k = _TAGS.index(t)
        sig[u][1 + k] += 1
        sig[v][into + k] += 1
        counts[u, v, t] += 1
        if not G.directed and u != v:
            counts[v, u, t] += 1
    return [tuple(s) for s in sig], counts


def is_oriented(G):
    """No symmetric pair of indeterminate arcs (directed graphs only)."""
    if not G.directed:
        raise ValueError("orientation predicate applies to directed graphs")
    indet_arcs = {(u, v) for u, v, t in G.edges if t == "I"}
    return not any((v, u) in indet_arcs for u, v in indet_arcs if u != v)
