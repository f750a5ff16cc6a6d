"""Classical graphs: generators, invariants, colorings, counts.

Vertices are indices 0..n-1.  Edges are unordered pairs; the constructor
accepts parallel edges and loops only when asked to (contraction creates
parallel edges), and a graph is simple when its edges hold neither.  Each
graph builds one neighbour view, incident edges and distinct neighbours in
ascending order, that every routine here and in `ngraph` shares, so
searches and certificates follow ascending neighbour order.  Components,
cut vertices and bridges come from one lowpoint depth-first search
(Hopcroft-Tarjan), one component per DFS tree.
An Euler tour is Hierholzer's, and the edges are connected exactly when it
covers them all.  The line graph pairs the edges at each vertex.
Spanning-tree counts come from Kirchhoff's matrix-tree theorem with the
fraction-free elimination of `core`, the perfect-matching decision that
accompanies the Tutte matrix from Edmonds' blossom algorithm, and girth from
breadth-first searches that stop early (Itai-Rodeh).  Chromatic polynomials
branch by deletion-contraction over memoised bitmask states, each stripped of
simplicial vertices in one pass.  The Bondy-Chvatal closure is degree-gated,
and a vertex of degree below 2 answers "not Hamiltonian" without a search.
The circumference and Hamiltonian cycles share one iterative search over
(vertex set, end) states; chromatic number and index run desk-scale
backtracking on an explicit stack.  Every exponential search sits behind a
size guard, and so do the edge count of a generated graph, the n x n
distance table, Tutte names and Laplacian, the n x m work of the distance
searches, and the printed size of a chromatic polynomial.
"""

from itertools import combinations, count, starmap, zip_longest
from operator import add, itemgetter, sub

from .base import _GUARDS, NotFoundError, _Record, _Value, _check_guard, _echelon


class Graph(_Value):
    __slots__ = ("vertex_count", "edges", "_simple", "_view")

    def __init__(self, vertex_count, edges=(), allow_multi=False, allow_loops=False):
        """The two switches only choose what is accepted: loops, and
        parallel edges.  Simplicity is read from the edges themselves."""
        if vertex_count < 0:
            raise ValueError("negative vertex count")
        norm = []
        simple = True
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError("edge (%d, %d) out of range" % (u, v))
            if u == v:
                if not allow_loops:
                    raise ValueError("loop (%d, %d) on a loopless graph" % (u, v))
                simple = False
            norm.append((u, v) if u <= v else (v, u))
        norm.sort()
        # sorted, so a parallel pair sits side by side
        repeat = next((a for a, b in zip(norm, norm[1:]) if a == b), None)
        if repeat is not None and not allow_multi:
            raise ValueError("duplicate edge %r on a simple graph" % (repeat,))
        self.vertex_count = vertex_count
        self.edges = tuple(norm)
        self._simple = simple and repeat is None
        self._view = None

    @property
    def m(self):
        return len(self.edges)

    def is_simple(self):
        """No loop and no parallel pair."""
        return self._simple

    def view(self):
        """(incidence, neighbours), built on first use and shared: per vertex,
        (other end, edge index) for each incident edge with a loop listed
        once, and the distinct neighbours (a loop puts v among its own).

        Edges are sorted, so both come out ascending by the other end.
        """
        if self._view is None:
            incidence = [[] for _ in range(self.vertex_count)]
            for idx, (u, v) in enumerate(self.edges):
                incidence[u].append((v, idx))
                if u != v:
                    incidence[v].append((u, idx))
            self._view = (
                tuple(map(tuple, incidence)),
                tuple(tuple(dict.fromkeys(map(itemgetter(0), at))) for at in incidence),
            )
        return self._view

    def degrees(self):
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def _key(self):
        return self.vertex_count, self.edges

    def __reduce__(self):  # the view is rebuilt on use, not carried; both switches on
        return Graph, (self.vertex_count, self.edges, True, True)

    def __repr__(self):
        return "Graph(%d, m=%d)" % (self.vertex_count, self.m)


# spokes (i, 5+i), outer cycle 5..9, inner chords (i, i+2), in this order
PETERSEN_EDGES = tuple(
    [(i, 5 + i) for i in range(5)]
    + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    + [(i, (i + 2) % 5) for i in range(5)]
)

# family -> (least value of each parameter, message when one is below it,
# parameters -> (vertex count, edge count, lazy edges))
FAMILIES = {
    "complete": ((1,), "complete graph needs n >= 1",
                 lambda n: (n, n * (n - 1) // 2,
                            ((u, v) for u in range(n) for v in range(u + 1, n)))),
    "complete-bipartite": ((1, 1), "complete-bipartite needs both part sizes >= 1",
                           lambda t, s: (t + s, t * s,
                                         ((u, t + v) for u in range(t) for v in range(s)))),
    "cycle": ((3,), "cycle needs n >= 3",
              lambda n: (n, n, ((i, (i + 1) % n) for i in range(n)))),
    "path": ((1,), "path needs n >= 1",
             lambda n: (n, n - 1, ((i, i + 1) for i in range(n - 1)))),
    "star": ((1,), "star needs s >= 1 leaves",
             lambda s: (s + 1, s, ((0, i) for i in range(1, s + 1)))),
    "wheel": ((3,), "wheel needs rim n >= 3",
              lambda n: (n + 1, 2 * n,
                         (e for i in range(1, n + 1) for e in ((0, i), (i, i % n + 1))))),
    "petersen": ((), None, lambda: (10, 15, PETERSEN_EDGES)),
}


def generate(kind, *params):
    """Canonical instance of a named family.

    kinds: complete n | complete-bipartite t s | cycle n | path n | star s |
    wheel n | petersen.  The edge count is checked against the graph
    generator guard before any edge is made.
    """
    if kind not in FAMILIES:
        raise ValueError("unknown graph family %r" % (kind,))
    least, message, build = FAMILIES[kind]
    if len(params) != len(least):
        raise ValueError("%s takes %d parameter%s, got %d" % (
            kind, len(least), "" if len(least) == 1 else "s", len(params)))
    if any(p < m for p, m in zip(params, least)):
        raise ValueError(message)
    vertex_count, m, edges = build(*params)
    _check_guard("graph generator", m)
    return Graph(vertex_count, edges)


class DegreeReport(_Record):
    __slots__ = ("degrees", "min_degree", "max_degree", "sequence")


def degree_report(G):
    deg = G.degrees()
    if not deg:
        return DegreeReport((), 0, 0, ())
    return DegreeReport(
        tuple(deg), min(deg), max(deg), tuple(sorted(deg, reverse=True))
    )


def _components(n, adj):
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        comps.append(tuple(sorted(comp)))
    return comps


class ConnectivityReport(_Record):
    __slots__ = ("components", "is_connected", "cut_vertices", "cut_edges")


def connectivity(G):
    """Components plus cut vertices and bridges from one lowpoint DFS.

    Each DFS tree is one component; roots ascend, so components are listed
    by their least vertex.  The parent is skipped by edge index, so a
    parallel edge is never a bridge.
    """
    n = G.vertex_count
    incidence = G.view()[0]
    disc = [None] * n
    low = [0] * n
    hits = [0] * n  # DFS children w of v with low[w] >= disc[v]
    order = []  # vertices by discovery time
    comps = []
    cut_edges = set()
    for root in range(n):
        if disc[root] is not None:
            continue
        first = disc[root] = low[root] = len(order)
        order.append(root)
        hits[root] = -1  # the first child of a root separates nothing
        # frames: (vertex, index of the edge it was reached by, edge iterator)
        stack = [(root, None, iter(incidence[root]))]
        while stack:
            v, via, todo = stack[-1]
            for w, idx in todo:
                if disc[w] is None:
                    disc[w] = low[w] = len(order)
                    order.append(w)
                    stack.append((w, idx, iter(incidence[w])))
                    break
                if idx != via:
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] >= disc[p]:
                        hits[p] += 1
                    if low[v] > disc[p]:
                        cut_edges.add(G.edges[via])
        comps.append(tuple(sorted(order[first:])))

    cut_vertices = frozenset(v for v in range(n) if hits[v] > 0)
    return ConnectivityReport(
        tuple(comps), len(comps) <= 1, cut_vertices, frozenset(cut_edges)
    )


def _bfs_dist(n, adj, src):
    dist = [None] * n
    dist[src] = 0
    queue = [src]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for y in adj[x]:
            if dist[y] is None:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


class MetricsReport(_Record):
    __slots__ = ("distances", "girth", "circumference", "diameter")


def metrics(G):
    n = G.vertex_count
    _check_guard("distance table", n * n)
    _check_guard("distance search", n * G.m)
    nbrs = G.view()[1]
    dists = tuple(tuple(_bfs_dist(n, nbrs, s)) for s in range(n))

    # no cycle uses a bridge, so both cycle searches run without them
    bridges = connectivity(G).cut_edges
    nbrs = [[w for w in at if ((v, w) if v < w else (w, v)) not in bridges]
            for v, at in enumerate(nbrs)]
    # edges are sorted, so parallel pairs sit next to each other
    loop = any(u == v for u, v in G.edges)
    parallel = any(a == b and a[0] != a[1] for a, b in zip(G.edges, G.edges[1:]))
    if loop:
        girth = 1
    elif parallel:
        girth = 2
    else:
        girth = _girth(n, nbrs)

    # a cycle through s lies on vertices >= s, so one of n - s vertices is
    # the longest any later start can find
    circumference = 2 if parallel else 1 if loop else 0
    seen = set()
    for s in range(n):
        if circumference >= n - s:
            break
        circumference = max(circumference, _cycle_search(nbrs, s, n - s, seen)[0])
    connected = n > 0 and None not in dists[0]
    diameter = max(map(max, dists)) if connected else None
    return MetricsReport(dists, girth, circumference or None, diameter)


def _girth(n, adj):
    """Shortest cycle of a simple graph, or None (Itai-Rodeh 1978).

    A BFS from each source meets an edge xy with x in layer d and y already
    in layer d or d+1, which closes a cycle of at most d + dist(y) + 1,
    tight from a source on a shortest cycle; an edge back to layer d-1 was
    met from its other end.  Layer d gives no less than 2d+1, so a BFS stops
    at the first layer where that reaches the best bound, and 3 ends them all.
    """
    best = n + 1
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = [s]
        for x in queue:
            d = dist[x]
            if 2 * d + 1 >= best:
                break
            for y in adj[x]:
                dy = dist[y]
                if dy < 0:
                    dist[y] = d + 1
                    queue.append(y)
                elif dy >= d and d + dy + 1 < best:
                    best = d + dy + 1
        if best == 3:
            break
    return best if best <= n else None


def is_bipartite(G):
    """Two-color by BFS; returns (True, (part0, part1)) or (False, odd cycle).

    The ends x, y of a clashing edge lie in the same BFS layer, so their
    parent chains meet after equally many steps; the cycle runs from x up
    to the meeting vertex and down to y.
    """
    n = G.vertex_count
    adj = G.view()[1]
    for u, v in G.edges:
        if u == v:
            return False, (u,)
    color = [None] * n
    parent = [None] * n
    for s in range(n):
        if color[s] is not None:
            continue
        color[s] = 0
        queue = [s]
        for x in queue:
            for y in adj[x]:
                if color[y] is None:
                    color[y] = 1 - color[x]
                    parent[y] = x
                    queue.append(y)
                elif color[y] == color[x]:
                    up, down = [x], [y]
                    while up[-1] != down[-1]:
                        up.append(parent[up[-1]])
                        down.append(parent[down[-1]])
                    return False, tuple(up + down[-2::-1])
    part0 = tuple(v for v in range(n) if color[v] == 0)
    part1 = tuple(v for v in range(n) if color[v] == 1)
    return True, (part0, part1)


def combine(kind, G1, G2):
    """union | sum | join | cartesian-product | intersection of two graphs.

    union/intersection treat equal indices as the same labeled vertex; sum
    and join relabel the second operand onto fresh indices first.
    """
    if not (G1.is_simple() and G2.is_simple()):
        raise ValueError("combine works on simple graphs")
    if kind == "union":
        n = max(G1.vertex_count, G2.vertex_count)
        return Graph(n, set(G1.edges) | set(G2.edges))
    if kind == "intersection":
        if G1.vertex_count == 0 or G2.vertex_count == 0:
            raise ValueError("intersection needs overlapping vertex sets")
        n = min(G1.vertex_count, G2.vertex_count)
        return Graph(n, set(G1.edges) & set(G2.edges))
    if kind in ("sum", "join"):
        off = G1.vertex_count
        edges = list(G1.edges) + [(u + off, v + off) for u, v in G2.edges]
        if kind == "join":
            edges += [
                (u, off + v)
                for u in range(G1.vertex_count)
                for v in range(G2.vertex_count)
            ]
        return Graph(off + G2.vertex_count, edges)
    if kind == "cartesian-product":
        n1, n2 = G1.vertex_count, G2.vertex_count
        edges = [(u * n2 + v, u * n2 + w) for u in range(n1) for v, w in G2.edges]
        edges += [(u * n2 + v, x * n2 + v) for u, x in G1.edges for v in range(n2)]
        return Graph(n1 * n2, edges)
    raise ValueError("unknown combine kind %r" % (kind,))


def complement(G):
    if not G.is_simple():
        raise ValueError("complement is defined for simple graphs")
    n = G.vertex_count
    present = set(G.edges)
    return Graph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in present
        ],
    )


def line_graph(G):
    """One vertex per edge of G; adjacency iff the edges share an endpoint.

    The adjacent pairs are the pairs of edges at each vertex; a parallel
    pair meets at both ends and is one edge.
    """
    if any(u == v for u, v in G.edges):
        raise ValueError("line graph needs a loopless graph")
    out = set()
    for at in G.view()[0]:
        out.update(combinations([idx for _w, idx in at], 2))
    return Graph(G.m, out)


def edit(G, op, arg):
    """delete-vertices xs | delete-edges es | contract-edge e."""
    if op == "delete-vertices":
        xs = set(arg)
        for x in xs:
            if not (0 <= x < G.vertex_count):
                raise NotFoundError("vertex %r not in graph" % (x,))
        keep = [v for v in range(G.vertex_count) if v not in xs]
        remap = {v: i for i, v in enumerate(keep)}
        edges = [
            (remap[u], remap[v])
            for u, v in G.edges
            if u not in xs and v not in xs
        ]
        return Graph(len(keep), edges, True, True)
    if op == "delete-edges":
        remaining = list(G.edges)
        for e in arg:
            u, v = e
            e = (u, v) if u <= v else (v, u)
            if e not in remaining:
                raise NotFoundError("edge %r not in graph" % (e,))
            remaining.remove(e)
        return Graph(G.vertex_count, remaining, True, True)
    if op == "contract-edge":
        u, v = arg
        e = (u, v) if u <= v else (v, u)
        u, v = e
        if e not in G.edges:
            raise NotFoundError("edge %r not in graph" % (e,))
        if u == v:
            raise ValueError("cannot contract a loop")
        return Graph(G.vertex_count - 1, _contract(G.edges, u, v), True, True)
    raise ValueError("unknown edit op %r" % (op,))


def _contract(edges, u, v):
    """Merge v into u (u < v), renumber above v; the edges joining u and v go."""
    def image(x):
        return u if x == v else x - (x > v)

    return [(image(a), image(b)) for a, b in edges if (a, b) != (u, v)]


def eulerian(G):
    """Eulerian iff some edge, all degrees even, and the edges connected.

    When Eulerian, returns a closed tour as a (from, to) edge sequence built
    by Hierholzer's algorithm from the least vertex with an edge.  With all
    degrees even that tour uses every edge of its component, so the edges
    are connected exactly when it uses all m of them.
    """
    deg = G.degrees()
    active = [v for v in range(G.vertex_count) if deg[v] > 0]
    if not active or any(deg[v] % 2 for v in active):
        return False, None

    todo = [iter(at) for at in G.view()[0]]
    used = [False] * G.m
    stack = [active[0]]
    path = []
    while stack:
        for y, idx in todo[stack[-1]]:
            if not used[idx]:
                used[idx] = True
                stack.append(y)
                break
        else:
            path.append(stack.pop())
    if len(path) - 1 < G.m:
        return False, None
    path.reverse()
    return True, list(zip(path, path[1:]))


def hamiltonian(G):
    """Bondy-Chvatal closure plus exact spanning-cycle search.

    Returns (closure, is_hamiltonian, cycle-or-None).  Beyond the guard the
    answer is only produced when the closure is complete (then the flag is
    true with no explicit cycle).  Each closure round joins the missing
    pairs whose degrees sum to at least n, looking only among vertices that
    reach n with the largest degree, so a graph whose two largest degrees
    sum below n is its own closure at O(n + m).  A vertex of degree below 2
    rules out a spanning cycle, so then no search runs.
    """
    if not G.is_simple():
        raise ValueError("hamiltonicity check needs a simple graph")
    n = G.vertex_count
    if n < 3:
        raise ValueError("hamiltonicity is undefined below 3 vertices")

    nbrs = G.view()[1]
    adj = [set(at) for at in nbrs]  # the closure adds to these
    deg = G.degrees()
    low = min(deg)
    added = []
    while True:
        top = max(deg)
        rows = sorted((u for u in range(n) if deg[u] + top >= n),
                      key=deg.__getitem__, reverse=True)
        new = []
        for i, u in enumerate(rows):
            need = n - deg[u]
            for j in range(i + 1, len(rows)):  # a slice would copy the tail before the break
                v = rows[j]
                if deg[v] < need:
                    break
                if v not in adj[u]:
                    new.append((u, v))
        if not new:
            break
        for u, v in new:
            adj[u].add(v)
            adj[v].add(u)
            deg[u] += 1
            deg[v] += 1
        added += new
    closure = Graph(n, G.edges + tuple(added)) if added else G

    if min(deg) == n - 1 and n > _GUARDS["hamiltonian search"][0]:
        return closure, True, None
    _check_guard("hamiltonian search", n)
    if low < 2:
        return closure, False, None

    cycle = _cycle_search(nbrs, 0, n, set())[1]
    return closure, cycle is not None, cycle


def _cycle_search(nbrs, s, stop, seen):
    """(longest cycle through `s` on vertices above it or 0, path or None).

    Simple paths from s grow depth-first in the order of the ascending lists
    `nbrs`; the first path that closes a cycle of `stop` vertices, the
    lexicographically least, is returned at once.  What can still close from
    a path depends only on its (vertex set, end) state, so each state is
    entered once (Bellman 1962, Held-Karp 1962); the guard counts the
    caller's `seen`.
    """
    best = 0
    path = [s]
    stack = [(1 << s, iter(nbrs[s]))]
    while stack:
        mask, todo = stack[-1]
        for w in todo:
            if w == s:
                if len(path) > max(best, 2):
                    best = len(path)
                    if best == stop:
                        return best, tuple(path)
            elif w > s and not mask >> w & 1:
                state = (mask | 1 << w, w)
                if state not in seen:
                    seen.add(state)
                    _check_guard("cycle search", len(seen))
                    path.append(w)
                    stack.append((state[0], iter(nbrs[w])))
                    break
        else:
            stack.pop()
            path.pop()
    return best, None


class ColoringReport(_Record):
    __slots__ = ("chromatic_number", "vertex_colors", "edge_chromatic_number", "edge_colors")


def coloring(G):
    """Exact chromatic number and chromatic index with assignments."""
    if any(u == v for u, v in G.edges):
        raise ValueError("coloring is undefined on graphs with loops")
    chi, vcolors = _chromatic(G)
    chi_e, ecolors = _edge_chromatic(G)
    return ColoringReport(chi, tuple(vcolors), chi_e, tuple(ecolors))


def _chromatic(H):
    """Chromatic number and a least coloring of a loopless graph H (parallel
    edges are read once through the view's distinct neighbours), behind
    the vertex coloring guard."""
    n = H.vertex_count
    _check_guard("vertex coloring", n)
    if n == 0:
        return 0, []
    if not H.edges:
        return 1, [0] * n
    bip, cert = is_bipartite(H)
    if bip:
        colors = [0] * n
        for v in cert[1]:
            colors[v] = 1
        return 2, colors
    adj = H.view()[1]
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    return _min_coloring(adj, order, max(3, _greedy_clique(n, adj)))


def _min_coloring(adj, order, lower):
    """Fewest colors, at least `lower`, for items colored in `order`.

    adj[x] holds the items that clash with x.  An item takes at most one color
    above the highest in use, which skips color permutations.  Each k pops
    (items colored, colors, highest color) states, lower colors first, from
    an explicit stack; k = len(order) always succeeds.
    """
    size = len(order)
    for k in count(lower):
        stack = [(0, (None,) * size, -1)]
        while stack:
            i, colors, top = stack.pop()
            if i == size:
                return k, colors
            x = order[i]
            used = {colors[w] for w in adj[x]}
            stack += [(i + 1, colors[:x] + (c,) + colors[x + 1:], max(top, c))
                      for c in range(min(k - 1, top + 1), -1, -1) if c not in used]


def _greedy_clique(n, adj):
    best = 1 if n else 0
    for s in range(n):
        clique = {s}
        for w in sorted(adj[s], key=lambda x: -len(adj[x])):
            if all(w in adj[c] for c in clique):
                clique.add(w)
        best = max(best, len(clique))
    return best


def _edge_chromatic(G):
    """Chromatic index and a least edge coloring of a loopless G, behind its guard."""
    m = G.m
    _check_guard("edge coloring", m)
    if m == 0:
        return 0, []
    delta = max(G.degrees())
    eadj = line_graph(G).view()[1]
    return _min_coloring(eadj, _propagation_order(m, eadj), delta)


def _propagation_order(m, eadj):
    """Order edges so each one touches as many already-placed edges as possible."""
    order = []
    placed = set()
    while len(order) < m:
        best, score = None, (-1, -1)
        for e in range(m):
            if e in placed:
                continue
            s = (len([j for j in eadj[e] if j in placed]), len(eadj[e]))
            if s > score:
                best, score = e, s
        order.append(best)
        placed.add(best)
    return order


def _product(a, b):
    """Coefficients of the product of two ascending coefficient lists."""
    b, a = sorted((a, b), key=len)
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        out[j:j + len(a)] = map(add, out[j:j + len(a)], [x * y for x in a])
    return out


class Polynomial(_Value):
    """Exact polynomial, coefficients ascending from the constant term (integers
    in every library result)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def monomial(cls, degree, coeff=1):
        return cls([0] * degree + [coeff])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def _termwise(self, op, other):
        """op on each pair of coefficients, the shorter side padded with 0."""
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return Polynomial(starmap(op, pairs))

    def __add__(self, other):
        return self._termwise(add, other)

    def __sub__(self, other):
        return self._termwise(sub, other)

    def __mul__(self, other):
        return Polynomial(_product(self.coeffs, other.coeffs))

    def _key(self):
        return self.coeffs

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        if all(c == 0 for c in self.coeffs):
            return "0"
        parts = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            if power == 0:
                body = str(abs(c))
            else:
                var = "x" if power == 1 else "x^%d" % power
                body = var if abs(c) == 1 else str(abs(c)) + var
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "Polynomial(%s)" % (self,)


def chromatic_polynomial(G):
    """P(G, lambda) by simplicial peeling and deletion-contraction.

    A state is a tuple of neighbour bitmasks over labels 0..k-1.  A vertex
    whose d neighbours form a clique (simplicial) leaves with a factor
    (lambda - d) (Read 1968); a state with no such vertex branches on an
    edge uw at its lowest vertex u: P(G) = P(G - uw) - P(G / uw).  Labels
    follow ascending degree, so the first branch is at a minimum-degree
    vertex.  The branches run on an explicit stack over a memo of states,
    so no recursion grows with the graph; two guards bound the memo as it
    grows, by its states and by their mask bits (len(state)**2 each), and
    one bounds the coefficients before any state is built.
    Per state: one `_branch` (two peels) and one subtraction of coefficient lists.
    """
    if not G.is_simple():
        raise ValueError("chromatic polynomial is computed for simple graphs")
    n = G.vertex_count
    _check_guard("chromatic polynomial size", (n + 1) * G.m)
    nbrs = G.view()[1]
    if all(len(a) == 2 for a in nbrs) and len(_components(n, nbrs)) == 1:
        # the n-cycle: (lambda - 1)^n + (-1)^n (lambda - 1)
        p = _times({1: n}, [1])
        p[0] -= (-1) ** n
        p[1] += (-1) ** n
        return Polynomial(p)
    order = sorted(range(n), key=lambda v: len(nbrs[v]))
    label = {v: i for i, v in enumerate(order)}
    masks = [sum(1 << label[x] for x in nbrs[v]) for v in order]
    peeled, root = _peel(masks, (1 << len(masks)) - 1, [])
    memo, branches, stack, bits = {(): (1,)}, {}, [root], 0
    while stack:
        state = stack[-1]
        if state in memo:
            stack.pop()
        elif state in branches:
            p, q = (_times(factors, memo[kid]) for factors, kid in branches.pop(state))
            memo[state] = tuple(map(sub, p, (*q, 0)))  # G / uw has one vertex fewer
            stack.pop()
        else:
            _check_guard("chromatic polynomial", len(memo) + len(branches))
            bits += len(state) ** 2
            _check_guard("chromatic polynomial memo", bits)
            branches[state] = kids = _branch(state)
            stack += kids[0][1], kids[1][1]
    return Polynomial(_times(peeled, memo[root]))


def _times(degrees, p):
    """Coefficients of p * prod (lambda - d)^c over the peeled degree counts {d: c}."""
    for d, c in degrees.items():
        if c == 1:  # the common case; a shift and subtract beats _product here
            p = [x - d * y for x, y in zip((0, *p), (*p, 0))]
            continue
        # lambda^j has C(c, j) * (-d)^(c-j), built downwards in j
        coeffs = [1]
        for j in range(c, 0, -1):
            coeffs.append(coeffs[-1] * -d * j // (c - j + 1))
        p = _product(p, coeffs[::-1])
    return p


def _branch(state):
    """Peeled G - uw and G / uw for u = 0 and the neighbour w of u with the
    fewest common neighbours, the lowest on a tie.

    Branching stays on one vertex until it is peeled: moving to another
    vertex at each branch multiplies the states of dense graphs (K10,10
    needs 2,121 this way and 167,249 with a minimum-degree vertex chosen
    afresh each time).  `state` has no simplicial vertex, so only u and w
    can become simplicial in G - uw, and only u and its neighbours in G / uw.
    """
    rest, fewest = state[0], len(state)
    while rest and fewest:
        x = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        common = (state[x] & state[0]).bit_count()
        if common < fewest:
            fewest, w = common, x
    bw = 1 << w
    deleted = list(state)
    deleted[0] ^= bw
    deleted[w] ^= 1
    # the neighbours of w trade it for u
    contracted = [m ^ bw | 1 if m & bw else m for m in deleted]
    contracted[0] |= deleted[w]
    return (_peel(deleted, 1 | bw, []),
            _peel(contracted, contracted[0] | 1, [w]))


def _peel(masks, dirty, drops):
    """Strip simplicial vertices: ({degree d: count}, compacted state).

    One pass over the bitmask `dirty`, which gains the neighbours of each
    vertex stripped, the only ones that can have become simplicial.  The
    labels stripped and those in `drops` (gone without a factor) leave the
    surviving masks in one squeeze at the end; `masks` and `drops` are consumed.
    """
    alive, degrees = -1, {}
    while dirty:
        v = dirty.bit_length() - 1
        dirty ^= 1 << v
        nb = rest = masks[v] & alive
        # simplicial: each neighbour but the last is adjacent to all the others
        while rest & (rest - 1):
            u = rest.bit_length() - 1
            if nb & ~masks[u] != 1 << u:
                break
            rest ^= 1 << u
        else:
            d = nb.bit_count()
            degrees[d] = degrees.get(d, 0) + 1
            drops.append(v)
            alive ^= 1 << v
            dirty |= nb
    drops.sort(reverse=True)
    for v in drops:
        del masks[v]
    if drops:
        for i, m in enumerate(masks):
            m &= alive
            for v in drops:
                m -= m >> (v + 1) << v  # each label above v moves down by one
            masks[i] = m
    return degrees, tuple(masks)


def spanning_tree_count(G):
    """tau(G) as a Laplacian cofactor; loops ignored, parallel edges counted.

    The n x n Laplacian of a connected G is checked against the laplacian
    guard before it is built."""
    n = G.vertex_count
    # the cofactor is singular exactly when G is disconnected: skip elimination
    if n == 0 or len(_components(n, G.view()[1])) > 1:
        return 0
    _check_guard("laplacian", n * n)
    L = [[0] * n for _ in range(n)]
    for u, v in G.edges:
        if u != v:
            L[u][u] += 1
            L[v][v] += 1
            L[u][v] -= 1
            L[v][u] -= 1
    return _echelon([row[1:] for row in L[1:]])[1]


def tutte(G):
    """Tutte matrix plus a deterministic 1-factor decision.

    The matrix is returned as rows of strings ('0', 'x13', '-x13').  The
    flag says whether G has a perfect matching, decided by a maximum
    matching from Edmonds' blossom algorithm (so an odd order is False and
    the empty graph True).  The n x n names are checked against the tutte
    matrix guard before any is made.
    """
    if not G.is_simple():
        raise ValueError("tutte matrix is defined for simple graphs")
    n = G.vertex_count
    _check_guard("tutte matrix", n * n)
    names = [["0"] * n for _ in range(n)]
    for u, v in G.edges:
        sym = "x%d%d" % (u + 1, v + 1)
        names[u][v] = sym
        names[v][u] = "-" + sym
    matrix = tuple(tuple(row) for row in names)
    return matrix, 2 * len(_maximum_matching(n, G.view()[1])) == n


def _maximum_matching(n, adj):
    """Maximum matching of a loopless graph, as sorted pairs (u, v), u < v.

    Edmonds' blossom algorithm (Edmonds 1965, "Paths, trees, and flowers"):
    a greedy matching, then one breadth-first search for an augmenting path
    from each exposed vertex.  An edge between two even vertices of the
    search tree closes an odd cycle, which is contracted onto its base (the
    lowest common ancestor of the two ends).  A vertex with no augmenting
    path never gains one later, so one search per vertex suffices.
    """
    mate = [None] * n
    for v in range(n):
        if mate[v] is None:
            for w in adj[v]:
                if mate[w] is None:
                    mate[v], mate[w] = w, v
                    break

    for root in range(n):
        if mate[root] is not None:
            continue
        # parent[v]: the even vertex an odd vertex v was reached from;
        # base[v]: the base of the outermost blossom containing v
        parent = [None] * n
        base = list(range(n))
        even = [False] * n
        even[root] = True
        queue = [root]
        head = 0
        end = None
        while end is None and head < len(queue):
            v = queue[head]
            head += 1
            for w in adj[v]:
                if base[v] == base[w] or mate[v] == w:
                    continue
                if w == root or (mate[w] is not None and parent[mate[w]] is not None):
                    # w is even: v-w closes an odd cycle, contract it
                    b = _blossom_base(v, w, base, mate, parent)
                    inside = [False] * n
                    _mark_path(v, w, b, base, mate, parent, inside)
                    _mark_path(w, v, b, base, mate, parent, inside)
                    for x in range(n):
                        if inside[base[x]]:
                            base[x] = b
                            if not even[x]:
                                even[x] = True
                                queue.append(x)
                elif parent[w] is None:
                    parent[w] = v
                    if mate[w] is None:
                        end = w
                        break
                    even[mate[w]] = True
                    queue.append(mate[w])
        # flip the augmenting path root ... end
        while end is not None:
            p = parent[end]
            nxt = mate[p]
            mate[end], mate[p] = p, end
            end = nxt

    return tuple((v, w) for v, w in enumerate(mate) if w is not None and v < w)


def _blossom_base(a, b, base, mate, parent):
    """Lowest common ancestor of two even vertices in the contracted tree."""
    seen = set()
    while True:
        a = base[a]
        seen.add(a)
        if mate[a] is None:  # the root
            break
        a = parent[mate[a]]
    while base[b] not in seen:
        b = parent[mate[base[b]]]
    return base[b]


def _mark_path(v, child, b, base, mate, parent, inside):
    """Mark the blossoms from v up to base b, pointing odd vertices inward."""
    while base[v] != b:
        inside[base[v]] = inside[base[mate[v]]] = True
        parent[v] = child
        child = mate[v]
        v = parent[mate[v]]
