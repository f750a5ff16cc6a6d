"""Classical graphs: generators, invariants, colorings, counts.

Vertices are indices 0..n-1.  Edges are unordered pairs; parallel edges and
loops only appear when the corresponding flag is set (contraction creates
them internally).  Cut vertices and bridges come from one lowpoint
depth-first search (Hopcroft-Tarjan), spanning-tree counts from Kirchhoff's
matrix-tree theorem with a fraction-free Bareiss determinant.  Exact
decision procedures (Hamiltonicity, chromatic number/index) run desk-scale
backtracking behind documented size guards.
"""

import random
from dataclasses import dataclass
from itertools import count

from .core import NotFoundError, ShapeError, SizeLimitError


class Graph:
    __slots__ = ("vertex_count", "edges", "allow_multi", "allow_loops")

    def __init__(self, vertex_count, edges=(), allow_multi=False, allow_loops=False):
        if vertex_count < 0:
            raise ValueError("negative vertex count")
        norm = []
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError("edge (%d, %d) out of range" % (u, v))
            if u == v and not allow_loops:
                raise ValueError("loop (%d, %d) on a loopless graph" % (u, v))
            norm.append((u, v) if u <= v else (v, u))
        norm.sort()
        if not allow_multi:
            for a, b in zip(norm, norm[1:]):
                if a == b:
                    raise ValueError("duplicate edge %r on a simple graph" % (a,))
        self.vertex_count = vertex_count
        self.edges = tuple(norm)
        self.allow_multi = allow_multi
        self.allow_loops = allow_loops

    @property
    def m(self):
        return len(self.edges)

    def is_simple(self):
        return not self.allow_multi and not self.allow_loops

    def adjacency(self):
        """Neighbor sets, ignoring multiplicity; loops put v in its own set."""
        adj = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self):
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def has_edge(self, u, v):
        e = (u, v) if u <= v else (v, u)
        return e in self.edges

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return "Graph(%d, m=%d)" % (self.vertex_count, self.m)


def generate(kind, *params):
    """Canonical instance of a named family.

    kinds: complete n | complete-bipartite t s | cycle n | path n | star s |
    wheel n | petersen
    """
    if kind == "complete":
        (n,) = params
        if n < 1:
            raise ValueError("complete graph needs n >= 1")
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    if kind == "complete-bipartite":
        t, s = params
        if t < 1 or s < 1:
            raise ValueError("complete-bipartite needs both part sizes >= 1")
        return Graph(t + s, [(u, t + v) for u in range(t) for v in range(s)])
    if kind == "cycle":
        (n,) = params
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "path":
        (n,) = params
        if n < 1:
            raise ValueError("path needs n >= 1")
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "star":
        (s,) = params
        if s < 1:
            raise ValueError("star needs s >= 1 leaves")
        return Graph(s + 1, [(0, i) for i in range(1, s + 1)])
    if kind == "wheel":
        (n,) = params
        if n < 3:
            raise ValueError("wheel needs rim n >= 3")
        rim = [(i, i % n + 1) for i in range(1, n + 1)]
        return Graph(n + 1, [(0, i) for i in range(1, n + 1)] + rim)
    if kind == "petersen":
        if params:
            raise ValueError("petersen takes no parameters")
        spokes = [(i, 5 + i) for i in range(5)]
        outer = [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
        inner = [(i, (i + 2) % 5) for i in range(5)]
        return Graph(10, spokes + outer + inner)
    raise ValueError("unknown graph family %r" % (kind,))


@dataclass(frozen=True)
class DegreeReport:
    degrees: tuple
    min_degree: int
    max_degree: int
    sequence: tuple


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


@dataclass(frozen=True)
class ConnectivityReport:
    components: tuple
    is_connected: bool
    cut_vertices: frozenset
    cut_edges: frozenset


def connectivity(G):
    """Components plus cut vertices and bridges from one lowpoint DFS.

    The parent is skipped by edge index, so a parallel edge is never a bridge.
    """
    n = G.vertex_count
    comps = _components(n, G.adjacency())
    incidence = _incidence(G)
    disc = [None] * n
    low = [0] * n
    hits = [0] * n  # DFS children w of v with low[w] >= disc[v]
    tick = count()
    cut_edges = set()
    for root in range(n):
        if disc[root] is not None:
            continue
        disc[root] = low[root] = next(tick)
        hits[root] = -1  # the first child of a root separates nothing
        # frames: (vertex, index of the edge it was reached by, edge iterator)
        stack = [(root, None, iter(incidence[root]))]
        while stack:
            v, via, todo = stack[-1]
            for w, idx in todo:
                if disc[w] is None:
                    disc[w] = low[w] = next(tick)
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

    cut_vertices = frozenset(v for v in range(n) if hits[v] > 0)
    return ConnectivityReport(
        tuple(comps), len(comps) <= 1, cut_vertices, frozenset(cut_edges)
    )


def _incidence(G):
    """Per vertex, (other end, edge index) for each incident edge; loops once."""
    incidence = [[] for _ in range(G.vertex_count)]
    for idx, (u, v) in enumerate(G.edges):
        incidence[u].append((v, idx))
        if u != v:
            incidence[v].append((u, idx))
    return incidence


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


@dataclass(frozen=True)
class MetricsReport:
    distances: tuple
    girth: object
    circumference: object
    diameter: object


def metrics(G):
    n = G.vertex_count
    adj = G.adjacency()
    dists = tuple(tuple(_bfs_dist(n, adj, s)) for s in range(n))

    girth = None
    if any(u == v for u, v in G.edges):
        girth = 1
    else:
        pairs = {}
        for e in G.edges:
            pairs[e] = pairs.get(e, 0) + 1
        if any(c > 1 for c in pairs.values()):
            girth = 2
        else:
            best = None
            for s in range(n):
                dist = [None] * n
                parent = [None] * n
                dist[s] = 0
                queue = [s]
                head = 0
                while head < len(queue):
                    x = queue[head]
                    head += 1
                    for y in adj[x]:
                        if dist[y] is None:
                            dist[y] = dist[x] + 1
                            parent[y] = x
                            queue.append(y)
                        elif parent[x] != y:
                            cand = dist[x] + dist[y] + 1
                            if best is None or cand < best:
                                best = cand
            girth = best

    circumference = _longest_cycle_length(n, adj, G)
    diameter = None
    if n > 0 and len(_components(n, adj)) == 1:
        diameter = max(d for row in dists for d in row)
    return MetricsReport(dists, girth, circumference, diameter)


def _longest_cycle_length(n, adj, G):
    loops = [u for u, v in G.edges if u == v]
    best = 1 if loops else None
    counts = {}
    for e in G.edges:
        counts[e] = counts.get(e, 0) + 1
    if any(c > 1 for u_v, c in counts.items() if u_v[0] != u_v[1]):
        if best is None or best < 2:
            best = 2

    def extend(start, last, visited, length):
        nonlocal best
        for w in adj[last]:
            if w == start and length >= 3:
                if best is None or length > best:
                    best = length
            elif w not in visited and w > start:
                visited.add(w)
                extend(start, w, visited, length + 1)
                visited.remove(w)

    for s in range(n):
        extend(s, s, {s}, 1)
    return best


def is_bipartite(G):
    """Two-color by BFS; returns (True, (part0, part1)) or (False, odd cycle)."""
    n = G.vertex_count
    adj = G.adjacency()
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
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for y in adj[x]:
                if color[y] is None:
                    color[y] = 1 - color[x]
                    parent[y] = x
                    queue.append(y)
                elif color[y] == color[x]:
                    chain_x = _to_root(x, parent)
                    chain_y = _to_root(y, parent)
                    pos = {v2: i for i, v2 in enumerate(chain_x)}
                    for j, v2 in enumerate(chain_y):
                        if v2 in pos:
                            cix, ciy = pos[v2], j
                            break
                    cycle = chain_x[: cix + 1] + list(
                        reversed(chain_y[:ciy])
                    )
                    return False, tuple(cycle)
    part0 = tuple(v for v in range(n) if color[v] == 0)
    part1 = tuple(v for v in range(n) if color[v] == 1)
    return True, (part0, part1)


def _to_root(v, parent):
    chain = [v]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    return chain


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
        a1, a2 = G1.adjacency(), G2.adjacency()
        edges = []
        for u in range(n1):
            for v in range(n2):
                for w in a2[v]:
                    if v < w:
                        edges.append((u * n2 + v, u * n2 + w))
                for x in a1[u]:
                    if u < x:
                        edges.append((u * n2 + v, x * n2 + v))
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
    """One vertex per edge of G; adjacency iff the edges share an endpoint."""
    if any(u == v for u, v in G.edges):
        raise ValueError("line graph needs a loopless graph")
    edges = list(G.edges)
    out = set()
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if set(edges[i]) & set(edges[j]):
                out.add((i, j))
    return Graph(len(edges), out)


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
        return Graph(len(keep), edges, G.allow_multi, G.allow_loops)
    if op == "delete-edges":
        remaining = list(G.edges)
        for e in arg:
            u, v = e
            e = (u, v) if u <= v else (v, u)
            if e not in remaining:
                raise NotFoundError("edge %r not in graph" % (e,))
            remaining.remove(e)
        return Graph(G.vertex_count, remaining, G.allow_multi, G.allow_loops)
    if op == "contract-edge":
        u, v = arg
        e = (u, v) if u <= v else (v, u)
        u, v = e
        if e not in G.edges:
            raise NotFoundError("edge %r not in graph" % (e,))
        if u == v:
            raise ValueError("cannot contract a loop")
        return Graph(G.vertex_count - 1, _contract(G.edges, u, v), allow_multi=True)
    raise ValueError("unknown edit op %r" % (op,))


def _contract(edges, u, v):
    """Merge v into u (u < v), renumber above v; edges that become loops go."""
    out = []
    for a, b in edges:
        a = u if a == v else a
        b = u if b == v else b
        if a != b:
            a = a if a < v else a - 1
            b = b if b < v else b - 1
            out.append((a, b) if a <= b else (b, a))
    return out


def eulerian(G):
    """Eulerian iff one non-isolated component and all degrees even/positive.

    When Eulerian, returns a closed tour as a (from, to) edge sequence built
    by Hierholzer's algorithm.
    """
    deg = G.degrees()
    active = [v for v in range(G.vertex_count) if deg[v] > 0]
    if not active:
        return False, None
    if any(deg[v] % 2 for v in active):
        return False, None
    adj = G.adjacency()
    comps = [c for c in _components(G.vertex_count, adj) if len(c) > 1 or deg[c[0]] > 0]
    if len(comps) != 1:
        return False, None

    incidence = _incidence(G)
    used = [False] * len(G.edges)
    stack = [active[0]]
    path = []
    ptr = [0] * G.vertex_count
    while stack:
        x = stack[-1]
        advanced = False
        while ptr[x] < len(incidence[x]):
            y, idx = incidence[x][ptr[x]]
            ptr[x] += 1
            if not used[idx]:
                used[idx] = True
                stack.append(y)
                advanced = True
                break
        if not advanced:
            path.append(stack.pop())
    path.reverse()
    tour = [(path[i], path[i + 1]) for i in range(len(path) - 1)]
    return True, tour


def hamiltonian(G, guard=14):
    """Bondy-Chvatal closure plus exact spanning-cycle search.

    Returns (closure, is_hamiltonian, cycle-or-None).  Beyond the guard the
    answer is only produced when the closure is complete (then the flag is
    true with no explicit cycle).
    """
    if not G.is_simple():
        raise ValueError("hamiltonicity check needs a simple graph")
    n = G.vertex_count
    if n < 3:
        raise ValueError("hamiltonicity is undefined below 3 vertices")

    closure_edges = set(G.edges)
    changed = True
    while changed:
        changed = False
        deg = [0] * n
        for u, v in closure_edges:
            deg[u] += 1
            deg[v] += 1
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in closure_edges and deg[u] + deg[v] >= n:
                    closure_edges.add((u, v))
                    changed = True
    closure = Graph(n, closure_edges)
    complete = len(closure_edges) == n * (n - 1) // 2

    if n > guard:
        if complete:
            return closure, True, None
        raise SizeLimitError(
            "hamiltonian search guard: %d vertices exceeds %d" % (n, guard)
        )

    adj = G.adjacency()
    cycle = _ham_cycle(n, adj)
    flag = cycle is not None
    if complete and not flag:
        raise AssertionError("complete closure must imply a spanning cycle")
    return closure, flag, cycle


def _ham_cycle(n, adj):
    start = 0
    path = [start]
    on_path = [False] * n
    on_path[start] = True

    def rec():
        if len(path) == n:
            return start in adj[path[-1]]
        last = path[-1]
        for w in sorted(adj[last]):
            if not on_path[w]:
                on_path[w] = True
                path.append(w)
                if rec():
                    return True
                path.pop()
                on_path[w] = False
        return False

    if n == 0 or not rec():
        return None
    return tuple(path)


@dataclass(frozen=True)
class ColoringReport:
    chromatic_number: int
    vertex_colors: tuple
    edge_chromatic_number: int
    edge_colors: tuple


def coloring(G, vertex_guard=14, edge_guard=20):
    """Exact chromatic number and chromatic index with assignments."""
    if any(u == v for u, v in G.edges):
        raise ValueError("coloring is undefined on graphs with loops")
    n = G.vertex_count
    simple_edges = sorted(set(G.edges))

    if n > vertex_guard:
        raise SizeLimitError(
            "vertex coloring guard: %d vertices exceeds %d" % (n, vertex_guard)
        )
    chi, vcolors = _chromatic(n, simple_edges)

    if len(G.edges) > edge_guard:
        raise SizeLimitError(
            "edge coloring guard: %d edges exceeds %d" % (len(G.edges), edge_guard)
        )
    chi_e, ecolors = _edge_chromatic(G)
    return ColoringReport(chi, tuple(vcolors), chi_e, tuple(ecolors))


def _chromatic(n, edges):
    if n == 0:
        return 0, []
    if not edges:
        return 1, [0] * n
    H = Graph(n, edges)
    bip, cert = is_bipartite(H)
    if bip:
        colors = [0] * n
        for v in cert[1]:
            colors[v] = 1
        return 2, colors
    adj = H.adjacency()
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    return _min_coloring(adj, order, max(3, _greedy_clique(n, adj)))


def _min_coloring(adj, order, lower):
    """Fewest colors, at least `lower`, for items colored in `order`.

    adj[x] holds the items that clash with x.  An item takes at most one color
    above the highest in use, which skips color permutations.
    """
    size = len(order)
    for k in range(lower, size + 1):
        colors = [None] * size

        def assign(i):
            if i == size:
                return True
            x = order[i]
            used = {colors[w] for w in adj[x] if colors[w] is not None}
            top = min(k - 1, max((c for c in colors if c is not None), default=-1) + 1)
            for c in range(top + 1):
                if c not in used:
                    colors[x] = c
                    if assign(i + 1):
                        return True
                    colors[x] = None
            return False

        if assign(0):
            return k, colors
    raise AssertionError("one color per item always suffices")


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
    edges = list(G.edges)
    m = len(edges)
    if m == 0:
        return 0, []
    delta = max(G.degrees())
    # adjacency between edge instances (shared endpoint)
    eadj = [
        [j for j in range(m) if j != i and set(edges[i]) & set(edges[j])]
        for i in range(m)
    ]
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


class Polynomial:
    """Integer polynomial, coefficients ascending from the constant term."""

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

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        size = max(len(a), len(b))
        return Polynomial(
            [
                (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(size)
            ]
        )

    def __sub__(self, other):
        a, b = self.coeffs, other.coeffs
        size = max(len(a), len(b))
        return Polynomial(
            [
                (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                for i in range(size)
            ]
        )

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Polynomial(out)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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
                body = var if abs(c) == 1 else "%d%s" % (abs(c), var)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "Polynomial(%s)" % (self,)


def chromatic_polynomial(G):
    """Deletion-contraction: f(G) = f(G-e) - f(G/e), base lambda^n."""
    if not G.is_simple():
        raise ValueError("chromatic polynomial is computed for simple graphs")
    memo = {}

    def rec(n, edges):
        if not edges:
            return Polynomial.monomial(n)
        key = (n, edges)
        if key in memo:
            return memo[key]
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        comps = _components(n, adj)
        if len(comps) > 1:
            result = Polynomial([1])
            for comp in comps:
                remap = {v: i for i, v in enumerate(comp)}
                sub = tuple(
                    sorted(
                        (remap[u], remap[v])
                        for u, v in edges
                        if u in remap and v in remap
                    )
                )
                result = result * rec(len(comp), sub)
            memo[key] = result
            return result
        if len(edges) == n - 1:  # connected with n-1 edges: a tree
            result = _tree_poly(n)
            memo[key] = result
            return result
        u, v = edges[0]
        contracted = tuple(sorted(set(_contract(edges, u, v))))
        result = rec(n, edges[1:]) - rec(n - 1, contracted)
        memo[key] = result
        return result

    return rec(G.vertex_count, tuple(sorted(set(G.edges))))


def _tree_poly(n):
    # lambda * (lambda - 1)^(n-1)
    result = Polynomial([0, 1])
    factor = Polynomial([-1, 1])
    for _ in range(n - 1):
        result = result * factor
    return result


def spanning_tree_count(G):
    """tau(G) as a Laplacian cofactor; loops ignored, parallel edges counted."""
    n = G.vertex_count
    if n == 0:
        return 0
    L = [[0] * n for _ in range(n)]
    for u, v in G.edges:
        if u != v:
            L[u][u] += 1
            L[v][v] += 1
            L[u][v] -= 1
            L[v][u] -= 1
    return _bareiss_det([row[1:] for row in L[1:]])


def _bareiss_det(A):
    """Integer determinant by Bareiss elimination; A is consumed.

    Each division by the previous pivot is exact.  The empty matrix gives 1.
    """
    n = len(A)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if A[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            A[k], A[pivot] = A[pivot], A[k]
            sign = -sign
        top = A[k]
        for row in A[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * top[k] - f * top[j]) // prev
        prev = top[k]
    return sign * prev


def tutte(G, seed=0, reps=20, prime=2**31 - 1):
    """Tutte matrix plus a randomized 1-factor decision.

    The matrix is returned as rows of strings ('0', 'x13', '-x13').  The
    flag comes from evaluating det T at random field points; any nonzero
    evaluation certifies a perfect matching, and an odd order short-circuits
    to False.
    """
    if not G.is_simple():
        raise ValueError("tutte matrix is defined for simple graphs")
    n = G.vertex_count
    names = [["0"] * n for _ in range(n)]
    for u, v in G.edges:
        sym = "x%d%d" % (u + 1, v + 1)
        names[u][v] = sym
        names[v][u] = "-" + sym
    matrix = tuple(tuple(row) for row in names)
    if n % 2 == 1:
        return matrix, False
    if n == 0:
        return matrix, True
    rng = random.Random(seed)
    for _ in range(reps):
        vals = {e: rng.randrange(1, prime) for e in G.edges}
        T = [[0] * n for _ in range(n)]
        for (u, v), x in vals.items():
            T[u][v] = x
            T[v][u] = (-x) % prime
        if _det_mod(T, prime) != 0:
            return matrix, True
    return matrix, False


def _det_mod(M, p):
    A = [row[:] for row in M]
    n = len(A)
    det = 1
    for k in range(n):
        pivot = None
        for r in range(k, n):
            if A[r][k] % p:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != k:
            A[k], A[pivot] = A[pivot], A[k]
            det = -det
        det = det * A[k][k] % p
        inv = pow(A[k][k], -1, p)
        for r in range(k + 1, n):
            if A[r][k]:
                f = A[r][k] * inv % p
                for c in range(k, n):
                    A[r][c] = (A[r][c] - f * A[k][c]) % p
    return det % p
