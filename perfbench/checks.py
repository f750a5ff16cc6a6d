"""Independent result checks for the benchmark.

Every check works on plain Python values: (a, b) pairs of Fractions for
a+bI scalars, (magnitude, indeterminate) pairs for relation grades, and
edge lists for graphs.  The shared oracles come from tests/oracles.py; the
rest of this file re-derives each answer or verifies a certificate the
library returned, without calling the library's algorithms.

A check returns None when the result is right and a short reason string
when it is not.
"""

from fractions import Fraction

import oracles

ZERO_P = (Fraction(0), Fraction(0))
ONE_P = (Fraction(1), Fraction(0))
I_P = (Fraction(0), Fraction(1))


# ------------------------------------------------------------- conversions

def pair(x):
    return (x.real, x.indet)


def pairs_matrix(M):
    return [[pair(e) for e in row] for row in M]


def state_pairs(state):
    return tuple(pair(x) for x in state)


def grade(v):
    return (v.magnitude, bool(v.indeterminate))


def grades_matrix(R):
    return [[grade(v) for v in row] for row in R.values]


# ------------------------------------------------------------- map engines

def _threshold(x):
    a, b = x
    if a > 0:
        return ONE_P
    if a == 0 and b > 0:
        return I_P
    return ZERO_P


def _row_times(state, W):
    cols = len(W[0])
    out = []
    for j in range(cols):
        acc = ZERO_P
        for i, s in enumerate(state):
            if s != ZERO_P and W[i][j] != ZERO_P:
                acc = oracles.padd(acc, oracles.pmul(s, W[i][j]))
        out.append(acc)
    return out


def _clampfix(state, clamp):
    return tuple(ONE_P if i in clamp else x for i, x in enumerate(state))


def _walk_ok(traj, step):
    """Every state follows from the one before; the last closes a repeat."""
    for i in range(len(traj) - 1):
        if step(traj[i]) != traj[i + 1]:
            return None, "trajectory step %d does not satisfy the update rule" % i
    if len(set(traj[:-1])) != len(traj) - 1:
        return None, "trajectory repeats before its end"
    if traj[-1] not in traj[:-1]:
        return None, "trajectory does not end on a repeat"
    return traj.index(traj[-1]), None


def _pattern_ok(pattern, states, first, want_cycle):
    kind = "limit-cycle" if want_cycle else "fixed-point"
    if pattern.kind != kind:
        return "pattern kind %s, expected %s" % (pattern.kind, kind)
    if tuple(state_pairs(s) for s in pattern.states) != tuple(states):
        return "pattern states differ from the trajectory's cycle"
    if pattern.steps_to_enter != first:
        return "steps_to_enter %d, expected %d" % (pattern.steps_to_enter, first)
    return None


def check_cm_run(W, s0, default_clamp, result):
    """cm_run: every step obeys s <- threshold(s W) with the clamp forced on."""
    pattern, trajectory = result
    s = state_pairs(s0)
    clamp = default_clamp
    if clamp is None:
        clamp = frozenset(i for i, x in enumerate(s) if x != ZERO_P)
    traj = [state_pairs(t) for t in trajectory]
    if traj[0] != _clampfix(s, clamp):
        return "trajectory does not start at the clamped start"
    first, why = _walk_ok(
        traj, lambda x: _clampfix(tuple(_threshold(v) for v in _row_times(x, W)), clamp)
    )
    if why:
        return why
    cycle = traj[first:-1]
    return _pattern_ok(pattern, cycle, first, len(cycle) > 1)


def check_cm_crisp(int_W, bits, result):
    """cm_run on integer weights against the plain-int oracle (as C12)."""
    pattern, trajectory = result
    clamp = frozenset(i for i, b in enumerate(bits) if b)
    kind, states, otraj = oracles.crisp_fcm_run(int_W, list(bits), clamp)
    if pattern.kind != kind:
        return "crisp oracle gives %s, engine %s" % (kind, pattern.kind)
    ours = [tuple(int(x.real) for x in s) for s in pattern.states]
    if ours != [tuple(s) for s in states]:
        return "crisp oracle pattern differs"
    if [tuple(int(x.real) for x in s) for s in trajectory[:-1]] != [tuple(s) for s in otraj]:
        return "crisp oracle trajectory differs"
    return None


def check_rm_run(W, s0, side, result):
    """rm_run: alternate X W and Y W^T, clamp on the starting side."""
    WT = [list(col) for col in zip(*W)]
    m, n = len(W), len(W[0])
    s = state_pairs(s0)
    clamp = frozenset(i for i, x in enumerate(s) if x != ZERO_P)
    if side == "domain":
        start = (_clampfix(s, clamp), tuple([ZERO_P] * n))

        def step(p):
            Y = tuple(_threshold(v) for v in _row_times(p[0], W))
            X = _clampfix(tuple(_threshold(v) for v in _row_times(Y, WT)), clamp)
            return (X, Y)
    else:
        start = (tuple([ZERO_P] * m), _clampfix(s, clamp))

        def step(p):
            X = tuple(_threshold(v) for v in _row_times(p[1], WT))
            Y = _clampfix(tuple(_threshold(v) for v in _row_times(X, W)), clamp)
            return (X, Y)
    traj = [(state_pairs(X), state_pairs(Y)) for X, Y in result.trajectory]
    if traj[0] != start:
        return "trajectory does not start at the clamped start pair"
    first, why = _walk_ok(traj, step)
    if why:
        return why
    cycle = traj[first:-1]
    for proj, pattern in ((0, result.domain), (1, result.range)):
        states = [p[proj] for p in cycle]
        if len(set(states)) == 1:
            states = states[:1]
        why = _pattern_ok(pattern, states, first, len(states) > 1)
        if why:
            return why
    return None


def _edge_signs(W):
    n = len(W)
    out = {}
    for i in range(n):
        for j in range(n):
            if i != j and W[i][j] != ZERO_P:
                a, b = W[i][j]
                out[(i, j)] = "I" if b else ("+1" if a > 0 else "-1")
    return out


def _compose_sign(s, t):
    if s == "I" or t == "I":
        return "I"
    return "+1" if s == t else "-1"


def _path_sign(path, signs):
    sign = "+1"
    for u, v in zip(path, path[1:]):
        if (u, v) not in signs:
            return None
        sign = _compose_sign(sign, signs[(u, v)])
    return sign


def check_balance(W, result):
    """balance: a witness is two real paths of different sign; else none exist."""
    flag, witness = result
    signs = _edge_signs(W)
    n = len(W)
    if not flag:
        (u, v), (p1, s1), (p2, s2) = witness
        for p, s in ((p1, s1), (p2, s2)):
            if p[0] != u or p[-1] != v or len(set(p)) != len(p):
                return "witness path %r is not a simple %d->%d path" % (p, u, v)
            if _path_sign(p, signs) != s:
                return "witness path %r has the wrong sign" % (p,)
        return None if s1 != s2 else "witness signs agree"
    out = [[j for j in range(n) if (i, j) in signs] for i in range(n)]
    for u in range(n):
        found = {}
        stack = [(u, (u,), "+1")]
        while stack:
            x, path, sign = stack.pop()
            for y in out[x]:
                if y in path:
                    continue
                s = _compose_sign(sign, signs[(x, y)])
                if found.setdefault(y, s) != s:
                    return "balanced, but two %d->%d paths differ in sign" % (u, y)
                stack.append((y, path + (y,), s))
    return None


def check_bipartite(n, edges, result):
    """is_bipartite certificate: a proper 2-coloring or a closed odd walk."""
    flag, cert = result
    es = {(min(u, v), max(u, v)) for u, v in edges}
    if flag:
        p0, p1 = set(cert[0]), set(cert[1])
        if p0 & p1 or p0 | p1 != set(range(n)):
            return "bipartition does not partition the vertices"
        for u, v in es:
            if (u in p0) == (v in p0):
                return "edge %d-%d inside one part" % (u, v)
        return None
    cyc = list(cert)
    if len(cyc) % 2 == 0:
        return "odd-cycle certificate has even length"
    if len(cyc) == 1:
        return None if (cyc[0], cyc[0]) in es else "loop certificate is no loop"
    for u, v in zip(cyc, cyc[1:] + cyc[:1]):
        if (min(u, v), max(u, v)) not in es:
            return "odd-cycle certificate uses a non-edge %d-%d" % (u, v)
    return None


# ----------------------------------------------------------------- algebra

def check_matrix_pairs(result, expected):
    return None if pairs_matrix(result) == expected else "matrix differs from oracle"


def check_nm_mul(A, B, result):
    return check_matrix_pairs(result, oracles.pmat_mul(A, B))


def _rank(rows):
    m = [list(r) for r in rows]
    rank, cols = 0, len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def check_nm_rank(A, result):
    r1 = _rank([[a for a, _b in row] for row in A])
    r2 = _rank([[a + b for a, b in row] for row in A])
    want = (r1, r2, len(A) == len(A[0]) and r1 == r2 == len(A))
    return None if tuple(result) == want else "rank %r, expected %r" % (result, want)


def check_render(A, text, parse):
    lines = text.split("\n")
    if len(lines) != len(A) or any(len(ln.split(", ")) != len(A[0]) for ln in lines):
        return "rendered matrix has the wrong shape"
    return None if pairs_matrix(parse(text)) == A else "render does not round-trip"


def link_oracle(chain):
    acc = chain[0]
    for B in chain[1:]:
        if len(acc[0]) == len(B):
            acc = oracles.pmat_mul(acc, B)
        else:
            acc = oracles.pmat_mul(oracles.pmat_transpose(acc), B)
    signed = [[oracles.psign(x) for x in row] for row in acc]
    return acc, signed


def check_link(chain, result):
    raw, signed = link_oracle(chain)
    if pairs_matrix(result[0]) != raw:
        return "linked raw product differs from oracle"
    if pairs_matrix(result[1]) != signed:
        return "linked signed matrix differs from oracle"
    return None


def link_scalar_ops(shapes):
    """a+bI multiply-adds in folding a chain of (rows, cols) shapes."""
    (r, c), total = shapes[0], 0
    for br, bc in shapes[1:]:
        if c == br:
            total += r * c * bc
            r, c = r, bc
        else:
            total += c * r * bc
            r, c = c, bc
    return total


# --------------------------------------------------------------- relations

def closure_oracle(R):
    """Repeated squaring over the oracle lattice; returns (closure, rounds)."""
    n = len(R)
    cur = [row[:] for row in R]
    for rounds in range(1, n + 2):
        comp = oracles.ocompose(cur, cur)
        merged = [[oracles.omax(cur[i][j], comp[i][j]) for j in range(n)] for i in range(n)]
        if merged == cur:
            return cur, rounds
        cur = merged
    raise AssertionError("oracle closure did not stabilize")


def check_closure(R, real_valued, want, result):
    got = grades_matrix(result)
    if got != want:
        return "closure differs from repeated-squaring oracle"
    if real_valued and got != oracles.fw_closure(R):
        return "closure differs from Floyd-Warshall oracle"
    if not oracles.o_is_transitive(got):
        return "closure is not transitive"
    return None


def check_compose(P, Q, result):
    ok = grades_matrix(result) == oracles.ocompose(P, Q)
    return None if ok else "max-min composition differs from oracle"


def check_join(P, Q, labels, result):
    n = len(P)
    if len(result) != n * n * len(Q[0]):
        return "join table has the wrong size"
    for i, x in enumerate(labels):
        for j, y in enumerate(labels):
            for k, z in enumerate(labels):
                if grade(result[(x, y, z)]) != oracles.omin(P[i][j], Q[j][k]):
                    return "join entry (%s, %s, %s) differs" % (x, y, z)
    return None


IND = "indeterminate"


def _tri_all(vals):
    vals = list(vals)
    if any(v is False for v in vals):
        return False
    if any(v == IND for v in vals):
        return IND
    return True


def properties_oracle(R, eps):
    n = len(R)
    one, zero = (Fraction(1), False), (Fraction(0), False)
    diag = [R[i][i] for i in range(n)]

    def pos(v):
        return False if v[0] == 0 else (IND if v[1] else True)

    def neg(v):
        return IND if v == IND else not v

    C = oracles.ocompose(R, R)
    reflexive = all(v == one for v in diag)
    symmetric = all(R[i][j] == R[j][i] for i in range(n) for j in range(n))
    antisym = _tri_all(
        neg(_tri_all([pos(R[i][j]), pos(R[j][i])]))
        for i in range(n) for j in range(n) if i != j
    )
    transitive = all(oracles.ole(C[i][j], R[i][j]) for i in range(n) for j in range(n))
    return {
        "reflexive": reflexive,
        "epsilon_reflexive": _tri_all(IND if v[1] else v[0] >= eps for v in diag),
        "irreflexive": all(v == zero for v in diag),
        "anti_reflexive": all(v != one for v in diag),
        "symmetric": symmetric,
        "asymmetric": not symmetric,
        "antisymmetric": antisym,
        "transitive": transitive,
        "anti_transitive": all(
            oracles.ole(R[i][j], C[i][j]) and R[i][j] != C[i][j]
            for i in range(n) for j in range(n)
        ),
        "compatibility": _tri_all([reflexive, symmetric]),
        "partial_order": _tri_all([reflexive, antisym, transitive]),
    }


def _tri_value(v):
    if v is True or v is False:
        return v
    return IND


def check_properties(R, eps, result):
    want = properties_oracle(R, eps)
    for field, value in want.items():
        if _tri_value(getattr(result, field)) != value:
            return "property %s is %r, expected %r" % (field, getattr(result, field), value)
    return None


# ------------------------------------------------------------------ graphs

def adjacency_sets(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _components(n, adj):
    seen = set()
    comps = []
    for s in range(n):
        if s in seen:
            continue
        seen.add(s)
        comp, stack = [s], [s]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        comps.append(tuple(sorted(comp)))
    return comps


def cut_structure(n, edges):
    """Cut vertices and bridges by Tarjan's lowpoint DFS (iterative)."""
    adj = adjacency_sets(n, edges)
    disc, low = [None] * n, [0] * n
    cuts, bridges, t = set(), set(), 0
    for root in range(n):
        if disc[root] is not None:
            continue
        disc[root] = low[root] = t
        t += 1
        children = 0
        stack = [(root, None, iter(sorted(adj[root])))]
        while stack:
            v, parent, it = stack[-1]
            w = next(it, None)
            if w is None:
                stack.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        bridges.add((min(v, parent), max(v, parent)))
                    if stack[-1][1] is not None and low[v] >= disc[parent]:
                        cuts.add(parent)
                continue
            if w == parent:
                continue
            if disc[w] is None:
                disc[w] = low[w] = t
                t += 1
                if v == root:
                    children += 1
                stack.append((w, v, iter(sorted(adj[w]))))
            else:
                low[v] = min(low[v], disc[w])
        if children > 1:
            cuts.add(root)
    return cuts, bridges


def check_connectivity(n, edges, result):
    adj = adjacency_sets(n, edges)
    comps = _components(n, adj)
    if sorted(result.components) != sorted(comps):
        return "components differ"
    if result.is_connected != (len(comps) <= 1):
        return "connected flag wrong"
    cuts, bridges = cut_structure(n, edges)
    if set(result.cut_vertices) != cuts:
        return "cut vertices differ from Tarjan's"
    if set(result.cut_edges) != bridges:
        return "bridges differ from Tarjan's"
    return None


def check_degree_report(n, edges, result):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    want = (tuple(deg), min(deg), max(deg), tuple(sorted(deg, reverse=True)))
    got = (result.degrees, result.min_degree, result.max_degree, result.sequence)
    return None if got == want else "degree report differs"


def check_eulerian(n, edges, result):
    flag, tour = result
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    active = [v for v in range(n) if deg[v]]
    adj = adjacency_sets(n, edges)
    comps = [c for c in _components(n, adj) if deg[c[0]] or len(c) > 1]
    want = bool(active) and all(deg[v] % 2 == 0 for v in active) and len(comps) == 1
    if flag != want:
        return "eulerian flag %r, expected %r" % (flag, want)
    if not flag:
        return None if tour is None else "tour given for a non-eulerian graph"
    if len(tour) != len(edges) or tour[0][0] != tour[-1][1]:
        return "tour is not closed over every edge"
    used = sorted((min(a, b), max(a, b)) for a, b in tour)
    if used != sorted(edges) or any(tour[i][1] != tour[i + 1][0] for i in range(len(tour) - 1)):
        return "tour is not a walk using each edge once"
    return None


def check_tutte(n, edges, planted_matching, result):
    matrix, flag = result
    for u, v in edges:
        sym = "x%d%d" % (u + 1, v + 1)
        if matrix[u][v] != sym or matrix[v][u] != "-" + sym:
            return "tutte matrix entry (%d, %d) wrong" % (u, v)
    if sum(1 for row in matrix for x in row if x != "0") != 2 * len(edges):
        return "tutte matrix has extra entries"
    if planted_matching is not None:
        want = True
    elif n % 2:
        want = False
    else:
        want = oracles.has_perfect_matching(n, edges)
    return None if flag == want else "perfect matching %r, expected %r" % (flag, want)


def bc_closure(n, edges):
    closed = {(min(u, v), max(u, v)) for u, v in edges}
    while True:
        deg = [0] * n
        for u, v in closed:
            deg[u] += 1
            deg[v] += 1
        add = {
            (u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in closed and deg[u] + deg[v] >= n
        }
        if not add:
            return closed
        # adding one edge at a time and all qualifying ones at once reach the
        # same closure (Bondy-Chvatal), so a batch step is fine here
        closed |= add


def cycle_lengths(n, adj):
    """Lengths of all simple cycles (>= 3), by subset reachability per start."""
    lengths = set()
    for s in range(n):
        frontier = {(1 << s, s)}
        size = 1
        while frontier:
            nxt = set()
            for mask, v in frontier:
                if size >= 3 and s in adj[v]:
                    lengths.add(size)
                for w in adj[v]:
                    if w > s and not mask >> w & 1:
                        nxt.add((mask | 1 << w, w))
            frontier = nxt
            size += 1
    return lengths


def check_hamiltonian(n, edges, guard, result):
    closure = bc_closure(n, edges)
    complete = len(closure) == n * (n - 1) // 2
    if isinstance(result, Exception):
        if type(result).__name__ == "SizeLimitError" and n > guard and not complete:
            return None
        return "unexpected %s: %s" % (type(result).__name__, result)
    graph, flag, cycle = result
    if set(graph.edges) != closure:
        return "closure differs from Bondy-Chvatal"
    adj = adjacency_sets(n, edges)
    if cycle is not None:
        if sorted(cycle) != list(range(n)):
            return "hamiltonian cycle does not visit every vertex once"
        if any(cycle[(i + 1) % n] not in adj[cycle[i]] for i in range(n)):
            return "hamiltonian cycle uses a non-edge"
        return None if flag else "cycle given with a false flag"
    if flag and n <= guard:
        return "flag set without a cycle inside the guard"
    if not flag and n in cycle_lengths(n, adj):
        return "a hamiltonian cycle exists"
    return None


def _constrained_order(n, adj):
    """Each next vertex has the most neighbours already placed."""
    order, placed = [], set()
    while len(order) < n:
        v = max((u for u in range(n) if u not in placed),
                key=lambda u: (len(adj[u] & placed), len(adj[u])))
        order.append(v)
        placed.add(v)
    return order


def colorable(n, adj, k):
    """Backtracking k-colorability; adj holds neighbour sets."""
    order, colors = _constrained_order(n, adj), {}

    def rec(i, top):
        if i == n:
            return True
        v = order[i]
        used = {colors[w] for w in adj[v] if w in colors}
        for c in range(min(k, top + 1)):
            if c not in used:
                colors[v] = c
                if rec(i + 1, max(top, c + 1)):
                    return True
                del colors[v]
        return False

    return rec(0, 0)


def clique_number(n, adj):
    best = 0

    def grow(size, cands):
        nonlocal best
        best = max(best, size)
        for v in sorted(cands):
            if size + len(cands) <= best:
                return
            grow(size + 1, cands & adj[v])
            cands = cands - {v}

    grow(0, set(range(n)))
    return best


def _check_proper(n, adj, k, colors, what, lower):
    """Proper with k colors, and k - 1 colors do not suffice."""
    if len(colors) != n or any(not 0 <= c < k for c in colors):
        return "%s colors out of range" % what
    for v in range(n):
        if any(colors[v] == colors[w] for w in adj[v]):
            return "%s coloring is not proper" % what
    if k > lower and colorable(n, adj, k - 1):
        return "%s coloring is not optimal" % what
    return None


def line_adjacency(edges):
    m = len(edges)
    return [
        {j for j in range(m) if j != i and set(edges[i]) & set(edges[j])}
        for i in range(m)
    ]


def check_coloring(n, edges, result):
    adj = adjacency_sets(n, edges)
    why = _check_proper(n, adj, result.chromatic_number, result.vertex_colors, "vertex",
                        clique_number(n, adj))
    if why:
        return why
    return _check_proper(
        len(edges), line_adjacency(edges), result.edge_chromatic_number,
        result.edge_colors, "edge", max((len(a) for a in adj), default=0),
    )


def check_tree_count(n, edges, result):
    want = oracles.matrix_tree_count(n, edges)
    return None if result == want else "tree count %r, expected %r" % (result, want)


def check_chromatic_polynomial(n, edges, result):
    coeffs = list(result.coeffs)
    if len(coeffs) != n + 1 or coeffs[n] != 1:
        return "chromatic polynomial is not monic of degree n"
    if n and coeffs[n - 1] != -len(edges):
        return "second coefficient is not -m"
    adj = adjacency_sets(n, edges)
    chi = next(k for k in range(n + 1) if colorable(n, adj, k))
    if result(chi) <= 0 or (chi and result(chi - 1) != 0):
        return "P(chi) / P(chi-1) wrong"
    for k in (1, 2) + ((3,) if n <= 9 else ()):
        if result(k) != oracles.count_proper_colorings(n, edges, k):
            return "P(%d) differs from brute force" % k
    return None


def _bfs(n, adj, s):
    dist = [None] * n
    dist[s], queue = 0, [s]
    for x in queue:
        for y in adj[x]:
            if dist[y] is None:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def check_metrics(n, edges, result):
    adj = adjacency_sets(n, edges)
    dists = tuple(tuple(_bfs(n, adj, s)) for s in range(n))
    if result.distances != dists:
        return "distance table differs"
    lengths = cycle_lengths(n, adj)
    girth = min(lengths) if lengths else None
    circ = max(lengths) if lengths else None
    connected = all(d is not None for row in dists for d in row)
    diameter = max(d for row in dists for d in row) if n and connected else None
    got = (result.girth, result.circumference, result.diameter)
    want = (girth, circ, diameter)
    return None if got == want else "girth/circumference/diameter %r, expected %r" % (got, want)


# ------------------------------------------------------------------ ngraph

def check_adjacency(ng, result):
    n = ng["n_real"] + ng["n_indet"]
    want = [[ZERO_P] * n for _ in range(n)]
    for u, v, t in ng["edges"]:
        want[u][v] = want[v][u] = I_P if t == "I" else ONE_P
    return None if pairs_matrix(result) == want else "adjacency differs"


def check_from_adjacency(ng, result):
    got = (result.n_real, result.n_indet, sorted(result.edges), result.directed)
    want = (ng["n_real"], ng["n_indet"], sorted(ng["edges"]), False)
    return None if got == want else "graph rebuilt from adjacency differs"


def check_classify(ng, result):
    nv = ng["n_indet"] > 0
    ne = any(t == "I" for _u, _v, t in ng["edges"])
    want = {(True, True): "strong", (True, False): "vertex-neutrosophic",
            (False, True): "edge-neutrosophic", (False, False): "plain"}[(nv, ne)]
    return None if result == want else "classification %r, expected %r" % (result, want)


def check_neutro_coloring(ng, result):
    nr, n = ng["n_real"], ng["n_real"] + ng["n_indet"]
    real = [(u, v) for u, v, t in ng["edges"] if t == "R" and u < nr and v < nr]
    radj = adjacency_sets(nr, real)
    why = _check_proper(
        nr, radj, result.chromatic_number, result.vertex_colors[:nr], "vertex",
        clique_number(nr, radj),
    )
    if why:
        return why
    if any(c != 0 for c in result.vertex_colors[nr:]) or len(result.vertex_colors) != n:
        return "indeterminate vertices are not given color 0"
    real_edges = [(u, v) for u, v, t in ng["edges"] if t == "R"]
    ecolors = [c for (_u, _v, t), c in zip(ng["edges"], result.edge_colors) if t == "R"]
    if any(c != 0 for (_u, _v, t), c in zip(ng["edges"], result.edge_colors) if t == "I"):
        return "indeterminate edges are not given color 0"
    deg = {}
    for u, v in real_edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return _check_proper(
        len(real_edges), line_adjacency(real_edges), result.edge_chromatic_number,
        ecolors, "edge", max(deg.values(), default=0),
    )


def check_isomorphic(ng1, ng2, expect, result):
    flag, phi = result
    if flag != expect:
        return "isomorphic %r, expected %r" % (flag, expect)
    if not flag:
        return None if phi is None else "map given for non-isomorphic graphs"
    mapped = sorted(
        (min(phi[u], phi[v]), max(phi[u], phi[v]), t) for u, v, t in ng1["edges"]
    )
    return None if mapped == sorted(ng2["edges"]) else "isomorphism does not map edges"
