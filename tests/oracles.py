# Independent oracle implementations used to verify library output.  Nothing
# here imports the package under test; the code paths are deliberately
# different from the shipped algorithms (deletion-contraction tree counts vs
# the library's matrix-tree theorem, Floyd-Warshall vs repeated squaring,
# plain int FCM vs the exact engine).  matrix_tree_count below shares the
# library's algorithm but none of its code.

import itertools
from fractions import Fraction

# --- exact (a, b) pair arithmetic, a + b*I with I*I = I ------------------


def padd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def pmul(x, y):
    a, b = x
    c, d = y
    return (a * c, a * d + b * c + b * d)


def pmat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    assert len(A[0]) == k
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = (0, 0)
            for t in range(k):
                acc = padd(acc, pmul(A[i][t], B[t][j]))
            row.append(acc)
        out.append(row)
    return out


def pmat_transpose(A):
    return [list(col) for col in zip(*A)]


def psign(x):
    a, b = x
    if a > 0:
        return (1, 0)
    if a < 0:
        return (-1, 0)
    if b != 0:
        return (0, 1)
    return (0, 0)


# --- fuzzy value oracle: (magnitude, indeterminate) pairs ----------------


def fz(token):
    """Parse '0.3' / 'I' / '0.5I' into a (Fraction, bool) pair."""
    token = token.strip()
    if token.endswith("I"):
        coef = token[:-1]
        mag = Fraction(coef) if coef else Fraction(1)
        if mag == 0:
            return (Fraction(0), False)
        return (mag, True)
    return (Fraction(token), False)


def fzmat(rows):
    return [[fz(t) for t in row] for row in rows]


def omin(x, y):
    if x[0] == 0 or y[0] == 0:
        return (Fraction(0), False)
    mag = min(x[0], y[0])
    if x[1] or y[1]:
        return (mag, True)
    return (mag, False)


def omax(x, y):
    if x[0] > y[0]:
        return x
    if y[0] > x[0]:
        return y
    # magnitude tie: a real value wins over an indeterminate one
    if not x[1]:
        return x
    return y


def ole(x, y):
    """x <= y in the total order induced by omax."""
    return omax(x, y) == y


def ocompose(P, Q):
    n, k, m = len(P), len(Q), len(Q[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = (Fraction(0), False)
            for t in range(k):
                acc = omax(acc, omin(P[i][t], Q[t][j]))
            row.append(acc)
        out.append(row)
    return out


def o_is_transitive(R):
    C = ocompose(R, R)
    n = len(R)
    return all(ole(C[i][j], R[i][j]) for i in range(n) for j in range(n))


def fw_closure(R):
    """Max-min transitive closure by Floyd-Warshall over the value lattice.

    Sound only for real-valued (crisp or fuzzy) instances.  With mixed
    indeterminate entries, omin is not monotone w.r.t. the omax order
    (I >= 0.7 but omin(I, 0.7) = 0.7I < 0.7 = omin(0.7, 0.7)), so keeping a
    single dominating value per cell can discard a path whose composition
    would later win, and the FW result need not even be transitive.
    """
    n = len(R)
    C = [row[:] for row in R]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                C[i][j] = omax(C[i][j], omin(C[i][k], C[k][j]))
    return C


# --- crisp FCM iteration (plain ints, no indeterminacy) ------------------


def crisp_fcm_run(M, s0, clamp):
    """Iterate s <- step(s*M) with clamped coordinates forced to 1.

    Returns (kind, pattern_states, trajectory) where kind is 'fixed-point'
    or 'limit-cycle' and states are 0/1 tuples.
    """
    n = len(M)
    state = tuple(1 if (i in clamp or s0[i]) else s0[i] for i in range(n))
    seen = {state: 0}
    traj = [state]
    while True:
        raw = [sum(state[i] * M[i][j] for i in range(n)) for j in range(n)]
        nxt = tuple(
            1 if j in clamp else (1 if raw[j] > 0 else 0) for j in range(n)
        )
        if nxt in seen:
            start = seen[nxt]
            cycle = traj[start:]
            if len(cycle) == 1:
                return ("fixed-point", [nxt], traj)
            return ("limit-cycle", cycle, traj)
        seen[nxt] = len(traj)
        traj.append(nxt)
        state = nxt


# --- spanning trees via the matrix-tree theorem (Bareiss) ----------------


def bareiss_det(M):
    """Fraction-free determinant of an integer matrix."""
    A = [row[:] for row in M]
    n = len(A)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for r in range(k + 1, n):
                if A[r][k] != 0:
                    A[k], A[r] = A[r], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def matrix_tree_count(n, edges):
    """Number of labeled spanning trees; edges may repeat (multigraph)."""
    if n == 0:
        return 0
    if n == 1:
        return 1
    L = [[0] * n for _ in range(n)]
    for u, v in edges:
        if u == v:
            continue
        L[u][u] += 1
        L[v][v] += 1
        L[u][v] -= 1
        L[v][u] -= 1
    minor = [row[1:] for row in L[1:]]
    return bareiss_det(minor)


def deletion_contraction_tree_count(n, edges):
    """tau by deletion-contraction over parallel-edge classes; loops ignored.

    tau(G) = tau(G - e) + mult(e) * tau(G / e), with a disconnected graph
    giving 0 and a tree shape giving the product of its multiplicities.
    """
    memo = {}

    def components(n, classes):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (u, v), _mult in classes:
            parent[find(u)] = find(v)
        return len({find(x) for x in range(n)})

    def rec(n, classes):
        # classes: sorted tuple of ((u, v), multiplicity) with u < v
        if n == 0:
            return 0
        if n == 1:
            return 1
        if components(n, classes) > 1:
            return 0
        if len(classes) == n - 1:
            total = 1
            for _e, mult in classes:
                total *= mult
            return total
        key = (n, classes)
        if key not in memo:
            (u, v), mult = classes[0]
            rest = classes[1:]
            merged = {}
            for (a, b), mu in rest:
                a, b = (u if a == v else a), (u if b == v else b)
                if a == b:
                    continue
                a, b = (a if a < v else a - 1), (b if b < v else b - 1)
                e = (min(a, b), max(a, b))
                merged[e] = merged.get(e, 0) + mu
            memo[key] = rec(n, rest) + mult * rec(n - 1, tuple(sorted(merged.items())))
        return memo[key]

    counts = {}
    for u, v in edges:
        if u != v:
            e = (min(u, v), max(u, v))
            counts[e] = counts.get(e, 0) + 1
    return rec(n, tuple(sorted(counts.items())))


# --- matchings and colorings by brute force ------------------------------


def has_perfect_matching(n, edges):
    if n % 2:
        return False
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)

    def rec(unmatched):
        if not unmatched:
            return True
        u = min(unmatched)
        rest = unmatched - {u}
        for v in adj[u] & rest:
            if rec(rest - {v}):
                return True
        return False

    return rec(frozenset(range(n)))


def count_proper_colorings(n, edges, k):
    simple = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    if any(u == v for u, v in edges):
        return 0
    total = 0
    for assign in itertools.product(range(k), repeat=n):
        if all(assign[u] != assign[v] for u, v in simple):
            total += 1
    return total


def odd_cycle_exists(n, edges):
    """Search all simple cycles for one of odd length (small n only)."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)

    def extend(path, used):
        start = path[0]
        last = path[-1]
        for w in adj[last]:
            if w == start and len(path) >= 3:
                if len(path) % 2 == 1:
                    return True
            elif w not in used and w > start:
                if extend(path + [w], used | {w}):
                    return True
        return False

    return any(extend([s], {s}) for s in range(n))


def plain_isomorphic(n1, edges1, n2, edges2):
    if n1 != n2 or len(edges1) != len(edges2):
        return False
    e2 = {(min(u, v), max(u, v)) for u, v in edges2}
    for perm in itertools.permutations(range(n1)):
        mapped = {
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges1
        }
        if mapped == e2:
            return True
    return False


# --- random structure helpers (seeded by the caller) ---------------------


def random_simple_graph(rng, n, p=None):
    if p is None:
        p = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return edges


def random_tree(rng, n):
    """Uniform labeled tree from a random Pruefer sequence."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges
