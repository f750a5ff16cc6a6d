# Independent oracle implementations used to verify library output.  Nothing
# here imports the package under test; the code paths are deliberately
# different from the shipped algorithms (deletion-contraction tree counts vs
# the library's matrix-tree theorem, Floyd-Warshall vs repeated squaring,
# plain int FCM and (a, b) pair map runs vs the exact engine over the
# library's integer split products, Fraction Gaussian elimination vs the
# library's fraction-free ranks, pair and (magnitude, flag) arithmetic vs
# the library's integer split products and rank codes, random Tutte
# determinants vs the library's blossom algorithm, plain edge-list
# deletion-contraction vs the library's simplicial peeling over bitmask
# states, every vertex permutation vs the library's signature-pruned
# isomorphism search, unmemoised recursive path backtracking vs the
# library's iterative (vertex set, end) cycle search, every pair rescanned
# per round vs the library's degree-gated Bondy-Chvatal closure rounds,
# union-find component counts and per-component edge rescans vs the
# library's lowpoint DFS trees and Euler-tour coverage, whole root chains
# vs lockstep climbs for odd cycles, all edge pairs vs the pairs at each
# vertex for line graphs, neighbour sets vs edge lists for products).
# matrix_tree_count and squaring_closure below share the library's algorithm
# but none of its code.

import itertools
import math
import random
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


def squaring_closure(R):
    """Max-min transitive closure: R <- omax(R, R o R) until nothing changes.

    Sound for mixed indeterminate grades too, where fw_closure is not.
    """
    C = [row[:] for row in R]
    while True:
        S = ocompose(C, C)
        nxt = [[omax(c, s) for c, s in zip(crow, srow)] for crow, srow in zip(C, S)]
        if nxt == C:
            return C
        C = nxt


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


# --- neutrosophic map runs over (a, b) pairs -----------------------------


def pair_threshold(x):
    """Activation rule: a > 0 -> 1; a = 0 with b > 0 -> I; else 0."""
    a, b = x
    if a > 0:
        return (1, 0)
    if a == 0 and b > 0:
        return (0, 1)
    return (0, 0)


def _pair_update(state, W, clamp):
    raw = pmat_mul([list(state)], W)[0]
    return tuple(
        (1, 0) if j in clamp else pair_threshold(x) for j, x in enumerate(raw)
    )


def _on_coordinates(s0, clamp):
    if clamp is None:
        return {i for i, x in enumerate(s0) if x != (0, 0)}
    return set(clamp)


def _run_until_repeat(state, step):
    """(index of the first visit of the repeated state, whole walk)."""
    walk = [state]
    while True:
        state = step(state)
        if state in walk:
            return walk.index(state), walk + [state]
        walk.append(state)


def _pair_pattern(states, first):
    if len(set(states)) == 1:
        return ("fixed-point", [states[0]], first)
    return ("limit-cycle", list(states), first)


def pair_cm_run(W, s0, clamp=None):
    """Concept-map run on pair weights: s <- threshold(s*W), clamp forced to 1.

    clamp None clamps the nonzero coordinates of s0.  Returns
    ((kind, pattern states, steps to enter), walk) where the walk ends with
    the first repeated state.
    """
    clamp = _on_coordinates(s0, clamp)
    start = tuple((1, 0) if i in clamp else x for i, x in enumerate(s0))
    first, walk = _run_until_repeat(
        start, lambda s: _pair_update(s, W, clamp)
    )
    return _pair_pattern(walk[first:-1], first), walk


def pair_rm_run(W, s0, side, clamp=None):
    """Relational-map run on m x n pair weights from the domain or range side.

    Each step maps the start side through W (or W^T) to the other side, then
    back, clamping the start side.  Returns (domain pattern, range pattern,
    walk of (domain state, range state) pairs), patterns as in pair_cm_run.
    """
    clamp = _on_coordinates(s0, clamp)
    WT = pmat_transpose(W)
    there, back = (W, WT) if side == "domain" else (WT, W)
    start = tuple((1, 0) if i in clamp else x for i, x in enumerate(s0))
    other = tuple((0, 0) for _ in there[0])

    def step(pair):
        X, Y = pair
        if side == "domain":
            Y = _pair_update(X, there, set())
            return (_pair_update(Y, back, clamp), Y)
        X = _pair_update(Y, there, set())
        return (X, _pair_update(X, back, clamp))

    first, walk = _run_until_repeat(
        (start, other) if side == "domain" else (other, start), step
    )
    cycle = walk[first:-1]
    return (
        _pair_pattern([p[0] for p in cycle], first),
        _pair_pattern([p[1] for p in cycle], first),
        walk,
    )


# --- rank by Gaussian elimination over Fraction --------------------------


def gauss_rank(rows):
    m = [list(r) for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, n_rows):
            if m[r][col] != 0:
                factor = m[r][col] / pv
                for c in range(col, n_cols):
                    m[r][c] -= factor * m[rank][c]
        rank += 1
        if rank == n_rows:
            break
    return rank


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


# --- chromatic polynomials (deletion-contraction) ------------------------


def _poly_trim(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_sub(a, b):
    size = max(len(a), len(b))
    return _poly_trim(
        (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
        for i in range(size)
    )


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def deletion_contraction_chromatic(n, edges):
    """Chromatic polynomial coefficients (ascending) of a simple graph.

    f(G) = f(G-e) - f(G/e) on the first edge, base lambda^n; a disconnected
    graph is the product over its components and a tree is
    lambda * (lambda - 1)^(n-1) from binomial coefficients.
    """
    memo = {}

    def components(n, edges):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            parent[find(u)] = find(v)
        groups = {}
        for x in range(n):
            groups.setdefault(find(x), []).append(x)
        return sorted(tuple(g) for g in groups.values())

    def contract(edges, u, v):
        out = set()
        for a, b in edges:
            a = u if a == v else a
            b = u if b == v else b
            if a != b:
                a = a if a < v else a - 1
                b = b if b < v else b - 1
                out.add((min(a, b), max(a, b)))
        return tuple(sorted(out))

    def rec(n, edges):
        if not edges:
            return (0,) * n + (1,)
        key = (n, edges)
        if key in memo:
            return memo[key]
        comps = components(n, edges)
        if len(comps) > 1:
            result = (1,)
            for comp in comps:
                remap = {v: i for i, v in enumerate(comp)}
                sub = tuple(
                    sorted(
                        (remap[u], remap[v])
                        for u, v in edges
                        if u in remap and v in remap
                    )
                )
                result = _poly_mul(result, rec(len(comp), sub))
        elif len(edges) == n - 1:
            result = (0,) + tuple(
                (-1) ** (n - 1 - k) * math.comb(n - 1, k) for k in range(n)
            )
        else:
            u, v = edges[0]
            result = _poly_sub(rec(n, edges[1:]), rec(n - 1, contract(edges, u, v)))
        memo[key] = result
        return result

    simple = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    return rec(n, tuple(sorted(simple)))


# --- matchings (brute force, random Tutte determinants) and colorings ---


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


TUTTE_REPS = 20
TUTTE_PRIME = 2**31 - 1


def randomized_tutte_flag(n, edges, seed):
    """Perfect matching by the randomized Tutte test.

    det T is evaluated at random points of GF(p); any nonzero evaluation
    certifies a perfect matching, and after TUTTE_REPS zero evaluations the
    answer is False (wrong with probability at most (n/p)**TUTTE_REPS).
    """
    if n % 2 == 1:
        return False
    if n == 0:
        return True
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    rng = random.Random(seed)
    for _ in range(TUTTE_REPS):
        vals = {e: rng.randrange(1, TUTTE_PRIME) for e in edges}
        T = [[0] * n for _ in range(n)]
        for (u, v), x in vals.items():
            T[u][v] = x
            T[v][u] = (-x) % TUTTE_PRIME
        if _det_mod(T, TUTTE_PRIME) != 0:
            return True
    return False


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


# --- cycle searches: plain path backtracking, no memo --------------------


def _adjacency(n, edges):
    """Neighbour sets ignoring multiplicity; a loop puts v in its own set."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def backtrack_ham_cycle(n, edges):
    """The lexicographically least Hamiltonian cycle from vertex 0, or None."""
    return _ham_cycle(n, _adjacency(n, edges))


def backtrack_circumference(n, edges):
    """Longest cycle; a loop is a cycle of 1 and a parallel pair one of 2."""
    pairs = [(min(u, v), max(u, v)) for u, v in edges if u != v]
    floor = (2 if len(set(pairs)) < len(pairs)
             else 1 if len(pairs) < len(edges) else None)
    return _longest_cycle_length(n, _adjacency(n, edges), floor)


def round_closure(n, edges):
    """Bondy-Chvatal closure: every round recounts the degrees and joins each
    missing pair whose degrees sum to at least n; sorted (u, v) pairs."""
    closure = {(min(u, v), max(u, v)) for u, v in edges}
    changed = True
    while changed:
        changed = False
        deg = [0] * n
        for u, v in closure:
            deg[u] += 1
            deg[v] += 1
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in closure and deg[u] + deg[v] >= n:
                    closure.add((u, v))
                    changed = True
    return tuple(sorted(closure))


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


def _longest_cycle_length(n, adj, best):
    """Longest cycle of length >= 3, or `best` (the loop/parallel floor)."""

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


def brute_force_neutro_isomorphic(G1, G2):
    """(flag, phi) over every real x indeterminate vertex permutation.

    G1 and G2 are neutro graphs (n_real, n_indet, vertex_count, directed,
    edges as sorted (u, v, tag) triples); phi is the first isomorphism in
    lexicographic order of the images.
    """
    if (
        G1.n_real != G2.n_real
        or G1.n_indet != G2.n_indet
        or G1.directed != G2.directed
        or len(G1.edges) != len(G2.edges)
    ):
        return False, None

    def key(edges):
        return tuple(sorted(edges))

    target = key(G2.edges)
    reals = range(G1.n_real)
    indets = range(G1.n_real, G1.vertex_count)
    for pr in itertools.permutations(range(G2.n_real)):
        for pi in itertools.permutations(range(G2.n_real, G2.vertex_count)):
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


# --- second traversals: the library answers these in one pass ----------


def union_find_components(n, edges):
    """Components as sorted tuples listed by least vertex, by union-find."""
    root = list(range(n))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, v in edges:
        root[find(u)] = find(v)
    comps = {}
    for v in range(n):
        comps.setdefault(find(v), []).append(v)
    return sorted(tuple(c) for c in comps.values())


def root_chain_bipartite(n, edges):
    """(True, (part0, part1)) or (False, odd cycle) by BFS two-colouring.

    On a clash x-y both root chains are built whole, and the cycle turns at
    the first vertex of y's chain that x's chain holds.  The BFS visits each
    vertex's neighbours in ascending order, as a Graph's neighbour view does.
    """
    for u, v in edges:
        if u == v:
            return False, (u,)
    adj = _adjacency(n, edges)
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
            for y in sorted(adj[x]):
                if color[y] is None:
                    color[y] = 1 - color[x]
                    parent[y] = x
                    queue.append(y)
                elif color[y] == color[x]:
                    chain_x = _to_root(x, parent)
                    chain_y = _to_root(y, parent)
                    pos = {w: i for i, w in enumerate(chain_x)}
                    j = next(j for j, w in enumerate(chain_y) if w in pos)
                    cycle = chain_x[: pos[chain_y[j]] + 1] + chain_y[:j][::-1]
                    return False, tuple(cycle)
    return True, tuple(tuple(v for v in range(n) if color[v] == c) for c in (0, 1))


def _to_root(v, parent):
    chain = [v]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    return chain


def all_pairs_line_graph(edges):
    """Sorted pairs i < j of edge indexes whose edges share an end."""
    return tuple(
        (i, j)
        for i in range(len(edges))
        for j in range(i + 1, len(edges))
        if set(edges[i]) & set(edges[j])
    )


def component_count_eulerian(n, edges):
    """(flag, tour): even degrees and one component with edges, counted
    apart, then Hierholzer's tour from the least vertex with an edge.
    `edges` are a Graph's sorted pairs, whose order the tour follows."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    active = [v for v in range(n) if deg[v]]
    if not active or any(deg[v] % 2 for v in active):
        return False, None
    comps = [c for c in union_find_components(n, edges) if len(c) > 1 or deg[c[0]]]
    if len(comps) != 1:
        return False, None
    incidence = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        incidence[u].append((v, idx))
        if u != v:
            incidence[v].append((u, idx))
    used = [False] * len(edges)
    ptr = [0] * n
    stack = [active[0]]
    path = []
    while stack:
        x = stack[-1]
        if ptr[x] < len(incidence[x]):
            y, idx = incidence[x][ptr[x]]
            ptr[x] += 1
            if not used[idx]:
                used[idx] = True
                stack.append(y)
        else:
            path.append(stack.pop())
    path.reverse()
    return True, [(path[i], path[i + 1]) for i in range(len(path) - 1)]


def adjacency_cartesian_product(n1, edges1, n2, edges2):
    """(order, sorted edges) of G1 x G2 read off the neighbour sets; vertex
    (u, v) is u * n2 + v."""
    a1, a2 = _adjacency(n1, edges1), _adjacency(n2, edges2)
    edges = []
    for u in range(n1):
        for v in range(n2):
            edges += [(u * n2 + v, u * n2 + w) for w in a2[v] if v < w]
            edges += [(u * n2 + v, x * n2 + v) for x in a1[u] if u < x]
    return n1 * n2, tuple(sorted(edges))


def rescan_neutro_components(G):
    """(components, neutrosophic components, disconnected flag) of a neutro
    graph: every edge is rescanned per component for an I-edge inside it."""
    comps = tuple(union_find_components(G.vertex_count, [e[:2] for e in G.edges]))
    neutro = []
    for comp in comps:
        members = set(comp)
        has_nv = any(v >= G.n_real for v in members)
        has_ne = any(
            t == "I" for u, v, t in G.edges if u in members and v in members
        )
        if has_nv or has_ne:
            neutro.append(comp)
    return comps, tuple(neutro), len(neutro) >= 2


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


def random_multigraph(rng, n, loops, closed=False):
    """Edges of a random multigraph on n vertices with parallel edges.

    The vertices fall into random blocks and each edge stays in its block,
    so there are often several components and isolated vertices.  Loops
    appear only when `loops` is set.  With `closed` the edges are closed
    walks, so every degree is even.
    """
    vertices = list(range(n))
    rng.shuffle(vertices)
    edges = []
    while vertices:
        size = rng.randint(1, (len(vertices) + 1) // 2)
        block, vertices = vertices[:size], vertices[size:]
        for _ in range(rng.randint(0, 2 * size)):
            walk = [rng.choice(block) for _ in range(rng.randint(1, 4) if closed else 2)]
            pairs = zip(walk, walk[1:] + walk[:1]) if closed else [walk]
            edges += [(u, v) for u, v in pairs if u != v or loops]
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
