"""Cognitive-map inference engines.

Concept models (FCM/NCM) iterate a state vector against a square weight
matrix through a threshold; relational models (FRM/NRM) bounce a vector
between a domain side and a range side through the matrix and its
transpose.  Both stop at the first repeated state and report the hidden
pattern: a fixed point or a limit cycle.

All weights are restricted to {-1, 0, 1, I}; activations live in {0, 1, I}.
"""

from dataclasses import dataclass

from . import graphs
from .core import (
    I,
    NeutroMatrix,
    NotFoundError,
    ONE,
    ShapeError,
    SizeLimitError,
    ZERO,
    _as_nn,
)

MINUS_ONE = -ONE
_WEIGHTS = (ZERO, ONE, MINUS_ONE, I)
_ACTIVATIONS = (ZERO, ONE, I)


def _check_names(names, what):
    names = tuple(names)
    if not names:
        raise ValueError("%s needs at least one name" % (what,))
    seen = set()
    for name in names:
        if not name or any(c.isspace() for c in name) or "," in name:
            raise ValueError("bad %s name %r" % (what, name))
        if name in seen:
            raise ValueError("duplicate %s name %r" % (what, name))
        seen.add(name)
    return names


def _check_weights(M, rows, cols, what):
    if not isinstance(M, NeutroMatrix):
        M = NeutroMatrix(M)
    if (M.rows, M.cols) != (rows, cols):
        raise ShapeError(
            "%s weight matrix is %dx%d, expected %dx%d"
            % (what, M.rows, M.cols, rows, cols)
        )
    for i in range(M.rows):
        for j in range(M.cols):
            if M.entry(i, j) not in _WEIGHTS:
                raise ValueError(
                    "%s weights must be -1, 0, 1 or I; found %s at (%d, %d)"
                    % (what, M.entry(i, j), i + 1, j + 1)
                )
    return M


class ConceptModel:
    """A fuzzy/neutrosophic cognitive map: concepts plus square weights."""

    __slots__ = ("concept_names", "weights", "default_clamp")

    def __init__(self, concept_names, weights, default_clamp=None):
        self.concept_names = _check_names(concept_names, "concept")
        n = len(self.concept_names)
        self.weights = _check_weights(weights, n, n, "concept model")
        if default_clamp is not None:
            default_clamp = frozenset(default_clamp)
            for i in default_clamp:
                if not 0 <= i < n:
                    raise ValueError("clamp index %r out of range" % (i,))
        self.default_clamp = default_clamp

    @property
    def size(self):
        return len(self.concept_names)

    def index(self, name):
        try:
            return self.concept_names.index(name)
        except ValueError:
            raise NotFoundError("unknown concept %r" % (name,)) from None

    def __eq__(self, other):
        if not isinstance(other, ConceptModel):
            return NotImplemented
        return (
            self.concept_names == other.concept_names
            and self.weights == other.weights
            and self.default_clamp == other.default_clamp
        )

    def __hash__(self):
        return hash((self.concept_names, self.weights, self.default_clamp))

    def __repr__(self):
        return "ConceptModel(%d concepts)" % (self.size,)


class RelationalModel:
    """A relational map: disjoint domain/range name sets, m x n weights."""

    __slots__ = ("domain_names", "range_names", "weights")

    def __init__(self, domain_names, range_names, weights):
        self.domain_names = _check_names(domain_names, "domain")
        self.range_names = _check_names(range_names, "range")
        if set(self.domain_names) & set(self.range_names):
            raise ValueError("domain and range name sets must be disjoint")
        self.weights = _check_weights(
            weights, len(self.domain_names), len(self.range_names),
            "relational model",
        )

    def index(self, name):
        if name in self.domain_names:
            return "domain", self.domain_names.index(name)
        if name in self.range_names:
            return "range", self.range_names.index(name)
        raise NotFoundError("unknown node %r" % (name,))

    def __eq__(self, other):
        if not isinstance(other, RelationalModel):
            return NotImplemented
        return (
            self.domain_names == other.domain_names
            and self.range_names == other.range_names
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.domain_names, self.range_names, self.weights))

    def __repr__(self):
        return "RelationalModel(%d x %d)" % (
            len(self.domain_names), len(self.range_names),
        )


@dataclass(frozen=True)
class HiddenPattern:
    kind: str  # "fixed-point" | "limit-cycle"
    states: tuple
    steps_to_enter: int


def threshold(raw):
    """Activation update rule: a > 0 -> 1; a = 0 with b > 0 -> I; else 0."""
    x = _as_nn(raw)
    if x.real > 0:
        return ONE
    if x.real == 0 and x.indet > 0:
        return I
    return ZERO


def _as_activation(value):
    x = _as_nn(value)
    if x not in _ACTIVATIONS:
        raise ValueError("state entries must be 0, 1 or I; found %s" % (x,))
    return x


def parse_state(text):
    return tuple(_as_activation(tok) for tok in text.split())


def render_state(state):
    return " ".join(str(x) for x in state)


def basis_state(n, on_indices):
    """The 0/1 vector with ones exactly at on_indices."""
    on = set(on_indices)
    for i in on:
        if not 0 <= i < n:
            raise ValueError("state index %r out of range" % (i,))
    return tuple(ONE if i in on else ZERO for i in range(n))


def _row_times(state, M):
    """state (len rows) times M -> vector of len cols."""
    return tuple(
        sum((state[i] * M.entry(i, j) for i in range(M.rows)), ZERO)
        for j in range(M.cols)
    )


def _clampfix(state, clamp):
    return tuple(ONE if i in clamp else x for i, x in enumerate(state))


def _resolve_clamp(s0, clamp, n):
    if clamp is None:
        return frozenset(i for i, x in enumerate(s0) if x != ZERO)
    clamp = frozenset(clamp)
    for i in clamp:
        if not 0 <= i < n:
            raise ValueError("clamp index %r out of range" % (i,))
    return clamp


def cm_run(model, s0, clamp=None):
    """Iterate s <- threshold(s * W) with clamped coordinates forced to 1.

    Stops at the first repeated state.  Returns (HiddenPattern, trajectory);
    the trajectory starts at the clamped s0 and ends with the state whose
    reappearance closed the fixed point or cycle.
    """
    n = model.size
    s = tuple(_as_activation(x) for x in s0)
    if len(s) != n:
        raise ShapeError(
            "state length %d does not match %d concepts" % (len(s), n)
        )
    if clamp is None and model.default_clamp is not None:
        clamp = model.default_clamp
    clamp = _resolve_clamp(s, clamp, n)

    state = _clampfix(s, clamp)
    trajectory = [state]
    seen = {state: 0}
    for _ in range(3**n + 1):
        state = _clampfix(
            tuple(threshold(x) for x in _row_times(state, model.weights)), clamp
        )
        trajectory.append(state)
        if state in seen:
            first = seen[state]
            if first == len(trajectory) - 2:
                pattern = HiddenPattern("fixed-point", (state,), first)
            else:
                pattern = HiddenPattern(
                    "limit-cycle", tuple(trajectory[first:-1]), first
                )
            return pattern, tuple(trajectory)
        seen[state] = len(trajectory) - 1
    raise AssertionError("state space exhausted without a repeat")


def degrade(model):
    """Replace every I weight by 0, yielding a plain FCM."""
    degraded = model.weights.map_entries(lambda x: ZERO if x == I else x)
    return ConceptModel(model.concept_names, degraded, model.default_clamp)


def _edge_sign(x):
    if x == ONE:
        return "+1"
    if x == MINUS_ONE:
        return "-1"
    if x == I:
        return "I"
    return None


def balance(model, guard=12):
    """Search directed simple paths for same-endpoint sign conflicts.

    A pair of paths between the same ordered endpoints conflicts when the
    signs differ — two determinate opposite signs, or one determinate sign
    against an indeterminate one.  Returns (balanced, witness) with witness
    ((u, v), (path1, sign1), (path2, sign2)) on imbalance.
    """
    n = model.size
    if n > guard:
        raise SizeLimitError(
            "balance guard: %d concepts exceeds %d" % (n, guard)
        )
    out = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            s = _edge_sign(model.weights.entry(i, j))
            if s is not None:
                out[i].append((j, s))

    witness = None

    def compose(s, t):
        if s == "I" or t == "I":
            return "I"
        return "+1" if s == t else "-1"

    for u in range(n):
        found = {}  # v -> {sign: path}

        def walk(v, path, sign):
            nonlocal witness
            if witness is not None:
                return
            signs = found.setdefault(v, {})
            if sign not in signs:
                for other_sign, other_path in signs.items():
                    witness = (
                        (u, v), (other_path, other_sign), (tuple(path), sign)
                    )
                    return
                signs[sign] = tuple(path)
            for w, es in out[v]:
                if w == u or w in path:
                    continue
                path.append(w)
                walk(w, path, compose(sign, es))
                path.pop()

        for w, es in out[u]:
            if witness is None:
                walk(w, [u, w], es)
        if witness is not None:
            return False, witness
    return True, None


@dataclass(frozen=True)
class RmResult:
    domain: HiddenPattern
    range: HiddenPattern
    trajectory: tuple  # of (domain state, range state) pairs


def rm_run(model, s0, side="domain", clamp=None):
    """Relational-map inference from one side.

    Starting on the domain: Y <- threshold(X * W), then X <- threshold(Y * W^T)
    with the originally-on domain coordinates clamped to 1; the range start is
    symmetric.  Stops when the (X, Y) pair repeats and reports one hidden
    pattern per side.
    """
    m, n = model.weights.rows, model.weights.cols
    if side not in ("domain", "range"):
        raise ValueError("side must be domain or range")
    start_len = m if side == "domain" else n
    s = tuple(_as_activation(x) for x in s0)
    if len(s) != start_len:
        raise ShapeError(
            "state length %d does not match the %s side (%d)"
            % (len(s), side, start_len)
        )
    clamp = _resolve_clamp(s, clamp, start_len)
    # A is the start side, B the other; M maps A to B and MT maps back.
    W, WT = model.weights, model.weights.transpose()
    M, MT = (W, WT) if side == "domain" else (WT, W)
    A = _clampfix(s, clamp)
    B = tuple(ZERO for _ in range(M.cols))
    pair = (A, B) if side == "domain" else (B, A)
    trajectory = [pair]
    seen = {pair: 0}
    for _ in range(3 ** (m + n) + 1):
        B = tuple(threshold(x) for x in _row_times(A, M))
        A = _clampfix(tuple(threshold(x) for x in _row_times(B, MT)), clamp)
        pair = (A, B) if side == "domain" else (B, A)
        trajectory.append(pair)
        if pair in seen:
            first = seen[pair]
            cycle = trajectory[first:-1]
            return RmResult(
                _project_pattern([p[0] for p in cycle], first),
                _project_pattern([p[1] for p in cycle], first),
                tuple(trajectory),
            )
        seen[pair] = len(trajectory) - 1
    raise AssertionError("pair space exhausted without a repeat")


def _project_pattern(states, first):
    if len(set(states)) == 1:
        return HiddenPattern("fixed-point", (states[0],), first)
    return HiddenPattern("limit-cycle", tuple(states), first)


def link(chain):
    """Fold a chain of relational weight matrices into one connection matrix.

    Adjacent matrices multiply directly when shapes conform; otherwise a
    shared first space (equal row counts) links them through the transpose,
    so a 7x4 map followed by a 7x5 map yields a 4x5 result.  Returns
    (raw product, entrywise sign threshold).
    """
    mats = list(chain)
    if not mats:
        raise ValueError("link needs at least one matrix")
    shapes = " ".join("%dx%d" % (M.rows, M.cols) for M in mats)
    acc = mats[0]
    for B in mats[1:]:
        if acc.cols == B.rows:
            acc = acc * B
        elif acc.rows == B.rows:
            acc = acc.transpose() * B
        else:
            raise ShapeError("link chain not conformable: %s" % (shapes,))
    signed = acc.map_entries(_sign_threshold)
    return acc, signed


def _sign_threshold(x):
    if x.real > 0:
        return ONE
    if x.real < 0:
        return MINUS_ONE
    if x.indet != 0:
        return I
    return ZERO


def frm_convertible(model):
    """Can this concept model be recast as a relational map?

    True iff the support of the weight matrix, read as an undirected graph,
    is bipartite; returns the bipartition (a candidate domain/range split)
    or an odd-cycle obstruction.
    """
    n = model.size
    edges = set()
    loops = False
    for i in range(n):
        for j in range(n):
            if model.weights.entry(i, j) != ZERO:
                if i == j:
                    loops = True
                    edges.add((i, i))
                else:
                    edges.add((i, j) if i < j else (j, i))
    support = graphs.Graph(n, edges, allow_loops=loops)
    return graphs.is_bipartite(support)
