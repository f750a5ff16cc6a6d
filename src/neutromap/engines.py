"""Cognitive-map inference engines.

Concept models (FCM/NCM) iterate a state vector against a square weight
matrix through a threshold; relational models (FRM/NRM) bounce a vector
between a domain side and a range side through the matrix and its
transpose.  A step is integer dot products against the split of W's
columns (and rows) that W builds once and shares with `core.nm_mul`, and
one sign rule.  Both
engines share one loop that stops at the first repeated state and report
the hidden pattern: a fixed point or a limit cycle.

All weights are restricted to {-1, 0, 1, I}; activations live in {0, 1, I}.
"""

from operator import mul

from .core import (
    I,
    MINUS_ONE,
    NeutroMatrix,
    NotFoundError,
    ONE,
    ShapeError,
    ZERO,
    _ACTIVATIONS,
    _Record,
    _SIGN_LABELS,
    _Value,
    _WEIGHTS,
    _as_nn,
    _check_entries,
    _check_guard,
    _entry_error,
    _split,
)


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
        raise ShapeError("%s weight matrix is %dx%d, expected %dx%d"
                         % (what, M.rows, M.cols, rows, cols))
    _check_entries(M, _WEIGHTS, what + " weights")
    return M


class ConceptModel(_Value):
    """A fuzzy/neutrosophic cognitive map: concepts plus square weights."""

    __slots__ = ("concept_names", "weights", "default_clamp")

    def __init__(self, concept_names, weights, default_clamp=None):
        self.concept_names = _check_names(concept_names, "concept")
        n = len(self.concept_names)
        self.weights = _check_weights(weights, n, n, "concept model")
        self.default_clamp = (None if default_clamp is None
                              else _resolve_clamp(None, default_clamp, n))

    @property
    def size(self):
        return len(self.concept_names)

    def index(self, name):
        try:
            return self.concept_names.index(name)
        except ValueError:
            raise NotFoundError("unknown concept %r" % (name,)) from None

    def _key(self):
        return self.concept_names, self.weights, self.default_clamp

    def __repr__(self):
        return "ConceptModel(%d concepts)" % (self.size,)


class RelationalModel(_Value):
    """A relational map: disjoint domain/range name sets, m x n weights."""

    __slots__ = ("domain_names", "range_names", "weights")

    def __init__(self, domain_names, range_names, weights):
        self.domain_names = _check_names(domain_names, "domain")
        self.range_names = _check_names(range_names, "range")
        if set(self.domain_names) & set(self.range_names):
            raise ValueError("domain and range name sets must be disjoint")
        self.weights = _check_weights(weights, len(self.domain_names), len(self.range_names),
                                      "relational model")

    def index(self, name):
        if name in self.domain_names:
            return "domain", self.domain_names.index(name)
        if name in self.range_names:
            return "range", self.range_names.index(name)
        raise NotFoundError("unknown node %r" % (name,))

    def _key(self):
        return self.domain_names, self.range_names, self.weights

    def __repr__(self):
        return "RelationalModel(%d x %d)" % (len(self.domain_names), len(self.range_names))


class HiddenPattern(_Record):
    # kind is "fixed-point" or "limit-cycle"
    __slots__ = ("kind", "states", "steps_to_enter")


def _sign_rule(first, second):
    """The activation of a+bI from its split (a, a+b), or any positive multiple."""
    if first > 0:
        return ONE
    if first == 0 and second > 0:
        return I
    return ZERO


def threshold(raw):
    """Activation update rule: a > 0 -> 1; a = 0 with b > 0 -> I; else 0."""
    x = _as_nn(raw)
    return _sign_rule(x.real, x.real + x.indet)


def _as_activation(value):
    x = _as_nn(value)
    if x not in _ACTIVATIONS:
        raise _entry_error(x, _ACTIVATIONS, "state entries")
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


def _clampfix(state, clamp):
    return tuple(ONE if i in clamp else x for i, x in enumerate(state))


def _update(state, split, clamp):
    """threshold(state . v) per v of a weight split (scales > 0), clamp forced to 1."""
    (x1,), (x2,), _ = _split((state,))
    firsts, seconds, _ = split
    raw = ((sum(map(mul, x1, y1)), sum(map(mul, x2, y2))) for y1, y2 in zip(firsts, seconds))
    return _clampfix(tuple(_sign_rule(*pair) for pair in raw), clamp)


def _run(start, step):
    """(first visit of the repeated state, trajectory from start to its repeat)."""
    trajectory = [start]
    seen = {start: 0}
    # Ends by pigeonhole: a state (a pair for rm_run) holds k values in
    # {0, 1, I}, so one repeats within 3**k + 1 steps.
    while True:
        state = step(trajectory[-1])
        trajectory.append(state)
        if state in seen:
            return seen[state], tuple(trajectory)
        seen[state] = len(trajectory) - 1


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
    columns = model.weights._split_cols()
    first, trajectory = _run(
        _clampfix(s, clamp), lambda state: _update(state, columns, clamp)
    )
    return _project_pattern(trajectory[first:-1], first), trajectory


def degrade(model):
    """Replace every I weight by 0, yielding a plain FCM."""
    degraded = model.weights.map_entries(lambda x: ZERO if x == I else x)
    return ConceptModel(model.concept_names, degraded, model.default_clamp)


def balance(model):
    """Search directed simple paths for same-endpoint sign conflicts.

    A pair of paths between the same ordered endpoints conflicts when the
    signs differ — two determinate opposite signs, or one determinate sign
    against an indeterminate one.  Returns (balanced, witness) with witness
    ((u, v), (path1, sign1), (path2, sign2)) on imbalance, path1 the first
    from u to reach v.  Paths grow depth first on an explicit stack.
    """
    n = model.size
    _check_guard("balance", n)
    out = [
        [(j, _SIGN_LABELS[w]) for j, w in enumerate(row) if j != i and w]
        for i, row in enumerate(model.weights)
    ]
    plus, minus, indet = _SIGN_LABELS[ONE], _SIGN_LABELS[MINUS_ONE], _SIGN_LABELS[I]
    for u in range(n):
        first, path, stack = {}, [u], [(iter(out[u]), plus)]
        while stack:
            todo, sign = stack[-1]
            for w, es in todo:
                if w not in path:
                    path.append(w)
                    # the path's sign times its last edge's; I absorbs
                    sign = indet if indet in (sign, es) else plus if sign == es else minus
                    seen = first.get(w)  # (path, sign) of the first path to reach w
                    if seen is None:
                        first[w] = (tuple(path), sign)
                    elif seen[1] != sign:
                        return False, ((u, w), seen, (tuple(path), sign))
                    stack.append((iter(out[w]), sign))
                    break
            else:
                stack.pop()
                path.pop()
    return True, None


class RmResult(_Record):
    # two HiddenPatterns, and the (domain state, range state) pairs
    __slots__ = ("domain", "range", "trajectory")


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
    # The columns of W map the domain to the range; its rows map back.
    columns, rows = model.weights._split_cols(), model.weights._split_rows()
    there, back = (columns, rows) if side == "domain" else (rows, columns)

    def step(pair):
        B = _update(pair[0], there, ())
        return _update(B, back, clamp), B

    first, trajectory = _run((_clampfix(s, clamp), (ZERO,) * len(there[0])), step)
    if side == "range":
        trajectory = tuple((X, Y) for Y, X in trajectory)
    cycle = trajectory[first:-1]
    return RmResult(
        _project_pattern([p[0] for p in cycle], first),
        _project_pattern([p[1] for p in cycle], first),
        trajectory,
    )


def _project_pattern(states, first):
    if len(set(states)) == 1:
        return HiddenPattern("fixed-point", (states[0],), first)
    return HiddenPattern("limit-cycle", tuple(states), first)


def link(chain):
    """Fold a chain of relational weight matrices into one connection matrix.

    Adjacent matrices multiply directly when shapes conform; otherwise a
    shared first space (equal row counts) links them through the transpose,
    so a 7x4 map followed by a 7x5 map yields a 4x5 result.  Returns
    (raw product, entrywise sign threshold), the signs read from the integers
    of its scaled form (a lone matrix's row split), whose scales are positive.
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
    F, G = (acc._form or acc._split_rows())[:2]
    signed = NeutroMatrix._of(tuple(
        tuple([ONE if f > 0 else MINUS_ONE if f else I if g else ZERO for f, g in zip(fs, gs)])
        for fs, gs in zip(F, G)))
    return acc, signed


def frm_convertible(model):
    """Can this concept model be recast as a relational map?

    True iff the support of the weight matrix, read as an undirected graph,
    is bipartite; returns the bipartition (a candidate domain/range split)
    or an odd-cycle obstruction.
    """
    from . import graphs

    edges = {
        (min(i, j), max(i, j))
        for i, row in enumerate(model.weights)
        for j, w in enumerate(row)
        if w
    }
    support = graphs.Graph(model.size, edges, allow_loops=True)
    return graphs.is_bipartite(support)
