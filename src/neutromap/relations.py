"""Fuzzy and neutrosophic binary relations as membership matrices.

Entries live in [0,1] union {n*I : n in (0,1]} with exact rational
magnitudes.  Mixed real/indeterminate min and max follow one documented
convention: zero annihilates min, indeterminacy otherwise propagates
through min, and max picks the larger magnitude with ties broken toward
the real value.  Property predicates are three-valued: a threshold
comparison against an indeterminate entry makes that clause indeterminate.

Composition, closure, transitivity, joins and `dom_ran_height` run on
integer rank codes (`_rank_codes`), whose integer order is lattice_max's
order and whose bitwise AND is lattice_min, so a max-min product is `max`
over `&` of Python integers and a row's lattice_max is its largest code.
Grades are encoded once and results decoded once, back to the exact
Fraction-valued grades.
"""

from fractions import Fraction
from operator import and_

from .core import (
    NotFoundError,
    ParseError,
    ShapeError,
    _Record,
    _Value,
    _render_number,
    parse_number,
)


class _Indeterminate:
    """The middle truth value of the three-valued property reports."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "indeterminate"

    def __bool__(self):
        raise TypeError("indeterminate truth value; test with `is INDETERMINATE`")


INDETERMINATE = _Indeterminate()


def tri_all(values):
    """Three-valued conjunction: any False wins, then any indeterminate."""
    saw_indet = False
    for v in values:
        if v is INDETERMINATE:
            saw_indet = True
        elif not v:
            return False
    return INDETERMINATE if saw_indet else True


def _tri_not(v):
    if v is INDETERMINATE:
        return INDETERMINATE
    return not v


class FuzzyNeutroValue(_Value):
    """A membership grade: magnitude in [0,1], optionally indeterminate.

    The value is magnitude when the flag is off and magnitude*I when on;
    0*I normalizes to the real 0, and the bare symbol I is magnitude 1
    with the flag on.
    """

    __slots__ = ("magnitude", "indeterminate")

    def __init__(self, magnitude, indeterminate=False):
        mag = Fraction(magnitude)
        if not 0 <= mag <= 1:
            raise ValueError("membership magnitude %s outside [0, 1]" % (mag,))
        if mag == 0:
            indeterminate = False
        self.magnitude = mag
        self.indeterminate = bool(indeterminate)

    @classmethod
    def parse(cls, token):
        x = parse_number(token)
        if x.real != 0 and x.indet != 0:
            raise ParseError(
                "membership values cannot mix real and indeterminate parts: %r"
                % (token,)
            )
        try:
            if x.indet != 0:
                return cls(x.indet, True)
            return cls(x.real)
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    def _key(self):
        return self.magnitude, self.indeterminate

    def __str__(self):
        mag = self.magnitude
        return _render_number(0, mag) if self.indeterminate else _render_number(mag, 0)

    def __repr__(self):
        return "FuzzyNeutroValue(%s)" % (self,)


FZERO = FuzzyNeutroValue(0)
FONE = FuzzyNeutroValue(1)
FI = FuzzyNeutroValue(1, True)


def lattice_min(x, y):
    if x.magnitude == 0 or y.magnitude == 0:
        return FZERO
    mag = min(x.magnitude, y.magnitude)
    return FuzzyNeutroValue(mag, x.indeterminate or y.indeterminate)


def lattice_max(x, y):
    if x.magnitude != y.magnitude:
        return x if x.magnitude > y.magnitude else y
    return FuzzyNeutroValue(x.magnitude, x.indeterminate and y.indeterminate)


class FuzzyNeutroRelation(_Value):
    __slots__ = ("row_labels", "col_labels", "values")

    def __init__(self, row_labels, col_labels, values):
        row_labels = tuple(row_labels)
        col_labels = tuple(col_labels)
        if not row_labels or not col_labels:
            raise ShapeError("relation needs at least one row and one column")
        for what, labels in (("row", row_labels), ("column", col_labels)):
            if len(set(labels)) != len(labels):
                raise ValueError("duplicate %s labels" % (what,))
            for label in labels:
                # one unpadded line, no separator, not a comment: a model file gives it back
                if (not isinstance(label, str) or label.splitlines() != [label]
                        or label != label.strip() or "," in label or label.startswith("#")):
                    raise ValueError("bad %s label %r" % (what, label))
        rows = tuple(tuple(row) for row in values)
        if len(rows) != len(row_labels) or any(
            len(r) != len(col_labels) for r in rows
        ):
            raise ShapeError(
                "value grid does not match %d x %d labels"
                % (len(row_labels), len(col_labels))
            )
        for r in rows:
            for v in r:
                if not isinstance(v, FuzzyNeutroValue):
                    raise TypeError("relation entries must be FuzzyNeutroValue")
        self.row_labels = row_labels
        self.col_labels = col_labels
        self.values = rows

    @classmethod
    def from_tokens(cls, rows, row_labels=None, col_labels=None):
        """Build from token strings (or ready values); labels default x_i/y_j."""
        grid = [
            [
                v if isinstance(v, FuzzyNeutroValue) else FuzzyNeutroValue.parse(v)
                for v in row
            ]
            for row in rows
        ]
        if row_labels is None:
            row_labels = ["x%d" % (i + 1) for i in range(len(grid))]
        if col_labels is None:
            width = len(grid[0]) if grid else 0
            col_labels = ["y%d" % (j + 1) for j in range(width)]
        return cls(row_labels, col_labels, grid)

    @property
    def shape(self):
        return len(self.row_labels), len(self.col_labels)

    def entry(self, i, j):
        return self.values[i][j]

    def value(self, row_label, col_label):
        try:
            i = self.row_labels.index(row_label)
        except ValueError:
            raise NotFoundError("unknown row label %r" % (row_label,)) from None
        try:
            j = self.col_labels.index(col_label)
        except ValueError:
            raise NotFoundError("unknown column label %r" % (col_label,)) from None
        return self.values[i][j]

    def is_square(self):
        return self.row_labels == self.col_labels

    def _key(self):
        return self.row_labels, self.col_labels, self.values

    def __repr__(self):
        return "FuzzyNeutroRelation(%d x %d)" % self.shape


class DomRanHeight(_Record):
    # height is a FuzzyNeutroValue
    __slots__ = ("domain", "range", "height")


def dom_ran_height(R):
    """Row-wise, column-wise and global lattice_max."""
    (codes,), decode = _rank_codes(R)
    dom, ran = _decoded([map(max, codes), map(max, zip(*codes))], decode)
    return DomRanHeight(tuple(dom), tuple(ran), decode[max(map(max, codes))])


def inverse(R):
    m, n = R.shape
    return FuzzyNeutroRelation(
        R.col_labels,
        R.row_labels,
        [[R.values[i][j] for i in range(m)] for j in range(n)],
    )


def _magnitude_key(v):
    # an integer pair: hashing the Fraction itself costs several times as much
    return v.magnitude.numerator, v.magnitude.denominator


def _rank_codes(*relations):
    """Integer codes for the grades of `relations`: (code matrices, decode).

    Zero is coded 0.  A grade whose magnitude has rank k among the distinct
    nonzero magnitudes is coded ((1 << k) - 1) << 1, plus 1 when it is real.
    Codes order like lattice_max (magnitude first, then real over
    indeterminate); the AND of two codes keeps the shorter run of ones, and
    the real bit only when both grades are real, which is lattice_min, zero
    annihilation included.  `decode` maps the codes of both variants of
    every magnitude back to grades.
    """
    grids = [R.values for R in relations]
    keys = {_magnitude_key(v) for g in grids for row in g for v in row} - {(0, 1)}
    by_mag, decode = {(0, 1): (0, 0)}, {0: FZERO}
    for k, (num, den) in enumerate(sorted(keys, key=lambda p: Fraction(*p)), 1):
        ones = ((1 << k) - 1) << 1
        by_mag[num, den] = (ones | 1, ones)  # indexed by the indeterminate flag
        decode[ones | 1] = FuzzyNeutroValue(Fraction(num, den))
        decode[ones] = FuzzyNeutroValue(Fraction(num, den), True)
    codes = [
        [[by_mag[_magnitude_key(v)][v.indeterminate] for v in row] for row in g]
        for g in grids
    ]
    return codes, decode


def _compose_codes(P, Q):
    """Max-min product of two code matrices: max over t of p_it & q_tj."""
    cols = list(zip(*Q))
    return [[max(map(and_, row, col)) for col in cols] for row in P]


def _decoded(rows, decode):
    return [[decode[c] for c in row] for row in rows]


def maxmin_compose(P, Q):
    """r_ij = max_k min(p_ik, q_kj) under the lattice operations."""
    if P.col_labels != Q.row_labels:
        raise ShapeError(
            "compose needs matching middle labels: %d cols %r vs %d rows %r"
            % (len(P.col_labels), list(P.col_labels),
               len(Q.row_labels), list(Q.row_labels))
        )
    (Pc, Qc), decode = _rank_codes(P, Q)
    out = _compose_codes(Pc, Qc)
    return FuzzyNeutroRelation(P.row_labels, Q.col_labels, _decoded(out, decode))


def relational_join(P, Q):
    """Dense triple table (x, y, z) -> min(P(x,y), Q(y,z))."""
    if P.col_labels != Q.row_labels:
        raise ShapeError(
            "join needs matching middle labels: %r vs %r"
            % (list(P.col_labels), list(Q.row_labels))
        )
    (Pc, Qc), decode = _rank_codes(P, Q)
    table = {}
    for x, prow in zip(P.row_labels, Pc):
        for y, p, qrow in zip(P.col_labels, prow, Qc):
            for z, q in zip(Q.col_labels, qrow):
                table[(x, y, z)] = decode[p & q]
    return table


def _positive(v):
    """Three-valued `v > 0`."""
    if v.magnitude == 0:
        return False
    if v.indeterminate:
        return INDETERMINATE
    return True


def _at_least(v, threshold):
    """Three-valued `v >= threshold` for a real rational threshold."""
    if v.indeterminate:
        return INDETERMINATE
    return v.magnitude >= threshold


class PropertyReport(_Record):
    __slots__ = (
        "reflexive", "epsilon_reflexive", "irreflexive", "anti_reflexive",
        "symmetric", "asymmetric", "antisymmetric", "transitive",
        "anti_transitive", "compatibility", "partial_order",
    )


def properties(R, epsilon=Fraction(1, 2)):
    """Three-valued property report over a square relation.

    Equality-style predicates (reflexive, symmetric, ...) compare entries
    syntactically.  Transitivity uses the total order induced by
    lattice_max.  Only threshold comparisons (>= epsilon, > 0) against
    indeterminate entries render a clause — and possibly the property —
    indeterminate.
    """
    m, n = R.shape
    if m != n:
        raise ShapeError("property report needs a square relation (%d x %d)" % (m, n))
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must satisfy 0 < epsilon < 1")
    V = R.values
    diag = [V[i][i] for i in range(n)]

    reflexive = all(v == FONE for v in diag)
    eps_reflexive = tri_all(_at_least(v, epsilon) for v in diag)
    irreflexive = all(v == FZERO for v in diag)
    anti_reflexive = all(v != FONE for v in diag)
    symmetric = all(
        V[i][j] == V[j][i] for i in range(n) for j in range(i + 1, n)
    )
    asymmetric = not symmetric

    antisymmetric = tri_all(
        _tri_not(tri_all([_positive(V[i][j]), _positive(V[j][i])]))
        for i in range(n)
        for j in range(n)
        if i != j
    )

    (codes,), _ = _rank_codes(R)
    pairs = [
        (r, c)
        for rrow, crow in zip(codes, _compose_codes(codes, codes))
        for r, c in zip(rrow, crow)
    ]
    transitive = all(c <= r for r, c in pairs)
    anti_transitive = all(r < c for r, c in pairs)

    compatibility = tri_all([reflexive, symmetric])
    partial_order = tri_all([reflexive, antisymmetric, transitive])
    return PropertyReport(
        reflexive,
        eps_reflexive,
        irreflexive,
        anti_reflexive,
        symmetric,
        asymmetric,
        antisymmetric,
        transitive,
        anti_transitive,
        compatibility,
        partial_order,
    )


def transitive_closure(R):
    """Smallest transitive relation dominating R (entrywise, lattice order).

    Iterates R <- elementwise-max(R, R o R) to its fixpoint.
    """
    m, n = R.shape
    if m != n:
        raise ShapeError("transitive closure needs a square relation")
    (codes,), decode = _rank_codes(R)
    # Each round takes the entrywise max with the previous codes, so no
    # entry's code ever decreases, and every code stays among the 2d+1
    # codes of R's d magnitudes (AND and max of codes are such codes).
    # A round that changes the relation raises some entry, so the loop
    # ends after at most 2d*n*n + 1 rounds.
    while True:
        composed = _compose_codes(codes, codes)
        merged = [list(map(max, row, crow)) for row, crow in zip(codes, composed)]
        if merged == codes:
            return FuzzyNeutroRelation(
                R.row_labels, R.col_labels, _decoded(codes, decode)
            )
        codes = merged


def check_homomorphism(h, R, Q, strong=False):
    """Check R(x1,x2) <= Q(h(x1), h(x2)) for all pairs (equality when strong).

    h maps R's labels into Q's.  Returns (holds, findings) where holds is
    three-valued and findings lists (x1, x2, status) for every pair whose
    clause is not definitely true.
    """
    if not R.is_square() or not Q.is_square():
        raise ShapeError("homomorphism check needs square relations")
    labels = R.row_labels
    for x in labels:
        if x not in h:
            raise ValueError("map is not total: missing %r" % (x,))
        if h[x] not in Q.row_labels:
            raise NotFoundError("map target %r not in codomain labels" % (h[x],))

    def le3(a, b):
        if a == b or a.magnitude == 0:
            return True
        if a.indeterminate or b.indeterminate:
            return INDETERMINATE
        return a.magnitude <= b.magnitude

    findings = []
    clauses = []
    for x1 in labels:
        for x2 in labels:
            r = R.value(x1, x2)
            q = Q.value(h[x1], h[x2])
            clause = le3(r, q)
            if strong:
                clause = tri_all([clause, le3(q, r)])
            clauses.append(clause)
            if clause is INDETERMINATE:
                findings.append((x1, x2, "indeterminate"))
            elif not clause:
                findings.append((x1, x2, "violated"))
    return tri_all(clauses), findings
