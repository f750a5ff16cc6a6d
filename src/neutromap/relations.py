"""Fuzzy and neutrosophic binary relations as membership matrices.

Entries live in [0,1] union {n*I : n in (0,1]} with exact rational
magnitudes.  Mixed real/indeterminate min and max follow one documented
convention: zero annihilates min, indeterminacy otherwise propagates
through min, and max picks the larger magnitude with ties broken toward
the real value.  Property predicates are three-valued: a threshold
comparison against an indeterminate entry makes that clause indeterminate.

Composition, closure, transitivity, joins and `dom_ran_height` run on
integer rank codes (`_encode`), whose integer order is lattice_max's order
and whose bitwise AND is lattice_min, so a max-min product is `max` over `&`
of Python integers and a row's lattice_max is its largest code.  Each
relation encodes its grades once, on first use, and keeps the codes; an
operation on relations with different magnitudes remaps them onto the joint
ranks (`_rank_codes`), and results are decoded once, back to the exact
Fraction-valued grades.  A product whose outer dimensions are both at least
10 and whose rank count is at most twice its inner dimension runs on level
masks instead (`_compose_codes`): one AND and one bit length per entry.
"""

from fractions import Fraction
from itertools import count
from operator import and_, lshift

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
        n, d = self.magnitude.numerator, self.magnitude.denominator
        return _render_number(0, 1, n, d) if self.indeterminate else _render_number(n, d, 0, 1)

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
    # the `_encode` of the grades: None until first use
    __slots__ = ("row_labels", "col_labels", "values", "_codes")

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
        self._codes = None

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

    def _encoding(self):
        """The `_encode` of the grades, built on first use."""
        if self._codes is None:
            self._codes = _encode(self.values)
        return self._codes

    def _key(self):
        return self.row_labels, self.col_labels, self.values

    def __reduce__(self):  # the codes are rebuilt on use, not carried
        return FuzzyNeutroRelation, (self.row_labels, self.col_labels, self.values)

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


def _ones(k):
    """The code of an indeterminate grade of rank k; the real grade's is one more."""
    return ((1 << k) - 1) << 1


def _decoder(magnitudes):
    """Code -> grade for zero and both variants of every ranked magnitude."""
    decode = {0: FZERO}
    for k, mag in enumerate(magnitudes, 1):
        decode[_ones(k) | 1] = FuzzyNeutroValue(mag)
        decode[_ones(k)] = FuzzyNeutroValue(mag, True)
    return decode


def _encode(grid):
    """Integer codes for a grid of grades: (magnitudes, codes, decode).

    `magnitudes` are the distinct nonzero magnitudes, ascending.  Zero is
    coded 0, and a grade whose magnitude has rank k among them is coded
    `_ones(k)`, k one-bits shifted left once, plus 1 when it is real.  Codes
    order like lattice_max (magnitude first, then real over indeterminate);
    the AND of two codes keeps the shorter run of ones, and the real bit only
    when both grades are real, which is lattice_min, zero annihilation
    included.  `codes` is a tuple of row tuples, and `decode` is `_decoder`.
    """
    keys = {_magnitude_key(v) for row in grid for v in row} - {(0, 1)}
    magnitudes = tuple(sorted(Fraction(*p) for p in keys))
    by_mag = {(0, 1): (0, 0)}
    for k, mag in enumerate(magnitudes, 1):
        by_mag[mag.numerator, mag.denominator] = (_ones(k) | 1, _ones(k))  # by the flag
    codes = tuple(
        tuple(by_mag[_magnitude_key(v)][v.indeterminate] for v in row) for row in grid
    )
    return magnitudes, codes, _decoder(magnitudes)


def _rank_codes(*relations):
    """The code matrices of `relations` on their joint ranks, and decode.

    Each relation's own codes serve as they are when every operand has the
    same magnitudes; otherwise each is remapped onto the ranks of the union.
    """
    encodings = [R._encoding() for R in relations]
    magnitudes, _, decode = encodings[0]
    if all(own == magnitudes for own, _, _ in encodings):
        return [codes for _, codes, _ in encodings], decode
    magnitudes = sorted(set().union(*(own for own, _, _ in encodings)))
    rank = {mag: k for k, mag in enumerate(magnitudes, 1)}
    remapped = []
    for own, codes, _ in encodings:
        remap = {0: 0}
        for k, mag in enumerate(own, 1):
            to = _ones(rank[mag])
            remap[_ones(k)], remap[_ones(k) | 1] = to, to | 1
        remapped.append([list(map(remap.__getitem__, row)) for row in codes])
    return remapped, _decoder(magnitudes)


def _compose_codes(P, Q, decode):
    """Max-min product of two code matrices: max over t of p_it & q_tj.

    `decode` is the one of `_rank_codes`, whose 2d + 1 codes bound the ranks
    at d.  Small products (an outer dimension below 10) and many ranks (d
    above twice the inner dimension k) take `max(map(and_, row, col))` per
    entry.  Otherwise each row of P and column of Q becomes one integer of 2d
    blocks of k bits: bit t of block 2L - 2 is set when the t-th code has
    rank at least L, and bit t of block 2L - 1 when it is moreover real.
    p & q has rank min(Lp, Lq) and real bit rp & rq, and integers order codes
    by rank, then by the real bit, so the entry's code is the one of the
    highest block in which the row's and the column's masks meet: it is
    read off the bit length of their AND.
    """
    k, levels = len(Q), len(decode) // 2
    if min(len(P), len(Q[0])) < 10 or levels > 2 * k:
        cols = list(zip(*Q))
        return [[max(map(and_, row, col)) for col in cols] for row in P]
    spread, by_length, masks = {0: 0}, [0], 0
    for L in range(1, levels + 1):
        masks |= 1 << (2 * L - 2) * k
        spread[_ones(L)], spread[_ones(L) | 1] = masks, masks | masks << k
        by_length += [_ones(L)] * k + [_ones(L) | 1] * k
    rows = [sum(map(lshift, map(spread.__getitem__, row), count())) for row in P]
    cols = [sum(map(lshift, map(spread.__getitem__, col), count())) for col in zip(*Q)]
    code = by_length.__getitem__
    return [list(map(code, map(int.bit_length, map(a.__and__, cols)))) for a in rows]


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
    out = _compose_codes(Pc, Qc, decode)
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

    (codes,), decode = _rank_codes(R)
    pairs = [
        (r, c)
        for rrow, crow in zip(codes, _compose_codes(codes, codes, decode))
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
    # lists like each round's result: a list never equals a tuple, and the
    # fixpoint test below must be able to hold on the first round
    codes = [list(row) for row in codes]
    # Each round takes the entrywise max with the previous codes, so no
    # entry's code ever decreases, and every code stays among the 2d+1
    # codes of R's d magnitudes (AND and max of codes are such codes).
    # A round that changes the relation raises some entry, so the loop
    # ends after at most 2d*n*n + 1 rounds.
    while True:
        composed = _compose_codes(codes, codes, decode)
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
