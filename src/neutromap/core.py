"""Exact arithmetic for neutrosophic numbers a + bI and matrices over them.

The indeterminate I satisfies I*I = I, so (a+bI)(c+dI) = ac + (ad+bc+bd)I.
All coefficients are exact rationals; there is no floating point anywhere in
this module.  The ring K(I) has zero divisors (I*(1-I) = 0), which is why
rank and invertibility go through the componentwise splitting isomorphism
a+bI -> (a, a+b) instead of direct elimination: each split component is
scaled to integers and ranked modulo a prime below 2**30; a full rank mod
p is exact, and any other component falls back to fraction-free (Bareiss)
elimination, which the spanning-tree count keeps for its determinant; so the
modular pass saves time on full-rank components and adds to rank-deficient ones.
Products use the same split, since it turns (a+bI)(c+dI) into the
componentwise product (ac, (a+b)(c+d)): each row of the left operand and
each column of the right one is scaled to integers by one lcm, and the two
components are multiplied with plain integer sums.  The product keeps that
scaled form (F, G, s, t), s the left rows' scales and t the right columns':
entry (i, j) splits to (F[i][j], G[i][j]) / (s[i]*t[j]).  Until the first
read builds its entries, its splits, transpose and text come from the
integers.  A product of at least 4 rows and columns and 48 entries, whose
integer dot products all fit signed fields of at most 8 bytes, is packed
(Kronecker substitution): each row of the right operand becomes one big
integer with a field per output column, so an output row is one big-integer
dot product cut into its fields.  A matrix splits its rows and its columns
once, on first use, for every product, rank and map run; its transpose
carries the splits already built, swapped.

The paper's fixed value sets live here too, with their one entry check
and one sign-label table: map weights in {-1, 0, 1, I}, and activations
and neutrosophic adjacency entries in {0, 1, I}.  So do the desk-scale
size guards of every layer: `_GUARDS` maps each name to its limit and unit.
"""

import math
import re
import sys
from array import array
from fractions import Fraction
from itertools import chain
from operator import add, attrgetter, lshift, mul


class ShapeError(ValueError):
    """Operand shapes or labels do not conform."""


class ParseError(ValueError):
    """Malformed token, matrix or model file."""


class SizeLimitError(ValueError):
    """Input exceeds a documented desk-scale guard."""


class NotFoundError(LookupError):
    """A referenced name, vertex or edge does not exist."""


# a fraction's denominator needs a nonzero digit, so "1/0" is a bad token
_NUM = r"(?:\d+\.\d+|\.\d+|\d+/0*[1-9]\d*|\d+)"
_TOKEN_RE = re.compile(
    "(?:(?P<ra>[+-]?{n})(?P<ib>[+-](?:{n})?)I"
    "|(?P<ionly>[+-]?(?:{n})?)I"
    "|(?P<ronly>[+-]?{n})"
    ")".format(n=_NUM)
)


def _render_fraction(num, den):
    if den == 1:
        return str(num)
    rest, twos, fives = den, 0, 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest == 1:
        k = max(twos, fives)
        scaled = abs(num) * (10 ** k // den)
        digits = str(scaled).rjust(k + 1, "0")
        sign = "-" if num < 0 else ""
        return sign + digits[:-k] + "." + digits[-k:]
    return "%d/%d" % (num, den)


def _render_number(an, ad, bn, bd):
    """an/ad + (bn/bd)I as text, from reduced parts with positive denominators; as
    `_rational` reads it, a coefficient of +-1 is its sign alone."""
    if not bn:
        return _render_fraction(an, ad)
    if bd == 1 and bn in (1, -1):
        tail = "I" if bn == 1 else "-I"
    else:
        tail = _render_fraction(bn, bd) + "I"
    if not an:
        return tail
    return _render_fraction(an, ad) + ("" if tail[0] == "-" else "+") + tail


def _render_scaled(f, g, d):
    """The `_render_number` of the split (f, g) / d, each part reduced by one gcd."""
    p, q = math.gcd(f, d), math.gcd(g - f, d)
    return _render_number(f // p, d // p, (g - f) // q, d // q)


def _coerce_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):  # one signed number of the token grammar
        m = _TOKEN_RE.fullmatch(x)
        if not m or m["ronly"] is None:
            raise ParseError("bad number %r" % (x,))
        return _rational(x)
    raise TypeError("expected a rational, got %r" % (x,))


class _Value:
    """Equality and hash by `_key()`, the identity fields a subclass returns;
    against an instance of another class `__eq__` answers NotImplemented."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class _Record(_Value):
    """An immutable record whose fields are its `__slots__`, in order (at
    least two): built by position or keyword, keyed by the field tuple,
    printed as ``Name(field=value, ...)``, pickled through its constructor."""

    __slots__ = ()

    def __init_subclass__(cls):
        if len(cls.__slots__) < 2:
            raise TypeError("a record needs at least two fields")
        cls._get_fields = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):  # all by position is the fast path
            values = dict(zip(fields, args), **kwargs)
            if len(values) != len(args) + len(kwargs) or values.keys() != set(fields):
                raise TypeError("%s takes the fields %s" % (type(self).__name__, ", ".join(fields)))
            args = map(values.get, fields)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def _key(self):
        return self._get_fields(self)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self.__slots__, self._key())))

    def __setattr__(self, name, *value):
        raise AttributeError("cannot assign to field %r" % name)

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._key()


class NeutroNumber:
    """An exact neutrosophic scalar a + bI.

    Construct from parts (``NeutroNumber(2, -6)``), from a single rational,
    or from a token string (``NeutroNumber("2-6I")``).
    """

    __slots__ = ("real", "indet")

    def __init__(self, real=0, indet=0):
        if isinstance(real, str):
            if indet != 0:
                raise TypeError("token form takes no second argument")
            parsed = parse_number(real)
            self.real, self.indet = parsed.real, parsed.indet
            return
        self.real = _coerce_fraction(real)
        self.indet = _coerce_fraction(indet)

    def __add__(self, other):
        other = _as_nn(other)
        return NeutroNumber(self.real + other.real, self.indet + other.indet)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_nn(other)
        return NeutroNumber(self.real - other.real, self.indet - other.indet)

    def __rsub__(self, other):
        return _as_nn(other) - self

    def __neg__(self):
        return NeutroNumber(-self.real, -self.indet)

    def __mul__(self, other):
        other = _as_nn(other)
        a, b = self.real, self.indet
        c, d = other.real, other.indet
        return NeutroNumber(a * c, a * d + b * c + b * d)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, NeutroNumber):
            return self.real == other.real and self.indet == other.indet
        if isinstance(other, (int, Fraction)):
            return not self.indet and self.real == other
        return NotImplemented

    def __hash__(self):
        if self.indet == 0:
            return hash(self.real)
        return hash((self.real, self.indet))

    def __bool__(self):
        return bool(self.real or self.indet)

    def __str__(self):
        a, b = self.real, self.indet
        return _render_number(a.numerator, a.denominator, b.numerator, b.denominator)

    def __repr__(self):
        return "NeutroNumber('%s')" % (self,)


_new = object.__new__


def _exact(real, indet):
    """The NeutroNumber real + indet*I from two Fractions, taken unchecked."""
    x = _new(NeutroNumber)
    x.real, x.indet = real, indet
    return x


def _as_nn(x):
    if isinstance(x, NeutroNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return NeutroNumber(x)
    if isinstance(x, str):
        return parse_number(x)
    raise TypeError("cannot treat %r as a neutrosophic number" % (x,))


ZERO = NeutroNumber(0)
ONE = NeutroNumber(1)
I = NeutroNumber(0, 1)
MINUS_ONE = -ONE
# the paper's value sets, real values ascending and then I: map weights, and
# activations, which are also the entries of a neutrosophic adjacency matrix
_WEIGHTS = (MINUS_ONE, ZERO, ONE, I)
_ACTIVATIONS = (ZERO, ONE, I)
# the label of a nonzero weight on a signed arc or path
_SIGN_LABELS = {MINUS_ONE: "-1", ONE: "+1", I: "I"}


def _entry_error(x, allowed, what, where=""):
    """The error for a value x outside `allowed`, one of the value sets above."""
    return ValueError("%s must be %s or I; found %s%s" % (
        what, ", ".join(map(str, allowed[:-1])), x, where))


def _check_entries(M, allowed, what):
    """Raise `_entry_error` at the first entry of M, row by row, not in `allowed`."""
    for i, row in enumerate(M, 1):
        for j, x in enumerate(row, 1):
            if x not in allowed:
                raise _entry_error(x, allowed, what, " at (%d, %d)" % (i, j))


def nn_add(x, y):
    return _as_nn(x) + _as_nn(y)


def nn_mul(x, y):
    return _as_nn(x) * _as_nn(y)


def _rational(text):
    """The exact Fraction of a signed `_NUM`, built from its integer digits;
    as a coefficient of I, nothing or a bare sign means +-1."""
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    whole, dot, frac = text.partition(".")
    if dot:
        return Fraction(int(whole + frac), 10 ** len(frac))
    return Fraction(int(text + "1" if text in ("", "+", "-") else text))


class _Numbers(dict):
    """Number text -> its `_rational` value, each text parsed once per parse."""

    def __missing__(self, text):
        value = self[text] = _rational(text)
        return value


_FRACTION_ZERO = Fraction(0)


def _parse_token(token, numbers):
    """The NeutroNumber of a value token, its number texts read through `numbers`."""
    m = _TOKEN_RE.fullmatch(token.strip())
    if not m:
        raise ParseError("bad value token %r" % (token,))
    ra, ib, ionly, ronly = m.groups()
    if ronly is not None:
        return _exact(numbers[ronly], _FRACTION_ZERO)
    if ionly is not None:
        return _exact(_FRACTION_ZERO, numbers[ionly])
    return _exact(numbers[ra], numbers[ib])


def parse_number(token):
    """Parse a token like '2', '-I', '0.5I', '-1+4I', '1/3-2I'."""
    return _parse_token(token, _Numbers())


class SplitPair(_Record):
    """Componentwise image of a+bI under the isomorphism x -> (a, a+b)."""

    __slots__ = ("first", "second")


def split(x):
    x = _as_nn(x)
    return SplitPair(x.real, x.real + x.indet)


def unsplit(p):
    return NeutroNumber(p.first, p.second - p.first)


def _split(vectors):
    """The integer split (firsts, seconds, scales) of a+bI vectors, in tuples that
    readers share: firsts[i] and seconds[i] are vector i's components (a...) and
    (a+b...) times scales[i], the lcm of all its denominators, which keeps the rank."""
    firsts, seconds, scales = [], [], []
    for v in vectors:
        parts = [x.real for x in v] + [x.indet for x in v]
        scale = math.lcm(*[x.denominator for x in parts])
        ints = [x.numerator * (scale // x.denominator) for x in parts]
        k = len(v)
        firsts.append(tuple(ints[:k]))
        seconds.append(tuple(map(add, ints[:k], ints[k:])))
        scales.append(scale)
    return tuple(firsts), tuple(seconds), tuple(scales)


def _split_scaled(F, G, s, t):
    """The `_split` of the rows of the scaled form (F, G, s, t), from its integers:
    row i over the common denominator s[i] * lcm(t), divided by one gcd."""
    lcm = math.lcm(*t)
    up = [lcm // x for x in t]
    firsts, seconds, scales = [], [], []
    for fs, gs, si in zip(F, G, s):
        fs, gs = list(map(mul, fs, up)), list(map(mul, gs, up))
        d = math.gcd(si * lcm, *fs, *gs)
        firsts.append(tuple([x // d for x in fs]))
        seconds.append(tuple([x // d for x in gs]))
        scales.append(si * lcm // d)
    return tuple(firsts), tuple(seconds), tuple(scales)


class NeutroMatrix(_Value):
    """Dense rectangular matrix of NeutroNumbers (at least 1x1)."""

    # a product's scaled form (module docstring), else None; and the integer
    # splits of the rows and of the columns: None until first use
    __slots__ = ("rows", "cols", "_rows", "_form", "_row_split", "_col_split")

    def __init__(self, rows):
        self._set_rows(tuple(tuple(map(_as_nn, row)) for row in rows))

    @classmethod
    def _of(cls, rows):
        """The matrix of `rows`, a tuple of tuples of NeutroNumbers, kept as it is."""
        M = _new(cls)
        M._set_rows(rows)
        return M

    def _set_rows(self, data):
        if not data or not data[0]:
            raise ShapeError("a matrix needs at least one row and column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ShapeError("ragged matrix rows")
        self.rows = len(data)
        self.cols = width
        self._rows = data
        self._form = self._row_split = self._col_split = None

    @classmethod
    def _scaled(cls, form):
        """The matrix of the scaled form (F, G, s, t), its entries not yet built."""
        M = _new(cls)
        M.rows, M.cols, M._form = len(form[2]), len(form[3]), form
        M._row_split = M._col_split = None
        return M

    def __getattr__(self, name):  # only an unset slot gets here: a scaled form's entries
        if name != "_rows":
            return object.__getattribute__(self, name)
        (F, G, s, t), self._form = self._form, None  # later transposes share the entries
        self._rows = rows = tuple([
            tuple([_exact(Fraction(f, scale), Fraction(g - f, scale))
                   for f, g, scale in zip(fs, gs, map(si.__mul__, t))])
            for fs, gs, si in zip(F, G, s)])
        return rows

    @classmethod
    def identity(cls, n):
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def filled(cls, rows, cols, value=ZERO):
        return cls([[value] * cols for _ in range(rows)])

    def row(self, i):
        return self._rows[i]

    def entry(self, i, j):
        return self._rows[i][j]

    def __iter__(self):
        return iter(self._rows)

    def _split_rows(self):
        """The `_split` of the rows, built on first use, from the scaled form if any."""
        if self._row_split is None:
            self._row_split = _split_scaled(*self._form) if self._form else _split(self._rows)
        return self._row_split

    def _split_cols(self):
        """The `_split` of the columns, built on first use as the transpose's rows."""
        if self._col_split is None:
            self._col_split = self.transpose()._split_rows()
        return self._col_split

    def _key(self):
        return self._rows

    def __reduce__(self):  # the splits are rebuilt on use, not carried
        return NeutroMatrix, (self._rows,)

    def __mul__(self, other):
        return nm_mul(self, other)

    def transpose(self):
        """The transpose, carrying the splits already built, swapped; a scaled form swaps too."""
        if self._form is None:
            T = NeutroMatrix._of(tuple(zip(*self._rows)))
        else:
            F, G, s, t = self._form
            T = NeutroMatrix._scaled((tuple(zip(*F)), tuple(zip(*G)), t, s))
        T._row_split, T._col_split = self._col_split, self._row_split
        return T

    def map_entries(self, fn):
        return NeutroMatrix([[fn(e) for e in row] for row in self._rows])

    def __str__(self):
        return render_matrix(self)

    def __repr__(self):
        return "NeutroMatrix(%dx%d)" % (self.rows, self.cols)


# a product packs when its output has this many rows and columns and this many
# entries: there packing beats one sum per entry, whatever the inner dimension
_PACK_MIN_SIDE, _PACK_MIN_ENTRIES = 4, 48
# signed array type codes by item size in bytes: the widths a packed field can take
_FIELD_CODES = {array(code).itemsize: code for code in "bhilq"}


def _dot_products(rows, cols):
    """[[x . y for y in cols] for x in rows] for integer vectors of one length k.

    A product large enough to pack (above) whose every |x . y| < 2**(w-1) for
    a field of w <= 64 bits goes by Kronecker substitution: row t of cols is
    packed into sum_j cols[j][t] * 2**(w*j), so sum_t x[t] * packed[t] holds
    x . cols[j] in field j.  Adding 2**(w-1) to every field keeps the fields
    free of borrows, and flipping that bit back leaves each field in two's
    complement, which an array of w-bit signed items reads in one pass.
    """
    m, c = len(rows), len(cols)
    size = None
    if min(m, c) >= _PACK_MIN_SIDE and m * c >= _PACK_MIN_ENTRIES:
        top = [max(map(abs, chain.from_iterable(v))) for v in (rows, cols)]
        bits = (len(cols[0]) * top[0] * top[1]).bit_length()
        size = min((s for s in _FIELD_CODES if bits < 8 * s), default=None)
    if size is None:
        return [[sum(map(mul, x, y)) for y in cols] for x in rows]
    width = 8 * size
    packed = [sum(map(lshift, t, range(0, width * c, width))) for t in zip(*cols)]
    bias = int.from_bytes((b"\x80" + bytes(size - 1)) * c, "big")
    out = []
    for x in rows:
        word = (sum(map(mul, x, packed)) + bias) ^ bias
        fields = array(_FIELD_CODES[size], word.to_bytes(size * c, "little"))
        if sys.byteorder == "big":
            fields.byteswap()
        out.append(fields)
    return out


def nm_mul(A, B):
    """Exact product over K(I) by the integer split kernel (module docstring)."""
    if A.cols != B.rows:
        raise ShapeError("cannot multiply %dx%d by %dx%d" % (A.rows, A.cols, B.rows, B.cols))
    a1, a2, s = A._split_rows()
    b1, b2, t = B._split_cols()
    return NeutroMatrix._scaled((_dot_products(a1, b1), _dot_products(a2, b2), s, t))


def nm_transpose(A):
    return A.transpose()


def _echelon(rows):
    """Fraction-free (Bareiss) elimination of integer rows, in place.

    Returns (rank, sign * last pivot).  Columns without a pivot are skipped
    and every division by the previous pivot is exact; for a square matrix
    of full rank the second value is its determinant.
    """
    width = len(rows[0]) if rows else 0
    rank, sign, prev = 0, 1, 1
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        top = rows[rank]
        for row in rows[rank + 1:]:
            f = row[col]
            for j in range(col + 1, width):
                row[j] = (row[j] * top[col] - f * top[j]) // prev
        prev = top[col]
        rank += 1
    return rank, sign * prev


# a prime below 2**30, so every residue is one CPython digit
_RANK_PRIME = (1 << 30) - 35


def _full_rank_mod_p(rows):
    """Whether integer rows reach rank min(m, n) modulo _RANK_PRIME, which is then
    their rank over Q: a minor nonzero mod p is nonzero over Z.  Each used column is dropped."""
    p, slack = _RANK_PRIME, len(rows[0]) - len(rows)  # pivotless columns full rank affords
    rows = [[x % p for x in r] for r in rows]
    while rows and rows[0]:
        top = next((r for r in rows if r[0]), None)
        if top:
            rows.remove(top)
        elif (slack := slack - 1) < 0:
            return False
        inv, tail = (p - pow(top[0], -1, p), top[1:]) if top else (0, ())
        rows = [[(x + f * y) % p for x, y in zip(r[1:], tail)] if (f := r[0] * inv % p)
                else r[1:] for r in rows]
    return True


def nm_rank(A):
    """Ranks of the two split components plus invertibility over K(I)."""
    # full rank mod p is certified; Bareiss ranks the rest, on a copy of the shared rows
    full = min(A.rows, A.cols)
    r1, r2 = (full if _full_rank_mod_p(rows) else _echelon(list(map(list, rows)))[0]
              for rows in A._split_rows()[:2])
    invertible = A.rows == A.cols and r1 == A.rows and r2 == A.rows
    return r1, r2, invertible


_GUARDS = {
    "graph order": (10 ** 6, "vertices"),  # a graph or neutro-graph file may declare
    "graph generator": (10 ** 6, "edges"),  # of a generated graph
    "distance table": (4 * 10 ** 6, "entries"),  # of the n x n distance table of metrics
    "distance search": (10 ** 8, "edge visits"),  # n * m: the n searches of metrics
    "tutte matrix": (4 * 10 ** 6, "entries"),  # of the n x n matrix of names of tutte
    "laplacian": (4 * 10 ** 6, "entries"),  # of the n x n Laplacian of spanning_tree_count
    # (n + 1) * m bits: the n + 1 coefficients of chromatic_polynomial, each <= 2**m
    "chromatic polynomial size": (10 ** 8, "coefficient bits"),
    "chromatic polynomial": (50000, "states"),  # memo states of chromatic_polynomial
    "hamiltonian search": (14, "vertices"),  # of the spanning-cycle search of hamiltonian
    # (vertex set, end) states of a cycle search: as many as a Hamiltonian
    # search of 14 vertices can enter, so that one never trips it
    "cycle search": (14 << 13, "states"),
    "vertex coloring": (14, "vertices"),  # of the exact chromatic number search
    "edge coloring": (20, "edges"),  # of the exact chromatic index search
    "balance": (12, "concepts"),  # for the simple-path search in balance
    "isomorphism": (10, "vertices"),  # for the neutro_isomorphic backtracking
}


def _check_guard(name, count):
    """Raise SizeLimitError when `count` exceeds the limit of guard `name`."""
    limit, unit = _GUARDS[name]
    if count > limit:
        raise SizeLimitError("%s guard: %d %s exceeds %d" % (name, count, unit, limit))


def neutro_dimension(n, base):
    """Dimension of K(I)^n over K(I) ('neutrosophic-field') or K ('ordinary-field')."""
    if n < 1:
        raise ValueError("dimension asked for the zero module: n must be >= 1")
    if base == "neutrosophic-field":
        return n
    if base == "ordinary-field":
        return 2 * n
    raise ValueError("base must be 'ordinary-field' or 'neutrosophic-field'")


def meaningful_lines(text):
    """(line number, stripped line) for every line not blank or a # comment."""
    numbered = ((no, raw.strip()) for no, raw in enumerate(text.splitlines(), 1))
    return [(no, line) for no, line in numbered if line and not line.startswith("#")]


def matrix_from_lines(numbered, empty_message):
    """Rows of comma-separated value tokens, given as (line number, line)."""
    numbers, rows = _Numbers(), []
    for no, line in numbered:
        try:
            rows.append(tuple([_parse_token(tok, numbers) for tok in line.split(",")]))
        except ParseError as exc:
            raise ParseError("line %d: %s" % (no, exc)) from None
    if not rows:
        raise ParseError(empty_message)
    try:
        return NeutroMatrix._of(tuple(rows))
    except ShapeError as exc:
        raise ParseError(str(exc)) from None


def parse_matrix(text):
    """Parse newline-separated rows of comma-separated value tokens."""
    return matrix_from_lines(meaningful_lines(text), "empty matrix text")


def render_matrix(M):
    if M._form is None:
        return "\n".join(", ".join(str(e) for e in row) for row in M)
    F, G, s, t = M._form
    return "\n".join(", ".join(map(_render_scaled, fs, gs, map(si.__mul__, t)))
                     for fs, gs, si in zip(F, G, s))
