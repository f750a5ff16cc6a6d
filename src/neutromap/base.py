"""What every layer shares and no a+bI arithmetic needs: the error classes,
`_Value` and `_Record`, the size guards of every layer (`_GUARDS`, name ->
limit and unit, and its one check), Bareiss elimination and meaningful text
lines.  It imports no `fractions`, so a graph command loads it and not `core`.
"""

from operator import attrgetter


class ShapeError(ValueError):
    """Operand shapes or labels do not conform."""


class ParseError(ValueError):
    """Malformed token, matrix or model file."""


class SizeLimitError(ValueError):
    """Input exceeds a documented desk-scale guard."""


class NotFoundError(LookupError):
    """A referenced name, vertex or edge does not exist."""


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
    "chromatic polynomial memo": (3 * 10 ** 9, "mask bits"),  # sum of len(state)**2 over them
    "hamiltonian search": (14, "vertices"),  # of the spanning-cycle search of hamiltonian
    # (vertex set, end) states of a cycle search: as many as a Hamiltonian
    # search of 14 vertices can enter, so that one never trips it
    "cycle search": (14 << 13, "states"),
    "vertex coloring": (14, "vertices"),  # of the exact chromatic number search
    "edge coloring": (20, "edges"),  # of the exact chromatic index search
    "balance": (12, "concepts"),  # for the simple-path search in balance
    "isomorphism": (10, "vertices"),  # for the neutro_isomorphic backtracking
    # |X| * |Y| * |Z| of the dense table of relational_join: 100 labels a side
    "relational join": (10 ** 6, "entries"),
}


def _check_guard(name, count):
    """Raise SizeLimitError when `count` exceeds the limit of guard `name`."""
    limit, unit = _GUARDS[name]
    if count > limit:
        raise SizeLimitError("%s guard: %d %s exceeds %d" % (name, count, unit, limit))


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


def meaningful_lines(text):
    """(line number, stripped line) for every line not blank or a # comment."""
    numbered = ((no, raw.strip()) for no, raw in enumerate(text.splitlines(), 1))
    return [(no, line) for no, line in numbered if line and not line.startswith("#")]
