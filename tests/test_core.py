"""Unit tests for exact a+bI arithmetic, matrices, and parsing."""

import copy
import doctest
import os
import pickle
import re
import sys
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutromap import core
from neutromap.core import (
    I,
    NeutroMatrix,
    NeutroNumber,
    NotFoundError,
    ONE,
    ParseError,
    ShapeError,
    SizeLimitError,
    ZERO,
    neutro_dimension,
    nm_mul,
    nm_rank,
    nm_transpose,
    nn_add,
    nn_mul,
    parse_matrix,
    parse_number,
    render_matrix,
    split,
    unsplit,
)
from neutromap.engines import ConceptModel, HiddenPattern, RelationalModel, RmResult, link
from neutromap.formats import ModelFile
from neutromap.graphs import (
    ColoringReport,
    ConnectivityReport,
    DegreeReport,
    Graph,
    MetricsReport,
    Polynomial,
    chromatic_polynomial,
    complement,
    edit,
    generate,
    hamiltonian,
    tutte,
)
from neutromap.ngraph import NeutroDegreeReport, NeutroGraph, NeutroTreeReport, classify_walk
from neutromap.relations import (
    FI,
    FONE,
    INDETERMINATE,
    DomRanHeight,
    FuzzyNeutroRelation,
    FuzzyNeutroValue,
    PropertyReport,
    maxmin_compose,
    properties,
    transitive_closure,
)

import goldens
import oracles

fractions_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)
numbers_st = st.builds(NeutroNumber, fractions_st, fractions_st)


def nn(a, b=0):
    return NeutroNumber(a, b)


class TestScalar:
    def test_token_constructor(self):
        assert NeutroNumber("2-6I") == nn(2, -6)
        assert NeutroNumber("-I") == nn(0, -1)
        assert NeutroNumber("I") == I
        assert NeutroNumber("0") == ZERO
        assert NeutroNumber("7") == nn(7)

    @pytest.mark.parametrize(
        "token",
        ["0", "I", "2I", "-1+4I", "2-6I", "-I", "0.5", "1/3", "0.3I",
         "1+I", "1-I", "-2+I", "0.5-I"],
    )
    def test_token_round_trip(self, token):
        assert str(parse_number(token)) == token

    def test_parse_rejects_garbage(self):
        for bad in ("", "x", "1+", "I2", "1 + I", "--1", "2II"):
            with pytest.raises(ParseError):
                parse_number(bad)

    def test_zero_denominator_is_a_parse_error(self):
        for bad in ("1/0", "1/0I", "2+1/0I", "-1/00", "1/0-I"):
            with pytest.raises(ParseError, match="bad value token"):
                parse_number(bad)
        assert parse_number("3/06") == NeutroNumber(Fraction(1, 2))
        with pytest.raises(ParseError, match="line 2"):
            parse_matrix("1, 2\n0, 1/0")

    # every number shape of the grammar: leading zeros, bare and padded
    # fractions, and Unicode decimal digits, which int() reads as \d matches them
    NUMBER_SHAPES = ["7", "007", "0", "3/06", "12/4", ".5", "0.50", "10.250", "٣", "٣.٥", "1٤/2"]

    @pytest.mark.parametrize("num", NUMBER_SHAPES)
    @pytest.mark.parametrize("sign", ["", "+", "-"])
    def test_digit_parser_matches_fraction_text(self, sign, num):
        a = sign + num
        assert parse_number(a) == nn(Fraction(a))
        assert parse_number(a + "I") == nn(0, Fraction(a))
        for tail in ("+", "-"):
            for b in ("", ".5", num):
                indet = Fraction(tail + (b or "1"))
                assert parse_number(a + tail + b + "I") == nn(Fraction(a), indet)

    def test_digit_parser_reads_every_unicode_decimal_digit(self):
        digits = re.findall(r"\d", "".join(map(chr, range(sys.maxunicode + 1))))
        assert len(digits) > 600
        for d in digits:
            assert parse_number(d) == nn(Fraction(d)) == nn(int(d))
            assert parse_number("-%s.%s0+.%sI" % (d, d, d)) == nn(
                Fraction("-%s.%s0" % (d, d)), Fraction("." + d)
            )

    @pytest.mark.parametrize(
        "bad", ["1.", "1..2", "1/2/3", "٣/٣", "½", "1_000", "0x1", "1e3", "+-1", "I+1", "3/0.5"]
    )
    def test_digit_parser_rejects_as_before(self, bad):
        with pytest.raises(ParseError) as caught:
            parse_number(bad)
        assert str(caught.value) == "bad value token %r" % (bad,)

    def test_idempotent_indeterminacy(self):
        assert I * I == I
        assert I * (ONE - I) == ZERO

    def test_product_rule_example(self):
        # (2+3I)(1+4I) = 2 + (8+3+12)I
        assert nn(2, 3) * nn(1, 4) == nn(2, 23)

    def test_int_interop(self):
        assert nn(3) == 3
        assert hash(nn(3)) == hash(3)
        assert 2 * I == nn(0, 2)
        assert 1 + I == nn(1, 1)
        assert nn(5) - 5 == ZERO

    def test_strings_never_compare_equal(self):
        """Equality takes numbers only, so it agrees with the hash: "1" is text, not ONE."""
        for text in ("1", "hello", "I", ""):
            assert ONE.__eq__(text) is NotImplemented
            assert ONE != text and not ONE == text and not text == ONE
        assert ONE in ["hello", ONE] and "1" not in [ONE] and {ONE: 1}.get("1") is None
        assert ONE == 1 == nn(Fraction(2, 2)) and nn(Fraction(1, 2)) == Fraction(1, 2)
        assert I != 0 and I != 1

    def test_string_parts_follow_the_token_grammar(self):
        assert NeutroNumber(0, "1/2") == nn(0, Fraction(1, 2))
        assert NeutroNumber(1, "0.25") == nn(1, Fraction(1, 4))
        assert NeutroNumber("-3", 0) == nn(-3)  # the token form
        assert NeutroNumber(0, "-٣") == nn(0, -3)
        for x in (NeutroNumber(0, "1/2"), NeutroNumber(1, "7")):
            assert type(x.real) is Fraction and type(x.indet) is Fraction
        for bad in ("1e3", "1_0", " 1/2 ", "1/2 ", "", "+", "I", "1/0", "inf", "nan", "0x1"):
            with pytest.raises(ParseError, match="bad number"):
                NeutroNumber(0, bad)

    @given(numbers_st, numbers_st)
    def test_function_forms_match_the_operators(self, x, y):
        assert nn_add(x, y) == x + y and nn_mul(x, y) == x * y
        assert nn_add(str(x), 1) == x + 1 and nn_mul(str(x), I) == x * I

    @given(numbers_st, numbers_st, numbers_st)
    def test_ring_axioms(self, x, y, z):
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x
        assert x * ONE == x
        assert x + (-x) == ZERO

    @given(numbers_st, numbers_st)
    def test_add_mul_against_pair_oracle(self, x, y):
        xs, ys = (x.real, x.indet), (y.real, y.indet)
        s = x + y
        p = x * y
        assert (s.real, s.indet) == oracles.padd(xs, ys)
        assert (p.real, p.indet) == oracles.pmul(xs, ys)


class TestSplit:
    @given(numbers_st)
    def test_bijection(self, x):
        assert unsplit(split(x)) == x

    @given(numbers_st, numbers_st)
    def test_homomorphism(self, x, y):
        sx, sy = split(x), split(y)
        s = split(x + y)
        p = split(x * y)
        assert (s.first, s.second) == (sx.first + sy.first, sx.second + sy.second)
        assert (p.first, p.second) == (sx.first * sy.first, sx.second * sy.second)

    def test_zero_divisors_split_componentwise(self):
        # I -> (0, 1) and 1-I -> (1, 0): orthogonal idempotents
        assert (split(I).first, split(I).second) == (0, 1)
        one_minus = ONE - I
        assert (split(one_minus).first, split(one_minus).second) == (1, 0)


def random_entry(rng, num, den, zero_share):
    """a+bI, each part k/d with |k| <= num and 1 <= d <= den, or 0 with chance zero_share."""
    def part():
        if rng.random() < zero_share:
            return 0
        return Fraction(rng.randint(-num, num), rng.randint(1, den))

    return nn(part(), part())


# a 7x7 matrix: its square is a packed product
PACKED_TEXT = "\n".join(
    ", ".join("%d/%d-%dI" % (i + j, j + 1, i) for j in range(7)) for i in range(7))


class TestMatrix:
    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            NeutroMatrix([])
        with pytest.raises(ShapeError):
            NeutroMatrix([[ONE], [ONE, ZERO]])

    def test_mul_shape_mismatch(self):
        A = NeutroMatrix.filled(2, 3, ZERO)
        with pytest.raises(ShapeError):
            nm_mul(A, A)

    def test_identity_is_neutral(self):
        A = parse_matrix("1, I\n2-6I, 0")
        E = NeutroMatrix.identity(2)
        assert nm_mul(A, E) == A
        assert nm_mul(E, A) == A

    def test_transpose_involution(self):
        A = parse_matrix("1, I, 0\n2, -1, 4I")
        assert nm_transpose(nm_transpose(A)) == A
        assert nm_transpose(A).rows == 3

    def test_mul_against_pair_oracle(self):
        A = [[(1, 2), (0, -1)], [(3, 0), (0, 1)]]
        B = [[(0, 1), (2, 0)], [(1, 1), (-1, 0)]]
        to_m = lambda P: NeutroMatrix(
            [[NeutroNumber(a, b) for a, b in row] for row in P]
        )
        C = nm_mul(to_m(A), to_m(B))
        expect = oracles.pmat_mul(A, B)
        got = [
            [(C.entry(i, j).real, C.entry(i, j).indet) for j in range(2)]
            for i in range(2)
        ]
        assert got == expect

    # entry makers by size: signs, rationals up to 50/12, and numerators up to
    # 10**12 over denominators up to 10**6, whose scaled dot products pass 2**63
    ENTRY_SIZES = {
        "signs": lambda rng: rng.choice((ZERO, ONE, -ONE, I, -I, ONE - I)),
        "small": lambda rng: random_entry(rng, 50, 12, zero_share=0.25),
        "large": lambda rng: random_entry(rng, 10**12, 10**6, zero_share=0),
    }

    @settings(deadline=None, max_examples=60)  # up to 480 entries each
    @given(st.integers(1, 12), st.integers(1, 20), st.integers(1, 12),
           st.sampled_from(sorted(ENTRY_SIZES)), st.randoms(use_true_random=False), st.data())
    def test_mul_matches_pair_oracle_on_rectangular_shapes(self, r, k, c, size, rng, data):
        """Shapes on both sides of the packed kernel's threshold, k = 1, zero
        rows, columns and operands, and dot products past 2**63."""
        entry = lambda: self.ENTRY_SIZES[size](rng)
        A = [[entry() for _ in range(k)] for _ in range(r)]
        B = [[entry() for _ in range(c)] for _ in range(k)]
        zeros = data.draw(st.sampled_from(["none", "row", "column", "left", "right"]))
        if zeros == "row":
            A[rng.randrange(r)] = [ZERO] * k
        elif zeros == "column":
            j = rng.randrange(c)
            for row in B:
                row[j] = ZERO
        elif zeros in ("left", "right"):
            for row in A if zeros == "left" else B:
                row[:] = [ZERO] * len(row)
        pairs = lambda M: [[(e.real, e.indet) for e in row] for row in M]
        C = nm_mul(NeutroMatrix(A), NeutroMatrix(B))
        assert (C.rows, C.cols) == (r, c)
        assert pairs(C) == oracles.pmat_mul(pairs(A), pairs(B))

    @pytest.mark.parametrize("shape, packed", [
        ((4, 3, 12), True), ((12, 1, 4), True), ((7, 20, 7), True), ((8, 1, 8), True),
        ((3, 20, 16), False), ((16, 5, 3), False), ((6, 9, 6), False), ((1, 20, 64), False),
    ])
    def test_dot_products_pack_by_output_shape(self, shape, packed):
        m, k, c = shape
        rows = [[(i * 7 + t * 3) % 11 - 5 for t in range(k)] for i in range(m)]
        cols = [[(j * 5 + t) % 9 - 4 for t in range(k)] for j in range(c)]
        out = core._dot_products(rows, cols)
        assert isinstance(out[0], array) == packed
        assert [list(r) for r in out] == [[sum(map(int.__mul__, x, y)) for y in cols] for x in rows]

    @pytest.mark.parametrize("top, size", [
        (127, 1), (128, 2), (2**15 - 1, 2), (2**15, 4), (2**31 - 1, 4), (2**31, 8),
        (2**63 - 1, 8), (2**63, None),
    ])
    def test_packed_fields_widen_with_the_largest_product(self, top, size):
        """With k = 1 the bound is the largest |product|, here |top|: the largest
        magnitude a field holds, or one more."""
        rows = [[top], [-top], [1], [-1], [0], [1], [2], [3]]
        cols = [[1], [-1], [0]] * 3
        out = core._dot_products(rows, cols)
        assert (out[0].itemsize if isinstance(out[0], array) else None) == size
        assert [list(r) for r in out] == [[sum(map(int.__mul__, x, y)) for y in cols] for x in rows]
        assert max(max(map(abs, r)) for r in out) == abs(top)

    @pytest.mark.parametrize("build", [
        lambda: nm_mul(parse_matrix(PACKED_TEXT), parse_matrix(PACKED_TEXT)),
        lambda: nm_mul(parse_matrix("1, I\n2-6I, 0"), parse_matrix("1/2, 0, I\n-I, 3, 0.25")),
        lambda: parse_matrix(PACKED_TEXT).transpose(),
        lambda: parse_matrix("# c\n1, I, 1/2\n2-6I, 0, -I\n"),
    ], ids=["packed-product", "entrywise-product", "transpose", "parse"])
    def test_built_once_matches_the_public_constructor(self, build):
        """A product, transpose or parse keeps its entries as built; the result
        is the matrix the public constructors give, splits not yet built."""
        M = build()
        twin = NeutroMatrix([[NeutroNumber(e.real, e.indet) for e in row] for row in M])
        assert M._row_split is None and M._col_split is None
        assert M == twin and hash(M) == hash(twin) and repr(M) == repr(twin)
        assert pickle.dumps(M) == pickle.dumps(twin)
        assert all(type(e) is NeutroNumber and type(e.real) is type(e.indet) is Fraction
                   for row in M for e in row)
        nm_rank(M)
        assert M._row_split == twin._split_rows() and M._col_split is None

    def test_parse_reads_each_number_text_once(self, monkeypatch):
        seen = []
        rational = core._rational
        monkeypatch.setattr(core, "_rational", lambda text: seen.append(text) or rational(text))
        A = parse_matrix("1/2, 1/2+I, -I\n1/2I, I, 0.5")
        assert sorted(seen) == sorted(["1/2", "+", "-", "", "0.5"])
        assert A == NeutroMatrix([[nn(Fraction(1, 2)), nn(Fraction(1, 2), 1), -I],
                                  [nn(0, Fraction(1, 2)), I, nn(Fraction(1, 2))]])

    def test_rank_and_invertibility(self):
        assert nm_rank(NeutroMatrix.identity(3)) == (3, 3, True)
        assert nm_rank(NeutroMatrix([[I]])) == (0, 1, False)
        assert nm_rank(parse_matrix("1, I\n0, 1")) == (2, 2, True)
        # 1-I is a zero divisor: second component vanishes
        assert nm_rank(NeutroMatrix([[ONE - I]])) == (1, 0, False)

    @settings(deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_rank_matches_fraction_elimination(self, r, c, data):
        entry = st.one_of(st.just(ZERO), st.just(I), st.just(ONE - I), numbers_st)
        row = st.lists(entry, min_size=c, max_size=c)
        rows = data.draw(st.lists(row, min_size=r, max_size=r))
        if r >= 3 and data.draw(st.booleans()):
            k = data.draw(numbers_st)  # a dependent row makes the rank short
            rows[0] = [x + k * y for x, y in zip(rows[1], rows[2])]
        r1, r2, invertible = nm_rank(NeutroMatrix(rows))
        assert r1 == oracles.gauss_rank([[e.real for e in w] for w in rows])
        assert r2 == oracles.gauss_rank([[e.real + e.indet for e in w] for w in rows])
        assert invertible == (r == c == r1 == r2)

    def test_rank_falls_back_when_singular_mod_the_prime(self, monkeypatch):
        """A full rank mod p is certified; a rank short mod p goes to Bareiss."""
        p = core._RANK_PRIME
        bareiss = []
        echelon = core._echelon
        monkeypatch.setattr(core, "_echelon", lambda rows: bareiss.append(rows) or echelon(rows))
        assert nm_rank(NeutroMatrix([[2, 1], [1, 1]])) == (2, 2, True) and not bareiss
        cases = [
            ([[p, 0], [0, 1]], (2, 2, True)),
            ([[NeutroNumber(p, -p), 0], [0, 1]], (2, 1, False)),
            ([[1, 1], [1, 1 + p]], (2, 2, True)),
            ([[Fraction(p, 3), 1, 0], [0, 0, p]], (2, 2, False)),
            ([[p], [2 * p]], (1, 1, False)),
        ]
        for rows, want in cases:
            del bareiss[:]
            A = NeutroMatrix(rows)
            assert nm_rank(A) == want
            assert bareiss  # the certificate failed, so the exact fallback ran
            for rank, part in zip(want, (lambda e: e.real, lambda e: e.real + e.indet)):
                assert rank == oracles.gauss_rank([[part(e) for e in r] for r in A])

    @settings(deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_rank_with_entries_in_multiples_of_the_prime(self, r, c, data):
        p = core._RANK_PRIME
        multiple = st.integers(-3, 3).map(lambda k: k * p)
        entry = st.one_of(
            st.builds(NeutroNumber, multiple, multiple),
            st.builds(NeutroNumber, multiple, st.integers(-2, 2)),
            st.just(ZERO), st.just(I), st.just(ONE),
        )
        rows = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
        A, fresh = NeutroMatrix(rows), NeutroMatrix(rows)
        r1, r2, invertible = nm_rank(A)
        assert r1 == oracles.gauss_rank([[e.real for e in w] for w in rows])
        assert r2 == oracles.gauss_rank([[e.real + e.indet for e in w] for w in rows])
        assert invertible == (r == c == r1 == r2)
        assert A._split_rows() == fresh._split_rows()  # eliminated on copies only

    def test_shared_split_survives_rank_and_mul(self):
        """nm_rank eliminates on copies: the split it shares stays intact."""
        A = parse_matrix("1/2, I, 2-6I\n1/3, 0, 1-I\n0.5, 2I, 5/7+I")
        pairs = [[(e.real, e.indet) for e in row] for row in A]
        ranks = (
            oracles.gauss_rank([[a for a, _ in row] for row in pairs]),
            oracles.gauss_rank([[a + b for a, b in row] for row in pairs]),
        )
        assert nm_rank(A)[:2] == nm_rank(A)[:2] == ranks
        C = nm_mul(A, A)
        assert [[(e.real, e.indet) for e in row] for row in C] == oracles.pmat_mul(pairs, pairs)
        fresh = NeutroMatrix(A)
        assert A._split_rows() == fresh._split_rows() and A._split_rows() is A._split_rows()
        assert A._split_cols() == fresh._split_cols()

    def test_transpose_carries_the_built_splits_swapped(self):
        """A transpose builds no split of its own operand; it carries the ones
        already built, swapped, and they equal the splits a fresh twin builds."""
        A = parse_matrix("1/2, I, 2-6I\n1/3, 0, 1-I")
        T = A.transpose()
        assert T._row_split is None and T._col_split is None
        T._split_rows()
        assert A._row_split is None and A._col_split is None
        cols = A._split_cols()
        assert A.transpose()._split_rows() is cols and A.transpose()._col_split is None
        rows = A._split_rows()
        T, fresh = A.transpose(), NeutroMatrix(A.transpose())
        assert T._split_rows() is cols and T._split_cols() is rows
        assert (T._split_rows(), T._split_cols()) == (fresh._split_rows(), fresh._split_cols())

    def test_built_split_keeps_value_semantics(self):
        text = "1/2, I\n2-6I, 0"
        A, fresh = parse_matrix(text), parse_matrix(text)
        size = len(pickle.dumps(fresh))
        nm_rank(A)
        nm_mul(A, A)
        assert len(pickle.dumps(A)) == size  # a pickle carries the entries alone
        for twin in (A, pickle.loads(pickle.dumps(A)), copy.deepcopy(A)):
            assert twin == fresh and hash(twin) == hash(fresh) and repr(twin) == repr(fresh)
            assert nm_mul(twin, twin) == nm_mul(fresh, fresh)
            assert nm_rank(twin) == nm_rank(fresh)

    def test_render_parse_round_trip(self):
        A = parse_matrix("2-6I, -1+4I\n0.5, 1/3")
        assert parse_matrix(render_matrix(A)) == A

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_matrix("1, 2\n1, x")
        with pytest.raises(ParseError):
            parse_matrix("")
        with pytest.raises(ParseError):
            parse_matrix("1, 2\n3")

    def test_parse_skips_comments_and_blanks(self):
        A = parse_matrix("# header\n\n1, 2\n\n# tail\n3, 4\n")
        assert A == parse_matrix("1, 2\n3, 4")


def pairs(M):
    return [[(e.real, e.indet) for e in row] for row in M]


class TestScaledProduct:
    """A product is kept as its scaled integer form (F, G, s, t): every reader,
    fed a fresh product, gets what the pair oracle gives, and no entry is built
    before one is read."""

    ENTRY_SIZES = TestMatrix.ENTRY_SIZES

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(1, 4),
           st.sampled_from(["small", "large"]), st.randoms(use_true_random=False))
    def test_every_reader_matches_the_pair_oracle(self, r, k, c, d, size, rng):
        entry = lambda: self.ENTRY_SIZES[size](rng)
        A, B, C = ([[entry() for _ in range(w)] for _ in range(h)]
                   for h, w in ((r, k), (k, c), (r, d)))
        want = oracles.pmat_mul(pairs(A), pairs(B))
        fresh = lambda: nm_mul(NeutroMatrix(A), NeutroMatrix(B))
        built = NeutroMatrix(list(fresh()))  # the same entries, held as entries
        assert pairs(list(fresh())) == want
        assert pairs(fresh().transpose()) == oracles.pmat_transpose(want)
        assert pairs(fresh().transpose().transpose()) == want
        assert pairs(fresh().transpose() * NeutroMatrix(C)) == oracles.pmat_mul(
            oracles.pmat_transpose(want), pairs(C))
        assert nm_rank(fresh())[:2] == (oracles.gauss_rank([[a for a, _ in row] for row in want]),
                                        oracles.gauss_rank([[a + b for a, b in row] for row in want]))
        assert fresh()._split_rows() == built._split_rows()
        assert fresh()._split_cols() == built._split_cols()
        text = render_matrix(fresh())
        assert text == render_matrix(built) and pairs(parse_matrix(text)) == want
        for twin in (pickle.loads(pickle.dumps(fresh())), copy.deepcopy(fresh())):
            assert pairs(twin) == want
            assert twin == fresh() == built and hash(twin) == hash(fresh()) == hash(built)
        assert pickle.dumps(fresh()) == pickle.dumps(built)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(3, 4), st.sampled_from(sorted(ENTRY_SIZES)), st.randoms(use_true_random=False))
    def test_link_through_transposed_products(self, length, size, rng):
        """A non-square A*B linked to a map with as many rows transposes the
        product; a fourth map goes either way."""
        r, k = rng.randint(1, 4), rng.randint(1, 4)
        c = r + rng.randint(1, 3)
        shapes = [(r, k), (k, c), (r, rng.randint(1, 5))]
        if length == 4:  # the fold is c x shapes[2][1] here
            shapes.append((rng.choice((c, shapes[2][1])), rng.randint(1, 5)))
        chain = [[[self.ENTRY_SIZES[size](rng) for _ in range(w)] for _ in range(h)]
                 for h, w in shapes]
        acc = pairs(chain[0])
        for M in chain[1:]:
            acc = oracles.pmat_mul(acc if len(acc[0]) == len(M) else oracles.pmat_transpose(acc),
                                   pairs(M))
        raw, signed = link([NeutroMatrix(M) for M in chain])
        assert pairs(signed) == [[oracles.psign(x) for x in row] for row in acc]
        assert pairs(raw) == acc

    def test_no_entry_is_built_before_it_is_read(self, monkeypatch):
        """nm_mul, link, nm_rank and transposes build no Fraction and no
        NeutroNumber; the first read, rendering included, builds each entry of
        the product read, once."""
        A = parse_matrix(PACKED_TEXT)
        B = parse_matrix("1/2, I, 2-6I\n1/3, 0, 1-I\n0.5, 2I, 5/7+I\n1, -I, 0\n"
                         "0, 1/9, I\n3, 0, 1\n-1, I, 1")
        C = parse_matrix("1, -I\n2/3, 0\n0, I\n1, 1\nI, 0\n0, 0\n-1, 2")
        twin = NeutroMatrix(list(nm_mul(A, A)))
        made = {"Fraction": 0, "NeutroNumber": 0}

        def counting(kind, make):
            def counted(cls, *args, **kwargs):
                made[kind] += cls is not NeutroMatrix  # core._new makes matrices too
                return make(cls, *args, **kwargs)
            return counted

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting("Fraction", Fraction.__new__)))
        monkeypatch.setattr(core, "_new", counting("NeutroNumber", core._new))
        monkeypatch.setattr(NeutroNumber, "__init__", counting("NeutroNumber", NeutroNumber.__init__))
        P = nm_mul(A, A)
        raw, signed = link([A, B, C])  # 7x7 by 7x3, then its transpose by 7x2
        T = P.transpose()
        nm_rank(P), T._split_rows(), pairs(signed)
        assert made == {"Fraction": 0, "NeutroNumber": 0}
        assert render_matrix(P) == render_matrix(twin)  # text is printed from the entries
        assert made == {"Fraction": 2 * 49, "NeutroNumber": 49}
        assert P.entry(0, 0) == twin.entry(0, 0)
        assert made == {"Fraction": 2 * 49, "NeutroNumber": 49}
        assert list(P) == list(twin) and P == twin and P.row(6) == twin.row(6)
        assert P.transpose() == twin.transpose() and nm_rank(P) == nm_rank(twin)
        pickle.dumps(P), render_matrix(P), str(P), P.entry(6, 6)
        assert made == {"Fraction": 2 * 49, "NeutroNumber": 49}
        T.entry(0, 0)  # a transpose taken before the read builds its own entries
        assert made == {"Fraction": 4 * 49, "NeutroNumber": 2 * 49}
        raw.entry(0, 0)
        assert made == {"Fraction": 4 * 49 + 2 * 6, "NeutroNumber": 2 * 49 + 6}


class TestDimension:
    def test_worked_values(self):
        assert neutro_dimension(2, "neutrosophic-field") == goldens.DIM_STRONG_2
        assert neutro_dimension(2, "ordinary-field") == goldens.DIM_ORDINARY_2

    @given(st.integers(min_value=1, max_value=40))
    def test_doubling_rule(self, n):
        assert neutro_dimension(n, "neutrosophic-field") == n
        assert neutro_dimension(n, "ordinary-field") == 2 * n

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            neutro_dimension(0, "neutrosophic-field")
        with pytest.raises(ValueError):
            neutro_dimension(3, "quaternions")


class TestExceptions:
    def test_hierarchy(self):
        assert issubclass(ParseError, ValueError)
        assert issubclass(ShapeError, ValueError)
        assert issubclass(SizeLimitError, ValueError)
        assert issubclass(NotFoundError, LookupError)


# class name -> (a builder of one value, a builder of an unequal value of the
# same class, the fields whose tuple the hash is taken of; one field is
# hashed bare)
VALUES = {
    "NeutroMatrix": (
        lambda: NeutroMatrix([[1, I], [Fraction(1, 2), -I]]),
        lambda: NeutroMatrix([[1, I]]),
        ("_rows",),
    ),
    "Graph": (
        lambda: Graph(3, [(1, 2), (0, 1)]),
        lambda: Graph(3, [(0, 1)]),
        ("vertex_count", "edges"),
    ),
    "Polynomial": (
        lambda: Polynomial([0, -1, 1, 0]),
        lambda: Polynomial([0, 1]),
        ("coeffs",),
    ),
    "NeutroGraph": (
        lambda: NeutroGraph(2, 1, [(0, 1, "R"), (1, 2, "I")]),
        lambda: NeutroGraph(2, 1, [(0, 1, "R"), (1, 2, "I")], directed=True),
        ("n_real", "n_indet", "edges", "directed"),
    ),
    "FuzzyNeutroValue": (
        lambda: FuzzyNeutroValue(Fraction(1, 2), True),
        lambda: FuzzyNeutroValue(Fraction(1, 2)),
        ("magnitude", "indeterminate"),
    ),
    "FuzzyNeutroRelation": (
        lambda: FuzzyNeutroRelation.from_tokens([["0.5", "I"]], ["a"], ["x", "y"]),
        lambda: FuzzyNeutroRelation.from_tokens([["0.5", "I"]], ["b"], ["x", "y"]),
        ("row_labels", "col_labels", "values"),
    ),
    "ConceptModel": (
        lambda: ConceptModel(["A", "B"], [[0, 1], [I, 0]], default_clamp=[0]),
        lambda: ConceptModel(["A", "B"], [[0, 1], [I, 0]]),
        ("concept_names", "weights", "default_clamp"),
    ),
    "RelationalModel": (
        lambda: RelationalModel(["D"], ["R1", "R2"], [[1, -1]]),
        lambda: RelationalModel(["D"], ["R1", "R2"], [[1, I]]),
        ("domain_names", "range_names", "weights"),
    ),
}

# record class name -> (a builder of one record, its repr); each record is
# also a value above, keyed by all its fields in order
RECORDS = {
    "SplitPair": (
        lambda: split("2-6I"),
        "SplitPair(first=Fraction(2, 1), second=Fraction(-4, 1))",
    ),
    "ModelFile": (
        lambda: ModelFile("graph", Graph(2, [(0, 1)])),
        "ModelFile(kind='graph', payload=Graph(2, m=1))",
    ),
    "HiddenPattern": (
        lambda: HiddenPattern("fixed-point", ((ONE,),), 1),
        "HiddenPattern(kind='fixed-point', states=((NeutroNumber('1'),),),"
        " steps_to_enter=1)",
    ),
    "RmResult": (
        lambda: RmResult(HiddenPattern("limit-cycle", ((I,), (ZERO,)), 0),
                         HiddenPattern("fixed-point", ((ONE,),), 2), ()),
        "RmResult(domain=HiddenPattern(kind='limit-cycle', states=((NeutroNumber('I'),),"
        " (NeutroNumber('0'),)), steps_to_enter=0), range=HiddenPattern(kind='fixed-point',"
        " states=((NeutroNumber('1'),),), steps_to_enter=2), trajectory=())",
    ),
    "DegreeReport": (
        lambda: DegreeReport((1, 2, 1), 1, 2, (2, 1, 1)),
        "DegreeReport(degrees=(1, 2, 1), min_degree=1, max_degree=2, sequence=(2, 1, 1))",
    ),
    "ConnectivityReport": (
        lambda: ConnectivityReport(((0, 1), (2,)), False, frozenset(), frozenset({(0, 1)})),
        "ConnectivityReport(components=((0, 1), (2,)), is_connected=False,"
        " cut_vertices=frozenset(), cut_edges=frozenset({(0, 1)}))",
    ),
    "MetricsReport": (
        lambda: MetricsReport(((0, 1), (1, 0)), None, None, 1),
        "MetricsReport(distances=((0, 1), (1, 0)), girth=None, circumference=None,"
        " diameter=1)",
    ),
    "ColoringReport": (
        lambda: ColoringReport(2, (0, 1), 1, (0,)),
        "ColoringReport(chromatic_number=2, vertex_colors=(0, 1),"
        " edge_chromatic_number=1, edge_colors=(0,))",
    ),
    "NeutroDegreeReport": (
        lambda: NeutroDegreeReport((2,), 2, 2, 2, False, (), ()),
        "NeutroDegreeReport(degrees=(2,), min_degree=2, max_degree=2,"
        " k_neutro_regular=2, strongly_regular=False, isolated=(), pendent=())",
    ),
    "NeutroTreeReport": (
        lambda: NeutroTreeReport(True, (1, 1), 1, 1, (3, 4)),
        "NeutroTreeReport(is_neutro_tree=True, eccentricities=(1, 1), radius=1,"
        " neutro_diameter=1, neutro_center=(3, 4))",
    ),
    "DomRanHeight": (
        lambda: DomRanHeight((FI,), (FONE,), FONE),
        "DomRanHeight(domain=(FuzzyNeutroValue(I),), range=(FuzzyNeutroValue(1),),"
        " height=FuzzyNeutroValue(1))",
    ),
    "PropertyReport": (
        lambda: PropertyReport(True, True, False, False, INDETERMINATE, False,
                               INDETERMINATE, True, False, True, INDETERMINATE),
        "PropertyReport(reflexive=True, epsilon_reflexive=True, irreflexive=False,"
        " anti_reflexive=False, symmetric=indeterminate, asymmetric=False,"
        " antisymmetric=indeterminate, transitive=True, anti_transitive=False,"
        " compatibility=True, partial_order=indeterminate)",
    ),
}


def _other_record(make):
    """A record of the same class that differs from make() in its last field."""
    x = make()
    *first, last = (getattr(x, f) for f in type(x).__slots__)
    return type(x)(*first, (last, "other"))


for _name, (_make, _) in RECORDS.items():
    VALUES[_name] = (_make, lambda make=_make: _other_record(make), type(_make()).__slots__)


# value class name -> (a builder, what warms its caches, the cached forms);
# each cache is built on first use and stays out of the value and its pickle
CACHES = {
    "NeutroMatrix": (
        lambda: NeutroMatrix([[1, I], [Fraction(1, 2), -I]]),
        lambda A: (nm_mul(A, A), nm_rank(A)),
        lambda A: (A._row_split, A._col_split),
    ),
    "Graph": (
        lambda: generate("complete", 6),
        lambda G: hamiltonian(G),
        lambda G: (G._view,),
    ),
    "NeutroGraph": (
        lambda: NeutroGraph(2, 1, [(0, 1, "R"), (1, 2, "I")]),
        lambda G: G.underlying().view(),
        lambda G: (G.underlying()._view,),
    ),
    "FuzzyNeutroRelation": (
        lambda: FuzzyNeutroRelation.from_tokens([["0.5", "I"], ["0", "0.2I"]], ["a", "b"], ["a", "b"]),
        lambda R: (maxmin_compose(R, R), transitive_closure(R), properties(R)),
        lambda R: (R._codes,),
    ),
}


class TestValueSemantics:
    @pytest.mark.parametrize("name", sorted(CACHES))
    def test_a_warm_cache_leaks_nowhere(self, name):
        make, warm, cached = CACHES[name]
        x, fresh = make(), make()
        warm(x)
        assert None not in cached(x) and set(cached(fresh)) == {None}
        assert pickle.dumps(x) == pickle.dumps(fresh)
        assert x == fresh and hash(x) == hash(fresh) and repr(x) == repr(fresh)
        for twin in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert set(cached(twin)) == {None}
            assert pickle.dumps(twin) == pickle.dumps(fresh)
            assert twin == fresh and hash(twin) == hash(fresh) and repr(twin) == repr(fresh)
            assert warm(twin) == warm(fresh)

    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_equal_by_identity_fields(self, name):
        make, make_other, fields = VALUES[name]
        x, y = make(), make()
        assert x is not y and x == y and not x != y
        assert x != make_other() and not x == make_other()
        key = tuple(getattr(x, f) for f in fields)
        assert hash(x) == hash(y) == hash(key if len(key) > 1 else key[0])
        assert x.__eq__(object()) is NotImplemented
        for stranger in sorted(set(VALUES) - {name}):
            z = VALUES[stranger][0]()
            assert x != z and x.__eq__(z) is NotImplemented

    @pytest.mark.parametrize(
        "make",
        [
            lambda **flags: Graph(2, [(0, 1)], **flags),
            lambda **flags: NeutroGraph(1, 1, [(0, 1, "I")], **flags),
        ],
        ids=["Graph", "NeutroGraph"],
    )
    def test_graphs_ignore_the_multigraph_flags(self, make):
        """Equal graphs answer alike: the flags only choose what the
        constructor accepts, and simplicity is read from the edges."""
        plain, flagged = make(), make(allow_multi=True, allow_loops=True)
        assert plain == flagged and hash(plain) == hash(flagged)
        if isinstance(plain, Graph):
            assert flagged.is_simple() and plain.is_simple()
            merged, path = edit(generate("path", 4), "contract-edge", (0, 1)), generate("path", 3)
            assert merged == path
            assert str(chromatic_polynomial(merged)) == "x^3 - 2x^2 + x"
            for routine in (chromatic_polynomial, tutte, complement, hamiltonian):
                assert routine(merged) == routine(path)
            with pytest.raises(ValueError, match="duplicate edge"):
                Graph(3, [(0, 1), (0, 1)])
        else:
            assert flagged.underlying().is_simple() and plain.underlying().is_simple()
            arcs = NeutroGraph(3, 0, [(0, 1, "R"), (1, 2, "R"), (2, 0, "R")], directed=True)
            assert arcs.underlying() is arcs.underlying()
            assert hamiltonian(arcs.underlying())[1]
            walk = NeutroGraph(3, 0, [(0, 1, "R"), (1, 2, "R")], allow_multi=True)
            assert classify_walk(walk, [0, 1, 2]) == ("path", False, False)
            with pytest.raises(ValueError, match="parallel edges"):
                NeutroGraph(2, 0, [(0, 1, "R"), (1, 0, "I")])

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_record_builds_by_keyword_and_stays_fixed(self, name):
        make, text = RECORDS[name]
        x = make()
        fields = type(x).__slots__
        assert repr(x) == text
        assert type(x)(**{f: getattr(x, f) for f in fields}) == x
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(x, fields[0], None)
        with pytest.raises(TypeError):
            type(x)(*(getattr(x, f) for f in fields[:-1]))
        with pytest.raises(TypeError):
            type(x)(*(getattr(x, f) for f in fields), no_such_field=1)

    @pytest.mark.parametrize("name", ["NeutroNumber", *sorted(VALUES)])
    def test_survives_pickle_and_deepcopy(self, name):
        x = nn(2, -6) if name == "NeutroNumber" else VALUES[name][0]()
        for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(twin) is type(x) and twin == x and hash(twin) == hash(x)
            assert repr(twin) == repr(x)

    def test_neutro_graph_pickles_its_tagged_edges_alone(self):
        K = generate("complete", 40)
        G = NeutroGraph(30, 10, [(u, v, "I" if (u + v) % 3 else "R") for u, v in K.edges])
        G.underlying().view()
        data = pickle.dumps(G)
        assert b"neutromap.graphs" not in data  # no underlying Graph rides along
        twin = pickle.loads(data)
        assert twin == G and hash(twin) == hash(G) and twin.underlying() == G.underlying()
        assert twin.underlying().is_simple() and twin.underlying()._view is None

    def test_indeterminate_stays_one_object(self):
        report = RECORDS["PropertyReport"][0]()
        for twin in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
            assert twin.symmetric is INDETERMINATE
        assert pickle.loads(pickle.dumps(INDETERMINATE)) is INDETERMINATE
        assert copy.deepcopy(INDETERMINATE) is INDETERMINATE


def test_readme_library_tour():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    failed, attempted = doctest.testfile(readme, module_relative=False)
    assert (failed, attempted) == (0, 5)
