"""Unit tests for fuzzy/neutrosophic values and relations."""

import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutromap.core import NeutroNumber, NotFoundError, ParseError, ShapeError
from neutromap.relations import (
    FI,
    FONE,
    FZERO,
    FuzzyNeutroRelation,
    FuzzyNeutroValue,
    INDETERMINATE,
    check_homomorphism,
    dom_ran_height,
    inverse,
    lattice_max,
    lattice_min,
    maxmin_compose,
    properties,
    relational_join,
    transitive_closure,
    tri_all,
)

import goldens
import oracles


def rel(rows, cols, tokens):
    return FuzzyNeutroRelation(
        rows, cols,
        [[FuzzyNeutroValue.parse(str(t)) for t in row] for row in tokens],
    )


def square(labels, tokens):
    return rel(labels, labels, tokens)


def sagittal():
    return rel(
        ["x1", "x2", "x3", "x4", "x5"], ["y1", "y2", "y3", "y4"], goldens.SAGITTAL
    )


values_st = st.one_of(
    st.sampled_from([FZERO, FONE, FI]),
    st.builds(
        FuzzyNeutroValue,
        st.fractions(min_value=0, max_value=1, max_denominator=10),
        st.booleans(),
    ),
)


# mixed grades: 0I normalizes to 0, I is 1 with the flag on
grade_tokens_st = st.sampled_from(
    ["0", "0I", "1", "I", "0.4I", "0.4", "0.7", "0.7I", "1/3", "2/3I", "0.2"]
)


def draw_tokens(data, r, c):
    row = st.lists(grade_tokens_st, min_size=c, max_size=c)
    return data.draw(st.lists(row, min_size=r, max_size=r))


def grades(R):
    """Library grades as oracle (magnitude, indeterminate) pairs."""
    return [[(v.magnitude, v.indeterminate) for v in row] for row in R.values]


def labelled(tokens, row_prefix, col_prefix):
    return FuzzyNeutroRelation.from_tokens(
        tokens,
        ["%s%d" % (row_prefix, i + 1) for i in range(len(tokens))],
        ["%s%d" % (col_prefix, j + 1) for j in range(len(tokens[0]))],
    )


class TestValue:
    def test_parse_and_str(self):
        assert str(FuzzyNeutroValue.parse("0.3")) == "0.3"
        assert str(FuzzyNeutroValue.parse("I")) == "I"
        assert str(FuzzyNeutroValue.parse("0.5I")) == "0.5I"
        assert FuzzyNeutroValue.parse("1") == FONE
        assert FuzzyNeutroValue.parse("0") == FZERO

    def test_parse_rejects_mixed_and_out_of_range(self):
        with pytest.raises(ParseError):
            FuzzyNeutroValue.parse("1+2I")
        with pytest.raises(ParseError):
            FuzzyNeutroValue.parse("x")
        with pytest.raises(ValueError):
            FuzzyNeutroValue.parse("1.5")

    def test_str_follows_neutro_number(self):
        for mag in (0, 1, Fraction(1, 3), Fraction(1, 4), Fraction(7, 10)):
            assert str(FuzzyNeutroValue(mag)) == str(NeutroNumber(mag))
            assert str(FuzzyNeutroValue(mag, True)) == str(NeutroNumber(0, mag))

    def test_zero_absorbs_indeterminacy(self):
        assert FuzzyNeutroValue(0, True) == FZERO
        assert str(FuzzyNeutroValue(0, True)) == "0"

    def test_lattice_min_table(self):
        assert lattice_min(FZERO, FI) == FZERO
        assert lattice_min(FONE, FI) == FI
        third, half_i = FuzzyNeutroValue.parse("0.3"), FuzzyNeutroValue.parse("0.5I")
        assert lattice_min(third, half_i) == FuzzyNeutroValue.parse("0.3I")
        assert lattice_min(third, FONE) == third

    def test_lattice_max_table(self):
        assert lattice_max(FZERO, FI) == FI
        assert lattice_max(FuzzyNeutroValue.parse("0.3"),
                           FuzzyNeutroValue.parse("0.5I")) == FuzzyNeutroValue.parse("0.5I")
        # magnitude ties: the real value wins over the indeterminate one
        assert lattice_max(FuzzyNeutroValue.parse("0.3"),
                           FuzzyNeutroValue.parse("0.3I")) == FuzzyNeutroValue.parse("0.3")
        assert lattice_max(FuzzyNeutroValue.parse("0.3I"),
                           FuzzyNeutroValue.parse("0.3I")) == FuzzyNeutroValue.parse("0.3I")

    @given(values_st, values_st)
    def test_lattice_ops_commute(self, a, b):
        assert lattice_min(a, b) == lattice_min(b, a)
        assert lattice_max(a, b) == lattice_max(b, a)

    @given(values_st, values_st, values_st)
    def test_lattice_ops_associate(self, a, b, c):
        assert lattice_min(lattice_min(a, b), c) == lattice_min(a, lattice_min(b, c))
        assert lattice_max(lattice_max(a, b), c) == lattice_max(a, lattice_max(b, c))

    @given(values_st)
    def test_lattice_bounds(self, a):
        assert lattice_min(a, FZERO) == FZERO
        assert lattice_max(a, FZERO) == a
        assert lattice_min(a, FONE) == a


class TestTriLogic:
    def test_tri_all(self):
        assert tri_all([True, True]) is True
        assert tri_all([True, False, INDETERMINATE]) is False
        assert tri_all([True, INDETERMINATE]) is INDETERMINATE
        assert tri_all([]) is True

    def test_indeterminate_is_not_boolean(self):
        with pytest.raises(TypeError):
            bool(INDETERMINATE)
        assert repr(INDETERMINATE) == "indeterminate"


class TestRelation:
    def test_shape_and_label_validation(self):
        with pytest.raises(ShapeError):
            rel(["a"], ["x", "y"], [["0"]])
        with pytest.raises(ValueError):
            rel(["a", "a"], ["x"], [["0"], ["0"]])
        with pytest.raises(ShapeError):
            FuzzyNeutroRelation([], [], [])

    def test_value_lookup(self):
        S = sagittal()
        assert str(S.value("x2", "y3")) == "0.4"
        with pytest.raises(NotFoundError):
            S.value("x9", "y1")

    def test_from_tokens_autolabels(self):
        R = FuzzyNeutroRelation.from_tokens([["0", "1"], ["I", "0.5"]])
        assert R.row_labels == ("x1", "x2") and R.col_labels == ("y1", "y2")

    def test_dom_ran_height(self):
        r = dom_ran_height(sagittal())
        assert str(r.height) == goldens.SAGITTAL_HEIGHT
        assert str(r.domain[0]) == goldens.SAGITTAL_DOM_X1
        assert [str(v) for v in r.range] == ["1", "I", "0.5", "0.7"]

    @given(st.data())
    def test_dom_ran_height_folds_lattice_max(self, data):
        # few magnitudes, so real and indeterminate grades of one size often tie
        grade = st.builds(
            FuzzyNeutroValue, st.sampled_from([0, Fraction(1, 3), Fraction(1, 2), 1]),
            st.booleans(),
        )
        m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        grid = data.draw(st.lists(st.lists(grade, min_size=n, max_size=n),
                                  min_size=m, max_size=m))

        def fold(values):
            return reduce(lattice_max, values, FZERO)

        r = dom_ran_height(FuzzyNeutroRelation.from_tokens(grid))
        assert r.domain == tuple(fold(row) for row in grid)
        assert r.range == tuple(fold(col) for col in zip(*grid))
        assert r.height == fold(v for row in grid for v in row)

    def test_inverse_is_an_involution(self):
        S = sagittal()
        T = inverse(S)
        assert T.row_labels == S.col_labels
        assert inverse(T) == S
        assert T.value("y3", "x2") == S.value("x2", "y3")


class TestCompose:
    def test_small_known_product(self):
        P = rel(["a"], ["x", "y"], [["0.3", "I"]])
        Q = rel(["x", "y"], ["u"], [["0.5"], ["1"]])
        C = maxmin_compose(P, Q)
        # max(min(.3,.5), min(I,1)) = max(.3, I) = I
        assert C.value("a", "u") == FI

    def test_label_mismatch(self):
        P = rel(["a"], ["x", "y"], [["0.3", "I"]])
        with pytest.raises(ShapeError):
            maxmin_compose(P, P)

    def test_matches_oracle_on_random(self):
        import random

        rng = random.Random(3)
        pool = ["0", "0.2", "0.5", "0.7", "1", "I", "0.4I"]
        toks = lambda r, c: [
            [rng.choice(pool) for _ in range(c)] for _ in range(r)
        ]
        ys = ["y1", "y2", "y3", "y4"]
        zs = ["z1", "z2"]
        for _ in range(30):
            pt, qt = toks(3, 4), toks(4, 2)
            R1 = maxmin_compose(
                FuzzyNeutroRelation.from_tokens(pt, col_labels=ys),
                FuzzyNeutroRelation.from_tokens(qt, row_labels=ys, col_labels=zs),
            )
            R2 = oracles.ocompose(oracles.fzmat(pt), oracles.fzmat(qt))
            got = [
                [oracles.fz(str(R1.entry(i, j))) for j in range(2)]
                for i in range(3)
            ]
            assert got == R2

    @settings(deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.data())
    def test_matches_oracle_on_rectangular_mixed_grades(self, r, k, c, data):
        pt, qt = draw_tokens(data, r, k), draw_tokens(data, k, c)
        C = maxmin_compose(labelled(pt, "x", "y"), labelled(qt, "y", "z"))
        assert C.shape == (r, c)
        assert grades(C) == oracles.ocompose(oracles.fzmat(pt), oracles.fzmat(qt))

    def test_associative_on_real_values(self):
        import random

        rng = random.Random(4)
        pool = ["0", "0.2", "0.5", "0.7", "1"]
        xs = ["x1", "x2", "x3"]
        for _ in range(30):
            P, Q, R = (
                FuzzyNeutroRelation.from_tokens(
                    [[rng.choice(pool) for _ in range(3)] for _ in range(3)],
                    row_labels=xs, col_labels=xs,
                )
                for _ in range(3)
            )
            assert maxmin_compose(maxmin_compose(P, Q), R) == maxmin_compose(
                P, maxmin_compose(Q, R)
            )

    def test_associativity_breaks_on_indeterminate_values(self):
        # min(0.7, I) = 0.7I, and whether that downgrade happens before or
        # after a max against a real 0.7 changes the winner: the real wins
        # a magnitude tie, so (PQ)R keeps 0.7 while P(QR) keeps 0.7I.  The
        # inverse anti-homomorphism is pure transposition and still holds.
        P = rel(["a"], ["b"], [["0.7"]])
        Q = rel(["b"], ["c", "d"], [["1", "0.7"]])
        R = rel(["c", "d"], ["e"], [["I"], ["0.7"]])
        left = maxmin_compose(maxmin_compose(P, Q), R)
        right = maxmin_compose(P, maxmin_compose(Q, R))
        assert str(left.value("a", "e")) == "0.7"
        assert str(right.value("a", "e")) == "0.7I"
        PQ = maxmin_compose(P, Q)
        assert inverse(PQ) == maxmin_compose(inverse(Q), inverse(P))


class TestProperties:
    def test_compatibility_matrix(self):
        r = properties(square(["x%d" % i for i in range(1, 8)], goldens.COMPAT_7))
        assert r.reflexive is True and r.symmetric is True
        assert r.compatibility is True
        assert r.partial_order is False  # not antisymmetric

    def test_abcde_matrix(self):
        r = properties(square(list("abcde"), goldens.ABCDE))
        assert r.reflexive is False
        assert r.symmetric is False
        assert r.anti_reflexive is True  # no diagonal grade is 1
        assert r.irreflexive is False  # (d,d) = 0.3

    def test_partial_orders(self):
        for rows in (goldens.PARTIAL_P, goldens.PARTIAL_Q, goldens.PARTIAL_R):
            r = properties(square(list("abcdef"), rows))
            assert r.partial_order is True

    def test_epsilon_reflexive(self):
        R = square(["a", "b"], [["0.6", "0"], ["0", "0.4"]])
        assert properties(R, Fraction(1, 2)).epsilon_reflexive is False
        assert properties(R, Fraction(2, 5)).epsilon_reflexive is True
        with_i = square(["a", "b"], [["0.6", "0"], ["0", "I"]])
        assert properties(with_i).epsilon_reflexive is INDETERMINATE

    def test_antisymmetric_three_valued(self):
        R = square(["a", "b"], [["0", "I"], ["0.3", "0"]])
        assert properties(R).antisymmetric is INDETERMINATE

    def test_asymmetric_is_not_symmetric(self):
        R = square(["a", "b"], [["0", "0.3"], ["0", "0"]])
        r = properties(R)
        assert r.symmetric is False and r.asymmetric is True

    def test_anti_transitive_needs_strict_dominance(self):
        # the composition can never strictly exceed the relation at the
        # entry where the global maximum grade sits, so the flag is false
        # on these
        R = square(["a", "b"], [["0", "0.3"], ["0.4", "0"]])
        assert properties(R).anti_transitive is False
        Z = square(["a", "b"], [["0", "0"], ["0", "0"]])
        assert properties(Z).anti_transitive is False

    @settings(deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_transitivity_matches_oracle(self, n, data):
        R = labelled(draw_tokens(data, n, n), "x", "x")
        if data.draw(st.booleans()):
            R = transitive_closure(R)  # random relations are rarely transitive
        G = grades(R)
        C = oracles.ocompose(G, G)
        report = properties(R)
        assert report.transitive == oracles.o_is_transitive(G)
        assert report.anti_transitive == all(
            oracles.ole(G[i][j], C[i][j]) and G[i][j] != C[i][j]
            for i in range(n)
            for j in range(n)
        )

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            properties(sagittal())

    def test_epsilon_range(self):
        R = square(["a"], [["1"]])
        with pytest.raises(ValueError):
            properties(R, Fraction(0))
        with pytest.raises(ValueError):
            properties(R, Fraction(1))


class TestClosure:
    def test_crisp_path(self):
        R = square(list("abc"), [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]])
        C = transitive_closure(R)
        assert C.value("a", "c") == FONE
        assert properties(C).transitive is True

    def test_already_transitive_unchanged(self):
        R = square(list("ab"), [["1", "1"], ["0", "1"]])
        assert transitive_closure(R) == R

    def test_dominates_and_is_transitive(self):
        C = transitive_closure(square(list("abcde"), goldens.ABCDE))
        R = square(list("abcde"), goldens.ABCDE)
        for i in range(5):
            for j in range(5):
                assert lattice_max(C.entry(i, j), R.entry(i, j)) == C.entry(i, j)
        assert properties(C).transitive is True

    def test_matches_floyd_warshall_oracle_on_real_values(self):
        import random

        rng = random.Random(9)
        pool = ["0", "0.2", "0.5", "0.7", "1"]
        xs = ["x1", "x2", "x3", "x4"]
        for _ in range(25):
            toks = [[rng.choice(pool) for _ in range(4)] for _ in range(4)]
            C = transitive_closure(
                FuzzyNeutroRelation.from_tokens(toks, row_labels=xs, col_labels=xs)
            )
            expect = oracles.fw_closure(oracles.fzmat(toks))
            got = [
                [oracles.fz(str(C.entry(i, j))) for j in range(4)] for i in range(4)
            ]
            assert got == expect

    def test_mixed_indeterminacy_reaches_a_transitive_fixpoint(self):
        import random

        rng = random.Random(9)
        pool = ["0", "0.2", "0.5", "0.7", "1", "I", "0.4I"]
        xs = ["x1", "x2", "x3", "x4"]
        for _ in range(25):
            toks = [[rng.choice(pool) for _ in range(4)] for _ in range(4)]
            R = FuzzyNeutroRelation.from_tokens(toks, row_labels=xs, col_labels=xs)
            C = transitive_closure(R)
            assert oracles.o_is_transitive(
                [[oracles.fz(str(C.entry(i, j))) for j in range(4)] for i in range(4)]
            )
            for i in range(4):
                for j in range(4):
                    assert lattice_max(C.entry(i, j), R.entry(i, j)) == C.entry(i, j)

    @settings(deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_matches_squaring_oracle_on_mixed_grades(self, n, data):
        toks = draw_tokens(data, n, n)
        C = transitive_closure(labelled(toks, "x", "x"))
        assert grades(C) == oracles.squaring_closure(oracles.fzmat(toks))

    def test_indeterminate_tie_goes_to_the_real_path(self):
        # x3 -> x4 directly is I, but x3 -> x2 -> x1 -> x4 -> x3 is a real
        # 0.7 path, so the closure's (x3, x3) entry must be real 0.7, not
        # 0.7I; a Floyd-Warshall sweep gets this wrong
        toks = [
            ["0.5", "0.5", "0.2", "0.7"],
            ["1", "0.5", "0.2", "0"],
            ["I", "1", "0.5", "I"],
            ["0", "0", "0.7", "0.7"],
        ]
        xs = ["x1", "x2", "x3", "x4"]
        C = transitive_closure(
            FuzzyNeutroRelation.from_tokens(toks, row_labels=xs, col_labels=xs)
        )
        assert str(C.value("x3", "x3")) == "0.7"
        assert properties(C).transitive is True


class TestJoin:
    def test_ternary_table(self):
        P = rel(["a"], ["x", "y"], [["0.3", "I"]])
        Q = rel(["x", "y"], ["u"], [["0.5"], ["1"]])
        J = relational_join(P, Q)
        assert J[("a", "x", "u")] == FuzzyNeutroValue.parse("0.3")
        assert J[("a", "y", "u")] == FI

    def test_projection_recovers_composition(self):
        P = rel(["a", "b"], ["x", "y"], [["0.3", "I"], ["1", "0"]])
        Q = rel(["x", "y"], ["u", "v"], [["0.5", "0"], ["1", "0.2"]])
        J = relational_join(P, Q)
        C = maxmin_compose(P, Q)
        for x in ("a", "b"):
            for z in ("u", "v"):
                folded = FZERO
                for y in ("x", "y"):
                    folded = lattice_max(folded, J[(x, y, z)])
                assert folded == C.value(x, z)

    @settings(deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
    def test_matches_oracle_min_on_every_triple(self, r, k, c, data):
        pt, qt = draw_tokens(data, r, k), draw_tokens(data, k, c)
        P, Q = labelled(pt, "x", "y"), labelled(qt, "y", "z")
        J = relational_join(P, Q)
        Pg, Qg = oracles.fzmat(pt), oracles.fzmat(qt)
        expect = {
            (x, y, z): oracles.omin(Pg[i][j], Qg[j][l])
            for i, x in enumerate(P.row_labels)
            for j, y in enumerate(P.col_labels)
            for l, z in enumerate(Q.col_labels)
        }
        assert list(J) == list(expect)
        assert {key: (v.magnitude, v.indeterminate) for key, v in J.items()} == expect

    def test_all_zero(self):
        P = rel(["a"], ["x"], [["0"]])
        Q = rel(["x"], ["u"], [["1"]])
        assert relational_join(P, Q)[("a", "x", "u")] == FZERO


def random_tokens(rng, r, c, denominator, zero_share=0.35, real_only=False):
    """Grades k/denominator, a share of them zero and, unless real_only,
    two fifths of the rest indeterminate."""
    def token():
        if rng.random() < zero_share:
            return "0"
        mag = "%d/%d" % (rng.randint(1, denominator), denominator)
        return mag if real_only or rng.random() < 0.6 else mag + "I"
    return [[token() for _ in range(c)] for _ in range(r)]


def magnitude_count(*relations):
    """d, the number of distinct nonzero magnitudes, of the joint ranks."""
    return len({v.magnitude for R in relations for row in R.values for v in row} - {0})


def level_masks(n, k, m, d):
    """The rule by which `_compose_codes` picks its level-mask kernel."""
    return min(n, m) >= 10 and d <= 2 * k


class TestRankCodes:
    """The cached grade codes and both compose kernels, against the oracles."""

    # (rows, inner, cols, denominator, real_only, kernel): the denominator bounds d
    @pytest.mark.parametrize(
        "r, k, c, den, real_only, kernel",
        [
            (3, 4, 2, 10, False, "entries"),
            (9, 12, 12, 10, False, "entries"),
            (12, 12, 12, 10, False, "masks"),
            (16, 16, 16, 10, True, "masks"),
            (10, 16, 11, 10, False, "masks"),
            (12, 5, 14, 40, False, "entries"),
            (16, 16, 16, 100, False, "entries"),
            (12, 40, 10, 60, False, "masks"),
            (12, 3, 14, 4, False, "masks"),
            (1, 20, 20, 10, False, "entries"),
        ],
    )
    def test_compose_matches_oracle_on_both_kernels(self, r, k, c, den, real_only, kernel):
        rng = random.Random(r * 1000 + k * 10 + c + den)
        pt = random_tokens(rng, r, k, den, real_only=real_only)
        qt = random_tokens(rng, k, c, den, real_only=real_only)
        P, Q = labelled(pt, "x", "y"), labelled(qt, "y", "z")
        assert level_masks(r, k, c, magnitude_count(P, Q)) == (kernel == "masks")
        C = maxmin_compose(P, Q)
        assert grades(C) == oracles.ocompose(oracles.fzmat(pt), oracles.fzmat(qt))

    @pytest.mark.parametrize("n, den", [(4, 10), (12, 10), (16, 5), (12, 40)])
    def test_closure_matches_floyd_warshall_on_real_values(self, n, den):
        rng = random.Random(n + den)
        toks = random_tokens(rng, n, n, den, zero_share=0.6, real_only=True)
        C = transitive_closure(labelled(toks, "x", "x"))
        assert grades(C) == oracles.fw_closure(oracles.fzmat(toks))

    @pytest.mark.parametrize("n, den", [(12, 10), (16, 4), (10, 40)])
    def test_closure_and_transitivity_match_squaring_on_mixed_grades(self, n, den):
        rng = random.Random(n * den)
        toks = random_tokens(rng, n, n, den, zero_share=0.7)
        R = labelled(toks, "x", "x")
        C = transitive_closure(R)
        assert grades(C) == oracles.squaring_closure(oracles.fzmat(toks))
        assert properties(C).transitive is True
        expect = oracles.o_is_transitive(oracles.fzmat(toks))
        assert properties(R).transitive is expect

    def test_operands_with_different_magnitudes_are_remapped(self):
        rng = random.Random(11)
        pt = random_tokens(rng, 12, 12, 10)  # tenths
        qt = random_tokens(rng, 12, 12, 7)  # sevenths: only 1 is shared
        P, Q = labelled(pt, "x", "y"), labelled(qt, "y", "z")
        assert P._encoding()[0] != Q._encoding()[0]
        C = maxmin_compose(P, Q)
        assert grades(C) == oracles.ocompose(oracles.fzmat(pt), oracles.fzmat(qt))
        J = relational_join(P, Q)
        assert J[("x1", "y2", "z3")] == lattice_min(P.entry(0, 1), Q.entry(1, 2))
        # the operands keep their own codes
        assert P._encoding()[0] == tuple(sorted({v.magnitude for row in P.values for v in row} - {0}))

    @pytest.mark.parametrize("n", [1, 12])
    def test_all_zero_relations(self, n):
        zero = labelled([["0"] * n] * n, "x", "x")
        some = labelled(random_tokens(random.Random(n), n, n, 10), "x", "x")
        for P, Q in ((zero, zero), (zero, some), (some, zero)):
            assert all(v == FZERO for row in maxmin_compose(P, Q).values for v in row)
        assert transitive_closure(zero) == zero
        report = properties(zero)
        assert report.irreflexive is True and report.transitive is True
        assert dom_ran_height(zero).height == FZERO
        assert set(relational_join(zero, some).values()) == {FZERO}

    def test_one_by_one(self):
        for tok in ("0", "0.5", "0.5I", "1", "I"):
            R = labelled([[tok]], "x", "x")
            v = FuzzyNeutroValue.parse(tok)
            assert maxmin_compose(R, R).entry(0, 0) == v
            assert transitive_closure(R) == R
            assert dom_ran_height(R) == dom_ran_height(R) and dom_ran_height(R).height == v

    @pytest.mark.parametrize("n", [2, 12])
    def test_a_transitive_relation_closes_in_one_round(self, monkeypatch, n):
        # the cached codes are tuples; a round's result never equals them
        # unless the closure first copies them into lists
        from neutromap import relations

        rounds = []

        def counting(P, Q, decode):
            rounds.append(1)
            return compose(P, Q, decode)

        compose = relations._compose_codes
        monkeypatch.setattr(relations, "_compose_codes", counting)
        R = transitive_closure(labelled(random_tokens(random.Random(n), n, n, 10), "x", "x"))
        rounds.clear()
        assert transitive_closure(R) == R
        assert len(rounds) == 1

    def test_each_relation_is_encoded_once(self, monkeypatch):
        from neutromap import relations

        encoded = []

        def counting(grid):
            encoded.append(grid)
            return encode(grid)

        encode = relations._encode
        monkeypatch.setattr(relations, "_encode", counting)
        rng = random.Random(2)
        R = labelled(random_tokens(rng, 12, 12, 10), "x", "x")
        S = labelled(random_tokens(rng, 12, 12, 10, real_only=True), "x", "x")
        small = labelled(random_tokens(rng, 3, 3, 10), "x", "x")
        for _ in range(3):
            for P in (R, S, small):
                maxmin_compose(P, P)
                transitive_closure(P)
                properties(P)
                dom_ran_height(P)
            maxmin_compose(R, S)
            relational_join(R, S)
            relational_join(S, R)
        assert len(encoded) == 3
        assert {id(grid) for grid in encoded} == {id(R.values), id(S.values), id(small.values)}


class TestHomomorphism:
    def test_worked_map_holds(self):
        R = square(list("abcd"), goldens.HOMO_MATRIX)
        Q = square(["alpha", "beta", "gamma", "delta"], goldens.HOMO_MATRIX)
        holds, findings = check_homomorphism(goldens.HOMO_MAP, R, Q)
        assert holds is True and findings == []
        holds, findings = check_homomorphism(goldens.HOMO_MAP, R, Q, strong=True)
        assert holds is True

    def test_identity_map(self):
        R = square(list("ab"), [["0.2", "1"], ["0", "0.5"]])
        assert check_homomorphism({"a": "a", "b": "b"}, R, R)[0] is True

    def test_violation_reported(self):
        R = square(list("ab"), [["0", "1"], ["0", "0"]])
        Q = square(list("ab"), [["0", "0.5"], ["0", "0"]])
        holds, findings = check_homomorphism({"a": "a", "b": "b"}, R, Q)
        assert holds is False
        assert ("a", "b", "violated") in findings

    def test_indeterminate_comparison(self):
        R = square(list("ab"), [["0", "0.5"], ["0", "0"]])
        Q = square(list("ab"), [["0", "I"], ["0", "0"]])
        holds, findings = check_homomorphism({"a": "a", "b": "b"}, R, Q)
        assert holds is INDETERMINATE
        assert ("a", "b", "indeterminate") in findings

    def test_partial_map_rejected(self):
        R = square(list("ab"), [["0", "1"], ["0", "0"]])
        with pytest.raises(ValueError):
            check_homomorphism({"a": "a"}, R, R)
        with pytest.raises(NotFoundError):
            check_homomorphism({"a": "a", "b": "zz"}, R, R)
