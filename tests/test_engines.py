"""Unit tests for the cognitive-map inference engines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutromap.core import (
    I,
    NeutroMatrix,
    NeutroNumber,
    NotFoundError,
    ONE,
    ShapeError,
    SizeLimitError,
    ZERO,
    nm_mul,
    nm_rank,
)
from neutromap.engines import (
    ConceptModel,
    RelationalModel,
    balance,
    basis_state,
    cm_run,
    degrade,
    frm_convertible,
    link,
    parse_state,
    render_state,
    rm_run,
    threshold,
)

import neutromap.core as core
import neutromap.engines as engines
import goldens
import oracles


def nm(pairs):
    return NeutroMatrix(
        [[NeutroNumber(a, b) for a, b in row] for row in pairs]
    )


def concept_model(matrix, prefix="C", **kwargs):
    weights = nm(matrix) if isinstance(matrix[0][0], tuple) else NeutroMatrix(matrix)
    names = ["%s%d" % (prefix, i + 1) for i in range(weights.rows)]
    return ConceptModel(names, weights, **kwargs)


def relational_model(matrix):
    weights = nm(matrix) if isinstance(matrix[0][0], tuple) else NeutroMatrix(matrix)
    dom = ["D%d" % (i + 1) for i in range(weights.rows)]
    ran = ["R%d" % (j + 1) for j in range(weights.cols)]
    return RelationalModel(dom, ran, weights)


def as_pairs(values):
    """NeutroNumbers as (a, b) pairs, the oracles' representation."""
    return tuple((x.real, x.indet) for x in values)


def pair_rows(M):
    return [list(as_pairs(row)) for row in M]


class TestThreshold:
    def test_activation_table(self):
        assert threshold("2") == ONE
        assert threshold("1") == ONE
        assert threshold("2-6I") == ONE  # positive real part wins
        assert threshold("0") == ZERO
        assert threshold("-1") == ZERO
        assert threshold("-1+4I") == ZERO  # negative real part wins
        assert threshold("I") == I
        assert threshold("2I") == I
        assert threshold("-I") == ZERO

    def test_accepts_numbers_and_fractions(self):
        from fractions import Fraction

        assert threshold(3) == ONE
        assert threshold(Fraction(1, 2)) == ONE
        assert threshold(NeutroNumber(0, 5)) == I


class TestStates:
    def test_parse_render_round_trip(self):
        s = parse_state("1 I 0 1 1 0 0")
        assert s == (ONE, I, ZERO, ONE, ONE, ZERO, ZERO)
        assert render_state(s) == "1 I 0 1 1 0 0"

    def test_only_activations_allowed(self):
        with pytest.raises(ValueError) as exc:
            parse_state("1 2 0")
        assert str(exc.value) == "state entries must be 0, 1 or I; found 2"
        with pytest.raises(ValueError):
            parse_state("0.5")
        with pytest.raises(ValueError):
            parse_state("1 -I")

    def test_basis_state(self):
        assert basis_state(4, [0, 2]) == (ONE, ZERO, ONE, ZERO)
        assert basis_state(3, []) == (ZERO, ZERO, ZERO)
        with pytest.raises(ValueError):
            basis_state(3, [3])


class TestModelValidation:
    def test_concept_model_shape_and_names(self):
        with pytest.raises(ShapeError):
            ConceptModel(["A", "B"], NeutroMatrix([[0, 1, 0], [1, 0, 0]]))
        with pytest.raises(ValueError):
            ConceptModel(["A", "A"], NeutroMatrix([[0, 0], [0, 0]]))
        with pytest.raises(ValueError):
            ConceptModel(["A", "B C"], NeutroMatrix([[0, 0], [0, 0]]))
        with pytest.raises(ValueError) as exc:
            ConceptModel(["A", "B"], NeutroMatrix([[0, 2], [0, 0]]))
        assert str(exc.value) == "concept model weights must be -1, 0, 1 or I; found 2 at (1, 2)"
        with pytest.raises(ValueError):
            ConceptModel(
                ["A", "B"], NeutroMatrix([[0, 0], [0, 0]]), default_clamp=[2]
            )

    def test_concept_index(self):
        M = concept_model(goldens.CHILD_E)
        assert M.index("C1") == 0 and M.index("C7") == 6
        with pytest.raises(NotFoundError):
            M.index("C8")

    def test_relational_model_names_disjoint(self):
        with pytest.raises(ValueError):
            RelationalModel(["A", "B"], ["B"], NeutroMatrix([[0], [1]]))

    def test_relational_index(self):
        M = relational_model(goldens.EMPLOYER_E1)
        assert M.index("D3") == ("domain", 2)
        assert M.index("R5") == ("range", 4)
        with pytest.raises(NotFoundError):
            M.index("Q1")

    def test_equality(self):
        A = concept_model(goldens.CHILD_E)
        B = concept_model(goldens.CHILD_E)
        assert A == B and hash(A) == hash(B)
        assert A != concept_model(goldens.CHILD_E1)


class TestCmRun:
    def run_from_c1(self, matrix):
        model = concept_model(matrix)
        pattern, traj = cm_run(model, basis_state(model.size, [0]))
        return model, pattern, traj

    def test_child_crisp_maps(self):
        _, pattern, _ = self.run_from_c1(goldens.CHILD_E)
        assert pattern.kind == "fixed-point"
        assert render_state(pattern.states[0]) == goldens.CHILD_E_FIXED
        assert pattern.steps_to_enter <= 3

        _, pattern, _ = self.run_from_c1(goldens.CHILD_E1)
        assert render_state(pattern.states[0]) == goldens.CHILD_E1_FIXED

    def test_child_neutro_maps(self):
        _, pattern, _ = self.run_from_c1(goldens.CHILD_NE)
        assert pattern.kind == "fixed-point"
        assert render_state(pattern.states[0]) == goldens.CHILD_NE_FIXED
        assert pattern.steps_to_enter <= 3

        _, pattern, _ = self.run_from_c1(goldens.CHILD_NE1)
        assert render_state(pattern.states[0]) == goldens.CHILD_NE1_FIXED

    def test_child_neutro_raw_second_update(self):
        model, _, traj = self.run_from_c1(goldens.CHILD_NE)
        raw = nm_mul(NeutroMatrix([list(traj[1])]), model.weights)
        assert raw == nm([goldens.CHILD_NE_RAW_STEP2])

    def test_fixed_point_solves_the_update_equation(self):
        for matrix in (goldens.CHILD_E, goldens.CHILD_NE, goldens.CHILD_E1):
            model = concept_model(matrix)
            pattern, _ = cm_run(model, basis_state(model.size, [0]))
            s = as_pairs(pattern.states[0])
            raw = oracles.pmat_mul([list(s)], pair_rows(model.weights))[0]
            nxt = tuple(oracles.pair_threshold(x) for x in raw)
            clamped = tuple(
                (1, 0) if j == 0 else x for j, x in enumerate(nxt)
            )
            assert clamped == s

    def test_hacking_trajectory(self):
        model = concept_model(goldens.HACK_NE)
        pattern, traj = cm_run(model, basis_state(8, [6]))
        assert pattern.kind == "fixed-point"
        assert render_state(pattern.states[0]) == goldens.HACK_FIXED
        assert pattern.steps_to_enter == len(goldens.HACK_TRAJECTORY) - 1
        rendered = [render_state(s) for s in traj]
        assert rendered == goldens.HACK_TRAJECTORY + [goldens.HACK_FIXED]

    def test_hacking_verbatim_variant(self):
        rows = [list(r) for r in goldens.HACK_NE]
        rows[0][3] = goldens.HACK_NE_VERBATIM_14  # entry (1,4), counting from 1
        pattern, _ = cm_run(concept_model(rows), basis_state(8, [6]))
        assert render_state(pattern.states[0]) == goldens.HACK_VERBATIM_FIXED

    def test_limit_cycle_without_clamping(self):
        model = concept_model([[0, 1], [1, 0]])
        pattern, traj = cm_run(model, parse_state("1 0"), clamp=[])
        assert pattern.kind == "limit-cycle"
        assert [render_state(s) for s in pattern.states] == ["1 0", "0 1"]
        assert pattern.steps_to_enter == 0
        assert traj[-1] == traj[0]

    def test_clamp_precedence(self):
        zeros = [[0, 0], [0, 0]]
        s0 = parse_state("1 0")

        # explicit clamp argument wins
        model = concept_model(zeros, default_clamp=[1])
        pattern, _ = cm_run(model, s0, clamp=[0])
        assert render_state(pattern.states[0]) == "1 0"

        # then the model default
        pattern, _ = cm_run(model, s0)
        assert render_state(pattern.states[0]) == "0 1"

        # an explicit empty clamp disables clamping entirely
        pattern, _ = cm_run(model, s0, clamp=[])
        assert render_state(pattern.states[0]) == "0 0"

        # without either, the on-coordinates of s0 stay clamped
        pattern, _ = cm_run(concept_model(zeros), s0)
        assert render_state(pattern.states[0]) == "1 0"

    def test_state_validation(self):
        model = concept_model(goldens.CHILD_E)
        with pytest.raises(ShapeError):
            cm_run(model, parse_state("1 0"))
        with pytest.raises(ValueError):
            cm_run(model, (2, 0, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            cm_run(model, basis_state(7, [0]), clamp=[7])

    def test_transit_matches_crisp_oracle(self):
        model = concept_model(goldens.TRANSIT_E)
        for k in range(8):
            s0 = basis_state(8, [k])
            pattern, traj = cm_run(model, s0, clamp=[k])
            kind, states, otraj = oracles.crisp_fcm_run(
                goldens.TRANSIT_E, [1 if i == k else 0 for i in range(8)], {k}
            )
            assert pattern.kind == kind
            got = [tuple(int(str(x)) for x in s) for s in pattern.states]
            assert got == [tuple(s) for s in states]
            walked = [tuple(int(str(x)) for x in s) for s in traj[:-1]]
            assert walked == [tuple(s) for s in otraj]


WEIGHT_PAIRS = ((-1, 0), (0, 0), (1, 0), (0, 1))
ACTIVATION_PAIRS = ((0, 0), (1, 0), (0, 1))


def pair_matrix(rows, cols):
    row = st.lists(st.sampled_from(WEIGHT_PAIRS), min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows)


def pair_state(size):
    return st.lists(st.sampled_from(ACTIVATION_PAIRS), min_size=size, max_size=size)


def clamps(size):
    """None (clamp the start's on-coordinates), empty, or any index set."""
    return st.one_of(
        st.none(), st.just(frozenset()), st.frozensets(st.integers(0, size - 1))
    )


def pattern_pairs(pattern):
    return (
        pattern.kind, [as_pairs(s) for s in pattern.states], pattern.steps_to_enter
    )


class TestAgainstPairOracle:
    """Whole runs against oracles.pair_cm_run / pair_rm_run, which share no code
    with the engines' update (I weights, I starts, every clamp kind)."""

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_cm_run(self, data):
        n = data.draw(st.integers(1, 7))
        W = data.draw(pair_matrix(n, n))
        s0 = data.draw(pair_state(n))
        default, clamp = data.draw(clamps(n)), data.draw(clamps(n))
        model = concept_model(W, default_clamp=default)
        pattern, traj = cm_run(model, [NeutroNumber(*x) for x in s0], clamp)
        expect, walk = oracles.pair_cm_run(
            W, s0, default if clamp is None else clamp
        )
        assert [as_pairs(s) for s in traj] == walk
        assert pattern_pairs(pattern) == expect

    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 7), st.integers(1, 7), st.data())
    def test_rm_run(self, m, n, data):
        W = data.draw(pair_matrix(m, n))
        side = data.draw(st.sampled_from(("domain", "range")))
        size = m if side == "domain" else n
        s0 = data.draw(pair_state(size))
        clamp = data.draw(clamps(size))
        result = rm_run(
            relational_model(W), [NeutroNumber(*x) for x in s0], side, clamp
        )
        domain, rng, walk = oracles.pair_rm_run(W, s0, side, clamp)
        assert [(as_pairs(X), as_pairs(Y)) for X, Y in result.trajectory] == walk
        assert pattern_pairs(result.domain) == domain
        assert pattern_pairs(result.range) == rng


class TestSplitOnce:
    """W is split once per matrix (its columns, and for rm_run its rows too),
    however many runs from however many starts read it; every other split is
    of a one-row state.  `link` too splits each operand once."""

    @pytest.fixture
    def splits(self, monkeypatch):
        calls = []
        split = core._split

        def recording(rows):
            rows = tuple(tuple(r) for r in rows)
            calls.append(rows)
            return split(rows)

        monkeypatch.setattr(core, "_split", recording)
        monkeypatch.setattr(engines, "_split", recording)
        return calls

    @staticmethod
    def weight_splits(calls, W):
        kinds = {tuple(zip(*W)): "columns", tuple(W): "rows"}
        assert len(kinds) == 2  # W is not symmetric, so the two are told apart
        assert all(len(rows) == 1 or rows in kinds for rows in calls)
        return sorted(kinds[rows] for rows in calls if rows in kinds)

    def test_cm_run_splits_w_once(self, splits):
        model = concept_model(goldens.HACK_NE)
        pattern, _ = cm_run(model, basis_state(8, [6]))
        assert pattern.steps_to_enter == 4
        steps = set()
        for start in range(8):
            for clamp in (None, ()):
                _, traj = cm_run(model, basis_state(8, [start]), clamp)
                steps.add(len(traj) - 1)
        assert min(steps) == 1 and max(steps) >= 5
        assert self.weight_splits(splits, model.weights) == ["columns"]
        # another matrix with the same entries keeps a split of its own
        twin = concept_model(goldens.HACK_NE)
        cm_run(twin, basis_state(8, [6]))
        assert self.weight_splits(splits, model.weights) == ["columns", "columns"]

    def test_rm_run_splits_rows_and_columns_once(self, splits):
        model = relational_model(goldens.HACK_NE)
        steps = set()
        for side in ("domain", "range"):
            for start in range(8):
                result = rm_run(model, basis_state(8, [start]), side)
                steps.add(len(result.trajectory) - 1)
        assert min(steps) == 1 and max(steps) >= 4
        assert self.weight_splits(splits, model.weights) == ["columns", "rows"]
        # a product and a rank of W read the same two splits
        calls = len(splits)
        nm_mul(model.weights, model.weights)
        nm_rank(model.weights)
        assert len(splits) == calls

    def test_link_scales_each_operand_once(self, splits):
        """One link splits A's columns (as its transpose's rows) and B's columns
        once each; a column split A has already built, its transpose carries."""
        A, B = nm(goldens.LINK_NE1), nm(goldens.LINK_NE2)  # 7x4, 7x5: through A's transpose
        raw, _ = link([A, B])
        assert raw == nm(goldens.LINK_RAW)
        assert splits == [tuple(zip(*A)), tuple(zip(*B))]
        A, B = nm(goldens.LINK_NE1), nm(goldens.LINK_NE2)
        A._split_cols()
        del splits[:]
        assert link([A, B])[0] == raw and splits == [tuple(zip(*B))]


class TestDegrade:
    def test_replaces_indeterminate_weights(self):
        model = concept_model(goldens.CHILD_NE)
        plain = degrade(model)
        assert plain.concept_names == model.concept_names
        for i in range(7):
            for j in range(7):
                w = model.weights.entry(i, j)
                expect = ZERO if w == I else w
                assert plain.weights.entry(i, j) == expect

    def test_hacking_degraded_run(self):
        plain = degrade(concept_model(goldens.HACK_NE))
        pattern, _ = cm_run(plain, basis_state(8, [6]))
        assert render_state(pattern.states[0]) == goldens.HACK_DEGRADED_FIXED


class TestRmRun:
    def test_employer_from_domain(self):
        model = relational_model(goldens.EMPLOYER_E1)
        result = rm_run(model, basis_state(8, [0]))
        assert result.domain.kind == "fixed-point"
        assert result.range.kind == "fixed-point"
        assert render_state(result.domain.states[0]) == goldens.EMPLOYER_DOMAIN_FIXED
        assert render_state(result.range.states[0]) == goldens.EMPLOYER_RANGE_FIXED

    def test_employer_from_range(self):
        model = relational_model(goldens.EMPLOYER_E1)
        result = rm_run(model, basis_state(5, [4]), side="range")
        assert render_state(result.domain.states[0]) == goldens.EMPLOYER_DOMAIN_FIXED
        assert render_state(result.range.states[0]) == goldens.EMPLOYER_RANGE_FIXED

    def test_infant_from_domain(self):
        model = relational_model(goldens.INFANT_NR)
        result = rm_run(model, basis_state(7, [0]))
        assert render_state(result.domain.states[0]) == goldens.INFANT_DOMAIN_FIXED
        assert render_state(result.range.states[0]) == goldens.INFANT_RANGE_FIXED

    def test_trajectory_starts_with_clamped_pair(self):
        model = relational_model(goldens.EMPLOYER_E1)
        result = rm_run(model, basis_state(8, [0]))
        X0, Y0 = result.trajectory[0]
        assert render_state(X0) == "1 0 0 0 0 0 0 0"
        assert render_state(Y0) == "0 0 0 0 0"
        assert result.trajectory[-1] in result.trajectory[:-1]

    def test_validation(self):
        model = relational_model(goldens.EMPLOYER_E1)
        with pytest.raises(ValueError):
            rm_run(model, basis_state(8, [0]), side="sideways")
        with pytest.raises(ShapeError):
            rm_run(model, basis_state(5, [0]))  # range-sized start on domain
        with pytest.raises(ShapeError):
            rm_run(model, basis_state(8, [0]), side="range")


class TestLink:
    def test_shared_domain_chain(self):
        raw, signed = link([nm(goldens.LINK_NE1), nm(goldens.LINK_NE2)])
        assert raw == nm(goldens.LINK_RAW)
        assert signed == nm(goldens.LINK_SIGNED)

    def test_direct_product_when_conformable(self):
        A = NeutroMatrix([[1, 0, 1], [0, 1, 0]])
        B = NeutroMatrix([[1, 0], [0, 1], [1, 1]])
        raw, signed = link([A, B])
        assert pair_rows(raw) == oracles.pmat_mul(pair_rows(A), pair_rows(B))
        assert signed.entry(0, 0) == ONE  # 2 thresholds to 1

    def test_sign_threshold_keeps_indeterminacy(self):
        A = NeutroMatrix([[NeutroNumber(0, -2), NeutroNumber(-3, 1)]])
        _, signed = link([A])
        assert signed.entry(0, 0) == I
        assert signed.entry(0, 1) == NeutroNumber(-1)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            link([])
        with pytest.raises(ShapeError):
            link([NeutroMatrix([[1, 0]]), NeutroMatrix([[1], [2], [3]])])


class TestBalance:
    def test_consistent_triangle_is_balanced(self):
        W = [[0, 1, 1], [0, 0, 1], [0, 0, 0]]
        flag, witness = balance(concept_model(W))
        assert flag and witness is None

    def test_sign_conflict_is_reported(self):
        W = [[0, 1, -1], [0, 0, 1], [0, 0, 0]]
        flag, witness = balance(concept_model(W))
        assert not flag
        (u, v), (path1, sign1), (path2, sign2) = witness
        assert (u, v) == (0, 2)
        assert {sign1, sign2} == {"+1", "-1"}
        assert path1[0] == path2[0] == 0 and path1[-1] == path2[-1] == 2

    def test_indeterminate_against_determinate_conflicts(self):
        W = [[(0, 0), (0, 1), (1, 0)], [(0, 0), (0, 0), (1, 0)], [(0, 0), (0, 0), (0, 0)]]
        flag, witness = balance(concept_model(W))
        assert not flag
        (_, v), (_, sign1), (_, sign2) = witness
        assert v == 2
        assert "I" in (sign1, sign2)

    def test_size_guard(self):
        ring = [[1 if j == (i + 1) % 13 else 0 for j in range(13)] for i in range(13)]
        with pytest.raises(SizeLimitError, match="^balance guard: 13 concepts exceeds 12$"):
            balance(concept_model(ring))


class TestFrmConvertible:
    def test_child_neutro_map_is_not(self):
        flag, obstruction = frm_convertible(concept_model(goldens.CHILD_NE))
        assert flag is goldens.CHILD_NE_FRM_CONVERTIBLE is False
        cycle = tuple(obstruction)
        assert len(cycle) % 2 == 1

    def test_bipartite_support_splits(self):
        W = [
            [0, 0, 1, 1],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ]
        flag, (left, right) = frm_convertible(concept_model(W))
        assert flag
        assert sorted(tuple(left) + tuple(right)) == [0, 1, 2, 3]
        assert {0, 1} <= set(left) or {0, 1} <= set(right)

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_against_odd_cycle_oracle(self, data):
        """Any nonzero weight, I and -1 included, is an edge of the support."""
        n = data.draw(st.integers(1, 7))
        only_i = data.draw(st.booleans())  # a support made only of I weights
        diagonal = data.draw(st.booleans())
        nonzero = [(0, 1)] if only_i else [(1, 0), (-1, 0), (0, 1)]
        zeros = data.draw(st.integers(1, 8))  # sparse supports stay bipartite
        entry = st.sampled_from([(0, 0)] * zeros + nonzero)
        W = [
            [data.draw(entry) if diagonal or i != j else (0, 0) for j in range(n)]
            for i in range(n)
        ]
        edges = {(i, j) for i in range(n) for j in range(n) if W[i][j] != (0, 0)}
        flag, witness = frm_convertible(concept_model(W))
        if any(i == j for i, j in edges):
            assert flag is False
            return
        assert flag is (not oracles.odd_cycle_exists(n, edges))
        if flag:
            left, right = (set(part) for part in witness)
            assert left | right == set(range(n)) and not left & right
            assert all((i in left) != (j in left) for i, j in edges)
