import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arcdesign import (
    AugmentedDesign,
    ContractionDesign,
    SearchConfig,
    augment,
    balanced_replication,
    e_aug_direct,
    e_aug_formula,
    extract_contraction,
    feasibility_df,
    incidence,
    parse_design,
    random_contraction,
    search_contraction,
    validate_augmented,
    validate_contraction,
)
from arcdesign.designs import _repeats
from arcdesign.errors import InfeasibleParametersError, InvalidDesignError, ParseError
from arcdesign.reference import load_reference_design

from oracles import (
    concurrence_by_enumeration,
    image_of_valid_contraction_by_loops,
    repeats_by_unique,
    validate_augmented_with_r,
    validate_contraction_with_r,
)


class TestValidateContraction:
    def test_reference_contraction_is_valid(self, ex1_contraction):
        assert validate_contraction(ex1_contraction).ok

    def test_reference_contraction_24x16_is_valid(self, ex2_contraction):
        assert validate_contraction(ex2_contraction).ok

    def test_mutated_cell_reports_column_and_replication(self, ex1_contraction):
        cells = ex1_contraction.cells.copy()
        cells[0, 0] = 12  # was 3; 12 already sits at (2, 1)
        mutant = ContractionDesign(12, cells)
        report = validate_contraction(mutant)
        assert not report.ok
        assert any("column 1 non-binary" in v and "12" in v for v in report.violations)
        moved = np.zeros(12, dtype=np.int64)
        moved[[2, 11]] = -1, 1
        assert np.array_equal(mutant.r - ex1_contraction.r, moved)
        assert "replication spread exceeds 1 (min 1, max 3)" in report.violations

    def test_latin_square_is_valid(self, latin3):
        assert validate_contraction(latin3).ok

    def test_row_duplicate_is_reported(self):
        c = ContractionDesign.from_cells(np.array([[1, 2, 1, 3], [2, 3, 4, 1]]), v=4)
        report = validate_contraction(c)
        assert any("row 1 non-binary" in v for v in report.violations)

    def test_repeat_messages_and_order(self):
        # columns first, then rows, each in index order, every position listed
        c = ContractionDesign.from_cells([[1, 1, 2, 1], [2, 3, 3, 4], [2, 4, 1, 4]], v=4)
        assert validate_contraction(c).violations == (
            "column 1 non-binary: label 2 occurs 2 times (rows 2, 3)",
            "column 4 non-binary: label 4 occurs 2 times (rows 2, 3)",
            "row 1 non-binary: label 1 occurs 3 times (columns 1, 2, 4)",
            "row 2 non-binary: label 3 occurs 2 times (columns 2, 3)",
            "row 3 non-binary: label 4 occurs 2 times (columns 2, 4)",
            "replication spread exceeds 1 (min 2, max 4)",
        )

    @given(shape=st.tuples(st.integers(1, 8), st.integers(1, 12)), top=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_repeats_match_the_line_by_line_oracle(self, shape, top, seed):
        rng = np.random.default_rng(seed)
        # labels drawn with replacement repeat often when top is small; rows
        # of distinct labels (where there are enough) repeat nowhere
        for lines in (rng.integers(1, top + 1, size=shape),
                      np.array([rng.permutation(max(top, shape[1]))[: shape[1]] + 1
                                for _ in range(shape[0])])):
            for view in (lines, lines.T):
                assert _repeats(view, "row", "columns") == repeats_by_unique(view, "row", "columns")

    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 10)), v=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), distinct=st.booleans(), stray=st.integers(0, 3),
           v_from_labels=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_derived_r_validates_as_a_stored_r_did(self, shape, v, seed, distinct, stray,
                                                    v_from_labels):
        # Labels drawn with replacement repeat and leave labels out; rows of
        # distinct labels can be valid; stray cells fall outside 1..v.  Sizes
        # are drawn freely, so many break the size rule.
        rng = np.random.default_rng(seed)
        k, s = shape
        if distinct:
            cells = np.array([rng.permutation(max(v, s))[:s] + 1 for _ in range(k)])
        else:
            cells = rng.integers(1, v + 1, size=shape)
        for _ in range(stray):
            cells[rng.integers(k), rng.integers(s)] = rng.choice([-1, 0, v + 1, v + 7])
        if v_from_labels:
            assume(cells.max() >= 1)
            c = ContractionDesign.from_cells(cells)
        else:
            c = ContractionDesign.from_cells(cells, v)
        in_range = cells[(cells >= 1) & (cells <= c.v)]
        assert np.array_equal(c.r, np.bincount(in_range, minlength=c.v + 1)[1:])
        assert validate_contraction(c).violations == validate_contraction_with_r(cells, c.v, c.r)

    def test_v_smaller_than_s_is_reported(self):
        c = ContractionDesign(3, np.array([[1, 2, 3, 1], [2, 3, 1, 2]]))
        report = validate_contraction(c)
        assert any("pseudo-treatments as columns" in v for v in report.violations)

    def test_label_out_of_range(self):
        c = ContractionDesign(3, np.array([[1, 2, 3], [4, 3, 1]]))
        report = validate_contraction(c)
        assert any("outside 1..3" in v for v in report.violations)

    def test_infeasible_dimensions_reported(self):
        # (v=10, s=3, k=2) has residual df -7; label 1 occurs twice and labels 6..10 never
        cells = np.array([[1, 2, 3], [4, 1, 5]])
        c = ContractionDesign(10, cells)
        report = validate_contraction(c)
        assert any("degrees of freedom" in v for v in report.violations)
        assert any("spread" in v for v in report.violations)


#: One size for each size rule, with the rule's message.
_BAD_SIZES = [
    ((1, 1, 1), "needs at least 2 pseudo-treatments (v=1)"),
    ((8, 12, 3), "needs at least as many pseudo-treatments as columns (v=8 < s=12)"),
    ((10, 3, 2), "(v=10, s=3, k=2) leaves -7 residual degrees of freedom; need >= 0"),
    ((1, 1, 0), "v, k, s must all be positive"),
    ((12, 8, 13), "k=13 checks cannot be column-distinct among v=12 labels"),
]


@pytest.mark.parametrize("dims, message", _BAD_SIZES)
class TestSizeRule:
    """Every entry point refuses a bad (v, s, k) with the one size rule's message."""

    def test_require_feasible(self, dims, message):
        v, s, k = dims
        with pytest.raises(InfeasibleParametersError) as raised:
            balanced_replication(v, k, s)
        assert str(raised.value) == message

    def test_search_contraction(self, dims, message):
        with pytest.raises(InfeasibleParametersError) as raised:
            search_contraction(*dims, SearchConfig(restarts=1, max_iters=10))
        assert str(raised.value) == message

    def test_parse_design_header(self, dims, message):
        v, s, k = dims
        body = "\n".join(",".join(["1"] * s) for _ in range(k))
        with pytest.raises(ParseError) as raised:
            parse_design(f"# contraction v={v} s={s} k={k}\n{body}\n")
        assert str(raised.value) == f"header: {message} (line 1)"

    def test_parse_augmented_header(self, dims, message):
        v, s, k = dims
        body = "\n".join(",".join(["1"] * s) for _ in range(v))
        with pytest.raises(ParseError) as raised:
            parse_design(f"# augmented v={v} s={s} k={k}\n{body}\n")
        assert str(raised.value) == f"header: {message} (line 1)"

    def test_validate_contraction_reports_it_first(self, dims, message):
        v, s, k = dims
        c = ContractionDesign.from_cells(np.ones((k, s), dtype=np.int64), v=v)
        assert validate_contraction(c).violations[0] == message


_LATIN3 = [[1, 2, 3], [2, 3, 1], [3, 1, 2]]

#: A call with a size that is no integer, the error it raises and the argument it names.
_NOT_COUNTS = {
    "search_contraction k=3.0": (lambda: search_contraction(12, 8, 3.0), InfeasibleParametersError,
                                 "k must be an integer, got 3.0"),
    "search_contraction v=12.0": (lambda: search_contraction(12.0, 8, 3), InfeasibleParametersError,
                                  "v must be an integer, got 12.0"),
    "balanced_replication s=True": (lambda: balanced_replication(12, 3, True),
                                    InfeasibleParametersError, "s must be an integer, got True"),
    "random_contraction s=8.0": (lambda: random_contraction(12, 8.0, 3), InfeasibleParametersError,
                                 "s must be an integer, got 8.0"),
    "e_aug_formula k=True": (lambda: e_aug_formula(75, 12, 8, True, 0.5739, 0.4828), ValueError,
                             "k must be an integer, got True"),
    "e_aug_formula v_star=75.5": (lambda: e_aug_formula(75.5, 12, 8, 3, 0.5739, 0.4828),
                                  ValueError, "v_star must be an integer, got 75.5"),
    "ContractionDesign v=3.0": (lambda: ContractionDesign(3.0, _LATIN3), ValueError,
                                "v must be an integer, got 3.0"),
    "ContractionDesign v=True": (lambda: ContractionDesign(True, [[1]]), ValueError,
                                 "v must be an integer, got True"),
    "AugmentedDesign k=3.0": (lambda: AugmentedDesign(3.0, np.ones((4, 2))), ValueError,
                              "k must be an integer, got 3.0"),
}


class TestCountRule:
    """A size is an integer, Python's or numpy's, and a bool is none; every entry says so."""

    @pytest.mark.parametrize("call, error, message", _NOT_COUNTS.values(), ids=list(_NOT_COUNTS))
    def test_a_size_that_is_no_integer_is_named(self, call, error, message):
        with pytest.raises(error) as raised:
            call()
        assert str(raised.value) == message

    def test_it_is_reported_before_the_other_size_violations(self):
        with pytest.raises(InfeasibleParametersError) as raised:
            balanced_replication(1.5, 1, "1")
        assert str(raised.value) == "v must be an integer, got 1.5; s must be an integer, got '1'"

    def test_numpy_integer_sizes_accepted(self, ex1_augmented):
        assert ContractionDesign(np.int64(3), _LATIN3) == ContractionDesign(3, _LATIN3)
        assert AugmentedDesign(np.int32(3), ex1_augmented.cells) == ex1_augmented
        sizes = [np.int64(75), np.int32(12), np.uint8(8), np.int16(3)]
        assert (e_aug_formula(*sizes, 0.5739, 0.4828)
                == e_aug_formula(75, 12, 8, 3, 0.5739, 0.4828))


#: Sizes for the properties below; (3,3,2) has no test lines and (12,8,3) is the reference size.
_AUGMENT_SIZES = [(3, 3, 2), (6, 4, 3), (10, 5, 4), (12, 8, 3), (15, 10, 3)]

#: Ways ``_mutant`` changes an augmented design.
_MUTATIONS = ["none", "relabel", "held-row", "other-column", "any-swap"]


def _mutant(size, seed: int, mutation: str):
    """A random contraction and a mutant of the cells of its augmented design.

    Test lines relabelled (still an image), a check moved within its column
    into a row that holds it in another column, a check swapped with a test
    line of another column, or any two cells swapped.
    """
    c = random_contraction(*size, seed=seed)
    rng = np.random.default_rng(seed)
    cells = augment(c).cells.copy()
    v, s = cells.shape
    n_test = cells.size - c.k * s
    check = n_test + 1 + int(rng.integers(c.k))
    j, other = rng.choice(s, size=2, replace=False)
    row = int(np.flatnonzero(cells[:, j] == check)[0])
    if mutation == "relabel":
        tests = cells <= n_test
        cells[tests] = rng.permutation(cells[tests])
    elif mutation == "held-row":
        target = int(np.flatnonzero(cells[:, other] == check)[0])
        cells[[row, target], j] = cells[[target, row], j]
    elif mutation == "other-column":
        lines = np.flatnonzero(cells[:, other] <= n_test)
        assume(len(lines) > 0)
        target = int(rng.choice(lines))
        cells[row, j], cells[target, other] = cells[target, other], cells[row, j]
    elif mutation == "any-swap":
        (r1, c1), (r2, c2) = rng.integers((v, s), size=(2, 2))
        cells[r1, c1], cells[r2, c2] = cells[r2, c2], cells[r1, c1]
    return c, cells


class TestValidateAugmented:
    def test_violation_messages_and_order(self, ex1_contraction):
        # check counts by column then label, then test lines by label
        cells = load_reference_design("augmented_12x8_k3").cells.copy()
        cells[2, 0] = cells[6, 0]  # check 75 twice in column 1, check 73 gone
        cells[0, 2] = 74  # check 74 twice in column 3, test line 19 gone
        cells[11, 4] = 5  # test line 5 twice, test line 45 gone
        report = validate_augmented(AugmentedDesign(k=3, cells=cells), r=ex1_contraction.r)
        assert report.violations == (
            "column 1 has check 73 0 times (expected once)",
            "column 1 has check 75 2 times (expected once)",
            "column 3 has check 74 2 times (expected once)",
            "test line 5 occurs 2 times (expected once)",
            "test line 19 occurs 0 times (expected once)",
            "test line 45 occurs 0 times (expected once)",
        )

    def test_wrong_r_gets_the_replication_mismatches(self, ex1_augmented, ex1_contraction):
        r = ex1_contraction.r.copy()
        r[0], r[1] = 3, 1
        assert validate_augmented(ex1_augmented, r=r).violations == (
            "generating contraction: replication mismatch for label 1: r says 3, cells contain 2",
            "generating contraction: replication mismatch for label 2: r says 1, cells contain 2",
        )

    def test_check_repeated_in_a_row_is_rejected(self):
        # check 5 twice in row 1: the generating contraction [[1, 1], [2, 3]] repeats label 1
        a = AugmentedDesign(k=2, cells=[[5, 5], [6, 1], [2, 6], [3, 4]])
        assert validate_augmented(a).violations == (
            "generating contraction: (v=4, s=2, k=2) leaves -2 residual degrees of freedom; "
            "need >= 0",
            "check 5 occurs 2 times in row 1 (columns 1, 2)",
            "generating contraction: replication spread exceeds 1 (min 0, max 2)",
        )
        for use in (extract_contraction, e_aug_direct):
            with pytest.raises(InvalidDesignError, match="check 5 occurs 2 times in row 1"):
                use(a)

    @given(size=st.sampled_from(_AUGMENT_SIZES), seed=st.integers(0, 2**32 - 1),
           mutation=st.sampled_from(_MUTATIONS))
    @example(size=(12, 8, 3), seed=0, mutation="held-row")
    @settings(max_examples=150, deadline=None)
    def test_valid_exactly_when_the_image_of_a_valid_contraction(self, size, seed, mutation):
        c, cells = _mutant(size, seed, mutation)
        ok = validate_augmented(AugmentedDesign(k=c.k, cells=cells)).ok
        assert ok == image_of_valid_contraction_by_loops(cells, c.k)
        if mutation in ("none", "relabel"):
            assert ok
        elif mutation in ("held-row", "other-column"):
            assert not ok

    @given(size=st.sampled_from(_AUGMENT_SIZES), seed=st.integers(0, 2**32 - 1),
           mutation=st.sampled_from(_MUTATIONS))
    @example(size=(12, 8, 3), seed=0, mutation="held-row")
    @settings(max_examples=150, deadline=None)
    def test_messages_match_the_rules_on_a_stored_r(self, size, seed, mutation):
        c, cells = _mutant(size, seed, mutation)
        a = AugmentedDesign(k=c.k, cells=cells)
        own = validate_augmented_with_r(cells, c.k)
        assert validate_augmented(a).violations == own
        # with the searched r given, the spread is still judged on the array's own counts
        with_r = validate_augmented_with_r(cells, c.k, c.r)
        assert validate_augmented(a, r=c.r).violations == (
            *(m for m in with_r if "spread" not in m), *(m for m in own if "spread" in m))


class TestIncidence:
    def test_row_sums_equal_replication(self, ex1_contraction):
        inc = incidence(ex1_contraction)
        assert np.array_equal(inc.n_c.sum(axis=1), np.full(12, 2.0))

    def test_column_sums_equal_k(self, ex1_contraction):
        inc = incidence(ex1_contraction)
        assert np.array_equal(inc.n_c.sum(axis=0), np.full(8, 3.0))

    def test_latin_square_concurrence_matches_enumeration(self, latin3):
        inc = incidence(latin3)
        oracle = concurrence_by_enumeration(latin3.cells, 3)
        assert np.array_equal(inc.w, oracle)
        # every pair of labels meets in every one of the 3 rows
        assert np.array_equal(oracle, 3 * np.ones((3, 3), dtype=np.int64))

    def test_invalid_input_rejected(self):
        c = ContractionDesign.from_cells(np.array([[1, 1], [2, 2]]), v=2)
        with pytest.raises(InvalidDesignError):
            incidence(c)

    def test_incidence_invariants_on_random_designs(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            v = int(rng.integers(4, 15))
            s = int(rng.integers(3, min(v, 9) + 1))
            k = int(rng.integers(2, 6))
            if k > v or feasibility_df(v, s, k) < 0:
                continue
            c = random_contraction(v, s, k, seed=int(rng.integers(1 << 32)))
            inc = incidence(c)
            assert np.array_equal(inc.n_c @ np.ones(s), c.r)
            assert np.array_equal(np.ones(v) @ inc.n_c, np.full(s, k))
            assert np.array_equal(np.diag(inc.w), c.r)
            assert set(np.unique(inc.n_r)) <= {0.0, 1.0}
            assert set(np.unique(inc.n_c)) <= {0.0, 1.0}
            for (i, j), label in np.ndenumerate(c.cells):
                assert inc.n_r[label - 1, i] == inc.n_c[label - 1, j] == 1.0
            assert np.array_equal(inc.w, concurrence_by_enumeration(c.cells, v))


class TestBalancedReplication:
    def test_equal_case_12(self):
        assert np.array_equal(balanced_replication(12, 3, 8), np.full(12, 2))

    def test_unequal_case_24(self):
        r = balanced_replication(24, 5, 16)
        assert np.array_equal(r, np.array([4] * 8 + [3] * 16))

    def test_tiny_equal_case(self):
        assert np.array_equal(balanced_replication(4, 2, 4), np.full(4, 2))

    def test_infeasible_raises_with_deficit(self):
        with pytest.raises(InfeasibleParametersError, match="-7"):
            balanced_replication(10, 2, 3)

    @given(
        v=st.integers(min_value=2, max_value=40),
        k=st.integers(min_value=2, max_value=8),
        s=st.integers(min_value=2, max_value=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_sum_and_spread(self, v, k, s):
        if k > v or feasibility_df(v, s, k) < 0:
            return
        try:
            r = balanced_replication(v, k, s)
        except InfeasibleParametersError:
            # only the size rule's s <= v may fire here; it also keeps every
            # entry at most min(k, s), so a binary array can hold r
            assert s > v
            return
        assert int(r.max()) <= min(k, s)
        assert int(r.sum()) == k * s
        assert int(r.max()) - int(r.min()) <= 1
        # larger values always lead
        assert all(r[i] >= r[i + 1] for i in range(v - 1))


class TestFeasibilityDf:
    @pytest.mark.parametrize(
        "v,s,k,expected", [(12, 8, 3, 3), (24, 16, 5, 37), (10, 3, 2, -7)]
    )
    def test_values(self, v, s, k, expected):
        assert feasibility_df(v, s, k) == expected


class TestDesignValue:
    def test_equality_and_hash(self, ex1_contraction):
        clone = ContractionDesign(12, ex1_contraction.cells.copy())
        assert clone == ex1_contraction
        assert hash(clone) == hash(ex1_contraction)

    def test_cells_are_read_only(self, ex1_contraction):
        with pytest.raises(ValueError):
            ex1_contraction.cells[0, 0] = 1

    def test_r_is_derived_once_and_read_only(self, ex1_contraction):
        with pytest.raises(TypeError):
            ContractionDesign(v=12, cells=ex1_contraction.cells, r=ex1_contraction.r)
        c = ContractionDesign(12, ex1_contraction.cells)
        assert c.r is c.r
        assert np.array_equal(c.r, np.full(12, 2))
        with pytest.raises(ValueError):
            c.r[0] = 3

    def test_validate_augmented_rejects_an_r_of_the_wrong_length(self, ex1_augmented):
        with pytest.raises(ValueError, match=r"r has shape \(11,\), expected \(12,\)"):
            validate_augmented(ex1_augmented, r=np.full(11, 2))

    def test_an_r_of_the_wrong_length_raises_on_an_invalid_array_too(self, ex1_augmented):
        cells = ex1_augmented.cells.copy()
        cells[11, 4] = 5  # test line 5 twice, test line 45 gone
        invalid = AugmentedDesign(k=3, cells=cells)
        assert not validate_augmented(invalid).ok
        for a in (ex1_augmented, invalid):
            with pytest.raises(ValueError, match=r"r has shape \(1,\), expected \(12,\)"):
                validate_augmented(a, r=[1])
