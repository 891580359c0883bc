import numpy as np
import pytest

from arcdesign import (
    AugmentedDesign,
    ContractionDesign,
    augment,
    extract_contraction,
    feasibility_df,
    random_contraction,
    validate_augmented,
)
from arcdesign.errors import InvalidDesignError

from oracles import augmented_cells_by_loops


class TestAugment:
    def test_reference_12x8_cell_for_cell(self, ex1_contraction, ex1_augmented):
        assert np.array_equal(augment(ex1_contraction).cells, ex1_augmented.cells)

    def test_reference_24x16_cell_for_cell(self, ex2_contraction, ex2_augmented):
        assert np.array_equal(augment(ex2_contraction).cells, ex2_augmented.cells)

    def test_placement_rule_spot_checks(self, ex1_contraction):
        a = augment(ex1_contraction)
        # contraction (1,1)=3 puts check 73 at augmented (3,1), and so on
        assert a.cells[2, 0] == 73
        assert a.cells[11, 0] == 74
        assert a.cells[6, 0] == 75
        # column 1 test lines are 1..9 top-down
        col1 = [x for x in a.cells[:, 0] if x <= 72]
        assert col1 == list(range(1, 10))

    def test_degenerate_no_test_lines(self, latin3):
        a = augment(latin3)
        assert a.n_test_lines == 0
        assert sorted(np.unique(a.cells)) == [1, 2, 3]
        assert validate_augmented(a, r=latin3.r).ok

    def test_invalid_contraction_rejected(self):
        bad = ContractionDesign.from_cells(np.array([[1, 1], [2, 2]]), v=2)
        with pytest.raises(InvalidDesignError):
            augment(bad)


class TestExtractContraction:
    def test_round_trip_reference(self, ex1_contraction):
        assert extract_contraction(augment(ex1_contraction)) == ex1_contraction

    def test_printed_augmented_recovers_printed_contraction(
        self, ex2_augmented, ex2_contraction
    ):
        assert extract_contraction(ex2_augmented) == ex2_contraction

    def test_missing_check_raises(self, ex1_augmented):
        cells = ex1_augmented.cells.copy()
        cells[2, 0] = 1  # overwrite check 73 in column 1
        broken = AugmentedDesign(k=3, cells=cells)
        with pytest.raises(InvalidDesignError, match="column 1 has check 73 0 times"):
            extract_contraction(broken)

    def test_duplicate_check_raises(self, ex1_augmented):
        cells = ex1_augmented.cells.copy()
        cells[0, 0] = 73  # second 73 in column 1
        broken = AugmentedDesign(k=3, cells=cells)
        with pytest.raises(InvalidDesignError, match="column 1 has check 73 2 times"):
            extract_contraction(broken)

    def test_broken_test_line_layout_raises(self, ex1_augmented):
        cells = ex1_augmented.cells.copy()
        cells[1, 0] = cells[0, 0]  # test line 1 twice, test line 2 lost; every check in place
        broken = AugmentedDesign(k=3, cells=cells)
        with pytest.raises(InvalidDesignError, match="test line 1 occurs 2 times"):
            extract_contraction(broken)


class TestStructuralProperties:
    def test_round_trip_and_invariants_on_random_contractions(self):
        rng = np.random.default_rng(77)
        done = 0
        while done < 40:
            k = int(rng.integers(2, 6))
            s = int(rng.integers(3, 10))
            v = int(rng.integers(s, 18))
            if k > v or feasibility_df(v, s, k) < 0:
                continue
            c = random_contraction(v, s, k, seed=int(rng.integers(1 << 32)))
            a = augment(c)
            assert np.array_equal(a.cells, augmented_cells_by_loops(c.cells - 1, v))
            assert validate_augmented(a, r=c.r).ok
            assert extract_contraction(a) == c
            done += 1

    def test_fill_of_any_check_rows_matches_loop_oracle(self):
        for v, s, k in [(3, 3, 2), (6, 4, 3), (12, 8, 3), (24, 16, 5), (48, 32, 6)]:
            for seed in range(10):
                c = random_contraction(v, s, k, seed=seed)
                assert np.array_equal(augment(c).cells, augmented_cells_by_loops(c.cells - 1, v))

    def test_each_check_once_per_column(self, ex2_contraction):
        a = augment(ex2_contraction)
        for j in range(a.s):
            col = a.cells[:, j]
            for check in a.check_labels:
                assert np.count_nonzero(col == check) == 1

    def test_row_check_counts_match_replication(self, ex2_contraction):
        a = augment(ex2_contraction)
        is_check = a.cells > a.n_test_lines
        assert np.array_equal(is_check.sum(axis=1), ex2_contraction.r)

    def test_test_lines_each_once(self, ex1_contraction):
        a = augment(ex1_contraction)
        counts = np.bincount(a.cells.ravel(), minlength=a.v_star + 1)[1:]
        assert np.array_equal(counts[:72], np.ones(72, dtype=np.int64))
