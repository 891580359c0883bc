import itertools
import math

import numpy as np
import pytest

from arcdesign import DesignPlan, feasibility_df, plan, plan_fixed_grid
from arcdesign.errors import InfeasibleParametersError
from arcdesign.planner import _minimal_feasible_s


class TestPlan:
    def test_worked_example_20_rows(self):
        p = plan(4, 0.20, 173)
        assert (p.v, p.s) == (20, 11)
        assert p.test_line_capacity == 176
        assert p.surplus == 3
        assert p.check_proportion == pytest.approx(0.20)

    def test_nearest_ratio_rule_for_15_percent(self):
        p = plan(4, 0.15, 320)
        assert p.v == 27  # 4/27 is closer to 0.15 than 4/24
        assert 24 in p.alternatives

    def test_infeasible_with_suggestion(self):
        with pytest.raises(InfeasibleParametersError) as excinfo:
            plan(2, 0.5, 4)
        assert "-2" in str(excinfo.value)
        assert excinfo.value.suggestion == {"v": 4, "s": 4}

    def test_exact_ratio_wins(self):
        p = plan(2, 1 / 3, 24)
        assert p.v == 6

    @pytest.mark.parametrize("k, prop, v", [(250, 0.5, 500), (3, 0.001, 3000)])
    def test_closest_ratio_beyond_200(self, k, prop, v):
        with pytest.raises(InfeasibleParametersError, match=rf"\(v={v}, ") as excinfo:
            plan(k, prop, 10)
        assert excinfo.value.suggestion["v"] == v

    def test_window_matches_a_full_scan(self):
        # the test-line count is chosen so the closest v yields a feasible plan
        compared = 0
        for k, i in itertools.product(range(2, 30), range(1, 1000, 7)):
            prop = i / 1000
            scan = sorted(range(k, 2 * math.ceil(k / prop) + 12),
                          key=lambda v: (abs(k / v - prop), v))
            v = scan[0]
            s = _minimal_feasible_s(v, k)
            if v == k or s > v:
                continue
            p = plan(k, prop, (v - k) * s)
            assert (p.v, p.s, p.alternatives) == (v, s, tuple(scan[1:6]))
            compared += 1
        assert compared > 2000

    def test_monotone_in_test_lines(self):
        previous = 0
        for t in range(120, 321, 25):
            p = plan(4, 0.2, t)
            assert p.s >= previous
            previous = p.s

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(InfeasibleParametersError, match="more columns than rows"):
            plan(4, 0.2, 400)

    def test_emitted_plan_is_feasible(self):
        for k, prop, t in [(3, 0.25, 72), (4, 0.2, 173), (5, 0.17, 200)]:
            p = plan(k, prop, t)
            assert p.feasible_df == feasibility_df(p.v, p.s, p.k) >= 0
            assert p.surplus >= 0
            assert p.v >= p.s

    def test_parameter_validation(self):
        with pytest.raises(InfeasibleParametersError):
            plan(1, 0.2, 10)
        with pytest.raises(InfeasibleParametersError):
            plan(3, 1.2, 10)
        with pytest.raises(InfeasibleParametersError):
            plan(3, 0.2, 0)
        with pytest.raises(InfeasibleParametersError):
            plan(3, 1e-320, 10)  # k/p overflows to inf

    @pytest.mark.parametrize("args, name", [
        ((2.5, 0.2, 10), "k"), ((3.0, 0.2, 10), "k"), ((3, 0.2, 10.5), "n_test_lines"),
        ((3, 0.2, "10"), "n_test_lines"), ((True, 0.2, 10), "k"), ((3, 0.2, True), "n_test_lines"),
    ])
    def test_sizes_must_be_integers(self, args, name):
        with pytest.raises(InfeasibleParametersError, match=f"^{name} must be an integer, got "):
            plan(*args)


class TestPlanFixedGrid:
    def test_96_well_plate(self):
        p = plan_fixed_grid(8, 12, 3)
        assert (p.v, p.s) == (12, 8)
        assert p.check_proportion == pytest.approx(0.25)
        assert p.test_line_capacity == 72

    def test_384_well_plate_portrait(self):
        p = plan_fixed_grid(24, 16, 4)
        assert (p.v, p.s) == (24, 16)
        assert p.check_proportion == pytest.approx(4 / 24)
        assert p.test_line_capacity == 320

    def test_384_well_plate_row_orientation(self):
        p = plan_fixed_grid(16, 24, 3, orientation="rows")
        assert (p.v, p.s) == (16, 24)
        assert p.check_proportion == pytest.approx(0.1875)
        assert p.test_line_capacity == 312

    def test_auto_orientation_takes_longer_side(self):
        p = plan_fixed_grid(16, 24, 3)
        assert (p.v, p.s) == (24, 16)

    def test_infeasible_grid(self):
        with pytest.raises(InfeasibleParametersError):
            plan_fixed_grid(4, 2, 2)

    def test_too_many_checks(self):
        with pytest.raises(InfeasibleParametersError):
            plan_fixed_grid(4, 3, 5, orientation="rows")

    @pytest.mark.parametrize("args, name", [
        ((8.5, 12, 3), "rows"), ((8, 12.0, 3), "cols"), ((8, 12, 2.5), "k"), ((8, 12, True), "k"),
    ])
    def test_sizes_must_be_integers(self, args, name):
        with pytest.raises(InfeasibleParametersError, match=f"^{name} must be an integer, got "):
            plan_fixed_grid(*args)
        assert plan_fixed_grid(*(np.int64(x) for x in (8, 12, 3))).v == 12

    def test_size_rule_at_minus_one_residual_df(self):
        # with k = 2 the residual df is s - v; -1 is the closest size refused
        assert feasibility_df(4, 3, 2) == -1 and feasibility_df(4, 4, 2) == 0
        with pytest.raises(InfeasibleParametersError, match="leaves -1 residual degrees of freedom"):
            plan_fixed_grid(4, 3, 2)
        assert plan_fixed_grid(4, 4, 2).feasible_df == 0

    def test_infeasible_grid_names_a_large_minimum(self):
        # (20000, 1, 2) needs 20000 columns, beyond any bounded scan
        with pytest.raises(InfeasibleParametersError,
                           match="minimum feasible column count for this \\(v, k\\) is 20000$"):
            plan_fixed_grid(20000, 1, 2)


def test_minimal_feasible_s_is_the_smallest_feasible_column_count():
    for v in range(1, 40):
        for k in range(2, 12):
            smallest = next(s for s in itertools.count(1) if feasibility_df(v, s, k) >= 0)
            assert _minimal_feasible_s(v, k) == smallest


class TestPlanSerialization:
    def test_json_fields(self):
        import json

        d = json.loads(plan(4, 0.2, 173).to_json())
        assert d["v"] == 20 and d["s"] == 11 and d["k"] == 4
        assert d["surplus"] == 3
        assert d["feasibleDf"] == feasibility_df(20, 11, 4)


class TestDesignPlan:
    def test_summaries_follow_from_the_dimensions(self):
        p = DesignPlan(20, 11, 4, 173, (21, 19, 22, 18, 23))
        assert p == plan(4, 0.2, 173)
        assert (p.check_proportion, p.test_line_capacity, p.surplus, p.feasible_df) == (
            0.2, 176, 3, feasibility_df(20, 11, 4))
        grid = DesignPlan(12, 8, 3)
        assert (grid.requested_test_lines, grid.alternatives, grid.surplus) == (None, (), 0)
        assert grid == plan_fixed_grid(8, 12, 3)
