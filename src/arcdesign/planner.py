"""Choosing trial dimensions (v, s, k) from user requirements.

The degrees of freedom available to v are constrained hard by the check
proportion: each of the k checks occupies one plot per column, so the
proportion of plots devoted to checks is exactly k/v.  Test-line capacity is
then (v-k)s, so s follows from the number of lines to be tested.  ``plan``
walks those two steps; ``plan_fixed_grid`` starts instead from a fixed plate
or field layout and reports what it can hold.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

from .designs import feasibility_df
from .errors import InfeasibleParametersError


@dataclass(frozen=True)
class DesignPlan:
    """A chosen (v, s, k), the test-line count it answers and the next-best values of v.

    The check proportion, test-line capacity, surplus over the request (0 with
    none) and residual df are properties: they follow from the dimensions, as a
    contraction's ``r`` follows from its array.
    """

    v: int
    s: int
    k: int
    requested_test_lines: int | None = None
    alternatives: tuple[int, ...] = ()

    @property
    def check_proportion(self) -> float:
        return self.k / self.v

    @property
    def test_line_capacity(self) -> int:
        return (self.v - self.k) * self.s

    @property
    def surplus(self) -> int:
        if self.requested_test_lines is None:
            return 0
        return self.test_line_capacity - self.requested_test_lines

    @property
    def feasible_df(self) -> int:
        return feasibility_df(self.v, self.s, self.k)

    def to_dict(self) -> dict:
        return {
            "v": self.v,
            "s": self.s,
            "k": self.k,
            "checkProportion": self.check_proportion,
            "testLineCapacity": self.test_line_capacity,
            "surplus": self.surplus,
            "feasibleDf": self.feasible_df,
            "requestedTestLines": self.requested_test_lines,
            "alternatives": list(self.alternatives),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _require_integers(**values) -> None:
    # Sizes are counts: a value such as 2.5 would give a plan no design has, and a bool is no count.
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InfeasibleParametersError(f"{name} must be an integer, got {value!r}")


def _minimal_feasible_s(v: int, k: int) -> int:
    # Smallest s with non-negative residual df for this (v, k), k >= 2:
    # feasibility_df(v, s, k) = (k-1)s - (v+k-2), so s = ceil((v+k-2)/(k-1)).
    return -(-(v + k - 2) // (k - 1))


def plan(k: int, target_proportion: float, n_test_lines: int) -> DesignPlan:
    """Pick (v, s) for k checks, a target check proportion, and a test-line count.

    v is the integer >= k whose ratio k/v lies closest to the target (ties go
    to the smaller v, i.e. the higher check proportion); s is the smallest
    column count whose capacity (v-k)s covers the requested lines.  Raises
    with a concrete suggestion when the result is structurally infeasible.
    """
    _require_integers(k=k, n_test_lines=n_test_lines)
    if k < 2:
        raise InfeasibleParametersError("at least 2 checks are required")
    if not (0 < target_proportion < 1 and math.isfinite(k / target_proportion)):
        raise InfeasibleParametersError("target proportion must lie strictly between 0 and 1")
    if n_test_lines < 1:
        raise InfeasibleParametersError("at least one test line is required")

    # |k/v - p| is least at v = floor(k/p) or ceil(k/p) and grows away from it,
    # so the six closest v lie within five of those two.
    ideal = k / target_proportion
    candidates = sorted(
        range(max(k, math.floor(ideal) - 5), max(k, math.ceil(ideal)) + 6),
        key=lambda v: (abs(k / v - target_proportion), v),
    )
    v = candidates[0]
    alternatives = tuple(candidates[1:6])

    if v == k:
        raise InfeasibleParametersError(
            f"closest ratio to {target_proportion:.3f} is v=k={k}, which leaves no room "
            f"for test lines; nearest alternatives: v in {alternatives[:3]}",
            suggestion={"v": alternatives[0]},
        )

    s = -(-n_test_lines // (v - k))  # ceil
    df = feasibility_df(v, s, k)
    if df < 0:
        s_ok = _minimal_feasible_s(v, k)
        capacity = (v - k) * s_ok
        raise InfeasibleParametersError(
            f"(v={v}, s={s}, k={k}) leaves {df} residual degrees of freedom; "
            f"nearest feasible: s={s_ok} (capacity {capacity}, surplus {capacity - n_test_lines})",
            suggestion={"v": v, "s": s_ok},
        )
    if s > v:
        raise InfeasibleParametersError(
            f"(v={v}, s={s}, k={k}) needs more columns than rows; "
            f"add checks or raise the proportion so v grows",
        )

    return DesignPlan(v, s, k, n_test_lines, alternatives)


def plan_fixed_grid(rows: int, cols: int, k: int, orientation: str = "auto") -> DesignPlan:
    """Capacity plan for a fixed grid (e.g. a 96- or 384-well plate).

    By default the longer dimension becomes v (the treatment-row axis), which
    keeps v >= s.  ``orientation='rows'`` or ``'cols'`` forces the named input
    dimension to be v instead, trading check proportion against capacity;
    forcing v < s yields a plan whose array the generator will refuse, so it
    is reported for comparison only.
    """
    _require_integers(rows=rows, cols=cols, k=k)
    if k < 2:
        raise InfeasibleParametersError("at least 2 checks are required")
    if rows < 1 or cols < 1:
        raise InfeasibleParametersError("grid dimensions must be positive")
    if orientation == "auto":
        v, s = max(rows, cols), min(rows, cols)
    elif orientation == "rows":
        v, s = rows, cols
    elif orientation == "cols":
        v, s = cols, rows
    else:
        raise ValueError(f"orientation must be auto, rows, or cols, got {orientation!r}")
    if k > v:
        raise InfeasibleParametersError(f"k={k} checks exceed the v={v} rows available")

    df = feasibility_df(v, s, k)
    if df < 0:
        raise InfeasibleParametersError(
            f"(v={v}, s={s}, k={k}) leaves {df} residual degrees of freedom; "
            f"minimum feasible column count for this (v, k) is {_minimal_feasible_s(v, k)}"
        )
    return DesignPlan(v, s, k)
