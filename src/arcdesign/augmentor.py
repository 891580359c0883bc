"""Expansion of a contraction into the augmented design, and its inverse.

The placement rule: if pseudo-treatment l sits at contraction cell (i, j),
then check number ``(v-k)s + i`` occupies cell (l, j) of the augmented array.
Rows of the contraction index the checks; its labels index the augmented
rows.  The remaining cells take test lines 1..(v-k)s in column-major order,
top to bottom within each column -- the one free choice in the rule, fixed so
output is deterministic.
"""

from __future__ import annotations

import numpy as np

from .designs import AugmentedDesign, ContractionDesign, _require_valid
from .errors import InvalidDesignError


def augment(c: ContractionDesign) -> AugmentedDesign:
    """Expand a valid contraction into its v x s augmented design."""
    _require_valid(c)
    return AugmentedDesign(k=c.k, cells=_augmented_cells(c.cells - 1, c.v))


def _augmented_cells(check_rows: np.ndarray, v: int) -> np.ndarray:
    """The v x s placement-rule array with check i of column j in row ``check_rows[i, j]``.

    Rows are 0-based and must be distinct within each column.
    """
    k, s = check_rows.shape
    n_test = (v - k) * s
    cells = np.zeros((v, s), dtype=np.int64)
    cells[check_rows, np.arange(s)] = n_test + 1 + np.arange(k)[:, None]
    cells.T[cells.T == 0] = np.arange(1, n_test + 1)  # column by column, top to bottom
    return cells


def extract_contraction(a: AugmentedDesign) -> ContractionDesign:
    """Recover the generating contraction from an augmented design.

    Inverts the placement rule above: the row holding check ``(v-k)s + i`` in
    column j becomes contraction cell (i, j).  Raises if any column misses a
    check or holds one twice, since then no generating contraction exists.
    """
    v, s, k = a.v, a.s, a.k
    n_test = a.n_test_lines
    cells = np.zeros((k, s), dtype=np.int64)
    for j in range(s):
        col = a.cells[:, j]
        for i in range(k):
            rows = np.nonzero(col == n_test + i + 1)[0]
            if len(rows) == 0:
                raise InvalidDesignError(f"column {j + 1} is missing check {n_test + i + 1}")
            if len(rows) > 1:
                raise InvalidDesignError(
                    f"column {j + 1} holds check {n_test + i + 1} {len(rows)} times"
                )
            cells[i, j] = rows[0] + 1
    return ContractionDesign.from_cells(cells, v=v)
