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
    column j becomes contraction cell (i, j).  Raises ``InvalidDesignError``
    unless ``a`` is valid, since only then does a generating contraction exist.
    """
    _require_valid(a)
    is_check = a.cells > a.n_test_lines
    rows, cols = np.nonzero(is_check)
    cells = np.zeros((a.k, a.s), dtype=np.int64)
    cells[a.cells[is_check] - a.n_test_lines - 1, cols] = rows + 1
    return ContractionDesign.from_cells(cells, v=a.v)
