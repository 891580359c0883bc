"""Expansion of a contraction into the augmented design, and its inverse.

The placement rule: if pseudo-treatment l sits at contraction cell (i, j),
then check number ``(v-k)s + i`` occupies cell (l, j) of the augmented array.
Rows of the contraction index the checks; its labels index the augmented
rows.  The remaining cells take test lines 1..(v-k)s in column-major order,
top to bottom within each column -- the one free choice in the rule, fixed so
output is deterministic.

The rule makes the expansion of a valid contraction valid by construction,
so ``augment`` keeps its output's validation as passed (``_kept``).  The
inverse rule lives in ``designs``, where ``validate_augmented`` also reads an
augmented design's contraction back by it: an augmented design is valid
exactly when it is the image of a valid contraction.
"""

from __future__ import annotations

import numpy as np

from .designs import (
    AugmentedDesign,
    ContractionDesign,
    _generating_contraction,
    _require_valid,
)


def augment(c: ContractionDesign) -> AugmentedDesign:
    """Expand a valid contraction into its v x s augmented design."""
    _require_valid(c)
    k, s = c.k, c.s
    n_test = (c.v - k) * s
    cells = np.zeros((c.v, s), dtype=np.int64)
    cells[c.cells - 1, np.arange(s)] = n_test + 1 + np.arange(k)[:, None]
    cells.T[cells.T == 0] = np.arange(1, n_test + 1)  # column by column, top to bottom
    a = AugmentedDesign(k=k, cells=cells)
    _require_valid.keep(a, None)
    return a


def extract_contraction(a: AugmentedDesign) -> ContractionDesign:
    """Recover the generating contraction from an augmented design.

    Inverts the placement rule above: the row holding check ``(v-k)s + i`` in
    column j becomes contraction cell (i, j).  Raises ``InvalidDesignError``
    unless ``a`` is valid, since only then does a generating contraction exist.
    """
    _require_valid(a)
    return _generating_contraction(a)
