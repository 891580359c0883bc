"""Independent oracle for the efficiency of a contraction.

Recomputes e_con and the closed-form augmented efficiency from the cells with
plain numpy, from the definitions alone; it shares no code with the package.
"""

from __future__ import annotations

import numpy as np


def _harmonic(values: np.ndarray) -> float:
    return len(values) / float(np.sum(1.0 / values))


def efficiencies(cells: np.ndarray, v: int) -> tuple[float, float]:
    """(e_con, closed-form e_aug) of a binary k x s contraction on labels 1..v."""
    k, s = cells.shape
    n_r = np.zeros((v, k))
    n_c = np.zeros((v, s))
    for i in range(k):
        for j in range(s):
            n_r[cells[i, j] - 1, i] = 1.0
            n_c[cells[i, j] - 1, j] = 1.0
    r = n_c.sum(axis=1)
    w = n_r @ n_r.T
    info = np.diag(r) - w / s - (n_c @ n_c.T) / k + np.outer(r, r) / (k * s)
    scaled = info / np.sqrt(np.outer(r, r))
    e_con = _harmonic(np.linalg.eigvalsh(scaled)[1:])

    r_bar = k * s / v
    c_bar_v = _harmonic(np.linalg.eigvalsh(info)[1:]) / r_bar
    f = n_c - np.outer(r, np.ones(s)) / s
    middle = np.diag(r) - w / s + (r_bar**2 / v) * np.ones((v, v))
    bracket = np.eye(s) - f.T @ np.linalg.solve(middle, f) / k
    centre = np.eye(s) - np.ones((s, s)) / s
    # The all-ones direction is an eigenvector of the bracket; centring maps
    # it to the single zero, which sorts first among the positive values.
    c_bar_s = _harmonic(np.linalg.eigvalsh(centre @ bracket @ centre)[1:])
    v_star = (v - k) * s + k
    denom = v_star - (v + s) + 1 + (v / k) * ((v - 1) / c_bar_v + (s - 1) / c_bar_s)
    return e_con, (v_star - 1) / denom
