"""Seeded stochastic search for efficient contractions.

The search walks the space of valid contractions (column- and row-binary
arrays with a fixed replication vector) using three move classes:

* ``within_column`` -- swap two cells of one column; row membership changes,
  column contents and replications do not.
* ``within_row`` -- swap two cells of one row; column contents change, row
  membership does not.
* ``transpose`` -- swap two cells in different rows and columns.

Moves are emitted only when the result stays binary, so every design the
search evaluates is valid.  Everything is deterministic given the seed:
restart i draws from a generator seeded with ``seed ^ i``, and the reduction
over restarts is by (objective, restart index, lexicographic array), so
running restarts serially or concurrently gives the same answer.

Hill climbing screens, then confirms.  A state's move catalogue is a few
gathers against flat-index tables built once per shape.  A rank-2 Woodbury
update of the information matrix scores candidates in chunks of their random
order, the first ``_FIRST_CHUNK`` long and each later one ending at twice the
last end.  Per state the screen inverts one v x v matrix and tabulates its
products with the cell incidences, so a candidate's score is a few table
reads.  Only candidates that could beat the current value are evaluated
exactly, and the exact value alone decides acceptance.  Trajectories, traces
and evaluation counts are those of evaluating every candidate in turn.

Annealing scores one sampled swap per iteration.  The sampler draws rows of
a per-shape table of cell pairs, ``_DRAW_BLOCK`` per generator call, and
checks each pair against Python tables of the state's labels; the
acceptance draws of the anneal fall between those calls.  Its first iterations
probe the start state without moving, and the start temperature is a fixed
multiple of the median objective change they see, so the anneal starts at
the objective's own scale instead of at a fixed temperature.  For ``e_aug``
it keeps the inverse of the contraction's (v+s) x (v+s) joint matrix and
scores a swap by a rank-2 Woodbury update of it: O((v+s)^2) work per
candidate instead of two eigensolves and a solve.  The inverse is rebuilt
from scratch every 64 accepted swaps.  States and candidates that are badly
conditioned, disconnected or nearly so are evaluated exactly, so
disconnected ones score 0.0.  Values agree with the exact ones to about
1e-12, so a seeded anneal only leaves the exact path where a candidate ties
the current value exactly and rounding decides whether a random number is
drawn.

A direct search over the full augmented array is included as a baseline
comparator; it moves check plots within columns and scores candidates with
the O((vs)^3) direct efficiency computation, which is exactly the cost the
contraction route avoids.
"""

from __future__ import annotations

import functools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .designs import (
    AugmentedDesign,
    ContractionDesign,
    _incidence_arrays,
    balanced_replication,
    feasibility_df,
)
from .efficiency import _joint_matrix, e_aug_direct, e_aug_formula
from .errors import (
    ConfigError,
    ConstructionError,
    DisconnectedDesignError,
    InfeasibleParametersError,
)
from .spectra import helmert_basis
from .textio import format_design

_STRATEGIES = ("hillclimb", "anneal", "column-first")
_OBJECTIVES = ("e_con", "e_aug")
#: Second-smallest eigenvalue below this means the candidate is disconnected.
_DISCONNECT_TOL = 1e-8
#: Smallest eigenvalue of A_s + qq' below which a state's moves are not screened.
_SCREEN_MIN_EIG = 1e-4
#: Size of a hill-climb screen's first chunk; each later chunk ends at twice the last end.
_FIRST_CHUNK = 64
#: A Woodbury capacitance determinant below this means the candidate is disconnected or nearly so.
_MIN_CAPACITANCE_DET = 1e-8
#: Accepted rank-2 updates of an anneal's maintained inverse between rebuilds from scratch.
_REBUILD_EVERY = 64
#: Smallest eigenvalue of B~ below which an anneal's states and candidates are evaluated exactly.
_WALK_MIN_EIG = 3e-3
#: Moves an anneal scores from its start state, without moving, to set its start temperature.
_T0_PROBE = 32
#: An anneal's start temperature as a multiple of its probe's median nonzero |difference|.
_T0_SCALE = 0.25
#: The start temperature when every probe move ties the start value.
_T0_TIES = 1e-9
#: Cell pairs an anneal's sampler draws per generator call.
_DRAW_BLOCK = 64


class Move(NamedTuple):
    """A two-cell swap; positions are 0-based (row, column) pairs."""

    kind: str
    a: tuple[int, int]
    b: tuple[int, int]


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of the stochastic search; defaults suit desk-scale arrays.

    An anneal sets its own start temperature from a probe of the start
    state (see ``_anneal``); ``anneal_decay`` is the factor by which the
    temperature falls per iteration after the probe.
    """

    seed: int = 0
    strategy: str = "hillclimb"
    restarts: int = 50
    max_iters: int = 20000
    anneal_decay: float = 0.999
    time_budget: float | None = None
    workers: int = 1
    objective: str = "e_con"

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        if self.strategy not in _STRATEGIES:
            raise ConfigError(f"strategy must be one of {_STRATEGIES}, got {self.strategy!r}")
        if self.objective not in _OBJECTIVES:
            raise ConfigError(f"objective must be one of {_OBJECTIVES}, got {self.objective!r}")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.time_budget is not None and not (math.isfinite(self.time_budget)
                                                 and self.time_budget > 0):
            raise ConfigError("time_budget must be a finite number > 0")
        if not 0 < self.anneal_decay < 1:
            raise ConfigError("anneal_decay must lie in (0, 1)")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


@dataclass(frozen=True)
class SearchResult:
    """Best contraction found, with the improvement trace of its restart."""

    best: ContractionDesign
    objective: float
    trace: tuple[tuple[int, float], ...]
    elapsed: float
    restart_of_best: int
    timed_out: bool = False

    def to_dict(self, include_elapsed: bool = True) -> dict:
        d = {
            "design": format_design(self.best),
            "objective": self.objective,
            "trace": [[i, v] for i, v in self.trace],
            "restartOfBest": self.restart_of_best,
            "timedOut": self.timed_out,
        }
        if include_elapsed:
            d["elapsed"] = self.elapsed
        return d

    def to_json(self, indent: int | None = 2, include_elapsed: bool = True) -> str:
        return json.dumps(self.to_dict(include_elapsed=include_elapsed), indent=indent)


@dataclass(frozen=True)
class DirectSearchResult:
    """Best augmented design from the direct (full-array) baseline search.

    ``row_check_counts`` reports how many checks each row carries; the direct
    moves keep columns valid but do not constrain rows, so this is
    informational rather than enforced.
    """

    best: AugmentedDesign
    objective: float
    trace: tuple[tuple[int, float], ...]
    elapsed: float
    restart_of_best: int
    row_check_counts: tuple[int, ...]
    timed_out: bool = False

    def to_dict(self, include_elapsed: bool = True) -> dict:
        d = {
            "design": format_design(self.best),
            "objective": self.objective,
            "trace": [[i, v] for i, v in self.trace],
            "restartOfBest": self.restart_of_best,
            "rowCheckCounts": list(self.row_check_counts),
            "timedOut": self.timed_out,
        }
        if include_elapsed:
            d["elapsed"] = self.elapsed
        return d

    def to_json(self, indent: int | None = 2, include_elapsed: bool = True) -> str:
        return json.dumps(self.to_dict(include_elapsed=include_elapsed), indent=indent)


# ---------------------------------------------------------------------------
# random construction


def random_contraction(v: int, s: int, k: int, r=None, seed: int = 0) -> ContractionDesign:
    """A seeded random valid contraction for the given replication vector.

    Fills column by column: labels that must appear in every remaining column
    are forced in, the rest are drawn at random, and a matching assigns them
    to rows without repeats.  Dead ends redraw the labels and, failing that,
    the whole array; the preconditions guarantee an array exists, so bounded
    retries suffice.
    """
    if r is None:
        r = balanced_replication(v, k, s)
    r = np.asarray(r, dtype=np.int64)
    _check_replication(v, s, k, r)
    cells = _fill(v, s, k, r, np.random.default_rng(seed),
                  f"failed to fill a {k}x{s} array on {v} labels after bounded retries")
    return ContractionDesign(v=v, cells=cells, r=r)


def _check_replication(v: int, s: int, k: int, r: np.ndarray) -> None:
    if len(r) != v:
        raise InfeasibleParametersError(f"r has length {len(r)}, expected v={v}")
    if int(r.sum()) != k * s:
        raise InfeasibleParametersError(f"r sums to {int(r.sum())}, expected k*s={k * s}")
    if r.min() < 0:
        raise InfeasibleParametersError("replication counts must be non-negative")
    if int(r.max()) > min(k, s):
        raise InfeasibleParametersError(
            f"replication {int(r.max())} exceeds min(k, s)={min(k, s)}; no binary array exists"
        )
    df = feasibility_df(v, s, k)
    if df < 0:
        raise InfeasibleParametersError(
            f"(v={v}, s={s}, k={k}) leaves {df} residual degrees of freedom; need >= 0"
        )


def _fill(v: int, s: int, k: int, r: np.ndarray, rng, failure: str) -> np.ndarray:
    """The first array ``_try_fill`` completes in 200 tries; else ``ConstructionError(failure)``."""
    for _ in range(200):
        cells = _try_fill(v, s, k, r, rng)
        if cells is not None:
            return cells
    raise ConstructionError(failure)


def _try_fill(v: int, s: int, k: int, r: np.ndarray, rng) -> np.ndarray | None:
    remaining = r.copy()
    cells = np.zeros((k, s), dtype=np.int64)
    row_sets: list[set[int]] = [set() for _ in range(k)]
    for j in range(s):
        cols_left = s - j
        urgent = np.nonzero(remaining == cols_left)[0]
        if len(urgent) > k:
            return None
        optional = np.nonzero((remaining > 0) & (remaining < cols_left))[0]
        need = k - len(urgent)
        if len(optional) < need:
            return None
        placed = False
        for _ in range(12):
            extra = rng.choice(optional, size=need, replace=False) if need else optional[:0]
            labels = np.concatenate([urgent, extra]) + 1
            rows = _match_rows(labels, row_sets, k, rng)
            if rows is None:
                continue
            for i, lab in zip(rows, labels):
                cells[i, j] = lab
                row_sets[i].add(int(lab))
                remaining[lab - 1] -= 1
            placed = True
            break
        if not placed:
            return None
    return cells


def _match_rows(labels, row_sets, k: int, rng) -> list[int] | None:
    # Kuhn's augmenting paths: labels to rows, avoiding row repeats.
    allowed = []
    for lab in labels:
        rows = [i for i in range(k) if int(lab) not in row_sets[i]]
        allowed.append([rows[x] for x in rng.permutation(len(rows))] if rows else [])
    row_owner = [-1] * k

    def assign(li: int, seen: list[bool]) -> bool:
        for row in allowed[li]:
            if not seen[row]:
                seen[row] = True
                if row_owner[row] == -1 or assign(row_owner[row], seen):
                    row_owner[row] = li
                    return True
        return False

    for li in rng.permutation(len(labels)):
        if not assign(int(li), [False] * k):
            return None
    rows_for_label = [-1] * len(labels)
    for row, li in enumerate(row_owner):
        rows_for_label[li] = row
    return rows_for_label


# ---------------------------------------------------------------------------
# neighbourhood

_CLASSES = ("within_column", "within_row", "transpose")


def neighbor_moves(c: ContractionDesign, classes=_CLASSES):
    """All validity-preserving two-cell swaps of a contraction, in canonical order."""
    return tuple(
        Move("within_row" if i1 == i2 else "within_column" if j1 == j2 else "transpose",
             (i1, j1), (i2, j2))
        for i1, j1, i2, j2 in _catalogue(c.cells, c.v, classes).tolist()
    )


def apply_move(c: ContractionDesign, move: Move) -> ContractionDesign:
    """The contraction obtained by performing one move; replications are unchanged."""
    return ContractionDesign(v=c.v, cells=_swap(c.cells, (*move.a, *move.b)), r=c.r)


def _swap(cells: np.ndarray, move) -> np.ndarray:
    i1, j1, i2, j2 = move
    out = cells.copy()
    out[i1, j1], out[i2, j2] = out[i2, j2], out[i1, j1]
    return out


@functools.lru_cache(maxsize=64)
def _swap_index(k: int, s: int, classes: tuple[str, ...]) -> np.ndarray:
    """Every (i1, j1, i2, j2) cell pair of the given classes, in canonical order.

    Within-column pairs go by column, within-row pairs by row, transposes by
    row pair, then first and second column.  Built once per shape and shared
    read-only between threads.
    """
    r1, r2 = np.triu_indices(k, 1)
    c1, c2 = np.triu_indices(s, 1)
    parts = [np.empty((0, 4), dtype=np.intp)]
    if "within_column" in classes:
        j = np.repeat(np.arange(s), len(r1))
        parts.append(np.column_stack([np.tile(r1, s), j, np.tile(r2, s), j]))
    if "within_row" in classes:
        i = np.repeat(np.arange(k), len(c1))
        parts.append(np.column_stack([i, np.tile(c1, k), i, np.tile(c2, k)]))
    if "transpose" in classes:
        j1, j2 = np.nonzero(~np.eye(s, dtype=bool))
        parts.append(np.column_stack([np.repeat(r1, len(j1)), np.tile(j1, len(r1)),
                                      np.repeat(r2, len(j1)), np.tile(j2, len(r1))]))
    index = np.concatenate(parts)
    index.flags.writeable = False
    return index


class _CataloguePlan(NamedTuple):
    """Flat-index tables that check every cell pair of one shape and class set at once.

    Cell (i, j) is flat cell ``i*s + j``, and pair n of ``index`` swaps label
    a at flat cell p1 with label b at p2.  A state's labels go into a zeroed
    boolean table of ``size = (k+s) * (v+1)`` entries, rows first, then
    columns: line l holds label x at entry ``l*(v+1) + x``, and ``marks[:, p]``
    are the starts of flat cell p's row and column lines.  ``cells[:, n]`` is
    (p2, p1), whose labels are (b, a), and ``probes[:, t, n]`` are the starts
    of the row and the column that label t of (b, a) would move into.  A pair
    within one row probes its columns twice, and one within a column its rows
    twice, so the pair is valid iff all four probes miss.
    """

    index: np.ndarray
    cells: np.ndarray
    probes: np.ndarray
    marks: np.ndarray
    size: int


@functools.lru_cache(maxsize=64)
def _catalogue_plan(k: int, s: int, v: int, classes: tuple[str, ...]) -> _CataloguePlan:
    index = _swap_index(k, s, classes)
    i1, j1, i2, j2 = index.T
    rows = np.stack([i1, i2]) * (v + 1)
    cols = np.stack([k + j1, k + j2]) * (v + 1)
    probes = np.stack([np.where(i1 == i2, cols, rows), np.where(j1 == j2, rows, cols)])
    flat = np.arange(k * s)
    marks = np.stack([flat // s, k + flat % s]) * (v + 1)
    plan = _CataloguePlan(index, np.stack([i2 * s + j2, i1 * s + j1]), probes, marks,
                          (k + s) * (v + 1))
    for table in (plan.cells, plan.probes, plan.marks):
        table.flags.writeable = False
    return plan


def _catalogue(cells: np.ndarray, v: int, classes) -> np.ndarray:
    """The swaps that keep rows and columns binary, as (i1, j1, i2, j2) rows.

    A swap of labels a and b is valid when neither lands in a row or column
    that already holds it; that also rules out a == b.
    """
    k, s = cells.shape
    plan = _catalogue_plan(k, s, v, tuple(c for c in _CLASSES if c in classes))
    labels = cells.ravel()
    has = np.zeros(plan.size, dtype=bool)
    has[plan.marks + labels] = True
    clash = has[plan.probes + labels[plan.cells]]
    return plan.index.compress(~clash.reshape(4, -1).any(axis=0), axis=0)


# ---------------------------------------------------------------------------
# objectives


@functools.lru_cache(maxsize=64)
def _pair_term(k: int, s: int, alpha: float, beta: float) -> np.ndarray:
    """``2 (alpha [i1 != i2] + beta [j1 != j2])`` for every flat cell pair (p1, p2), flattened."""
    flat = np.arange(k * s)
    i, j = flat // s, flat % s
    term = 2.0 * (alpha * (i[:, None] != i) + beta * (j[:, None] != j))
    term = term.ravel()
    term.flags.writeable = False
    return term


class _ContractionObjective:
    """Average-efficiency evaluation and move screening on raw cell arrays.

    ``value`` is exact: it rebuilds the information matrix ``A``, scales it
    to ``A_s = D A D`` with ``D = diag(r)^-1/2`` and takes its eigenvalues.
    The column Gram matrix can be pinned when a phase only uses moves that
    keep columns fixed.

    ``screen`` scores a catalogue from one state.  A swap of label a at flat
    cell p1 = i1*s + j1 with label b at p2 changes ``A`` by
    ``-(u z' + z u') - c u u'``, where ``u = e_b - e_a``,
    ``z = Z[:, p1] - Z[:, p2]`` and ``c = 2 (alpha [i1 != i2] + beta [j1 != j2])``.
    Column i*s + j of the v x ks matrix ``Z`` is
    ``alpha N_R[:, i] + beta N_C[:, j]``; ``alpha`` is 1/s (0 for the
    columns-only design) and ``beta`` 1/k (0 with the Gram matrix pinned).
    The unit null vector ``q = r^1/2 / |r^1/2|`` of ``A_s`` stays null
    through every swap, so with ``M = (A_s + qq')^-1``,
    ``P = D M D`` and ``Q = P diag(r) P`` the candidate's
    ``tr(A_s^+) = tr(M) - 1 - tr(S^-1 T)``, from the 2x2 Woodbury matrices
    ``S = [[u'Pu, u'Pz - 1], [., z'Pz + c]]`` and
    ``T = [[u'Qu, u'Qz], [., z'Qz]]``.  Per state the screen tabulates
    ``[P; Q]``, ``H = [P; Q] Z`` and ``G = Z' [P; Q] Z``, so each entry of
    ``S`` and ``T`` is a sum of table entries at a, b, p1 and p2.
    """

    def __init__(self, v: int, s: int, k: int, r: np.ndarray, objective: str = "e_con"):
        self.v, self.s, self.k = v, s, k
        self.r = r.astype(float)
        self.r_diag = np.diag(self.r)
        self.rr_term = np.outer(self.r, self.r) / (k * s)
        inv_sqrt = 1.0 / np.sqrt(self.r)
        self.scale = np.outer(inv_sqrt, inv_sqrt)
        self.null_term = np.outer(self.r, self.r) ** 0.5 / self.r.sum()
        self.objective = objective
        self.v_star = (v - k) * s + k
        self.r_bar = k * s / v
        self._helmert_s = helmert_basis(s) if objective == "e_aug" else None
        self._last = (None, None, None), None
        self._eig = None, None

    def column_gram(self, cells: np.ndarray) -> np.ndarray:
        _, n_c = _incidence_arrays(cells, self.v)
        return (n_c @ n_c.T) / self.k

    def value(self, cells: np.ndarray, col_gram: np.ndarray | None = None) -> float:
        if self.objective == "e_aug":
            return self._value_e_aug(cells)
        return self._efficiency(self._scaled_info(cells, col_gram)[0])

    def column_value(self, cells: np.ndarray) -> float:
        """Average efficiency factor of the columns-only block design."""
        return self._efficiency(self._scaled_info(cells, rows=False)[0])

    def _scaled_info(self, cells, col_gram=None, rows=True):
        # The last result is kept for the screen of a just-accepted state.
        key = (cells, col_gram, rows)
        if all(a is b for a, b in zip(key, self._last[0])):
            return self._last[1]
        n_r, n_c = _incidence_arrays(cells, self.v)
        if col_gram is None:
            col_gram = (n_c @ n_c.T) / self.k
        if rows:
            a = self.r_diag - (n_r @ n_r.T) / self.s - col_gram + self.rr_term
        else:
            a = self.r_diag - col_gram
        self._last = key, (a * self.scale, n_r, n_c)
        return self._last[1]

    def _efficiency(self, a_s: np.ndarray) -> float:
        w = np.linalg.eigvalsh(a_s)
        self._eig = a_s, w
        if w[1] <= _DISCONNECT_TOL:
            return 0.0
        return (self.v - 1) / float(np.sum(1.0 / w[1:]))

    def screen(self, cells: np.ndarray, moves: np.ndarray, col_gram: np.ndarray | None = None,
               rows: bool = True):
        """``score(idx)``, the ``value`` of each of ``moves[idx]`` by rank-2 updates.

        (``column_value`` if not ``rows``.)  The inverse and the per-state
        tables are built here, once, however many chunks are scored.  A state
        that is disconnected or nearly so scores ``+inf`` for every move.
        ``A_s + qq'`` has the eigenvalues of ``A_s`` with the null one replaced
        by 1, so its smallest is ``min(1, w[1])`` for the eigenvalues ``w`` of
        ``A_s``.  Those are the ones the confirming ``value`` of the same
        ``A_s`` took; only a state that no ``value`` saw takes its own.
        """
        a_s, n_r, n_c = self._scaled_info(cells, col_gram, rows)
        a_w, w = self._eig
        if a_w is not a_s:
            w = np.linalg.eigvalsh(a_s)
        if min(1.0, w[1]) < _SCREEN_MIN_EIG:
            return _confirm_all(cells, moves)
        m = np.linalg.inv(a_s + self.null_term)
        v, s, k = self.v, self.s, self.k
        ks = k * s
        alpha, beta = rows / s, (col_gram is None) / k
        # [P; Q] with P = D M D and Q = P diag(r) P, both v x v
        p = m * self.scale
        pq = np.concatenate([p, (p * self.r) @ p]).reshape(2, v, v)
        diag = pq.diagonal(axis1=1, axis2=2)
        uu = (diag[:, :, None] + diag[:, None, :] - 2.0 * pq).reshape(2, v * v)
        # Z, whose column i*s + j is alpha N_R[:, i] + beta N_C[:, j]
        z = (n_r[:, :, None] * alpha + n_c[:, None, :] * beta).reshape(v, ks)
        h = pq.reshape(2 * v, v) @ z
        # G = Z' [P; Q] Z, kept as its diagonal and as c - 2G (c in the P half only)
        cross = (-2.0 * z.T) @ h.reshape(2, v, ks)
        gd = cross.diagonal(axis1=1, axis2=2) * -0.5
        cross = cross.reshape(2, ks * ks)
        cross[0] += _pair_term(k, s, alpha, beta)
        h = h.reshape(2, v * ks)
        trace = np.trace(m)
        lab = cells.ravel() - 1

        def score(idx: np.ndarray) -> np.ndarray:
            i1, j1, i2, j2 = moves[idx].T
            p1, p2 = i1 * s + j1, i2 * s + j2
            a, b = lab[p1], lab[p2]
            s11, t11 = uu.take(a * v + b, axis=1)
            ha, hb = a * ks, b * ks
            s12, t12 = (h.take(hb + p1, axis=1) - h.take(hb + p2, axis=1)
                        - h.take(ha + p1, axis=1) + h.take(ha + p2, axis=1))
            s12 -= 1.0
            s22, t22 = gd.take(p1, axis=1) + gd.take(p2, axis=1) + cross.take(p1 * ks + p2, axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                drop = (s22 * t11 - 2.0 * s12 * t12 + s11 * t22) / (s11 * s22 - s12 * s12)
                return (v - 1) / (trace - 1.0 - drop)

        return score

    def _value_e_aug(self, cells: np.ndarray) -> float:
        # Closed-form augmented efficiency; costs one extra s x s reduction.
        v, s, k = self.v, self.s, self.k
        n_r, n_c = _incidence_arrays(cells, v)
        w_mat = n_r @ n_r.T
        a = self.r_diag - w_mat / s - (n_c @ n_c.T) / k + self.rr_term
        w = np.linalg.eigvalsh(a)
        if w[1] <= _DISCONNECT_TOL:
            return 0.0
        cbv = ((v - 1) / float(np.sum(1.0 / w[1:]))) / self.r_bar
        f = n_c - np.outer(self.r, np.ones(s)) / s
        middle = self.r_diag - w_mat / s + (self.r_bar**2 / v) * np.ones((v, v))
        try:
            bracket = np.eye(s) - (f.T @ np.linalg.solve(middle, f)) / k
        except np.linalg.LinAlgError:
            return 0.0
        vals = np.linalg.eigvalsh(self._helmert_s.T @ bracket @ self._helmert_s)
        if vals[0] <= _DISCONNECT_TOL:
            return 0.0
        cbs = (s - 1) / float(np.sum(1.0 / vals))
        return e_aug_formula(self.v_star, v, s, k, cbv, cbs)


class _SwapWalk:
    """Move sampler, swap and value of one contraction anneal, kept in step.

    ``_anneal`` only ever moves to the candidate it has just scored.  So each
    method first brings the walk up to the state it is handed, found by
    identity: the state the walk holds, the last candidate (commit its swap)
    or any other array (rebuild).  For the sampler the walk keeps the labels
    as a flat Python list and the labels of each row and each column as
    Python sets, and it draws cell pairs ``_DRAW_BLOCK`` at a time.

    For ``e_aug`` it also keeps ``M = B~^-1``, ``tr(M)`` and ``|M|_F^2``.  ``B~`` is
    ``b_matrix`` lifted to eigenvalue 1 on its two trivial directions, and
    ``e_aug = (v*-1) / (v*-v-s-1 + tr(B~^-1))``.  A swap of label a at
    (i1, j1) with label b at (i2, j2) changes ``B~`` by ``u z' + z u'``, where
    ``u = D^-1/2 (e_b - e_a, 0)``,
    ``z = D^-1/2 (-[i1!=i2] (x + e_b - e_a)/s, [j1!=j2] (e_j1 - e_j2))``
    and ``x = N_R (e_i1 - e_i2)``; the walk keeps ``N_R'`` scaled by
    ``D^-1/2 / s`` for it.  A candidate's trace follows from
    ``G = M [u z]`` and the 2x2 Woodbury capacitance ``S`` in O((v+s)^2)
    work: two matrix products into one buffer give ``G`` and ``MG``, a third
    every 2x2 block the update needs, and the rest is arithmetic on Python
    floats.  Accepting it sets ``M <- M - G S^-1 G'``, and ``M`` is rebuilt
    from scratch by an eigensolve after ``_REBUILD_EVERY`` updates.

    Rounding in the update grows with the conditioning of ``B~``, so the
    unchanged exact value scores every candidate of a state whose smallest
    eigenvalue lies below ``_WALK_MIN_EIG``, and every candidate that may
    itself lie below it: ``|M'|_F``, which bounds 1/(smallest eigenvalue)
    from above, follows from the same 2x2 algebra.  It also scores every
    candidate with ``|det S| < _MIN_CAPACITANCE_DET``, so disconnected ones
    score 0.0.  Accepting an exactly scored candidate rebuilds ``M``.
    """

    def __init__(self, obj: _ContractionObjective):
        self.obj = obj
        self.inverse = obj.objective == "e_aug"
        self.cells = self.cand = self.move = self.pending = None
        self.pairs = _swap_index(obj.k, obj.s, _CLASSES)
        self.draws: list[list[int]] = []
        # D^-1/2 on label and on column coordinates
        self.dv, self.dc = 1.0 / np.sqrt(obj.s), 1.0 / np.sqrt(obj.v)
        if self.inverse:
            # the rows of U' = [u z]', G' = U'M and H' = G'M (M is symmetric, so G = MU),
            # with views of the blocks _score reads and writes; G' stays valid until the commit
            ugh = np.empty((6, obj.v + obj.s))
            self.u, self.z, self.x = ugh[0], ugh[1], ugh[1, :obj.v]
            self.uz, self.g, self.h = ugh[:2], ugh[2:4], ugh[4:]
            self.ug, self.gh_t = ugh[:4], ugh[2:].T

    def _sync(self, cells: np.ndarray) -> None:
        if cells is self.cells:
            return
        if cells is self.cand and (self.pending is not None or not self.inverse):
            self._commit()
        else:
            self._rebuild(cells)
        self.cells = cells

    def _rebuild(self, cells: np.ndarray) -> None:
        obj = self.obj
        v, s, k = obj.v, obj.s, obj.k
        rows = cells.tolist()
        self.labels = [lab for row in rows for lab in row]
        self.rows = [set(row) for row in rows]
        self.cols = [set(col) for col in zip(*rows)]
        if not self.inverse:
            return
        self.updates = 0
        n_r, n_c = _incidence_arrays(cells, v)
        self.xr = np.ascontiguousarray(n_r.T) * (self.dv / s)
        joint = _joint_matrix(n_r, n_c, obj.r, k)
        joint[:v, :v] += 1.0 / v  # t1 t1', t1 = (1_v, 0) / sqrt(v)
        joint[v:, v:] += (1.0 - k / v) / s  # (1 - k/v) t2 t2', t2 = (0, 1_s) / sqrt(s)
        w, vecs = np.linalg.eigh(joint)
        if w[0] < _WALK_MIN_EIG:
            self.m, self.val = None, obj._value_e_aug(cells)
        else:
            self.m, self.tr = (vecs / w) @ vecs.T, float(np.sum(1.0 / w))
            self.norm2 = float(np.sum(w**-2.0))
            self.val = self._e_aug(self.tr)

    def _e_aug(self, trace: float) -> float:
        obj = self.obj
        return (obj.v_star - 1) / (obj.v_star - obj.v - obj.s - 1 + trace)

    def _commit(self) -> None:
        i1, j1, i2, j2 = self.move
        labels, s = self.labels, self.obj.s
        p1, p2 = i1 * s + j1, i2 * s + j2
        a, b = labels[p1], labels[p2]
        labels[p1], labels[p2] = b, a
        for sets, x1, x2 in ((self.rows, i1, i2), (self.cols, j1, j2)):
            if x1 != x2:
                sets[x1].remove(a)
                sets[x1].add(b)
                sets[x2].remove(b)
                sets[x2].add(a)
        if not self.inverse:
            return
        if i1 != i2:
            xr, c = self.xr, self.dv / s
            xr[i1, a - 1] -= c
            xr[i1, b - 1] += c
            xr[i2, b - 1] -= c
            xr[i2, a - 1] += c
        gt, s_inv, self.tr, self.norm2 = self.pending  # gt = G'
        self.m -= gt.T @ (np.array(s_inv) @ gt)
        self.val = self._e_aug(self.tr)
        self.updates += 1
        if self.updates == _REBUILD_EVERY:
            self._rebuild(self.cand)

    def sample(self, cells: np.ndarray, rng) -> tuple[int, int, int, int] | None:
        """A valid swap, uniform over them: draw cell pairs, reject invalid ones.

        Each try pops one pair drawn by ``_draw_pairs``.
        """
        self._sync(cells)
        labels, rows, cols, s = self.labels, self.rows, self.cols, self.obj.s
        draws = self.draws
        for _ in range(256):
            if not draws:
                draws = self.draws = _draw_pairs(self.pairs, rng)
            i1, j1, i2, j2 = draws.pop()
            a, b = labels[i1 * s + j1], labels[i2 * s + j2]
            if a == b:
                continue
            if i1 != i2 and (b in rows[i1] or a in rows[i2]):
                continue
            if j1 != j2 and (b in cols[j1] or a in cols[j2]):
                continue
            return i1, j1, i2, j2
        return None

    def apply(self, cells: np.ndarray, move) -> np.ndarray:
        self._sync(cells)
        self.cand, self.move, self.pending = _swap(cells, move), move, None
        return self.cand

    def value(self, cells: np.ndarray) -> float:
        if not self.inverse:
            return self.obj.value(cells)
        if cells is not self.cand or cells is self.cells:
            self._sync(cells)
            return self.val
        if self.m is None:
            return self.obj._value_e_aug(cells)
        return self._score(cells)

    def _score(self, cand: np.ndarray) -> float:
        # The value of the last candidate, and what accepting it needs.
        v, s = self.obj.v, self.obj.s
        dv = self.dv
        i1, j1, i2, j2 = self.move
        a, b = self.labels[i1 * s + j1] - 1, self.labels[i2 * s + j2] - 1
        u, z = self.u, self.z
        self.uz.fill(0.0)
        if i1 != i2:
            np.subtract(self.xr[i2], self.xr[i1], out=self.x)
            z[a] = z[b] = 0.0  # x + e_b - e_a vanishes on the swapped labels
        if j1 != j2:
            z[v + j1], z[v + j2] = self.dc, -self.dc
        u[a], u[b] = -dv, dv
        np.matmul(self.uz, self.m, out=self.g)
        np.matmul(self.g, self.m, out=self.h)
        # [U G]'[G MG] holds the blocks U'MU, G'G (twice) and G'MG, as Python floats
        (c11, c12, p11, p12), (_, c22, p21, p22), (*_, q11, q12), (*_, q21, q22) = (
            self.ug @ self.gh_t).tolist()
        # the 2x2 Woodbury capacitance S = [[0, 1], [1, 0]] + U'MU
        s11, s12, s22 = c11, 1.0 + c12, c22
        det = s11 * s22 - s12 * s12
        if abs(det) < _MIN_CAPACITANCE_DET:
            return self.obj._value_e_aug(cand)
        # T = S^-1 G'G; M' = M - G S^-1 G' gives tr(M') = tr(M) - tr(T) and
        # |M'|_F^2 = |M|_F^2 - 2 tr(S^-1 G'MG) + tr(T^2)
        t11, t12 = (s22 * p11 - s12 * p21) / det, (s22 * p12 - s12 * p22) / det
        t21, t22 = (s11 * p21 - s12 * p11) / det, (s11 * p22 - s12 * p12) / det
        norm2 = (self.norm2 - 2.0 * (s22 * q11 - s12 * (q12 + q21) + s11 * q22) / det
                 + t11 * t11 + 2.0 * t12 * t21 + t22 * t22)
        if norm2 * _WALK_MIN_EIG**2 > 1.0:
            return self.obj._value_e_aug(cand)
        trace = self.tr - (t11 + t22)
        self.pending = self.g, ((s22 / det, -s12 / det), (-s12 / det, s11 / det)), trace, norm2
        return self._e_aug(trace)


def _draw_pairs(pairs: np.ndarray, rng) -> list[list[int]]:
    """``_DRAW_BLOCK`` rows of the pair table, drawn iid and uniformly by one generator call.

    The sampler pops them from the end of the list, one per try.
    """
    return pairs[rng.integers(len(pairs), size=_DRAW_BLOCK)].tolist()


# ---------------------------------------------------------------------------
# generic local-search drivers


def _confirm_all(state, moves):
    """A screen that rules nothing out: every candidate is evaluated exactly."""
    return lambda idx: np.full(len(idx), np.inf)


def _hillclimb(state, obj_fn, catalogue_fn, apply_fn, rng, max_iters, deadline,
               screen=_confirm_all):
    """First-improvement hill climbing; stops at a local optimum or budget.

    Candidates are tried in random order and screened in chunks of it whose
    ends double from ``_FIRST_CHUNK``.  One whose ``screen`` score lies below
    the current value by more than a rounding margin is passed over but
    counted as evaluated; ``obj_fn`` confirms every other one, so trajectory,
    trace and evaluation count match evaluating every candidate exactly.
    """
    cur_val = obj_fn(state)
    trace = [(0, cur_val)]
    evals = 0
    timed_out = False
    while evals < max_iters:
        if deadline is not None and time.monotonic() > deadline:
            timed_out = True
            break
        moves = catalogue_fn(state)
        if len(moves) == 0:
            break
        order = rng.permutation(len(moves))[: max_iters - evals]
        floor = cur_val - 1e-9 * max(1.0, abs(cur_val))
        score = screen(state, moves)
        start, evals = evals, evals + len(order)
        improved = False
        lo, hi = 0, _FIRST_CHUNK
        while lo < len(order) and not (improved or timed_out):
            for pos in (lo + np.flatnonzero(~(score(order[lo:hi]) <= floor))).tolist():
                if deadline is not None and time.monotonic() > deadline:
                    timed_out = True
                    evals = start + pos
                    break
                cand = apply_fn(state, moves[order[pos]])
                val = obj_fn(cand)
                if val > cur_val:
                    state, cur_val, evals = cand, val, start + pos + 1
                    trace.append((evals, val))
                    improved = True
                    break
            lo, hi = hi, 2 * hi
        if not improved:
            break
    return state, cur_val, trace, evals, timed_out


def _anneal(state, obj_fn, sample_fn, apply_fn, rng, max_iters, decay, deadline):
    """Metropolis acceptance on the objective difference; reports the running best.

    The first ``_T0_PROBE`` iterations are a probe: they score sampled moves
    from the start state without moving, and set the start temperature from
    the differences they see (``_start_temp``).  They count in the budget and
    in the trace positions.  Each later iteration samples one move, scores
    its candidate with ``obj_fn`` and draws ``rng.random()`` only when the
    difference is not positive; the temperature then decays by ``decay``.
    The state only ever moves to the candidate just scored, so the
    contraction search can pass the methods of one ``_SwapWalk``, which keep
    tables and, for ``e_aug``, a maintained inverse in step with the state;
    see there for the cost and the fallback to exact values.  The direct
    search passes a plain objective, sampler and swap.
    """
    cur_val = obj_fn(state)
    best_state, best_val = state, cur_val
    trace = [(0, cur_val)]
    probe = []
    evals = 0
    timed_out = False
    for it in range(1, max_iters + 1):
        if deadline is not None and it % 64 == 0 and time.monotonic() > deadline:
            timed_out = True
            break
        move = sample_fn(state, rng)
        if move is None:
            break
        cand = apply_fn(state, move)
        val = obj_fn(cand)
        evals = it
        delta = val - cur_val
        if it <= _T0_PROBE:
            probe.append(abs(delta))
            if it == _T0_PROBE:
                temp = _start_temp(probe)
            continue
        if delta > 0 or rng.random() < math.exp(delta / temp):
            state, cur_val = cand, val
        if cur_val > best_val:
            best_state, best_val = state, cur_val
            trace.append((it, best_val))
        temp *= decay
    return best_state, best_val, trace, evals, timed_out


def _start_temp(probe: list[float]) -> float:
    """``_T0_SCALE`` times the median of the probe's nonzero |differences|.

    Exact ties say nothing of the objective's scale.  If every probe move
    ties, no scale is known and the anneal starts at ``_T0_TIES``, which
    accepts nearly no downhill move.
    """
    moved = sorted(d for d in probe if d > 0)
    if not moved:
        return _T0_TIES
    # by hand: np.median imports numpy.ma, which costs about 2 MB of memory
    mid = len(moved) // 2
    return _T0_SCALE * (moved[mid] if len(moved) % 2 else (moved[mid - 1] + moved[mid]) / 2)


# ---------------------------------------------------------------------------
# contraction search


def _contraction_restart(v, s, k, r, cfg: SearchConfig, restart: int, deadline):
    rng = np.random.default_rng(cfg.seed ^ restart)
    cells = _fill(v, s, k, r, rng, f"restart {restart}: could not build a starting contraction")

    obj = _ContractionObjective(v, s, k, r, cfg.objective)
    if cfg.strategy == "hillclimb":
        screen = _confirm_all if cfg.objective == "e_aug" else obj.screen
        state, val, trace, _, timed = _hillclimb(
            cells, obj.value, lambda st: _catalogue(st, v, _CLASSES), _swap, rng,
            cfg.max_iters, deadline, screen,
        )
    elif cfg.strategy == "anneal":
        walk = _SwapWalk(obj)
        state, val, trace, _, timed = _anneal(
            cells, walk.value, walk.sample, walk.apply, rng,
            cfg.max_iters, cfg.anneal_decay, deadline,
        )
    else:  # column-first
        state, val, trace, timed = _column_first(cells, obj, v, rng, cfg, deadline)

    return restart, state, val, tuple(trace), timed


def _column_first(cells, obj, v, rng, cfg: SearchConfig, deadline):
    """Optimize the column design first, then rows with columns pinned."""
    initial_val = obj.value(cells)
    budget1 = cfg.max_iters // 2
    budget2 = cfg.max_iters - budget1

    state1, _, _, evals1, timed1 = _hillclimb(
        cells, obj.column_value, lambda st: _catalogue(st, v, ("within_row", "transpose")),
        _swap, rng, budget1, deadline, lambda st, moves: obj.screen(st, moves, rows=False),
    )

    col_gram = obj.column_gram(state1)
    screen2 = _confirm_all if obj.objective == "e_aug" else (
        lambda st, moves: obj.screen(st, moves, col_gram))
    state2, val2, trace2, _, timed2 = _hillclimb(
        state1, lambda st: obj.value(st, col_gram),
        lambda st: _catalogue(st, v, ("within_column",)), _swap, rng, budget2, deadline, screen2,
    )

    timed = timed1 or timed2
    if val2 > initial_val:
        trace = [(0, initial_val)] + [
            (evals1 + it, val) for it, val in trace2 if val > initial_val
        ]
        return state2, val2, trace, timed
    return cells, initial_val, [(0, initial_val)], timed


def search_contraction(v: int, s: int, k: int, cfg: SearchConfig | None = None) -> SearchResult:
    """Search for a contraction maximizing the configured efficiency objective.

    Deterministic given the seed; restarts are reduced in fixed index order
    (ties by restart index, then lexicographically smallest array), so serial
    and concurrent execution agree.
    """
    cfg = cfg or SearchConfig()
    r = balanced_replication(v, k, s)
    start = time.monotonic()
    deadline = start + cfg.time_budget if cfg.time_budget is not None else None
    (restart, cells, val, trace, _), timed = _run_restarts(
        lambda i: _contraction_restart(v, s, k, r, cfg, i, deadline), cfg, deadline
    )
    return SearchResult(
        best=ContractionDesign(v=v, cells=cells, r=r),
        objective=val,
        trace=trace,
        elapsed=time.monotonic() - start,
        restart_of_best=restart,
        timed_out=timed,
    )


def _run_restarts(restart_fn, cfg: SearchConfig, deadline):
    """The best restart outcome, and whether any restart ran out of time.

    Restarts run serially or on ``cfg.workers`` threads and are reduced by
    (objective, restart index, lexicographic array), so both agree.
    """
    indices = list(range(cfg.restarts))
    skipped = False
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(restart_fn, indices))
    else:
        outcomes = []
        for i in indices:
            if deadline is not None and time.monotonic() > deadline and outcomes:
                skipped = True
                break
            outcomes.append(restart_fn(i))
    best = min(outcomes, key=lambda o: (-o[2], o[0], tuple(o[1].ravel())))
    return best, skipped or any(o[4] for o in outcomes)


# ---------------------------------------------------------------------------
# direct augmented-array search (baseline comparator)


class _DirectMove(NamedTuple):
    kind: str  # "relocate" or "exchange"
    column: int
    i: int
    target: int  # destination row (relocate) or second check index (exchange)


def _direct_cells(check_rows: np.ndarray, v: int, s: int, k: int) -> np.ndarray:
    n_test = (v - k) * s
    cells = np.zeros((v, s), dtype=np.int64)
    for j in range(s):
        for i in range(k):
            cells[check_rows[i, j], j] = n_test + i + 1
    next_line = 1
    for j in range(s):
        for l in range(v):
            if cells[l, j] == 0:
                cells[l, j] = next_line
                next_line += 1
    return cells


def _direct_objective(check_rows: np.ndarray, v: int, s: int, k: int) -> float:
    design = AugmentedDesign(k=k, cells=_direct_cells(check_rows, v, s, k))
    try:
        return e_aug_direct(design)
    except DisconnectedDesignError:
        return 0.0


def _direct_catalogue(check_rows: np.ndarray, v: int, s: int, k: int) -> list[_DirectMove]:
    moves: list[_DirectMove] = []
    for j in range(s):
        occupied = set(int(x) for x in check_rows[:, j])
        for i in range(k):
            for row in range(v):
                if row not in occupied:
                    moves.append(_DirectMove("relocate", j, i, row))
        for i1 in range(k - 1):
            for i2 in range(i1 + 1, k):
                moves.append(_DirectMove("exchange", j, i1, i2))
    return moves


def _direct_apply(check_rows: np.ndarray, move: _DirectMove) -> np.ndarray:
    out = check_rows.copy()
    if move.kind == "relocate":
        out[move.i, move.column] = move.target
    else:
        out[move.i, move.column], out[move.target, move.column] = (
            out[move.target, move.column],
            out[move.i, move.column],
        )
    return out


def _direct_sample(check_rows: np.ndarray, rng, v: int, s: int, k: int) -> _DirectMove | None:
    for _ in range(64):
        j = int(rng.integers(s))
        if k >= 2 and rng.random() < 0.25:
            i1, i2 = rng.choice(k, size=2, replace=False)
            return _DirectMove("exchange", j, int(min(i1, i2)), int(max(i1, i2)))
        i = int(rng.integers(k))
        occupied = set(int(x) for x in check_rows[:, j])
        free = [row for row in range(v) if row not in occupied]
        if free:
            return _DirectMove("relocate", j, i, free[int(rng.integers(len(free)))])
    return None


def _direct_restart(v, s, k, cfg: SearchConfig, restart: int, deadline):
    rng = np.random.default_rng(cfg.seed ^ restart)
    check_rows = np.empty((k, s), dtype=np.int64)
    for j in range(s):
        check_rows[:, j] = rng.choice(v, size=k, replace=False)

    def obj(state):
        return _direct_objective(state, v, s, k)

    if cfg.strategy == "anneal":
        state, val, trace, _, timed = _anneal(
            check_rows,
            obj,
            lambda st, g: _direct_sample(st, g, v, s, k),
            _direct_apply,
            rng,
            cfg.max_iters,
            cfg.anneal_decay,
            deadline,
        )
    else:
        # hillclimb; column-first has no meaning on the full array and falls
        # back to plain hill climbing.
        state, val, trace, _, timed = _hillclimb(
            check_rows,
            obj,
            lambda st: _direct_catalogue(st, v, s, k),
            _direct_apply,
            rng,
            cfg.max_iters,
            deadline,
        )
    return restart, state, val, tuple(trace), timed


def search_augmented_direct(v: int, s: int, k: int, cfg: SearchConfig | None = None) -> DirectSearchResult:
    """Baseline search over check placements in the full v x s array.

    Moves swap a check with a test-line plot or two checks within one column,
    so every candidate keeps each check exactly once per column.  The
    objective is the direct augmented-design efficiency, evaluated by a full
    eigendecomposition per candidate; use small budgets.
    """
    cfg = cfg or SearchConfig()
    if k > v:
        raise InfeasibleParametersError(f"k={k} checks exceed v={v} rows")
    df = feasibility_df(v, s, k)
    if df < 0:
        raise InfeasibleParametersError(
            f"(v={v}, s={s}, k={k}) leaves {df} residual degrees of freedom; need >= 0"
        )
    start = time.monotonic()
    deadline = start + cfg.time_budget if cfg.time_budget is not None else None
    (restart, check_rows, val, trace, _), timed = _run_restarts(
        lambda i: _direct_restart(v, s, k, cfg, i, deadline), cfg, deadline
    )
    design = AugmentedDesign(k=k, cells=_direct_cells(check_rows, v, s, k))
    row_counts = tuple(int(x) for x in (design.cells > design.n_test_lines).sum(axis=1))
    return DirectSearchResult(
        best=design,
        objective=val,
        trace=trace,
        elapsed=time.monotonic() - start,
        restart_of_best=restart,
        row_check_counts=row_counts,
        timed_out=timed,
    )
