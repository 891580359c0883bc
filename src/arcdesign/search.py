"""Seeded stochastic search for efficient contractions.

The search walks the space of valid contractions (column- and row-binary
arrays with a fixed replication vector) by two-cell swaps of three kinds:

* ``within_column`` -- swap two cells of one column; row membership changes,
  column contents and replications do not.
* ``within_row`` -- swap two cells of one row; column contents change, row
  membership does not.
* ``transpose`` -- swap two cells in different rows and columns.

Moves are emitted only when the result stays binary, so every design the
search evaluates is valid.  Everything is deterministic given the seed:
restart i draws from a generator seeded with ``seed ^ i``, and the reduction
over restarts is by objective, ties going to the lowest restart index, so
running restarts serially or concurrently gives the same answer.

Every swap of one array shape has an id, its row in one per-shape pair
table (``_swap_index``).  The plan of the shape (``_swap_plan``) holds
each swap's two flat cells, its constant in the screen and the catalogue's
lookup tables.  A state's move catalogue is the ids a few gathers against
the plan find valid, and the hill climb and the tabu walk read the pair
table and the plan by id; an anneal reads only the pair table.

Hill climbing screens, then confirms.  A rank-2 Woodbury update of the
information matrix scores candidates in chunks of their random order, the
first ``_FIRST_CHUNK`` long and each later one ending at twice the last end.
Per state the screen inverts one v x v matrix, which also guards it against
badly conditioned states, and tabulates its products with the cell
incidences, so a candidate's score is a few table reads.  Only candidates
that could beat the current value are evaluated exactly, and the exact value
alone decides acceptance.  Trajectories, traces and evaluation counts are
those of evaluating every candidate in turn.

A tabu walk (Glover, 1989) goes on past local optima: each step screens the
whole catalogue and moves to a best-scored swap that is not tabu, even a
worse one.  It confirms the state it reaches only if the state's score
could make it the best (see ``_tabu``).

Annealing scores one sampled swap per iteration.  One driver, ``_anneal``,
runs every anneal over a walk that owns its state and proposes, scores and
commits moves.  The contraction walk's sampler draws rows of the pair
table, ``_DRAW_BLOCK`` per generator call, and checks each pair
against Python tables of the state's labels; the acceptance draws of the
anneal fall between those calls.  Its first iterations
probe the start state without moving, and the start temperature is a fixed
multiple of the median objective change they see, so the anneal starts at
the objective's own scale instead of at a fixed temperature.

The augmented efficiency ``e_aug`` is an objective of the anneal only.  For
it the walk keeps the inverse ``M`` of the contraction's lifted (v+s) x (v+s)
joint matrix and scores a swap by a rank-2 Woodbury update of it, two small
products against ``M`` instead of an eigensolve.  ``M`` is rebuilt from
scratch every 64 accepted swaps.  States and candidates that are
badly conditioned, disconnected or nearly so are evaluated from that matrix's
eigenvalues, so disconnected ones score 0.0; a two-stage guard (a cheap norm
bound, then the exact norm) finds the candidates.  Values agree with the exact
ones to about 1e-12, so a seeded anneal only leaves the exact path where a
candidate ties the current value exactly and rounding decides whether a
random number is drawn.  The search values its best state by the block
traces the report keeps on the design, so the objective is its ``e_aug_formula``.

The search walks contractions only.  Every augmented design comes from one
by the placement rule, and its ``e_aug`` follows in closed form, so no
search scores the full v* x v* eigenproblem.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import os
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .designs import (ContractionDesign, _count_violations, _incidence_arrays, _require_valid,
                      balanced_replication)
from .efficiency import _e_aug, _info_matrix, _joint_traces, _lifted_joint
from .errors import ConfigError, ConstructionError
from .spectra import _harmonic_mean, trivial_tolerance
from .textio import format_design

_STRATEGIES = ("hillclimb", "anneal", "tabu")
_OBJECTIVES = ("e_con", "e_aug")
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
#: Factor by which an anneal's temperature falls per iteration after its probe.
_ANNEAL_DECAY = 0.999
#: A tabu walk's tenure is drawn per step from ``rng.integers(*_TABU_TENURE)``.
_TABU_TENURE = (10, 21)


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of the stochastic search; defaults suit desk-scale arrays.

    The ``e_aug`` objective needs the anneal strategy: hill climbing on it
    found no better designs than on ``e_con`` and took 16-30 times longer.
    An anneal sets its own start temperature from a probe of the start
    state and cools by ``_ANNEAL_DECAY`` per iteration (see ``_anneal``).
    """

    seed: int = 0
    strategy: str = "hillclimb"
    restarts: int = 50
    max_iters: int = 20000
    time_budget: float | None = None
    workers: int = 1
    objective: str = "e_con"

    def __post_init__(self):
        for name in ("seed", "restarts", "max_iters", "workers"):
            if violations := _count_violations(**{name: getattr(self, name)}):
                raise ConfigError(violations[0])
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        if self.strategy not in _STRATEGIES:
            raise ConfigError(f"strategy must be one of {_STRATEGIES}, got {self.strategy!r}")
        if self.objective not in _OBJECTIVES:
            raise ConfigError(f"objective must be one of {_OBJECTIVES}, got {self.objective!r}")
        if self.objective == "e_aug" and self.strategy != "anneal":
            raise ConfigError(f"objective e_aug needs strategy 'anneal', got {self.strategy!r}")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.time_budget is not None:
            if isinstance(self.time_budget, bool) or not isinstance(self.time_budget, numbers.Real):
                raise ConfigError(f"time_budget must be a number, got {self.time_budget!r}")
            if not (math.isfinite(self.time_budget) and self.time_budget > 0):
                raise ConfigError("time_budget must be a finite number > 0")
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

    def to_dict(self) -> dict:
        """The seeded outcome; ``elapsed`` is left out so equal runs give equal JSON."""
        return {
            "design": format_design(self.best),
            "objective": self.objective,
            "trace": [[i, v] for i, v in self.trace],
            "restartOfBest": self.restart_of_best,
            "timedOut": self.timed_out,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# ---------------------------------------------------------------------------
# random construction


def random_contraction(v: int, s: int, k: int, seed: int = 0) -> ContractionDesign:
    """A seeded random valid contraction with the ``balanced_replication`` vector.

    Fills column by column: labels that must appear in every remaining column
    are forced in, the rest are drawn at random, and a matching assigns them
    to rows without repeats.  Dead ends redraw the labels and, failing that,
    the whole array; the preconditions guarantee an array exists, so bounded
    retries suffice.
    """
    seed = SearchConfig(seed=seed).seed  # the search's seed rule, or its ConfigError
    r = balanced_replication(v, k, s)
    cells = _fill(v, s, k, r, np.random.default_rng(seed),
                  f"failed to fill a {k}x{s} array on {v} labels after bounded retries")
    return ContractionDesign(v, cells)


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
    # row_mask[lab]: bit i is set once label lab (1-based) sits in row i
    row_mask = [0] * (v + 1)
    for j in range(s):
        cols_left = s - j
        urgent = np.nonzero(remaining == cols_left)[0]
        if len(urgent) > k:
            return None
        optional = np.nonzero((remaining > 0) & (remaining < cols_left))[0]
        need = k - len(urgent)
        if len(optional) < need:
            return None
        forced = (urgent + 1).tolist()
        for _ in range(12):
            labels = forced
            if need:  # positions in optional take the draws of drawing from it
                extra = optional[rng.choice(len(optional), size=need, replace=False)]
                labels = forced + (extra + 1).tolist()
            rows = _match_rows(labels, row_mask, k, rng)
            if rows is not None:
                break
        else:
            return None
        cells[rows, j] = labels
        remaining[np.array(labels) - 1] -= 1
        for i, lab in zip(rows, labels):
            row_mask[lab] |= 1 << i
    return cells


def _match_rows(labels: list[int], row_mask: list[int], k: int, rng) -> list[int] | None:
    # Kuhn's augmenting paths: labels to rows, avoiding row repeats.  Each label's
    # allowed rows are shuffled in place, which takes the draws of rng.permutation.
    allowed = []
    for lab in labels:
        rows = [i for i in range(k) if not row_mask[lab] >> i & 1]
        rng.shuffle(rows)
        allowed.append(rows)
    row_owner = [-1] * k

    def assign(li: int, seen: list[bool]) -> bool:
        for row in allowed[li]:
            if not seen[row]:
                seen[row] = True
                if row_owner[row] == -1 or assign(row_owner[row], seen):
                    row_owner[row] = li
                    return True
        return False

    order = list(range(len(labels)))
    rng.shuffle(order)
    for li in order:
        if not assign(li, [False] * k):
            return None
    rows_for_label = [-1] * len(labels)
    for row, li in enumerate(row_owner):
        rows_for_label[li] = row
    return rows_for_label


# ---------------------------------------------------------------------------
# neighbourhood

def neighbor_moves(c: ContractionDesign) -> np.ndarray:
    """The ``(i1, j1, i2, j2)`` rows of ``_swap_index`` whose swaps keep ``c`` valid, in order."""
    _require_valid(c)
    return _swap_index(c.k, c.s)[_catalogue(c.cells, c.v)]


def _swap(cells: np.ndarray, move) -> np.ndarray:
    i1, j1, i2, j2 = move
    out = cells.copy()
    out[i1, j1], out[i2, j2] = out[i2, j2], out[i1, j1]
    return out


@functools.lru_cache(maxsize=1)
def _swap_index(k: int, s: int) -> np.ndarray:
    """Every two-cell swap of a k x s array: row n is ``(i1, j1, i2, j2)``, read-only.

    Within-column swaps go by column, within-row swaps by row, transposes by
    row pair, then first and second column.  A search works on one shape at
    a time, so the cache keeps one.
    """
    r1, r2 = np.triu_indices(k, 1)
    c1, c2 = np.triu_indices(s, 1)
    j = np.repeat(np.arange(s), len(r1))
    i = np.repeat(np.arange(k), len(c1))
    j1, j2 = np.nonzero(~np.eye(s, dtype=bool))
    index = np.concatenate([
        np.column_stack([np.tile(r1, s), j, np.tile(r2, s), j]),
        np.column_stack([i, np.tile(c1, k), i, np.tile(c2, k)]),
        np.column_stack([np.repeat(r1, len(j1)), np.tile(j1, len(r1)),
                         np.repeat(r2, len(j1)), np.tile(j2, len(r1))]),
    ], dtype=np.int32)  # int32 halves the C(ks, 2)-row tables; cell coordinates fit
    index.flags.writeable = False
    return index


class _SwapPlan(NamedTuple):
    """The tables that check and score the swaps of ``_swap_index(k, s)``.

    Swap n exchanges cells ``(i1, j1, i2, j2)``, row n of the pair table.
    Cell (i, j) is flat cell ``i*s + j``, and ``flat[:, n] = (p1, p2)``.
    ``term[n] = 2 ([i1 != i2] / s + [j1 != j2] / k)`` is the swap's constant
    in the screen's Woodbury matrix.

    For the catalogue, a state's labels go into a zeroed boolean table of
    ``size = (k+s) * (v+1)`` entries, rows first, then columns: line l holds
    label x at entry ``l*(v+1) + x``, and ``marks[:, p]`` are the starts of
    flat cell p's row and column lines.  With label a at p1 and b at p2,
    ``probes[:, t, n]`` are the starts of the row and the column that label t
    of (a, b) would move into.  A swap within one row probes its columns
    twice, and one within a column its rows twice, so the swap is valid iff
    all four probes miss.  Built once per shape and shared read-only between
    threads; the pair table is not a field, so only ``_swap_index`` holds it.
    """

    flat: np.ndarray
    term: np.ndarray
    probes: np.ndarray
    marks: np.ndarray
    size: int


@functools.lru_cache(maxsize=1)
def _swap_plan(k: int, s: int, v: int) -> _SwapPlan:
    i1, j1, i2, j2 = _swap_index(k, s).T
    rows = np.stack([i2, i1]) * (v + 1)
    cols = np.stack([k + j2, k + j1]) * (v + 1)
    # flat and probes take the index type of the gathers that read them
    probes = np.stack([np.where(i1 == i2, cols, rows), np.where(j1 == j2, rows, cols)],
                      dtype=np.int64)
    cell = np.arange(k * s)
    marks = np.stack([cell // s, k + cell % s]) * (v + 1)
    plan = _SwapPlan(np.stack([i1 * s + j1, i2 * s + j2], dtype=np.int64),
                     2.0 * ((i1 != i2) / s + (j1 != j2) / k), probes, marks, (k + s) * (v + 1))
    for table in plan[:-1]:
        table.flags.writeable = False
    return plan


def _catalogue(cells: np.ndarray, v: int) -> np.ndarray:
    """The ids (rows of ``_swap_index``) of the swaps that keep rows and columns binary.

    A swap of labels a and b is valid when neither lands in a row or column
    that already holds it; that also rules out a == b.
    """
    k, s = cells.shape
    plan = _swap_plan(k, s, v)
    labels = cells.ravel()
    has = np.zeros(plan.size, dtype=bool)
    has[plan.marks + labels] = True
    clash = has[plan.probes + labels[plan.flat]]
    return np.flatnonzero(~clash.reshape(4, -1).any(axis=0))


# ---------------------------------------------------------------------------
# objectives


class _ContractionObjective:
    """Average-efficiency evaluation and move screening on raw cell arrays.

    ``value`` is exact: it rebuilds the information matrix ``A``, scales it to
    ``A_s = D A D`` with ``D = diag(r)^-1/2`` and takes ``e_con``'s ``_harmonic_mean``.

    ``screen`` scores a catalogue from one state.  A swap of label a at flat
    cell p1 = i1*s + j1 with label b at p2 changes ``A`` by
    ``-(u z' + z u') - c u u'``, where ``u = e_b - e_a``,
    ``z = Z[:, p1] - Z[:, p2]`` and ``c = 2 ([i1 != i2] / s + [j1 != j2] / k)``,
    the plan's ``term`` of the swap.
    Column i*s + j of the v x ks matrix ``Z`` is ``N_R[:, i] / s + N_C[:, j] / k``.
    The unit null vector ``q = r^1/2 / |r^1/2|`` of ``A_s`` stays null
    through every swap, so with ``M = (A_s + qq')^-1``,
    ``P = D M D`` and ``Q = P diag(r) P`` the candidate's
    ``tr(A_s^+) = tr(M) - 1 - tr(S^-1 T)``, from the 2x2 Woodbury matrices
    ``S = [[u'Pu, u'Pz - 1], [., z'Pz + c]]`` and
    ``T = [[u'Qu, u'Qz], [., z'Qz]]``.  Per state the screen tabulates
    ``[P; Q]``, ``H = [P; Q] Z`` and ``G = Z' [P; Q] Z``, so each entry of
    ``S`` and ``T`` is a sum of table entries at a, b, p1 and p2, with ``c``
    read from the plan by swap id.
    """

    def __init__(self, v: int, s: int, k: int, r: np.ndarray):
        self.v, self.s, self.k = v, s, k
        self.r = r.astype(float)
        self.rr_term = np.outer(self.r, self.r) / (k * s)
        inv_sqrt = 1.0 / np.sqrt(self.r)
        self.scale = np.outer(inv_sqrt, inv_sqrt)
        self.null_term = np.outer(self.r, self.r) ** 0.5 / self.r.sum()
        self._last = None, None

    def value(self, cells: np.ndarray) -> float:
        w = np.linalg.eigvalsh(self._scaled_info(cells)[0])
        if w[1] < trivial_tolerance(w):
            return 0.0
        return _harmonic_mean(w[1:])

    def _scaled_info(self, cells):
        # The last result is kept for the screen of a just-accepted state.
        if cells is self._last[0]:
            return self._last[1]
        n_r, n_c = _incidence_arrays(cells, self.v)
        a = _info_matrix(n_r, n_c, self.r, self.k * self.s, self.rr_term)
        self._last = cells, (a * self.scale, n_r, n_c)
        return self._last[1]

    def screen(self, cells: np.ndarray, ids: np.ndarray):
        """``score(idx)``, the ``value`` of each swap ``ids[idx]`` of the plan by rank-2 updates.

        The inverse and the per-state tables are built here, once, however
        many chunks are scored.  A state that is disconnected or nearly so
        scores ``+inf`` for every swap, and the inverse itself finds it: for
        positive definite ``M``, ``tr(M) >= 1 / (smallest eigenvalue of
        A_s + qq')``, so a state is screened only if ``inv`` succeeds and
        ``0 < tr(M) <= 1 / _SCREEN_MIN_EIG``.  Every state whose smallest
        eigenvalue lies below ``_SCREEN_MIN_EIG`` is refused; a trace that
        is not positive means rounding left ``M`` indefinite.
        """
        a_s, n_r, n_c = self._scaled_info(cells)
        try:
            m = np.linalg.inv(a_s + self.null_term)
            trace = np.trace(m)
        except np.linalg.LinAlgError:
            trace = np.nan
        if not 0.0 < trace * _SCREEN_MIN_EIG <= 1.0:
            return lambda idx: np.full(len(idx), np.inf)
        v, s, k = self.v, self.s, self.k
        ks = k * s
        # [P; Q] with P = D M D and Q = P diag(r) P, both v x v
        p = m * self.scale
        pq = np.concatenate([p, (p * self.r) @ p]).reshape(2, v, v)
        diag = pq.diagonal(axis1=1, axis2=2)
        uu = (diag[:, :, None] + diag[:, None, :] - 2.0 * pq).reshape(2, v * v)
        # Z, whose column i*s + j is N_R[:, i] / s + N_C[:, j] / k
        z = (n_r[:, :, None] / s + n_c[:, None, :] / k).reshape(v, ks)
        h = pq.reshape(2 * v, v) @ z
        # G = Z' [P; Q] Z, kept as its diagonal and as -2G; a swap's c joins the P half
        cross = (-2.0 * z.T) @ h.reshape(2, v, ks)
        gd = cross.diagonal(axis1=1, axis2=2) * -0.5
        cross = cross.reshape(2, ks * ks)
        h = h.reshape(2, v * ks)
        lab = cells.ravel() - 1
        flat, term, *_ = _swap_plan(k, s, v)

        def score(idx: np.ndarray) -> np.ndarray:
            n = ids[idx]
            p1, p2 = flat.take(n, axis=1)
            a, b = lab[p1], lab[p2]
            s11, t11 = uu.take(a * v + b, axis=1)
            ha, hb = a * ks, b * ks
            s12, t12 = (h.take(hb + p1, axis=1) - h.take(hb + p2, axis=1)
                        - h.take(ha + p1, axis=1) + h.take(ha + p2, axis=1))
            s12 -= 1.0
            pair = cross.take(p1 * ks + p2, axis=1)
            pair[0] += term.take(n)
            s22, t22 = gd.take(p1, axis=1) + gd.take(p2, axis=1) + pair
            with np.errstate(divide="ignore", invalid="ignore"):
                drop = (s22 * t11 - 2.0 * s12 * t12 + s11 * t22) / (s11 * s22 - s12 * s12)
                return (v - 1) / (trace - 1.0 - drop)

        return score


class _SwapWalk:
    """The walk of one contraction anneal: its state, sampler and scores, kept in step.

    It follows the walk protocol of ``_anneal``; ``state()`` copies the cells.
    For the sampler the walk keeps the labels as a flat Python list and the
    labels of each row and each column as Python sets, which ``accept``
    keeps, and it draws cell pairs ``_DRAW_BLOCK`` at a time.

    Without ``e_aug`` the walk scores ``obj.value`` of the swapped cells.
    With it, ``B~`` is the one evaluator: ``b_matrix`` lifted to eigenvalue
    1 on its two trivial directions (``efficiency._lifted_joint``, whose
    inverse gives ``c_bar_v`` and ``c_bar_s``), with ``e_aug = efficiency._e_aug(sum 1/w)``
    over its eigenvalues ``w``, or 0.0 if ``w[0] < trivial_tolerance(w)``.
    The walk keeps ``M = B~^-1``, ``tr(M)`` and ``|M|_F^2``.  A swap of
    label a at (i1, j1) with label b at (i2, j2) changes ``B~`` by
    ``u z' + z u'``, where ``u = D^-1/2 (e_b - e_a, 0)``,
    ``z = D^-1/2 (-[i1!=i2] (x + e_b - e_a)/s, [j1!=j2] (e_j1 - e_j2))``
    and ``x = N_R (e_i1 - e_i2)``; the walk keeps ``N_R'`` scaled by
    ``D^-1/2 / s`` for it.  With ``U = [u z]``, one product gives
    ``G' = U'M`` and one 4 x 2 product ``U'MU`` and ``G'G``.  The 2x2
    Woodbury capacitance ``S = [[0, 1], [1, 0]] + U'MU`` and
    ``T = S^-1 G'G`` give ``tr(M') = tr(M) - tr(T)`` for
    ``M' = M - G S^-1 G'`` in Python floats.  Accepting the swap sets
    ``M <- M'``, and ``M`` is rebuilt after ``_REBUILD_EVERY`` updates: a
    Cholesky factorisation of ``B~ - _WALK_MIN_EIG I`` tests it, ``inv``
    gives ``M``, and ``M`` gives ``tr(M)`` and ``|M|_F^2``.

    Rounding in the update grows with the conditioning of ``B~``, so if the
    factorisation fails (the smallest eigenvalue lies below
    ``_WALK_MIN_EIG``) the eigenvalues of ``B~`` score the state and all its
    candidates.  So they do every candidate that may itself lie below it, by
    a two-stage guard on ``|M'|_F``, which bounds 1/(smallest eigenvalue)
    from above: first ``bound = |M|_F + |G S^-1 G'|_F = |M|_F + sqrt(tr(T^2))``
    plus ``_margin(bound)``, as rounding may leave the sum below ``|M'|_F``;
    only if that is too large, ``G'MG`` for the exact
    ``|M'|_F^2 = |M|_F^2 - 2 tr(S^-1 G'MG) + tr(T^2)``, which an accepted
    swap forms too, so ``|M|_F^2`` stays exact.  They also score every
    candidate with ``|det S| < _MIN_CAPACITANCE_DET``, so disconnected ones
    score 0.0.  Accepting an exactly scored candidate rebuilds ``M``.
    """

    def __init__(self, obj: _ContractionObjective, cells: np.ndarray, e_aug: bool):
        self.obj = obj
        self.inverse = e_aug
        self.cells = cells.copy()
        self.move = self.pending = None
        self.pairs = _swap_index(obj.k, obj.s)
        self.draws: list[list[int]] = []
        rows = cells.tolist()
        self.labels = [lab for row in rows for lab in row]
        self.rows = [set(row) for row in rows]
        self.cols = [set(col) for col in zip(*rows)]
        if not self.inverse:
            self.val = obj.value(cells)
            return
        self.e_aug = functools.partial(_e_aug, (obj.v - obj.k) * obj.s + obj.k, obj.v, obj.s)
        # D^-1/2 on label and on column coordinates
        self.dv, self.dc = 1.0 / np.sqrt(obj.s), 1.0 / np.sqrt(obj.v)
        # U' = [u z]' over G' = U'M (M is symmetric, so G = MU); G' is kept until the next score
        ug = np.zeros((4, obj.v + obj.s))
        self.u, self.z, self.x = ug[0], ug[1], ug[1, :obj.v]
        self.ug, self.uz, self.gt = ug, ug[:2], ug[2:]
        self._rebuild()

    def state(self) -> np.ndarray:
        return self.cells.copy()

    def _rebuild(self) -> None:
        self.updates = 0
        n_r, n_c = _incidence_arrays(self.cells, self.obj.v)
        joint = _lifted_joint(n_r, n_c, self.obj.r, self.obj.k)
        self.xr = np.ascontiguousarray(n_r.T) * (self.dv / self.obj.s)
        try:
            np.linalg.cholesky(joint - _WALK_MIN_EIG * np.eye(len(joint)))
        except np.linalg.LinAlgError:
            self.m = None
            self.val = self._exact(np.linalg.eigvalsh(joint))
            return
        self.m = np.linalg.inv(joint)
        self.tr, self.norm2 = float(np.trace(self.m)), float(np.vdot(self.m, self.m))
        self.val = self.e_aug(self.tr)

    def _exact(self, w: np.ndarray) -> float:
        """``e_aug`` from the ascending eigenvalues of ``B~``; 0.0 if disconnected."""
        if w[0] < trivial_tolerance(w):
            return 0.0
        return self.e_aug(float(np.sum(1.0 / w)))

    def _exact_value(self, move) -> float:
        cand = _swap(self.cells, move)
        joint = _lifted_joint(*_incidence_arrays(cand, self.obj.v), self.obj.r, self.obj.k)
        return self._exact(np.linalg.eigvalsh(joint))

    def propose(self, rng) -> tuple[int, int, int, int] | None:
        """A valid swap, uniform over them: draw cell pairs, reject invalid ones.

        Each try pops one pair drawn by ``_draw_pairs``.
        """
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

    def score(self, move) -> float:
        self.move, self.pending = move, None
        if not self.inverse:
            val = self.obj.value(_swap(self.cells, move))
        elif self.m is None:
            val = self._exact_value(move)
        else:
            val = self._score(move)
        self.scored = val
        return val

    def accept(self) -> None:
        i1, j1, i2, j2 = self.move
        labels, s = self.labels, self.obj.s
        p1, p2 = i1 * s + j1, i2 * s + j2
        a, b = labels[p1], labels[p2]
        labels[p1], labels[p2] = b, a
        self.cells[i1, j1], self.cells[i2, j2] = b, a
        for sets, x1, x2 in ((self.rows, i1, i2), (self.cols, j1, j2)):
            if x1 != x2:
                sets[x1].remove(a)
                sets[x1].add(b)
                sets[x2].remove(b)
                sets[x2].add(a)
        self.val = self.scored
        if not self.inverse:
            return
        if self.pending is None:
            self._rebuild()
            return
        if i1 != i2:
            xr, c = self.xr, self.dv / s
            xr[i1, a - 1] -= c
            xr[i1, b - 1] += c
            xr[i2, b - 1] -= c
            xr[i2, a - 1] += c
        (s11, s12, s22, det), self.tr, t2, norm2 = self.pending
        if norm2 is None:
            norm2 = self._norm2(s11, s12, s22, det, t2)
        gt = self.gt
        self.m -= gt.T @ ((np.array([[s22, -s12], [-s12, s11]]) / det) @ gt)
        self.norm2 = norm2
        self.updates += 1
        if self.updates == _REBUILD_EVERY:
            self._rebuild()

    def _score(self, move) -> float:
        # The value of a candidate, and what accepting it needs.
        v, s = self.obj.v, self.obj.s
        dv = self.dv
        i1, j1, i2, j2 = move
        a, b = self.labels[i1 * s + j1] - 1, self.labels[i2 * s + j2] - 1
        u, z = self.u, self.z
        self.uz.fill(0.0)
        if i1 != i2:
            np.subtract(self.xr[i2], self.xr[i1], out=self.x)
            z[a] = z[b] = 0.0  # x + e_b - e_a vanishes on the swapped labels
        if j1 != j2:
            z[v + j1], z[v + j2] = self.dc, -self.dc
        u[a], u[b] = -dv, dv
        np.dot(self.uz, self.m, out=self.gt)
        # [U G]'G holds U'MU over G'G, as Python floats
        (c11, c12), (_, c22), (p11, p12), (p21, p22) = np.dot(self.ug, self.gt.T).tolist()
        # the 2x2 Woodbury capacitance S = [[0, 1], [1, 0]] + U'MU
        s11, s12, s22 = c11, 1.0 + c12, c22
        det = s11 * s22 - s12 * s12
        if abs(det) < _MIN_CAPACITANCE_DET:
            return self._exact_value(move)
        # T = S^-1 G'G; tr(T^2) bounds |M'|_F, and tr(T) gives tr(M')
        t11, t12 = (s22 * p11 - s12 * p21) / det, (s22 * p12 - s12 * p22) / det
        t21, t22 = (s11 * p21 - s12 * p11) / det, (s11 * p22 - s12 * p12) / det
        t2 = t11 * t11 + 2.0 * t12 * t21 + t22 * t22
        norm2 = None
        bound = math.sqrt(self.norm2) + math.sqrt(abs(t2))
        self.bound = bound + _margin(bound)  # so rounding cannot take it below |M'|_F
        if self.bound * _WALK_MIN_EIG > 1.0:
            norm2 = self._norm2(s11, s12, s22, det, t2)
            if norm2 * _WALK_MIN_EIG**2 > 1.0:
                return self._exact_value(move)
        trace = self.tr - (t11 + t22)
        self.pending = (s11, s12, s22, det), trace, t2, norm2
        return self.e_aug(trace)

    def _norm2(self, s11: float, s12: float, s22: float, det: float, t2: float) -> float:
        """``|M'|_F^2 = |M|_F^2 - 2 tr(S^-1 G'MG) + tr(T^2)`` for the candidate just scored."""
        (q11, q12), (q21, q22) = ((self.gt @ self.m) @ self.gt.T).tolist()
        return self.norm2 - 2.0 * (s22 * q11 - s12 * (q12 + q21) + s11 * q22) / det + t2


def _draw_pairs(pairs: np.ndarray, rng) -> list[list[int]]:
    """``_DRAW_BLOCK`` rows of the pair table, drawn iid and uniformly by one generator call.

    The sampler pops them from the end of the list, one per try.
    """
    return pairs[rng.integers(len(pairs), size=_DRAW_BLOCK)].tolist()


# ---------------------------------------------------------------------------
# local-search drivers


def _margin(val: float) -> float:
    """The rounding margin of an objective value; scores closer than it may be ties."""
    return 1e-9 * max(1.0, abs(val))


def _hillclimb(cells, obj: _ContractionObjective, rng, max_iters, deadline):
    """First-improvement hill climbing on ``e_con``; stops at a local optimum or budget.

    Candidates are tried in random order and screened in chunks of it whose
    ends double from ``_FIRST_CHUNK``.  One whose ``obj.screen`` score lies
    below the current value by more than a rounding margin is passed over but
    counted as evaluated; ``obj.value`` confirms every other one, so
    trajectory, trace and evaluation count match evaluating every candidate
    exactly.
    """
    index = _swap_index(obj.k, obj.s)
    cur_val = obj.value(cells)
    trace = [(0, cur_val)]
    evals = 0
    timed_out = False
    while evals < max_iters:
        if deadline is not None and time.monotonic() > deadline:
            timed_out = True
            break
        ids = _catalogue(cells, obj.v)
        if len(ids) == 0:
            break
        order = rng.permutation(len(ids))[: max_iters - evals]
        floor = cur_val - _margin(cur_val)
        score = obj.screen(cells, ids)
        start, evals = evals, evals + len(order)
        improved = False
        lo, hi = 0, _FIRST_CHUNK
        while lo < len(order) and not (improved or timed_out):
            for pos in (lo + np.flatnonzero(~(score(order[lo:hi]) <= floor))).tolist():
                if deadline is not None and time.monotonic() > deadline:
                    timed_out = True
                    evals = start + pos
                    break
                cand = _swap(cells, index[ids[order[pos]]])
                val = obj.value(cand)
                if val > cur_val:
                    cells, cur_val, evals = cand, val, start + pos + 1
                    trace.append((evals, val))
                    improved = True
                    break
            lo, hi = hi, 2 * hi
        if not improved:
            break
    return cells, cur_val, trace, evals, timed_out


def _tabu(cells, obj: _ContractionObjective, rng, max_iters, deadline):
    """A tabu walk on ``e_con``; reports the best state ``obj.value`` confirmed.

    Each step scores the catalogue with one ``obj.screen`` call, exactly
    where it gives no finite score.  A swap is tabu if it puts a label back
    into a cell the label left fewer than ``rng.integers(*_TABU_TENURE)``
    steps ago, unless it beats the best value by more than the margin; the
    tenure table is indexed by label and by the plan's flat cells.  Of
    the rest, the step takes the first in a ``rng.permutation`` that scores
    within the margin of the top, so ties do not depend on rounding.  The
    budget counts screened candidates; the walk stops before a step that
    would exceed it, at a deadline checked once per step, or with no swap left.
    A state is confirmed only if its score lies above the best minus the
    margin: scores are within about 1e-12 of exact values, so no other state
    can become the best.
    """
    v, plan, index = obj.v, _swap_plan(obj.k, obj.s, obj.v), _swap_index(obj.k, obj.s)
    best, best_val = cells, obj.value(cells)
    trace = [(0, best_val)]
    # [x - 1, p]: the first step at which label x may return to flat cell p
    until = np.zeros((v, cells.size), dtype=np.int64)
    evals = step = 0
    timed_out = False
    while True:
        if deadline is not None and time.monotonic() > deadline:
            timed_out = True
            break
        ids = _catalogue(cells, v)
        if len(ids) == 0 or evals + len(ids) > max_iters:
            break
        order = rng.permutation(len(ids))
        evals += len(ids)
        scores = obj.screen(cells, ids)(np.arange(len(ids)))
        unscored = np.flatnonzero(~np.isfinite(scores))
        scores[unscored] = [obj.value(_swap(cells, index[n])) for n in ids[unscored].tolist()]
        p1, p2 = plan.flat.take(ids, axis=1)
        lab = cells.ravel() - 1
        allowed = (((until[lab[p1], p2] <= step) & (until[lab[p2], p1] <= step))
                   | (scores > best_val + _margin(best_val)))
        if not allowed.any():
            break
        top = scores[allowed].max()
        chosen = order[np.flatnonzero((allowed & (scores >= top - _margin(top)))[order])[0]]
        until[lab[p1[chosen]], p1[chosen]] = until[lab[p2[chosen]], p2[chosen]] = (
            step + rng.integers(*_TABU_TENURE))
        cells = _swap(cells, index[ids[chosen]])
        step += 1
        if scores[chosen] <= best_val - _margin(best_val):
            continue
        val = obj.value(cells)
        if val > best_val:
            best, best_val = cells, val
            trace.append((evals, val))
    return best, best_val, trace, evals, timed_out


def _anneal(walk, rng, max_iters, deadline):
    """Metropolis acceptance on the objective difference; reports the running best.

    ``walk`` owns the state, whose value is ``walk.val``: ``propose(rng)``
    returns a move or None, ``score(move)`` the value it leads to, and
    ``accept()`` commits the move last scored.  ``state()``, an array the walk
    will not change, is taken only when the best improves.  The first
    ``_T0_PROBE`` iterations are a probe: they score moves from the start
    state without moving, and set the start temperature from the differences
    they see (``_start_temp``).  They count in the budget and in the trace
    positions.  Each later iteration scores one move and draws
    ``rng.random()`` only when the difference is not positive; the
    temperature then falls by ``_ANNEAL_DECAY``.  The walk is a
    ``_SwapWalk``; see there for the cost and the fallback to exact values.
    """
    cur_val = walk.val
    best_state, best_val = walk.state(), cur_val
    trace = [(0, cur_val)]
    probe = []
    evals = 0
    timed_out = False
    for it in range(1, max_iters + 1):
        if deadline is not None and it % 64 == 0 and time.monotonic() > deadline:
            timed_out = True
            break
        move = walk.propose(rng)
        if move is None:
            break
        val = walk.score(move)
        evals = it
        delta = val - cur_val
        if it <= _T0_PROBE:
            probe.append(abs(delta))
            if it == _T0_PROBE:
                temp = _start_temp(probe)
            continue
        if delta > 0 or rng.random() < math.exp(delta / temp):
            walk.accept()
            cur_val = val
            if cur_val > best_val:
                best_state, best_val = walk.state(), cur_val
                trace.append((it, best_val))
        temp *= _ANNEAL_DECAY
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
# restarts and the contraction search


def _run_restarts(cfg: SearchConfig, v: int, restart_fn) -> SearchResult:
    """Run ``cfg.restarts`` restarts and keep the best as a ``SearchResult``.

    Restart i calls ``restart_fn(i, rng, deadline)`` with
    ``rng = default_rng(cfg.seed ^ i)`` and gets a driver's
    (state, value, trace, evaluations, timed out) tuple back.  Of ``n``
    workers (at most ``cfg.workers``, the restarts and the CPUs), worker w
    runs restarts w, w + n, w + 2n, ..., inline if n is 1 and else on a
    thread, stops at its first restart past the deadline (restart 0 always
    runs) and keeps only its best, so memory grows with n, not the restarts.
    Bests go by objective, ties to the lowest restart index, so serial and
    threaded searches agree.  The best state is a contraction on ``v`` labels.
    """
    start = time.monotonic()
    deadline = start + cfg.time_budget if cfg.time_budget is not None else None
    n = min(cfg.workers, cfg.restarts, os.cpu_count() or 1)

    def stride(w: int):
        # The (value, restart, state, trace) of the worker's best, and whether it timed out.
        best, timed_out = None, False
        for i in range(w, cfg.restarts, n):
            if i > 0 and deadline is not None and time.monotonic() > deadline:
                return best, True
            state, val, trace, _, out = restart_fn(i, np.random.default_rng(cfg.seed ^ i), deadline)
            timed_out |= out
            if best is None or val > best[0]:
                best = val, i, state, trace
        return best, timed_out

    if n > 1:
        # Imported here: every CLI start would pay for it, and few searches use threads.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n) as pool:
            strides = list(pool.map(stride, range(n)))
    else:
        strides = [stride(0)]
    val, restart, state, trace = min((b for b, _ in strides if b), key=lambda b: (-b[0], b[1]))
    return SearchResult(best=ContractionDesign(v, state), objective=val, trace=tuple(trace),
                        elapsed=time.monotonic() - start, restart_of_best=restart,
                        timed_out=any(out for _, out in strides))


def _contraction_restart(v, s, k, r, cfg: SearchConfig, restart: int, rng, deadline):
    cells = _fill(v, s, k, r, rng, f"restart {restart}: could not build a starting contraction")
    obj = _ContractionObjective(v, s, k, r)
    if cfg.strategy == "hillclimb":
        return _hillclimb(cells, obj, rng, cfg.max_iters, deadline)
    if cfg.strategy == "anneal":
        return _anneal(_SwapWalk(obj, cells, cfg.objective == "e_aug"), rng, cfg.max_iters,
                       deadline)
    return _tabu(cells, obj, rng, cfg.max_iters, deadline)


def search_contraction(v: int, s: int, k: int, cfg: SearchConfig | None = None) -> SearchResult:
    """Search for a contraction maximizing the configured efficiency objective.

    Deterministic given the seed, serially or on threads (``_run_restarts``).  Raises
    ``ConfigError`` when the budget left every restart at a disconnected design (objective
    0.0).  An ``e_aug`` objective is the best state's value by the block traces that
    ``full_report`` keeps on the design and reads.
    """
    cfg = cfg or SearchConfig()
    r = balanced_replication(v, k, s)
    result = _run_restarts(cfg, v, functools.partial(_contraction_restart, v, s, k, r, cfg))
    if result.objective == 0.0:
        budget = f"max_iters {cfg.max_iters}"
        if cfg.time_budget is not None:
            budget += f" and time_budget {cfg.time_budget:g}"
        raise ConfigError(f"{budget} left every restart at a disconnected design; raise the budget")
    if cfg.objective == "e_aug":
        traces = _joint_traces(result.best)
        result = replace(result, objective=_e_aug((v - k) * s + k, v, s, sum(traces)))
    return result
