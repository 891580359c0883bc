"""Efficiency factors of contractions and of the augmented designs they generate.

The quantities computed here all descend from two information matrices:

* the contraction's own row-column information matrix (v x v), and
* the augmented design's information matrix (v* x v*).

The key fact the package is built on is that the two are linked: the
non-trivial canonical efficiency factors (cefs) of the augmented design are
exactly the non-trivial eigenvalues of a joint (v+s) x (v+s) matrix assembled
from the contraction alone (``b_matrix``), padded with unit cefs.  The
average efficiency factor of the augmented design therefore has a closed form
(``_e_aug``, written once) in the trace of the inverse of the joint matrix
lifted to eigenvalue 1 on its trivial directions (``_lifted_joint``), whose
row and column blocks give the contraction-level ``c_bar_v`` and ``c_bar_s``.
``e_aug_direct`` recomputes the same number from the full v* x v*
eigenproblem: the independent route.

The direct route forms no v* x v* product (``info_matrix_augmented``) and
solves its matrix once (``augmented_cefs``).  On the contraction side,
``incidence``, ``contraction_cefs`` and the two block traces of ``B~^-1`` are
kept on the design object, so one ``full_report`` builds one incidence set,
solves the contraction's own spectrum once (connectivity, ``e_con`` and the
cefs) and inverts ``B~`` once (``c_bar_v`` and ``c_bar_s``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .augmentor import augment
from .designs import AugmentedDesign, ContractionDesign, _kept, _require_valid, incidence
from .spectra import (
    Spectrum,
    _checked_spectrum,
    _require_one_trivial,
    cefs_from_info,
    harmonic_mean_nontrivial,
)


def info_matrix_contraction(c: ContractionDesign) -> np.ndarray:
    """Row-column information matrix of the contraction.

    ``diag(r) - (1/s) N_R N_R' - (1/k) N_C N_C' + (1/(ks)) r r'``; row sums
    are zero, so the matrix has rank at most v-1.
    """
    inc = incidence(c)
    return _info_matrix(inc.n_r, inc.n_c, c.r.astype(float), c.k * c.s)


def _info_matrix(n_r: np.ndarray, n_c: np.ndarray, r: np.ndarray, n: int,
                 rr_term: np.ndarray | None = None) -> np.ndarray:
    # The row-column information matrix of a contraction from its incidence arrays,
    # the replication vector r and the plot count n, for info_matrix_contraction and
    # the search, which passes rr'/n built once per shape.  The N_R N_R' product is
    # the result and one scratch buffer takes N_C N_C', then rr'/n: the four-term
    # expression's steps in its order, so its bytes.  info_matrix_augmented takes
    # the same steps entry by entry.
    rows, s = n_r.shape[1], n_c.shape[1]
    a = _row_block(n_r, r, s)
    scratch = n_c @ n_c.T
    scratch /= rows
    a -= scratch
    if rr_term is None:
        rr_term = np.outer(r, r, out=scratch)
        rr_term /= n
    a += rr_term
    return a


def _row_block(n_r: np.ndarray, r: np.ndarray, s: int) -> np.ndarray:
    # diag(r) - (1/s) N_R N_R': the rows-only part of the information matrix, in place
    # in the product.  Adding r on the diagonal of 0.0 - N_R N_R'/s gives the dense
    # form's bytes, zero signs too.
    block = n_r @ n_r.T
    block /= s
    np.subtract(0.0, block, out=block)
    block.ravel()[:: len(r) + 1] += r
    return block


@_kept
def contraction_cefs(c: ContractionDesign) -> Spectrum:
    """Canonical efficiency factors of the contraction itself.

    Solved once per design object and kept on it, like its ``incidence``: a
    ``Spectrum`` is read-only, so ``e_con`` and ``full_report`` share it.
    """
    return cefs_from_info(info_matrix_contraction(c), c.r.astype(float))


def e_con(c: ContractionDesign) -> float:
    """Average efficiency factor of the contraction: harmonic mean of its v-1 cefs."""
    return harmonic_mean_nontrivial(contraction_cefs(c))


def c_bar_v(c: ContractionDesign) -> float:
    """Harmonic-mean eigenvalue of the contraction information matrix over mean replication.

    Equals ``e_con`` whenever replication is equal; with unequal replication
    the two differ because the scaling here uses the mean rather than the
    per-label replications.  It is ``(v/k) (v-1) / (tr(B~^-1[:v, :v]) - 1)``.
    """
    return (c.v / c.k) * (c.v - 1) / (_joint_traces(c)[0] - 1.0)


def c_bar_s(c: ContractionDesign) -> float:
    """Harmonic-mean eigenvalue of the column block of the joint matrix inverse.

    It is ``(v/k) (s-1) / (tr(B~^-1[v:, v:]) - 1)``: the lifted column direction gives the 1.
    """
    return (c.v / c.k) * (c.s - 1) / (_joint_traces(c)[1] - 1.0)


@_kept
def _joint_traces(c: ContractionDesign) -> tuple[float, float]:
    """The traces of the row and the column block of ``B~^-1``, from one inverse of ``B~``.

    ``F' 1_v = 0`` and ``F F'/k = N_C N_C'/k - r r'/(ks)``, so the Schur
    complement of ``B~``'s column block is ``A/s + 1 1'/v`` for the
    contraction's information matrix ``A``, whose inverse has trace
    ``s sum(1/lambda_i) + 1`` over A's non-trivial eigenvalues.  So ``B~`` is
    singular exactly when A has a second zero, as the contraction's kept
    spectrum shows first: the lift moves only ``(1_v, 0)`` and ``(0, 1_s)``.
    """
    _require_one_trivial(contraction_cefs(c))
    inc = incidence(c)
    inv, v = np.linalg.inv(_lifted_joint(inc.n_r, inc.n_c, c.r.astype(float), c.k)), c.v
    return float(np.trace(inv[:v, :v])), float(np.trace(inv[v:, v:]))


def b_matrix(c: ContractionDesign) -> np.ndarray:
    """Joint (v+s) x (v+s) matrix whose non-trivial eigenvalues are augmented-design cefs.

    Assembled as ``D^-1/2 [[diag(r) - W/s, F], [F', k I_s]] D^-1/2`` with
    ``D = diag(s I_v, v I_s)``.  The two trivial directions are spanned by
    ``(1_v, 0)`` (eigenvalue 0) and ``(0, 1_s)`` (eigenvalue k/v); the
    remaining (v-1)+(s-1) eigenvalues are the cefs that the augmented design
    adds beyond its unit ones.
    """
    inc = incidence(c)
    return _joint_matrix(inc.n_r, inc.n_c, c.r.astype(float), c.k)


def _joint_matrix(n_r: np.ndarray, n_c: np.ndarray, r: np.ndarray, k: int) -> np.ndarray:
    # b_matrix from raw incidence arrays; F = N_C - r 1'/s sweeps row effects out of N_C.
    # Each block is scaled by the product of its two D^-1/2 factors, as outer(d, d) would.
    v, s = n_c.shape
    dv, dc = 1.0 / np.sqrt(s), 1.0 / np.sqrt(v)
    f = n_c - (r / s)[:, None]
    joint = np.zeros((v + s, v + s))
    np.multiply(_row_block(n_r, r, s), dv * dv, out=joint[:v, :v])
    np.multiply(f, dv * dc, out=joint[:v, v:])
    np.multiply(f.T, dc * dv, out=joint[v:, :v])
    joint.ravel()[v * (v + s + 1):: v + s + 1] = k * (dc * dc)
    return joint


def _lifted_joint(n_r: np.ndarray, n_c: np.ndarray, r: np.ndarray, k: int) -> np.ndarray:
    # B~: b_matrix lifted to eigenvalue 1 on its trivial directions t1 = (1_v, 0)/sqrt(v)
    # (eigenvalue 0) and t2 = (0, 1_s)/sqrt(s) (eigenvalue k/v); shared with the e_aug anneal.
    v, s = n_c.shape
    joint = _joint_matrix(n_r, n_c, r, k)
    joint[:v, :v] += 1.0 / v
    joint[v:, v:] += (1.0 - k / v) / s
    return joint


def e_dual_column(c: ContractionDesign) -> float:
    """Average efficiency factor of the dual of the contraction's column design.

    The column design has v treatments in s blocks of size k; its dual swaps
    the roles, giving s treatments (each replicated k times) in v blocks with
    incidence ``N_C'``.  The dual's non-unit cefs coincide with the column
    design's, so this is also the unit-padded column-design summary.
    """
    inc = incidence(c)
    r = c.r.astype(float)
    dual_info = c.k * np.eye(c.s) - (inc.n_c.T * (1.0 / r)) @ inc.n_c
    return harmonic_mean_nontrivial(cefs_from_info(dual_info, np.full(c.s, float(c.k))))


def is_generally_balanced(c: ContractionDesign) -> bool:
    """Whether row and column structures commute: ``W N_C`` constant at r_bar^2.

    ``W N_C`` counts concurrences, so the test is exact: ``v^2 W N_C = (ks)^2``,
    never true when r_bar is not whole.  When true, the column block of the joint
    matrix collapses to the dual column design and ``c_bar_s`` equals
    ``e_dual_column`` exactly.
    """
    inc = incidence(c)
    return bool(np.all(c.v**2 * (inc.w @ inc.n_c) == (c.k * c.s) ** 2))


def e_aug_formula(v_star: int, v: int, s: int, k: int, c_bar_v: float, c_bar_s: float) -> float:
    """Closed-form average efficiency factor of the augmented design.

    ``_e_aug`` of the trace ``(v/k) ((v-1)/c_bar_v + (s-1)/c_bar_s) + 2`` of ``B~^-1``.
    """
    for name, value in (("v_star", v_star), ("v", v), ("s", s), ("k", k)):
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    if c_bar_v <= 0 or c_bar_s <= 0:
        raise ValueError("c_bar_v and c_bar_s must be positive")
    return _e_aug(v_star, v, s, (v / k) * ((v - 1) / c_bar_v + (s - 1) / c_bar_s) + 2)


def _e_aug(v_star: int, v: int, s: int, trace: float) -> float:
    # e_aug from tr(B~^-1), for the report, e_aug_formula and the e_aug anneal: B~ holds the
    # v+s-2 non-unit cefs and two lifted 1s, so sum(1/cef) = (v*-1) - (v+s-2) + (trace - 2).
    return (v_star - 1) / (v_star - v - s - 1 + trace)


def info_matrix_augmented(a: AugmentedDesign) -> np.ndarray:
    """Information matrix of the augmented design, a fresh array on every call.

    ``diag(u) - (1/s) M_R M_R' - (1/v) M_C M_C' + (1/n) u u'`` where the
    replication-products term carries the 1/n factor required for zero row
    sums.  ``M_R``/``M_C`` are the treatment-by-row/column incidences.  The
    design is validated here, at the boundary, once per object.

    The products are not formed: in a valid design two test lines share one
    row, one column or no line, and every check shares each column with every
    label, so each entry is written from where its two labels sit.  Each entry
    takes the four-term expression's operations in its order (``entry``), so
    the matrix has its bytes under any numbering of the test lines.
    """
    _require_valid(a)
    v, s, k, n = a.v, a.s, a.k, a.cells.size
    t = a.n_test_lines
    labels = a.cells - 1
    test = labels < t

    def entry(rows_shared: float, cols_shared: float, diagonal: bool = False) -> float:
        # one test-line entry (u = 1): the steps of _info_matrix on its counts
        x = 0.0 - rows_shared / s
        if diagonal:
            x += 1.0
        return (x - cols_shared / v) + 1.0 * 1.0 / n

    info = np.full((t + k, t + k), entry(0.0, 0.0))
    by_column = labels.T[test.T].reshape(s, v - k)  # each column holds v-k test lines
    info[by_column[:, :, None], by_column[:, None, :]] = entry(0.0, 1.0)
    per_row = test.sum(axis=1)  # rows differ in their count of test lines: one scatter per count
    for m in set(per_row.tolist()):  # not np.unique, which imports numpy.ma (about 1 MB)
        in_group = per_row == m
        by_row = labels[in_group][test[in_group]].reshape(np.count_nonzero(in_group), m)
        info[by_row[:, :, None], by_row[:, None, :]] = entry(1.0, 0.0)
    info.ravel()[: t * (t + k + 1): t + k + 1] = entry(1.0, 1.0, diagonal=True)

    # The k check columns: the rows each label shares with each check, from the
    # checks' row incidence, and the columns it shares with a check, which are
    # all of its own: u.  Then the four-term steps in order, over the block.
    u = a.u
    check_rows = np.zeros((v, k))
    check_rows[np.nonzero(~test)[0], labels[~test] - t] = 1.0
    test_row = np.empty(t, dtype=np.int64)
    test_row[labels[test]] = np.nonzero(test)[0]
    block = np.concatenate((check_rows[test_row], check_rows.T @ check_rows))
    block /= s
    np.subtract(0.0, block, out=block)
    block.ravel()[t * k:: k + 1] += s
    block -= (u / v)[:, None]
    block += (u * s / n)[:, None]
    info[:, t:] = block
    info[t:, :t] = block[:t].T
    return info


def augmented_cefs(a: AugmentedDesign) -> Spectrum:
    """Canonical efficiency factors of the augmented design.

    The values of ``cefs_from_info(info_matrix_augmented(a), a.u)`` without
    its input checks, which hold for a matrix built from a validated design:
    the fresh matrix is scaled in place by ``diag(u)^-1/2`` on both sides and
    solved by the checked core of ``eig_symmetric``, moment checks included.
    """
    info = info_matrix_augmented(a)
    # u is 1 on the test lines and s on the checks, so only the check rows and
    # columns scale, each block by the product of its two factors as
    # outer(u^-1/2, u^-1/2) would: the bytes of the checked route.
    t, d = a.n_test_lines, 1.0 / np.sqrt(float(a.s))
    info[:t, t:] *= d
    info[t:, :t] *= d
    info[t:, t:] *= d * d
    sp = _checked_spectrum(info)
    _require_one_trivial(sp)
    return sp


def e_aug_direct(a: AugmentedDesign) -> float:
    """Average efficiency factor from the full v* x v* eigenproblem."""
    return harmonic_mean_nontrivial(augmented_cefs(a))


def _clamped_cefs(sp: Spectrum) -> tuple[float, ...]:
    # The non-trivial eigenvalues, already in descending order, clipped to [0, 1].
    return tuple(np.clip(sp.nontrivial(), 0.0, 1.0).tolist())


@dataclass(frozen=True)
class EfficiencyReport:
    """Every efficiency summary of a contraction and its augmented design.

    ``e_aug_direct`` and ``cefs_augmented`` are filled only when the direct
    (v* x v* eigendecomposition) route was requested; the formula route is
    always present.
    """

    e_con: float
    c_bar_v: float
    c_bar_s: float
    e_dual: float
    e_aug_formula: float
    generally_balanced: bool
    cefs_contraction: tuple[float, ...]
    e_aug_direct: float | None = None
    cefs_augmented: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "eCon": self.e_con,
            "cBarV": self.c_bar_v,
            "cBarS": self.c_bar_s,
            "eDual": self.e_dual,
            "eAugFormula": self.e_aug_formula,
            "eAugDirect": self.e_aug_direct,
            "generallyBalanced": self.generally_balanced,
            "cefsContraction": list(self.cefs_contraction),
            "cefsAugmented": list(self.cefs_augmented) if self.cefs_augmented is not None else None,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def full_report(c: ContractionDesign, include_direct: bool = False) -> EfficiencyReport:
    """Compute every efficiency quantity for a contraction.

    The direct route materializes the augmented design and solves the full
    v* x v* eigenproblem, which is O((vs)^3); it is optional for that reason.
    The contraction is validated once, here; the quantities below share that
    verdict and the facts kept on the design (see the module docstring).
    """
    _require_valid(c)
    report = dict(
        e_con=e_con(c),
        c_bar_v=c_bar_v(c),
        c_bar_s=c_bar_s(c),
        e_dual=e_dual_column(c),
        e_aug_formula=_e_aug((c.v - c.k) * c.s + c.k, c.v, c.s, sum(_joint_traces(c))),
        generally_balanced=is_generally_balanced(c),
        cefs_contraction=_clamped_cefs(contraction_cefs(c)),
    )
    if include_direct:
        sp = augmented_cefs(augment(c))
        report["e_aug_direct"] = harmonic_mean_nontrivial(sp)
        report["cefs_augmented"] = _clamped_cefs(sp)
    return EfficiencyReport(**report)
