"""Dense symmetric eigendecomposition and harmonic-mean utilities.

Every efficiency quantity in this package is a harmonic mean over the
non-trivial part of some symmetric spectrum, so the eigenvalue plumbing is
centralized here.  Matrices are at most a few hundred rows, which keeps dense
O(n^3) methods comfortably fast; LAPACK (via ``numpy.linalg.eigh``) does the
factorization and this module enforces the contracts around it: symmetry on
input, a reconstruction-residual bound on output, and explicit classification
of trivial (structurally zero) eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedDesignError, RankAnomalyError

#: Residual bound for Q diag(w) Q' reconstruction, relative to max row sum.
_RESIDUAL_RTOL = 1e-9
#: Relative symmetry tolerance on input matrices.
_SYMMETRY_RTOL = 1e-10


def trivial_tolerance(eigenvalues: np.ndarray) -> float:
    """Threshold below which an eigenvalue counts as (structurally) zero.

    Relative to the largest magnitude with a floor of 1 so the classification
    stays scale-free but never collapses for near-zero matrices.
    """
    scale = float(np.max(np.abs(eigenvalues))) if len(eigenvalues) else 0.0
    return 1e-7 * max(1.0, scale)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending plus the count classified as trivial zeros."""

    eigenvalues: np.ndarray
    trivial_count: int

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float, copy=True)
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)

    def __len__(self):
        return len(self.eigenvalues)

    def nontrivial(self) -> np.ndarray:
        """Eigenvalues whose magnitude is at least ``trivial_tolerance``."""
        return self.eigenvalues[np.abs(self.eigenvalues) >= trivial_tolerance(self.eigenvalues)]


def eig_symmetric(m) -> Spectrum:
    """Full spectrum of a real symmetric matrix, sorted descending.

    Raises ``ValueError`` if the input is not symmetric to within a 1e-10
    relative tolerance, and verifies that the factorization reproduces the
    matrix to within 1e-9 of its max-row-sum norm.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    asym = float(np.abs(a - a.T).max()) if a.size else 0.0
    if asym > _SYMMETRY_RTOL * scale:
        raise ValueError(f"matrix is not symmetric: max |A - A'| = {asym:.3e}")

    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise RankAnomalyError(f"eigendecomposition failed to converge: {exc}") from exc

    norm = max(float(np.abs(a).sum(axis=1).max()) if a.size else 0.0, 1e-300)
    residual = float(np.abs(a - (q * w) @ q.T).sum(axis=1).max())
    if residual > _RESIDUAL_RTOL * norm:
        raise RankAnomalyError(
            f"eigendecomposition residual {residual:.3e} exceeds {_RESIDUAL_RTOL:.0e} * {norm:.3e}"
        )

    vals = w[::-1]
    return Spectrum(eigenvalues=vals, trivial_count=int(np.sum(np.abs(vals) < trivial_tolerance(vals))))


def harmonic_mean_nontrivial(sp: Spectrum, expected_trivial: int) -> float:
    """Harmonic mean of the non-trivial eigenvalues, ``m / sum(1/lambda)``.

    Exactly ``expected_trivial`` eigenvalues must fall below
    ``trivial_tolerance`` in magnitude: more means the underlying design is
    disconnected, fewer means the matrix lost a structural zero it should have.
    """
    vals = sp.eigenvalues
    tol = trivial_tolerance(vals)
    near_zero = int(np.sum(np.abs(vals) < tol))
    if near_zero > expected_trivial:
        raise DisconnectedDesignError(
            f"{near_zero} near-zero eigenvalues where {expected_trivial} expected: disconnected design"
        )
    if near_zero < expected_trivial:
        raise RankAnomalyError(
            f"only {near_zero} near-zero eigenvalues where {expected_trivial} expected"
        )
    kept = vals[np.abs(vals) >= tol]
    return len(kept) / float(np.sum(1.0 / kept))


def cefs_from_info(a, u) -> Spectrum:
    """Canonical efficiency factors: spectrum of ``diag(u)^-1/2 A diag(u)^-1/2``.

    ``A`` must be an information matrix (zero row sums); a connected design
    yields exactly one trivial zero and the remaining values are the cefs.
    """
    a = np.asarray(a, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("replication vector u must be strictly positive")
    if a.shape != (len(u), len(u)):
        raise ValueError(f"shape mismatch: A is {a.shape}, u has length {len(u)}")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    row_sums = float(np.abs(a.sum(axis=1)).max()) if a.size else 0.0
    if row_sums > 1e-8 * scale:
        raise ValueError(f"not an information matrix: max |row sum| = {row_sums:.3e}")

    inv_sqrt = 1.0 / np.sqrt(u)
    a_star = a * np.outer(inv_sqrt, inv_sqrt)
    sp = eig_symmetric(a_star)
    if sp.trivial_count > 1:
        raise DisconnectedDesignError(
            f"{sp.trivial_count} near-zero canonical efficiency factors: disconnected design"
        )
    if sp.trivial_count < 1:
        raise RankAnomalyError("scaled information matrix has no trivial zero eigenvalue")
    return sp


def helmert_basis(m: int) -> np.ndarray:
    """Orthonormal m x (m-1) basis of the subspace orthogonal to the all-ones vector."""
    q = np.zeros((m, m - 1))
    for i in range(1, m):
        q[:i, i - 1] = 1.0
        q[i, i - 1] = -float(i)
        q[:, i - 1] /= np.sqrt(i * (i + 1.0))
    return q


def restricted_eigenvalues(m: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix restricted to the span of ``basis`` columns.

    Used where trivial eigenvalues are nonzero (so magnitude classification
    cannot separate them) and the trivial directions are known exactly.
    """
    return np.linalg.eigvalsh(basis.T @ m @ basis)
