"""Dense symmetric eigenvalues and harmonic-mean utilities.

Every efficiency quantity in this package is a harmonic mean over the
non-trivial part of some symmetric spectrum, so the eigenvalue plumbing is
centralized here.  Matrices are at most a few hundred rows, which keeps dense
O(n^3) methods comfortably fast; LAPACK (via ``numpy.linalg.eigvalsh``) finds
the eigenvalues alone and this module enforces the contracts around it:
symmetry on input, the spectrum's first two moments on output, and explicit
classification of trivial (structurally zero) eigenvalues.

Input checks run at the boundary: ``eig_symmetric`` and ``cefs_from_info``
check any matrix a caller hands them.  Inside is one checked core,
``_checked_spectrum``: the solve, its failure mapped to ``RankAnomalyError``,
and the moment checks.  ``efficiency.augmented_cefs`` calls the core on a
matrix it has just built from a validated design, skipping the input checks
but never those of the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DisconnectedDesignError, RankAnomalyError

#: Bound on the spectrum's moment errors, relative to ||A||_F and ||A||_F^2.
_MOMENT_RTOL = 1e-9
#: Relative symmetry tolerance on input matrices.
_SYMMETRY_RTOL = 1e-10


def trivial_tolerance(eigenvalues: np.ndarray) -> float:
    """Threshold below which an eigenvalue counts as (structurally) zero.

    Relative to the largest magnitude with a floor of 1 so the classification
    stays scale-free but never collapses for near-zero matrices.
    """
    scale = float(np.abs(eigenvalues).max()) if len(eigenvalues) else 0.0
    return 1e-7 * max(1.0, scale)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending plus the count classified as trivial zeros.

    An eigenvalue is trivial when its magnitude is below ``trivial_tolerance``;
    the classification is made once, here, from the eigenvalues alone.
    """

    eigenvalues: np.ndarray
    trivial_count: int = field(init=False)

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float, copy=True)
        vals.setflags(write=False)
        kept = vals[np.abs(vals) >= trivial_tolerance(vals)]
        kept.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "trivial_count", len(vals) - len(kept))
        object.__setattr__(self, "_nontrivial", kept)

    def __len__(self):
        return len(self.eigenvalues)

    def nontrivial(self) -> np.ndarray:
        """The eigenvalues not classified as trivial, in their stored order."""
        return self._nontrivial


def eig_symmetric(m) -> Spectrum:
    """Eigenvalues of a real symmetric matrix, sorted descending.

    Raises ``ValueError`` if the input is not square or not symmetric to
    within a 1e-10 relative tolerance; then ``_checked_spectrum`` solves and
    raises ``RankAnomalyError`` unless ``sum(w) = tr(A)`` to within 1e-9
    ``||A||_F`` and ``sum(w^2) = ||A||_F^2`` to within 1e-9 ``||A||_F^2``.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    asym = float(np.abs(a - a.T).max()) if a.size else 0.0
    if asym > _SYMMETRY_RTOL * scale:
        raise ValueError(f"matrix is not symmetric: max |A - A'| = {asym:.3e}")
    return _checked_spectrum(a)


def _checked_spectrum(a: np.ndarray) -> Spectrum:
    """The checked core of ``eig_symmetric``, for a square float matrix known to be symmetric.

    Takes the eigenvalues with ``eigvalsh``, maps a solver failure to
    ``RankAnomalyError`` and checks the spectrum's first two moments against
    ``a``; the input checks are the caller's.
    """
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise RankAnomalyError(f"eigendecomposition failed to converge: {exc}") from exc

    fro2 = float(np.vdot(a, a))
    trace_err, square_err = abs(float(w.sum()) - float(np.trace(a))), abs(float(w @ w) - fro2)
    # Written as "not <=" so that a NaN error fails the check too.
    if not (trace_err <= _MOMENT_RTOL * np.sqrt(fro2) and square_err <= _MOMENT_RTOL * fro2):
        raise RankAnomalyError(f"eigenvalue moments off: |sum(w) - tr(A)| = {trace_err:.3e}, "
                               f"|sum(w^2) - ||A||_F^2| = {square_err:.3e} (||A||_F^2 = {fro2:.3e})")

    return Spectrum(eigenvalues=w[::-1])


def _require_one_trivial(sp: Spectrum) -> None:
    """Raise unless ``sp`` has exactly one trivial zero, as a connected design's spectrum has.

    More means the underlying design is disconnected, fewer means the matrix
    lost a structural zero it should have.
    """
    if sp.trivial_count > 1:
        raise DisconnectedDesignError(
            f"{sp.trivial_count} near-zero eigenvalues where 1 expected: disconnected design"
        )
    if sp.trivial_count < 1:
        raise RankAnomalyError("no near-zero eigenvalue where 1 expected")


def harmonic_mean_nontrivial(sp: Spectrum) -> float:
    """Harmonic mean of the non-trivial eigenvalues, ``m / sum(1/lambda)``.

    The spectrum must have exactly one trivial zero (``_require_one_trivial``).
    """
    _require_one_trivial(sp)
    return _harmonic_mean(sp.nontrivial()[::-1])


def _harmonic_mean(ascending: np.ndarray) -> float:
    """``m / sum(1/lambda)`` summed in ascending order: the search's and the report's ``e_con``."""
    return len(ascending) / float(np.sum(1.0 / ascending))


def cefs_from_info(a, u) -> Spectrum:
    """Canonical efficiency factors: spectrum of ``diag(u)^-1/2 A diag(u)^-1/2``.

    ``A`` must be an information matrix (zero row sums); a connected design
    yields exactly one trivial zero and the remaining values are the cefs.
    Every input is checked: ``u`` positive, shapes, row sums and, in
    ``eig_symmetric``, symmetry.
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
    _require_one_trivial(sp)
    return sp
