"""Design containers, structural validation, and incidence matrices.

Two array types are used throughout:

* ``ContractionDesign`` -- a small k x s auxiliary row-column design on v
  pseudo-treatment labels.  Each pseudo-treatment stands for one row of the
  larger design it will generate.  The design is its array: the replication
  vector ``r`` is derived from it, counting how often each label occurs.
* ``AugmentedDesign`` -- the full v x s layout in which a handful of
  replicated check treatments share the array with unreplicated test lines.
  The last k labels are the checks; each check occupies exactly one plot per
  column.

All cell labels are 1-based at every interface.  Arrays are stored read-only,
so design values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleParametersError, InvalidDesignError


def feasibility_df(v: int, s: int, k: int) -> int:
    """Residual degrees of freedom of the contraction's row-column ANOVA.

    ``k*s - 1 - (k-1) - (s-1) - (v-1)``; a valid contraction requires this to
    be non-negative.
    """
    return k * s - 1 - (k - 1) - (s - 1) - (v - 1)


def _size_violations(v: int, s: int, k: int) -> list[str]:
    """Why a k x s contraction on v labels cannot exist by size; empty if it can.

    v, s and k must be positive and v at least 2 (one label has no contrast).
    k <= v because a column holds k distinct labels, and s <= v because a
    label occurs at most once per row, so the mean replication ks/v is at
    most k.  ``feasibility_df(v, s, k)`` must be non-negative; with v >= 2
    that forces k, s >= 2.
    """
    if k < 1 or s < 1 or v < 1:
        return ["v, k, s must all be positive"]
    violations = []
    if v < 2:
        violations.append(f"needs at least 2 pseudo-treatments (v={v})")
    if k > v:
        violations.append(f"k={k} checks cannot be column-distinct among v={v} labels")
    if v < s:
        violations.append(f"needs at least as many pseudo-treatments as columns (v={v} < s={s})")
    df = feasibility_df(v, s, k)
    if df < 0:
        violations.append(
            f"(v={v}, s={s}, k={k}) leaves {df} residual degrees of freedom; need >= 0")
    return violations


def _frozen_int_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.int64, copy=True)
    arr.setflags(write=False)
    if arr.ndim != 2:
        raise ValueError(f"cells must be a 2-D array, got {arr.ndim}-D")
    return arr


@dataclass(frozen=True, eq=False)
class ContractionDesign:
    """A k x s array of pseudo-treatment labels 1..v.

    ``r``, the read-only count of each label 1..v in the cells, is derived
    here, not passed; labels outside 1..v are left to validation.
    """

    v: int
    cells: np.ndarray
    r: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "cells", _frozen_int_array(self.cells))
        if self.v < 1:
            raise ValueError("v must be positive")
        flat = self.cells.ravel()
        r = np.bincount(flat[(flat >= 1) & (flat <= self.v)], minlength=self.v + 1)[1:]
        r.setflags(write=False)
        object.__setattr__(self, "r", r)

    @classmethod
    def from_cells(cls, cells, v: int | None = None) -> "ContractionDesign":
        """Build a design from its array, with v the largest label unless given."""
        arr = np.asarray(cells, dtype=np.int64)
        if v is None:
            v = int(arr.max()) if arr.size else 0
        return cls(v=v, cells=arr)

    @property
    def k(self) -> int:
        return self.cells.shape[0]

    @property
    def s(self) -> int:
        return self.cells.shape[1]

    @property
    def r_bar(self) -> float:
        """Mean replication k*s/v."""
        return self.k * self.s / self.v

    def __eq__(self, other):
        if not isinstance(other, ContractionDesign):
            return NotImplemented
        return (
            self.v == other.v
            and self.cells.shape == other.cells.shape
            and np.array_equal(self.cells, other.cells)
        )

    def __hash__(self):
        return hash((self.v, self.cells.shape, self.cells.tobytes()))

    def __repr__(self):
        return f"ContractionDesign(v={self.v}, k={self.k}, s={self.s})"


@dataclass(frozen=True, eq=False)
class AugmentedDesign:
    """A v x s array over labels 1..v_star whose last k labels are checks."""

    k: int
    cells: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cells", _frozen_int_array(self.cells))
        if not 1 <= self.k <= self.v:
            raise ValueError(f"k={self.k} out of range for a {self.v}-row array")

    @property
    def v(self) -> int:
        return self.cells.shape[0]

    @property
    def s(self) -> int:
        return self.cells.shape[1]

    @property
    def n_test_lines(self) -> int:
        return (self.v - self.k) * self.s

    @property
    def v_star(self) -> int:
        return self.n_test_lines + self.k

    @property
    def check_labels(self) -> range:
        return range(self.n_test_lines + 1, self.v_star + 1)

    @property
    def u(self) -> np.ndarray:
        """Replication vector: 1 per test line, then s per check."""
        u = np.ones(self.v_star)
        u[self.n_test_lines :] = self.s
        return u

    def __eq__(self, other):
        if not isinstance(other, AugmentedDesign):
            return NotImplemented
        return (
            self.k == other.k
            and self.cells.shape == other.cells.shape
            and np.array_equal(self.cells, other.cells)
        )

    def __hash__(self):
        return hash((self.k, self.cells.shape, self.cells.tobytes()))

    def __repr__(self):
        return f"AugmentedDesign(v={self.v}, s={self.s}, k={self.k})"


@dataclass(frozen=True)
class IncidenceSet:
    """Row/column incidence matrices of a contraction and its row concurrences.

    ``n_r[h, i] = 1`` iff label h+1 occurs in contraction row i+1; ``n_c`` is
    the same against columns; ``w = n_r @ n_r.T`` counts, for every pair of
    labels, the rows in which they appear together.
    """

    n_r: np.ndarray
    n_c: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of structural validation: an empty tuple means the design is valid."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_invalid(self, what: str = "design"):
        if self.violations:
            raise InvalidDesignError(
                f"invalid {what}: " + "; ".join(self.violations), self.violations
            )


def validate_contraction(c: ContractionDesign) -> ValidationReport:
    """Check every structural invariant of a contraction.

    Violations are returned as data (with cell coordinates) rather than
    raised, so callers can print actionable diagnostics.
    """
    cells = c.cells
    violations = _size_violations(c.v, c.s, c.k)
    outside = _labels_outside(cells, c.v)
    if outside:
        return ValidationReport(tuple(violations + outside))
    violations += _repeats(cells.T, "column", "rows") + _repeats(cells, "row", "columns")
    return ValidationReport(tuple(violations + _replication_violations(c.r)))


def _replication_violations(counts: np.ndarray, expected=None) -> list[str]:
    """Each label whose count differs from ``expected``, if given, then the spread rule."""
    violations = []
    if expected is not None:
        expected = np.asarray(expected, dtype=np.int64)
        if expected.shape != counts.shape:
            raise ValueError(f"r has shape {expected.shape}, expected {counts.shape}")
        violations += [f"replication mismatch for label {h + 1}: r says {expected[h]}, "
                       f"cells contain {counts[h]}" for h in np.flatnonzero(counts != expected)]
    if int(counts.max()) - int(counts.min()) > 1:
        violations.append(
            f"replication spread exceeds 1 (min {int(counts.min())}, max {int(counts.max())})")
    return violations


def _labels_outside(cells: np.ndarray, top: int) -> list[str]:
    """One violation per cell whose label lies outside 1..top, in row-major order."""
    return [f"label {cells[i, j]} at ({i + 1},{j + 1}) outside 1..{top}"
            for i, j in zip(*np.nonzero((cells < 1) | (cells > top)))]


def _repeats(lines: np.ndarray, line: str, other: str) -> list[str]:
    """One "non-binary" violation per label repeated within a row of ``lines``, found by one sort."""
    return [f"{line} {n} non-binary: label {lab} occurs {cnt} times ({other} {where})"
            for n, lab, cnt, where in _repeat_sites(lines)]


def _repeat_sites(lines: np.ndarray) -> list[tuple[int, int, int, str]]:
    """(row, label, count, positions) of each label repeated within a row of ``lines``, 1-based."""
    ordered = np.sort(lines, axis=1)
    sites = []
    for n in np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1)).tolist():
        values = lines[n]
        labels, counts = np.unique(values, return_counts=True)
        for lab, cnt in zip(labels[counts > 1], counts[counts > 1]):
            where = ", ".join(str(p + 1) for p in np.nonzero(values == lab)[0])
            sites.append((n + 1, int(lab), int(cnt), where))
    return sites


def validate_augmented(a: AugmentedDesign, r=None) -> ValidationReport:
    """Check that an augmented design is the image of a valid contraction.

    Each check label must occur exactly once per column and each test line
    exactly once overall.  Once both hold, the contraction is read off ``a``
    by the inverse placement rule and judged by ``validate_contraction``'s
    rules.  A label repeated in a contraction row is a check repeated in an
    array row, and is named so: ``check 73 occurs 2 times in row 7
    (columns 1, 2)``.  Given ``r``, the replication expected of it (length
    v), each label whose count differs is reported too.  The other
    violations are prefixed ``generating contraction: ``.
    """
    s, k = a.s, a.k
    cells = a.cells
    n_test = a.n_test_lines
    outside = _labels_outside(cells, a.v_star)
    if outside:
        return ValidationReport(tuple(outside))

    # [j, c]: how often check n_test + c + 1 occurs in column j
    is_check = cells > n_test
    per_column = np.bincount(
        (np.nonzero(is_check)[1] * k + cells[is_check] - n_test - 1), minlength=s * k
    ).reshape(s, k)
    violations = [f"column {j + 1} has check {n_test + c + 1} {per_column[j, c]} times (expected once)"
                  for j, c in zip(*np.nonzero(per_column != 1))]

    counts = np.bincount(cells.ravel(), minlength=a.v_star + 1)[1 : n_test + 1]
    violations += [f"test line {t + 1} occurs {counts[t]} times (expected once)"
                   for t in np.flatnonzero(counts != 1)]
    if violations:
        return ValidationReport(tuple(violations))

    g = _generating_contraction(a)
    # contraction row i is check n_test + i and its labels are array rows;
    # its columns, each k distinct rows, repeat nothing
    repeats = [f"check {n_test + i} occurs {cnt} times in row {row} (columns {where})"
               for i, row, cnt, where in _repeat_sites(g.cells)]
    size = [f"generating contraction: {m}" for m in _size_violations(g.v, s, k)]
    replication = [f"generating contraction: {m}" for m in _replication_violations(g.r, r)]
    return ValidationReport(tuple(size + repeats + replication))


def _generating_contraction(a: AugmentedDesign) -> ContractionDesign:
    """The contraction that the placement rule expands into ``a``, read back.

    The row holding check ``(v-k)s + i`` in column j becomes contraction cell
    (i, j), so ``a`` must hold each check once per column.
    """
    is_check = a.cells > a.n_test_lines
    rows, cols = np.nonzero(is_check)
    cells = np.zeros((a.k, a.s), dtype=np.int64)
    cells[a.cells[is_check] - a.n_test_lines - 1, cols] = rows + 1
    return ContractionDesign(a.v, cells)


def _require_valid(design: ContractionDesign | AugmentedDesign) -> None:
    """Raise ``InvalidDesignError`` unless ``design`` is valid; validates each object once.

    Both design kinds keep read-only arrays, so one successful validation
    holds for the object's lifetime and later checks of it are free.
    """
    if design.__dict__.get("_valid"):
        return
    if isinstance(design, ContractionDesign):
        validate_contraction(design).raise_if_invalid("contraction")
    else:
        validate_augmented(design).raise_if_invalid("augmented design")
    _mark_valid(design)


def _mark_valid(design: ContractionDesign | AugmentedDesign) -> None:
    """Record that ``design`` is valid, so ``_require_valid`` passes it without a check."""
    object.__setattr__(design, "_valid", True)


def incidence(c: ContractionDesign) -> IncidenceSet:
    """Incidence and concurrence matrices of a valid contraction.

    Rejects invalid input: incidence matrices of a non-binary array would not
    be 0/1 and every downstream formula assumes binarity.
    """
    _require_valid(c)
    n_r, n_c = _incidence_arrays(c.cells, c.v)
    return IncidenceSet(n_r=n_r, n_c=n_c, w=n_r @ n_r.T)


def _incidence_arrays(cells: np.ndarray, v: int) -> tuple[np.ndarray, np.ndarray]:
    # Assumes a binary array, of either design kind (for an augmented design v is v*);
    # shared with the search hot path.
    k, s = cells.shape
    labels = cells - 1
    n_r = np.zeros((v, k))
    n_r[labels, np.arange(k)[:, None]] = 1.0
    n_c = np.zeros((v, s))
    n_c[labels, np.arange(s)] = 1.0
    return n_r, n_c


def balanced_replication(v: int, k: int, s: int) -> np.ndarray:
    """Near-equal replication counts for v labels in a k x s binary array.

    Every entry is floor(ks/v) or ceil(ks/v) and the ``ks mod v`` larger
    values go to the lowest labels.  That assignment is a deterministic
    canonical form: which labels carry the extra replicate is immaterial to
    any efficiency quantity, and the search permutes cell contents anyway.
    """
    violations = _size_violations(v, s, k)
    if violations:
        raise InfeasibleParametersError("; ".join(violations))
    base, extra = divmod(k * s, v)
    r = np.full(v, base, dtype=np.int64)
    r[:extra] += 1
    return r
