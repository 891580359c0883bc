"""Independent oracles the tests check the library against.

Each function here deliberately takes a different computational route from
the code under test: pairwise variances go through the Moore-Penrose inverse
(SVD) instead of an eigendecomposition, concurrences are counted by explicit
enumeration instead of a matrix product, and small search spaces are
enumerated outright, the move catalogue is walked with plain loops, the
anneal's move sampler checks labels by scanning rows and columns, the swap
plan's cell pairs are looped and its flat cells and pair terms come from a
full ks x ks table, repeated labels are counted line by line instead of
found by one sort, the augmented array is filled and read back cell by
cell, and ``c_bar_s`` comes from a centred Schur complement instead of the
lifted joint matrix.  ``c_bar_v`` is read from the same inverse as ``c_bar_s``;
its former route, the eigenvalues of the contraction's information matrix,
is kept here as the reference.
Two rules the library once decided by other means are kept as references:
connectivity from the eigenvalues of the lifted joint matrix, which
``c_bar_s`` now reads from the contraction's own spectrum, and general
balance in exact fractions, which the library decides in scaled integers.
The validators' rules from when a contraction stored ``r`` beside its array
are kept here, walked cell by cell, as the reference for the rules on the
derived ``r``.
The random fill keeps a set of labels per row and permutes index arrays
with ``rng.permutation``, where the library shuffles lists of rows in
place; the two must take the same draws.
The information-matrix kernels add the replication vector on the diagonal;
the dense-diagonal forms here build ``diag(r)`` as a matrix, and the two
must agree bit for bit.
"""

import itertools
from fractions import Fraction

import numpy as np

from arcdesign import (
    AugmentedDesign,
    ContractionDesign,
    b_matrix,
    e_con,
    eig_symmetric,
    harmonic_mean_nontrivial,
    incidence,
    validate_contraction,
)
from arcdesign.designs import _size_violations
from arcdesign.errors import DisconnectedDesignError
from arcdesign.search import _draw_pairs, _swap_index
from arcdesign.spectra import trivial_tolerance


def apply_move(c: ContractionDesign, move) -> ContractionDesign:
    """The contraction after the two-cell swap ``(i1, j1, i2, j2)``.

    Asserts that replications are unchanged.
    """
    cells = np.array(c.cells)
    i1, j1, i2, j2 = (int(x) for x in move)
    cells[i1, j1], cells[i2, j2] = c.cells[i2, j2], c.cells[i1, j1]
    after = ContractionDesign(c.v, cells)
    assert np.array_equal(after.r, c.r)
    return after


def b_nontrivial_eigenvalues(c: ContractionDesign) -> np.ndarray:
    """The (v-1)+(s-1) eigenvalues of ``b_matrix`` off its trivial directions (1_v, 0), (0, 1_s).

    The complement of each all-ones vector comes from a QR factorisation, not
    the library's Helmert basis.
    """
    basis = np.zeros((c.v + c.s, c.v + c.s - 2))
    for lo, n, col in ((0, c.v, 0), (c.v, c.s, c.v - 1)):
        q = np.linalg.qr(np.column_stack([np.ones(n), np.eye(n)[:, :-1]]))[0]
        basis[lo : lo + n, col : col + n - 1] = q[:, 1:]
    return np.linalg.eigvalsh(basis.T @ b_matrix(c) @ basis)


def row_block_with_dense_diagonal(n_r, r, s: int) -> np.ndarray:
    """``diag(r) - N_R N_R'/s`` with ``diag(r)`` a dense matrix."""
    return np.diag(r) - (n_r @ n_r.T) / s


def b_matrix_with_dense_diagonal(c: ContractionDesign) -> np.ndarray:
    """``b_matrix`` assembled on a dense-diagonal row block."""
    inc, r, v, s, k = incidence(c), c.r.astype(float), c.v, c.s, c.k
    f = inc.n_c - np.outer(r, np.ones(s)) / s
    top = np.hstack([row_block_with_dense_diagonal(inc.n_r, r, s), f])
    bottom = np.hstack([f.T, k * np.eye(s)])
    d_inv_sqrt = np.concatenate([np.full(v, 1.0 / np.sqrt(s)), np.full(s, 1.0 / np.sqrt(v))])
    return np.vstack([top, bottom]) * np.outer(d_inv_sqrt, d_inv_sqrt)


def c_bar_s_by_centring(c: ContractionDesign) -> float:
    """``c_bar_s`` from the centred Schur complement of the column block.

    Incidences are counted cell by cell.  A ridge on the all-ones direction,
    which the centred column incidence ``F`` annihilates, makes the rows-only
    block ``S`` invertible; ``I_s - F' (S + ridge)^-1 F / k`` is then centred
    by the projector off the all-ones vector, which maps its trivial
    eigenvalue to the single zero.  A second zero eigenvalue of either block
    means a disconnected contraction.
    """
    v, s, k = c.v, c.s, c.k
    n_r, n_c = np.zeros((v, k)), np.zeros((v, s))
    for (i, j), label in np.ndenumerate(c.cells):
        n_r[label - 1, i] = 1.0
        n_c[label - 1, j] = 1.0
    r = n_c.sum(axis=1)
    r_bar = k * s / v
    f = n_c - np.outer(r, np.ones(s)) / s
    middle = np.diag(r) - (n_r @ n_r.T) / s + (r_bar**2 / v) * np.ones((v, v))
    if np.linalg.eigvalsh(middle)[0] < 1e-9 * r_bar:
        raise DisconnectedDesignError("rows-only block is singular off the all-ones direction")
    centre = np.eye(s) - np.ones((s, s)) / s
    bracket = np.eye(s) - f.T @ np.linalg.solve(middle, f) / k
    vals = np.linalg.eigvalsh(centre @ bracket @ centre)[1:]
    if vals[0] < 1e-9:
        raise DisconnectedDesignError("column block has a second zero eigenvalue")
    return (s - 1) / float(np.sum(1.0 / vals))


def c_bar_v_by_eigensolve(c: ContractionDesign) -> float:
    """``c_bar_v`` as the harmonic mean of the information matrix's eigenvalues over ``r_bar = ks/v``.

    The matrix is the bracket-expanded one, and a second zero eigenvalue
    raises ``DisconnectedDesignError``.
    """
    spectrum = eig_symmetric(info_matrix_by_bracket_expansion(c))
    return harmonic_mean_nontrivial(spectrum) / (c.k * c.s / c.v)


def lifted_joint_is_singular(c: ContractionDesign) -> bool:
    """Whether ``B~`` has an eigenvalue below ``trivial_tolerance``: ``c_bar_s``'s former rule.

    ``B~`` is the dense-diagonal ``b_matrix`` with its trivial directions
    ``t1 = (1_v, 0)/sqrt(v)`` (eigenvalue 0) and ``t2 = (0, 1_s)/sqrt(s)``
    (eigenvalue k/v) lifted to eigenvalue 1 by rank-one updates.
    """
    t1 = np.concatenate([np.ones(c.v), np.zeros(c.s)]) / np.sqrt(c.v)
    t2 = np.concatenate([np.zeros(c.v), np.ones(c.s)]) / np.sqrt(c.s)
    lifted = (b_matrix_with_dense_diagonal(c) + np.outer(t1, t1)
              + (1.0 - c.k / c.v) * np.outer(t2, t2))
    w = np.linalg.eigvalsh(lifted)
    return bool(w[0] < trivial_tolerance(w))


def generally_balanced_by_fractions(c: ContractionDesign) -> bool:
    """Whether every entry of ``W N_C``, counted cell by cell, equals ``r_bar^2`` as a ``Fraction``."""
    r_bar = Fraction(c.k * c.s, c.v)
    return all(Fraction(int(x)) == r_bar**2 for x in column_product_by_enumeration(c.cells, c.v).flat)


def dual_info_with_dense_diagonal(c: ContractionDesign) -> np.ndarray:
    """``k I_s - N_C' diag(1/r) N_C``, the information matrix of the dual column design."""
    inc, r = incidence(c), c.r.astype(float)
    return c.k * np.eye(c.s) - inc.n_c.T @ np.diag(1.0 / r) @ inc.n_c


def info_matrix_augmented_by_cells(a: AugmentedDesign) -> np.ndarray:
    """``diag(u) - M_R M_R'/s - M_C M_C'/v + uu'/n``, with the counts taken cell by cell."""
    m_r, m_c = np.zeros((a.v_star, a.v)), np.zeros((a.v_star, a.s))
    for (i, j), label in np.ndenumerate(a.cells):
        m_r[label - 1, i] += 1.0
        m_c[label - 1, j] += 1.0
    u = a.u
    return (np.diag(u) - (m_r @ m_r.T) / a.s - (m_c @ m_c.T) / a.v
            + np.outer(u, u) / (a.v * a.s))


def repeats_by_unique(lines, line: str, other: str) -> list[str]:
    """The "non-binary" violations of ``designs._repeats``, counted line by line with ``np.unique``."""
    violations = []
    for n, values in enumerate(lines):
        labels, counts = np.unique(values, return_counts=True)
        for lab, cnt in zip(labels[counts > 1], counts[counts > 1]):
            where = ", ".join(str(p + 1) for p in np.nonzero(values == lab)[0])
            violations.append(f"{line} {n + 1} non-binary: label {lab} occurs {cnt} times ({other} {where})")
    return violations


def validate_contraction_with_r(cells, v: int, r) -> tuple[str, ...]:
    """``validate_contraction``'s violations as they were when ``r`` was stored beside the array.

    The reference for the rules on a derived ``r``: the size rule, labels
    outside 1..v (which end the check), column then row repeats, then the sum
    of ``r``, each label whose count in the cells differs from ``r``, and the
    spread of ``r``.  Cells are walked one by one.
    """
    cells, r = np.asarray(cells), np.asarray(r)
    k, s = cells.shape
    violations = _size_violations(v, s, k)
    outside = [f"label {lab} at ({i + 1},{j + 1}) outside 1..{v}"
               for (i, j), lab in np.ndenumerate(cells) if not 1 <= lab <= v]
    if outside:
        return tuple(violations + outside)
    violations += repeats_by_unique(cells.T, "column", "rows")
    violations += repeats_by_unique(cells, "row", "columns")
    counts = [int(np.sum(cells == h + 1)) for h in range(v)]
    if int(r.sum()) != k * s:
        violations.append(f"replication vector sums to {int(r.sum())}, expected k*s={k * s}")
    violations += [f"replication mismatch for label {h + 1}: r says {int(r[h])}, cells contain {counts[h]}"
                   for h in range(v) if counts[h] != r[h]]
    if int(r.max()) - int(r.min()) > 1:
        violations.append(f"replication spread exceeds 1 (min {int(r.min())}, max {int(r.max())})")
    return tuple(violations)


def validate_augmented_with_r(cells, k: int, r=None) -> tuple[str, ...]:
    """``validate_augmented``'s violations as they were when the read-back contraction stored ``r``.

    Cell by cell: labels outside 1..v*, each check once per column, each test
    line once.  The contraction read back from the check rows is then judged
    by ``validate_contraction_with_r`` with ``r``, or its own counts if ``r``
    is None, and a row repeat is renamed as a check repeated in an array row.
    """
    cells = np.asarray(cells)
    v, s = cells.shape
    n_test = (v - k) * s
    outside = [f"label {lab} at ({i + 1},{j + 1}) outside 1..{n_test + k}"
               for (i, j), lab in np.ndenumerate(cells) if not 1 <= lab <= n_test + k]
    if outside:
        return tuple(outside)
    violations = []
    for j in range(s):
        for check in range(n_test + 1, n_test + k + 1):
            times = int(np.sum(cells[:, j] == check))
            if times != 1:
                violations.append(f"column {j + 1} has check {check} {times} times (expected once)")
    for line in range(1, n_test + 1):
        times = int(np.sum(cells == line))
        if times != 1:
            violations.append(f"test line {line} occurs {times} times (expected once)")
    if violations:
        return tuple(violations)
    g = np.zeros((k, s), dtype=np.int64)
    for (row, j), lab in np.ndenumerate(cells):
        if lab > n_test:
            g[lab - n_test - 1, j] = row + 1
    if r is None:
        r = np.array([np.sum(g == h + 1) for h in range(v)])
    renamed = {}
    for i, values in enumerate(g):
        for row in np.unique(values):
            where = np.flatnonzero(values == row) + 1
            if len(where) > 1:
                columns = ", ".join(str(p) for p in where)
                renamed[f"row {i + 1} non-binary: label {row} occurs {len(where)} times "
                        f"(columns {columns})"] = (
                    f"check {n_test + i + 1} occurs {len(where)} times in row {row} (columns {columns})")
    return tuple(renamed.get(m, f"generating contraction: {m}")
                 for m in validate_contraction_with_r(g, v, r))


def augmented_cells_by_loops(check_rows, v: int) -> np.ndarray:
    """The placement rule cell by cell: checks at 0-based rows, then test lines column-major."""
    k, s = check_rows.shape
    n_test = (v - k) * s
    cells = np.zeros((v, s), dtype=np.int64)
    for j in range(s):
        for i in range(k):
            cells[check_rows[i, j], j] = n_test + i + 1
    next_line = 1
    for j in range(s):
        for row in range(v):
            if cells[row, j] == 0:
                cells[row, j] = next_line
                next_line += 1
    return cells


def image_of_valid_contraction_by_loops(cells, k: int) -> bool:
    """Whether a v x s array is the placement-rule image of a valid contraction.

    Test lines may carry any labelling.  Walks the cells: the test lines must
    be 1..(v-k)s once each and each check must sit once in each column; the
    contraction read off the check rows must repeat no label in a row, keep
    its replications within one of each other and leave df >= 0.
    """
    v, s = cells.shape
    n_test = (v - k) * s
    test_lines, check_rows = [], {}
    for (row, j), label in np.ndenumerate(cells):
        if label > n_test:
            check_rows.setdefault((int(label), j), []).append(row)
        else:
            test_lines.append(int(label))
    if sorted(test_lines) != list(range(1, n_test + 1)):
        return False
    checks = [(n_test + i + 1, j) for i in range(k) for j in range(s)]
    if sorted(check_rows) != checks or any(len(check_rows[key]) != 1 for key in checks):
        return False
    replication = [0] * v
    for i in range(k):
        rows = [check_rows[(n_test + i + 1, j)][0] for j in range(s)]
        if len(set(rows)) != s:
            return False
        for row in rows:
            replication[row] += 1
    df = k * s - 1 - (k - 1) - (s - 1) - (v - 1)
    return max(replication) - min(replication) <= 1 and df >= 0 and s <= v


def pairwise_variance_efficiency(info_matrix, u) -> float:
    """Average efficiency factor from replication-weighted pairwise variances.

    For treatments i, j the variance factor of their estimated difference is
    ``A+_ii + A+_jj - 2 A+_ij`` with ``A+`` the pseudo-inverse of the
    information matrix; weighting pairs by u_i u_j and comparing against the
    unblocked reference design gives the same number as the harmonic mean of
    the canonical efficiency factors.
    """
    a_pinv = np.linalg.pinv(np.asarray(info_matrix, dtype=float))
    u = np.asarray(u, dtype=float)
    t = len(u)
    n = float(u.sum())
    d = np.diag(a_pinv)
    variance_factors = d[:, None] + d[None, :] - 2.0 * a_pinv
    weighted = float(u @ variance_factors @ u)
    return 2.0 * n * (t - 1) / weighted


def concurrence_by_enumeration(cells, v: int) -> np.ndarray:
    """Row concurrence counts by walking every row and counting label pairs."""
    cells = np.asarray(cells)
    w = np.zeros((v, v), dtype=np.int64)
    for row in cells:
        for a in row:
            for b in row:
                w[a - 1, b - 1] += 1
    return w


def column_product_by_enumeration(cells, v: int) -> np.ndarray:
    """W @ N_C computed entrywise from definitions, for general-balance checks."""
    cells = np.asarray(cells)
    w = concurrence_by_enumeration(cells, v)
    s = cells.shape[1]
    n_c = np.zeros((v, s), dtype=np.int64)
    for j in range(s):
        for lab in cells[:, j]:
            n_c[lab - 1, j] = 1
    return w @ n_c


def info_matrix_by_bracket_expansion(c: ContractionDesign) -> np.ndarray:
    """The information matrix via the centered-column-product form.

    ``diag(r) - W/s - (1/k)(N_C - r 1'/s)(N_C - r 1'/s)'`` expands to the
    same matrix as the direct four-term assembly; computing it this way gives
    the tests an algebraically distinct construction to compare against.
    """
    v, s, k = c.v, c.s, c.k
    cells = np.asarray(c.cells)
    r = c.r.astype(float)
    n_c = np.zeros((v, s))
    for j in range(s):
        for lab in cells[:, j]:
            n_c[lab - 1, j] = 1.0
    w = concurrence_by_enumeration(cells, v).astype(float)
    f = n_c - np.outer(r, np.ones(s)) / s
    return np.diag(r) - w / s - (f @ f.T) / k


def all_valid_2xs_arrays(v: int, s: int):
    """Every valid 2-row contraction on v labels with balanced replication.

    Rows are built from permutations; column-binarity means the two rows
    disagree everywhere.  Only practical for desk-scale v and s.
    """
    labels = list(range(1, v + 1))
    per_row = s
    if v != s:
        raise ValueError("enumerator assumes v == s so each row is a permutation")
    for row1 in itertools.permutations(labels, per_row):
        for row2 in itertools.permutations(labels, per_row):
            if any(a == b for a, b in zip(row1, row2)):
                continue
            c = ContractionDesign.from_cells(np.array([row1, row2]), v=v)
            if validate_contraction(c).ok:
                yield c


def exhaustive_best_e_con(v: int, s: int):
    """Optimum contraction efficiency over the full (2-row) space, scoring disconnection 0."""
    best = 0.0
    count = 0
    for c in all_valid_2xs_arrays(v, s):
        count += 1
        try:
            val = e_con(c)
        except DisconnectedDesignError:
            val = 0.0
        best = max(best, val)
    return best, count


def catalogue_by_loops(cells, v: int):
    """Every validity-preserving two-cell swap, found by looping over cell pairs.

    Each swap is an ``(i1, j1, i2, j2)`` tuple of two cells' 0-based (row,
    column) positions.  Membership tables are filled label by label and each
    kind of swap is walked in the canonical order (within-column by column,
    within-row by row, transposes by row pair, then first and second column).
    """
    cells = np.asarray(cells)
    k, s = cells.shape
    row_has = np.zeros((k, v + 1), dtype=bool)
    col_has = np.zeros((s, v + 1), dtype=bool)
    for i in range(k):
        for j in range(s):
            row_has[i, cells[i, j]] = True
            col_has[j, cells[i, j]] = True
    moves = []
    for j in range(s):
        for i1 in range(k - 1):
            for i2 in range(i1 + 1, k):
                a, b = cells[i1, j], cells[i2, j]
                if a != b and not row_has[i1, b] and not row_has[i2, a]:
                    moves.append((i1, j, i2, j))
    for i in range(k):
        for j1 in range(s - 1):
            for j2 in range(j1 + 1, s):
                a, b = cells[i, j1], cells[i, j2]
                if a != b and not col_has[j1, b] and not col_has[j2, a]:
                    moves.append((i, j1, i, j2))
    for i1 in range(k - 1):
        for i2 in range(i1 + 1, k):
            for j1 in range(s):
                for j2 in range(s):
                    if j1 == j2:
                        continue
                    a, b = cells[i1, j1], cells[i2, j2]
                    if (
                        a != b
                        and not row_has[i1, b]
                        and not row_has[i2, a]
                        and not col_has[j1, b]
                        and not col_has[j2, a]
                    ):
                        moves.append((i1, j1, i2, j2))
    return moves


def swap_pairs_in_order(k: int, s: int) -> list[tuple[int, int, int, int]]:
    """Every (i1, j1, i2, j2) cell pair of a k x s array, looped in the canonical order."""
    pairs = [(i1, j, i2, j) for j in range(s) for i1 in range(k - 1) for i2 in range(i1 + 1, k)]
    pairs += [(i, j1, i, j2) for i in range(k) for j1 in range(s - 1) for j2 in range(j1 + 1, s)]
    pairs += [(i1, j1, i2, j2) for i1 in range(k - 1) for i2 in range(i1 + 1, k)
              for j1 in range(s) for j2 in range(s) if j1 != j2]
    return pairs


def flat_cell(i, j, s: int):
    """The row-major flat index of cell (i, j) of an array with s columns."""
    return i * s + j


def pair_term_table(k: int, s: int) -> np.ndarray:
    """``2 ([i1 != i2] / s + [j1 != j2] / k)`` for every pair of flat cells (p1, p2).

    A k*s x k*s table indexed by (p1, p2), built from each flat cell's row and column.
    """
    flat = np.arange(k * s)
    i, j = flat // s, flat % s
    return 2.0 * ((i[:, None] != i) / s + (j[:, None] != j) / k)


def sample_move_by_scans(cells, rng, draws):
    """The anneal's uniform valid swap, checking each label by scanning its row and column.

    Pops cell pairs from ``draws``, a list the caller keeps between calls,
    and refills it with the library's ``_draw_pairs`` when it runs empty,
    exactly as its sampler does; invalid pairs are rejected.
    """
    pairs = _swap_index(*cells.shape)
    for _ in range(256):
        if not draws:
            draws.extend(_draw_pairs(pairs, rng))
        i1, j1, i2, j2 = draws.pop()
        a, b = cells[i1, j1], cells[i2, j2]
        if a == b:
            continue
        if i1 != i2 and ((b in cells[i1]) or (a in cells[i2])):
            continue
        if j1 != j2 and ((b in cells[:, j1]) or (a in cells[:, j2])):
            continue
        return i1, j1, i2, j2
    return None


def try_fill_by_sets(v: int, s: int, k: int, r: np.ndarray, rng) -> np.ndarray | None:
    """One try of the random column-by-column fill, with row sets of labels and numpy label arrays."""
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
            rows = match_rows_by_sets(labels, row_sets, k, rng)
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


def match_rows_by_sets(labels, row_sets, k: int, rng) -> list[int] | None:
    """Kuhn's augmenting paths: labels to rows, avoiding row repeats (``search._match_rows``)."""
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
