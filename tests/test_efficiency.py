import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcdesign import (
    AugmentedDesign,
    ContractionDesign,
    augment,
    augmented_cefs,
    b_matrix,
    c_bar_s,
    c_bar_v,
    contraction_cefs,
    e_aug_direct,
    e_aug_formula,
    e_con,
    e_dual_column,
    extract_contraction,
    feasibility_df,
    full_report,
    incidence,
    info_matrix_augmented,
    info_matrix_contraction,
    is_generally_balanced,
    neighbor_moves,
    random_contraction,
)
from arcdesign import designs, efficiency, spectra
from arcdesign.errors import DisconnectedDesignError, InvalidDesignError, RankAnomalyError
from arcdesign.reference import load_reference_design
from arcdesign.search import SearchConfig, search_contraction
from arcdesign.spectra import cefs_from_info, harmonic_mean_nontrivial

from oracles import (
    apply_move,
    b_matrix_with_dense_diagonal,
    b_nontrivial_eigenvalues,
    c_bar_s_by_centring,
    c_bar_v_by_eigensolve,
    column_product_by_enumeration,
    dual_info_with_dense_diagonal,
    generally_balanced_by_fractions,
    info_matrix_augmented_by_cells,
    info_matrix_by_bracket_expansion,
    lifted_joint_is_singular,
    pairwise_variance_efficiency,
    row_block_with_dense_diagonal,
)

# e_con of the 24x16 reference contraction, frozen from the pairwise-variance
# pseudo-inverse oracle (recomputed against it below).
EX2_E_CON = 0.7910863818307405


def random_valid(v, s, k, seed):
    return random_contraction(v, s, k, seed=seed)


class TestInfoMatrixContraction:
    def test_latin_square_spectrum_and_cefs(self, latin3):
        a = info_matrix_contraction(latin3)
        vals = np.sort(np.linalg.eigvalsh(a))
        assert np.allclose(vals, [0.0, 3.0, 3.0], atol=1e-12)
        assert np.allclose(contraction_cefs(latin3).nontrivial(), [1.0, 1.0], atol=1e-12)

    def test_reference_harmonic_over_rbar(self, ex1_contraction):
        assert c_bar_v(ex1_contraction) == pytest.approx(0.5739, abs=5e-5)

    def test_matches_bracket_expansion(self):
        for seed in range(6):
            c = random_valid(4, 4, 2, seed)
            direct = info_matrix_contraction(c)
            expanded = info_matrix_by_bracket_expansion(c)
            assert np.allclose(direct, expanded, atol=1e-12)

    def test_zero_row_sums(self, ex2_contraction):
        a = info_matrix_contraction(ex2_contraction)
        assert np.abs(a.sum(axis=1)).max() < 1e-10


class TestCBarV:
    def test_reference_12x8(self, ex1_contraction):
        assert c_bar_v(ex1_contraction) == pytest.approx(0.5739, abs=5e-5)

    def test_reference_24x16(self, ex2_contraction):
        assert c_bar_v(ex2_contraction) == pytest.approx(0.7749, abs=5e-5)

    def test_latin_square_is_one(self, latin3):
        assert c_bar_v(latin3) == pytest.approx(1.0, abs=1e-12)

    def test_disconnected_raises(self):
        c = ContractionDesign.from_cells(np.array([[1, 2, 3, 4], [2, 1, 4, 3]]), v=4)
        with pytest.raises(DisconnectedDesignError):
            c_bar_v(c)

    def test_matches_the_eigensolve_oracle(self, small_designs, ex1_contraction, ex2_contraction):
        disconnected = 0
        for c in (*small_designs, ex1_contraction, ex2_contraction):
            try:
                expected = c_bar_v_by_eigensolve(c)
            except DisconnectedDesignError:
                disconnected += 1
                with pytest.raises(DisconnectedDesignError):
                    c_bar_v(c)
            else:
                assert c_bar_v(c) == pytest.approx(expected, rel=1e-12, abs=0)
        assert disconnected >= 20


class TestCBarS:
    def test_reference_12x8(self, ex1_contraction):
        assert c_bar_s(ex1_contraction) == pytest.approx(0.4828, abs=5e-5)

    def test_reference_24x16(self, ex2_contraction):
        assert c_bar_s(ex2_contraction) == pytest.approx(0.7332, abs=5e-5)

    # (9,6,4) and (10,6,3) carry unequal replication; walks of a few swaps
    # from a random start reach disconnected contractions at the small sizes.
    @given(size=st.sampled_from([(5, 3, 3), (6, 4, 3), (9, 6, 4), (10, 6, 3), (12, 8, 3)]),
           seed=st.integers(0, 2**32 - 1), swaps=st.integers(0, 8))
    @settings(max_examples=80, deadline=None)
    @example(size=(12, 8, 3), seed=0, swaps=0)
    def test_matches_centred_schur_oracle(self, size, seed, swaps):
        c = _random_walk(size, seed, swaps)
        try:
            expected = c_bar_s_by_centring(c)
        except DisconnectedDesignError:
            with pytest.raises(DisconnectedDesignError):
                c_bar_s(c)
            return
        assert c_bar_s(c) == pytest.approx(expected, abs=1e-12)

    def test_disconnected_examples_are_not_vacuous(self):
        disconnected = 0
        for seed in range(40):
            c = _random_walk((6, 4, 3), seed, 4)
            try:
                c_bar_s_by_centring(c)
            except DisconnectedDesignError:
                disconnected += 1
                with pytest.raises(DisconnectedDesignError):
                    c_bar_s(c)
        assert disconnected >= 5

    def test_raises_exactly_when_the_lifted_joint_matrix_is_singular(self, small_designs):
        singular = 0
        for c in small_designs:
            if lifted_joint_is_singular(c):
                singular += 1
                with pytest.raises(DisconnectedDesignError, match="near-zero eigenvalues where 1 expected"):
                    c_bar_s(c)
            else:
                assert c_bar_s(c) > 0
        assert singular >= 20


def _random_walk(size, seed, swaps):
    """A random contraction of ``size`` after ``swaps`` random validity-preserving swaps."""
    c = random_valid(*size, seed)
    rng = np.random.default_rng(seed)
    for _ in range(swaps):
        if len(moves := neighbor_moves(c)):  # the smallest arrays may have no valid swap
            c = apply_move(c, moves[rng.integers(len(moves))])
    return c


@pytest.fixture(scope="module")
def small_designs():
    """Six seeded designs at every feasible size with v <= 9, 0 to 3 random swaps from a random start."""
    sizes = [(v, s, k) for v in range(2, 10) for k in range(2, v + 1) for s in range(1, v + 1)
             if feasibility_df(v, s, k) >= 0 and s <= v]
    return [_random_walk(size, seed, seed % 4) for size in sizes for seed in range(6)]


class TestBMatrix:
    def test_reference_spectrum_composition(self, ex1_contraction, ex1_augmented):
        b_eigs = np.sort(b_nontrivial_eigenvalues(ex1_contraction))
        assert len(b_eigs) == 11 + 7
        units = np.ones(75 - (12 + 8) + 1)
        composed = np.sort(np.concatenate([b_eigs, units]))
        cefs = np.sort(augmented_cefs(ex1_augmented).nontrivial())
        assert len(cefs) == 74
        assert np.abs(composed - cefs).max() <= 1e-8

    def test_trivial_space_is_invariant(self, ex1_contraction):
        b = b_matrix(ex1_contraction)
        v, s, k = 12, 8, 3
        for a_coef, b_coef in [(1.0, 1.0), (2.0, -1.0)]:
            vec = np.concatenate([np.full(v, a_coef), np.full(s, b_coef)])
            image = b @ vec
            # image stays in span{(1_v, 0), (0, 1_s)}
            assert np.allclose(image[:v], image[0], atol=1e-10)
            assert np.allclose(image[v:], image[v], atol=1e-10)
        ones_v = np.concatenate([np.ones(v), np.zeros(s)])
        ones_s = np.concatenate([np.zeros(v), np.ones(s)])
        assert np.allclose(b @ ones_v, 0.0, atol=1e-10)
        assert np.allclose(b @ ones_s, (k / v) * ones_s, atol=1e-10)

    def test_latin_square_all_units(self, latin3):
        vals = b_nontrivial_eigenvalues(latin3)
        assert np.allclose(vals, 1.0, atol=1e-12)


class TestECon:
    def test_reference_12x8(self, ex1_contraction):
        assert e_con(ex1_contraction) == pytest.approx(0.5739, abs=5e-5)

    def test_equal_replication_identity(self, ex1_contraction):
        assert abs(e_con(ex1_contraction) - c_bar_v(ex1_contraction)) <= 1e-8

    def test_reference_24x16_matches_oracle(self, ex2_contraction):
        value = e_con(ex2_contraction)
        oracle = pairwise_variance_efficiency(
            info_matrix_contraction(ex2_contraction), ex2_contraction.r
        )
        assert value == pytest.approx(oracle, abs=1e-10)
        assert value == pytest.approx(EX2_E_CON, abs=1e-9)
        # unequal replication: differs from the mean-scaled summary
        assert abs(value - c_bar_v(ex2_contraction)) > 1e-3


class TestEDualColumn:
    def test_reference_12x8(self, ex1_contraction):
        assert e_dual_column(ex1_contraction) == pytest.approx(0.4828, abs=5e-5)

    def test_complete_column_design_is_orthogonal(self, latin3):
        assert e_dual_column(latin3) == pytest.approx(1.0, abs=1e-12)

    def test_dual_cefs_are_padded_primal_cefs(self):
        # the dual's values equal the non-unit cefs of the primal column
        # design padded with units up to s-1
        from arcdesign.designs import incidence
        from arcdesign.spectra import cefs_from_info

        for seed in (3, 4, 5):
            c = random_valid(8, 4, 4, seed)
            inc = incidence(c)
            r = c.r.astype(float)
            primal = np.diag(r) - (inc.n_c @ inc.n_c.T) / c.k
            primal_cefs = cefs_from_info(primal, r).nontrivial()
            non_unit = np.sort(primal_cefs[np.abs(primal_cefs - 1.0) > 1e-9])
            dual_info = c.k * np.eye(c.s) - inc.n_c.T @ np.diag(1.0 / r) @ inc.n_c
            dual_cefs = np.sort(cefs_from_info(dual_info, np.full(c.s, float(c.k))).nontrivial())
            padded = np.sort(np.concatenate([non_unit, np.ones(c.s - 1 - len(non_unit))]))
            assert np.allclose(dual_cefs, padded, atol=1e-8)


class TestDenseDiagonalBytes:
    """The kernels that add r on the diagonal match the dense ``diag(r)`` forms bit for bit."""

    # (8,5,3) and (10,7,4) at seed 0 have label pairs that share no row, so the
    # row block holds zeros and their signs are checked too.
    @pytest.fixture(params=[(8, 5, 3, 0), (12, 8, 3, 1), (10, 7, 4, 0), (24, 16, 5, 3)],
                    ids=lambda p: "x".join(map(str, p)))
    def design(self, request):
        v, s, k, seed = request.param
        return random_contraction(v, s, k, seed=seed)

    def test_row_block(self, design):
        inc, r = incidence(design), design.r.astype(float)
        assert (efficiency._row_block(inc.n_r, r, design.s).tobytes()
                == row_block_with_dense_diagonal(inc.n_r, r, design.s).tobytes())

    def test_b_matrix(self, design):
        assert b_matrix(design).tobytes() == b_matrix_with_dense_diagonal(design).tobytes()

    def test_dual_info(self, design, monkeypatch):
        seen, cefs = [], efficiency.cefs_from_info
        monkeypatch.setattr(efficiency, "cefs_from_info",
                            lambda info, r: seen.append(info) or cefs(info, r))
        e_dual_column(design)
        assert seen[0].tobytes() == dual_info_with_dense_diagonal(design).tobytes()


class TestGeneralBalance:
    def test_reference_12x8_is_balanced(self, ex1_contraction):
        # the published row for this setting has matching column summaries
        assert is_generally_balanced(ex1_contraction)

    def test_search_found_16x8_is_balanced(self):
        result = search_contraction(16, 8, 4, SearchConfig(seed=0))
        assert is_generally_balanced(result.best)
        assert abs(c_bar_s(result.best) - e_dual_column(result.best)) <= 1e-8

    def test_near_optimal_20x12_is_not_balanced(self):
        # published summaries for (k=5, v=20, s=12) differ (0.7201 vs 0.7213),
        # so the optimum is not generally balanced
        result = search_contraction(20, 12, 5, SearchConfig(seed=0, restarts=8))
        assert result.objective > 0.77
        assert not is_generally_balanced(result.best)

    def test_matches_enumeration_product(self, ex1_contraction):
        product = column_product_by_enumeration(ex1_contraction.cells, 12)
        assert is_generally_balanced(ex1_contraction) == bool(
            np.abs(product - 4.0).max() <= 1e-8
        )

    def test_matches_the_exact_fraction_oracle(self, small_designs, ex1_contraction, ex2_contraction):
        verdicts = [is_generally_balanced(c) for c in small_designs]
        assert verdicts == [generally_balanced_by_fractions(c) for c in small_designs]
        assert 0 < sum(verdicts) < len(verdicts)
        assert is_generally_balanced(ex1_contraction) and generally_balanced_by_fractions(ex1_contraction)
        assert not is_generally_balanced(ex2_contraction)
        assert not generally_balanced_by_fractions(ex2_contraction)

    def test_perturbation_breaks_balance(self, ex1_contraction):
        from arcdesign import neighbor_moves

        moves = neighbor_moves(ex1_contraction)
        flipped = [
            m for m in moves if not is_generally_balanced(apply_move(ex1_contraction, m))
        ]
        assert flipped, "some neighbouring design should lose general balance"
        perturbed = apply_move(ex1_contraction, flipped[0])
        product = column_product_by_enumeration(perturbed.cells, 12)
        assert np.abs(product - 4.0).max() > 1e-8


class TestEAugFormula:
    def test_reference_12x8(self):
        assert e_aug_formula(75, 12, 8, 3, 0.5739, 0.4828) == pytest.approx(0.388112, abs=1e-4)

    def test_reference_24x16(self):
        assert e_aug_formula(309, 24, 16, 5, 0.7749, 0.7332) == pytest.approx(0.6031, abs=5e-5)

    def test_orthogonal_collapse(self):
        assert e_aug_formula(10, 3, 3, 3, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_summaries(self):
        with pytest.raises(ValueError):
            e_aug_formula(75, 12, 8, 3, 0.0, 0.5)
        with pytest.raises(ValueError):
            e_aug_formula(75, 12, 8, 3, 0.5, -0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_summaries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            e_aug_formula(75, 12, 8, 3, bad, 0.4828)
        with pytest.raises(ValueError, match="finite"):
            e_aug_formula(75, 12, 8, 3, 0.5739, bad)


class TestInfoMatrixAugmented:
    def test_replication_vector(self, ex1_augmented):
        u = ex1_augmented.u
        assert np.array_equal(u[:72], np.ones(72))
        assert np.array_equal(u[72:], np.full(3, 8.0))

    def test_reference_efficiency(self, ex1_augmented):
        sp = augmented_cefs(ex1_augmented)
        assert harmonic_mean_nontrivial(sp) == pytest.approx(0.3881, abs=5e-5)

    def test_zero_row_sums(self, ex1_augmented):
        a = info_matrix_augmented(ex1_augmented)
        assert np.abs(a.sum(axis=1)).max() < 1e-10

    @pytest.mark.parametrize("source", [
        "augmented_12x8_k3", "augmented_24x16_k5",
        *(pytest.param(dims, id="augment-{}x{}-k{}".format(*dims))
          for dims in [(6, 4, 3), (15, 10, 3), (20, 12, 5)]),
    ])
    def test_bit_identical_to_the_four_term_expression(self, source):
        if isinstance(source, tuple):
            a = augment(random_contraction(*source, seed=0))
        else:
            a = load_reference_design(source)
        assert info_matrix_augmented(a).tobytes() == info_matrix_augmented_by_cells(a).tobytes()

    # The matrix is written from where each label sits, so it must not depend
    # on augment's column-major numbering of the test lines.
    @given(size=st.sampled_from([(6, 4, 3), (7, 5, 3), (10, 6, 3), (12, 8, 3), (15, 10, 3),
                                 (20, 12, 5), (24, 16, 5), (48, 32, 6)]),
           seed=st.integers(0, 2**32 - 1), relabel=st.booleans())
    @settings(max_examples=48, deadline=None)
    def test_bit_identical_under_any_test_line_numbering(self, size, seed, relabel):
        a = augment(random_contraction(*size, seed=seed))
        if relabel:
            t = a.n_test_lines
            cells = a.cells.copy()
            is_test = cells <= t
            cells[is_test] = np.random.default_rng(seed).permutation(t)[cells[is_test] - 1] + 1
            a = AugmentedDesign(k=a.k, cells=cells)
        assert info_matrix_augmented(a).tobytes() == info_matrix_augmented_by_cells(a).tobytes()

    def test_one_row_is_invalid(self):
        one_row = AugmentedDesign(k=1, cells=[[1]])
        with pytest.raises(InvalidDesignError,
                           match=r"generating contraction: needs at least 2 pseudo-treatments \(v=1\)"):
            e_aug_direct(one_row)

    def test_tiny_case_matches_pairwise_oracle(self):
        c = random_contraction(3, 3, 2, seed=2)
        a_design = augment(c)
        a = info_matrix_augmented(a_design)
        direct = e_aug_direct(a_design)
        assert direct == pytest.approx(pairwise_variance_efficiency(a, a_design.u), abs=1e-10)


class TestEAugDirect:
    def test_reference_12x8(self, ex1_contraction):
        assert e_aug_direct(augment(ex1_contraction)) == pytest.approx(0.3881, abs=5e-5)

    def test_reference_24x16(self, ex2_contraction):
        assert e_aug_direct(augment(ex2_contraction)) == pytest.approx(0.6031, abs=5e-5)

    def test_formula_direct_equivalence_sample(self):
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 12:
            k = int(rng.integers(2, 6))
            s = int(rng.integers(3, 9))
            v = int(rng.integers(s, 16))
            if k > v or feasibility_df(v, s, k) < 0:
                continue
            c = random_contraction(v, s, k, seed=int(rng.integers(1 << 32)))
            try:
                formula = e_aug_formula((v - k) * s + k, v, s, k, c_bar_v(c), c_bar_s(c))
            except DisconnectedDesignError:
                continue
            assert abs(formula - e_aug_direct(augment(c))) <= 1e-8
            checked += 1

    # ks/v is not an integer at these sizes, so replication is unequal; a walk
    # of random swaps leaves the random start, sometimes for a disconnected design.
    @given(size=st.sampled_from([(7, 5, 3), (9, 6, 4), (10, 6, 3)]),
           seed=st.integers(0, 2**32 - 1), swaps=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_formula_equals_direct_under_unequal_replication(self, size, seed, swaps):
        v, s, k = size
        c = _random_walk(size, seed, swaps)
        assert c.r.min() < c.r.max()
        try:
            formula = e_aug_formula((v - k) * s + k, v, s, k, c_bar_v(c), c_bar_s(c))
        except DisconnectedDesignError:
            with pytest.raises(DisconnectedDesignError):
                e_aug_direct(augment(c))
            return
        assert abs(formula - e_aug_direct(augment(c))) <= 1e-8


class TestAugmentedCefsRoute:
    """``augmented_cefs`` scales its own fresh matrix and skips the input checks
    of ``cefs_from_info``; the spectrum and the errors must be the same."""

    @given(size=st.sampled_from([(7, 5, 3), (9, 6, 4), (10, 6, 3), (24, 16, 5)]),
           seed=st.integers(0, 2**32 - 1), swaps=st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_checked_public_route(self, size, seed, swaps):
        a = augment(_random_walk(size, seed, swaps))
        try:
            expected = cefs_from_info(info_matrix_augmented(a), a.u)
        except DisconnectedDesignError:
            with pytest.raises(DisconnectedDesignError):
                augmented_cefs(a)
            return
        sp = augmented_cefs(a)
        assert sp.trivial_count == expected.trivial_count == 1
        assert np.abs(sp.eigenvalues - expected.eigenvalues).max() <= 1e-12

    def test_disconnected_design_raises_on_both_routes(self):
        # two separate 2x2 Latin squares side by side share no labels
        a = augment(ContractionDesign.from_cells([[1, 2, 3, 4], [2, 1, 4, 3]], v=4))
        with pytest.raises(DisconnectedDesignError):
            cefs_from_info(info_matrix_augmented(a), a.u)
        with pytest.raises(DisconnectedDesignError):
            augmented_cefs(a)

    def test_moment_check_guards_the_direct_route(self, ex1_augmented, monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def perturbed(m):
            w = eigvalsh(m)
            w[40] += 1e-6 * np.linalg.norm(m)
            return w

        monkeypatch.setattr(spectra.np.linalg, "eigvalsh", perturbed)
        with pytest.raises(RankAnomalyError, match="eigenvalue moments off"):
            e_aug_direct(ex1_augmented)

    def test_each_call_returns_a_fresh_matrix(self, ex1_augmented):
        # the direct route scales the matrix it is given in place
        first, second = info_matrix_augmented(ex1_augmented), info_matrix_augmented(ex1_augmented)
        assert first is not second and not np.shares_memory(first, second)
        assert np.array_equal(first, second)
        augmented_cefs(ex1_augmented)
        assert np.array_equal(info_matrix_augmented(ex1_augmented), first)


class TestFullReport:
    def test_reference_12x8_summary(self, ex1_contraction):
        report = full_report(ex1_contraction, include_direct=True)
        assert report.e_con == pytest.approx(0.5739, abs=5e-5)
        assert report.c_bar_v == pytest.approx(0.5739, abs=5e-5)
        assert report.c_bar_s == pytest.approx(0.4828, abs=5e-5)
        assert report.e_dual == pytest.approx(0.4828, abs=5e-5)
        assert report.e_aug_formula == pytest.approx(0.3881, abs=5e-5)
        assert report.e_aug_direct == pytest.approx(0.3881, abs=5e-5)
        assert abs(report.e_aug_formula - report.e_aug_direct) <= 1e-8
        assert report.generally_balanced == is_generally_balanced(ex1_contraction)
        assert len(report.cefs_contraction) == 11
        assert len(report.cefs_augmented) == 74

    def test_published_row_16x12(self):
        # published summaries for (k=4, v=16, s=12) plugged into the formula
        assert e_aug_formula(148, 16, 12, 4, 0.7547, 0.7097) == pytest.approx(0.560000, abs=1e-4)

    def test_latin_square_all_ones(self, latin3):
        report = full_report(latin3, include_direct=True)
        for value in (report.e_con, report.c_bar_v, report.c_bar_s, report.e_dual,
                      report.e_aug_formula, report.e_aug_direct):
            assert value == pytest.approx(1.0, abs=1e-9)

    def test_validates_once(self, monkeypatch):
        c = load_reference_design("contraction_24x16_k5")  # a design never validated before
        calls = []

        def counted(validate):
            return lambda design: calls.append(design) or validate(design)

        # the one gate reaches both validators through their names in ``designs``
        for name in ("validate_contraction", "validate_augmented"):
            monkeypatch.setattr(designs, name, counted(getattr(designs, name)))
        full_report(c, include_direct=True)
        # augment's output is valid by construction, so it is not validated again
        assert [type(d) for d in calls] == [ContractionDesign]
        assert calls[0] is c
        # a design validated once stays valid: its arrays are read-only
        a = augment(c)
        e_aug_direct(a)
        calls.clear()
        full_report(c)
        e_aug_direct(a)
        info_matrix_augmented(a)
        assert extract_contraction(a) == c
        assert calls == []

    def test_one_incidence_set_and_one_contraction_spectrum(self, monkeypatch):
        builds, solves = [], []
        incidence_arrays, eigvalsh = designs._incidence_arrays, np.linalg.eigvalsh
        monkeypatch.setattr(designs, "_incidence_arrays",
                            lambda cells, v: builds.append(v) or incidence_arrays(cells, v))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solves.append(len(m)) or eigvalsh(m))
        c = load_reference_design("contraction_24x16_k5")  # nothing is kept on it yet
        full_report(c)
        # the contraction cefs (connectivity, e_con and the report's cefs alike)
        # and e_dual; c_bar_v and c_bar_s read one inverse, not a solve
        assert builds == [24] and solves == [24, 16]
        inc = incidence(c)
        assert incidence(c) is inc
        for arr in (inc.n_r, inc.n_c, inc.w):
            with pytest.raises(ValueError):
                arr[0, 0] = 2.0
        # the direct route adds its one v* x v* solve and no incidence build
        builds.clear(), solves.clear()
        full_report(load_reference_design("contraction_24x16_k5"), include_direct=True)
        assert builds == [24] and solves == [24, 16, 309]

    def test_one_inverse_of_the_lifted_joint_matrix_per_design(self, monkeypatch):
        inverses, inv = [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: inverses.append(len(m)) or inv(m))
        c = load_reference_design("contraction_24x16_k5")
        first = full_report(c)
        assert full_report(c) == first
        assert (c_bar_v(c), c_bar_s(c)) == (first.c_bar_v, first.c_bar_s)
        assert inverses == [24 + 16]
        full_report(load_reference_design("contraction_24x16_k5"))
        assert inverses == [40, 40]

    # sha256 of the report JSON of the bundled (24,16,5) reference, recorded
    # when c_bar_v came to be read from the row block of B~^-1, which moved
    # cBarV and eAugFormula in their last bits (it was 2f12a095...399033fb7
    # with c_bar_v from its own eigensolve): the values must not move by one bit.
    # The case id leaves the digest out, so that a re-pin keeps the test's name.
    @pytest.mark.parametrize("include_direct, digest", [
        pytest.param(False, "46f97fd2ef0ab21b4916be655d958c6cb0b71a1764d62afaea68cdb7bf3cbfbc",
                     id="formula-only"),
    ])
    def test_reference_report_json_unchanged(self, include_direct, digest):
        c = load_reference_design("contraction_24x16_k5")
        text = full_report(c, include_direct=include_direct).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_reference_direct_report_bit_identical(self):
        # The direct fields come from a 309x309 eigensolve whose last bits
        # depend on the BLAS build and thread count, so they are not pinned
        # by a digest: they must equal, bit for bit, what the public
        # functions give on a separately loaded, separately validated copy.
        report = full_report(load_reference_design("contraction_24x16_k5"), include_direct=True)
        formula_only = full_report(load_reference_design("contraction_24x16_k5"))
        assert dataclasses.replace(report, e_aug_direct=None, cefs_augmented=None) == formula_only
        sp = augmented_cefs(augment(load_reference_design("contraction_24x16_k5")))
        assert report.e_aug_direct == harmonic_mean_nontrivial(sp)
        assert report.cefs_augmented == efficiency._clamped_cefs(sp)

    def test_json_round_trip_field_names(self, latin3):
        import json

        d = json.loads(full_report(latin3).to_json())
        assert set(d) == {
            "eCon", "cBarV", "cBarS", "eDual", "eAugFormula", "eAugDirect",
            "generallyBalanced", "cefsContraction", "cefsAugmented",
        }
        assert d["eAugDirect"] is None
        assert d["cefsAugmented"] is None


class TestModuleProperties:
    def test_permutation_invariance(self, ex1_contraction):
        rng = np.random.default_rng(9)
        base = dict(
            e_con=e_con(ex1_contraction),
            c_bar_v=c_bar_v(ex1_contraction),
            c_bar_s=c_bar_s(ex1_contraction),
        )
        cells = ex1_contraction.cells
        # permute rows, columns, and labels independently
        row_perm = cells[rng.permutation(3), :]
        col_perm = cells[:, rng.permutation(8)]
        relabel = rng.permutation(12) + 1
        label_perm = relabel[cells - 1]
        for permuted in (row_perm, col_perm, label_perm):
            c = ContractionDesign.from_cells(permuted, v=12)
            assert e_con(c) == pytest.approx(base["e_con"], abs=1e-9)
            assert c_bar_v(c) == pytest.approx(base["c_bar_v"], abs=1e-9)
            assert c_bar_s(c) == pytest.approx(base["c_bar_s"], abs=1e-9)

    def test_efficiencies_lie_in_unit_interval(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 10:
            k = int(rng.integers(2, 5))
            s = int(rng.integers(3, 8))
            v = int(rng.integers(s, 14))
            if k > v or feasibility_df(v, s, k) < 0:
                continue
            c = random_contraction(v, s, k, seed=int(rng.integers(1 << 32)))
            try:
                cbv, cbs = c_bar_v(c), c_bar_s(c)
                aefs = [
                    e_con(c),
                    e_dual_column(c),
                    e_aug_formula((v - k) * s + k, v, s, k, cbv, cbs),
                ]
            except DisconnectedDesignError:
                continue
            assert cbv > 0 and cbs > 0
            for value in aefs:
                assert 0.0 < value <= 1.0 + 1e-9
            checked += 1
