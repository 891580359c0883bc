import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcdesign import cefs_from_info, eig_symmetric, harmonic_mean_nontrivial, spectra
from arcdesign.efficiency import info_matrix_augmented, info_matrix_contraction
from arcdesign.errors import DisconnectedDesignError, RankAnomalyError
from arcdesign.spectra import Spectrum

from oracles import pairwise_variance_efficiency


class TestEigSymmetric:
    def test_identity(self):
        sp = eig_symmetric(np.eye(3))
        assert np.allclose(sp.eigenvalues, [1, 1, 1])
        assert sp.trivial_count == 0

    def test_all_ones_rank_one(self):
        sp = eig_symmetric(np.ones((4, 4)))
        assert np.allclose(sp.eigenvalues, [4, 0, 0, 0], atol=1e-12)
        assert sp.trivial_count == 3

    def test_two_by_two_closed_form(self):
        sp = eig_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(sp.eigenvalues, [3, 1])

    def test_descending_order(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(7, 7))
        m = m + m.T
        vals = eig_symmetric(m).eigenvalues
        assert np.all(np.diff(vals) <= 0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            eig_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            eig_symmetric(np.ones((2, 3)))

    @given(seed=st.integers(min_value=0, max_value=10_000), n=st.integers(min_value=2, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_permutation_equivariance(self, seed, n):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        m = m + m.T
        perm = rng.permutation(n)
        permuted = m[np.ix_(perm, perm)]
        assert np.allclose(
            eig_symmetric(m).eigenvalues, eig_symmetric(permuted).eigenvalues, atol=1e-9
        )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_eigenvalue_sum_matches_trace(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        m = rng.normal(size=(n, n))
        m = m + m.T
        sp = eig_symmetric(m)
        assert abs(float(sp.eigenvalues.sum()) - float(np.trace(m))) < 1e-8 * max(
            1.0, abs(float(np.trace(m)))
        )

    # The eigensolver's output is checked against the matrix's first two moments
    # (sum(w) = tr(A), sum(w^2) = ||A||_F^2), so a wrong spectrum is caught even
    # when its sum is right.
    @pytest.mark.parametrize("mutation", ["none", "one", "pair", "nan"])
    def test_moment_check_catches_a_wrong_spectrum(self, ex1_augmented, monkeypatch, mutation):
        a = info_matrix_augmented(ex1_augmented)
        w = np.linalg.eigvalsh(a)
        delta = 1e-6 * np.linalg.norm(a)
        if mutation == "one":
            w[40] += delta
        elif mutation == "pair":  # the sum stays put, the sum of squares grows
            w[-1] += delta
            w[0] -= delta
            assert abs(w.sum() - np.trace(a)) <= 1e-12 * np.linalg.norm(a)
        elif mutation == "nan":
            w[40] = np.nan
        monkeypatch.setattr(spectra.np.linalg, "eigvalsh", lambda m: w)
        if mutation == "none":
            assert np.array_equal(eig_symmetric(a).eigenvalues, w[::-1])
            return
        with pytest.raises(RankAnomalyError, match="eigenvalue moments off"):
            eig_symmetric(a)

    def test_solver_failure_is_a_rank_anomaly(self, monkeypatch):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(spectra.np.linalg, "eigvalsh", fail)
        with pytest.raises(RankAnomalyError, match="failed to converge"):
            eig_symmetric(np.eye(3))


class TestHarmonicMean:
    def test_units_with_one_zero(self):
        sp = Spectrum(eigenvalues=np.array([1.0, 1.0, 1.0, 0.0]))
        assert harmonic_mean_nontrivial(sp) == pytest.approx(1.0)

    def test_mixed_values(self):
        sp = Spectrum(eigenvalues=np.array([1.0, 0.5, 0.0]))
        assert harmonic_mean_nontrivial(sp) == pytest.approx(2 / 3)

    def test_reference_contraction_unscaled_harmonic(self, ex1_contraction):
        # harmonic mean of the raw information-matrix eigenvalues is r_bar
        # times the replication-scaled summary: 2 * 0.5739
        sp = eig_symmetric(info_matrix_contraction(ex1_contraction))
        value = harmonic_mean_nontrivial(sp)
        assert value == pytest.approx(2 * 0.5739, abs=1e-4)

    def test_too_many_zeros_is_disconnected(self):
        sp = Spectrum(eigenvalues=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(DisconnectedDesignError):
            harmonic_mean_nontrivial(sp)

    def test_too_few_zeros_is_rank_anomaly(self):
        sp = Spectrum(eigenvalues=np.array([1.0, 0.5, 0.2]))
        with pytest.raises(RankAnomalyError):
            harmonic_mean_nontrivial(sp)


class TestCefsFromInfo:
    def test_latin_square_design_is_orthogonal(self, latin3):
        sp = cefs_from_info(info_matrix_contraction(latin3), latin3.r.astype(float))
        assert np.allclose(sp.nontrivial(), [1.0, 1.0], atol=1e-12)

    def test_reference_augmented_design(self, ex1_augmented):
        sp = cefs_from_info(info_matrix_augmented(ex1_augmented), ex1_augmented.u)
        vals = sp.nontrivial()
        assert len(vals) == 74
        assert harmonic_mean_nontrivial(sp) == pytest.approx(0.3881, abs=5e-5)

    def test_cefs_match_pairwise_variance_oracle(self):
        # random connected 2-row x 3-column contraction (v = 3, all labels twice)
        from arcdesign import random_contraction

        c = random_contraction(3, 3, 2, seed=11)
        a = info_matrix_contraction(c)
        sp = cefs_from_info(a, c.r.astype(float))
        harmonic = harmonic_mean_nontrivial(sp)
        assert harmonic == pytest.approx(pairwise_variance_efficiency(a, c.r), abs=1e-10)

    def test_cef_range(self, ex1_contraction, ex2_contraction):
        for c in (ex1_contraction, ex2_contraction):
            sp = cefs_from_info(info_matrix_contraction(c), c.r.astype(float))
            assert np.all(sp.eigenvalues >= -1e-9)
            assert np.all(sp.eigenvalues <= 1 + 1e-9)

    def test_disconnected_design_raises(self):
        # two separate 2x2 Latin squares side by side share no labels
        from arcdesign import ContractionDesign

        cells = np.array([[1, 2, 3, 4], [2, 1, 4, 3]])
        c = ContractionDesign.from_cells(cells, v=4)
        with pytest.raises(DisconnectedDesignError):
            cefs_from_info(info_matrix_contraction(c), c.r.astype(float))

    def test_nonzero_row_sums_rejected(self):
        with pytest.raises(ValueError, match="information matrix"):
            cefs_from_info(np.eye(3), np.ones(3))

    def test_nonpositive_u_rejected(self):
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(ValueError, match="positive"):
            cefs_from_info(a, np.array([1.0, 0.0]))

