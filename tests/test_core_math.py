"""Unit tests for LHS, Spearman, GP, acquisition and KPCA."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acquisition import (
    EIMCMC,
    _erf,
    expected_improvement,
    norm_cdf,
    norm_pdf,
    sample_hypers,
)
from repro.core.gp import _JITTER, GP, Hyper, _bordered_kernel, log_marginal_likelihood, rbf_kernel
from repro.core.kpca import KERNELS, KernelPCA
from repro.core.lhs import latin_hypercube
from repro.core.spearman import rankdata, spearman, spearman_matrix


# ---------------------------------------------------------------- LHS
class TestLHS:
    def test_shape(self):
        u = latin_hypercube(7, 3, np.random.default_rng(0))
        assert u.shape == (7, 3)
        assert np.all((u >= 0) & (u <= 1))

    def test_stratification(self):
        n = 10
        u = latin_hypercube(n, 4, np.random.default_rng(1))
        for j in range(4):
            strata = np.floor(u[:, j] * n).astype(int)
            assert sorted(strata) == list(range(n))

    def test_deterministic_given_seed(self):
        a = latin_hypercube(5, 2, np.random.default_rng(42))
        b = latin_hypercube(5, 2, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n,dim", [(0, 1), (1, 0)])
    def test_rejects_bad_sizes(self, n, dim):
        with pytest.raises(ValueError):
            latin_hypercube(n, dim, np.random.default_rng(0))

    @given(st.integers(1, 30), st.integers(1, 6), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_property_every_stratum_hit(self, n, dim, seed):
        u = latin_hypercube(n, dim, np.random.default_rng(seed))
        for j in range(dim):
            assert len(set(np.floor(u[:, j] * n).astype(int))) == n


# ------------------------------------------------------------ Spearman
class TestSpearman:
    def test_perfect_monotone(self):
        x = np.arange(10.0)
        assert spearman(x, x**3) == pytest.approx(1.0)
        assert spearman(x, -(x**3)) == pytest.approx(-1.0)

    def test_constant_is_zero(self):
        assert spearman(np.ones(10), np.arange(10.0)) == 0.0

    def test_ties_averaged(self):
        assert rankdata(np.array([1.0, 2.0, 2.0, 3.0])).tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_matrix(self):
        rng = np.random.default_rng(0)
        X = rng.random((50, 3))
        y = 3 * X[:, 0] - 2 * X[:, 2] + 0.01 * rng.standard_normal(50)
        scc = spearman_matrix(X, y)
        assert scc[0] > 0.7
        assert scc[2] < -0.5
        assert abs(scc[1]) < 0.4

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            spearman(np.arange(3.0), np.arange(4.0))
        with pytest.raises(ValueError):
            spearman(np.array([1.0]), np.array([1.0]))

    def test_known_value(self):
        # hand-computed Spearman rho for a small example
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.array([2.0, 1.0, 4.0, 3.0, 5.0])
        assert spearman(x, y) == pytest.approx(0.8)


# ------------------------------------------------------------------ GP
class TestGP:
    def _fit(self, noise=1e-6):
        rng = np.random.default_rng(0)
        X = rng.random((20, 2))
        y = np.sin(4 * X[:, 0]) + X[:, 1]
        return X, y, GP(X, y, Hyper(np.array([0.3, 0.3]), 1.0, noise))

    def test_interpolates_training_points(self):
        X, y, gp = self._fit()
        mu, var = gp.predict(X)
        assert np.abs(mu - y).max() < 1e-2
        assert np.all(var >= 0)

    def test_uncertainty_grows_off_data(self):
        X, y, gp = self._fit()
        _, var_on = gp.predict(X[:1])
        _, var_off = gp.predict(np.array([[5.0, 5.0]]))
        assert var_off[0] > var_on[0] * 10

    def test_lml_finite_and_prefers_good_hypers(self):
        X, y, _ = self._fit()
        ys = (y - y.mean()) / y.std()
        good = log_marginal_likelihood(X, ys, Hyper(np.array([0.3, 0.3]), 1.0, 1e-2))
        bad = log_marginal_likelihood(X, ys, Hyper(np.array([1e-4, 1e-4]), 1.0, 1e-2))
        assert np.isfinite(good) and good > bad

    def test_hyper_log_vector_roundtrip(self):
        h = Hyper(np.array([0.5, 2.0]), 1.5, 0.01)
        h2 = Hyper.from_log_vector(h.as_log_vector())
        np.testing.assert_allclose(h2.lengthscales, h.lengthscales)
        assert h2.signal_var == pytest.approx(h.signal_var)
        assert h2.noise_var == pytest.approx(h.noise_var)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            GP(np.zeros((3, 2)), np.zeros(4), Hyper(np.ones(2), 1.0, 0.1))


def _ref_rbf(A, B, h):
    """The allocating RBF formula the in-place kernel must reproduce bit for bit."""
    A = A / h.lengthscales
    B = B / h.lengthscales
    aa = np.sum(A * A, axis=1)[:, None]
    bb = np.sum(B * B, axis=1)[None, :]
    return h.signal_var * np.exp(-0.5 * np.maximum(aa + bb - 2.0 * A @ B.T, 0.0))


def _ref_kernel(X, h):
    return _ref_rbf(X, X, h) + (h.noise_var + _JITTER) * np.eye(len(X))


def _ref_lml(X, y, h):
    """Two-solve reference: Cholesky of K, then alpha = K⁻¹y via two solves."""
    n = len(y)
    try:
        L = np.linalg.cholesky(_ref_kernel(X, h))
    except np.linalg.LinAlgError:
        return -np.inf
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
    return float(-0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * np.log(2.0 * np.pi))


def _ref_predict(X, y, h, Xs):
    """Two-solve reference posterior mean and variance (original units)."""
    y_mean, y_std = y.mean(), (y.std() or 1.0)
    L = np.linalg.cholesky(_ref_kernel(X, h))
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, (y - y_mean) / y_std))
    Ks = _ref_rbf(X, Xs, h)
    v = np.linalg.solve(L, Ks)
    var_n = np.maximum(h.signal_var - np.sum(v * v, axis=0), 1e-12)
    return Ks.T @ alpha * y_std + y_mean, var_n * y_std**2


def _random_hyper(rng, d):
    """Log-normal hyperparameters around the EI-MCMC prior's centre."""
    return Hyper(
        np.exp(rng.normal(math.log(0.3), 1.0, d)),
        float(np.exp(rng.normal(0.0, 1.0))),
        float(np.exp(rng.normal(math.log(1e-2), 1.5))),
    )


def _gp_cases():
    rng = np.random.default_rng(11)
    for n in (1, 2, 30, 200):
        for d in (1, 39):
            X = rng.random((n, d))
            yield f"n{n}-d{d}", X, np.sin(3 * X).sum(axis=1) + 0.1 * rng.standard_normal(n), _random_hyper(rng, d)
    # ill-conditioned: every row duplicated, almost no observation noise
    X = rng.random((20, 3))
    X = np.vstack([X, X])
    y = X.sum(axis=1) + 0.1 * rng.standard_normal(40)
    yield "duplicated-rows", X, y, Hyper(np.full(3, 0.5), 1.0, 1e-12)


GP_CASES = list(_gp_cases())


class TestBorderedCholesky:
    """The bordered factorization against the two-solve formula it replaced."""

    RTOL = 1e-9

    @pytest.mark.parametrize("name,X,y,h", GP_CASES, ids=[c[0] for c in GP_CASES])
    def test_lml_matches_two_solve_reference(self, name, X, y, h):
        ys = (y - y.mean()) / (y.std() or 1.0)
        got = log_marginal_likelihood(X, ys, h)
        assert np.isfinite(got)
        np.testing.assert_allclose(got, _ref_lml(X, ys, h), rtol=self.RTOL)

    @pytest.mark.parametrize("name,X,y,h", GP_CASES, ids=[c[0] for c in GP_CASES])
    def test_predict_matches_two_solve_reference(self, name, X, y, h):
        Xs = np.vstack([X[:5], np.random.default_rng(3).random((7, X.shape[1]))])
        mu, var = GP(X, y, h).predict(Xs)
        mu_ref, var_ref = _ref_predict(X, y, h, Xs)
        np.testing.assert_allclose(var, var_ref, rtol=self.RTOL)
        # The mean is K⁻¹y projected, so two float64 evaluations of it can
        # only agree to cond(K)·eps: about 4e-7 on the duplicated-rows case,
        # where both formulas sit ~7e-9 from an 80-bit evaluation.
        cond = np.linalg.cond(_ref_kernel(X, h))
        np.testing.assert_allclose(mu, mu_ref, rtol=max(self.RTOL, cond * np.finfo(float).eps))

    @pytest.mark.parametrize("name,X,y,h", GP_CASES, ids=[c[0] for c in GP_CASES])
    def test_kernels_are_bit_identical(self, name, X, y, h):
        n = len(y)
        M = _bordered_kernel(X, y, h)
        assert np.array_equal(M[:n, :n], _ref_kernel(X, h))
        assert np.array_equal(M[n, :n], y) and np.array_equal(M[:n, n], y)
        Xs = np.random.default_rng(5).random((9, X.shape[1]))
        assert np.array_equal(rbf_kernel(X, Xs, h), _ref_rbf(X, Xs, h))

    def test_fitted_lml_matches_function(self):
        _, X, y, h = GP_CASES[2]
        gp = GP(X, y, h)
        assert gp.log_marginal_likelihood() == log_marginal_likelihood(X, gp._yn, h)

    def test_non_pd_kernel_fails_like_cholesky(self):
        rng = np.random.default_rng(0)
        X = rng.random((10, 2))
        h = Hyper(np.full(2, 10.0), 1.0, -0.5)  # near-constant kernel minus 0.5 I
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(_ref_kernel(X, h))
        assert log_marginal_likelihood(X, rng.standard_normal(10), h) == -np.inf
        with pytest.raises(np.linalg.LinAlgError):
            GP(X, rng.standard_normal(10), h)

    def test_minus_inf_exactly_when_kernel_does_not_factor(self):
        """Sweep of valid hyperparameters, some so extreme that K is
        numerically indefinite: -inf iff Cholesky of K alone raises, so the
        corner of the bordered matrix never fails a kernel that factors."""
        rng = np.random.default_rng(7)
        outcomes = set()
        for _ in range(300):
            n, d = int(rng.integers(1, 60)), int(rng.integers(1, 6))
            X = rng.random((n, d))
            X[n // 2:] = X[: n - n // 2] + rng.normal(0.0, 1e-6, (n - n // 2, d))
            y = 10.0 * rng.standard_normal(n)
            h = Hyper(np.exp(rng.normal(0.0, 2.0, d)), float(np.exp(rng.uniform(-5, 30))),
                      float(np.exp(rng.uniform(-30, 0))))
            try:
                np.linalg.cholesky(_ref_kernel(X, h))
                factors = True
            except np.linalg.LinAlgError:
                factors = False
            assert np.isfinite(log_marginal_likelihood(X, y, h)) == factors
            outcomes.add(factors)
        assert outcomes == {True, False}


# ---------------------------------------------------------- acquisition
class TestAcquisition:
    def test_erf_matches_math_erf(self):
        z = np.linspace(-4, 4, 101)
        expected = np.array([math.erf(v) for v in z])
        np.testing.assert_allclose(_erf(z), expected, atol=2e-7)

    def test_norm_cdf_bounds(self):
        z = np.linspace(-8, 8, 50)
        c = norm_cdf(z)
        assert np.all((c >= 0) & (c <= 1))
        assert np.all(np.diff(c) >= 0)
        assert norm_cdf(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_norm_pdf_peak(self):
        assert norm_pdf(np.array([0.0]))[0] == pytest.approx(1 / math.sqrt(2 * math.pi))

    def test_ei_nonnegative_and_zero_far_above_best(self):
        ei = expected_improvement(np.array([10.0]), np.array([1e-6]), best=1.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-6)
        ei2 = expected_improvement(np.array([0.0]), np.array([1.0]), best=1.0)
        assert ei2[0] > 0.9

    def test_sample_hypers_count_and_positivity(self):
        rng = np.random.default_rng(0)
        X = rng.random((15, 3))
        y = X.sum(axis=1)
        hs = sample_hypers(X, y, rng, n_hyper=5)
        assert len(hs) == 5
        for h in hs:
            assert np.all(h.lengthscales > 0)
            assert h.signal_var > 0 and h.noise_var > 0

    def test_eimcmc_scores_and_prefers_promising(self):
        rng = np.random.default_rng(0)
        X = rng.random((25, 1))
        y = (X[:, 0] - 0.3) ** 2
        acq = EIMCMC(X, y, rng, n_hyper=4)
        scores = acq.score(np.array([[0.3], [0.95]]))
        assert scores.shape == (2,)
        assert np.all(scores >= 0)


# ---------------------------------------------------------------- KPCA
class TestKPCA:
    def _X(self, n=30, d=5, seed=0):
        return np.random.default_rng(seed).random((n, d))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fit_transform_shapes(self, kernel):
        X = self._X()
        kp = KernelPCA(3, kernel=kernel).fit(X)
        Z = kp.transform(X)
        assert Z.shape == (30, 3)
        assert np.all(np.diff(kp.eigenvalues_) <= 1e-9)  # descending

    def test_explained_ratio_monotone(self):
        kp = KernelPCA(4).fit(self._X())
        r = kp.explained_ratio()
        assert np.all(np.diff(r) >= 0)
        assert 0 < r[-1] <= 1.0 + 1e-9

    def test_gaussian_preimage_roundtrip_reasonable(self):
        X = self._X(n=40, d=4, seed=1)
        kp = KernelPCA(3).fit(X)
        Xi = kp.inverse_transform(kp.transform(X[:10]))
        assert Xi.shape == (10, 4)
        assert np.all((Xi >= 0) & (Xi <= 1))
        assert np.abs(Xi - X[:10]).mean() < 0.15

    def test_preimage_better_than_mean_baseline(self):
        X = self._X(n=40, d=4, seed=2)
        kp = KernelPCA(3).fit(X)
        Xi = kp.inverse_transform(kp.transform(X))
        err = np.abs(Xi - X).mean()
        base = np.abs(X.mean(axis=0)[None, :] - X).mean()
        assert err < base

    def test_latent_bounds_contain_projections(self):
        X = self._X()
        kp = KernelPCA(3).fit(X)
        lo, hi = kp.latent_bounds()
        Z = kp.transform(X)
        assert np.all(Z >= lo - 1e-9) and np.all(Z <= hi + 1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            KernelPCA(0)
        with pytest.raises(ValueError):
            KernelPCA(2, kernel="nope")
        with pytest.raises(RuntimeError):
            KernelPCA(2).transform(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            KernelPCA(2).fit(np.zeros((1, 3)))

    def test_caps_components_at_positive_eigenvalues(self):
        X = np.vstack([self._X(4, 3, 3)] * 2)  # rank-deficient
        kp = KernelPCA(10).fit(X)
        assert kp.alphas_.shape[1] <= 8
