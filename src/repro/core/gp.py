"""Gaussian Process regression — the surrogate model of LOCAT's BO.

Pure-numpy GP with an ARD squared-exponential (RBF) kernel and Gaussian
observation noise (paper eq. 8–10: zero-mean prior, normal likelihood,
closed-form posterior). Hyperparameters are *not* point-optimized here:
LOCAT marginalizes them with MCMC inside the acquisition function
(EI-MCMC, see :mod:`repro.core.acquisition`), exactly as Snoek et al.'s
Spearmint does, so the likelihood runs once per Metropolis–Hastings
proposal.

Each kernel is factored once, *bordered* by the targets: one Cholesky
factorization of ``[[K, y], [yᵀ, c]]`` yields ``L`` (``K = L Lᵀ``) in its
top-left block and ``z = L⁻¹y`` in its last row, so neither the
likelihood (``-½ zᵀz − Σ log Lᵢᵢ − ½ n log 2π``) nor the posterior mean
(``(L⁻¹K*)ᵀ z``) needs a further solve against ``y``. The corner
``c = yᵀy / (σ²ₙ + jitter) + 1`` exceeds ``yᵀK⁻¹y`` because
``K ⪰ (σ²ₙ + jitter) I``, so the bordered matrix factors exactly when
``K`` does.

Targets are standardized internally so kernel amplitude priors are
scale-free; posteriors are reported back in the original units.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Hyper", "GP", "log_marginal_likelihood"]

_JITTER = 1e-8


@dataclass(frozen=True)
class Hyper:
    """GP hyperparameters: ARD lengthscales, signal variance, noise variance."""

    lengthscales: np.ndarray  # (d,) positive
    signal_var: float
    noise_var: float

    def as_log_vector(self) -> np.ndarray:
        return np.concatenate(
            [np.log(self.lengthscales), [np.log(self.signal_var), np.log(self.noise_var)]]
        )

    @staticmethod
    def from_log_vector(v: np.ndarray) -> "Hyper":
        v = np.asarray(v, dtype=float)
        return Hyper(np.exp(v[:-2]), float(np.exp(v[-2])), float(np.exp(v[-1])))


def rbf_kernel(A: np.ndarray, B: np.ndarray, hyper: Hyper, *, out: np.ndarray | None = None) -> np.ndarray:
    """ARD RBF kernel matrix K(A, B), built in place (in ``out`` if given)."""
    A = A / hyper.lengthscales
    B = B / hyper.lengthscales
    aa = np.sum(A * A, axis=1)
    bb = np.sum(B * B, axis=1)
    K = np.add(aa[:, None], bb[None, :], out=out)
    K -= 2.0 * A @ B.T  # squared ARD distance, clamped at 0 below
    np.maximum(K, 0.0, out=K)
    K *= -0.5
    np.exp(K, out=K)
    K *= hyper.signal_var
    return K


def _bordered_kernel(X: np.ndarray, y: np.ndarray, hyper: Hyper) -> np.ndarray:
    """``[[K, y], [yᵀ, c]]`` with ``K = rbf_kernel(X, X) + (noise + jitter) I``.

    For ``noise_var > 0`` the corner ``c`` leaves a Schur complement
    ``c − yᵀK⁻¹y ≥ 1``, so only ``K`` can make the factorization fail.
    """
    n = len(y)
    M = np.empty((n + 1, n + 1))
    rbf_kernel(X, X, hyper, out=M[:n, :n])
    noise = hyper.noise_var + _JITTER
    M.reshape(-1)[: n * (n + 2) : n + 2] += noise  # diagonal of K
    M[n, :n] = y
    M[:n, n] = y
    M[n, n] = y @ y / noise + 1.0
    return M


def _bordered_cholesky(X: np.ndarray, y: np.ndarray, hyper: Hyper) -> tuple[np.ndarray, np.ndarray]:
    """``(L, z)`` with ``K = L Lᵀ`` and ``z = L⁻¹y``, from one factorization.

    Raises ``np.linalg.LinAlgError`` when ``K`` does not factor.
    """
    n = len(y)
    F = np.linalg.cholesky(_bordered_kernel(X, y, hyper))
    return F[:n, :n], F[n, :n]


def _lml(L: np.ndarray, z: np.ndarray) -> float:
    return float(-0.5 * z @ z - np.sum(np.log(np.diag(L))) - 0.5 * len(z) * np.log(2.0 * np.pi))


def log_marginal_likelihood(X: np.ndarray, y: np.ndarray, hyper: Hyper) -> float:
    """Log p(y | X, hyper) under the zero-mean GP prior.

    Returns ``-inf`` for numerically unfactorizable kernels so MCMC simply
    rejects those hyperparameter proposals.
    """
    try:
        L, z = _bordered_cholesky(X, y, hyper)
    except np.linalg.LinAlgError:
        return -np.inf
    return _lml(L, z)


class GP:
    """A fitted GP posterior for one fixed hyperparameter setting.

    ``X`` is an ``(n, d)`` input matrix (normalized configurations, plus
    the data-size coordinate for DAGP) and ``y`` the observed execution
    times. ``predict`` returns the posterior mean and variance of eq. 10.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, hyper: Hyper):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
            raise ValueError("X must be (n, d) and y (n,)")
        self.X = X
        self.hyper = hyper
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        self._yn = (y - self._y_mean) / self._y_std
        self._L, self._z = _bordered_cholesky(X, self._yn, hyper)

    def predict(self, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at rows of ``Xs`` (original units)."""
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        Ks = rbf_kernel(self.X, Xs, self.hyper)  # (n, m)
        v = np.linalg.solve(self._L, Ks)
        mu_n = v.T @ self._z
        var_n = self.hyper.signal_var - np.sum(v * v, axis=0)
        var_n = np.maximum(var_n, 1e-12)
        mu = mu_n * self._y_std + self._y_mean
        var = var_n * self._y_std**2
        return mu, var

    def log_marginal_likelihood(self) -> float:
        return _lml(self._L, self._z)
