"""Kernel functions, design matrices and GP covariance construction.

Everything here is a pure function of its arguments.  Kernels are described
by an immutable :class:`KernelSpec`; the same spec type serves both the
regression basis (columns of the design matrix) and the covariance of the
latent log-variance process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _check_int

__all__ = [
    "KernelSpec",
    "DesignMatrix",
    "GpNoisePrior",
    "kernel_matrix",
    "build_design_matrix",
    "design_matrix_at",
    "gp_covariance",
    "cross_covariance",
]

_FAMILIES = ("rbf", "linear", "polynomial")
_TINY = np.finfo(float).tiny  # the smallest normal float


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its hyperparameters.

    ``signal_variance`` only matters when the spec is used as a GP
    covariance (it is ignored for design-matrix columns, matching the
    usual RVM convention of unscaled basis functions).
    """

    family: str = "rbf"
    lengthscale: float = 1.0
    degree: int = 3
    include_bias: bool = True
    signal_variance: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        # the rbf kernel divides by lengthscale**2, which must neither
        # overflow nor underflow to zero
        ls = self.lengthscale
        if not (ls > 0 and _TINY <= ls * ls < np.inf):
            raise ValueError("lengthscale must be positive and finite, "
                             "and so must its square")
        _check_int(self.degree, "degree", 1)
        if not (np.isfinite(self.signal_variance) and self.signal_variance > 0):
            raise ValueError("signal_variance must be positive and finite")


@dataclass(frozen=True)
class DesignMatrix:
    """Basis-function evaluations at the training inputs.

    ``values`` is N x M; column 0 is the bias column when the kernel
    includes a bias, the remaining columns are the kernel centred at each
    row of ``centers`` (the training inputs, in order).
    """

    values: np.ndarray
    centers: np.ndarray

    @property
    def n_basis(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class GpNoisePrior:
    """Prior for the latent log-variance process: constant mean ``mu0``
    and covariance ``signal_variance * k(x, x') + jitter`` on the diagonal."""

    mu0: float
    kernel: KernelSpec
    jitter: float = 1e-6

    def __post_init__(self):
        if not (np.isfinite(self.jitter) and self.jitter > 0):
            raise ValueError("jitter must be positive and finite")


def kernel_matrix(kernel: KernelSpec, X, X2=None) -> np.ndarray:
    """Pairwise kernel values between rows of X and X2 (unscaled)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    X2 = X if X2 is None else np.atleast_2d(np.asarray(X2, dtype=float))
    if X.shape[1] != X2.shape[1]:
        raise ValueError("input dimensionalities differ")
    if kernel.family == "rbf":
        d2 = _sqdist(X, X2)
        return np.exp(-0.5 * d2 / kernel.lengthscale**2)
    if kernel.family == "linear":
        return X @ X2.T
    # polynomial
    return (1.0 + X @ X2.T) ** int(kernel.degree)


def _sqdist(X, X2):
    """Squared Euclidean distances, clipped at zero against round-off."""
    n2a = np.sum(X**2, axis=1)[:, None]
    n2b = np.sum(X2**2, axis=1)[None, :]
    return np.maximum(n2a + n2b - 2.0 * X @ X2.T, 0.0)


def build_design_matrix(X, kernel: KernelSpec) -> DesignMatrix:
    """Basis matrix with one kernel column per training input, plus an
    optional leading bias column of ones."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return DesignMatrix(design_matrix_at(X, kernel, X), X.copy())


def design_matrix_at(Xstar, kernel: KernelSpec, centers,
                     active_columns=None) -> np.ndarray:
    """Evaluate the basis at new inputs, restricted to ``active_columns``
    (indices into the full design matrix, bias = column 0 when present).
    Non-finite inputs raise ``ValueError``."""
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    if not np.all(np.isfinite(Xstar)):
        raise ValueError("non-finite prediction input")
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    K = kernel_matrix(kernel, Xstar, centers)
    if kernel.include_bias:
        K = np.hstack([np.ones((Xstar.shape[0], 1)), K])
    if active_columns is None:
        return K
    return K[:, np.asarray(active_columns, dtype=int)]


def gp_covariance(X, prior: GpNoisePrior) -> np.ndarray:
    """Covariance of the log-variance process at the rows of X:
    signal_variance * k + jitter on the diagonal.  Symmetric PD."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    K = prior.kernel.signal_variance * kernel_matrix(prior.kernel, X, X)
    K[np.diag_indices_from(K)] += prior.jitter
    return 0.5 * (K + K.T)


def cross_covariance(Xstar, X, prior: GpNoisePrior) -> np.ndarray:
    """Covariance between the log-variance process at new and training
    inputs (no jitter: off-diagonal blocks only)."""
    return prior.kernel.signal_variance * kernel_matrix(prior.kernel, Xstar, X)
