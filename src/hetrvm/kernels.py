"""Kernel functions, design matrices and GP covariance construction.

Everything here is a pure function of its arguments and returns plain
arrays.  The regression basis (columns of the design matrix) is
described by an immutable :class:`KernelSpec`, and the prior of the
latent log-variance process, always an rbf, by :class:`GpNoisePrior`.
Both apply one lengthscale rule, and every rbf value comes from one
routine, :func:`_rbf`.  :func:`_split_prior` splits the noise prior's
covariance at the training inputs into its jitter and a low-rank part,
the form in which the trainers and ``predict`` read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (FactorizationError, _PriorCov, _as_float,
                       _check_int, _square_in_range)

__all__ = [
    "KernelSpec",
    "GpNoisePrior",
    "kernel_matrix",
    "build_design_matrix",
    "design_matrix_at",
    "gp_covariance",
    "cross_covariance",
]

_FAMILIES = ("rbf", "linear", "polynomial")


def _check_lengthscale(ls):
    """Every kernel's lengthscale rule: a number, not a bool, that is
    positive, and whose square, which the rbf divides by, neither
    overflows nor underflows to zero (``numerics._square_in_range``)."""
    if not _square_in_range(ls):
        raise ValueError("lengthscale must be positive and finite, "
                         "and so must its square")


@dataclass(frozen=True)
class KernelSpec:
    """The regression basis: kernel family, its hyperparameters, and
    whether a bias column of ones leads the design matrix.

    The kernel is unscaled: design-matrix columns follow the usual RVM
    convention of unscaled basis functions.
    """

    family: str = "rbf"
    lengthscale: float = 1.0
    degree: int = 3
    include_bias: bool = True

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        _check_lengthscale(self.lengthscale)
        _check_int(self.degree, "degree", 1)
        if not isinstance(self.include_bias, bool):
            raise ValueError("include_bias must be a bool")


@dataclass(frozen=True)
class GpNoisePrior:
    """Prior for the latent log-variance process: constant mean ``mu0``
    and covariance ``signal_variance * exp(-|x - x'|^2 / (2
    lengthscale^2))``, plus ``jitter`` on the diagonal."""

    mu0: float
    lengthscale: float = 1.0
    signal_variance: float = 1.0
    jitter: float = 1e-6

    def __post_init__(self):
        _check_lengthscale(self.lengthscale)
        for name in ("mu0", "signal_variance", "jitter"):
            value = _as_float(getattr(self, name))
            if not (value is not None and math.isfinite(value)
                    and (name == "mu0" or value > 0)):
                raise ValueError(f"{name} must be finite"
                                 + ("" if name == "mu0" else " and positive"))


def kernel_matrix(kernel: KernelSpec, X, X2) -> np.ndarray:
    """Pairwise kernel values between rows of X and X2 (unscaled)."""
    X, X2 = (np.atleast_2d(np.asarray(A, dtype=float)) for A in (X, X2))
    if X.shape[1] != X2.shape[1]:
        raise ValueError("input dimensionalities differ")
    if kernel.family == "rbf":
        return _kernel_values(kernel, _sqdist(X, X2))
    return _kernel_values(kernel, _inner(X, X2))


def _rbf(D, lengthscale) -> np.ndarray:
    """The unscaled rbf exp(-D / (2 lengthscale^2)), computed in place in
    the squared distances ``D``."""
    D *= -0.5
    D /= lengthscale**2
    return np.exp(D, out=D)


def _kernel_values(kernel: KernelSpec, A) -> np.ndarray:
    """The kernel, computed in place in ``A`` from what its family reads:
    squared distances for rbf, inner products for linear and polynomial."""
    if kernel.family == "rbf":
        return _rbf(A, kernel.lengthscale)
    if kernel.family == "polynomial":
        A += 1.0
        A **= int(kernel.degree)
    return A


def _sqnorms(X):
    """Squared Euclidean norms of the rows of X."""
    # np.add.reduce is np.sum without its dispatch, a microsecond per call
    # that every single-point query pays
    return np.add.reduce(X**2, 1)


def _inner(A, B):
    """The inner products A B^T of the rows of A and B, in a new array.

    With one input column, which every 1-D problem has, A @ B.T is a K=1
    GEMM: with alpha 1 and beta 0 it rounds each product a*b once, as the
    broadcast product A * B.T does, and costs more (53 us against 33 us
    for one 320 x 100 block of ``predict``, 2-core x86, one BLAS thread).
    So one column takes the broadcast product.  The two can differ only
    in the sign of an exact zero, which no squared distance and no sum
    with a nonzero term passes on.  Several columns keep the GEMM: their
    inner products are sums, which a broadcast product does not form."""
    if A.shape[1] == 1 == B.shape[1]:
        return A * B.T
    return A @ B.T


def _sqdist(X, X2):
    """Squared Euclidean distances between the rows of X and X2.  The
    cross term 2 X X2^T comes from :func:`_inner`, as a broadcast product
    with one input column and a GEMM with several."""
    return _sqdist_from(_sqnorms(X), _sqnorms(X2), _inner(2.0 * X, X2))


def _sqdist_from(x_sq, x2_sq, cross):
    """Squared distances |x|^2 + |x2|^2 - 2 x.x2 from the squared norms and
    the doubled inner products ``cross``, clipped at zero against
    round-off, in a new array."""
    D = x_sq[:, None] + x2_sq[None, :]
    D -= cross
    return np.maximum(D, 0.0, out=D)


def build_design_matrix(X, kernel: KernelSpec) -> np.ndarray:
    """The N x M basis matrix at the training inputs X: column 0 is a
    bias column of ones when the kernel includes a bias, and the other
    columns are the kernel centred at each row of X, in order."""
    return design_matrix_at(X, kernel, X)


def design_matrix_at(Xstar, kernel: KernelSpec, centers) -> np.ndarray:
    """The basis at new inputs: the bias column of ones when the kernel
    includes a bias, then the kernel centred at each of ``centers``.
    Non-finite inputs raise ``ValueError``."""
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    if not np.isfinite(Xstar).all():
        raise ValueError("non-finite prediction input")
    K = kernel_matrix(kernel, Xstar, centers)
    if kernel.include_bias:
        K = np.hstack([np.ones((Xstar.shape[0], 1)), K])
    return K


def gp_covariance(X, prior: GpNoisePrior) -> np.ndarray:
    """Covariance of the log-variance process at the rows of X:
    signal_variance * k + jitter on the diagonal.  Symmetric PD."""
    K = cross_covariance(X, X, prior)
    K[np.diag_indices_from(K)] += prior.jitter
    return 0.5 * (K + K.T)


def cross_covariance(Xstar, X, prior: GpNoisePrior) -> np.ndarray:
    """Covariance between the log-variance process at new and training
    inputs (no jitter: off-diagonal blocks only).  Inputs of different
    widths raise ``ValueError``."""
    Xstar, X = (np.atleast_2d(np.asarray(A, dtype=float)) for A in (Xstar, X))
    K = _rbf(_sqdist(Xstar, X), prior.lengthscale)
    K *= prior.signal_variance
    return K


def _split_prior(X, prior: GpNoisePrior):
    """K = jitter I + F F^T for the noise-GP prior covariance K at the
    rows of X, by a greedy pivoted Cholesky of K - jitter I that never
    forms K (Fine & Scheinberg, JMLR 2001): each step takes the kernel
    column at the largest residual diagonal, less the columns so far,
    until that diagonal (which bounds every residual entry) is at most
    N eps sigma_v^2.  The prior is an rbf, so the diagonal of K - jitter I
    starts at sigma_v^2.  A value not finite raises FactorizationError.
    Returns the ``numerics._PriorCov``."""
    n, sv = X.shape[0], prior.signal_variance
    d = np.full(n, sv)              # residual diagonal of the rbf part
    Ft = np.empty((min(n, 32), n))  # rows: F's columns, grown by doubling
    for r in range(n + 1):
        i = int(np.argmax(d))
        if r == n or d[i] <= n * np.finfo(float).eps * sv:
            break
        if r == len(Ft):
            Ft = np.concatenate([Ft, np.empty((min(r, n - r), n))])
        col = cross_covariance(X[i:i + 1], X, prior)[0] - Ft[:r, i] @ Ft[:r]
        if not (np.isfinite(d[i]) and np.all(np.isfinite(col))):
            raise FactorizationError(f"noise prior: column {i} not finite")
        Ft[r] = col / np.sqrt(d[i])
        d -= Ft[r] ** 2
    return _PriorCov(float(prior.jitter), Ft[:r].T)
