"""Shared numerical kernels.

Cholesky factors of positive-definite matrices and solves with them,
Gaussian KL divergence and Gauss-Hermite quadrature against the standard
normal weight.  All heavier routines route through Cholesky
factorizations; nothing here forms an explicit inverse.

The factorization and the two solves call the LAPACK routines that
``scipy.linalg.cholesky``, ``cho_solve`` and ``solve_triangular`` call
(``dpotrf``, ``dpotrs``, ``dtrtrs``), with the same arguments, so they
return the same bits.  The trainers factor m x m weight precisions, m
around 10, thousands of times per fit, and at that size the wrappers'
argument handling costs several times the factorization.
:func:`chol_factor` is the only Cholesky entry point; the trainers call
it through their own module's name for it.  The noise-GP prior
covariance is split by ``vi._split_prior``'s pivoted Cholesky, one
kernel column per step, and is never factored whole.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

_TINY = np.finfo(float).tiny  # the smallest normal float

__all__ = [
    "FactorizationError",
    "Quadrature",
    "chol_factor",
    "chol_solve",
    "lower_solve",
    "gauss_kl",
    "gauss_hermite",
]


class FactorizationError(ValueError):
    """Cholesky failure on a matrix that was required to be PD.

    ``pivot`` is the 1-based index of the leading minor that failed.
    """

    def __init__(self, message: str, pivot: int = -1):
        super().__init__(message)
        self.pivot = pivot


@dataclass(frozen=True)
class Quadrature:
    """Nodes/weights integrating f against the standard normal density:
    E[f(Z)] ~= sum_i weights[i] * f(nodes[i]),  Z ~ N(0, 1)."""

    nodes: np.ndarray
    weights: np.ndarray


def _check_int(value, name, minimum, error=ValueError):
    """Reject a count, order or seed that is not an integer (a bool
    included) or is below ``minimum``, raising ``error``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer")
    if value < minimum:
        raise error(f"{name} must be at least {minimum}")


def _is_number(value) -> bool:
    """Whether ``value`` is a real number and not a bool: for a loaded
    document, a JSON number."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_float(value):
    """A number (:func:`_is_number`) as a float, or None where ``value``
    is not one or is an integer beyond the float range."""
    try:
        return float(value) if _is_number(value) else None
    except OverflowError:
        return None


def _square_in_range(value) -> bool:
    """The rule for a length or scale that is squared and then divided by
    or logged: a positive number whose square neither overflows nor falls
    below the smallest normal float."""
    value = _as_float(value)
    return (value is not None and value > 0
            and _TINY <= value * value < math.inf)


def chol_factor(A, name: str = "matrix"):
    """Lower Cholesky factor of a symmetric PD matrix.

    Symmetry is required within 1e-10 (relative to the largest entry).
    A non-finite entry raises :class:`FactorizationError` (pivot -1), and
    so does non-PD input, with the failing pivot.  The factor is
    Fortran-ordered with a zero upper triangle.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square")
    if A.size == 0:
        return np.empty((0, 0))
    peak = float(np.abs(A).max())
    if not math.isfinite(peak):
        raise FactorizationError(f"{name} has a non-finite entry")
    # A - A^T is antisymmetric, so its largest entry is its largest |entry|
    if (A - A.T).max() > 1e-10 * max(1.0, peak):
        raise ValueError(f"{name} is not symmetric within tolerance")
    L, info = dpotrf(A, lower=1)
    if info:
        raise FactorizationError(
            f"{name} is not positive definite (pivot {info})", info)
    return L


def chol_solve(L, b):
    """Solve (L L^T) x = b for a vector or matrix b, given the lower
    factor L from :func:`chol_factor`."""
    if b.size == 0:
        return np.empty(b.shape)
    return dpotrs(L, b, lower=1)[0]


def lower_solve(L, b):
    """Solve L x = b for lower-triangular L with a nonzero diagonal.  A
    factor that is not Fortran-ordered is passed to LAPACK as its
    transpose, an upper triangle solved transposed, which is what
    ``scipy.linalg.solve_triangular`` does."""
    if b.size == 0:
        return np.empty(b.shape)
    if L.flags.f_contiguous:
        x, info = dtrtrs(L, b, lower=1)
    else:
        x, info = dtrtrs(L.T, b, lower=0, trans=1)
    if info:
        raise FactorizationError(f"zero on the diagonal (pivot {info})", info)
    return x


def gauss_kl(mu_q, Sigma_q, mu_p, Sigma_p) -> float:
    """KL( N(mu_q, Sigma_q) || N(mu_p, Sigma_p) ) for full covariances."""
    mu_q = np.asarray(mu_q, dtype=float).ravel()
    mu_p = np.asarray(mu_p, dtype=float).ravel()
    Sigma_q = np.asarray(Sigma_q, dtype=float)
    Sigma_p = np.asarray(Sigma_p, dtype=float)
    n = mu_q.size
    if mu_p.size != n or Sigma_q.shape != (n, n) or Sigma_p.shape != (n, n):
        raise ValueError("dimension mismatch in gauss_kl")
    Lq = chol_factor(Sigma_q, "Sigma_q")
    Lp = chol_factor(Sigma_p, "Sigma_p")
    logdet_q = 2.0 * np.sum(np.log(np.diag(Lq)))
    logdet_p = 2.0 * np.sum(np.log(np.diag(Lp)))
    # tr(Sigma_p^-1 Sigma_q) = || Lp^-1 Lq ||_F^2
    M = lower_solve(Lp, Lq)
    trace = float(np.sum(M**2))
    d = mu_p - mu_q
    v = lower_solve(Lp, d)
    quad = float(v @ v)
    kl = 0.5 * (trace + quad - n + logdet_p - logdet_q)
    if kl < -1e-10:
        raise ValueError(f"negative KL ({kl}); covariance inputs inconsistent")
    return max(kl, 0.0)


def gauss_hermite(n: int) -> Quadrature:
    """Gauss-Hermite rule of order n for the standard normal weight.

    Exact for polynomials up to degree 2n - 1 in E[f(Z)], Z ~ N(0,1).
    The rule for each order is built once per process and the same
    :class:`Quadrature` is returned on every later call; its ``nodes``
    and ``weights`` arrays are read-only, so a caller cannot alter the
    rule that every other caller shares.
    """
    if not (1 <= int(n) <= 128):
        raise ValueError("quadrature order must be in [1, 128]")
    return _gauss_hermite_rule(int(n))


@lru_cache(maxsize=None)
def _gauss_hermite_rule(n: int) -> Quadrature:
    nodes, weights = np.polynomial.hermite_e.hermegauss(n)
    weights = weights / np.sqrt(2.0 * np.pi)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return Quadrature(nodes=nodes, weights=weights)
