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
:func:`chol_factor` is the only Cholesky entry point, and only this
module calls it: the two routines that factor are here, :func:`_factor`
for the trainers' m x m weight precision and :func:`_q_cov` for q(g)'s
covariance under the split noise-GP prior.  That prior covariance is
split by ``kernels._split_prior``'s pivoted Cholesky, one kernel column
per step, and is never factored whole.

:func:`_q_cov` gives Sigma = (K^-1 + diag(lam))^-1 for site precisions
lam under the split K = j I + F F^T (:class:`_PriorCov`) by Woodbury on
B = I + Lam^1/2 K Lam^1/2 (Rasmussen & Williams 2006, sec. 3.6),
factoring only an r x r matrix: diag(Sigma), Sigma x, (Sigma o Sigma) w
and log|B| in O(N r^2).  VI's bound, EP's refresh and ``predict`` all
read q(g) through it, so no fit, prediction or model load forms an
N x N matrix of the noise GP.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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


def _factor(G, alpha):
    """The factor step: the Cholesky factor L of the weight precision
    H = diag(alpha) + G (0 x 0 for an empty active set)."""
    H = G.copy()
    H.reshape(-1)[::H.shape[0] + 1] += alpha  # diag(alpha) + G
    return chol_factor(H, "weight precision")


class _PriorCov(NamedTuple):
    """The noise-GP prior covariance K at the training inputs in its split
    K = jitter I + F F^T, F of N x r (``kernels._split_prior``)."""

    jitter: float
    F: np.ndarray

    def mv(self, x):
        """K x through the split, in O(N r)."""
        return self.jitter * x + self.F @ (self.F.T @ x)


class _QCov(NamedTuple):
    """q(g)'s covariance Sigma = (K^-1 + diag(lam))^-1 in the factored
    form Sigma = diag(jd) + Y^T Y of :func:`_q_cov`."""

    jd: np.ndarray         # j / d, d = 1 + j lam
    Y: np.ndarray          # r x N
    diag: np.ndarray       # diag(Sigma)
    logdet_B: float        # log|I + Lam^1/2 K Lam^1/2|

    def mul(self, x):
        """Sigma x, in O(N r)."""
        return self.jd * x + self.Y.T @ (self.Y @ x)

    def sq_mul(self, w):
        """(Sigma o Sigma) w, o the elementwise product, in O(N r^2) as
        w jd (jd + 2 diag Y^T Y) + colsum(Y o (Y diag(w) Y^T Y))."""
        Y, jd = self.Y, self.jd
        t = 2.0 * self.diag
        t -= jd
        out = w * jd
        out *= t
        out += np.einsum("ij,ij->j", Y, ((Y * w) @ Y.T) @ Y)
        return out


def _q_cov(lam, cov):
    """Sigma = (K^-1 + diag(lam))^-1 for site precisions lam >= 0 under the
    split prior ``cov`` (K = j I + F F^T), by Woodbury on
    B = I + Lam^1/2 K Lam^1/2: with d = 1 + j lam and
    Omega = F^T diag(lam/d) F, Sigma = diag(j/d) + Y^T Y for
    Y = L^-1 (F/d)^T, L L^T = I + Omega, and
    log|B| = sum log d + log|I + Omega|.  Only the r x r matrix I + Omega
    is factored: O(N r^2).  Returns the :class:`_QCov`."""
    jitter, Ft = cov.jitter, cov.F.T
    d = jitter * lam
    d += 1.0
    root = lam / d
    Gt = Ft * np.sqrt(root, out=root)  # G^T
    A = Gt @ Gt.T
    A.reshape(-1)[::A.shape[0] + 1] += 1.0  # I + Omega
    L = chol_factor(A, "reduced system")
    Y = lower_solve(L, Ft / d)
    jd = jitter / d
    diag = np.einsum("ij,ij->j", Y, Y)
    diag += jd
    return _QCov(jd, Y, diag, float(np.log(d, out=d).sum()
                                    + 2.0 * np.log(L.diagonal()).sum()))


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
