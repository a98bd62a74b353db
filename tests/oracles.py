"""Dense reference computations the tests check the package against.

They use numpy and scipy alone and call no code of the package, so they
stay independent of what they check: the dense q(g) covariance that the
low-rank routine ``vi._q_cov`` must reproduce, a split of a hand-built
prior covariance for it (filled into the package's container
``vi._PriorCov``, without its pivoted split), the expected
log-likelihood under q(g), a column's sparsity and quality from a dense
covariance, and a central-difference gradient checker.
"""

import numpy as np
import scipy.linalg as sla

from hetrvm.vi import _PriorCov


def prior_cov(K, jitter=0.0):
    """A dense prior covariance K in the split form ``vi._q_cov`` takes,
    K = jitter I + F F^T, by an eigendecomposition: F = U (w - jitter)^1/2
    over the eigenpairs (w, U) whose eigenvalue exceeds the jitter by
    more than N eps max(w), every other eigenvalue taken as the jitter."""
    K = np.asarray(K, dtype=float)
    w, U = np.linalg.eigh(K)
    keep = w - jitter > K.shape[0] * np.finfo(float).eps * w[-1]
    return _PriorCov(float(jitter), U[:, keep] * np.sqrt(w[keep] - jitter))


def reduced_cov(lam, K):
    """Sigma = (K^-1 + diag(lam))^-1 = K - K Lam^1/2 B^-1 Lam^1/2 K and
    the Cholesky factor of B = I + Lam^1/2 K Lam^1/2, all N x N."""
    root = np.sqrt(lam)
    B = np.eye(lam.size) + root[:, None] * K * root[None, :]
    LB = sla.cholesky(B, lower=True)
    V = sla.solve_triangular(LB, root[:, None] * K, lower=True)
    Sigma = K - V.T @ V
    return 0.5 * (Sigma + Sigma.T), LB


def expected_loglik(y, w, Phi, mu, Sigma) -> float:
    """E_{g ~ N(mu, Sigma)} log p(y | w, g) where the per-point noise
    variance is exp(g_n).  Equals log N(y | Phi w, R) - tr(Sigma)/4 with
    R = diag(exp(mu - diag(Sigma)/2))."""
    y = np.asarray(y, dtype=float).ravel()
    Phi = np.asarray(Phi, dtype=float)
    f = Phi @ np.asarray(w, dtype=float).ravel()
    sd = np.diag(np.asarray(Sigma, dtype=float))
    r = np.exp(np.asarray(mu, dtype=float).ravel() - 0.5 * sd)
    ll = -0.5 * (y.size * np.log(2 * np.pi) + np.sum(np.log(r))
                 + np.sum((y - f) ** 2 / r))
    return float(ll - 0.25 * np.sum(sd))


def dense_sparsity_quality(Phi_a, alpha, r, y, j):
    """(s_j, q_j) from a dense Cholesky of C_-j = diag(r) +
    sum_{i != j} phi_i phi_i^T / alpha_i."""
    C = np.diag(r)
    for i in range(alpha.size):
        if i != j:
            C = C + np.outer(Phi_a[:, i], Phi_a[:, i]) / alpha[i]
    u = sla.cho_solve(sla.cho_factor(C, lower=True), Phi_a[:, j])
    return Phi_a[:, j] @ u, u @ y


def grad_check(f, grad, x) -> float:
    """Max relative error between an analytic gradient and central
    differences with per-coordinate step h_i = 1e-5 * (1 + |x_i|)."""
    x = np.asarray(x, dtype=float).ravel()
    g = np.asarray(grad(x), dtype=float).ravel()
    worst = 0.0
    for i in range(x.size):
        h = 1e-5 * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fp, fm = float(f(xp)), float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite objective at coordinate {i}")
        num = (fp - fm) / (2.0 * h)
        err = abs(g[i] - num) / max(1.0, abs(g[i]), abs(num))
        worst = max(worst, err)
    return worst
