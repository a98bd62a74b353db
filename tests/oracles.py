"""Dense reference computations the tests check the package against.

They use numpy and scipy alone and call no code of the package, so they
stay independent of what they check: the dense q(g) covariance that the
low-rank routine ``vi._q_cov`` must reproduce, a split of a hand-built
prior covariance for it (filled into the package's container
``vi._PriorCov``, without its pivoted split), the expected
log-likelihood under q(g), a column's sparsity and quality from a dense
covariance, and a central-difference gradient checker.

The ``*_formula`` routines below write out, once each and in their order
of operations, the formulas of VI's bound evaluation and basis selection
that the package computes in fewer numpy calls.  They call the LAPACK
routines through scipy's wrappers, which pass the arguments that
``hetrvm.numerics`` passes, so the package must reproduce their bits.
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


def sigmoid_two_branch(x):
    """The logistic function by two masked branches: 1 / (1 + exp(-x))
    where x >= 0 and e / (1 + e), e = exp(x), elsewhere (nan included)."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def q_cov_formula(lam, cov):
    """``vi._q_cov``'s (j/d, Y, diag(Sigma), log|B|) under the split prior
    ``cov``: d = 1 + j lam, G = F (lam/d)^1/2, L L^T = I + G^T G and
    Y = L^-1 (F/d)^T."""
    d = 1.0 + cov.jitter * lam
    G = cov.F * np.sqrt(lam / d)[:, None]
    L = sla.cholesky(np.eye(G.shape[1]) + G.T @ G, lower=True)
    Y = sla.solve_triangular(L, (cov.F / d[:, None]).T, lower=True)
    jd = cov.jitter / d
    return (jd, Y, jd + np.einsum("ij,ij->j", Y, Y),
            float(np.sum(np.log(d)) + 2.0 * np.sum(np.log(L.diagonal()))))


def q_point_formula(lam, mu0, cov):
    """``vi._q_point``'s (mu, Kv, r, tr(Sigma)/4, KL) with v = lam - 1/2:
    mu = K v + mu0, r = exp(mu - diag(Sigma)/2) clipped at +-700 in the
    exponent, and KL = (log|B| - lam^T diag(Sigma) + v^T K v)/2."""
    _, _, sdiag, logdet_B = q_cov_formula(lam, cov)
    v = lam - 0.5
    Kv = cov.jitter * v + cov.F @ (cov.F.T @ v)
    mu = Kv + mu0
    r = np.exp(np.clip(mu - 0.5 * sdiag, -700.0, 700.0))
    kl = 0.5 * (logdet_B - float(lam @ sdiag) + float(v @ Kv))
    return mu, Kv, r, 0.25 * float(np.sum(sdiag)), kl


def bound_formula(x, cov, Phi_a, alpha, y):
    """``vi._bound_value_grad``'s bound and gradient at x = [eta, mu0],
    through the m x m weight precision H = diag(alpha) + Phi^T R^-1 Phi
    and the r x r system of :func:`q_cov_formula`."""
    n = y.size
    lam = np.clip(0.5 * sigmoid_two_branch(x[:n]), 1e-12, 0.5 - 1e-12)
    jd, Y, sdiag, _ = q_cov_formula(lam, cov)
    _, Kv, r, trq, kl = q_point_formula(lam, x[n], cov)
    Phir = Phi_a / r[:, None]
    L = sla.cholesky(np.diag(alpha) + Phi_a.T @ Phir, lower=True)
    vb = sla.solve_triangular(L, Phir.T @ y, lower=True)
    logdet = np.sum(np.log(r)) + (2.0 * np.log(L.diagonal()).sum()
                                  - np.log(alpha).sum())
    quad = y @ (y / r) - vb @ vb
    f1 = float(-0.5 * (n * np.log(2 * np.pi) + logdet + quad))
    W = sla.solve_triangular(L, Phir.T, lower=True)
    beta = y / r - W.T @ vb
    u = 0.5 * (beta**2 - (1.0 / r - np.sum(W**2, axis=0))) * r
    w = -(-0.5 * u - 0.25 + 0.5 * lam)
    sq = (w * jd * (2.0 * sdiag - jd)
          + np.einsum("ij,ij->j", Y, ((Y * w) @ Y.T) @ Y))
    g_lam = (cov.jitter * u + cov.F @ (cov.F.T @ u)) + sq - Kv
    grad = np.append(g_lam * lam * (1.0 - 2.0 * lam), np.sum(u))
    return f1 - trq - kl, grad


def actions_formula(s, q, a_old):
    """``vi._actions``: a_new = s^2 / (q^2 - s), inf where q^2 - s is not
    positive, and the gain l(a_new) - l(a_old) with
    l(a) = (q^2 / (a + s) - log(1 + s / a)) / 2, -inf where not finite."""
    q2 = q * q
    theta = q2 - s
    with np.errstate(divide="ignore", invalid="ignore"):
        a_new = np.where(theta > 0.0, s * s / theta, np.inf)
        gain = (0.5 * (q2 / (a_new + s) - np.log1p(s / a_new))
                - 0.5 * (q2 / (a_old + s) - np.log1p(s / a_old)))
    gain[~np.isfinite(gain)] = -np.inf
    return a_new, gain


def all_sq_formula(G, d, c, active, L, mu_w, Sigma_w):
    """``vi._all_sq``: s = d - |L^-1 G^T|^2 and q = c - G mu_w outside the
    model; s = (Sigma_w G_a)_jj / Sigma_jj and q = mu_j / Sigma_jj in it."""
    s = d - np.sum(sla.solve_triangular(L, G.T, lower=True) ** 2, axis=0)
    q = c - G @ mu_w
    dd = np.diag(Sigma_w)
    s[active] = (Sigma_w * G[active]).sum(axis=1) / dd
    q[active] = mu_w / dd
    return s, q
