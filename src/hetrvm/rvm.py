"""Homoscedastic relevance vector machine with fast marginal-likelihood
basis selection (sequential add / re-estimate / delete on the candidate
columns of the design matrix).

The weight posterior, the marginal likelihood and the final pruning step
are the heteroscedastic trainers' (:mod:`hetrvm.vi`) with the constant
noise r = sigma2; only the add / re-estimate / delete statistics are
specific to this module.  The fit is an :class:`HrvmModel` whose
log-noise process is clamped at log sigma2, the form a clamped
variational fit takes, so it predicts and saves as the others do."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional

import numpy as np

from .data import Dataset
from .kernels import KernelSpec, build_design_matrix
# kept for perfbench's tracer until ROADMAP item 2
from .kernels import design_matrix_at  # noqa: F401
from .model import HrvmModel
from .numerics import chol_factor, chol_solve
from .vi import (_JITTER_FRAC, _check_loop, _evidence, _factor, _gram,
                 _posterior, _standardized, prune_basis, weight_posterior)

__all__ = ["RvmConfig", "sparsity_quality", "fit_rvm"]


@dataclass(frozen=True)
class RvmConfig:
    max_iter: int = 500
    tol: float = 1e-6
    alpha_threshold: float = 1e12
    standardize: bool = True

    def __post_init__(self):
        _check_loop(self.max_iter, self.tol, self.alpha_threshold)


def _all_SQ(Phi, Phi_a, Sigma_w, sigma2, y):
    """S_j = phi_j^T C^-1 phi_j and Q_j = phi_j^T C^-1 y for every column,
    via the Woodbury identity on the active set."""
    G = Phi.T @ Phi_a                       # M x m
    S = np.sum(Phi * Phi, axis=0) / sigma2
    Q = Phi.T @ y / sigma2
    if Phi_a.shape[1] > 0:
        GS = G @ Sigma_w
        S = S - np.sum(GS * G, axis=1) / sigma2**2
        Q = Q - GS @ (Phi_a.T @ y) / sigma2**2
    return S, Q


def sparsity_quality(Phi: np.ndarray, y, active, alpha, sigma2, j):
    """(s_j, q_j) with basis j excluded from the model covariance.

    Direct dense computation of C_{-j} = sigma2 I + sum_{i != j}
    phi_i phi_i^T / alpha_i; intended as the reference path (the trainer
    uses an equivalent Woodbury form).
    """
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    C = sigma2 * np.eye(n)
    for idx, a in zip(active, alpha):
        if idx == j:
            continue
        phi = Phi[:, idx]
        C += np.outer(phi, phi) / a
    L = chol_factor(C, "C")
    phi_j = Phi[:, j]
    u = chol_solve(L, phi_j)
    s = float(phi_j @ u)
    q = float(u @ y)
    return s, q


def _clamped_noise(n, sigma2):
    """The noise fields of an ``HrvmModel`` over n training inputs whose
    log-noise is clamped at log sigma2.  The noise-GP hyperparameters are
    neutral values that ``predict`` never reads for such a model."""
    log_s2 = float(np.log(sigma2))
    return dict(noise_mu0=log_s2, noise_lengthscale=1.0,
                noise_signal_variance=1.0, noise_jitter=_JITTER_FRAC,
                g_mu=np.full(n, log_s2), g_Sigma=np.zeros((n, n)))


def _rvm_state(Phi_a, alpha, r, y):
    """Log evidence, mu_w and Sigma_w at one (active set, alpha, r), from
    one factorization of the weight precision."""
    _, G, b = _gram(Phi_a, r, y)
    L = _factor(G, alpha)
    return (_evidence(L, b, alpha, r, y)[0],) + _posterior(L, b)


def fit_rvm(data: Dataset, kernel: Optional[KernelSpec] = None,
            config: Optional[RvmConfig] = None) -> HrvmModel:
    """Fit by greedy maximization of the marginal likelihood: at each step
    take the single add / re-estimate / delete action with the largest
    likelihood gain; re-estimate sigma2 whenever that does not decrease
    the likelihood.  Returns an ``HrvmModel`` with method "rvm" and the
    log-noise clamped at log sigma2 (standardized units)."""
    kernel = kernel or KernelSpec()
    config = config or RvmConfig()
    work, record = _standardized(data, config.standardize)
    y = work.y
    n = y.size
    design = build_design_matrix(work.X, kernel)
    Phi = design.values
    M = Phi.shape[1]

    def model(active, alpha, mu_w, Sigma_w, sigma2, **fit):
        return HrvmModel(method="rvm", kernel=kernel, centers=design.centers,
                         active_indices=list(active), alpha=alpha,
                         mu_w=mu_w, Sigma_w=Sigma_w, standardization=record,
                         config=asdict(config), **_clamped_noise(n, sigma2),
                         **fit)

    var_y = float(np.var(y))
    if var_y <= 0.0:
        # no structure to fit: bias only (or empty) at unit noise
        k = int(kernel.include_bias)
        return model(list(range(k)), np.full(k, 1e6), np.zeros(k),
                     np.full((k, k), 1e-6), 1.0, status="degenerate")
    sigma2 = 0.1 * var_y

    # start from the basis with the largest normalized projection
    proj = (Phi.T @ y) ** 2 / np.maximum(np.sum(Phi * Phi, axis=0), 1e-300)
    j0 = int(np.argmax(proj))
    phi0 = Phi[:, j0]
    s0 = phi0 @ phi0 / sigma2
    q0 = phi0 @ y / sigma2
    a0 = s0**2 / (q0**2 - s0) if q0**2 > s0 else 1.0
    active: List[int] = [j0]
    alpha = np.array([a0], dtype=float)
    r = np.full(n, sigma2)
    Phi_a = Phi[:, active]
    ev, mu_w, Sigma_w = _rvm_state(Phi_a, alpha, r, y)

    log: List[float] = []
    status = "max_iter"
    n_iter = 0
    for it in range(config.max_iter):
        n_iter = it + 1
        S, Q = _all_SQ(Phi, Phi_a, Sigma_w, sigma2, y)

        in_model = np.zeros(M, dtype=bool)
        in_model[active] = True
        alpha_full = np.full(M, np.inf)
        alpha_full[active] = alpha
        denom = np.where(in_model, alpha_full - S, 1.0)
        s = np.where(in_model, alpha_full * S / denom, S)
        q = np.where(in_model, alpha_full * Q / denom, Q)
        theta = q**2 - s

        delta = np.full(M, -np.inf)
        add = (theta > 0) & ~in_model
        rec = (theta > 0) & in_model
        dele = (theta <= 0) & in_model
        with np.errstate(divide="ignore", invalid="ignore"):
            delta[add] = 0.5 * ((Q[add] ** 2 - S[add]) / S[add]
                                + np.log(S[add] / Q[add] ** 2))
            if np.any(rec):
                a_new = s[rec] ** 2 / theta[rec]
                d_inv = 1.0 / a_new - 1.0 / alpha_full[rec]
                delta[rec] = 0.5 * (Q[rec] ** 2 / (S[rec] + 1.0 / d_inv)
                                    - np.log1p(S[rec] * d_inv))
            if np.any(dele):
                delta[dele] = 0.5 * (Q[dele] ** 2 / (S[dele] - alpha_full[dele])
                                     - np.log1p(-S[dele] / alpha_full[dele]))
        delta[~np.isfinite(delta)] = -np.inf

        jbest = int(np.argmax(delta))
        best_gain = delta[jbest]
        max_log_change = 0.0
        if best_gain > 1e-12:
            if add[jbest]:
                active.append(jbest)
                alpha = np.append(alpha, s[jbest] ** 2 / theta[jbest])
                max_log_change = np.inf
            elif rec[jbest]:
                k = active.index(jbest)
                a_new = s[jbest] ** 2 / theta[jbest]
                max_log_change = abs(np.log(a_new) - np.log(alpha[k]))
                alpha[k] = a_new
            else:  # delete
                k = active.index(jbest)
                active.pop(k)
                alpha = np.delete(alpha, k)
                max_log_change = np.inf
            Phi_a = Phi[:, active]
            ev, mu_w, Sigma_w = _rvm_state(Phi_a, alpha, r, y)

        # noise re-estimate, accepted only when it does not lower the
        # evidence; the accepted state's posterior starts the next iteration
        gamma = 1.0 - alpha * np.diag(Sigma_w)
        dof = n - float(np.sum(gamma))
        resid = y - Phi_a @ mu_w
        if dof > 1e-8:
            sigma2_new = float(resid @ resid) / dof
            if sigma2_new > 1e-12:
                r_new = np.full(n, sigma2_new)
                trial = _rvm_state(Phi_a, alpha, r_new, y)
                if trial[0] >= ev - 1e-10:
                    sigma2, r = sigma2_new, r_new
                    ev, mu_w, Sigma_w = trial

        log.append(ev)
        if best_gain <= 1e-12 or (max_log_change < config.tol):
            status = "converged"
            break

    # threshold pruning (alpha -> infinity basis carry no weight)
    active, alpha, pruned = prune_basis(active, alpha, config.alpha_threshold)
    if pruned:
        mu_w, Sigma_w = weight_posterior(Phi[:, active], alpha, r, y)
    return model(active, alpha, mu_w, Sigma_w, sigma2, training_log=log,
                 status=status, n_iter=n_iter)
