"""Homoscedastic relevance vector machine with fast marginal-likelihood
basis selection (sequential add / re-estimate / delete on the candidate
columns of the design matrix).

The weight posterior, the marginal likelihood and the final pruning step
are the heteroscedastic trainers' (:mod:`hetrvm.vi`) with the constant
noise r = sigma2; only the add / re-estimate / delete statistics are
specific to this module."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .data import Dataset, Standardization
from .kernels import DesignMatrix, KernelSpec, build_design_matrix, design_matrix_at
from .numerics import chol_factor, chol_solve
from .vi import (_check_loop, _evidence, _factor, _gram, _posterior,
                 _standardized, prune_basis, weight_posterior)

__all__ = ["RvmConfig", "RvmModel", "sparsity_quality", "fit_rvm", "rvm_predict"]


@dataclass(frozen=True)
class RvmConfig:
    max_iter: int = 500
    tol: float = 1e-6
    alpha_threshold: float = 1e12
    standardize: bool = True

    def __post_init__(self):
        _check_loop(self.max_iter, self.tol, self.alpha_threshold)


@dataclass
class RvmModel:
    """Trained homoscedastic RVM over a kernel basis."""

    kernel: KernelSpec
    centers: np.ndarray          # training inputs (standardized units)
    active_indices: List[int]    # columns of the full design matrix
    alpha: np.ndarray
    sigma2: float                # noise variance, standardized units
    mu_w: np.ndarray
    Sigma_w: np.ndarray
    standardization: Standardization
    training_log: List[float] = field(default_factory=list)
    status: str = "converged"
    n_iter: int = 0


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


def _rvm_state(Phi_a, alpha, r, y):
    """Log evidence, mu_w and Sigma_w at one (active set, alpha, r), from
    one factorization of the weight precision."""
    _, G, b = _gram(Phi_a, r, y)
    L = _factor(G, alpha)
    return (_evidence(L, b, alpha, r, y)[0],) + _posterior(L, b)


def fit_rvm(data: Dataset, kernel: Optional[KernelSpec] = None,
            config: Optional[RvmConfig] = None) -> RvmModel:
    """Fit by greedy maximization of the marginal likelihood: at each step
    take the single add / re-estimate / delete action with the largest
    likelihood gain; re-estimate sigma2 whenever that does not decrease
    the likelihood."""
    kernel = kernel or KernelSpec()
    config = config or RvmConfig()
    work, record = _standardized(data, config.standardize)
    y = work.y
    n = y.size
    design = build_design_matrix(work.X, kernel)
    Phi = design.values
    M = Phi.shape[1]

    var_y = float(np.var(y))
    if var_y <= 0.0:
        return _degenerate_model(design, record, kernel)
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
    return RvmModel(kernel=kernel, centers=design.centers,
                    active_indices=list(active), alpha=alpha,
                    sigma2=sigma2, mu_w=mu_w, Sigma_w=Sigma_w,
                    standardization=record, training_log=log,
                    status=status, n_iter=n_iter)


def _degenerate_model(design: DesignMatrix, record, kernel):
    """Bias-only (or empty) fallback for targets with no structure."""
    if kernel.include_bias:
        active = [0]
        alpha = np.array([1e6])
        mu_w = np.zeros(1)
        Sigma_w = np.array([[1e-6]])
    else:
        active = []
        alpha = np.zeros(0)
        mu_w = np.zeros(0)
        Sigma_w = np.zeros((0, 0))
    return RvmModel(kernel=kernel, centers=design.centers,
                    active_indices=active, alpha=alpha,
                    sigma2=1.0, mu_w=mu_w, Sigma_w=Sigma_w,
                    standardization=record, status="degenerate")


def rvm_predict(model: RvmModel, Xstar):
    """Predictive mean and variance (original units) at new inputs."""
    record = model.standardization
    Xs = record.apply_x(Xstar)
    Phi_s = design_matrix_at(Xs, model.kernel, model.centers,
                             model.active_indices)
    if model.mu_w.size:
        mean = Phi_s @ model.mu_w
        var = model.sigma2 + np.sum((Phi_s @ model.Sigma_w) * Phi_s, axis=1)
    else:
        mean = np.zeros(Xs.shape[0])
        var = np.full(Xs.shape[0], model.sigma2)
    return record.invert_y(mean), var * record.y_scale**2
