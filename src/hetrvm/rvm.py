"""Homoscedastic relevance vector machine with fast marginal-likelihood
basis selection (Tipping & Faul, 2003): sequential add / re-estimate /
delete on the candidate columns of the design matrix.

The weight fit, the model finish, the pruning step and the sparsity and
quality (s, q) of the columns in the model are the heteroscedastic
trainers' (:mod:`hetrvm.vi`) with the constant noise r = sigma2.  This
module adds (s, q) for the columns outside the model and one gain rule:
a column's share of the log evidence at precision a is

    l(a) = (q^2 / (a + s) - log(1 + s / a)) / 2,   l(inf) = 0,

so an add (from a = inf), a re-estimate to a = s^2 / (q^2 - s) and a
delete (to a = inf) each gain l(a_new) - l(a_old).  The fit is an
:class:`HrvmModel` whose log-noise process is clamped at log sigma2, the
form a clamped variational fit takes, so it predicts and saves as the
others do."""

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
from .vi import (_check_loop, _clamped_noise, _constant, _degenerate,
                 _finish, _sparsity_quality, _standardized, _weight_fit,
                 prune_basis)

__all__ = ["RvmConfig", "sparsity_quality", "fit_rvm"]


@dataclass(frozen=True)
class RvmConfig:
    max_iter: int = 500
    tol: float = 1e-6
    alpha_threshold: float = 1e12
    standardize: bool = True

    def __post_init__(self):
        _check_loop(self.max_iter, self.tol, self.alpha_threshold)


def _all_sq(Phi, active, mu_w, Sigma_w, sigma2, y):
    """Every column's (s_j, q_j) under noise sigma2, with column j left
    out of C.  Outside the model s = phi^T C^-1 phi by Woodbury on the
    active set and q = phi^T C^-1 y = phi^T (y - Phi_a mu_w) / sigma2; the
    columns in it take :func:`hetrvm.vi._sparsity_quality`."""
    Phi_a = Phi[:, active]
    G = Phi.T @ Phi_a / sigma2              # M x m
    s = np.sum(Phi * Phi, axis=0) / sigma2 - np.sum((G @ Sigma_w) * G, axis=1)
    q = Phi.T @ (y - Phi_a @ mu_w) / sigma2
    s[active], q[active] = _sparsity_quality(G[active], Sigma_w, mu_w)
    return s, q


def _actions(s, q, a_old):
    """Each column's evidence-optimal precision a_new (inf: out of the
    model) and its gain l(a_new) - l(a_old), -inf where not finite."""
    def ell(a):
        return 0.5 * (q**2 / (a + s) - np.log1p(s / a))

    theta = q**2 - s
    with np.errstate(divide="ignore", invalid="ignore"):
        a_new = np.where(theta > 0, s**2 / theta, np.inf)
        gain = ell(a_new) - ell(a_old)
    return a_new, np.where(np.isfinite(gain), gain, -np.inf)


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
    if _constant(work.y):
        return _degenerate("rvm", kernel, work, record, config)
    y, n = work.y, work.n
    Phi = build_design_matrix(work.X, kernel)
    sigma2 = 0.1 * float(np.var(y))

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
    ev, mu_w, Sigma_w = _weight_fit(Phi_a, alpha, r, y)

    log: List[float] = []
    status = "max_iter"
    for n_iter in range(1, config.max_iter + 1):
        s, q = _all_sq(Phi, active, mu_w, Sigma_w, sigma2, y)
        a_old = np.full(Phi.shape[1], np.inf)
        a_old[active] = alpha
        a_new, gain = _actions(s, q, a_old)
        j = int(np.argmax(gain))
        best_gain = gain[j]
        max_log_change = 0.0
        if best_gain > 1e-12:
            max_log_change = abs(np.log(a_new[j]) - np.log(a_old[j]))
            if np.isinf(a_old[j]):  # add
                active.append(j)
                alpha = np.append(alpha, a_new[j])
            elif np.isinf(a_new[j]):  # delete
                alpha = np.delete(alpha, active.index(j))
                active.remove(j)
            else:  # re-estimate
                alpha[active.index(j)] = a_new[j]
            Phi_a = Phi[:, active]
            ev, mu_w, Sigma_w = _weight_fit(Phi_a, alpha, r, y)

        # noise re-estimate, accepted only when it does not lower the
        # evidence; the accepted state's posterior starts the next iteration
        gamma = 1.0 - alpha * np.diag(Sigma_w)
        dof = n - float(np.sum(gamma))
        resid = y - Phi_a @ mu_w
        if dof > 1e-8:
            sigma2_new = float(resid @ resid) / dof
            if sigma2_new > 1e-12:
                r_new = np.full(n, sigma2_new)
                trial = _weight_fit(Phi_a, alpha, r_new, y)
                if trial[0] >= ev - 1e-10:
                    sigma2, r = sigma2_new, r_new
                    ev, mu_w, Sigma_w = trial

        log.append(ev)
        if best_gain <= 1e-12 or (max_log_change < config.tol):
            status = "converged"
            break

    # threshold pruning (alpha -> infinity basis carry no weight)
    active, alpha, _ = prune_basis(active, alpha, config.alpha_threshold)
    return _finish("rvm", kernel, work, Phi, record, active, alpha, r,
                   _clamped_noise(n, sigma2), training_log=log, status=status,
                   n_iter=n_iter, config=asdict(config))
