"""Collapsed variational trainer for the heteroscedastic RVM.

The weight posterior is maximized analytically, which collapses the
evidence lower bound into a functional of q(g) = N(mu, Sigma) alone:

    F = log N(y | 0, Phi A^-1 Phi^T + R) - tr(Sigma)/4
        - KL( N(mu, Sigma) || N(mu0 1, K) )

with R the diagonal effective-noise matrix R_nn = exp(mu_n - Sigma_nn/2).
Stationarity in (mu, Sigma) reduces q(g) to N diagonal parameters
lam in (0, 1/2):

    Sigma = (K^-1 + diag(lam))^-1,   mu = K (lam - 1/2) + mu0 1,

so the bound is maximized over lam (through an unconstrained sigmoid
transform), the log-variance GP hyperparameters and mu0 by L-BFGS, with
analytic gradients.  Weight precisions follow the usual effective-degrees
fixed point, safeguarded so the bound never decreases, and basis columns
whose precision diverges are pruned permanently.  A column whose
evidence-optimal precision is infinite (q^2 <= s, Tipping & Faul, 2003)
at two consecutive steps of one update is sent there at once, to the
precision clamp, instead of creeping toward it: one reading can be a
transient while the other precisions move, so the update waits for a
second.

One weight fit (the posterior and the evidence log N(y | 0, Phi A^-1
Phi^T + R) from one factorization), one sparsity/quality rule, one
pruning rule and one model finish: every trainer uses these, EP as they
are and the RVM with R = sigma2 I.  The evidence is evaluated through the
m x m weight precision (Woodbury), never the N x N covariance, and so is
the bound's gradient: it needs C^-1 y and diag(C^-1) only, and no N x N
inverse of C or K is formed.  The N x N work left per bound evaluation is
the q(g) block (the Cholesky factor of I + Lam^1/2 K Lam^1/2 and Sigma
from it).  Within one outer iteration every distinct point is evaluated
once.  The first L-BFGS stage holds (log_ell, log_sv) fixed, so its
evaluations skip the O(N^3) block of their gradient; the joint stage
completes it at the one point where the first stage ended.  The precision
update forms the Gram matrix Phi^T R^-1 Phi, the noise terms of the
evidence and the identity right-hand side once per call, and then costs
one m x m factorization and three solves with it per step; the sparsity
and quality of every column come from that step's posterior in O(m^2).

L-BFGS is ``scipy.optimize.minimize``, reached through this module's
``minimize``, which imports the optimizer on its first call.  Loading
this module, and with it the package and its CLI, does not import
``scipy.optimize``: it is about a third of the package's start-up time,
and only ``fit_vi`` needs it, so the first VI fit in a process pays it.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import List, Optional

import numpy as np

from .data import Dataset, Standardization, standardize
from .kernels import KernelSpec, build_design_matrix, _sqdist
from .model import HrvmModel
from .numerics import (FactorizationError, _check_int, chol_factor,
                       chol_solve, gauss_kl, lower_solve)

__all__ = [
    "VIConfig",
    "VariationalState",
    "noise_diag",
    "expected_loglik",
    "weight_posterior",
    "reduced_to_moments",
    "collapsed_bound",
    "bound_gradients",
    "update_alpha",
    "prune_basis",
    "fit_vi",
]

_ALPHA_MIN, _ALPHA_MAX = 1e-12, 1e14
_JITTER_FRAC = 1e-6  # diagonal jitter on K as a fraction of signal variance
_LOG_2PI = np.log(2 * np.pi)


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call (see the
    module docstring)."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def _check_loop(max_iter, tol, alpha_threshold, max_iter_name="max_iter"):
    """Reject trainer settings that would end a fit before it learns
    anything or make it prune on a meaningless threshold."""
    _check_int(max_iter, max_iter_name, 1)
    if not (0.0 <= tol < np.inf):
        raise ValueError("tol must be finite and nonnegative")
    if not (alpha_threshold > 0.0):
        raise ValueError("alpha_threshold must be positive")


@dataclass(frozen=True)
class VIConfig:
    max_iter: int = 200
    tol: float = 1e-6
    alpha_threshold: float = 1e12
    inner_maxiter: int = 40      # L-BFGS iterations per outer step
    clamp_g: Optional[float] = None  # fix q(g) to a point mass (diagnostics)
    standardize: bool = True

    def __post_init__(self):
        _check_loop(self.max_iter, self.tol, self.alpha_threshold)
        _check_int(self.inner_maxiter, "inner_maxiter", 1)


@dataclass
class VariationalState:
    """Everything the bound depends on, at the training inputs X."""

    X: np.ndarray
    mu: np.ndarray
    Sigma: np.ndarray
    lam: np.ndarray              # diagonal reduced parameter, in (0, 1/2)
    alpha: np.ndarray
    active_indices: List[int]
    mu0: float
    log_ell: float               # log lengthscale of the noise GP
    log_sv: float                # log signal variance of the noise GP
    K: np.ndarray                # cached noise-GP covariance at X


def _noise_cov(D2, log_ell, log_sv):
    """K = sv * (rbf(D2; ell) + jitter I) and the unscaled correlation."""
    ell = np.exp(log_ell)
    sv = np.exp(log_sv)
    C = np.exp(-0.5 * D2 / ell**2)
    K = sv * (C + _JITTER_FRAC * np.eye(D2.shape[0]))
    return K, C


def noise_diag(mu, Sigma):
    """Diagonal of the effective noise matrix, exp(mu_n - Sigma_nn / 2)."""
    mu = np.asarray(mu, dtype=float).ravel()
    Sigma = np.asarray(Sigma, dtype=float)
    sd = np.diag(Sigma) if Sigma.ndim == 2 else Sigma.ravel()
    expo = mu - 0.5 * sd
    with np.errstate(over="ignore"):
        out = np.exp(expo)
    if not np.all(np.isfinite(out)):
        bad = int(np.argmax(~np.isfinite(out)))
        raise FloatingPointError(f"effective noise overflow at index {bad}")
    return out


def expected_loglik(y, w, Phi, mu, Sigma) -> float:
    """E_{g ~ N(mu, Sigma)} log p(y | w, g) where the per-point noise
    variance is exp(g_n).  Equals log N(y | Phi w, R) - tr(Sigma)/4."""
    y = np.asarray(y, dtype=float).ravel()
    Phi = np.asarray(Phi, dtype=float)
    f = Phi @ np.asarray(w, dtype=float).ravel()
    r = noise_diag(mu, Sigma)
    Sigma = np.asarray(Sigma, dtype=float)
    tr = float(np.sum(np.diag(Sigma))) if Sigma.ndim == 2 else float(np.sum(Sigma))
    n = y.size
    ll = -0.5 * (n * np.log(2 * np.pi) + np.sum(np.log(r))
                 + np.sum((y - f) ** 2 / r))
    return float(ll - 0.25 * tr)


def _gram(Phi_a, r, y):
    """The Gram step: R^-1 Phi, G = Phi^T R^-1 Phi and b = Phi^T R^-1 y
    for R = diag(r).  They depend on the noise only, so every precision
    vector tried at one r reuses them."""
    Phir = Phi_a / r[:, None]
    return Phir, Phi_a.T @ Phir, Phir.T @ y


def _factor(G, alpha):
    """The factor step: the Cholesky factor L of the weight precision
    H = diag(alpha) + G (None for an empty active set)."""
    if alpha.size == 0:
        return None
    return chol_factor(np.diag(alpha) + G, "weight precision")


def _posterior(L, b):
    """Sigma_w = H^-1 and mu_w = H^-1 b from the factor of H."""
    if L is None:
        return np.zeros(0), np.zeros((0, 0))
    Sigma_w = chol_solve(L, np.eye(L.shape[0]))
    Sigma_w = 0.5 * (Sigma_w + Sigma_w.T)
    mu_w = chol_solve(L, b)
    return mu_w, Sigma_w


def _noise_terms(r, y):
    """sum log r and y^T R^-1 y: the noise-only part of the evidence."""
    return np.sum(np.log(r)), y @ (y / r)


def _evidence(L, b, alpha, r, y, noise=None):
    """log N(y | 0, C) with C = Phi diag(1/alpha) Phi^T + diag(r), by
    Woodbury on the m x m weight precision H = L L^T (Tipping & Faul,
    2003): log|C| = sum log r + log|H| - sum log alpha and
    y^T C^-1 y = y^T R^-1 y - v^T v, with v = L^-1 b.  ``noise`` is
    :func:`_noise_terms` (r, y) when the caller already has it.

    Returns (log evidence, v)."""
    logdet, quad = _noise_terms(r, y) if noise is None else noise
    v = np.zeros(0)
    if L is not None:
        v = lower_solve(L, b)
        logdet += 2.0 * np.log(L.diagonal()).sum() - np.log(alpha).sum()
        quad -= v @ v
    return float(-0.5 * (y.size * _LOG_2PI + logdet + quad)), v


def _weight_fit(Phi_a, alpha, r, y):
    """log N(y | 0, Phi diag(1/alpha) Phi^T + diag(r)) (see _evidence),
    mu_w and Sigma_w at one (active set, alpha, r), from one factorization
    of the weight precision."""
    _, G, b = _gram(Phi_a, r, y)
    L = _factor(G, alpha)
    return (_evidence(L, b, alpha, r, y)[0],) + _posterior(L, b)


def weight_posterior(Phi_a, alpha, r, y):
    """Exact maximizing Gaussian over the weights for effective noise r:
    Sigma_w = (diag(alpha) + Phi^T diag(1/r) Phi)^-1,
    mu_w = Sigma_w Phi^T diag(1/r) y.  Constant r = sigma2 gives the
    homoscedastic RVM posterior."""
    alpha, r, y = (np.asarray(v, dtype=float).ravel() for v in (alpha, r, y))
    return _weight_fit(np.asarray(Phi_a, dtype=float), alpha, r, y)[1:]


def reduced_to_moments(lam, K, mu0):
    """Moments of q(g) from the diagonal reduced parameterization:
    Sigma = (K^-1 + diag(lam))^-1, mu = K (lam - 1/2) + mu0 1."""
    lam = np.asarray(lam, dtype=float).ravel()
    if np.any(lam <= 0.0) or np.any(lam >= 0.5):
        raise ValueError("reduced parameters must lie in (0, 1/2)")
    Sigma, _ = _reduced_cov(lam, K)
    mu = K @ (lam - 0.5) + mu0
    return mu, Sigma


def _reduced_cov(lam, K):
    """Sigma = (K^-1 + diag(lam))^-1 = K - K Lam^1/2 B^-1 Lam^1/2 K and
    the Cholesky factor of B = I + Lam^1/2 K Lam^1/2."""
    root = np.sqrt(lam)
    B = np.eye(lam.size) + root[:, None] * K * root[None, :]
    LB = chol_factor(B, "reduced system")
    V = lower_solve(LB, root[:, None] * K)
    Sigma = K - V.T @ V
    return 0.5 * (Sigma + Sigma.T), LB


def collapsed_bound(state: VariationalState, Phi, y) -> float:
    """Evidence lower bound at the state's q(g) moments and precisions."""
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    Phi_a = Phi[:, state.active_indices]
    r = noise_diag(state.mu, state.Sigma)
    f1 = _weight_fit(Phi_a, state.alpha, r, y)[0]
    kl = gauss_kl(state.mu, state.Sigma,
                  np.full(y.size, state.mu0), state.K)
    return f1 - 0.25 * float(np.trace(state.Sigma)) - kl


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _eta_from_lam(lam):
    lam = np.clip(lam, 1e-12, 0.5 - 1e-12)
    s = 2.0 * lam  # sigmoid value
    return np.log(s) - np.log1p(-s)


def _bound_value_grad(x, D2, Phi_a, alpha, y, hyper=True):
    """Bound and its analytic gradient in the packed variables
    x = [eta (N), log_ell, log_sv, mu0] with lam = sigmoid(eta)/2.

    With ``hyper`` False the (log_ell, log_sv) entries are left nan, which
    skips their O(N^3) block, and a third value is returned: a function
    of no arguments that returns the complete gradient.  The value and
    the other entries are the same bits either way."""
    n = y.size
    eta = x[:n]
    log_ell, log_sv, mu0 = x[n], x[n + 1], x[n + 2]
    lam = 0.5 * _sigmoid(eta)
    lam = np.clip(lam, 1e-12, 0.5 - 1e-12)
    K, C = _noise_cov(D2, log_ell, log_sv)
    Sigma, LB = _reduced_cov(lam, K)
    sdiag = np.diag(Sigma)
    v = lam - 0.5
    Kv = K @ v
    mu = Kv + mu0

    expo = np.clip(mu - 0.5 * sdiag, -700.0, 700.0)
    r = np.exp(expo)

    # evidence, beta = C^-1 y and diag(C^-1) through the m x m weight
    # precision: C^-1 = R^-1 - W^T W with W = L^-1 Phi^T R^-1
    Phir, G, b = _gram(Phi_a, r, y)
    L = _factor(G, alpha)
    f1, vb = _evidence(L, b, alpha, r, y)
    W = lower_solve(L, Phir.T)
    beta = y / r - W.T @ vb
    cinv_diag = 1.0 / r - np.sum(W**2, axis=0)

    logdet_B = 2.0 * np.sum(np.log(np.diag(LB)))
    kl = 0.5 * (logdet_B - float(lam @ sdiag) + float(v @ Kv))
    fval = f1 - 0.25 * float(np.sum(sdiag)) - kl

    # gradient pieces
    d = 0.5 * (beta**2 - cinv_diag)
    u = d * r

    fs = -0.5 * u - 0.25 + 0.5 * lam          # diag of dF/dSigma
    g_lam = K @ u + ((-fs)[:, None] * Sigma**2).sum(axis=0) - Kv
    g_eta = g_lam * lam * (1.0 - 2.0 * lam)
    g_mu0 = float(np.sum(u))
    grad = np.concatenate([g_eta, [np.nan, np.nan, g_mu0]])

    if hyper:
        grad[n:n + 2] = _hyper_grad(D2, log_ell, log_sv, K, C,
                                    Sigma, lam, u, v, fs)
        return fval, grad

    def complete():
        # the N x N pieces are recomputed, to the same bits, rather than
        # kept: a stage keeps the completion of every point it evaluates
        K, C = _noise_cov(D2, log_ell, log_sv)
        full = grad.copy()
        full[n:n + 2] = _hyper_grad(D2, log_ell, log_sv, K, C,
                                    _reduced_cov(lam, K)[0], lam, u, v, fs)
        return full

    return fval, grad, complete


def _hyper_grad(D2, log_ell, log_sv, K, C, Sigma, lam, u, v, fs):
    """The bound's (log_ell, log_sv) gradient entries from the pieces
    of its q(g) gradient."""
    n = lam.size
    # K^-1 Sigma K^-1 - K^-1 = Lam Sigma Lam - Lam, as Sigma^-1 = K^-1 + Lam
    S = np.eye(n) - Sigma * lam[None, :]      # Sigma K^-1
    M = (np.outer(u, v)
         + S.T @ (fs[:, None] * S)
         + 0.5 * (lam[:, None] * Sigma * lam[None, :] - np.diag(lam))
         - 0.5 * np.outer(v, v))
    g_log_sv = float(np.sum(M * K))
    ell = np.exp(log_ell)
    dK_dlog_ell = np.exp(log_sv) * C * (D2 / ell**2)
    g_log_ell = float(np.sum(M * dK_dlog_ell))
    return g_log_ell, g_log_sv


def bound_gradients(state: VariationalState, Phi, y):
    """Analytic gradient of the bound in the packed coordinates
    (eta = unconstrained reduced parameters, log lengthscale,
    log signal variance, mu0), evaluated at the state."""
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    Phi_a = Phi[:, state.active_indices]
    D2 = _sqdist(state.X, state.X)
    x = np.concatenate([_eta_from_lam(state.lam),
                        [state.log_ell, state.log_sv, state.mu0]])
    _, grad = _bound_value_grad(x, D2, Phi_a, state.alpha, y)
    if not np.all(np.isfinite(grad)):
        bad = int(np.argmax(~np.isfinite(grad)))
        raise FloatingPointError(f"non-finite bound gradient at coordinate {bad}")
    return grad


def _sparsity_quality(G, Sigma_w, mu_w):
    """Every active column's sparsity and quality (s_j, q_j) under noise
    diag(r): s_j = phi_j^T C_-j^-1 phi_j and q_j = phi_j^T C_-j^-1 y,
    with column j left out of C (Tipping & Faul, 2003).

    With j kept in, S_j = alpha_j (Sigma_w G)_jj, Q_j = alpha_j mu_w_j
    and alpha_j - S_j = alpha_j^2 Sigma_w_jj, so s = alpha S / (alpha - S)
    and q = alpha Q / (alpha - S) reduce to the ratios below.  They
    subtract nothing, where S = diag(G) - diag(G Sigma_w G) followed by
    alpha - S loses up to a few parts in 1e6 on a relevant column."""
    d = Sigma_w.diagonal()
    return np.sum(Sigma_w * G, axis=1) / d, mu_w / d


def update_alpha(alpha, Phi_a, r, y, max_inner: int = 30):
    """Effective-degrees fixed point for the weight precisions,
    alpha_j <- (1 - alpha_j Sigma_w_jj) / mu_w_j^2, iterated with a
    safeguard: a step is geometrically backed off toward the previous
    precisions until the collapsed evidence does not decrease.

    A column whose evidence-optimal precision is infinite (q_j^2 <= s_j,
    Tipping & Faul, 2003) at this step and at the previous step of the
    call is proposed _ALPHA_MAX instead, above the default pruning
    threshold, so the trainers prune it after the call.  The fixed point
    would only creep toward it, a few percent per step, and keep the
    change above the stop.  One reading is not enough: a column can read
    q^2 <= s for one step while the other precisions move under it, and
    jumping at the first reading costs EP more passes.

    r is fixed here, so the Gram matrix and the noise terms of the
    evidence are formed once per call, and the factor that scored an
    accepted step gives the next step's posterior: one Cholesky
    factorization per evidence evaluation."""
    alpha = np.asarray(alpha, dtype=float).copy()
    _, G, b = _gram(Phi_a, r, y)
    noise = _noise_terms(r, y)
    eye = np.eye(alpha.size)
    L = _factor(G, alpha)
    ev, _ = _evidence(L, b, alpha, r, y, noise)
    dead = np.zeros(alpha.size, dtype=bool)
    for _ in range(max_inner):
        mu_w = chol_solve(L, b)
        Sigma_w = chol_solve(L, eye)
        gamma = (1.0 - alpha * Sigma_w.diagonal()).clip(1e-12, 1.0)
        s, q = _sparsity_quality(G, Sigma_w, mu_w)
        was_dead, dead = dead, q**2 <= s
        with np.errstate(divide="ignore", invalid="ignore"):
            proposal = gamma / mu_w**2
        proposal = np.where(np.isfinite(proposal) & (proposal > 0)
                            & ~(dead & was_dead), proposal, _ALPHA_MAX)
        proposal = proposal.clip(_ALPHA_MIN, _ALPHA_MAX)
        trial = proposal
        accepted = False
        for _ in range(8):
            L_new = _factor(G, trial)
            ev_new, _ = _evidence(L_new, b, trial, r, y, noise)
            if ev_new >= ev - 1e-10:
                accepted = True
                break
            trial = np.sqrt(trial * alpha)  # back off in log space
        if not accepted:
            break
        change = float(np.abs(np.log(trial) - np.log(alpha)).max())
        alpha, ev, L = trial, ev_new, L_new
        if change < 1e-3:
            break
    return alpha, ev


def prune_basis(active, alpha, threshold: float):
    """Drop the basis columns whose precision exceeds the threshold; if
    every column would go, keep the smallest-precision one.  An empty set
    stays empty.  Returns (active, alpha, pruned)."""
    keep = alpha <= threshold
    if np.all(keep):
        return active, alpha, False
    if not np.any(keep):
        keep[int(np.argmin(alpha))] = True
    return [a for a, k in zip(active, keep) if k], alpha[keep], True


def _standardized(data: Dataset, standardize_data: bool):
    """The working data and the record that maps predictions back."""
    if standardize_data:
        return standardize(data)
    return data, Standardization.identity(data.q)


def _setup(work: Dataset, design):
    """Starting point shared by fit_vi and fit_ep: every basis column
    active at unit precision, and the noise GP at the median-distance
    lengthscale, unit signal variance and mu0 = log(0.1 var y).

    Returns (active, alpha, D2, log_ell, log_sv, mu0, K)."""
    n = work.n
    if n < 3:
        raise ValueError("need at least 3 points")
    active = list(range(design.n_basis))
    alpha = np.ones(len(active))
    D2 = _sqdist(work.X, work.X)
    off = D2[np.triu_indices(n, k=1)]
    ell0 = float(np.sqrt(np.median(off[off > 0]))) if np.any(off > 0) else 1.0
    log_ell = float(np.log(ell0))
    log_sv = 0.0
    mu0 = float(np.log(0.1 * max(float(np.var(work.y)), 1e-12)))
    K, _ = _noise_cov(D2, log_ell, log_sv)
    return active, alpha, D2, log_ell, log_sv, mu0, K


def _gp_noise(mu0, log_ell, log_sv, mu, Sigma):
    """The log-noise fields of an ``HrvmModel``: the noise-GP prior at
    (mu0, log lengthscale, log signal variance) and q(g) = N(mu, Sigma)
    at the training inputs."""
    sv = float(np.exp(log_sv))
    return dict(noise_mu0=float(mu0),
                noise_lengthscale=float(np.exp(log_ell)),
                noise_signal_variance=sv, noise_jitter=_JITTER_FRAC * sv,
                g_mu=mu, g_Sigma=Sigma)


def _finish(method, kernel, design, record, active, alpha, r, y, noise,
            **fit):
    """The model the trainers return: the weight posterior refit at the
    final active set, precisions and effective noise r, the noise fields
    ``noise`` (:func:`_gp_noise`) and the record ``fit`` of the run."""
    mu_w, Sigma_w = weight_posterior(design.values[:, active], alpha, r, y)
    return HrvmModel(method=method, kernel=kernel, centers=design.centers,
                     active_indices=list(active), alpha=alpha, mu_w=mu_w,
                     Sigma_w=Sigma_w, standardization=record, **noise, **fit)


def fit_vi(data: Dataset, kernel: Optional[KernelSpec] = None,
           config: Optional[VIConfig] = None) -> HrvmModel:
    """Train by alternating: L-BFGS ascent of the bound, first over the
    reduced q(g) parameters and mu0 with the noise-GP hyperparameters
    (log_ell, log_sv) held, then over all of them jointly; safeguarded
    precision updates; then pruning.  With ``config.clamp_g`` set, q(g)
    stays a point mass and only the precisions and pruning run."""
    kernel = kernel or KernelSpec()
    config = config or VIConfig()
    work, record = _standardized(data, config.standardize)
    design = build_design_matrix(work.X, kernel)
    active, alpha, D2, log_ell, log_sv, mu0, K = _setup(work, design)
    Phi = design.values
    y, n = work.y, work.n
    lam = np.full(n, 0.25)

    clamp = config.clamp_g
    if clamp is None:
        mu, Sigma = reduced_to_moments(lam, K, mu0)
    else:
        mu = np.full(n, float(clamp))
        Sigma = np.zeros((n, n))
    r = noise_diag(mu, Sigma)  # kept current with q(g) below

    training_log: List[float] = []
    prune_iterations: List[int] = []
    prune_shifts: List[float] = []
    status = "max_iter"
    n_iter = 0
    f_prev = -np.inf
    stalled_once = False

    for it in range(config.max_iter):
        n_iter = it + 1
        Phi_a = Phi[:, active]

        if clamp is None:
            x0 = np.concatenate([_eta_from_lam(lam), [log_ell, log_sv, mu0]])

            # (f, g) of every point this iteration has evaluated: the
            # stages, their L-BFGS runs and the acceptance test below share
            # them.  The q-stage's gradients lack the (log_ell, log_sv)
            # entries and carry the function that completes them.  The
            # start point must evaluate; a trial point where the bound
            # breaks down reads -inf, so the line search backs off.
            memo = {x0.tobytes(): _bound_value_grad(x0, D2, Phi_a, alpha, y,
                                                    False)}

            def bound(x, hyper=True):
                key = x.tobytes()
                if key not in memo:
                    try:
                        memo[key] = _bound_value_grad(x, D2, Phi_a, alpha, y,
                                                      hyper)
                    except (FactorizationError, FloatingPointError):
                        memo[key] = (-np.inf, np.zeros(x.size))
                f, g, *complete = memo[key]
                if hyper and complete:
                    g = complete[0]()
                    memo[key] = (f, g)
                return f, g

            def stage(x_start, free_mask, budget, hyper):
                def negf(xfree):
                    x = x_start.copy()
                    x[free_mask] = xfree
                    f, g = bound(x, hyper)
                    return -f, -g[free_mask]
                f_start = negf(x_start[free_mask])[0]
                res = minimize(negf, x_start[free_mask], jac=True,
                               method="L-BFGS-B",
                               options={"maxiter": budget, "maxls": 40})
                # a line-search abort counts as a failure only when the
                # stage also made no progress from its starting point
                ok = res.success or res.fun < f_start - 1e-12
                if not ok:
                    res2 = minimize(negf, x_start[free_mask], jac=True,
                                    method="L-BFGS-B",
                                    options={"maxiter": max(budget // 2, 2),
                                             "maxls": 60})
                    if res2.fun < res.fun:
                        res = res2
                    ok = res.success or res.fun < f_start - 1e-12
                out = x_start.copy()
                out[free_mask] = res.x
                return out, ok

            # reduced parameters (and mu0) first, everything jointly after:
            # moving (log_ell, log_sv) before q(g) adapts collapses the
            # noise process
            free = np.ones(x0.size, dtype=bool)
            free_q = free.copy()
            free_q[n] = free_q[n + 1] = False
            x1, ok1 = stage(x0, free_q, config.inner_maxiter, False)
            # the joint stage starts from x1's completed gradient; every
            # other incomplete gradient is dropped with its pieces
            f0 = bound(x0, False)[0]
            bound(x1)
            for key in [k for k, e in memo.items() if len(e) == 3]:
                del memo[key]
            x1, ok2 = stage(x1, free, config.inner_maxiter, True)
            if not (ok1 and ok2):
                if stalled_once:
                    status = "stalled"
                stalled_once = True
            if bound(x1)[0] >= f0:
                eta = x1[:n]
                lam = np.clip(0.5 * _sigmoid(eta), 1e-12, 0.5 - 1e-12)
                log_ell, log_sv, mu0 = x1[n], x1[n + 1], x1[n + 2]
                K, _ = _noise_cov(D2, log_ell, log_sv)
            mu, Sigma = reduced_to_moments(lam, K, mu0)
            r = noise_diag(mu, Sigma)

        # the evidence at the new precisions is update_alpha's; the bound
        # adds collapsed_bound's q(g) terms, in the same order
        alpha, fval = update_alpha(alpha, Phi_a, r, y)
        if clamp is None:
            fval = (fval - 0.25 * float(np.trace(Sigma))
                    - gauss_kl(mu, Sigma, np.full(n, mu0), K))
        training_log.append(fval)

        kept, kept_alpha, pruned = prune_basis(active, alpha,
                                               config.alpha_threshold)
        if pruned:
            prune_iterations.append(it)
            mw_b, _ = weight_posterior(Phi[:, active], alpha, r, y)
            mw_a, _ = weight_posterior(Phi[:, kept], kept_alpha, r, y)
            shift = float(np.sqrt(np.mean(
                (Phi[:, active] @ mw_b - Phi[:, kept] @ mw_a) ** 2)))
            prune_shifts.append(shift)
        active, alpha = kept, kept_alpha

        if status == "stalled":
            break
        if (not pruned and it > 0
                and abs(fval - f_prev) < config.tol * (1.0 + abs(fval))):
            status = "converged"
            break
        f_prev = fval

    cfg = dict(asdict(config), prune_iterations=prune_iterations,
               prune_shifts=prune_shifts)
    return _finish("vi", kernel, design, record, active, alpha, r, y,
                   _gp_noise(mu0, log_ell, log_sv, mu, Sigma),
                   training_log=training_log, status=status, n_iter=n_iter,
                   config=cfg)
