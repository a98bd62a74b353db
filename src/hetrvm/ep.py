"""Expectation-propagation trainer for the heteroscedastic RVM.

The non-Gaussian posterior over the latent log-variance vector g is
approximated with one Gaussian site per datum.  Each site approximates
the expected likelihood factor

    t_n(g_n) = exp( -g_n/2 - m_n exp(-g_n)/2 - log(2 pi)/2 ),

where m_n = E[(y_n - f_n)^2] under the current weight posterior.  Sites
are refined by the usual cavity / tilted-moment-matching cycle with
damping on natural parameters; tilted moments come from Gauss-Hermite
quadrature over the cavity.  Between passes the weight posterior and
precisions are refreshed exactly as in the variational trainer.

The noise-GP hyperparameters stay at their initialization under EP.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import List, Optional

import numpy as np
import scipy.linalg as sla

from .data import Dataset
from .kernels import KernelSpec, build_design_matrix
from . import numerics
from .model import HrvmModel
from .numerics import FactorizationError, _check_int, chol_factor, gauss_hermite
from .vi import (_JITTER_FRAC, _check_loop, _setup, _standardized,
                 noise_diag, prune_basis, update_alpha, weight_posterior)

__all__ = [
    "EpConfig",
    "EpState",
    "cavity",
    "tilted_moments",
    "site_update",
    "ep_posterior",
    "fit_ep",
]


@dataclass(frozen=True)
class EpConfig:
    max_passes: int = 100
    damping: float = 0.8
    tol: float = 1e-6
    alpha_threshold: float = 1e12
    seed: int = 0
    quad_order: int = 32
    standardize: bool = True

    def __post_init__(self):
        # damping 0 would leave every site flat and report "converged"
        # after one pass
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        _check_loop(self.max_passes, self.tol, self.alpha_threshold,
                    "max_passes")
        _check_int(self.seed, "seed", 0)
        _check_int(self.quad_order, "quad_order", 1)
        # called through the module: perfbench traces hetrvm.ep.gauss_hermite
        # as one call per site visit
        numerics.gauss_hermite(self.quad_order)


@dataclass
class EpState:
    """Site natural parameters (precision / precision-times-mean / log
    normalizer; precision 0 with mean-parameter 0 encodes a flat site)
    plus the implied posterior moments of g.  A skipped cavity or a
    rejected update leaves every field as it was."""

    site_prec: np.ndarray
    site_nu: np.ndarray
    site_logz: np.ndarray
    post_mu: np.ndarray
    post_Sigma: np.ndarray


def cavity(state: EpState, n: int):
    """Remove site n from its marginal posterior by precision subtraction.

    Returns (cav_mu, cav_var), or None when the deletion would leave a
    non-positive variance (the site is then skipped this pass).
    """
    var_n = float(state.post_Sigma[n, n])
    cav_prec = 1.0 / var_n - float(state.site_prec[n])
    if cav_prec <= 1e-12:
        return None
    cav_var = 1.0 / cav_prec
    cav_mu = cav_var * (float(state.post_mu[n]) / var_n - float(state.site_nu[n]))
    return cav_mu, cav_var


def _log_target(g, m_hat):
    return -0.5 * g - 0.5 * m_hat * np.exp(-np.clip(g, -700, 700)) \
        - 0.5 * np.log(2 * np.pi)


def tilted_moments(cav_mu: float, cav_var: float, m_hat: float,
                   quad_order: int = 32):
    """Log-normalizer, mean and variance of the tilted density
    cavity(g) * t(g) by Gauss-Hermite quadrature over the cavity.

    If the straight evaluation degenerates, the nodes are recentred at
    log(m_hat) (the mode region of the factor) with an importance
    correction, and the integral is retried once.
    """
    if cav_var <= 0:
        raise ValueError("cavity variance must be positive")
    if m_hat < 0:
        raise ValueError("expected squared residual must be nonnegative")
    quad = gauss_hermite(quad_order)
    sd = np.sqrt(cav_var)

    g = cav_mu + sd * quad.nodes
    logv = _log_target(g, m_hat)
    out = _weighted_moments(g, logv, quad.weights)
    if out is not None:
        return out

    # recentre at the factor's mass and importance-correct back to the cavity
    g0 = np.log(max(m_hat, 1e-300))
    g = g0 + sd * quad.nodes
    logv = (_log_target(g, m_hat)
            - 0.5 * (g - cav_mu) ** 2 / cav_var
            + 0.5 * (g - g0) ** 2 / cav_var)
    out = _weighted_moments(g, logv, quad.weights)
    if out is None:
        raise FloatingPointError(
            f"tilted-moment quadrature failed (m_hat={m_hat!r})")
    return out


def _weighted_moments(g, logv, weights):
    shift = float(np.max(logv))
    if not np.isfinite(shift):
        return None
    w = weights * np.exp(logv - shift)
    z = float(np.sum(w))
    if not (np.isfinite(z) and z > 0):
        return None
    mean = float(np.sum(w * g) / z)
    var = float(np.sum(w * (g - mean) ** 2) / z)
    if not (np.isfinite(var) and var > 0):
        return None
    return np.log(z) + shift, mean, var


def site_update(state: EpState, n: int, cav, tilted, damping: float):
    """Divide the tilted approximation by the cavity ``cav`` (the
    (cav_mu, cav_var) that :func:`cavity` returned for site n), damp on
    natural parameters, and refresh the posterior by a rank-one update.
    An update that would break positive-definiteness is rejected: the
    state is returned unchanged."""
    if not (0.0 <= damping <= 1.0):
        raise ValueError("damping must lie in [0, 1]")
    cav_mu, cav_var = cav
    logz_t, mean_t, var_t = tilted

    target_prec = 1.0 / var_t - 1.0 / cav_var
    target_nu = mean_t / var_t - cav_mu / cav_var
    new_prec = state.site_prec[n] + damping * (target_prec - state.site_prec[n])
    new_nu = state.site_nu[n] + damping * (target_nu - state.site_nu[n])

    d_prec = new_prec - state.site_prec[n]
    s_nn = float(state.post_Sigma[n, n])
    denom = 1.0 + d_prec * s_nn
    if denom <= 1e-12:
        return state

    s_col = state.post_Sigma[:, n].copy()
    d_nu = new_nu - state.site_nu[n]
    state.post_Sigma -= np.outer(s_col, s_col) * (d_prec / denom)
    state.post_mu += s_col * ((d_nu - d_prec * float(state.post_mu[n])) / denom)
    state.site_prec[n] = new_prec
    state.site_nu[n] = new_nu
    if target_prec > 0:
        tvar = 1.0 / target_prec
        tmu = target_nu * tvar
        state.site_logz[n] = (logz_t
                              + 0.5 * np.log(2 * np.pi * (cav_var + tvar))
                              + 0.5 * (cav_mu - tmu) ** 2 / (cav_var + tvar))
    else:
        state.site_logz[n] = np.nan
    return state


def ep_posterior(K, mu0, site_prec, site_nu, site_logz=None):
    """Posterior moments of g given the prior N(mu0 1, K) and the current
    Gaussian sites, plus the EP marginal-likelihood estimate (nan when a
    negative site variance makes the normalizer assembly undefined)."""
    K = np.asarray(K, dtype=float)
    site_prec = np.asarray(site_prec, dtype=float).ravel()
    site_nu = np.asarray(site_nu, dtype=float).ravel()
    n = site_prec.size
    A = np.eye(n) + K * site_prec[None, :]
    try:
        Sigma = np.linalg.solve(A, K)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError("combined precision is singular") from exc
    Sigma = 0.5 * (Sigma + Sigma.T)
    mu = np.linalg.solve(A, K @ site_nu + mu0)
    chol_factor(Sigma, "EP posterior covariance")  # PD check

    logz = np.nan
    active = (site_prec != 0) | (site_nu != 0)
    if site_logz is not None and np.all(site_prec[active] > 0):
        LK = chol_factor(K, "noise covariance")
        ones = np.full(n, 1.0)
        Kinv_one = sla.cho_solve((LK, True), ones, check_finite=False)
        h = site_nu + mu0 * Kinv_one
        logdet_K = 2.0 * np.sum(np.log(np.diag(LK)))
        sign, logdet_Sigma = np.linalg.slogdet(Sigma)
        c_prior = 0.5 * (mu0**2 * float(ones @ Kinv_one)
                         + n * np.log(2 * np.pi) + logdet_K)
        prec_a = site_prec[active]
        nu_a = site_nu[active]
        c_sites = 0.5 * float(np.sum(nu_a**2 / prec_a
                                     + np.log(2 * np.pi / prec_a)))
        logz = (float(np.nansum(site_logz[active]))
                + 0.5 * float(h @ mu)
                + 0.5 * (n * np.log(2 * np.pi) + logdet_Sigma)
                - c_prior - c_sites)
    return mu, Sigma, logz


def fit_ep(data: Dataset, kernel: Optional[KernelSpec] = None,
           config: Optional[EpConfig] = None) -> HrvmModel:
    """Alternate exact weight-posterior refreshes with EP passes over the
    log-variance sites (random order, seeded), plus the safeguarded
    precision update and pruning shared with the variational trainer."""
    kernel = kernel or KernelSpec()
    config = config or EpConfig()
    work, record = _standardized(data, config.standardize)
    design = build_design_matrix(work.X, kernel)
    active, alpha, _, log_ell, log_sv, mu0, K = _setup(work, design)
    Phi = design.values
    y, n = work.y, work.n

    state = EpState(site_prec=np.zeros(n), site_nu=np.zeros(n),
                    site_logz=np.zeros(n),
                    post_mu=np.full(n, mu0), post_Sigma=K.copy())

    rng = np.random.default_rng(config.seed)
    training_log: List[float] = []
    status = "max_passes"
    damping = config.damping
    halved = False
    prev_change = np.inf
    osc = 0
    n_pass = 0
    for _ in range(config.max_passes):
        n_pass += 1
        Phi_a = Phi[:, active]
        r = noise_diag(state.post_mu, state.post_Sigma)
        mu_w, Sigma_w = weight_posterior(Phi_a, alpha, r, y)
        resid = y - Phi_a @ mu_w
        m_hat = resid**2 + np.sum((Phi_a @ Sigma_w) * Phi_a, axis=1)

        prev_prec = state.site_prec.copy()
        prev_nu = state.site_nu.copy()
        for idx in rng.permutation(n):
            cav = cavity(state, int(idx))
            if cav is None:
                continue
            tilt = tilted_moments(cav[0], cav[1], float(m_hat[idx]),
                                  config.quad_order)
            site_update(state, int(idx), cav, tilt, damping)

        state.post_mu, state.post_Sigma, logz = ep_posterior(
            K, mu0, state.site_prec, state.site_nu, state.site_logz)

        r = noise_diag(state.post_mu, state.post_Sigma)
        alpha, _ = update_alpha(alpha, Phi_a, r, y)
        active, alpha, _ = prune_basis(active, alpha, config.alpha_threshold)
        training_log.append(logz)

        change = float(max(np.max(np.abs(state.site_prec - prev_prec)),
                           np.max(np.abs(state.site_nu - prev_nu))))
        if change < config.tol:
            status = "converged"
            break
        if change > prev_change:
            osc += 1
            if osc >= 5:
                if not halved:
                    damping *= 0.5
                    halved = True
                    osc = 0
                else:
                    status = "oscillating"
                    break
        else:
            osc = 0
        prev_change = change

    Phi_a = Phi[:, active]
    r = noise_diag(state.post_mu, state.post_Sigma)
    mu_w, Sigma_w = weight_posterior(Phi_a, alpha, r, y)
    sv = float(np.exp(log_sv))
    return HrvmModel(method="ep", kernel=kernel, centers=design.centers,
                     active_indices=list(active), alpha=alpha,
                     mu_w=mu_w, Sigma_w=Sigma_w,
                     noise_mu0=mu0,
                     noise_lengthscale=float(np.exp(log_ell)),
                     noise_signal_variance=sv,
                     noise_jitter=_JITTER_FRAC * sv,
                     g_mu=state.post_mu, g_Sigma=state.post_Sigma,
                     standardization=record,
                     training_log=training_log, status=status,
                     n_iter=n_pass, config=asdict(config))
