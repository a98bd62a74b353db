"""Expectation-propagation trainer for the heteroscedastic RVM.

The non-Gaussian posterior over the latent log-variance vector g is
approximated with one Gaussian site per datum.  Each site approximates
the expected likelihood factor

    t_n(g_n) = exp( -g_n/2 - m_n exp(-g_n)/2 - log(2 pi)/2 ),

where m_n = E[(y_n - f_n)^2] under the current weight posterior.  Sites
are refined in parallel passes (Minka 2001; Cseke & Heskes, JMLR 2011):
every cavity is taken from the current marginals, all tilted moments
come from one Gauss-Hermite grid over the cavities, every site is damped
on natural parameters, and q(g) is refreshed once.  Between passes the
basis and the weight posterior are refreshed exactly as in the
variational trainer, by Tipping & Faul's selection at the new noise;
the next pass reads m_n from the posterior the selection returns.

q(g) comes from the variational trainer's q(g) routine, ``vi._q_cov``,
with the site precisions in place of its diagonal parameters.  The
noise-GP hyperparameters stay at their initialization, as under VI, so
``vi._setup`` splits the prior covariance once per fit into its jitter
and a part of rank r, K = j I + F F^T, and each refresh of
Sigma = (K^-1 + diag(site_prec))^-1 factors only an r x r matrix
(Woodbury on B = I + T^1/2 K T^1/2; Rasmussen & Williams 2006, sec.
3.6).  A pass reads only the marginal variances diag(Sigma), the mean
mu = mu0 + Sigma (site_nu - mu0 site_prec) and log|B|, so no N x N
matrix is formed or factored: the marginal-likelihood estimate and the
final site coefficients come from the same refresh.  The model keeps
q(g) in site form.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import List, Optional

import numpy as np

from .data import Dataset, standardize
from .kernels import KernelSpec, build_design_matrix
from .model import HrvmModel
from .numerics import FactorizationError, gauss_hermite
from .vi import (_MAX_ITER, _check_loop, _constant, _degenerate, _finish,
                 _q_cov, _setup, noise_diag, update_alpha)
# kept for perfbench's tracer until ROADMAP item 1
from .numerics import chol_factor  # noqa: F401
from .vi import weight_posterior  # noqa: F401

__all__ = [
    "EpConfig",
    "cavity",
    "tilted_moments",
    "site_update",
    "ep_posterior",
    "fit_ep",
]


# The damping of every site update, halved once on oscillation.  On a q=5
# draw (N=200, basis lengthscale 0.5) 0.8 converged in 324 passes where 0.5
# and 0.3 ran out of 400; at lengthscale 1 all three reached the same NLPD,
# 0.8 in the fewest passes (26, against 43 and 74).
_DAMPING = 0.8


@dataclass(frozen=True)
class EpConfig:
    max_passes: int = _MAX_ITER
    tol: float = 1e-6

    def __post_init__(self):
        _check_loop(self.max_passes, self.tol, "max_passes")


def cavity(post_mu, post_var, site_prec, site_nu):
    """Remove every site (precision, precision-times-mean; both 0 is a
    flat site) from its marginal N(post_mu_n, post_var_n) of q(g): only
    the marginal variances of q(g) enter, not its covariance.

    Returns (cav_mu, cav_var, ok).  ``ok`` is False where the deletion
    would leave a non-positive variance; those sites are skipped this
    pass and their cavity entries are placeholders.
    """
    cav_prec = 1.0 / post_var - site_prec
    ok = cav_prec > 1e-12
    cav_var = 1.0 / np.where(ok, cav_prec, 1.0)
    cav_mu = cav_var * (post_mu / post_var - site_nu)
    return cav_mu, cav_var, ok


def _log_target(g, m_hat):
    return -0.5 * g - 0.5 * m_hat * np.exp(-np.clip(g, -700, 700)) \
        - 0.5 * np.log(2 * np.pi)


def tilted_moments(cav_mu, cav_var, m_hat, quad_order: int = 32):
    """Log-normalizer, mean and variance of each tilted density
    cavity(g) * t(g), by Gauss-Hermite quadrature over the cavity.

    The arguments broadcast against each other, and one (sites x
    ``quad_order``) grid is integrated with a max-shift per row.  The
    rows whose straight evaluation degenerates are recentred at
    log(m_hat) (the mode region of the factor) with an importance
    correction back to the cavity.
    """
    cav_mu, cav_var, m_hat = (np.asarray(a, dtype=float)[..., None]
                              for a in (cav_mu, cav_var, m_hat))
    if np.any(cav_var <= 0):
        raise ValueError("cavity variance must be positive")
    if np.any(m_hat < 0):
        raise ValueError("expected squared residual must be nonnegative")
    quad = gauss_hermite(quad_order)

    def moments(centre):
        # nodes around ``centre``, importance-corrected back to the cavity
        g = centre + np.sqrt(cav_var) * quad.nodes
        logv = (_log_target(g, m_hat)
                + 0.5 * ((g - centre) ** 2 - (g - cav_mu) ** 2) / cav_var)
        return _weighted_moments(g, logv, quad.weights)

    *out, ok = moments(cav_mu)
    if not np.all(ok):
        log_m = np.log(np.maximum(m_hat, 1e-300))
        *out, ok = moments(np.where(ok[..., None], cav_mu, log_m))
        if not np.all(ok):
            raise FloatingPointError("tilted-moment quadrature failed "
                                     f"(m_hat={m_hat[..., 0][~ok]!r})")
    return tuple(out)


def _weighted_moments(g, logv, weights):
    """Log-sum, mean and variance of the nodes ``g`` under the weights
    ``weights * exp(logv)``, max-shifted, along the last axis; ``ok``
    marks the rows where all three are finite and the variance
    positive."""
    shift = np.max(logv, axis=-1)
    ok = np.isfinite(shift)
    w = weights * np.exp(logv - np.where(ok, shift, 0.0)[..., None])
    z = np.sum(w, axis=-1)
    ok &= np.isfinite(z) & (z > 0)
    z = np.where(ok, z, 1.0)
    mean = np.sum(w * g, axis=-1) / z
    var = np.sum(w * (g - mean[..., None]) ** 2, axis=-1) / z
    ok &= np.isfinite(var) & (var > 0)
    return np.log(z) + shift, mean, var, ok


def site_update(site_prec, site_nu, site_logz, cav, tilted, damping: float):
    """Divide each tilted approximation by its cavity, damp on natural
    parameters and set the site normalizers.

    ``cav`` is the (cav_mu, cav_var, ok) that :func:`cavity` returned;
    ``tilted`` holds the tilted moments of the sites in ``ok``, in order.
    Returns new site arrays (precision, precision-times-mean, log
    normalizer), with the sites outside ``ok`` as they were.
    :func:`ep_posterior` refreshes q(g) from them.
    """
    if not (0.0 <= damping <= 1.0):
        raise ValueError("damping must lie in [0, 1]")
    cav_mu, cav_var, ok = cav
    cav_mu, cav_var = cav_mu[ok], cav_var[ok]
    logz_t, mean_t, var_t = tilted

    # t(g) is log-concave, so no tilted variance exceeds its cavity
    # variance and the target precision is nonnegative; the clamp drops
    # quadrature rounding below zero (about -1e-12 where m_hat is 0)
    target_prec = np.maximum(1.0 / var_t - 1.0 / cav_var, 0.0)
    target_nu = mean_t / var_t - cav_mu / cav_var
    prec, nu, logz = site_prec.copy(), site_nu.copy(), site_logz.copy()
    prec[ok] += damping * (target_prec - prec[ok])
    nu[ok] += damping * (target_nu - nu[ok])
    pos = target_prec > 0
    tvar = 1.0 / np.where(pos, target_prec, 1.0)
    s = cav_var + tvar
    logz[ok] = np.where(
        pos, logz_t + 0.5 * np.log(2 * np.pi * s)
        + 0.5 * (cav_mu - target_nu * tvar) ** 2 / s, np.nan)
    return prec, nu, logz


def ep_posterior(cov, mu0, site_prec, site_nu, site_logz=None):
    """Posterior mean and marginal variances of g given the prior
    N(mu0 1, K) and the current Gaussian sites, plus the EP
    marginal-likelihood estimate (nan when a flat-precision site with a
    nonzero mean parameter makes the normalizer assembly undefined).

    ``cov`` is K in its split K = j I + F F^T (a ``vi._PriorCov``).
    With T = diag(site_prec) and nu_t = site_nu - mu0 site_prec,
    Sigma = (K^-1 + T)^-1 stays in the r x r factored form of
    ``vi._q_cov``; only var = diag(Sigma) and mu = mu0 + Sigma nu_t are
    returned.  The estimate, sum log Z~ + log N(site means | mu0 1,
    K + T^-1) over the active sites, is written in B = I + T^1/2 K T^1/2
    alone (Rasmussen & Williams 2006, eq. 3.65): log|K + T^-1| =
    log|B| - sum log site_prec and (K + T^-1)^-1 = T - T Sigma T.  A
    negative site precision raises :class:`FactorizationError`.
    Returns (mu, var, logz)."""
    site_prec = np.asarray(site_prec, dtype=float).ravel()
    site_nu = np.asarray(site_nu, dtype=float).ravel()
    if np.any(site_prec < 0):
        raise FactorizationError("a site precision is negative")
    q = _q_cov(site_prec, cov)
    nu_t = site_nu - mu0 * site_prec
    shift = q.mul(nu_t)  # mu - mu0
    mu = mu0 + shift

    logz = np.nan
    active = (site_prec != 0) | (site_nu != 0)
    if site_logz is not None and np.all(site_prec[active] > 0):
        prec_a = site_prec[active]
        c_sites = 0.5 * float(np.sum(np.log(2 * np.pi / prec_a)
                                     + nu_t[active]**2 / prec_a))
        logz = (float(np.nansum(site_logz[active])) - c_sites
                + 0.5 * float(nu_t @ shift) - 0.5 * q.logdet_B)
    return mu, q.diag, logz


def fit_ep(data: Dataset, kernel: Optional[KernelSpec] = None,
           config: Optional[EpConfig] = None) -> HrvmModel:
    """Alternate exact weight-posterior refreshes with parallel EP passes
    over the log-variance sites, plus the basis selection shared with the
    variational trainer (``update_alpha``, stopped at ``config.tol``),
    whose deletes prune the basis.  The basis is first selected once at the
    prior's noise, so no pass fits y with an empty basis.

    Each pass takes every cavity from the current marginals, matches all
    tilted moments on one quadrature grid, damps every site and refreshes
    q(g) once.  Sites are damped by 0.8 (``_DAMPING``); five consecutive
    rises of the largest site change halve the damping once, and five
    more end the fit as ``oscillating``."""
    kernel = kernel or KernelSpec()
    config = config or EpConfig()
    work, record = standardize(data)
    noise_prior, cov = _setup(work)
    if _constant(work.y):
        return _degenerate("ep", kernel, work, record, config)
    y, n, mu0 = work.y, work.n, noise_prior.mu0
    Phi = build_design_matrix(work.X, kernel)

    # flat sites, and q(g)'s marginals at the prior, diag K from the split
    site_prec, site_nu, site_logz = np.zeros((3, n))
    post_mu, post_var = np.full(n, mu0), cov.jitter + np.sum(cov.F**2, 1)

    training_log: List[float] = []
    status = "max_passes"
    damping, halved = _DAMPING, False
    prev_change = np.inf
    osc = 0
    r = noise_diag(post_mu, post_var)  # kept current below
    active, alpha, _, posterior = update_alpha([], [], Phi, r, y, config.tol)
    for n_pass in range(1, config.max_passes + 1):
        Phi_a = Phi[:, active]
        mu_w, Sigma_w = posterior
        resid = y - Phi_a @ mu_w
        m_hat = resid**2 + np.sum((Phi_a @ Sigma_w) * Phi_a, axis=1)

        cav = cavity(post_mu, post_var, site_prec, site_nu)
        cav_mu, cav_var, ok = cav
        tilt = tilted_moments(cav_mu[ok], cav_var[ok], m_hat[ok])
        prec, nu, site_logz = site_update(site_prec, site_nu, site_logz,
                                          cav, tilt, damping)
        change = float(max(np.max(np.abs(prec - site_prec)),
                           np.max(np.abs(nu - site_nu))))
        site_prec, site_nu = prec, nu
        post_mu, post_var, logz = ep_posterior(cov, mu0, site_prec, site_nu,
                                               site_logz)

        r = noise_diag(post_mu, post_var)
        active, alpha, _, posterior = update_alpha(active, alpha, Phi, r, y,
                                                   config.tol)
        training_log.append(logz)

        if change < config.tol:
            status = "converged"
            break
        osc = osc + 1 if change > prev_change else 0
        prev_change = change
        if osc >= 5:
            if halved:
                status = "oscillating"
                break
            damping, halved, osc = 0.5 * damping, True, 0

    # q(g)'s mean is mu0 + K a, a = (I + T K)^-1 nu_t = nu_t - T Sigma nu_t
    # = site_nu - T mu, from the last pass's refresh
    coef = site_nu - site_prec * post_mu
    return _finish("ep", kernel, work, record, active, alpha, posterior,
                   noise_prior=noise_prior, g_prec=site_prec, g_coef=coef,
                   training_log=training_log, status=status, n_iter=n_pass,
                   config=asdict(config))
