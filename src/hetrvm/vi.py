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
transform) and mu0 by L-BFGS, with analytic gradients.  The noise GP's
lengthscale and signal variance are held at their start, as under EP:
the prior covariance K is an input of the bound, built once per fit by
``kernels.gp_covariance``, the builder ``predict`` uses, so both trainers
fit one noise model.  Learning them by the bound (type-II maximum
likelihood) collapsed q(g) to a constant noise on 5 of 20 heteroscedastic
N=100 draws of ``tools/status_sweep.py`` (signal variance below 1e-7), at
a cost of up to 0.2 nats of held-out NLPD against EP (Rasmussen &
Williams, 2006, sec. 5.4).

The heteroscedastic RVM is the RVM with sigma2 I replaced by R, so at a
fixed q(g) the precisions maximize the same evidence the RVM's do:
``update_alpha`` is Tipping & Faul's (2003) sequential add / re-estimate
/ delete under diag(r), from the empty basis.  The bound's q(g) terms do
not depend on the precisions, so every action raises the bound by its
evidence gain.

One basis selection, whose deletes are the only pruning rule, one weight
fit (the posterior and the evidence log N(y | 0, Phi A^-1 Phi^T + R)
from one factorization) and one model finish: every trainer uses these,
EP as they are and the RVM with R = sigma2 I; a model keeps the weight
posterior its trainer last fitted.  The evidence is evaluated through
the m x m weight precision (Woodbury), never the N x N covariance, and
so is the bound's gradient: it needs C^-1 y and diag(C^-1) only, and no
N x N inverse of C or K is formed.  The N x N work left per bound
evaluation is one q(g) routine, ``_q_point``: from one Cholesky factor
of I + Lam^1/2 K Lam^1/2 it gives q(g), the effective noise and the
bound's q(g) terms, to L-BFGS and to ``training_log`` alike.  Only
``collapsed_bound``, the dense oracle of the tests, factors K and Sigma.
Within one outer iteration every distinct point is evaluated once.

L-BFGS is ``scipy.optimize.minimize``, reached through this module's
``minimize``, which imports the optimizer on its first call.  Loading
this module, and with it the package and its CLI, does not import
``scipy.optimize``: it is about a third of the package's start-up time,
and only ``fit_vi`` needs it, so the first VI fit in a process pays it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import List, Optional

import numpy as np

from .data import DataError, Dataset, Standardization, standardize
from .kernels import (GpNoisePrior, KernelSpec, build_design_matrix,
                      gp_covariance, _sqdist)
from .model import HrvmModel
from .numerics import (FactorizationError, _check_int, chol_factor,
                       chol_solve, gauss_kl, lower_solve)

__all__ = [
    "VIConfig",
    "VariationalState",
    "noise_diag",
    "expected_loglik",
    "weight_posterior",
    "collapsed_bound",
    "update_alpha",
    "fit_vi",
]

_LOG_2PI = np.log(2 * np.pi)
_INNER_MAXITER = 40  # L-BFGS iterations per outer step


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call (see the
    module docstring)."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def _check_loop(max_iter, tol, max_iter_name="max_iter"):
    """Reject trainer settings that would end a fit before it learns
    anything."""
    _check_int(max_iter, max_iter_name, 1)
    if not (0.0 <= tol < np.inf):
        raise ValueError("tol must be finite and nonnegative")


@dataclass(frozen=True)
class VIConfig:
    max_iter: int = 200
    tol: float = 1e-6
    clamp_g: Optional[float] = None  # fix q(g) to a point mass (diagnostics)
    standardize: bool = True

    def __post_init__(self):
        _check_loop(self.max_iter, self.tol)
        if self.clamp_g is not None and not np.isfinite(self.clamp_g):
            raise ValueError("clamp_g must be finite")


@dataclass
class VariationalState:
    """Everything the bound depends on, at the training inputs."""

    mu: np.ndarray
    Sigma: np.ndarray
    alpha: np.ndarray
    active_indices: List[int]
    mu0: float
    K: np.ndarray                # noise-GP prior covariance at the inputs


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


def _reduced_cov(lam, K):
    """Sigma = (K^-1 + diag(lam))^-1 = K - K Lam^1/2 B^-1 Lam^1/2 K and
    the Cholesky factor of B = I + Lam^1/2 K Lam^1/2."""
    root = np.sqrt(lam)
    B = np.eye(lam.size) + root[:, None] * K * root[None, :]
    LB = chol_factor(B, "reduced system")
    V = lower_solve(LB, root[:, None] * K)
    Sigma = K - V.T @ V
    return 0.5 * (Sigma + Sigma.T), LB


def _q_point(lam, mu0, K):
    """q(g) at reduced parameters lam in (0, 1/2) and prior mean mu0, from
    one factor of B = I + Lam^1/2 K Lam^1/2: Sigma = (K^-1 + diag(lam))^-1,
    mu = K v + mu0 with v = lam - 1/2, K v, the effective noise
    r = exp(mu - diag(Sigma)/2) (exponent clipped at +-700) and the
    bound's q(g) terms trq = tr(Sigma)/4 and
    kl = KL(q || N(mu0 1, K)) = (log|B| - lam^T diag(Sigma) + v^T K v)/2.
    Returns (mu, Sigma, Kv, r, trq, kl)."""
    Sigma, LB = _reduced_cov(lam, K)
    sdiag = np.diag(Sigma)
    v = lam - 0.5
    Kv = K @ v
    mu = Kv + mu0
    r = np.exp(np.clip(mu - 0.5 * sdiag, -700.0, 700.0))
    logdet_B = 2.0 * np.sum(np.log(np.diag(LB)))
    kl = 0.5 * (logdet_B - float(lam @ sdiag) + float(v @ Kv))
    return mu, Sigma, Kv, r, 0.25 * float(np.sum(sdiag)), float(kl)


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


def _bound_value_grad(x, K, Phi_a, alpha, y):
    """Bound and its analytic gradient in the packed variables
    x = [eta (N), mu0] with lam = sigmoid(eta)/2, under the noise-GP
    prior covariance K."""
    n = y.size
    lam = np.clip(0.5 * _sigmoid(x[:n]), 1e-12, 0.5 - 1e-12)
    _, Sigma, Kv, r, trq, kl = _q_point(lam, x[n], K)

    # evidence, beta = C^-1 y and diag(C^-1) through the m x m weight
    # precision: C^-1 = R^-1 - W^T W with W = L^-1 Phi^T R^-1
    Phir, G, b = _gram(Phi_a, r, y)
    L = _factor(G, alpha)
    f1, vb = _evidence(L, b, alpha, r, y)
    W = lower_solve(L, Phir.T)
    beta = y / r - W.T @ vb
    cinv_diag = 1.0 / r - np.sum(W**2, axis=0)
    fval = f1 - trq - kl

    # gradient pieces
    d = 0.5 * (beta**2 - cinv_diag)
    u = d * r

    fs = -0.5 * u - 0.25 + 0.5 * lam          # diag of dF/dSigma
    g_lam = K @ u + ((-fs)[:, None] * Sigma**2).sum(axis=0) - Kv
    g_eta = g_lam * lam * (1.0 - 2.0 * lam)
    return fval, np.append(g_eta, np.sum(u))


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


def _all_sq(G, d, c, active, L, posterior):
    """Every column's (s_j, q_j) under noise diag(r), with column j left
    out of C, from G = Phi^T R^-1 Phi_a, d = diag(Phi^T R^-1 Phi),
    c = Phi^T R^-1 y, the factor L of the weight precision H and the
    weight posterior (mu_w, Sigma_w) from it.

    Outside the model s = d - |L^-1 G^T|^2 (Woodbury through L, not the
    explicit Sigma_w, whose subtraction lost up to 2.5e-6 relative on a
    column nearly in the active span) and q = c - G mu_w; the columns in
    it take :func:`_sparsity_quality`."""
    mu_w, Sigma_w = posterior
    s = d.copy()
    if L is not None:
        s -= np.sum(lower_solve(L, G.T) ** 2, axis=0)
    q = c - G @ mu_w
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


def update_alpha(active, alpha, Phi, r, y, tol: float):
    """Tipping & Faul's (2003) basis selection at a fixed noise diag(r):
    take the single add, re-estimate or delete over the columns of Phi
    with the largest evidence gain, refit, and repeat until the best gain
    is at most max(tol (1 + |ev|), 1e-12).  ``active`` indexes Phi's
    columns and may be empty; ``alpha`` holds their precisions.

    A column's share of the log evidence at precision a is
    l(a) = (q^2 / (a + s) - log(1 + s / a)) / 2, l(inf) = 0, with (s, q)
    its sparsity and quality (:func:`_all_sq`), so each action gains
    exactly l(a_new) - l(a_old) and the evidence never falls.  From the
    empty set the first add is the column with the largest
    (phi^T R^-1 y)^2 / phi^T R^-1 phi.

    R^-1 Phi, diag(Phi^T R^-1 Phi), Phi^T R^-1 y and the noise terms of
    the evidence are formed once per call; each state then costs one
    m x m factorization, which scores it and gives every column's (s, q).
    Start precisions that do not factor raise
    :class:`FactorizationError`.  Returns (active, alpha, log evidence,
    (mu_w, Sigma_w)): the state the selection stops at, its evidence and
    its weight posterior, so no caller factors that state again."""
    active, alpha = list(active), np.asarray(alpha, dtype=float).copy()
    Phir = Phi / r[:, None]
    d = np.sum(Phi * Phir, axis=0)
    c = Phir.T @ y
    noise = _noise_terms(r, y)
    while True:
        G = Phi.T @ Phir[:, active]
        L = _factor(G[active], alpha)
        ev, _ = _evidence(L, c[active], alpha, r, y, noise)
        posterior = _posterior(L, c[active])
        a_old = np.full(Phi.shape[1], np.inf)
        a_old[active] = alpha
        a_new, gain = _actions(*_all_sq(G, d, c, active, L, posterior),
                               a_old)
        j = int(np.argmax(gain))
        if gain[j] <= max(tol * (1.0 + abs(ev)), 1e-12):
            return active, alpha, ev, posterior
        if np.isinf(a_old[j]):  # add
            active.append(j)
            alpha = np.append(alpha, a_new[j])
        elif np.isinf(a_new[j]):  # delete
            alpha = np.delete(alpha, active.index(j))
            active.remove(j)
        else:  # re-estimate
            alpha[active.index(j)] = a_new[j]


def _standardized(data: Dataset, standardize_data: bool):
    """The working data and the record that maps predictions back."""
    if standardize_data:
        return standardize(data)
    return data, Standardization.identity(data.q)


def _setup(work: Dataset):
    """Starting point shared by fit_vi and fit_ep: the empty basis, and
    the noise-GP prior at the median-distance lengthscale, unit signal
    variance, jitter 1e-6 and mu0 = log(0.1 var y), with its covariance
    K at the training inputs.  Returns (active, alpha, prior, K)."""
    n = work.n
    if n < 3:
        raise ValueError("need at least 3 points")
    D2 = _sqdist(work.X, work.X)
    off = D2[np.triu_indices(n, k=1)]
    ell0 = float(np.sqrt(np.median(off[off > 0]))) if np.any(off > 0) else 1.0
    try:
        kernel = KernelSpec(lengthscale=ell0, include_bias=False)
    except ValueError as exc:  # its square leaves the float range
        raise DataError(f"the noise GP's lengthscale, the median input "
                        f"distance {ell0:.3g}, is out of range; rescale "
                        "the inputs") from exc
    mu0 = float(np.log(0.1 * max(float(np.var(work.y)), 1e-12)))
    prior = GpNoisePrior(mu0, kernel)
    return [], np.zeros(0), prior, gp_covariance(work.X, prior)


def _gp_noise(prior: GpNoisePrior, mu, Sigma):
    """The log-noise fields of an ``HrvmModel``: the noise-GP prior and
    q(g) = N(mu, Sigma) at the training inputs."""
    return dict(noise_mu0=prior.mu0,
                noise_lengthscale=prior.kernel.lengthscale,
                noise_signal_variance=prior.kernel.signal_variance,
                noise_jitter=prior.jitter, g_mu=mu, g_Sigma=Sigma)


def _clamped_noise(n, sigma2):
    """The noise fields of an ``HrvmModel`` over n training inputs whose
    log-noise is clamped at log sigma2.  The noise-GP hyperparameters are
    neutral values that ``predict`` never reads for such a model."""
    log_s2 = float(np.log(sigma2))
    return _gp_noise(GpNoisePrior(log_s2, KernelSpec(include_bias=False)),
                     np.full(n, log_s2), np.zeros((n, n)))


def _finish(method, kernel, work, record, active, alpha, posterior, noise,
            **fit):
    """The model the trainers return: the final active set, precisions
    and weight posterior (mu_w, Sigma_w), the noise fields ``noise``
    (:func:`_gp_noise`), the record ``fit`` of the run, and a copy of the
    training inputs ``work.X`` (the basis centres)."""
    mu_w, Sigma_w = posterior
    return HrvmModel(method=method, kernel=kernel, centers=work.X.copy(),
                     active_indices=list(active), alpha=alpha, mu_w=mu_w,
                     Sigma_w=Sigma_w, standardization=record, **noise, **fit)


def _constant(y):
    """Whether the target has no spread, or a variance that underflows."""
    return float(np.var(y)) <= 0.0 or np.ptp(y) == 0.0


def _degenerate(method, kernel, work, record, config):
    """Every trainer's model of a :func:`_constant` target: the bias
    weight (if any) is the constant, at unit noise.  Fitted, such a target
    makes the VI weight precision singular and drives EP's noise to 0."""
    k = int(kernel.include_bias)
    return HrvmModel(method=method, kernel=kernel, centers=work.X.copy(),
                     active_indices=list(range(k)), alpha=np.full(k, 1e6),
                     mu_w=np.full(k, work.y[0]), Sigma_w=np.full((k, k), 1e-6),
                     standardization=record, status="degenerate",
                     config=asdict(config), **_clamped_noise(work.n, 1.0))


def fit_vi(data: Dataset, kernel: Optional[KernelSpec] = None,
           config: Optional[VIConfig] = None) -> HrvmModel:
    """Train by alternating: one L-BFGS ascent of the bound over the
    reduced q(g) parameters and mu0, under the noise-GP prior covariance
    K that ``_setup`` builds once (its lengthscale and signal variance
    are held); then Tipping & Faul's basis selection at the new noise
    (``update_alpha``, stopped at ``config.tol``), whose deletes prune
    the basis.  The basis is first selected once at the start q(g), so
    q(g) never fits y with an empty basis.  With ``config.clamp_g`` set,
    q(g) stays a point mass and only the basis selection runs.  The
    second ascent that fails without progress ends the fit as
    ``stalled``.  ``training_log`` holds the bound L-BFGS maximizes, at
    the end of each outer iteration.

    q(g) starts at lam = 1/2 - 1/(4 K 1), which puts the start log-noise
    near mu0 - 1/4 at every N: a constant lam makes it fall as the rows
    of K grow with N, and at the small noise of a constant lam = 1/4 the
    basis selection overfits (the weight precision stopped factoring at
    N=200)."""
    kernel = kernel or KernelSpec()
    config = config or VIConfig()
    work, record = _standardized(data, config.standardize)
    Phi = build_design_matrix(work.X, kernel)
    active, alpha, prior, K = _setup(work)
    if _constant(work.y):
        return _degenerate("vi", kernel, work, record, config)
    y, n, mu0 = work.y, work.n, prior.mu0
    lam = 0.5 - 0.25 / K.sum(axis=1)

    clamp = config.clamp_g
    if clamp is None:  # q(g), r and its bound terms, kept current below
        mu, Sigma, _, r, trq, kl = _q_point(lam, mu0, K)
    else:  # a point mass, whose bound terms are 0
        mu, Sigma = np.full(n, float(clamp)), np.zeros((n, n))
        r, trq, kl = noise_diag(mu, Sigma), 0.0, 0.0
    active, alpha, _, posterior = update_alpha(active, alpha, Phi, r, y,
                                               config.tol)

    training_log: List[float] = []
    status = "max_iter"
    f_prev = -np.inf
    stalled_once = False

    for it in range(config.max_iter):
        Phi_a = Phi[:, active]

        if clamp is None:
            x0 = np.append(_eta_from_lam(lam), mu0)

            # (f, g) of every point this iteration has evaluated: L-BFGS
            # and the acceptance test below share them.  The start point
            # must evaluate; a trial point where the bound breaks down
            # reads -inf, so the line search backs off.
            memo = {x0.tobytes(): _bound_value_grad(x0, K, Phi_a, alpha, y)}

            def negf(x):
                key = x.tobytes()
                if key not in memo:
                    try:
                        memo[key] = _bound_value_grad(x, K, Phi_a, alpha, y)
                    except (FactorizationError, FloatingPointError):
                        memo[key] = (-np.inf, np.zeros(x.size))
                f, g = memo[key]
                return -f, -g

            f0 = memo[x0.tobytes()][0]
            res = minimize(negf, x0, jac=True, method="L-BFGS-B",
                           options={"maxiter": _INNER_MAXITER, "maxls": 40})
            # a line-search abort counts as a failure only when the run
            # also made no progress from its starting point
            if not (res.success or res.fun < -f0 - 1e-12):
                if stalled_once:
                    status = "stalled"
                stalled_once = True
            if -negf(res.x)[0] >= f0:
                lam = np.clip(0.5 * _sigmoid(res.x[:n]), 1e-12, 0.5 - 1e-12)
                mu0 = float(res.x[n])
            mu, Sigma, _, r, trq, kl = _q_point(lam, mu0, K)

        # the evidence at the new precisions is update_alpha's; the bound
        # subtracts the q(g) terms in _bound_value_grad's order
        active, alpha, ev, posterior = update_alpha(active, alpha, Phi, r,
                                                    y, config.tol)
        fval = ev - trq - kl
        training_log.append(fval)

        if status == "stalled":
            break
        if it > 0 and abs(fval - f_prev) < config.tol * (1.0 + abs(fval)):
            status = "converged"
            break
        f_prev = fval

    return _finish("vi", kernel, work, record, active, alpha, posterior,
                   _gp_noise(replace(prior, mu0=mu0), mu, Sigma),
                   training_log=training_log, status=status, n_iter=it + 1,
                   config=asdict(config))
