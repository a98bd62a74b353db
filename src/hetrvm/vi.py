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
prior is one rbf ``GpNoisePrior``, whose lengthscale and signal variance
are held at their start, as under EP: the prior covariance K is an input
of the bound, split once per fit by the core's ``_setup``, the split
``predict`` rebuilds from the model's ``noise_prior``, so both trainers
and the predictions read one noise model.  Learning them by the bound
(type-II maximum likelihood) collapsed q(g) to a constant noise on 5 of
20 heteroscedastic N=100 draws of ``tools/status_sweep.py`` (signal
variance below 1e-7), at a cost of up to 0.2 nats of held-out NLPD
against EP (Rasmussen & Williams, 2006, sec. 5.4).

At a fixed q(g) the precisions maximize the evidence, so the basis is
the trainers' shared selection, ``update_alpha`` (:mod:`hetrvm.core`).
The bound's q(g) terms do not depend on the precisions, so every action
raises the bound by its evidence gain.  Like the evidence, the bound's
gradient is evaluated through the m x m weight precision: it needs
C^-1 y and diag(C^-1) only, and no N x N inverse of C or K is formed.
q(g)'s covariance comes from ``numerics._q_cov`` in O(N r^2), r the
rank of the split prior; ``_q_point`` adds q(g)'s mean, the effective
noise and the bound's q(g) terms, to L-BFGS and to ``training_log``
alike.  Only ``collapsed_bound``, the dense oracle of the tests, forms
an N x N matrix of the noise GP.  Within one outer iteration every
distinct point is evaluated once.

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

from .core import (_MAX_ITER, _check_loop, _constant, _degenerate, _evidence,
                   _finish, _gram, _setup, _weight_fit, noise_diag,
                   update_alpha)
from .data import Dataset, standardize
from .kernels import KernelSpec, build_design_matrix
from .model import HrvmModel
from .numerics import (FactorizationError, _factor, _q_cov, gauss_kl,
                       lower_solve)
# kept for perfbench's tracer until ROADMAP item 1
from .core import weight_posterior  # noqa: F401
from .numerics import chol_factor  # noqa: F401

__all__ = ["VIConfig", "VariationalState", "collapsed_bound", "fit_vi"]

_INNER_MAXITER = 40  # L-BFGS iterations per outer step


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call (see the
    module docstring)."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


@dataclass(frozen=True)
class VIConfig:
    max_iter: int = _MAX_ITER
    tol: float = 1e-6

    def __post_init__(self):
        _check_loop(self.max_iter, self.tol)


@dataclass
class VariationalState:
    """Everything the bound depends on, at the training inputs."""

    mu: np.ndarray
    Sigma: np.ndarray
    alpha: np.ndarray
    active_indices: List[int]
    mu0: float
    K: np.ndarray                # noise-GP prior covariance at the inputs


def _q_point(lam, mu0, cov):
    """q(g) at reduced parameters lam in (0, 1/2) and prior mean mu0 under
    the split prior ``cov``: Sigma = (K^-1 + diag(lam))^-1 as the
    ``numerics._QCov`` q of ``_q_cov``, mu = K v + mu0 with v = lam - 1/2,
    K v, the effective noise r = exp(mu - diag(Sigma)/2) (exponent clipped
    at +-700) and the bound's q(g) terms trq = tr(Sigma)/4 and
    kl = KL(q || N(mu0 1, K)) = (log|B| - lam^T diag(Sigma) + v^T K v)/2.
    Returns (mu, q, Kv, r, trq, kl)."""
    q = _q_cov(lam, cov)
    v = lam - 0.5
    Kv = cov.mv(v)
    mu = Kv + mu0
    r = 0.5 * q.diag
    np.subtract(mu, r, out=r)
    np.maximum(r, -700.0, out=r)
    np.exp(np.minimum(r, 700.0, out=r), out=r)
    kl = 0.5 * (q.logdet_B - float(lam @ q.diag) + float(v @ Kv))
    return mu, q, Kv, r, 0.25 * float(q.diag.sum()), kl


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
    """1 / (1 + exp(-x)) where x >= 0 and e / (1 + e), e = exp(x), where
    not, from one exp(-|x|): min(x, -x) is -|x| that keeps a nan's sign."""
    e = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0.0, 1.0, e)
    out /= 1.0 + e
    return out


def _lam_from_eta(eta):
    """lam = sigmoid(eta) / 2, kept within [1e-12, 1/2 - 1e-12]."""
    lam = _sigmoid(eta)
    lam *= 0.5
    np.maximum(lam, 1e-12, out=lam)
    return np.minimum(lam, 0.5 - 1e-12, out=lam)


def _eta_from_lam(lam):
    lam = np.clip(lam, 1e-12, 0.5 - 1e-12)
    s = 2.0 * lam  # sigmoid value
    return np.log(s) - np.log1p(-s)


def _bound_value_grad(x, cov, Phi_a, alpha, y):
    """Bound and its analytic gradient in the packed variables
    x = [eta (N), mu0] with lam = sigmoid(eta)/2, under the split noise-GP
    prior covariance ``cov`` (``kernels._split_prior``).

    At N = 100 an evaluation costs what its numpy calls cost, not their
    arithmetic (r = 16 prior columns, m near 5 active ones), so R^-1 y and
    each other vector is formed once and updated in place, in its
    formula's order of operations: every value keeps the bits of the
    formulas written out (``tests/oracles.py``, ``bound_formula``)."""
    n = y.size
    lam = _lam_from_eta(x[:n])
    _, q, Kv, r, trq, kl = _q_point(lam, x[n], cov)

    # evidence, beta = C^-1 y and diag(C^-1) through the m x m weight
    # precision: C^-1 = R^-1 - W^T W with W = L^-1 Phi^T R^-1
    Phir, G, b = _gram(Phi_a, r, y)
    L = _factor(G, alpha)
    f1, vb, beta = _evidence(L, b, alpha, r, y)
    W = lower_solve(L, Phir.T)
    beta -= W.T @ vb
    cinv_diag = 1.0 / r
    cinv_diag -= np.square(W, out=W).sum(axis=0)
    fval = f1 - trq - kl

    # gradient pieces: u = r (beta^2 - diag(C^-1)) / 2
    u = np.square(beta, out=beta)
    u -= cinv_diag
    u *= 0.5
    u *= r

    fs = -0.5 * u                             # diag of dF/dSigma
    fs -= 0.25
    fs += 0.5 * lam
    g_lam = cov.mv(u)
    g_lam += q.sq_mul(np.negative(fs, out=fs))
    g_lam -= Kv
    g_lam *= lam
    dlam = 2.0 * lam                          # dlam/deta = lam (1 - 2 lam)
    g = np.empty(n + 1)
    np.multiply(g_lam, np.subtract(1.0, dlam, out=dlam), out=g[:n])
    g[n] = u.sum()
    return fval, g


def fit_vi(data: Dataset, kernel: Optional[KernelSpec] = None,
           config: Optional[VIConfig] = None) -> HrvmModel:
    """Train by alternating: one L-BFGS ascent of the bound over the
    reduced q(g) parameters and mu0, under the noise-GP prior covariance
    K that ``_setup`` splits once (its lengthscale and signal
    variance are held); then Tipping & Faul's basis selection at the new
    noise (``update_alpha``, stopped at ``config.tol``), whose deletes
    prune the basis.  The basis is first selected once at the start q(g),
    so q(g) never fits y with an empty basis.  The second ascent that
    fails without progress ends the fit as ``stalled``.  ``training_log``
    holds the bound L-BFGS maximizes, at the end of each outer
    iteration.

    q(g) starts at lam = 1/2 - 1/(4 K 1), which puts the start log-noise
    near mu0 - 1/4 at every N: a constant lam makes it fall as the rows
    of K grow with N, and at the small noise of a constant lam = 1/4 the
    basis selection overfits (the weight precision stopped factoring at
    N=200)."""
    kernel = kernel or KernelSpec()
    config = config or VIConfig()
    work, record = standardize(data)
    prior, cov = _setup(work)
    if _constant(work.y):
        return _degenerate("vi", kernel, work, record, config)
    y, n, mu0 = work.y, work.n, prior.mu0
    Phi = build_design_matrix(work.X, kernel)
    lam = 0.5 - 0.25 / cov.mv(np.ones(n))
    *_, r, trq, kl = _q_point(lam, mu0, cov)  # kept current below
    active, alpha, _, posterior = update_alpha([], [], Phi, r, y, config.tol)

    training_log: List[float] = []
    status = "max_iter"
    f_prev = -np.inf
    stalled_once = False

    for it in range(config.max_iter):
        Phi_a = Phi[:, active]
        x0 = np.append(_eta_from_lam(lam), mu0)

        # (f, g) of every point this iteration has evaluated: L-BFGS
        # and the acceptance test below share them.  The start point
        # must evaluate; a trial point where the bound breaks down
        # reads -inf, so the line search backs off.
        memo = {x0.tobytes(): _bound_value_grad(x0, cov, Phi_a, alpha, y)}

        def negf(x):
            key = x.tobytes()
            if key not in memo:
                try:
                    memo[key] = _bound_value_grad(x, cov, Phi_a, alpha, y)
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
            lam = _lam_from_eta(res.x[:n])
            mu0 = float(res.x[n])
        *_, r, trq, kl = _q_point(lam, mu0, cov)

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
                   noise_prior=replace(prior, mu0=mu0), g_prec=lam,
                   g_coef=lam - 0.5, training_log=training_log,
                   status=status, n_iter=it + 1, config=asdict(config))
