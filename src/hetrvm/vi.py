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
of the bound, split once per fit by ``_split_prior``, the split
``predict`` rebuilds from the model's ``noise_prior``, so both trainers
and the predictions read one noise model.  Learning them by the bound
(type-II maximum likelihood) collapsed q(g) to a constant noise on 5 of
20 heteroscedastic N=100 draws of ``tools/status_sweep.py`` (signal
variance below 1e-7), at a cost of up to 0.2 nats of held-out NLPD
against EP (Rasmussen & Williams, 2006, sec. 5.4).

The heteroscedastic RVM is the RVM with sigma2 I replaced by R, so at a
fixed q(g) the precisions maximize the same evidence the RVM's do:
``update_alpha`` is Tipping & Faul's (2003) sequential add / re-estimate
/ delete under diag(r), from the empty basis.  Between actions it carries
the weight posterior and every column's sparsity and quality, updated in
O(M m) per action by their appendix formulas; it factors the m x m
weight precision at the state it starts from and at each state where it
may stop.  The bound's q(g) terms do not depend on the precisions, so every
action raises the bound by its evidence gain.

One basis selection, whose deletes are the only pruning rule, one weight
fit (the posterior and the evidence log N(y | 0, Phi A^-1 Phi^T + R)
from one factorization) and one model finish: every trainer uses these,
EP as they are and the RVM with R = sigma2 I; a model keeps the weight
posterior its trainer last fitted.  The evidence is evaluated through
the m x m weight precision (Woodbury), never the N x N covariance, and
so is the bound's gradient: it needs C^-1 y and diag(C^-1) only, and no
N x N inverse of C or K is formed.

K is held for the whole fit, so ``_setup`` splits it once, by a pivoted
Cholesky that never forms K, into its jitter j and a part of rank r:
K = j I + F F^T (``_split_prior``; r is 14-16 on the 1-D draws at
N = 100-3200, and r = N where K is full rank, as with 5 inputs).  One
q(g) routine, ``_q_cov``, then gives Sigma = (K^-1 + diag(lam))^-1 by
Woodbury on B = I + Lam^1/2 K Lam^1/2 (Rasmussen & Williams 2006, sec.
3.6), factoring only an r x r matrix: diag(Sigma), Sigma x,
(Sigma o Sigma) w and log|B| in O(N r^2).  ``_q_point`` adds q(g)'s
mean, the effective noise and the bound's q(g) terms, to L-BFGS and to
``training_log`` alike; EP's refresh and ``predict`` use the same
routines.  No fit, prediction or model load forms an N x N matrix of
the noise GP: only ``collapsed_bound``, the dense oracle of the tests,
does.  Within one outer iteration every distinct point is evaluated
once.

L-BFGS is ``scipy.optimize.minimize``, reached through this module's
``minimize``, which imports the optimizer on its first call.  Loading
this module, and with it the package and its CLI, does not import
``scipy.optimize``: it is about a third of the package's start-up time,
and only ``fit_vi`` needs it, so the first VI fit in a process pays it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import List, NamedTuple, Optional

import numpy as np

from .data import DataError, Dataset, standardize
from .kernels import (GpNoisePrior, KernelSpec, build_design_matrix,
                      cross_covariance, _sqdist)
from .model import HrvmModel
from .numerics import (FactorizationError, _check_int, chol_factor,
                       chol_solve, gauss_kl, lower_solve)

__all__ = [
    "VIConfig",
    "VariationalState",
    "noise_diag",
    "weight_posterior",
    "collapsed_bound",
    "update_alpha",
    "fit_vi",
]

_LOG_2PI = np.log(2 * np.pi)
_INNER_MAXITER = 40  # L-BFGS iterations per outer step
# Every trainer's default iteration limit (RVM alternations, VI outer
# iterations, EP passes).  No fit comes near it: over the status sweep's
# draws at N=100 and N=400 the mean n_iter is 3.8 and 3.1 for the RVM,
# 3.2 and 4.3 for VI, and 15.2 and 15.0 for EP.
_MAX_ITER = 200


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


def _gram(Phi_a, r, y):
    """The Gram step: R^-1 Phi, G = Phi^T R^-1 Phi and b = Phi^T R^-1 y
    for R = diag(r).  They depend on the noise only, so every precision
    vector tried at one r reuses them."""
    Phir = Phi_a / r[:, None]
    return Phir, Phi_a.T @ Phir, Phir.T @ y


def _factor(G, alpha):
    """The factor step: the Cholesky factor L of the weight precision
    H = diag(alpha) + G (0 x 0 for an empty active set)."""
    H = G.copy()
    H.reshape(-1)[::H.shape[0] + 1] += alpha  # diag(alpha) + G
    return chol_factor(H, "weight precision")


def _posterior(L, b):
    """Sigma_w = H^-1 and mu_w = H^-1 b from the factor of H."""
    Sigma_w = chol_solve(L, np.eye(L.shape[0]))
    Sigma_w = 0.5 * (Sigma_w + Sigma_w.T)
    mu_w = chol_solve(L, b)
    return mu_w, Sigma_w


def _evidence(L, b, alpha, r, y):
    """log N(y | 0, C) with C = Phi diag(1/alpha) Phi^T + diag(r), by
    Woodbury on the m x m weight precision H = L L^T (Tipping & Faul,
    2003): log|C| = sum log r + log|H| - sum log alpha and
    y^T C^-1 y = y^T R^-1 y - v^T v, with v = L^-1 b.

    Returns (log evidence, v, R^-1 y)."""
    v = lower_solve(L, b)
    logdet = np.log(r).sum() + (2.0 * np.log(L.diagonal()).sum()
                                - np.log(alpha).sum())
    ry = y / r
    quad = y @ ry - v @ v
    return float(-0.5 * (y.size * _LOG_2PI + logdet + quad)), v, ry


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


class _PriorCov(NamedTuple):
    """The noise-GP prior covariance K at the training inputs in its split
    K = jitter I + F F^T, F of N x r (:func:`_split_prior`)."""

    jitter: float
    F: np.ndarray

    def mv(self, x):
        """K x through the split, in O(N r)."""
        return self.jitter * x + self.F @ (self.F.T @ x)


def _split_prior(X, prior: GpNoisePrior):
    """K = jitter I + F F^T for the noise-GP prior covariance K at the
    rows of X, by a greedy pivoted Cholesky of K - jitter I that never
    forms K (Fine & Scheinberg, JMLR 2001): each step takes the kernel
    column at the largest residual diagonal, less the columns so far,
    until that diagonal (which bounds every residual entry) is at most
    N eps sigma_v^2.  The prior is an rbf, so the diagonal of K - jitter I
    starts at sigma_v^2.  A value not finite raises FactorizationError."""
    n, sv = X.shape[0], prior.signal_variance
    d = np.full(n, sv)              # residual diagonal of the rbf part
    Ft = np.empty((min(n, 32), n))  # rows: F's columns, grown by doubling
    for r in range(n + 1):
        i = int(np.argmax(d))
        if r == n or d[i] <= n * np.finfo(float).eps * sv:
            break
        if r == len(Ft):
            Ft = np.concatenate([Ft, np.empty((min(r, n - r), n))])
        col = cross_covariance(X[i:i + 1], X, prior)[0] - Ft[:r, i] @ Ft[:r]
        if not (np.isfinite(d[i]) and np.all(np.isfinite(col))):
            raise FactorizationError(f"noise prior: column {i} not finite")
        Ft[r] = col / np.sqrt(d[i])
        d -= Ft[r] ** 2
    return _PriorCov(float(prior.jitter), Ft[:r].T)


class _QCov(NamedTuple):
    """q(g)'s covariance Sigma = (K^-1 + diag(lam))^-1 in the factored
    form Sigma = diag(jd) + Y^T Y of :func:`_q_cov`."""

    jd: np.ndarray         # j / d, d = 1 + j lam
    Y: np.ndarray          # r x N
    diag: np.ndarray       # diag(Sigma)
    logdet_B: float        # log|I + Lam^1/2 K Lam^1/2|

    def mul(self, x):
        """Sigma x, in O(N r)."""
        return self.jd * x + self.Y.T @ (self.Y @ x)

    def sq_mul(self, w):
        """(Sigma o Sigma) w, o the elementwise product, in O(N r^2) as
        w jd (jd + 2 diag Y^T Y) + colsum(Y o (Y diag(w) Y^T Y))."""
        Y, jd = self.Y, self.jd
        t = 2.0 * self.diag
        t -= jd
        out = w * jd
        out *= t
        out += np.einsum("ij,ij->j", Y, ((Y * w) @ Y.T) @ Y)
        return out


def _q_cov(lam, cov):
    """Sigma = (K^-1 + diag(lam))^-1 for site precisions lam >= 0 under the
    split prior ``cov`` (K = j I + F F^T), by Woodbury on
    B = I + Lam^1/2 K Lam^1/2: with d = 1 + j lam and
    Omega = F^T diag(lam/d) F, Sigma = diag(j/d) + Y^T Y for
    Y = L^-1 (F/d)^T, L L^T = I + Omega, and
    log|B| = sum log d + log|I + Omega|.  Only the r x r matrix I + Omega
    is factored: O(N r^2).  Returns the :class:`_QCov`."""
    jitter, Ft = cov.jitter, cov.F.T
    d = jitter * lam
    d += 1.0
    root = lam / d
    Gt = Ft * np.sqrt(root, out=root)  # G^T
    A = Gt @ Gt.T
    A.reshape(-1)[::A.shape[0] + 1] += 1.0  # I + Omega
    L = chol_factor(A, "reduced system")
    Y = lower_solve(L, Ft / d)
    jd = jitter / d
    diag = np.einsum("ij,ij->j", Y, Y)
    diag += jd
    return _QCov(jd, Y, diag, float(np.log(d, out=d).sum()
                                    + 2.0 * np.log(L.diagonal()).sum()))


def _q_point(lam, mu0, cov):
    """q(g) at reduced parameters lam in (0, 1/2) and prior mean mu0 under
    the split prior ``cov``: Sigma = (K^-1 + diag(lam))^-1 as the
    :class:`_QCov` q of :func:`_q_cov`, mu = K v + mu0 with v = lam - 1/2,
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
    prior covariance ``cov`` (:func:`_split_prior`).

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
    return (Sigma_w * G).sum(axis=1) / d, mu_w / d


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
    V = lower_solve(L, G.T)
    s = d - np.square(V, out=V).sum(axis=0)
    q = c - G @ mu_w
    s[active], q[active] = _sparsity_quality(G[active], Sigma_w, mu_w)
    return s, q


def _actions(s, q, a_old):
    """Each column's evidence-optimal precision a_new (inf: out of the
    model) and its gain l(a_new) - l(a_old), -inf where not finite.  q^2
    is formed once and a_new and the gain are updated in place: every
    action's step calls this on all M columns, under
    :func:`update_alpha`'s ``np.errstate``, which keeps a division by 0
    or a value that is not finite quiet."""
    q2 = q * q
    theta = q2 - s
    a_new = s * s
    a_new /= theta
    np.putmask(a_new, ~(theta > 0.0), np.inf)
    gain = _ell(a_new, s, q2)
    gain -= _ell(a_old, s, q2)
    np.putmask(gain, ~np.isfinite(gain), -np.inf)
    return a_new, gain


def _ell(a, s, q2):
    """Each column's l(a) = (q^2 / (a + s) - log(1 + s / a)) / 2, from
    q2 = q^2: that expression's operations in its order, done in place
    in two temporaries."""
    out = a + s
    np.divide(q2, out, out)
    t = s / a
    out -= np.log1p(t, t)
    out *= 0.5
    return out


def _intact(mu_w, Sigma_w, s, q):
    """Whether an updated selection state can be scored: every value
    finite (their sum is, unless one is not or the sum overflows, which
    rescores as well) and every weight variance positive.  One reduction
    sums them all."""
    total = np.concatenate((s, q, mu_w, Sigma_w.ravel())).sum()
    return (math.isfinite(total)
            and min(Sigma_w.diagonal().tolist() + [1.0]) > 0.0)


def update_alpha(active, alpha, Phi, r, y, tol: float):
    """Tipping & Faul's (2003) basis selection at a fixed noise diag(r):
    take the single add, re-estimate or delete over the columns of Phi
    with the largest evidence gain, and repeat until the best gain is at
    most max(tol (1 + |ev|), 1e-12).  ``active`` indexes Phi's columns and
    may be empty; ``alpha`` holds their precisions.

    A column's share of the log evidence at precision a is
    l(a) = (q^2 / (a + s) - log(1 + s / a)) / 2, l(inf) = 0, with (s, q)
    its sparsity and quality (:func:`_all_sq`), so each action gains
    exactly l(a_new) - l(a_old) and the evidence never falls.  From the
    empty set the first add is the column with the largest
    (phi^T R^-1 y)^2 / phi^T R^-1 phi.

    R^-1 Phi, diag(Phi^T R^-1 Phi) and Phi^T R^-1 y are formed once per
    call, and every column's precision is kept once, in a vector that
    reads inf outside the model.  Between actions the call
    carries G = Phi^T R^-1 Phi_a, its active rows, the weight posterior
    (mu_w, Sigma_w) and every column's (s, q), and each action updates
    them by Tipping & Faul's appendix formulas in O(M m): a re-estimate
    is a rank-one update of Sigma_w with
    kappa = 1 / (Sigma_kk + 1 / (a_new - a_old)), a delete the same with
    a_new = inf and then drops row and column k, and an add forms one Gram
    column Phi^T R^-1 phi_j and borders Sigma_w.  Where a precision falls
    far enough for that sum to cancel, kappa's denominator is taken as
    Sigma_kk (a_new + s) / (a_new - a_old), its value at
    Sigma_kk = 1 / (a_old + s): over start precisions spread across 50
    decades the basis and the evidence (to 1e-9 relative) then stay those
    of a selection that factors every state.  The evidence grows by each
    action's gain; the in-model (s, q) come from
    :func:`_sparsity_quality` on the carried posterior.

    An action updates Sigma_w, mu_w, s and q in place; an add or delete
    forms the arrays it grows or shrinks whole, in the layout a state
    scored from scratch has (G and Sigma_w C-contiguous: G @ x on another
    layout takes another BLAS path and moves the last bits).  At M = 101
    and m near 5 the step costs what its numpy calls cost, not their
    arithmetic: :func:`_actions` makes 23 ufunc calls, :func:`_intact`
    one reduction, and every action of a state runs under the one
    ``np.errstate`` the call enters per state scored from scratch.

    A state is scored from scratch, by one m x m factorization of the
    weight precision, at the start, where an update leaves a value that
    is not finite or a posterior variance that is not positive
    (:func:`_intact`), and where the best gain of an updated state falls
    to the stop threshold: the stop is decided on freshly factored
    (s, q), and the evidence and posterior returned come from that
    factor, not from the updates.  Start precisions that do not factor
    raise :class:`FactorizationError`.  A later state that does not
    factor ends the selection at the last state that did: near a
    singular weight precision the updates drift from the state they
    track (a wide basis kernel on ``goldberg_sine`` at N=149, where an
    updated state of 51 columns had a weight precision of condition
    number 3.5e17).  Returns (active, alpha, log evidence,
    (mu_w, Sigma_w)): the state the selection stops at, its evidence and
    its weight posterior, equal to :func:`_weight_fit`'s of that state,
    so no caller factors it again."""
    at = np.array(active, dtype=np.intp)  # the active set, in order
    Phir = Phi / r[:, None]
    d = (Phi * Phir).sum(axis=0)
    c = Phir.T @ y
    a_old = np.full(Phi.shape[1], np.inf)  # every column's precision
    a_old[at] = alpha
    start = None  # the last state scored from scratch, as returned
    while True:  # a state scored from scratch, then the updated ones
        alpha = a_old[at]
        Phir_a, H, b = _gram(Phi[:, at], r, y)
        G = Phi.T @ Phir_a
        try:
            L = _factor(H, alpha)
        except FactorizationError:
            if start is None:
                raise
            return start
        ev = _evidence(L, b, alpha, r, y)[0]
        mu_w, Sigma_w = _posterior(L, b)
        # the updates below change mu_w and Sigma_w in place
        start = at.tolist(), alpha, ev, (mu_w.copy(), Sigma_w.copy())
        s, q = _all_sq(G, d, c, at, L, (mu_w, Sigma_w))
        Ga = G[at]  # G's active rows, the Gram block of the active set
        fresh = True
        # a value that overflows or is not a number fails _intact
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            while True:
                a_new, gain = _actions(s, q, a_old)
                j = int(gain.argmax())
                gj = float(gain[j])
                if gj <= max(tol * (1.0 + abs(ev)), 1e-12):
                    break
                fresh = False
                ev += gj
                aj = a_new[j]
                if math.isinf(a_old[j]):  # add: border Sigma_w with j
                    m = at.size
                    Sg = Sigma_w @ G[j]
                    sjj = 1.0 / (aj + s[j])
                    mj = sjj * q[j]
                    col = Phi.T @ Phir[:, j]
                    e = col - G @ Sg
                    T = Sg[:, None] * Sg
                    T *= sjj
                    B = np.empty((m + 1, m + 1))
                    np.add(Sigma_w, T, out=B[:m, :m])
                    B[:m, m] = B[m, :m] = -sjj * Sg
                    B[m, m] = sjj
                    mu = np.empty(m + 1)
                    np.subtract(mu_w, mj * Sg, out=mu[:m])
                    mu[m] = mj
                    t = e * e
                    t *= sjj
                    s -= t
                    e *= mj
                    q -= e
                    Gj = np.empty((G.shape[0], m + 1))
                    Gj[:, :m] = G
                    Gj[:, m] = col
                    Sigma_w, mu_w, G = B, mu, Gj
                    at = np.append(at, j)
                    Ga = G[at]
                else:  # re-estimate, or delete at a_new = inf
                    k = at.tolist().index(j)  # list.index: no numpy call
                    sj, qj = s[j], q[j]
                    Sk = Sigma_w[:, k].copy()
                    # kappa = 1 / (Sigma_kk + 1 / (a_new - a_old)), the
                    # sum in its form free of cancellation where it falls
                    # below Sigma_kk / 2
                    step = aj - a_old[j]
                    den = Sk[k] + 1.0 / step
                    if abs(den) < 0.5 * Sk[k]:
                        den = Sk[k] * (aj + sj) / step
                    kappa = 1.0 / den
                    z = G @ Sk
                    km = kappa * mu_w[k]
                    t = z * z
                    t *= kappa
                    s += t
                    z *= km
                    q += z
                    mu_w -= km * Sk
                    T = Sk[:, None] * Sk
                    T *= kappa
                    Sigma_w -= T
                    if math.isinf(aj):
                        # out of the model, column j keeps the (s, q) it
                        # was scored with, which already left it out of C
                        s[j], q[j] = sj, qj
                        keep = np.arange(at.size - 1)
                        keep[k:] += 1
                        Sigma_w = Sigma_w.take(keep, 0).take(keep, 1)
                        mu_w, G = mu_w.take(keep), G.take(keep, 1)
                        at = at.take(keep)
                        Ga = G[at]
                a_old[j] = aj
                if not _intact(mu_w, Sigma_w, s, q):
                    break
                s[at], q[at] = _sparsity_quality(Ga, Sigma_w, mu_w)
        if fresh:
            return start


def _setup(work: Dataset):
    """The noise-GP prior shared by fit_vi and fit_ep: the median-distance
    lengthscale, unit signal variance, jitter 1e-6 and
    mu0 = log(0.1 var y), with its covariance K at the training inputs,
    split once as K = jitter I + F F^T (:func:`_split_prior`).  Returns
    (prior, cov), cov the :class:`_PriorCov`; fewer than 3 points, or
    standardized inputs whose squared distances are all 0 (or
    underflow), raise DataError."""
    n = work.n
    if n < 3:
        raise DataError("need at least 3 points")
    D2 = _sqdist(work.X, work.X)
    # the distances above the diagonal, row by row, as np.triu_indices
    # orders them, without its two index arrays of N^2/2 integers
    off = np.concatenate([D2[i, i + 1:] for i in range(n - 1)])
    ell0 = float(np.sqrt(np.median(off[off > 0]))) if np.any(off > 0) else 0.0
    mu0 = float(np.log(0.1 * max(float(np.var(work.y)), 1e-12)))
    try:
        prior = GpNoisePrior(mu0, ell0)
    except ValueError as exc:  # 0, or its square leaves the float range
        raise DataError(f"the noise GP's lengthscale, the median input "
                        f"distance {ell0:.3g}, is out of range: the inputs "
                        "are all equal or nearly so") from exc
    return prior, _split_prior(work.X, prior)


def _clamped_noise(sigma2):
    """The log-noise fields of an ``HrvmModel`` clamped at log sigma2: the
    prior ``GpNoisePrior(log sigma2)`` and no sites.  The prior's other
    hyperparameters are its defaults, which ``predict`` never reads for
    such a model."""
    return dict(noise_prior=GpNoisePrior(float(np.log(sigma2))),
                g_prec=np.zeros(0), g_coef=np.zeros(0))


def _finish(method, kernel, work, record, active, alpha, posterior, **fit):
    """The model the trainers return: the final active set, precisions
    and weight posterior (mu_w, Sigma_w), the standardized training
    inputs ``work.X`` (the basis centres), and the fields ``fit``: the
    log-noise (``noise_prior``, ``g_prec`` and ``g_coef``, or
    :func:`_clamped_noise`'s) and the record of the run."""
    mu_w, Sigma_w = posterior
    return HrvmModel(method=method, kernel=kernel, centers=work.X,
                     active_indices=list(active), alpha=alpha, mu_w=mu_w,
                     Sigma_w=Sigma_w, standardization=record, **fit)


def _constant(y):
    """Whether the target has no spread, or a variance that underflows."""
    return float(np.var(y)) <= 0.0 or np.ptp(y) == 0.0


def _degenerate(method, kernel, work, record, config):
    """Every trainer's model of a :func:`_constant` target: the bias
    weight (if any) is the standardized constant, 0 up to round-off, at
    unit noise; y_mean predicts the constant, with or without a bias.
    Fitted, such a target makes the VI weight precision singular and
    drives EP's noise to 0."""
    k = int(kernel.include_bias)
    return _finish(method, kernel, work, record, range(k), np.full(k, 1e6),
                   (np.full(k, work.y[0]), np.full((k, k), 1e-6)),
                   **_clamped_noise(1.0), status="degenerate",
                   config=asdict(config))


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
