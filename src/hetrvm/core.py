"""The trainers' shared core: the weight fit, Tipping & Faul's basis
selection, and every fit's set-up, loop checks and finish.

The heteroscedastic RVM is the RVM with sigma2 I replaced by
R = diag(r), trained by VI (:mod:`hetrvm.vi`) or EP (:mod:`hetrvm.ep`),
so at a fixed noise the precisions maximize the same evidence the RVM's
do: ``update_alpha`` is Tipping & Faul's (2003) sequential add /
re-estimate / delete under diag(r), from the empty basis.  Between
actions it carries the weight posterior and every column's sparsity and
quality, updated in O(M m) per action by their appendix formulas; it
factors the m x m weight precision at the state it starts from and at
each state where it may stop.

One basis selection, whose deletes are the only pruning rule, one weight
fit (the posterior and the evidence log N(y | 0, Phi A^-1 Phi^T + R)
from one factorization, ``numerics._factor``) and one model finish:
every trainer uses these, VI and EP as they are and the RVM
(:mod:`hetrvm.rvm`) with R = sigma2 I; a model keeps the weight
posterior its trainer last fitted.  The evidence is evaluated through
the m x m weight precision (Woodbury), never the N x N covariance.

The noise-GP prior is held for the whole of a VI or EP fit, so
``_setup`` splits its covariance K once, by a pivoted Cholesky that
never forms K, into its jitter j and a part of rank r: K = j I + F F^T
(``kernels._split_prior``; r is 14-16 on the 1-D draws at
N = 100-3200, and r = N where K is full rank, as with 5 inputs).  Both
trainers and ``predict`` take q(g)'s covariance from that split through
one routine, ``numerics._q_cov``.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np

from .data import DataError, Dataset
from .kernels import GpNoisePrior, _split_prior, _sqdist
from .model import HrvmModel
from .numerics import (FactorizationError, _as_float, _check_int, _factor,
                       chol_solve, lower_solve)

__all__ = ["noise_diag", "weight_posterior", "update_alpha"]

_LOG_2PI = np.log(2 * np.pi)
# Every trainer's default iteration limit (RVM alternations, VI outer
# iterations, EP passes).  No fit comes near it: over the status sweep's
# draws at N=100 and N=400 the mean n_iter is 3.8 and 3.1 for the RVM,
# 3.2 and 4.3 for VI, and 15.2 and 15.0 for EP.
_MAX_ITER = 200


def _check_loop(max_iter, tol, max_iter_name="max_iter"):
    """Reject trainer settings that would end a fit before it learns
    anything, or that are not numbers (a bool included)."""
    _check_int(max_iter, max_iter_name, 1)
    if _as_float(tol) is None or not (0.0 <= tol < math.inf):
        raise ValueError("tol must be a finite and nonnegative number")


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
    split once as K = jitter I + F F^T (``kernels._split_prior``).
    Returns (prior, cov), cov the ``numerics._PriorCov``; fewer than 3
    points, or standardized inputs whose squared distances are all 0 (or
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
