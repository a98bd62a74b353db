"""Predictive distributions at new inputs and evaluation metrics.

All quantities are reported in the original units of the training data;
the log-variance moments refer to the log of the original-unit noise
variance (a constant shift of 2 log y_scale relative to training units).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import GpNoisePrior, cross_covariance, design_matrix_at
from .model import HrvmModel
from .numerics import gauss_hermite
from .vi import _q_cov, _split_prior

__all__ = ["PredictiveDist", "predict", "nlpd", "rmse"]


@dataclass(frozen=True)
class PredictiveDist:
    """Per-point predictive moments: the latent function contribution,
    the log-noise-variance GP moments, and their combination."""

    latent_mean: np.ndarray
    latent_var: np.ndarray
    g_mean: np.ndarray
    g_var: np.ndarray
    total_var: np.ndarray


@dataclass(frozen=True)
class _NoiseReadout:
    """The model-only part of the log-noise predictive, from training's
    split K = j I + F F^T: by Woodbury, (K + T^-1)^-1 = D^-1 - W^T W for
    the N-vector ``Dinv`` = tau / (1 + j tau) and the r x N matrix
    ``W`` = L^-1 F^T D^-1, L L^T = I + F^T D^-1 F.  Both are read-only,
    and every field is None for a clamped posterior (constant noise)."""

    prior: GpNoisePrior | None
    Dinv: np.ndarray | None
    W: np.ndarray | None


def _noise_readout(model: HrvmModel) -> _NoiseReadout:
    """The model's noise-GP readout, built on its first call and kept on
    the model."""
    if model._noise_readout is None:
        if model.noise_clamped:
            readout = _NoiseReadout(None, None, None)
        else:
            prior, tau = model.noise_prior(), model.g_prec
            q = _q_cov(tau, _split_prior(model.centers, prior))
            Dinv, W = tau / (1.0 + prior.jitter * tau), q.Y * tau
            Dinv.flags.writeable = W.flags.writeable = False
            readout = _NoiseReadout(prior, Dinv, W)
        model._noise_readout = readout
    return model._noise_readout


def predict(model: HrvmModel, Xstar) -> PredictiveDist:
    """Predictive moments at new inputs.

    The latent part comes from the weight posterior, with the basis
    evaluated at the active centres only; the log-variance process from
    its site form (Rasmussen & Williams 2006, Alg. 3.2),
    g_mean = mu0 + k*^T a and g_var = k** - k*^T (K + T^-1)^-1 k*.  The
    expected noise variance enters the total as the log-normal mean
    exp(g_mean + g_var / 2).

    The first call splits the prior at the training inputs as training
    did and keeps an N-vector and an r x N matrix W, so a later batch
    costs one matrix product W k*^T for its noise variance.  Treat a
    fitted model as read-only.  Non-finite inputs raise ``ValueError``.
    """
    record = model.standardization
    Xs = record.apply_x(Xstar)
    Phi_s = design_matrix_at(Xs, model.kernel, model.centers,
                             model.active_indices)
    # an empty active set reads 0 from both
    latent_mean = Phi_s @ model.mu_w
    latent_var = np.maximum(
        np.sum((Phi_s @ model.Sigma_w) * Phi_s, axis=1), 0.0)

    readout = _noise_readout(model)
    if readout.prior is None:
        # clamped posterior (every RVM): the noise is a known constant
        g_mean = np.full(Xs.shape[0], float(model.noise_mu0))
        g_var = np.zeros(Xs.shape[0])
        return _assemble(record, latent_mean, latent_var, g_mean, g_var)

    prior = readout.prior
    ks = cross_covariance(Xs, model.centers, prior)      # n* x N
    kss = prior.kernel.signal_variance + prior.jitter
    V = readout.W @ ks.T
    g_mean = model.noise_mu0 + ks @ model.g_coef
    g_var = np.maximum(kss - np.einsum("ij,ij,j->i", ks, ks, readout.Dinv)
                       + np.einsum("ij,ij->j", V, V), 0.0)

    return _assemble(record, latent_mean, latent_var, g_mean, g_var)


def _assemble(record, latent_mean, latent_var, g_mean, g_var) -> PredictiveDist:
    latent_mean = record.invert_y(latent_mean)
    scale2 = record.y_scale**2
    latent_var = latent_var * scale2
    g_mean = g_mean + np.log(scale2)
    # the log-normal mean E[exp(g)]; g_var >= 0 by construction
    total_var = latent_var + np.exp(g_mean + 0.5 * g_var)
    return PredictiveDist(latent_mean=latent_mean, latent_var=latent_var,
                          g_mean=g_mean, g_var=g_var, total_var=total_var)


# kept for perfbench's tracer until ROADMAP item 1
rvm_predictive_dist = predict
from .kernels import gp_covariance  # noqa: E402,F401
from .numerics import chol_factor  # noqa: E402,F401


def nlpd(pred: PredictiveDist, y, quad_order: int = 32) -> float:
    """Mean negative log predictive density, marginalizing the
    log-variance by Gauss-Hermite quadrature (exact Gaussian formula
    when the log-variance is deterministic, ``g_var < 1e-14``).

    Array code over a (points x ``quad_order``) grid of log-variance
    nodes, clipped at +-700 and summed by a max-shifted log-sum-exp.
    An empty or non-finite target raises ``ValueError``.
    """
    y = _targets(y, pred.latent_mean)
    quad = gauss_hermite(quad_order)
    m, lv, gm, gv = pred.latent_mean, pred.latent_var, pred.g_mean, pred.g_var
    ll = np.empty(y.size)
    exact = gv < 1e-14
    var = lv[exact] + np.exp(gm[exact])
    ll[exact] = -0.5 * (np.log(2 * np.pi * var)
                        + (y[exact] - m[exact]) ** 2 / var)
    q = ~exact
    g = gm[q, None] + np.sqrt(gv[q])[:, None] * quad.nodes
    var = lv[q, None] + np.exp(np.clip(g, -700, 700))
    logp = -0.5 * (np.log(2 * np.pi * var) + (y[q] - m[q])[:, None] ** 2 / var)
    shift = np.max(logp, axis=1)
    ll[q] = shift + np.log(np.sum(quad.weights * np.exp(logp - shift[:, None]),
                                  axis=1))
    return float(-np.sum(ll) / y.size)


def rmse(pred_mean, y) -> float:
    """Root mean squared error.  An empty or non-finite target raises
    ``ValueError``."""
    pred_mean = np.asarray(pred_mean, dtype=float).ravel()
    y = _targets(y, pred_mean)
    return float(np.sqrt(np.mean((pred_mean - y) ** 2)))


def _targets(y, pred_mean) -> np.ndarray:
    """Targets as a flat float array, checked against the predictions."""
    y = np.asarray(y, dtype=float).ravel()
    if y.size != np.size(pred_mean):
        raise ValueError("length mismatch between predictions and targets")
    if y.size == 0:
        raise ValueError("no targets to score")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite target")
    return y
