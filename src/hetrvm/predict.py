"""Predictive distributions at new inputs and evaluation metrics.

All quantities are reported in the original units of the training data;
the log-variance moments refer to the log of the original-unit noise
variance (a constant shift of 2 log y_scale relative to training units).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .kernels import (GpNoisePrior, cross_covariance, design_matrix_at,
                      gp_covariance)
from .model import HrvmModel
from .numerics import chol_factor, gauss_hermite, lognormal_mean
from .rvm import RvmModel, rvm_predict

__all__ = ["PredictiveDist", "predict", "rvm_predictive_dist", "nlpd", "rmse"]


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
    """The model-only part of the log-noise predictive: the prior, the
    Cholesky factor ``L`` of its covariance at the centers, and
    ``a = K^-1 (g_mu - mu0)``.  ``L`` and ``a`` are read-only; all three
    are None for a clamped posterior, whose noise is a known constant."""

    prior: GpNoisePrior | None
    L: np.ndarray | None
    a: np.ndarray | None


def _noise_readout(model: HrvmModel) -> _NoiseReadout:
    """The model's noise-GP readout, built on its first call and kept on
    the model."""
    if model._noise_readout is None:
        if np.all(model.g_Sigma == 0.0) and np.ptp(model.g_mu) == 0.0:
            readout = _NoiseReadout(None, None, None)
        else:
            prior = model.noise_prior()
            L = chol_factor(gp_covariance(model.centers, prior),
                            "noise covariance")
            a = sla.cho_solve((L, True), model.g_mu - model.noise_mu0,
                              check_finite=False)
            L.flags.writeable = False
            a.flags.writeable = False
            readout = _NoiseReadout(prior, L, a)
        model._noise_readout = readout
    return model._noise_readout


def predict(model: HrvmModel, Xstar) -> PredictiveDist:
    """Predictive moments at new inputs.

    The latent part comes from the weight posterior; the log-variance
    process is conditioned on its training-time posterior by standard GP
    algebra, and the expected noise variance enters the total as the
    log-normal mean exp(g_mean + g_var / 2).

    The first call on a model factors the noise-GP covariance at the
    training inputs and keeps the factor on the model, so later calls
    only do per-point work.  Treat a fitted model as read-only.
    Non-finite inputs raise ``ValueError``.
    """
    record = model.standardization
    Xs = record.apply_x(Xstar)
    Phi_s = design_matrix_at(Xs, model.kernel, model.centers,
                             model.active_indices)
    if model.mu_w.size:
        latent_mean = Phi_s @ model.mu_w
        latent_var = np.maximum(
            np.sum((Phi_s @ model.Sigma_w) * Phi_s, axis=1), 0.0)
    else:
        latent_mean = np.zeros(Xs.shape[0])
        latent_var = np.zeros(Xs.shape[0])

    readout = _noise_readout(model)
    if readout.prior is None:
        # degenerate (clamped) posterior: the noise is a known constant
        g_mean = np.full(Xs.shape[0], float(model.g_mu[0]))
        g_var = np.zeros(Xs.shape[0])
        return _assemble(record, latent_mean, latent_var, g_mean, g_var)

    prior, L = readout.prior, readout.L
    ks = cross_covariance(Xs, model.centers, prior)      # n* x N
    kss = prior.kernel.signal_variance + prior.jitter
    W = sla.cho_solve((L, True), ks.T, check_finite=False)   # K^-1 ks^T
    g_mean = model.noise_mu0 + ks @ readout.a
    reduce_term = np.sum(ks * W.T, axis=1)
    add_term = np.sum(W * (model.g_Sigma @ W), axis=0)
    g_var = np.maximum(kss - reduce_term + add_term, 0.0)

    return _assemble(record, latent_mean, latent_var, g_mean, g_var)


def _assemble(record, latent_mean, latent_var, g_mean, g_var) -> PredictiveDist:
    latent_mean = record.invert_y(latent_mean)
    scale2 = record.y_scale**2
    latent_var = latent_var * scale2
    g_mean = g_mean + np.log(scale2)
    total_var = latent_var + lognormal_mean(g_mean, g_var)
    return PredictiveDist(latent_mean=latent_mean, latent_var=latent_var,
                          g_mean=g_mean, g_var=g_var, total_var=total_var)


def rvm_predictive_dist(model: RvmModel, Xstar) -> PredictiveDist:
    """Homoscedastic predictive cast into the shared container
    (deterministic log-variance, so NLPD reduces to the Gaussian form)."""
    mean, var = rvm_predict(model, Xstar)
    sigma2 = model.sigma2 * model.standardization.y_scale**2
    n = mean.size
    return PredictiveDist(latent_mean=mean,
                          latent_var=np.maximum(var - sigma2, 0.0),
                          g_mean=np.full(n, np.log(sigma2)),
                          g_var=np.zeros(n),
                          total_var=var)


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
