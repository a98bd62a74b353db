"""Predictive distributions at new inputs and evaluation metrics.

All quantities are reported in the original units of the training data;
the log-variance moments refer to the log of the original-unit noise
variance (a constant shift of 2 log y_scale relative to training units).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError
from .kernels import (GpNoisePrior, KernelSpec, _inner, _kernel_values,
                      _rbf, _sqdist_from, _sqnorms)
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
class _ReadPath:
    """What a block of queries reads of its model, in standardized units.

    ``centers2`` holds the c centres a block reaches, doubled so that
    their inner products with a query are the cross term 2 x.c of its
    squared distances, and ``c_sq`` their squared norms.  A noise-GP model reaches all N
    training inputs, and ``cols`` holds the position among them of each
    active basis column.  A clamped model reaches only the m centres of
    its active columns, in their order, and ``cols`` is None.  A bias
    column reads the last centre, and ``bias`` is its slot in the active
    set (None without one), which the block then overwrites with 1.

    The rest is the model-only part of the log-noise predictive, from
    training's split K = j I + F F^T: by Woodbury, (K + T^-1)^-1 =
    D^-1 - W^T W for the N-vector ``Dinv`` = tau / (1 + j tau) and the
    r x N matrix ``W`` = L^-1 F^T D^-1, L L^T = I + F^T D^-1 F.  These
    fields are None for a clamped posterior (constant noise).  Every
    array is read-only."""

    centers2: np.ndarray
    c_sq: np.ndarray
    cols: np.ndarray | None
    bias: int | None
    prior: GpNoisePrior | None
    Dinv: np.ndarray | None
    W: np.ndarray | None


def _read_path(model: HrvmModel) -> _ReadPath:
    """The model's read path, built on its first call and kept on the
    model."""
    if model._read_path is None:
        active = np.array(model.active_indices, dtype=int)
        include_bias = int(model.kernel.include_bias)
        slot = np.flatnonzero(active < include_bias)
        # a bias column is index -1 among the centres: the last one
        cols = active - include_bias
        if model.noise_clamped:
            centers, cols = model.centers[cols], None
            prior = Dinv = W = None
        else:
            centers = model.centers
            prior, tau = model.noise_prior, model.g_prec
            q = _q_cov(tau, _split_prior(centers, prior))
            Dinv, W = tau / (1.0 + prior.jitter * tau), q.Y * tau
        read = _ReadPath(2.0 * centers, _sqnorms(centers), cols,
                         int(slot[0]) if slot.size else None, prior, Dinv, W)
        for array in (read.centers2, read.c_sq, cols, Dinv, W):
            if array is not None:
                array.flags.writeable = False
        model._read_path = read
    return model._read_path


def _block_kernels(read: _ReadPath, kernel: KernelSpec, X):
    """The basis rows (rows x m, Fortran-ordered) and, for a noise-GP
    model, the k* rows (rows x N, else None) of a block of standardized
    inputs.

    Both come from one inner-product block 2 X C^T and, when an rbf reads
    them, one block of squared distances |x|^2 + |c|^2 - 2 x.c.  A
    noise-GP model's block is laid out rows by centres, as k* is read; a
    clamped model's centres by rows, so that the elementwise steps run
    along the block and not along its m short rows.  With one input
    column every value is the one ``kernel_matrix`` gives, bit for bit.
    The inner products come from ``kernels._inner`` in either layout, as
    ``kernel_matrix``'s do: a broadcast product with one input column,
    which a K=1 GEMM would match at a higher cost, and a GEMM with
    several.
    """
    rbf, noise = kernel.family == "rbf", read.prior
    if noise is None:
        P = _inner(read.centers2, X)
        K = _sqdist_from(read.c_sq, _sqnorms(X), P) if rbf else P
    else:
        P = _inner(X, read.centers2)
        D = _sqdist_from(_sqnorms(X), read.c_sq, P)
        K = (D if rbf else P).T[read.cols]
    if not rbf:
        K *= 0.5  # x.c from 2 x.c: halving is exact
    K = _kernel_values(kernel, K)
    if read.bias is not None:
        K[read.bias] = 1.0
    if noise is None:
        return K.T, None
    ks = _rbf(D, noise.lengthscale)
    ks *= noise.signal_variance
    return K.T, ks


# A block's temporaries, each (rows x width) floats, stay near this many
# bytes, so that they are reused in cache instead of streamed through memory
_BLOCK_BYTES = 1 << 18
# Blocks are whole multiples of this many rows: BLAS then meets each row at
# the same place in its unrolled loops as in one product over the whole
# batch, and blocking changes no bit of latent_mean, latent_var or g_mean
_ROW_ALIGN = 16
# Gauss-Hermite nodes of nlpd's log-variance integral, the rows of its grid
_NLPD_NODES = 32


def _block_rows(width: int) -> int:
    """Rows per block of a (rows x ``width``) float64 temporary."""
    rows = _BLOCK_BYTES // (8 * max(width, 1))
    return max(_ROW_ALIGN, rows - rows % _ROW_ALIGN)


def predict(model: HrvmModel, Xstar) -> PredictiveDist:
    """Predictive moments at new inputs.

    The latent part comes from the weight posterior, with the basis
    evaluated at the active centres only; the log-variance process from
    its site form (Rasmussen & Williams 2006, Alg. 3.2),
    g_mean = mu0 + k*^T a and g_var = k** - k*^T (K + T^-1)^-1 k*.  The
    expected noise variance enters the total as the log-normal mean
    exp(g_mean + g_var / 2).

    The first call pins the model's read path: the centres a query must
    reach (all N for a noise-GP model, the m active ones for a clamped
    model) with their squared norms, and the positions of the active
    basis columns among them.  For a noise-GP model it also splits the
    prior at the training inputs as training did and keeps an N-vector
    and an r x N matrix W, so a later batch costs one matrix product
    W k*^T for its noise variance.  A batch is read in row blocks whose
    basis and cross-covariance rows take about 256 KB.  Each block
    computes one inner-product block against the centres, from which
    come both its basis rows and its k* rows.  The blocks' moments are
    joined once at the end, so no n* x N array is ever held.  Treat a
    fitted model as read-only.  Inputs whose column count is not the
    model's raise ``DataError``, and non-finite inputs ``ValueError``.
    """
    record = model.standardization
    X = np.atleast_2d(np.asarray(Xstar, dtype=float))
    width = model.centers.shape[1]
    if X.shape[1] != width:
        raise DataError(f"the inputs have {X.shape[1]} columns, the model "
                        f"was trained on {width}")
    Xs = record.apply_x(X)
    if not np.isfinite(Xs).all():
        raise ValueError("non-finite prediction input")
    n = Xs.shape[0]
    read = _read_path(model)
    prior = read.prior
    # the widest rows: the basis at m active centres, and k* at N centres
    step = _block_rows(max(len(model.active_indices),
                           read.centers2.shape[0]))
    blocks = []
    lo = 0
    while True:
        # a last block of one row would take matrix-vector products where
        # the whole batch takes matrix products, so it joins the one before
        hi = n if n - lo <= step + 1 else lo + step
        Phi_s, ks = _block_kernels(read, model.kernel, Xs[lo:hi])
        # an empty active set reads 0 from both; np.add.reduce is np.sum
        # without its dispatch, which every single-point query pays
        latent_mean = Phi_s @ model.mu_w
        latent_var = np.maximum(
            np.add.reduce((Phi_s @ model.Sigma_w) * Phi_s, 1), 0.0)
        if ks is None:
            # clamped posterior (every RVM): the noise is a known constant
            g_mean = np.full(hi - lo, float(model.noise_prior.mu0))
            g_var = np.zeros(hi - lo)
        else:
            V = read.W @ ks.T
            g_mean = prior.mu0 + ks @ model.g_coef
            kss = prior.signal_variance + prior.jitter
            g_var = np.maximum(kss - (ks * ks) @ read.Dinv
                               + np.einsum("ij,ij->j", V, V), 0.0)
        blocks.append((latent_mean, latent_var, g_mean, g_var))
        if hi == n:
            break
        lo = hi
    # a single block is taken as it is: copying it into preallocated
    # n*-vectors costs a single-point query more than its block loop
    fields = blocks[0] if len(blocks) == 1 else map(np.concatenate,
                                                    zip(*blocks))
    return _assemble(record, *fields)


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
from .kernels import cross_covariance, design_matrix_at  # noqa: E402,F401
from .kernels import gp_covariance  # noqa: E402,F401
from .numerics import chol_factor  # noqa: E402,F401


def nlpd(pred: PredictiveDist, y) -> float:
    """Mean negative log predictive density, marginalizing the
    log-variance by 32-point Gauss-Hermite quadrature (exact Gaussian
    formula when the log-variance is deterministic, ``g_var < 1e-14``).

    The quadrature points are scored in blocks, each a (32 x points)
    grid of about 256 KB that is reused from block to block:
    log-variance nodes clipped at +-700, then a log-sum-exp shifted by
    each point's largest term, with the weighted sum as one matrix-vector
    product.  An empty or non-finite target raises ``ValueError``.
    """
    y = _targets(y, pred.latent_mean)
    quad = gauss_hermite(_NLPD_NODES)
    m, lv, gm, gv = pred.latent_mean, pred.latent_var, pred.g_mean, pred.g_var
    r2 = (y - m) ** 2
    ll = np.empty(y.size)
    exact = gv < 1e-14
    var = lv[exact] + np.exp(gm[exact])
    ll[exact] = -0.5 * (np.log(2 * np.pi * var) + r2[exact] / var)
    q = np.flatnonzero(~exact)
    step = _block_rows(_NLPD_NODES)
    grid = np.empty(_NLPD_NODES * min(q.size, step))
    scaled = np.empty_like(grid)
    nodes = quad.nodes[:, None]
    for lo in range(0, q.size, step):
        i = q[lo:lo + step]
        G = grid[:_NLPD_NODES * i.size].reshape(_NLPD_NODES, i.size)
        R = scaled[:G.size].reshape(G.shape)
        # G: log-variance nodes, then variances, then log densities
        np.multiply(nodes, np.sqrt(gv[i]), out=G)
        G += gm[i]
        np.clip(G, -700, 700, out=G)
        np.exp(G, out=G)
        G += lv[i]
        np.divide(r2[i], G, out=R)
        G *= 2 * np.pi
        np.log(G, out=G)
        G += R
        G *= -0.5
        shift = np.maximum.reduce(G, axis=0)
        G -= shift
        np.exp(G, out=G)
        ll[i] = shift + np.log(quad.weights @ G)
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
