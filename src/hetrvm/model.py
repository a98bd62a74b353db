"""Trained-model artifact shared by the RVM, VI and EP trainers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .data import Standardization
from .kernels import GpNoisePrior, KernelSpec

__all__ = ["HrvmModel"]


@dataclass
class HrvmModel:
    """Sparse heteroscedastic kernel regressor.

    Holds the active basis (column indices into the full design matrix,
    bias = 0 when present), the Gaussian weight posterior, and the
    posterior over the latent log-noise-variance process at the training
    inputs, all in standardized units.  ``standardization`` maps back to
    the original units at prediction time.

    The log-noise posterior at the N centers is kept in site form,
    q(g) = N(noise_mu0 + K g_coef, (K^-1 + diag(g_prec))^-1) with K the
    noise-GP covariance.  A clamped model (every RVM, and every degenerate
    fit) stores no sites: its log-noise is the constant ``noise_mu0`` =
    log sigma2, and its noise-GP hyperparameters are unused.

    Treat a fitted model as read-only: its first ``predict`` keeps a read
    path that pins the active set and the centres it reaches, and for a
    noise-GP model splits the noise-GP prior at ``centers`` as training
    did and keeps the noise readout, so later edits to the fields may not
    reach the predictions.
    """

    method: str                  # "rvm", "vi" or "ep"
    kernel: KernelSpec
    centers: np.ndarray          # training inputs, standardized units
    active_indices: List[int]
    alpha: np.ndarray
    mu_w: np.ndarray
    Sigma_w: np.ndarray
    noise_mu0: float
    noise_lengthscale: float
    noise_signal_variance: float
    noise_jitter: float
    g_prec: np.ndarray           # site precisions tau at centers (N or 0)
    g_coef: np.ndarray           # mean coefficients a at centers (N or 0)
    standardization: Standardization
    training_log: List[float] = field(default_factory=list)
    status: str = "converged"
    n_iter: int = 0
    config: Dict = field(default_factory=dict)
    # per-model read path, built by the first ``predict`` (predict.py)
    _read_path: object = field(default=None, init=False, repr=False,
                               compare=False)

    @property
    def noise_clamped(self) -> bool:
        """Whether the log-noise is the constant ``noise_mu0``."""
        return self.g_prec.size == 0

    def noise_prior(self) -> GpNoisePrior:
        kern = KernelSpec(lengthscale=self.noise_lengthscale,
                          include_bias=False)  # an rbf
        return GpNoisePrior(self.noise_mu0, kern, self.noise_signal_variance,
                            self.noise_jitter)
