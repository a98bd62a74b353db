"""Trained heteroscedastic-model artifact shared by the VI and EP trainers."""

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

    Treat a fitted model as read-only: its first ``predict`` factors the
    noise-GP covariance at ``centers`` and keeps the result, so later
    edits to the fields would not reach the predictions.
    """

    method: str                  # "vi" or "ep"
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
    g_mu: np.ndarray             # posterior mean of log-variance at centers
    g_Sigma: np.ndarray          # posterior covariance of the same
    standardization: Standardization
    training_log: List[float] = field(default_factory=list)
    status: str = "converged"
    n_iter: int = 0
    config: Dict = field(default_factory=dict)
    # per-model noise-GP readout, built by the first ``predict`` (predict.py)
    _noise_readout: object = field(default=None, init=False, repr=False,
                                   compare=False)

    def noise_prior(self) -> GpNoisePrior:
        kern = KernelSpec(family="rbf",
                          lengthscale=self.noise_lengthscale,
                          include_bias=False,
                          signal_variance=self.noise_signal_variance)
        return GpNoisePrior(mu0=self.noise_mu0, kernel=kern,
                            jitter=self.noise_jitter)
