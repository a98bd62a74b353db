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

    The log-noise prior is ``noise_prior``, an rbf GP with mean mu0 and
    covariance K at the N centers, and its posterior there is kept in
    site form, q(g) = N(mu0 + K g_coef, (K^-1 + diag(g_prec))^-1).  A
    clamped model (every RVM, and every degenerate fit) stores no sites:
    its log-noise is the constant ``noise_prior.mu0`` = log sigma2, and
    the prior's other hyperparameters are unused.

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
    noise_prior: GpNoisePrior
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
        """Whether the log-noise is the constant ``noise_prior.mu0``."""
        return self.g_prec.size == 0
