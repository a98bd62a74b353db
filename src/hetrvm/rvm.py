"""Homoscedastic relevance vector machine with fast marginal-likelihood
basis selection (Tipping & Faul, 2003): sequential add / re-estimate /
delete on the candidate columns of the design matrix.

The basis selection, whose deletes are the only pruning, the weight fit
and the model finish are the heteroscedastic trainers' (:mod:`hetrvm.vi`)
with the constant noise r = sigma2; this module adds the sigma2
re-estimate.  The fit is an :class:`HrvmModel` whose log-noise process
is clamped at log sigma2, the form a clamped variational fit takes, so
it predicts and saves as the others do."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional

import numpy as np

from .data import Dataset
from .kernels import KernelSpec, build_design_matrix
from .model import HrvmModel
# kept for perfbench's tracer until ROADMAP item 3
from .kernels import design_matrix_at  # noqa: F401
from .numerics import chol_factor  # noqa: F401
from .vi import (_check_loop, _clamped_noise, _constant, _degenerate,
                 _finish, _standardized, _weight_fit, update_alpha)

__all__ = ["RvmConfig", "fit_rvm"]


@dataclass(frozen=True)
class RvmConfig:
    max_iter: int = 500
    tol: float = 1e-6
    standardize: bool = True

    def __post_init__(self):
        _check_loop(self.max_iter, self.tol)


def fit_rvm(data: Dataset, kernel: Optional[KernelSpec] = None,
            config: Optional[RvmConfig] = None) -> HrvmModel:
    """Fit by alternating Tipping & Faul's basis selection at the noise
    r = sigma2 (``update_alpha``, from the empty basis) with a
    re-estimate of sigma2, accepted when it does not lower the evidence.
    Converged once an alternation leaves sigma2 unmoved (relative change
    below ``config.tol``) and gains less evidence than tol (1 + |ev|).
    Returns an ``HrvmModel`` with method "rvm" and the log-noise clamped
    at log sigma2 (standardized units)."""
    kernel = kernel or KernelSpec()
    config = config or RvmConfig()
    work, record = _standardized(data, config.standardize)
    if _constant(work.y):
        return _degenerate("rvm", kernel, work, record, config)
    y, n = work.y, work.n
    Phi = build_design_matrix(work.X, kernel)
    sigma2 = 0.1 * float(np.var(y))
    active: List[int] = []
    alpha = np.zeros(0)

    log: List[float] = []
    status = "max_iter"
    for n_iter in range(1, config.max_iter + 1):
        r = np.full(n, sigma2)
        active, alpha, ev, _ = update_alpha(active, alpha, Phi, r, y,
                                            config.tol)
        Phi_a = Phi[:, active]
        _, mu_w, Sigma_w = _weight_fit(Phi_a, alpha, r, y)
        posterior = mu_w, Sigma_w  # the model's, unless the trial wins

        # noise re-estimate, accepted only when it does not lower the
        # evidence
        dof = n - float(np.sum(1.0 - alpha * np.diag(Sigma_w)))
        resid = y - Phi_a @ mu_w
        moved = 0.0
        if dof > 1e-8:
            sigma2_new = float(resid @ resid) / dof
            if sigma2_new > 1e-12:
                trial, *fit = _weight_fit(Phi_a, alpha,
                                          np.full(n, sigma2_new), y)
                if trial >= ev - 1e-10:
                    moved = abs(np.log(sigma2_new / sigma2))
                    sigma2, ev, posterior = sigma2_new, trial, fit

        gain = ev - log[-1] if log else np.inf
        log.append(ev)
        if moved < config.tol and gain < config.tol * (1.0 + abs(ev)):
            status = "converged"
            break

    return _finish("rvm", kernel, work, record, active, alpha, posterior,
                   _clamped_noise(n, sigma2),
                   training_log=log, status=status, n_iter=n_iter,
                   config=asdict(config))
