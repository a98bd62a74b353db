"""Shared pytest plumbing: surfaces the acceptance-criterion verdict
lines in the terminal summary, where output capture cannot swallow
them.  It also pins BLAS to one thread before any test imports numpy:
on a 2-core machine a second OpenBLAS thread makes the dense N=100
solves several times slower, not faster."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


def dense_noise(model):
    """The log-noise posterior q(g) = N(g_mu, g_Sigma) of a model at its
    centers, rebuilt densely from the stored site form by scipy alone:
    K the noise-GP covariance, g_mu = mu0 + K a and
    g_Sigma = (K^-1 + diag(tau))^-1 = K - K T^1/2 B^-1 T^1/2 K with
    B = I + T^1/2 K T^1/2.  A clamped model gives the constant mu0 and
    a zero covariance."""
    import numpy as np
    import scipy.linalg as sla

    from hetrvm.kernels import gp_covariance

    n = model.centers.shape[0]
    if model.g_prec.size == 0:
        return np.full(n, model.noise_mu0), np.zeros((n, n))
    K = gp_covariance(model.centers, model.noise_prior())
    root = np.sqrt(model.g_prec)
    B = np.eye(n) + root[:, None] * K * root[None, :]
    RK = root[:, None] * K
    Sigma = K - RK.T @ sla.solve(B, RK, assume_a="pos")
    return model.noise_mu0 + K @ model.g_coef, 0.5 * (Sigma + Sigma.T)


def dense_sigma(q):
    """The N x N covariance Sigma = diag(jd) + Y^T Y that a ``vi._QCov``
    holds in factored form."""
    import numpy as np

    return np.diag(q.jd) + q.Y.T @ q.Y
