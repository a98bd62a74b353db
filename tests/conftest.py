"""Shared pytest plumbing: surfaces the acceptance-criterion verdict
lines in the terminal summary, where output capture cannot swallow
them.  It also pins BLAS to one thread before any test imports numpy:
on a 2-core machine a second OpenBLAS thread makes the dense N=100
solves several times slower, not faster.

It holds the helpers several test modules share and that call package
code (the dense references that do not are in ``oracles``): the noise-GP
priors and variational states of the bound tests, the basis selection's
(s, q) and spies, and the mutators of model documents."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import scipy.linalg as sla  # noqa: E402

import hetrvm.vi  # noqa: E402
from hetrvm.kernels import GpNoisePrior, gp_covariance  # noqa: E402
from hetrvm.vi import (VariationalState, _all_sq, _factor,  # noqa: E402
                       _posterior, _q_point, _split_prior)

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
    n = model.centers.shape[0]
    if model.g_prec.size == 0:
        return np.full(n, model.noise_prior.mu0), np.zeros((n, n))
    K = gp_covariance(model.centers, model.noise_prior)
    root = np.sqrt(model.g_prec)
    B = np.eye(n) + root[:, None] * K * root[None, :]
    RK = root[:, None] * K
    Sigma = K - RK.T @ sla.solve(B, RK, assume_a="pos")
    return model.noise_prior.mu0 + K @ model.g_coef, 0.5 * (Sigma + Sigma.T)


def dense_sigma(q):
    """The N x N covariance Sigma = diag(jd) + Y^T Y that a ``vi._QCov``
    holds in factored form."""
    return np.diag(q.jd) + q.Y.T @ q.Y


def noise_prior(log_ell, log_sv):
    """The noise-GP prior for a log lengthscale and a log signal variance,
    with jitter 1e-6 of the signal variance."""
    sv = float(np.exp(log_sv))
    return GpNoisePrior(mu0=0.0, lengthscale=float(np.exp(log_ell)),
                        signal_variance=sv, jitter=1e-6 * sv)


def noise_cov(X, log_ell, log_sv):
    """The dense noise-GP prior covariance at X."""
    return gp_covariance(X, noise_prior(log_ell, log_sv))


def noise_split(X, log_ell, log_sv):
    """noise_cov's K, split as K = j I + F F^T with j its jitter."""
    return _split_prior(X, noise_prior(log_ell, log_sv))


def make_state(X, eta, log_ell, log_sv, mu0, alpha, active):
    """Build a consistent VariationalState from unconstrained parameters;
    (log_ell, log_sv) fix the prior covariance K and are not stored.
    q(g) comes from the split K, the state's K is the dense one."""
    cov = noise_split(X, log_ell, log_sv)
    lam = 0.5 / (1.0 + np.exp(-np.asarray(eta, dtype=float)))
    mu, q = _q_point(lam, mu0, cov)[:2]
    return VariationalState(mu=mu, Sigma=dense_sigma(q),
                            alpha=np.asarray(alpha, dtype=float),
                            active_indices=list(active), mu0=mu0,
                            K=noise_cov(X, log_ell, log_sv))


def selection_inputs(Phi, y, active, alpha, r):
    """What update_alpha forms at one state, at noise diag(r), formed
    afresh: the arguments of vi._all_sq, the weight posterior last."""
    Phir = Phi / r[:, None]
    G = Phi.T @ Phir[:, active]
    c = Phir.T @ y
    L = _factor(G[active], alpha)
    return (G, np.sum(Phi * Phir, axis=0), c, active, L,
            _posterior(L, c[active]))


def all_sq_at(Phi, y, active, alpha, r):
    """vi._all_sq's (s, q) of every column at noise diag(r), from the
    inputs update_alpha forms, its weight posterior included."""
    return _all_sq(*selection_inputs(Phi, y, active, alpha, r))


class SelectionLog:
    """What update_alpha does, counted by spies on hetrvm.vi installed
    through ``patch``: Cholesky factorizations (``chol``), guard refreshes
    (``guard``, updated states that ``vi._intact`` rejected), scored states
    (``scored``, calls of ``vi._actions``) and the actions taken
    (:attr:`trail`)."""

    def __init__(self, patch):
        self.chol = self.guard = 0
        self.seen = []
        chol, actions = hetrvm.vi.chol_factor, hetrvm.vi._actions
        intact = hetrvm.vi._intact

        def counted_chol(*args):
            self.chol += 1
            return chol(*args)

        def seen_actions(s, q, a_old):
            self.seen.append(a_old.copy())
            return actions(s, q, a_old)

        def counted_intact(*args):
            ok = intact(*args)
            self.guard += not ok
            return ok

        patch.setattr(hetrvm.vi, "chol_factor", counted_chol)
        patch.setattr(hetrvm.vi, "_actions", seen_actions)
        patch.setattr(hetrvm.vi, "_intact", counted_intact)

    @property
    def scored(self):
        return len(self.seen)

    @property
    def trail(self):
        """The column of each action, read off the precisions of
        consecutive scored states: a state scored twice, once updated and
        once from scratch, counts once."""
        out = []
        for before, after in zip(self.seen, self.seen[1:]):
            changed = np.flatnonzero(before != after).tolist()
            assert len(changed) <= 1
            out += changed
        return out


# Mutators of a model document (its JSON dict), each made by a factory
# and applied in place: the malformed files of the loader tests.

def drop_last(key):
    def mutate(doc):
        doc[key] = doc[key][:-1]
    return mutate


def drop_field(key):
    def mutate(doc):
        del doc[key]
    return mutate


def set_field(key, value):
    def mutate(doc):
        doc[key] = value
    return mutate


def set_first(key, value):
    def mutate(doc):
        doc[key][0] = value
    return mutate


def set_corner(key, value):
    def mutate(doc):
        doc[key][0][0] = value
    return mutate


def set_index(position, value):
    def mutate(doc):
        doc["active_indices"][position] = value
    return mutate


def set_record(key, value):
    def mutate(doc):
        doc["standardization"][key] = value
    return mutate

