import json
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as hst
from scipy.stats import multivariate_normal

import hetrvm.ep
import hetrvm.vi
from hetrvm.data import Dataset, SynthSpec, synth
from hetrvm.ep import EpConfig, fit_ep
from hetrvm.kernels import (GpNoisePrior, KernelSpec, _sqdist,
                            build_design_matrix, gp_covariance)
from hetrvm.numerics import chol_solve, gauss_hermite, grad_check
from hetrvm.rvm import RvmConfig
from hetrvm.serialize import model_to_dict
from hetrvm.vi import (_ALPHA_MAX, VIConfig, VariationalState,
                       _bound_value_grad, _factor, _gram, _weight_fit,
                       _noise_cov, _sigmoid, _sparsity_quality, bound_gradients,
                       collapsed_bound, expected_loglik, fit_vi, noise_diag,
                       prune_basis, reduced_to_moments, update_alpha,
                       weight_posterior)


def make_state(X, eta, log_ell, log_sv, mu0, alpha, active):
    """Build a consistent VariationalState from unconstrained parameters."""
    sv = float(np.exp(log_sv))
    prior = GpNoisePrior(
        mu0=mu0,
        kernel=KernelSpec(family="rbf", lengthscale=float(np.exp(log_ell)),
                          include_bias=False, signal_variance=sv),
        jitter=1e-6 * sv)
    K = gp_covariance(X, prior)
    lam = 0.5 / (1.0 + np.exp(-np.asarray(eta, dtype=float)))
    mu, Sigma = reduced_to_moments(lam, K, mu0)
    return VariationalState(X=X, mu=mu, Sigma=Sigma, lam=lam,
                            alpha=np.asarray(alpha, dtype=float),
                            active_indices=list(active), mu0=mu0,
                            log_ell=log_ell, log_sv=log_sv, K=K)


class TestNoiseDiag:
    def test_zero_state_is_ones(self):
        np.testing.assert_allclose(noise_diag(np.zeros(3), np.zeros((3, 3))),
                                   np.ones(3), atol=1e-15)

    def test_direct_value(self):
        out = noise_diag(np.array([2.0]), np.array([[2.0]]))
        assert out[0] == pytest.approx(np.e, rel=1e-12)

    def test_monotone_in_mean(self):
        Sigma = np.eye(2)
        a = noise_diag(np.array([0.0, 0.0]), Sigma)
        b = noise_diag(np.array([1.0, 0.5]), Sigma)
        assert np.all(b > a)

    def test_overflow_reported(self):
        with pytest.raises(FloatingPointError):
            noise_diag(np.array([1e4]), np.zeros((1, 1)))


class TestExpectedLoglik:
    def test_point_mass_unit_noise(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=4)
        Phi = rng.normal(size=(4, 2))
        w = rng.normal(size=2)
        got = expected_loglik(y, w, Phi, np.zeros(4), np.zeros((4, 4)))
        resid = y - Phi @ w
        want = -0.5 * (4 * np.log(2 * np.pi) + resid @ resid)
        assert got == pytest.approx(want, abs=1e-12)

    def test_scalar_case_frozen_value(self):
        # y=1, f=0, q(g)=N(0,1): E log N(1|0,e^g) = -log(2 pi)/2 - e^{1/2}/2
        got = expected_loglik(np.array([1.0]), np.zeros(1),
                              np.zeros((1, 1)), np.zeros(1), np.eye(1))
        want = -0.5 * np.log(2 * np.pi) - 0.5 * np.exp(0.5)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(-1.74330, abs=1e-5)

    def test_matches_quadrature_n3(self):
        rng = np.random.default_rng(1)
        quad = gauss_hermite(64)
        for _ in range(20):
            y = rng.normal(size=3)
            Phi = rng.normal(size=(3, 2))
            w = rng.normal(size=2)
            mu = rng.normal(size=3) * 0.5
            A = rng.normal(size=(3, 3)) * 0.3
            Sigma = A @ A.T + 0.2 * np.eye(3)
            got = expected_loglik(y, w, Phi, mu, Sigma)
            f = Phi @ w
            sd = np.sqrt(np.diag(Sigma))
            want = 0.0
            for i in range(3):
                g = mu[i] + sd[i] * quad.nodes
                ll = (-0.5 * np.log(2 * np.pi) - 0.5 * g
                      - 0.5 * (y[i] - f[i]) ** 2 * np.exp(-g))
                want += float(quad.weights @ ll)
            assert got == pytest.approx(want, abs=1e-6)


class TestWeightPosterior:
    def test_identity_toy(self):
        y = np.array([1.0, -2.0, 0.5])
        mu_w, Sigma_w = weight_posterior(np.eye(3), np.ones(3), np.ones(3), y)
        np.testing.assert_allclose(Sigma_w, 0.5 * np.eye(3), atol=1e-12)
        np.testing.assert_allclose(mu_w, y / 2, atol=1e-12)

    def test_huge_precision_shrinks_to_zero(self):
        rng = np.random.default_rng(2)
        Phi = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        mu_w, _ = weight_posterior(Phi, np.full(3, 1e12), np.ones(5), y)
        assert np.max(np.abs(mu_w)) < 1e-9

    def test_constant_noise_matches_sigma2_form(self):
        rng = np.random.default_rng(3)
        Phi = rng.normal(size=(6, 3))
        y = rng.normal(size=6)
        alpha = np.array([0.5, 2.0, 1.0])
        s2 = 0.3
        mu_w, Sigma_w = weight_posterior(Phi, alpha, np.full(6, s2), y)
        H = np.diag(alpha) + Phi.T @ Phi / s2
        np.testing.assert_allclose(Sigma_w, np.linalg.inv(H), atol=1e-10)
        np.testing.assert_allclose(mu_w, np.linalg.solve(H, Phi.T @ y / s2),
                                   atol=1e-10)


def _evidence_case(n, m, hetero, seed):
    rng = np.random.default_rng(seed)
    Phi = rng.normal(size=(n, m))
    alpha = rng.uniform(0.2, 5.0, size=m)
    r = rng.uniform(0.05, 2.0, size=n) if hetero else np.full(n, 0.3)
    y = rng.normal(size=n)
    return Phi, alpha, r, y


class TestOneEvidence:
    """The weight posterior and the Woodbury evidence against dense
    N x N Gaussian algebra, for the heteroscedastic and RVM noise."""

    @pytest.mark.parametrize("n, m, hetero", [
        (12, 4, True),     # heteroscedastic, m < N
        (6, 9, True),      # more basis columns than points
        (12, 4, False),    # constant noise: the RVM case
        (8, 0, True),      # empty active set
        (8, 0, False)])
    def test_evidence_matches_dense_logpdf(self, n, m, hetero):
        Phi, alpha, r, y = _evidence_case(n, m, hetero, seed=n + m)
        C = (Phi / alpha) @ Phi.T + np.diag(r)
        want = multivariate_normal(np.zeros(n), C).logpdf(y)
        ev = _weight_fit(Phi, alpha, r, y)[0]
        assert ev == pytest.approx(want, abs=1e-9)

    def test_constant_noise_posterior_more_columns_than_points(self):
        # m < N is TestWeightPosterior.test_constant_noise_matches_sigma2_form
        Phi, alpha, r, y = _evidence_case(6, 9, False, seed=54)
        s2 = r[0]
        mu_w, Sigma_w = weight_posterior(Phi, alpha, r, y)
        want = np.linalg.inv(np.diag(alpha) + Phi.T @ Phi / s2)
        np.testing.assert_allclose(Sigma_w, want, atol=1e-10)
        np.testing.assert_allclose(mu_w, want @ Phi.T @ y / s2, atol=1e-10)

    def test_empty_active_set_posterior(self):
        mu_w, Sigma_w = weight_posterior(np.zeros((5, 0)), np.zeros(0),
                                         np.ones(5), np.ones(5))
        assert mu_w.shape == (0,) and Sigma_w.shape == (0, 0)


class TestReducedToMoments:
    def test_identity_prior_quarter(self):
        mu, Sigma = reduced_to_moments(np.full(2, 0.25), np.eye(2), 0.0)
        np.testing.assert_allclose(Sigma, 0.8 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(mu, [-0.25, -0.25], atol=1e-12)

    def test_half_limit_mean_is_mu0(self):
        lam = np.full(3, 0.5 - 1e-12)
        mu, _ = reduced_to_moments(lam, 2.0 * np.eye(3) + 0.5, 1.3)
        np.testing.assert_allclose(mu, 1.3, atol=1e-9)

    def test_matches_direct_inverse(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(4, 4)) * 0.4
        K = A @ A.T + np.eye(4)
        lam = rng.uniform(0.05, 0.45, 4)
        mu, Sigma = reduced_to_moments(lam, K, 0.7)
        want = np.linalg.inv(np.linalg.inv(K) + np.diag(lam))
        np.testing.assert_allclose(Sigma, want, atol=1e-10)
        np.testing.assert_allclose(mu, K @ (lam - 0.5) + 0.7, atol=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            reduced_to_moments(np.array([0.6]), np.eye(1), 0.0)
        with pytest.raises(ValueError):
            reduced_to_moments(np.array([0.0]), np.eye(1), 0.0)


class TestCollapsedBound:
    def test_matches_direct_oracle(self):
        # independent evaluation with explicit inverses and scipy logpdf
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, (3, 1))
        Phi = build_design_matrix(X, KernelSpec()).values
        y = rng.normal(size=3)
        st = make_state(X, eta=rng.normal(size=3), log_ell=-0.3, log_sv=0.2,
                        mu0=-0.5, alpha=[1.0, 0.5, 2.0, 1.5],
                        active=[0, 1, 2, 3])
        got = collapsed_bound(st, Phi, y)
        r = np.exp(st.mu - 0.5 * np.diag(st.Sigma))
        C = Phi @ np.diag(1.0 / st.alpha) @ Phi.T + np.diag(r)
        ev = multivariate_normal.logpdf(y, mean=np.zeros(3), cov=C)
        p_mu = np.full(3, st.mu0)
        Kinv = np.linalg.inv(st.K)
        kl = 0.5 * (np.trace(Kinv @ st.Sigma)
                    + (p_mu - st.mu) @ Kinv @ (p_mu - st.mu) - 3
                    + np.linalg.slogdet(st.K)[1]
                    - np.linalg.slogdet(st.Sigma)[1])
        want = ev - 0.25 * np.trace(st.Sigma) - kl
        assert got == pytest.approx(want, abs=1e-8)

    def test_kl_term_zero_at_prior(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, (3, 1))
        Phi = build_design_matrix(X, KernelSpec()).values
        y = rng.normal(size=3)
        st = make_state(X, eta=np.zeros(3), log_ell=0.0, log_sv=0.0,
                        mu0=0.0, alpha=np.ones(4), active=[0, 1, 2, 3])
        # overwrite q(g) with the prior itself: the KL term must vanish
        st.mu = np.full(3, st.mu0)
        st.Sigma = st.K.copy()
        got = collapsed_bound(st, Phi, y)
        r = np.exp(st.mu - 0.5 * np.diag(st.Sigma))
        C = Phi @ np.diag(1.0 / st.alpha) @ Phi.T + np.diag(r)
        ev = multivariate_normal.logpdf(y, mean=np.zeros(3), cov=C)
        assert got == pytest.approx(ev - 0.25 * np.trace(st.Sigma), abs=1e-9)


class TestBoundGradients:
    def test_against_finite_differences(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, (4, 1))
        Phi = build_design_matrix(X, KernelSpec()).values
        y = rng.normal(size=4)
        alpha = rng.uniform(0.2, 3.0, 5)

        def unpack(x):
            return make_state(X, eta=x[:4], log_ell=float(x[4]),
                              log_sv=float(x[5]), mu0=float(x[6]),
                              alpha=alpha, active=[0, 1, 2, 3, 4])

        f = lambda x: collapsed_bound(unpack(x), Phi, y)
        g = lambda x: bound_gradients(unpack(x), Phi, y)
        for _ in range(5):
            x = np.concatenate([rng.normal(size=4),
                                rng.uniform(-0.5, 0.5, 2),
                                rng.normal(size=1)])
            assert grad_check(f, g, x) < 1e-4


    def test_against_finite_differences_n12(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, (12, 1))
        Phi = build_design_matrix(X, KernelSpec(lengthscale=0.3)).values
        y = 2.0 * np.sin(2 * np.pi * X[:, 0]) + 0.3 * rng.normal(size=12)
        active = [0, 2, 3, 5, 7, 8, 11, 12]
        alpha = rng.uniform(0.2, 3.0, len(active))

        def unpack(x):
            return make_state(X, eta=x[:12], log_ell=float(x[12]),
                              log_sv=float(x[13]), mu0=float(x[14]),
                              alpha=alpha, active=active)

        f = lambda x: collapsed_bound(unpack(x), Phi, y)
        g = lambda x: bound_gradients(unpack(x), Phi, y)
        for _ in range(3):
            x = np.concatenate([rng.normal(size=12) * 2.0,
                                rng.uniform(-1.5, 0.0, 1),
                                rng.uniform(-0.5, 0.5, 1),
                                rng.normal(size=1)])
            assert grad_check(f, g, x) < 1e-4


def _dense_bound_value_grad(x, D2, Phi_a, alpha, y):
    """The bound and its gradient with explicit N x N inverses of the
    collapsed covariance C and of K: the dense form the Woodbury one in
    hetrvm.vi replaced."""
    n = y.size
    log_ell, log_sv, mu0 = x[n], x[n + 1], x[n + 2]
    lam = np.clip(0.5 * _sigmoid(x[:n]), 1e-12, 0.5 - 1e-12)
    K, C = _noise_cov(D2, log_ell, log_sv)
    root = np.sqrt(lam)
    LB = np.linalg.cholesky(np.eye(n) + root[:, None] * K * root[None, :])
    V = sla.solve_triangular(LB, root[:, None] * K, lower=True)
    Sigma = K - V.T @ V
    Sigma = 0.5 * (Sigma + Sigma.T)
    sdiag = np.diag(Sigma)
    v = lam - 0.5
    Kv = K @ v
    r = np.exp(np.clip(Kv + mu0 - 0.5 * sdiag, -700.0, 700.0))

    Cp = (Phi_a / alpha[None, :]) @ Phi_a.T + np.diag(r)
    Lc = np.linalg.cholesky(0.5 * (Cp + Cp.T))
    beta = sla.cho_solve((Lc, True), y)
    f1 = -0.5 * (n * np.log(2 * np.pi) + 2.0 * np.sum(np.log(np.diag(Lc)))
                 + y @ beta)
    kl = 0.5 * (2.0 * np.sum(np.log(np.diag(LB))) - lam @ sdiag + v @ Kv)
    fval = f1 - 0.25 * np.sum(sdiag) - kl

    eye = np.eye(n)
    Cinv = sla.cho_solve((Lc, True), eye)
    u = 0.5 * (beta**2 - np.diag(Cinv)) * r
    Kinv = np.linalg.inv(K)
    fs = -0.5 * u - 0.25 + 0.5 * lam
    g_lam = K @ u + ((-fs)[:, None] * Sigma**2).sum(axis=0) - Kv
    S = eye - Sigma * lam[None, :]
    M = (np.outer(u, v) + S.T @ (fs[:, None] * S)
         + 0.5 * Kinv @ Sigma @ Kinv - 0.5 * np.outer(v, v) - 0.5 * Kinv)
    dK_dlog_ell = np.exp(log_sv) * C * (D2 / np.exp(log_ell) ** 2)
    grad = np.concatenate([g_lam * lam * (1.0 - 2.0 * lam),
                           [np.sum(M * dK_dlog_ell), np.sum(M * K),
                            np.sum(u)]])
    return fval, grad


def _wide_noise_case(m, seed, n=40):
    """Packed point x whose effective noise r spans 1e-6 to 1e3, with m
    of the N+1 basis columns at precisions from e^-3 to e^3 and targets
    drawn from the model at that noise."""
    rng = np.random.default_rng(seed)
    X = np.linspace(0.0, 1.0, n)[:, None]
    D2 = _sqdist(X, X)
    Phi = build_design_matrix(X, KernelSpec(lengthscale=0.3)).values
    Phi_a = Phi[:, np.sort(rng.choice(n + 1, m, replace=False))]
    alpha = np.exp(rng.uniform(-3, 3, m))
    x = np.concatenate([np.linspace(-6, 6, n),
                        [np.log(0.2), 1.05, np.log(1e3) + 0.9]])
    K, _ = _noise_cov(D2, x[n], x[n + 1])
    mu, Sigma = reduced_to_moments(0.5 * _sigmoid(x[:n]), K, x[n + 2])
    r = noise_diag(mu, Sigma)
    y = (Phi_a @ (rng.normal(size=m) / np.sqrt(alpha))
         + np.sqrt(r) * rng.normal(size=n))
    return x, D2, Phi_a, alpha, y, r


class TestBoundAgainstDenseInverses:
    """The Woodbury bound and gradient against the explicit C^-1 / K^-1
    formulas, with the noise spanning nine decades and m > N, m < N and
    m = 1."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("m", [41, 10, 1])
    def test_matches_dense_form(self, m, seed):
        x, D2, Phi_a, alpha, y, r = _wide_noise_case(m, seed)
        assert r.min() <= 1e-6 and r.max() >= 1e3
        f, g = _bound_value_grad(x, D2, Phi_a, alpha, y)
        f_ref, g_ref = _dense_bound_value_grad(x, D2, Phi_a, alpha, y)
        assert f == pytest.approx(f_ref, rel=1e-9)
        err = np.abs(g - g_ref) / np.maximum(1.0, np.abs(g_ref))
        assert np.max(err) < 1e-7


class TestQOnlyBound:
    """The q-stage's evaluation skips the (log_ell, log_sv) block; what it
    does return, and the completed gradient, are the full call's bits."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", [41, 10, 1])
    def test_matches_full_call(self, m, seed):
        x, D2, Phi_a, alpha, y, _ = _wide_noise_case(m, seed)
        n = y.size
        f, g = _bound_value_grad(x, D2, Phi_a, alpha, y)
        f_q, g_q, complete = _bound_value_grad(x, D2, Phi_a, alpha, y, False)
        assert f_q == f
        assert np.array_equal(g_q[:n], g[:n]) and g_q[n + 2] == g[n + 2]
        assert np.all(np.isnan(g_q[n:n + 2]))
        assert np.array_equal(complete(), g)


def _update_alpha_reference(alpha, Phi_a, r, y, max_inner=30):
    """The precision update as first written, with the jump to the
    largest precision for a column that reads q^2 <= s at two
    consecutive steps: a fresh Gram matrix and Cholesky factor for every
    posterior and every evidence."""
    def gram():
        Phir = Phi_a / r[:, None]
        return Phi_a.T @ Phir, Phir.T @ y

    def factor(a):
        G, b = gram()
        L = sla.cholesky(np.diag(a) + G, lower=True, check_finite=False)
        return L, b

    def evidence(a):
        L, b = factor(a)
        v = sla.solve_triangular(L, b, lower=True, check_finite=False)
        logdet = np.sum(np.log(r))
        logdet += 2.0 * np.sum(np.log(np.diag(L))) - np.sum(np.log(a))
        quad = y @ (y / r) - v @ v
        return float(-0.5 * (y.size * np.log(2 * np.pi) + logdet + quad))

    alpha = np.asarray(alpha, dtype=float).copy()
    ev = evidence(alpha)
    dead_before = np.zeros(alpha.size, dtype=bool)
    for _ in range(max_inner):
        L, b = factor(alpha)
        Sigma_w = sla.cho_solve((L, True), np.eye(alpha.size),
                                check_finite=False)
        Sigma_w = 0.5 * (Sigma_w + Sigma_w.T)
        mu_w = sla.cho_solve((L, True), b, check_finite=False)
        gamma = np.clip(1.0 - alpha * np.diag(Sigma_w), 1e-12, 1.0)
        G, _ = gram()
        s = np.diag(Sigma_w @ G) / np.diag(Sigma_w)
        q = mu_w / np.diag(Sigma_w)
        dead = q**2 <= s
        with np.errstate(divide="ignore", invalid="ignore"):
            proposal = gamma / mu_w**2
        jump = dead & dead_before
        dead_before = dead
        proposal = np.where(np.isfinite(proposal) & (proposal > 0) & ~jump,
                            proposal, 1e14)
        trial = np.clip(proposal, 1e-12, 1e14)
        accepted = False
        for _ in range(8):
            ev_new = evidence(trial)
            if ev_new >= ev - 1e-10:
                accepted = True
                break
            trial = np.sqrt(trial * alpha)
        if not accepted:
            break
        change = float(np.max(np.abs(np.log(trial) - np.log(alpha))))
        alpha, ev = trial, ev_new
        if change < 1e-3:
            break
    return alpha, ev


def _dense_sparsity_quality(Phi_a, alpha, r, y, j):
    """(s_j, q_j) from a dense Cholesky of C_-j = diag(r) +
    sum_{i != j} phi_i phi_i^T / alpha_i, as rvm.sparsity_quality does
    for constant noise."""
    C = np.diag(r)
    for i in range(alpha.size):
        if i != j:
            C = C + np.outer(Phi_a[:, i], Phi_a[:, i]) / alpha[i]
    u = sla.cho_solve(sla.cho_factor(C, lower=True), Phi_a[:, j])
    return Phi_a[:, j] @ u, u @ y


class TestUpdateAlpha:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_reference_loop(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(8, 40))
        m = int(rng.integers(1, n + 2))
        Phi = rng.normal(size=(n, m))
        y = Phi[:, 0] + 0.3 * rng.normal(size=n)
        r = np.exp(rng.normal(size=n))
        a0 = np.exp(rng.normal(size=m))
        a, ev = update_alpha(a0, Phi, r, y)
        a_ref, ev_ref = _update_alpha_reference(a0, Phi, r, y)
        assert np.array_equal(a, a_ref)
        assert ev == ev_ref

    @pytest.mark.parametrize("seed", range(6))
    def test_sparsity_quality_matches_dense_oracle(self, seed):
        # the (s, q) the jump test reads, from the posterior update_alpha
        # builds, at precisions over the whole clamp range and noise
        # spanning six decades
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(8, 40))
        m = int(rng.integers(1, n + 2))
        Phi = rng.normal(size=(n, m))
        y = Phi[:, 0] + 0.3 * rng.normal(size=n)
        r = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        alpha = 10.0 ** rng.uniform(-2.0, 14.0, size=m)
        _, G, b = _gram(Phi, r, y)
        L = _factor(G, alpha)
        s, q = _sparsity_quality(G, chol_solve(L, np.eye(m)),
                                 chol_solve(L, b))
        dense = np.array([_dense_sparsity_quality(Phi, alpha, r, y, j)
                          for j in range(m)])
        np.testing.assert_allclose(s, dense[:, 0], rtol=1e-8, atol=0)
        np.testing.assert_allclose(q, dense[:, 1], rtol=1e-8, atol=0)

    def test_one_factorization_per_evidence(self, monkeypatch):
        calls = {"chol": 0, "evidence": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(hetrvm.vi, "chol_factor",
                            counted("chol", hetrvm.vi.chol_factor))
        monkeypatch.setattr(hetrvm.vi, "_evidence",
                            counted("evidence", hetrvm.vi._evidence))
        rng = np.random.default_rng(13)
        Phi = rng.normal(size=(20, 6))
        y = Phi[:, 0] + 0.3 * rng.normal(size=20)
        update_alpha(np.ones(6), Phi, np.exp(rng.normal(size=20)), y)
        assert calls["evidence"] > 2
        assert calls["chol"] == calls["evidence"]

    def test_ep_model_unchanged_by_shared_factor(self, monkeypatch):
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=60, seed=1))
        kernel = KernelSpec(lengthscale=0.3)
        shared = fit_ep(data, kernel)
        monkeypatch.setattr(hetrvm.ep, "update_alpha", _update_alpha_reference)
        fresh = fit_ep(data, kernel)
        assert (json.dumps(model_to_dict(shared), sort_keys=True)
                == json.dumps(model_to_dict(fresh), sort_keys=True))

    def test_single_basis_matches_grid(self):
        rng = np.random.default_rng(8)
        phi = rng.normal(size=7)[:, None]
        y = 1.5 * phi[:, 0] + 0.4 * rng.normal(size=7)
        r = np.ones(7)
        alpha, _ = update_alpha(np.array([1.0]), phi, r, y, max_inner=200)

        def ev(a):
            C = np.outer(phi[:, 0], phi[:, 0]) / a + np.eye(7)
            return multivariate_normal.logpdf(y, mean=np.zeros(7), cov=C)

        grid = np.exp(np.linspace(np.log(alpha[0]) - 2,
                                  np.log(alpha[0]) + 2, 2001))
        best = grid[int(np.argmax([ev(a) for a in grid]))]
        assert abs(np.log(alpha[0]) - np.log(best)) < 0.01

    def test_evidence_never_decreases(self):
        rng = np.random.default_rng(9)
        Phi = rng.normal(size=(10, 4))
        y = rng.normal(size=10)
        r = np.exp(rng.normal(size=10) * 0.3)
        a0 = np.ones(4)

        def ev(a):
            C = Phi @ np.diag(1.0 / a) @ Phi.T + np.diag(r)
            return multivariate_normal.logpdf(y, mean=np.zeros(10), cov=C)

        a1, _ = update_alpha(a0, Phi, r, y)
        assert ev(a1) >= ev(a0) - 1e-8

    def test_irrelevant_basis_diverges(self):
        rng = np.random.default_rng(10)
        phi_good = rng.normal(size=20)
        y = 2.0 * phi_good + 0.1 * rng.normal(size=20)
        phi_junk = rng.normal(size=20)
        # make the junk basis exactly useless: orthogonal to the span of
        # y and the relevant column, so its optimal precision is infinite
        B = np.column_stack([phi_good, y])
        phi_junk -= B @ np.linalg.lstsq(B, phi_junk, rcond=None)[0]
        Phi = np.column_stack([phi_good, phi_junk])
        alpha = np.ones(2)
        r = np.full(20, 0.01)
        for _ in range(200):
            alpha, _ = update_alpha(alpha, Phi, r, y)
        assert alpha[0] < 1e3
        assert alpha[1] > 1e6

    def test_irrelevant_basis_jumps_in_one_call(self):
        # the problem above: q^2 <= s holds for the junk column from the
        # first step, so one call sends it to the clamp
        rng = np.random.default_rng(10)
        phi_good = rng.normal(size=20)
        y = 2.0 * phi_good + 0.1 * rng.normal(size=20)
        phi_junk = rng.normal(size=20)
        B = np.column_stack([phi_good, y])
        phi_junk -= B @ np.linalg.lstsq(B, phi_junk, rcond=None)[0]
        Phi = np.column_stack([phi_good, phi_junk])
        alpha, _ = update_alpha(np.ones(2), Phi, np.full(20, 0.01), y)
        assert alpha[0] < 1e3
        assert alpha[1] == _ALPHA_MAX

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(n=hst.integers(3, 40), data=hst.data(),
           seed=hst.integers(0, 2**32 - 1),
           log_r=hst.tuples(hst.floats(-8.0, 4.0), hst.floats(-8.0, 4.0)),
           log10_scale=hst.floats(-3.0, 3.0))
    def test_precisions_in_range_and_evidence_never_falls(
            self, n, data, seed, log_r, log10_scale):
        m = data.draw(hst.integers(1, n + 1), label="m")
        rng = np.random.default_rng(seed)
        Phi = rng.normal(size=(n, m))
        y = (Phi[:, 0] + 0.3 * rng.normal(size=n)) * 10.0**log10_scale
        r = np.exp(rng.uniform(*sorted(log_r), size=n))
        a0 = np.exp(rng.normal(size=m))
        ev0 = _weight_fit(Phi, a0, r, y)[0]
        alpha, ev = update_alpha(a0, Phi, r, y)
        assert np.all(np.isfinite(alpha))
        assert np.all((alpha >= 1e-12) & (alpha <= 1e14))
        assert ev >= ev0 - 1e-10
        assert ev == pytest.approx(_weight_fit(Phi, alpha, r, y)[0],
                                   rel=1e-9, abs=0)


class TestPruneBasis:
    def test_noop_below_threshold(self):
        active, alpha, pruned = prune_basis([0, 1], np.array([1.0, 2.0]),
                                            1e12)
        assert not pruned
        assert active == [0, 1]

    def test_removes_large_precision(self):
        active, alpha, pruned = prune_basis(
            [0, 1, 2], np.array([1.0, 1e13, 2.0]), 1e12)
        assert pruned
        assert active == [0, 2]
        np.testing.assert_allclose(alpha, [1.0, 2.0])

    def test_keeps_smallest_when_all_exceed(self):
        active, alpha, pruned = prune_basis(
            [0, 1, 2], np.array([5e13, 1e13, 9e13]), 1e12)
        assert active == [1]

    def test_empty_set_stays_empty(self):
        active, alpha, pruned = prune_basis([], np.zeros(0), 1e12)
        assert not pruned
        assert active == [] and alpha.size == 0


class TestFitVi:
    def test_deterministic_training_log(self):
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=40, seed=0))
        cfg = VIConfig(max_iter=15)
        m1 = fit_vi(data, KernelSpec(lengthscale=0.3), cfg)
        m2 = fit_vi(data, KernelSpec(lengthscale=0.3), cfg)
        assert m1.training_log == m2.training_log
        assert np.array_equal(m1.g_mu, m2.g_mu)

    def test_bound_monotone_between_non_prune_iterations(self):
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=50, seed=1))
        model = fit_vi(data, KernelSpec(lengthscale=0.3), VIConfig(max_iter=25))
        log = model.training_log
        prunes = set(model.config["prune_iterations"])
        for i in range(1, len(log)):
            if (i - 1) not in prunes:
                assert log[i] >= log[i - 1] - 1e-8

    def test_clamped_matches_constant_noise_posterior(self):
        data, _ = synth(SynthSpec(generator="const_noise", n=25, seed=2))
        c = np.log(0.3**2)
        model = fit_vi(data, KernelSpec(lengthscale=0.5),
                       VIConfig(clamp_g=c, max_iter=60, standardize=False))
        Phi = build_design_matrix(data.X, model.kernel).values
        Phi_a = Phi[:, model.active_indices]
        s2 = np.exp(c)
        H = np.diag(model.alpha) + Phi_a.T @ Phi_a / s2
        mu_ref = np.linalg.solve(H, Phi_a.T @ data.y / s2)
        np.testing.assert_allclose(model.mu_w, mu_ref, atol=1e-10)
        np.testing.assert_allclose(model.Sigma_w, np.linalg.inv(H), atol=1e-10)

    def test_q_stage_gradient_changes_no_number(self, monkeypatch):
        # oracle: the same fit with the q-stage computing full gradients
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=60, seed=1))
        kernel = KernelSpec(lengthscale=0.3)
        bound = hetrvm.vi._bound_value_grad
        q_only = []

        def counted(x, D2, Phi_a, alpha, y, hyper=True):
            q_only.append(not hyper)
            return bound(x, D2, Phi_a, alpha, y, hyper)

        monkeypatch.setattr(hetrvm.vi, "_bound_value_grad", counted)
        lean = fit_vi(data, kernel)
        assert any(q_only)
        monkeypatch.setattr(hetrvm.vi, "_bound_value_grad",
                            lambda x, D2, Phi_a, alpha, y, hyper=True:
                            bound(x, D2, Phi_a, alpha, y))
        full = fit_vi(data, kernel)
        assert (json.dumps(model_to_dict(lean), sort_keys=True)
                == json.dumps(model_to_dict(full), sort_keys=True))

    def test_stalled_optimizer_retries_then_ends_stalled(self, monkeypatch):
        # an optimizer that fails without progress: each stage retries once
        # with a longer line search, and the second stalled iteration ends
        # the fit
        calls = []

        def no_progress(fun, x0, jac, method, options):
            calls.append(options)
            return SimpleNamespace(success=False, fun=fun(x0)[0], x=x0.copy(),
                                   nfev=1)

        monkeypatch.setattr(hetrvm.vi, "minimize", no_progress)
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=30, seed=0))
        model = fit_vi(data, KernelSpec(lengthscale=0.3),
                       VIConfig(inner_maxiter=40))
        assert model.status == "stalled" and model.n_iter == 2
        assert [c["maxls"] for c in calls] == [40, 60] * 4
        assert [c["maxiter"] for c in calls] == [40, 20] * 4
        assert len(model.training_log) == 2

    def test_learns_heteroscedastic_ramp(self):
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=80, seed=3))
        model = fit_vi(data, KernelSpec(lengthscale=0.3))
        x = data.X[:, 0]
        lo = model.g_mu[x < 0.3].mean()
        hi = model.g_mu[x > 0.7].mean()
        assert hi > lo  # inferred log-variance rises with x

    def test_constant_noise_stays_flat(self):
        data, _ = synth(SynthSpec(generator="const_noise", n=60, seed=4))
        model = fit_vi(data, KernelSpec(lengthscale=0.5))
        ratio = np.exp(model.g_mu.max() - model.g_mu.min())
        assert ratio < 3.0

    def test_status_and_shapes(self):
        data, _ = synth(SynthSpec(n=30, seed=5))
        model = fit_vi(data, KernelSpec(lengthscale=0.3), VIConfig(max_iter=10))
        assert model.status in ("converged", "max_iter", "stalled")
        m = len(model.active_indices)
        assert model.mu_w.shape == (m,)
        assert model.Sigma_w.shape == (m, m)
        assert model.g_mu.shape == (30,)

    def test_each_point_evaluated_once_per_outer_iteration(self, monkeypatch):
        seen = [set()]
        repeats = []
        bound = hetrvm.vi._bound_value_grad
        alpha_step = hetrvm.vi.update_alpha

        def counted_bound(x, *args):
            key = x.tobytes()
            if key in seen[-1]:
                repeats.append(key)
            seen[-1].add(key)
            return bound(x, *args)

        def next_iteration(*args, **kwargs):
            seen.append(set())   # ends the outer iteration's L-BFGS work
            return alpha_step(*args, **kwargs)

        monkeypatch.setattr(hetrvm.vi, "_bound_value_grad", counted_bound)
        monkeypatch.setattr(hetrvm.vi, "update_alpha", next_iteration)
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=40, seed=0))
        model = fit_vi(data, KernelSpec(lengthscale=0.3), VIConfig(max_iter=8))
        assert len(seen) == model.n_iter + 1
        assert all(seen[:-1])
        assert not repeats

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fits_n150_where_trial_points_break_down(self, seed):
        # on these draws an L-BFGS trial point in the first iteration
        # drives the effective noise to the exp(-700) clip, where the
        # bound cannot be evaluated; the line search must back off
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=150, seed=seed))
        model = fit_vi(data, KernelSpec(lengthscale=0.3))
        assert model.status == "converged"
        assert np.all(np.isfinite(model.training_log))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_vi(Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0])))

    def test_numpy_integer_settings_accepted(self):
        assert RvmConfig(max_iter=np.int64(3)).max_iter == 3
        assert VIConfig(max_iter=np.int32(3),
                        inner_maxiter=np.int64(5)).inner_maxiter == 5
        cfg = EpConfig(max_passes=np.int64(3), quad_order=np.int32(8))
        assert (cfg.max_passes, cfg.quad_order) == (3, 8)

    @pytest.mark.parametrize("bad", [
        dict(max_iter=0), dict(max_iter=-3), dict(tol=-1.0),
        dict(tol=float("nan")), dict(alpha_threshold=0.0),
        dict(alpha_threshold=-1.0), dict(alpha_threshold=float("nan")),
        dict(inner_maxiter=0), dict(max_iter=1.5), dict(max_iter=True),
        dict(inner_maxiter=2.5), dict(inner_maxiter=True),
        dict(tol=float("inf"))])
    def test_invalid_config_rejected_before_setup(self, monkeypatch, bad):
        def no_setup(*args, **kwargs):
            raise AssertionError("config must be checked before setup")

        monkeypatch.setattr(hetrvm.vi, "build_design_matrix", no_setup)
        data, _ = synth(SynthSpec(n=10, seed=0))
        with pytest.raises(ValueError):
            fit_vi(data, KernelSpec(lengthscale=0.3), VIConfig(**bad))


def test_fit_vi_reaches_lbfgs_through_module_minimize(monkeypatch):
    """``fit_vi`` calls L-BFGS through the module-level ``minimize``,
    which imports scipy.optimize on first use, so a wrapper bound there
    sees every optimizer call."""
    calls = []
    forward = hetrvm.vi.minimize

    def counting(*args, **kwargs):
        calls.append(kwargs["method"])
        return forward(*args, **kwargs)

    monkeypatch.setattr(hetrvm.vi, "minimize", counting)
    data, _ = synth(SynthSpec(generator="goldberg_sine", n=20, seed=0))
    model = fit_vi(data, KernelSpec(lengthscale=0.3), VIConfig(max_iter=3))
    assert calls and set(calls) == {"L-BFGS-B"}
    # two L-BFGS stages per outer iteration, plus any retries
    assert len(calls) >= 2 * model.n_iter
