from types import SimpleNamespace

import conftest
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as hst
from scipy.stats import multivariate_normal

import hetrvm.core
import hetrvm.ep
import hetrvm.numerics
import hetrvm.rvm
import hetrvm.vi
from hetrvm.core import (_gram, _setup, _sparsity_quality, _weight_fit,
                         noise_diag, update_alpha, weight_posterior)
from hetrvm.data import DataError, Dataset, SynthSpec, standardize, synth
from hetrvm.ep import EpConfig, fit_ep
from hetrvm.kernels import (GpNoisePrior, KernelSpec, _split_prior, _sqdist,
                            build_design_matrix, gp_covariance)
from hetrvm.numerics import (_PriorCov, _factor, _q_cov, chol_solve,
                             gauss_hermite)
from hetrvm.predict import nlpd, predict
from hetrvm.rvm import RvmConfig, fit_rvm
from hetrvm.vi import (VIConfig, VariationalState, _bound_value_grad,
                       _q_point, _sigmoid, collapsed_bound, fit_vi)
from conftest import (SelectionLog, all_sq_at, make_state, noise_cov,
                      noise_split, selection_inputs)
from oracles import (actions_formula, all_sq_formula, bound_formula,
                     dense_sparsity_quality, expected_loglik, grad_check,
                     prior_cov, q_cov_formula, q_point_formula,
                     reduced_cov, sigmoid_two_branch)


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
    """The moments _q_point gives the reduced parameters.  Each prior is
    split at its own jitter: K = I leaves rank 0, 2 I + 0.5 rank 1 and
    A A^T + I full rank."""

    def test_identity_prior_quarter(self):
        cov = prior_cov(np.eye(2), 1.0)
        mu, q = _q_point(np.full(2, 0.25), 0.0, cov)[:2]
        np.testing.assert_allclose(conftest.dense_sigma(q), 0.8 * np.eye(2),
                                   atol=1e-12)
        np.testing.assert_allclose(mu, [-0.25, -0.25], atol=1e-12)

    def test_half_limit_mean_is_mu0(self):
        lam = np.full(3, 0.5 - 1e-12)
        mu = _q_point(lam, 1.3, prior_cov(2.0 * np.eye(3) + 0.5, 2.0))[0]
        np.testing.assert_allclose(mu, 1.3, atol=1e-9)

    def test_matches_direct_inverse(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(4, 4)) * 0.4
        K = A @ A.T + np.eye(4)
        lam = rng.uniform(0.05, 0.45, 4)
        mu, q = _q_point(lam, 0.7, prior_cov(K, 1.0))[:2]
        want = np.linalg.inv(np.linalg.inv(K) + np.diag(lam))
        np.testing.assert_allclose(conftest.dense_sigma(q), want, atol=1e-10)
        np.testing.assert_allclose(mu, K @ (lam - 0.5) + 0.7, atol=1e-12)


class TestCollapsedBound:
    def test_matches_direct_oracle(self):
        # independent evaluation with explicit inverses and scipy logpdf
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, (3, 1))
        Phi = build_design_matrix(X, KernelSpec())
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
        Phi = build_design_matrix(X, KernelSpec())
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
    """The (eta, mu0) gradient L-BFGS reads, _bound_value_grad's, against
    central differences of collapsed_bound, at random noise-GP
    hyperparameters that fix K for each state."""

    def test_against_finite_differences(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, (4, 1))
        Phi = build_design_matrix(X, KernelSpec())
        y = rng.normal(size=4)
        alpha = rng.uniform(0.2, 3.0, 5)
        for _ in range(5):
            eta = rng.normal(size=4)
            log_ell, log_sv = rng.uniform(-0.5, 0.5, 2)

            def unpack(x):
                return make_state(X, eta=x[:4], log_ell=log_ell,
                                  log_sv=log_sv, mu0=float(x[4]),
                                  alpha=alpha, active=[0, 1, 2, 3, 4])

            cov = noise_split(X, log_ell, log_sv)
            f = lambda x: collapsed_bound(unpack(x), Phi, y)
            g = lambda x: _bound_value_grad(x, cov, Phi, alpha, y)[1]
            x = np.append(eta, rng.normal(size=1))
            assert grad_check(f, g, x) < 1e-4

    def test_against_finite_differences_n12(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, (12, 1))
        Phi = build_design_matrix(X, KernelSpec(lengthscale=0.3))
        y = 2.0 * np.sin(2 * np.pi * X[:, 0]) + 0.3 * rng.normal(size=12)
        active = [0, 2, 3, 5, 7, 8, 11, 12]
        alpha = rng.uniform(0.2, 3.0, len(active))
        for _ in range(3):
            eta = rng.normal(size=12) * 2.0
            log_ell = float(rng.uniform(-1.5, 0.0))
            log_sv = float(rng.uniform(-0.5, 0.5))

            def unpack(x):
                return make_state(X, eta=x[:12], log_ell=log_ell,
                                  log_sv=log_sv, mu0=float(x[12]),
                                  alpha=alpha, active=active)

            cov = noise_split(X, log_ell, log_sv)
            f = lambda x: collapsed_bound(unpack(x), Phi, y)
            g = lambda x: _bound_value_grad(x, cov, Phi[:, active], alpha,
                                            y)[1]
            x = np.append(eta, rng.normal(size=1))
            assert grad_check(f, g, x) < 1e-4


def _dense_bound_value_grad(x, K, Phi_a, alpha, y):
    """The bound and its gradient in [eta, mu0] with an explicit N x N
    inverse of the collapsed covariance C: the dense form the Woodbury
    one in hetrvm.vi replaced."""
    n = y.size
    mu0 = x[n]
    lam = np.clip(0.5 * _sigmoid(x[:n]), 1e-12, 0.5 - 1e-12)
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

    Cinv = sla.cho_solve((Lc, True), np.eye(n))
    u = 0.5 * (beta**2 - np.diag(Cinv)) * r
    fs = -0.5 * u - 0.25 + 0.5 * lam
    g_lam = K @ u + ((-fs)[:, None] * Sigma**2).sum(axis=0) - Kv
    grad = np.append(g_lam * lam * (1.0 - 2.0 * lam), np.sum(u))
    return fval, grad


def _wide_noise_case(m, seed, n=40):
    """Packed point x = [eta, mu0] and split prior covariance ``cov``
    whose effective noise r spans 1e-6 to 1e3, with m of the N+1 basis
    columns at precisions from e^-3 to e^3 and targets drawn from the
    model at that noise."""
    rng = np.random.default_rng(seed)
    X = np.linspace(0.0, 1.0, n)[:, None]
    Phi = build_design_matrix(X, KernelSpec(lengthscale=0.3))
    Phi_a = Phi[:, np.sort(rng.choice(n + 1, m, replace=False))]
    alpha = np.exp(rng.uniform(-3, 3, m))
    x = np.append(np.linspace(-6, 6, n), np.log(1e3) + 0.9)
    cov = noise_split(X, np.log(0.2), 1.05)
    mu, q = _q_point(0.5 * _sigmoid(x[:n]), x[n], cov)[:2]
    r = noise_diag(mu, q.diag)
    y = (Phi_a @ (rng.normal(size=m) / np.sqrt(alpha))
         + np.sqrt(r) * rng.normal(size=n))
    return x, cov, noise_cov(X, np.log(0.2), 1.05), Phi_a, alpha, y, r


class TestBoundAgainstDenseInverses:
    """The Woodbury bound and gradient against the explicit C^-1 formula,
    with the noise spanning nine decades and m > N, m < N and m = 1."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("m", [41, 10, 1])
    def test_matches_dense_form(self, m, seed):
        x, cov, K, Phi_a, alpha, y, r = _wide_noise_case(m, seed)
        assert r.min() <= 1e-6 and r.max() >= 1e3
        f, g = _bound_value_grad(x, cov, Phi_a, alpha, y)
        f_ref, g_ref = _dense_bound_value_grad(x, K, Phi_a, alpha, y)
        assert f == pytest.approx(f_ref, rel=1e-9)
        err = np.abs(g - g_ref) / np.maximum(1.0, np.abs(g_ref))
        assert np.max(err) < 1e-7


def _same_bits(got, want):
    """Equal shapes and equal bytes: -0.0 is not 0.0, and a nan matches
    only a nan of the same bits."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _frozen_cases():
    """(x, cov, Phi_a, alpha, y) for the bit checks: the N=100 draw of the
    benchmark's size (r = 16, m = 5, F as the pivoted split lays it out),
    an N=12 prior split densely with a jitter of 1e-6 and of 0.5 (where
    the jitter's terms are not lost to rounding), in both memory layouts
    of F, and the nine-decade noise of ``_wide_noise_case`` at m > N,
    m < N and m = 1."""
    data = synth(SynthSpec(generator="goldberg_sine", n=100, seed=0))[0]
    work = standardize(data)[0]
    prior, cov = _setup(work)
    Phi = build_design_matrix(work.X, KernelSpec(lengthscale=0.3))
    rng = np.random.default_rng(36)
    for _ in range(3):
        x = np.append(rng.normal(0.0, 2.0, 100), prior.mu0 + rng.normal())
        cols = np.sort(rng.choice(101, 5, replace=False))
        yield x, cov, Phi[:, cols], np.exp(rng.uniform(-3, 3, 5)), work.y
    X = np.linspace(0.0, 1.0, 12)[:, None]
    K = noise_cov(X, np.log(0.3), 0.2)
    Phi = build_design_matrix(X, KernelSpec(lengthscale=0.3))
    for jitter in (1e-6, 0.5):
        split = prior_cov(K + (jitter - 1e-6) * np.eye(12), jitter)
        for layout in (np.asfortranarray, np.ascontiguousarray):
            x = np.append(rng.normal(0.0, 3.0, 12), -1.0)
            yield (x, _PriorCov(split.jitter, layout(split.F)),
                   Phi[:, [0, 4, 9]], np.array([0.5, 2.0, 8.0]),
                   rng.normal(size=12))
    for m in (41, 10, 1):
        x, cov, _, Phi_a, alpha, y, _ = _wide_noise_case(m, m)
        yield x, cov, Phi_a, alpha, y


class TestFrozenFormulas:
    """The bound evaluation and the selection step make fewer numpy calls
    than their formulas written out (tests/oracles.py), and must give
    their bits."""

    def test_sigmoid_matches_two_branches(self):
        x = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0,
                      745.0, -745.0, np.inf, -np.inf, np.nan,
                      np.copysign(np.nan, -1.0)])
        assert _same_bits(_sigmoid(x), sigmoid_two_branch(x))
        eta = np.random.default_rng(0).normal(0.0, 30.0, 1000)
        assert _same_bits(_sigmoid(eta), sigmoid_two_branch(eta))

    def test_bound_matches_its_formula(self):
        for x, cov, Phi_a, alpha, y in _frozen_cases():
            f, g = _bound_value_grad(x, cov, Phi_a, alpha, y)
            f_ref, g_ref = bound_formula(x, cov, Phi_a, alpha, y)
            assert _same_bits(f, f_ref) and _same_bits(g, g_ref)

    def test_q_cov_matches_its_formula(self):
        # at L-BFGS's reduced parameters and at EP's site precisions,
        # zeros included
        for x, cov, *_ in _frozen_cases():
            n = x.size - 1
            for lam in (0.5 * sigmoid_two_branch(x[:n]),
                        np.where(np.arange(n) % 3, 0.0, 4.0)):
                q = _q_cov(lam, cov)
                assert all(map(_same_bits, (q.jd, q.Y, q.diag, q.logdet_B),
                               q_cov_formula(lam, cov)))

    def test_q_point_matches_its_formula(self):
        # a prior mean far enough out clips the noise's exponent at +-700
        for x, cov, *_ in _frozen_cases():
            lam = 0.5 * sigmoid_two_branch(x[:-1])
            for mu0 in (x[-1], -800.0, 800.0):
                mu, _, Kv, r, trq, kl = _q_point(lam, mu0, cov)
                assert all(map(_same_bits, (mu, Kv, r, trq, kl),
                               q_point_formula(lam, mu0, cov)))

    def test_actions_match_their_formula(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(-0.5, 10.0, 300)
        q = rng.normal(0.0, 3.0, 300)
        s[:6] = [0.0, np.inf, np.nan, 1.0, 2.0, 1e300]
        q[:6] = [1.0, 1.0, 1.0, np.nan, np.sqrt(2.0), 1e200]
        a_old = np.where(rng.uniform(size=300) < 0.1,
                         np.exp(rng.uniform(-5, 5, 300)), np.inf)
        a_old[:6] = [1.0, 1.0, np.inf, 1.0, 3.0, 1.0]
        # update_alpha's errstate, under which the step calls _actions
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            got = hetrvm.core._actions(s, q, a_old)
            want = actions_formula(s, q, a_old)
        assert all(map(_same_bits, got, want))

    @pytest.mark.parametrize("seed", range(4))
    def test_all_sq_matches_its_formula(self, seed):
        rng = np.random.default_rng(seed)
        Phi, y = rng.normal(size=(20, 8)), rng.normal(size=20)
        active = np.array([0, 3, 5])
        r = np.exp(rng.normal(size=20))
        G, d, c, act, L, (mu_w, Sigma_w) = selection_inputs(
            Phi, y, active, np.exp(rng.uniform(-2, 2, 3)), r)
        got = hetrvm.core._all_sq(G, d, c, act, L, (mu_w, Sigma_w))
        want = all_sq_formula(G, d, c, act, L, mu_w, Sigma_w)
        assert all(map(_same_bits, got, want))

    def test_intact_verdict_is_the_sums(self):
        # the guard's verdict, one reduction over every value, is that of
        # the four sums it replaced: every value finite, every weight
        # variance positive
        rng = np.random.default_rng(2)
        for trial in range(400):
            m = int(rng.integers(0, 6))
            B = rng.normal(size=(m, m))
            state = [rng.normal(size=m), B @ B.T + np.eye(m),
                     rng.normal(size=40), rng.normal(size=40)]
            part, kind = int(rng.integers(4)), int(rng.integers(6))
            value = (None, np.nan, np.inf, -np.inf, 0.0, -1e-3)[kind]
            if value is not None and state[part].size:
                if part == 1:
                    state[1][rng.integers(m), rng.integers(m)] = value
                    if kind >= 4:
                        state[1][0, 0] = value  # a variance at 0 or below
                else:
                    state[part][rng.integers(state[part].size)] = value
            mu_w, Sigma_w, s, q = state
            total = s.sum() + q.sum() + mu_w.sum() + Sigma_w.sum()
            want = bool(np.isfinite(total)
                        and np.all(np.diag(Sigma_w) > 0.0))
            assert hetrvm.core._intact(mu_w, Sigma_w, s, q) == want


def _draw_prior(q, n):
    """The split noise-GP prior ``_setup`` builds for a standardized draw,
    goldberg_sine for q = 1, else q inputs on U[0, 1], and the dense
    covariance K of that prior.  Returns (cov, K)."""
    if q == 1:
        data = synth(SynthSpec(generator="goldberg_sine", n=n, seed=0))[0]
    else:
        rng = np.random.default_rng(q)
        data = Dataset(rng.uniform(0.0, 1.0, (n, q)), rng.normal(size=n))
    work = standardize(data)[0]
    prior, cov = _setup(work)
    return cov, gp_covariance(work.X, prior)


def _site_precisions(fill, n):
    """Site precisions: ``fill`` at every site, or for "planted" values in
    VI's range (0, 1/2) with 0, 1e-12 and 1e3 at three sites each."""
    if fill != "planted":
        return np.full(n, fill)
    lam = np.random.default_rng(n).uniform(0.0, 0.5, n)
    lam[:9] = np.repeat([0.0, 1e-12, 1e3], 3)
    return lam


def _assert_matches_dense(q, Sigma, LB):
    """_q_cov's diag(Sigma), Sigma x, log|B| and (Sigma o Sigma) w against
    the dense Sigma and factor of B, to relative 1e-10: each product
    relative to the same product of absolute values (random signs cancel
    in it), and log|B|, a term of the bound, to max(1, |log|B||)."""
    n = Sigma.shape[0]
    rng = np.random.default_rng(0)
    x, w = rng.normal(size=(2, n))
    S2 = Sigma * Sigma
    for got, want, scale in (
            (q.diag, np.diag(Sigma), np.diag(Sigma)),
            (q.mul(x), Sigma @ x, np.abs(Sigma) @ np.abs(x)),
            (q.sq_mul(w), S2 @ w, S2 @ np.abs(w))):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(scale)
    logdet_B = 2.0 * np.sum(np.log(np.diag(LB)))
    assert abs(q.logdet_B - logdet_B) <= 1e-10 * max(1.0, abs(logdet_B))


def _lengthscale_work(case):
    """Standardized inputs for the noise-lengthscale check: goldberg_sine
    draws of 3, 60 and 400 points, 60 points that each appear three
    times, and 60 points with 5 inputs."""
    rng = np.random.default_rng(7)
    if case == "duplicates":
        X = np.repeat(rng.uniform(0.0, 1.0, (20, 1)), 3, axis=0)
    elif case == "five_inputs":
        X = rng.uniform(0.0, 1.0, (60, 5))
    else:
        X = synth(SynthSpec(generator="goldberg_sine", n=int(case),
                            seed=0))[0].X
    return standardize(Dataset(X, rng.normal(size=len(X))))[0]


@pytest.mark.parametrize("case", ["3", "60", "400", "duplicates",
                                  "five_inputs"])
def test_noise_lengthscale_is_the_triu_median(case):
    # _setup gathers the distances above the diagonal row by row; the
    # lengthscale is bit for bit the one of the np.triu_indices form
    work = _lengthscale_work(case)
    D2 = _sqdist(work.X, work.X)
    off = D2[np.triu_indices(work.n, k=1)]
    want = float(np.sqrt(np.median(off[off > 0])))
    if case == "duplicates":
        assert np.count_nonzero(off == 0) == 20 * 3
    assert _setup(work)[0].lengthscale == want


DRAWS = [(1, 60), (1, 400), (5, 60)]


class TestSplitPrior:
    """The split K = j I + F F^T of _setup and the O(N r^2) q(g) routine
    _q_cov against the dense algebra of tests/oracles.py, at r < N (1-D
    draws) and r = N (5 inputs)."""

    @pytest.mark.parametrize("q, n", DRAWS)
    def test_split_rebuilds_prior(self, q, n):
        cov, K = _draw_prior(q, n)
        r = cov.F.shape[1]
        assert (r < n) if q == 1 else (r == n)
        assert cov.jitter == 1e-6
        rebuilt = cov.jitter * np.eye(n) + cov.F @ cov.F.T
        assert np.max(np.abs(rebuilt - K)) <= 1e-12 * np.max(np.abs(K))
        x = np.random.default_rng(0).normal(size=n)
        np.testing.assert_allclose(cov.mv(x), K @ x, rtol=0,
                                   atol=1e-12 * np.max(np.abs(K @ x)))

    @pytest.mark.parametrize("q, n", [(1, 60), (1, 400), (1, 3200),
                                      (5, 200)])
    def test_split_meets_its_stop_against_dense_prior(self, q, n):
        # the pivoted split stops at a largest residual diagonal of
        # N eps sigma_v^2 (sigma_v^2 = 1 in _setup); its residual is
        # positive semidefinite, so no entry of K - (j I + F F^T) exceeds
        # that.  A 1-D draw keeps a low rank, 5 inputs the full rank.
        cov, K = _draw_prior(q, n)
        K -= cov.F @ cov.F.T
        K[np.diag_indices(n)] -= cov.jitter
        assert np.max(np.abs(K)) <= n * np.finfo(float).eps * 1.0
        r = cov.F.shape[1]
        assert cov.F.shape[0] == n and ((r <= 20) if q == 1 else (r == n))

    def test_non_finite_kernel_is_a_factorization_error(self):
        # a NaN input reaches the split as a kernel column that is not
        # finite: a typed error, not a split that stops at rank 0
        X = np.array([[0.0], [np.nan], [1.0]])
        prior = GpNoisePrior(0.0)
        with pytest.raises(hetrvm.vi.FactorizationError):
            _split_prior(X, prior)

    @pytest.mark.parametrize("fill", ["planted", 0.0, 1e-12, 1e3])
    @pytest.mark.parametrize("q, n", DRAWS)
    def test_routine_is_the_woodbury_form_of_its_split(self, q, n, fill):
        # the algebra alone: the dense Sigma of the K the split holds
        cov, _ = _draw_prior(q, n)
        lam = _site_precisions(fill, n)
        K = cov.jitter * np.eye(n) + cov.F @ cov.F.T
        _assert_matches_dense(_q_cov(lam, cov),
                              *reduced_cov(lam, 0.5 * (K + K.T)))

    @pytest.mark.parametrize("q, n", DRAWS)
    def test_routine_matches_dense_prior(self, q, n):
        # the split and the algebra together, against the prior as built
        cov, K = _draw_prior(q, n)
        lam = _site_precisions("planted", n)
        _assert_matches_dense(_q_cov(lam, cov), *reduced_cov(lam, K))

    def test_gradient_at_low_rank_state(self):
        # criterion 5's check at N = 60, r < N, against the dense bound
        # at the dense q(g) of the prior as built
        work = standardize(synth(SynthSpec(generator="goldberg_sine", n=60,
                                           seed=0))[0])[0]
        prior, cov = _setup(work)
        K = gp_covariance(work.X, prior)
        assert cov.F.shape[1] < work.n
        Phi = build_design_matrix(work.X, KernelSpec(lengthscale=0.3))
        active = [0, 5, 17, 30, 44, 59]
        rng = np.random.default_rng(60)
        alpha = rng.uniform(0.2, 3.0, len(active))

        def unpack(x):
            lam = 0.5 * _sigmoid(x[:-1])
            return VariationalState(
                mu=K @ (lam - 0.5) + x[-1],
                Sigma=reduced_cov(lam, K)[0], alpha=alpha,
                active_indices=active, mu0=float(x[-1]), K=K)

        x = np.append(rng.normal(size=work.n), rng.normal())
        f = lambda v: collapsed_bound(unpack(v), Phi, work.y)
        g = lambda v: _bound_value_grad(v, cov, Phi[:, active], alpha,
                                        work.y)[1]
        assert grad_check(f, g, x) < 1e-4


def _update_alpha_reference(active, alpha, Phi, r, y, tol):
    """Tipping & Faul's selection written out densely: every column's
    (s, q) from its own C_-j, each candidate's gain from l(a), and the
    evidence from the N x N covariance."""
    def evidence(active, alpha):
        C = np.diag(r) + (Phi[:, active] / alpha) @ Phi[:, active].T
        return multivariate_normal.logpdf(y, mean=np.zeros(y.size), cov=C)

    def ell(a, s, q):
        return 0.0 if np.isinf(a) else 0.5 * (q**2 / (a + s)
                                              - np.log(1.0 + s / a))

    active, alpha = list(active), np.asarray(alpha, dtype=float).copy()
    while True:
        ev = evidence(active, alpha)
        best = (-np.inf, None, None)
        for j in range(Phi.shape[1]):
            cols = active if j in active else active + [j]
            a = alpha if j in active else np.append(alpha, 1.0)
            s, q = dense_sparsity_quality(Phi[:, cols], a, r, y,
                                           cols.index(j))
            a_old = alpha[active.index(j)] if j in active else np.inf
            a_new = s**2 / (q**2 - s) if q**2 > s else np.inf
            if a_new != a_old:
                best = max(best, (ell(a_new, s, q) - ell(a_old, s, q), j,
                                  a_new))
        gain, j, a_new = best
        if gain <= max(tol * (1.0 + abs(ev)), 1e-12):
            return active, alpha, ev
        if j not in active:
            active, alpha = active + [j], np.append(alpha, a_new)
        elif np.isinf(a_new):
            alpha = np.delete(alpha, active.index(j))
            active.remove(j)
        else:
            alpha[active.index(j)] = a_new


def _replay(active, alpha, Phi, r, y, tol):
    """update_alpha by hand from its parts, with every R^-1 Phi, Gram
    block and evidence formed afresh for each state: take the best action
    while it gains more than tol (1 + |ev|), checking that each raises
    the evidence by its gain.  Returns (active, alpha, ev, the weight
    posterior of the last state, steps)."""
    act, a = list(active), np.asarray(alpha, dtype=float).copy()
    ev = _weight_fit(Phi[:, act], a, r, y)[0]
    steps = 0
    while True:
        a_old = np.full(Phi.shape[1], np.inf)
        a_old[act] = a
        a_new, gain = hetrvm.core._actions(*all_sq_at(Phi, y, act, a, r),
                                         a_old)
        j = int(np.argmax(gain))
        if gain[j] <= max(tol * (1.0 + abs(ev)), 1e-12):
            return (act, a, ev,
                    selection_inputs(Phi, y, act, a, r)[-1], steps)
        if j not in act:
            act, a = act + [j], np.append(a, a_new[j])
        elif np.isinf(a_new[j]):
            a = np.delete(a, act.index(j))
            act.remove(j)
        else:
            a[act.index(j)] = a_new[j]
        ev_next = _weight_fit(Phi[:, act], a, r, y)[0]
        assert ev_next - ev == pytest.approx(gain[j],
                                             abs=1e-9 * (1.0 + abs(ev)))
        assert ev_next > ev
        ev, steps = ev_next, steps + 1


def _alpha_problem(seed):
    """A random (alpha, Phi, r, y) for the precision update."""
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(8, 40))
    m = int(rng.integers(1, n + 2))
    Phi = rng.normal(size=(n, m))
    y = Phi[:, 0] + 0.3 * rng.normal(size=n)
    r = np.exp(rng.normal(size=n))
    return np.exp(rng.normal(size=m)), Phi, r, y


def _decades_problem(seed, top):
    """A random (a0, Phi, r, y) with start precisions 10^U(-2, top), at
    noise spanning six decades."""
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(8, 40))
    m = int(rng.integers(1, n + 2))
    Phi = rng.normal(size=(n, m))
    y = Phi[:, 0] + 0.3 * rng.normal(size=n)
    r = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    return 10.0 ** rng.uniform(-2.0, top, size=m), Phi, r, y


def _check_against_reference(a0, Phi, r, y):
    """update_alpha from every column at a0 ends where the dense reference
    selection does: the same basis, precisions and evidence."""
    start = list(range(a0.size))
    active, alpha, ev, _ = update_alpha(start, a0, Phi, r, y, 1e-6)
    ref_active, ref_alpha, ref_ev = _update_alpha_reference(start, a0, Phi,
                                                            r, y, 1e-6)
    assert active == ref_active
    np.testing.assert_allclose(alpha, ref_alpha, rtol=1e-7)
    assert ev == pytest.approx(ref_ev, rel=1e-9)


def _logged(monkeypatch, select, *args):
    """select(*args) (update_alpha or _replay) and its SelectionLog."""
    with monkeypatch.context() as patch:
        log = SelectionLog(patch)
        out = select(*args)
    return out, log


def _junk_problem():
    """A relevant column and a junk one orthogonal to the span of y and
    the relevant column, so the junk column's optimal precision is
    infinite."""
    rng = np.random.default_rng(10)
    phi_good = rng.normal(size=20)
    y = 2.0 * phi_good + 0.1 * rng.normal(size=20)
    phi_junk = rng.normal(size=20)
    B = np.column_stack([phi_good, y])
    phi_junk -= B @ np.linalg.lstsq(B, phi_junk, rcond=None)[0]
    return np.column_stack([phi_good, phi_junk]), np.full(20, 0.01), y


class TestUpdateAlpha:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_reference_loop(self, seed):
        # from the empty set and from every column at the problem's
        # precisions, the same actions as the dense reference
        a0, Phi, r, y = _alpha_problem(seed)
        for start in (([], np.zeros(0)), (list(range(a0.size)), a0)):
            active, alpha, ev, _ = update_alpha(*start, Phi, r, y, 1e-6)
            ref_active, ref_alpha, ref_ev = _update_alpha_reference(
                *start, Phi, r, y, 1e-6)
            assert active == ref_active
            np.testing.assert_allclose(alpha, ref_alpha, rtol=1e-7)
            assert ev == pytest.approx(ref_ev, rel=1e-9)

    @pytest.mark.parametrize("tol", [1e-6, 1e-4])
    @pytest.mark.parametrize("seed", range(12))
    def test_tol_stops_after_first_flat_step(self, monkeypatch, seed, tol):
        # hand replay at fixed r: the same actions and the same stop, and
        # factorizations that do not grow with the actions: the start
        # state, the stop state and any state the guard rescored
        a0, Phi, r, y = _alpha_problem(seed)
        start = list(range(a0.size))
        (active, alpha, ev, post), log = _logged(
            monkeypatch, update_alpha, start, a0, Phi, r, y, tol)
        (act, a, ev_k, _, steps), log_k = _logged(
            monkeypatch, _replay, start, a0, Phi, r, y, tol)
        assert log.trail == log_k.trail and len(log.trail) == steps > 0
        assert active == act
        np.testing.assert_allclose(alpha, a, rtol=1e-9)
        assert ev == pytest.approx(ev_k, rel=1e-12)
        # the evidence and posterior returned are the stop state's, from
        # its own factor
        ev_w, *post_w = _weight_fit(Phi[:, active], alpha, r, y)
        assert ev == ev_w
        assert all(np.array_equal(p, q) for p, q in zip(post, post_w))
        assert log.chol <= 2 + log.guard

    def test_tol_shortens_a_creeping_call(self, monkeypatch):
        # re-estimates keep gaining a little down to the 1e-12 floor
        a0, Phi, r, y = _alpha_problem(10)
        start = list(range(a0.size))
        (_, _, ev_full, _), full = _logged(monkeypatch, update_alpha, start,
                                           a0, Phi, r, y, 0.0)
        (_, _, ev, _), short = _logged(monkeypatch, update_alpha, start, a0,
                                       Phi, r, y, 1e-6)
        assert short.scored < full.scored
        assert abs(ev - ev_full) < 1e-4

    @pytest.mark.parametrize("seed", range(6))
    def test_sparsity_quality_matches_dense_oracle(self, seed):
        # the in-model (s, q) the actions read, from the posterior
        # update_alpha builds, at precisions over sixteen decades and
        # noise spanning six
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
        dense = np.array([dense_sparsity_quality(Phi, alpha, r, y, j)
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

        log = SelectionLog(monkeypatch)
        monkeypatch.setattr(hetrvm.numerics, "chol_factor",
                            counted("chol", hetrvm.numerics.chol_factor))
        monkeypatch.setattr(hetrvm.core, "_evidence",
                            counted("evidence", hetrvm.core._evidence))
        rng = np.random.default_rng(13)
        Phi = rng.normal(size=(20, 6))
        y = Phi[:, 0] + 0.3 * rng.normal(size=20)
        update_alpha(list(range(6)), np.ones(6), Phi,
                     np.exp(rng.normal(size=20)), y, 1e-6)
        assert len(log.trail) > 2
        assert calls["chol"] == calls["evidence"] >= 2

    def test_ep_model_matches_the_fresh_replay(self, monkeypatch):
        # the updated selection state gives EP the model of a selection
        # that scores every state from scratch: the same basis, status and
        # passes, and the same numbers to rounding
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=60, seed=1))
        test, _ = synth(SynthSpec(generator="goldberg_sine", n=2000,
                                  seed=10_001))
        kernel = KernelSpec(lengthscale=0.3)
        updated = fit_ep(data, kernel)
        monkeypatch.setattr(hetrvm.ep, "update_alpha",
                            lambda *args: _replay(*args)[:4])
        fresh = fit_ep(data, kernel)
        assert updated.active_indices == fresh.active_indices
        assert ((updated.status, updated.n_iter)
                == (fresh.status, fresh.n_iter))
        for name in ("alpha", "g_prec", "g_coef"):
            got, want = getattr(updated, name), getattr(fresh, name)
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
        assert nlpd(predict(updated, test.X), test.y) == pytest.approx(
            nlpd(predict(fresh, test.X), test.y), rel=0, abs=1e-9)

    def test_empty_start_adds_the_best_projection(self, monkeypatch):
        # at r = sigma2 1 the first add's gain grows with q^2 / s, which is
        # proportional to (phi^T y)^2 / |phi|^2: the column with the largest
        # normalized projection, at a0 = s^2 / (q^2 - s)
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=60, seed=0))
        Phi = build_design_matrix(data.X, KernelSpec(lengthscale=0.3))
        y = data.y - data.y.mean()
        sigma2 = 0.1 * float(np.var(y))
        proj = (Phi.T @ y) ** 2 / np.maximum(np.sum(Phi * Phi, axis=0), 1e-300)
        j0 = int(np.argmax(proj))
        s0, q0 = Phi[:, j0] @ Phi[:, j0] / sigma2, Phi[:, j0] @ y / sigma2
        seen = []
        actions = hetrvm.core._actions

        def spy(s, q, a_old):
            seen.append(a_old.copy())
            return actions(s, q, a_old)

        monkeypatch.setattr(hetrvm.core, "_actions", spy)
        update_alpha([], np.zeros(0), Phi, np.full(y.size, sigma2), y, 1e-6)
        assert np.all(np.isinf(seen[0]))
        assert np.flatnonzero(np.isfinite(seen[1])).tolist() == [j0]
        assert seen[1][j0] == pytest.approx(s0**2 / (q0**2 - s0), rel=1e-12)

    def test_pure_noise_ends_empty(self):
        # y^T R^-1 y < 1 bounds every q^2 / s below 1 (Cauchy-Schwarz): the
        # noise explains y, every column is deleted and none is added
        rng = np.random.default_rng(14)
        Phi = rng.normal(size=(30, 8))
        y = rng.normal(size=30)
        r = np.full(30, 2.0 * float(y @ y))
        active, alpha, ev, _ = update_alpha(list(range(8)), np.ones(8), Phi,
                                            r, y, 1e-6)
        assert active == [] and alpha.size == 0
        assert ev == pytest.approx(
            multivariate_normal.logpdf(y, mean=np.zeros(30), cov=np.diag(r)),
            rel=1e-12)

    def test_single_basis_matches_grid(self):
        rng = np.random.default_rng(8)
        phi = rng.normal(size=7)[:, None]
        y = 1.5 * phi[:, 0] + 0.4 * rng.normal(size=7)
        r = np.ones(7)
        active, alpha, *_ = update_alpha([0], np.array([1.0]), phi, r, y,
                                         0.0)
        assert active == [0]

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

        def ev(active, a):
            C = Phi[:, active] @ np.diag(1.0 / a) @ Phi[:, active].T \
                + np.diag(r)
            return multivariate_normal.logpdf(y, mean=np.zeros(10), cov=C)

        active, a1, *_ = update_alpha(list(range(4)), a0, Phi, r, y, 1e-6)
        assert ev(active, a1) >= ev(list(range(4)), a0) - 1e-8

    def test_start_that_cannot_factor_raises(self, monkeypatch):
        def fails(G, alpha):
            raise hetrvm.vi.FactorizationError("start precision", 1)

        monkeypatch.setattr(hetrvm.core, "_factor", fails)
        a0, Phi, r, y = _alpha_problem(0)
        with pytest.raises(hetrvm.vi.FactorizationError):
            update_alpha(list(range(a0.size)), a0, Phi, r, y, 1e-6)

    def test_state_that_stops_factoring_ends_at_the_last_that_did(
            self, monkeypatch):
        # near a singular weight precision the updates drift from the
        # state they track.  On this draw, at EP's start noise, the
        # selection reaches an updated state of 51 columns that does not
        # factor, which raised FactorizationError out of fit_ep.  It ends
        # at the last state that factored, with that state's own evidence
        # and posterior
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=149,
                                  seed=7510))
        kernel = KernelSpec(lengthscale=2.7916980826286726)
        work, _ = standardize(data)
        prior, cov = _setup(work)
        r = noise_diag(np.full(work.n, prior.mu0),
                       cov.jitter + np.sum(cov.F**2, 1))
        Phi = build_design_matrix(work.X, kernel)
        factored = []

        def recording(G, alpha):
            factored.append(False)
            L = _factor(G, alpha)
            factored[-1] = True
            return L

        monkeypatch.setattr(hetrvm.core, "_factor", recording)
        active, alpha, ev, post = update_alpha([], [], Phi, r, work.y, 1e-6)
        monkeypatch.undo()
        assert factored[0] and not factored[-1]
        ev_w, *post_w = _weight_fit(Phi[:, active], alpha, r, work.y)
        assert ev == ev_w
        assert all(np.array_equal(p, q) for p, q in zip(post, post_w))
        assert fit_ep(data, kernel).status == "converged"

    def test_irrelevant_basis_diverges(self):
        # repeated calls at one r keep the junk column out
        Phi, r, y = _junk_problem()
        active, alpha = [0, 1], np.ones(2)
        for _ in range(200):
            active, alpha, *_ = update_alpha(active, alpha, Phi, r, y, 1e-6)
        assert active == [0]
        assert alpha[0] < 1e3

    def test_irrelevant_basis_jumps_in_one_call(self):
        # q^2 <= s holds for the junk column from the start, so one call
        # deletes it
        Phi, r, y = _junk_problem()
        active, alpha, *_ = update_alpha([0, 1], np.ones(2), Phi, r, y, 1e-6)
        assert active == [0]
        assert alpha[0] < 1e3

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
        active, alpha, ev, (mu_w, Sigma_w) = update_alpha(
            list(range(m)), a0, Phi, r, y, 1e-6)
        assert len(set(active)) == len(active) == alpha.size
        assert np.all(np.isfinite(alpha) & (alpha > 0))
        assert ev >= ev0 - 1e-10
        ev_ref, *post_ref = _weight_fit(Phi[:, active], alpha, r, y)
        assert ev == pytest.approx(ev_ref, rel=1e-9, abs=0)
        # the posterior returned is the one of the state returned
        for got, want in zip((mu_w, Sigma_w), post_ref):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-9 * np.max(
                np.abs(want), initial=0.0)


    @pytest.mark.parametrize("generator, lengthscale", [
        ("goldberg_sine", 0.3), ("linear_het", 0.3), ("const_noise", 1.0)])
    def test_trainer_calls_match_the_fresh_replay(self, monkeypatch,
                                                  generator, lengthscale):
        # every selection the three trainers make at N in {100, 200, 400},
        # replayed from scratch: the same basis and evidence, and the
        # posterior of the returned state from its own factor
        calls = []

        def captured(*args):
            out = update_alpha(*args)
            calls.append((args, out))
            return out

        for module in (hetrvm.vi, hetrvm.ep, hetrvm.rvm):
            monkeypatch.setattr(module, "update_alpha", captured)
        kernel = KernelSpec(lengthscale=lengthscale)
        for n in (100, 200, 400):
            for seed in range(3):
                data, _ = synth(SynthSpec(generator=generator, n=n,
                                          seed=seed))
                for fit in (fit_rvm, fit_vi, fit_ep):
                    fit(data, kernel)
        assert len(calls) > 100
        for (active0, alpha0, Phi, r, y, tol), out in calls:
            active, alpha, ev, post = out
            act, _, ev_k, _, _ = _replay(active0, alpha0, Phi, r, y, tol)
            assert active == act
            assert ev == pytest.approx(ev_k, rel=1e-9)
            ev_w, *post_w = _weight_fit(Phi[:, active], alpha, r, y)
            assert ev == ev_w
            assert all(np.array_equal(p, q) for p, q in zip(post, post_w))

    @pytest.mark.parametrize("poison", ["s", "q", "mu_w", "Sigma_w"])
    @pytest.mark.parametrize("seed", range(6))
    def test_broken_update_is_rescored(self, monkeypatch, seed, poison):
        # an update that leaves a value that is not finite, or a weight
        # variance that is not positive, is scored again from scratch: the
        # call returns the reference loop's result, and no nan
        a0, Phi, r, y = _alpha_problem(seed)
        intact = hetrvm.core._intact
        broken = []

        def break_first(mu_w, Sigma_w, s, q):
            if not broken:
                if poison == "Sigma_w":
                    Sigma_w[0, 0] = 0.0
                else:
                    {"s": s, "q": q, "mu_w": mu_w}[poison][0] = np.nan
                broken.append(intact(mu_w, Sigma_w, s, q))
                return broken[0]
            return intact(mu_w, Sigma_w, s, q)

        monkeypatch.setattr(hetrvm.core, "_intact", break_first)
        log = SelectionLog(monkeypatch)
        active, alpha, ev, post = update_alpha([], np.zeros(0), Phi, r, y,
                                               1e-6)
        assert broken == [False] and log.guard == 1
        assert np.isfinite(ev) and all(np.all(np.isfinite(p)) for p in post)
        ref_active, ref_alpha, ref_ev = _update_alpha_reference(
            [], np.zeros(0), Phi, r, y, 1e-6)
        assert active == ref_active
        np.testing.assert_allclose(alpha, ref_alpha, rtol=1e-7)
        assert ev == pytest.approx(ref_ev, rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_precisions_over_thirty_decades_match_reference(self, seed):
        # a re-estimate from a precision near 1e30 to one near 1 changes
        # its weight's variance by thirty decades; kappa written as
        # 1 / (Sigma_kk + 1 / (a_new - a_old)) cancels to rounding there
        _check_against_reference(*_decades_problem(seed, 30.0))

    @pytest.mark.parametrize("seed", range(6))
    def test_precisions_over_fifty_decades_match_reference(self, seed):
        # the range over which the updates are documented to stay on the
        # selection that factors every state
        _check_against_reference(*_decades_problem(seed, 50.0))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="over about 100 decades of start precisions "
                       "a quarter of the problems end off the reference")
    def test_precisions_over_a_hundred_decades_match_reference(self):
        # the drift is not isolated: the stop is decided on fresh (s, q),
        # yet problems 3, 4, 5, 9, ... end on another basis or evidence
        for seed in range(100):
            _check_against_reference(*_decades_problem(seed, 100.0))


class TestFitVi:
    def test_deterministic_training_log(self):
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=40, seed=0))
        cfg = VIConfig(max_iter=15)
        m1 = fit_vi(data, KernelSpec(lengthscale=0.3), cfg)
        m2 = fit_vi(data, KernelSpec(lengthscale=0.3), cfg)
        assert m1.training_log == m2.training_log
        assert np.array_equal(m1.g_prec, m2.g_prec)
        assert np.array_equal(m1.g_coef, m2.g_coef)

    def test_bound_monotone(self):
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=50, seed=1))
        model = fit_vi(data, KernelSpec(lengthscale=0.3), VIConfig(max_iter=25))
        log = model.training_log
        for i in range(1, len(log)):
            assert log[i] >= log[i - 1] - 1e-8

    def test_clamped_matches_constant_noise_posterior(self):
        # q(g) clamped at a point mass c leaves only the basis selection
        # at the constant noise e^c, from the empty basis
        data, _ = synth(SynthSpec(generator="const_noise", n=25, seed=2))
        c = np.log(0.3**2)
        Phi = build_design_matrix(data.X, KernelSpec(lengthscale=0.5))
        r = np.full(data.n, np.exp(c))
        active, alpha, _, (mu_w, Sigma_w) = update_alpha(
            [], np.zeros(0), Phi, r, data.y, VIConfig().tol)
        Phi_a = Phi[:, active]
        s2 = np.exp(c)
        H = np.diag(alpha) + Phi_a.T @ Phi_a / s2
        mu_ref = np.linalg.solve(H, Phi_a.T @ data.y / s2)
        np.testing.assert_allclose(mu_w, mu_ref, atol=1e-10)
        np.testing.assert_allclose(Sigma_w, np.linalg.inv(H), atol=1e-10)

    def test_stalled_optimizer_retries_then_ends_stalled(self, monkeypatch):
        # an optimizer that fails without progress: the fit retries it at
        # the next outer iteration, with the same settings, and the second
        # stalled iteration ends the fit
        calls = []

        def no_progress(fun, x0, jac, method, options):
            calls.append(options)
            return SimpleNamespace(success=False, fun=fun(x0)[0], x=x0.copy(),
                                   nfev=1)

        monkeypatch.setattr(hetrvm.vi, "minimize", no_progress)
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=30, seed=0))
        model = fit_vi(data, KernelSpec(lengthscale=0.3))
        assert model.status == "stalled" and model.n_iter == 2
        assert [c["maxls"] for c in calls] == [40, 40]
        assert [c["maxiter"] for c in calls] == [40, 40]
        assert len(model.training_log) == 2

    def test_learns_heteroscedastic_ramp(self):
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=80, seed=3))
        model = fit_vi(data, KernelSpec(lengthscale=0.3))
        x = data.X[:, 0]
        g_mu = conftest.dense_noise(model)[0]
        lo = g_mu[x < 0.3].mean()
        hi = g_mu[x > 0.7].mean()
        assert hi > lo  # inferred log-variance rises with x

    def test_constant_noise_stays_flat(self):
        data, _ = synth(SynthSpec(generator="const_noise", n=60, seed=4))
        model = fit_vi(data, KernelSpec(lengthscale=0.5))
        g_mu = conftest.dense_noise(model)[0]
        ratio = np.exp(g_mu.max() - g_mu.min())
        assert ratio < 3.0

    def test_status_and_shapes(self):
        data, _ = synth(SynthSpec(n=30, seed=5))
        model = fit_vi(data, KernelSpec(lengthscale=0.3), VIConfig(max_iter=10))
        assert model.status in ("converged", "max_iter", "stalled")
        m = len(model.active_indices)
        assert model.mu_w.shape == (m,)
        assert model.Sigma_w.shape == (m, m)
        # q(g) is stored as lam and lam - 1/2
        assert model.g_prec.shape == model.g_coef.shape == (30,)
        assert np.all((model.g_prec > 0) & (model.g_prec < 0.5))
        assert np.array_equal(model.g_coef, model.g_prec - 0.5)

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
        # the basis is selected once before the first outer iteration
        assert len(seen) == model.n_iter + 2
        assert not seen[0] and all(seen[1:-1])
        assert not repeats

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fits_n150(self, seed):
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=150, seed=seed))
        model = fit_vi(data, KernelSpec(lengthscale=0.3))
        assert model.status == "converged"
        assert np.all(np.isfinite(model.training_log))

    def test_trial_point_breakdown_backs_off(self, monkeypatch):
        # the first trial point of the first iteration cannot be
        # evaluated, as when it drives the effective noise to the
        # exp(-700) clip; the line search backs off and the fit converges
        bound = hetrvm.vi._bound_value_grad
        calls = [0]

        def breaks_once(*args):
            calls[0] += 1
            if calls[0] == 2:  # the first call is the start point
                raise hetrvm.vi.FactorizationError("trial point", 1)
            return bound(*args)

        monkeypatch.setattr(hetrvm.vi, "_bound_value_grad", breaks_once)
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=40, seed=0))
        model = fit_vi(data, KernelSpec(lengthscale=0.3))
        assert calls[0] > 2
        assert model.status == "converged"
        assert np.all(np.isfinite(model.training_log))

    @pytest.mark.parametrize("tol", [1e-5, 1e-7])
    def test_passes_its_tol_to_update_alpha(self, monkeypatch, tol):
        seen = []
        step = hetrvm.vi.update_alpha

        def spy(active, alpha, Phi, r, y, tol):
            seen.append(tol)
            return step(active, alpha, Phi, r, y, tol)

        monkeypatch.setattr(hetrvm.vi, "update_alpha", spy)
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=30, seed=0))
        model = fit_vi(data, KernelSpec(lengthscale=0.3),
                       VIConfig(tol=tol, max_iter=3))
        # once before the first outer iteration, then once in each
        assert len(seen) == model.n_iter + 1
        assert seen == [tol] * len(seen)

    def test_ep_passes_its_tol_to_update_alpha(self, monkeypatch):
        tol = 1e-5
        seen = []
        step = hetrvm.ep.update_alpha

        def spy(active, alpha, Phi, r, y, tol):
            seen.append(tol)
            return step(active, alpha, Phi, r, y, tol)

        monkeypatch.setattr(hetrvm.ep, "update_alpha", spy)
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=30, seed=0))
        model = fit_ep(data, KernelSpec(lengthscale=0.3),
                       EpConfig(tol=tol, max_passes=3))
        assert len(seen) == model.n_iter + 1
        assert seen == [tol] * len(seen)

    def test_too_few_points(self):
        with pytest.raises(DataError):
            fit_vi(Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0])))

    def test_numpy_integer_settings_accepted(self):
        assert RvmConfig(max_iter=np.int64(3)).max_iter == 3
        assert VIConfig(max_iter=np.int32(3)).max_iter == 3
        assert EpConfig(max_passes=np.int64(3)).max_passes == 3
        kernel = KernelSpec(family="polynomial", degree=np.int32(2))
        assert kernel.degree == 2

    @pytest.mark.parametrize("bad", [
        dict(max_iter=0), dict(max_iter=-3), dict(tol=-1.0),
        dict(tol=float("nan")), dict(max_iter=1.5), dict(max_iter=True),
        dict(tol=float("inf")), dict(tol=True), dict(tol="1e-6"),
        dict(tol=None), dict(tol=10**400)])
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
    # one L-BFGS run per outer iteration
    assert len(calls) == model.n_iter
