import numpy as np
import pytest
from scipy.stats import multivariate_normal

import hetrvm.vi
from hetrvm.data import Dataset, SynthSpec, synth
from hetrvm.kernels import (GpNoisePrior, KernelSpec, build_design_matrix,
                            gp_covariance)
from hetrvm.numerics import gauss_hermite, grad_check
from hetrvm.vi import (VIConfig, VariationalState, _log_evidence,
                       bound_gradients, collapsed_bound, expected_loglik, fit_vi, noise_diag,
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
        assert _log_evidence(Phi, alpha, r, y) == pytest.approx(want,
                                                                abs=1e-9)

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


class TestUpdateAlpha:
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

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_vi(Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0])))

    @pytest.mark.parametrize("bad", [
        dict(max_iter=0), dict(max_iter=-3), dict(tol=-1.0),
        dict(tol=float("nan")), dict(alpha_threshold=0.0),
        dict(alpha_threshold=-1.0), dict(alpha_threshold=float("nan")),
        dict(inner_maxiter=0)])
    def test_invalid_config_rejected_before_setup(self, monkeypatch, bad):
        def no_setup(*args, **kwargs):
            raise AssertionError("config must be checked before setup")

        monkeypatch.setattr(hetrvm.vi, "build_design_matrix", no_setup)
        data, _ = synth(SynthSpec(n=10, seed=0))
        with pytest.raises(ValueError):
            fit_vi(data, KernelSpec(lengthscale=0.3), VIConfig(**bad))
