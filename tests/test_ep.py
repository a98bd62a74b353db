import json
import warnings

import conftest
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

import hetrvm.ep
from hetrvm.data import Dataset, SynthSpec, synth
from hetrvm.ep import (EpConfig, cavity, ep_posterior, fit_ep, site_update,
                       tilted_moments)
from hetrvm.kernels import KernelSpec, gp_covariance
from hetrvm.numerics import FactorizationError, Quadrature
from hetrvm.predict import predict
from hetrvm.serialize import model_to_dict
from hetrvm.vi import _q_cov
from oracles import prior_cov

# np.trapezoid is new in numpy 2.0; pyproject.toml accepts numpy 1.24
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def flat_sites(n):
    """n flat sites: precision, precision-times-mean, log normalizer."""
    return np.zeros(n), np.zeros(n), np.zeros(n)


class TestCavity:
    def test_flat_site_returns_marginal(self):
        cav_mu, cav_var, ok = cavity(np.array([0.5]), np.array([2.0]),
                                     *flat_sites(1)[:2])
        assert (cav_mu[0], cav_var[0]) == pytest.approx((0.5, 2.0))
        assert ok[0]

    def test_precision_subtraction(self):
        # prior N(0,1) x site N(0,1) -> posterior N(0, 1/2); cavity = prior
        cav_mu, cav_var, _ = cavity(np.zeros(1), np.array([0.5]),
                                    np.array([1.0]), np.array([0.0]))
        assert cav_mu[0] == pytest.approx(0.0, abs=1e-14)
        assert cav_var[0] == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_recovers_marginal(self):
        K = np.array([[1.0, 0.3], [0.3, 2.0]])
        prec = np.array([0.7, 1.4])
        nu = np.array([0.2, -0.5])
        mu, var, _ = ep_posterior(prior_cov(K), 0.1, prec, nu)
        cav_mu, cav_var, ok = cavity(mu, var, prec, nu)
        assert np.all(ok)
        for n in range(2):
            # re-multiplying the site must recover the marginal moments
            post_prec = 1.0 / cav_var[n] + prec[n]
            post_mu_n = (cav_mu[n] / cav_var[n] + nu[n]) / post_prec
            assert 1.0 / post_prec == pytest.approx(var[n], abs=1e-12)
            assert post_mu_n == pytest.approx(mu[n], abs=1e-12)

    def test_negative_cavity_skipped(self):
        # 1/1 - 3 < 0; 1/1 - 0.5 > 0
        _, cav_var, ok = cavity(np.zeros(2), np.ones(2), np.array([3.0, 0.5]),
                                np.zeros(2))
        assert ok.tolist() == [False, True]
        assert cav_var[1] == pytest.approx(2.0)


class TestTiltedMoments:
    @staticmethod
    def grid_moments(cav_mu, cav_var, m_hat):
        g = np.linspace(cav_mu - 14 * np.sqrt(cav_var),
                        cav_mu + 14 * np.sqrt(cav_var), 100_001)
        logv = (-0.5 * (g - cav_mu) ** 2 / cav_var
                - 0.5 * np.log(2 * np.pi * cav_var)
                - 0.5 * g - 0.5 * m_hat * np.exp(-g)
                - 0.5 * np.log(2 * np.pi))
        v = np.exp(logv - logv.max())
        z = trapezoid(v, g)
        mean = trapezoid(v * g, g) / z
        var = trapezoid(v * (g - mean) ** 2, g) / z
        return np.log(z) + logv.max(), mean, var

    def test_tight_cavity_pins_mean(self):
        cav_mu = 0.4
        logz, mean, var = tilted_moments(cav_mu, 1e-8, np.exp(cav_mu))
        assert mean == pytest.approx(cav_mu, abs=1e-4)
        assert var < 1e-6

    def test_matches_dense_grid(self):
        cases = [(0.0, 1.0, 1.0), (-0.5, 0.5, 2.3), (1.0, 2.0, 0.1),
                 (0.3, 0.8, 5.0)]
        for cav_mu, cav_var, m_hat in cases:
            lz_g, m_g, v_g = self.grid_moments(cav_mu, cav_var, m_hat)
            # full-order rule matches the grid oracle tightly ...
            lz, m, v = tilted_moments(cav_mu, cav_var, m_hat, quad_order=128)
            assert lz == pytest.approx(lz_g, abs=1e-8)
            assert m == pytest.approx(m_g, abs=1e-8)
            assert v == pytest.approx(v_g, abs=1e-8)
            # ... and the default order is still accurate to ~1e-6
            lz, m, v = tilted_moments(cav_mu, cav_var, m_hat)
            assert m == pytest.approx(m_g, abs=1e-6)
            assert v == pytest.approx(v_g, abs=1e-6)

    def test_mean_increases_with_m_hat(self):
        means = [tilted_moments(0.0, 1.0, m)[1]
                 for m in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_extreme_m_hat_recentring(self):
        logz, mean, var = tilted_moments(0.0, 1.0, 1e150)
        assert np.isfinite(logz) and np.isfinite(mean) and var > 0

    def test_rows_match_scalar_calls(self):
        # one grid over all sites, with a row that needs recentring,
        # gives each row's scalar result
        cav_mu = np.array([0.0, -0.5, 1.0, 0.0])
        cav_var = np.array([1.0, 0.5, 2.0, 1.0])
        m_hat = np.array([1.0, 2.3, 0.1, 1e150])
        rows = np.array([tilted_moments(*args)
                         for args in zip(cav_mu, cav_var, m_hat)])
        grid = np.array(tilted_moments(cav_mu, cav_var, m_hat))
        np.testing.assert_allclose(grid, rows.T, rtol=1e-13, atol=0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            tilted_moments(0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            tilted_moments(0.0, 1.0, -0.5)


class TestSiteUpdate:
    def test_zero_damping_noop(self):
        prec, nu, logz = flat_sites(1)
        mu, var = np.zeros(1), np.ones(1)
        before = (prec.copy(), nu.copy(), mu.copy(), var.copy())
        new_prec, new_nu, _ = site_update(prec, nu, logz,
                                          cavity(mu, var, prec, nu),
                                          (0.0, 0.5, 0.5), 0.0)
        assert np.array_equal(new_prec, before[0])
        assert np.array_equal(new_nu, before[1])
        np.testing.assert_allclose(mu, before[2], atol=1e-15)
        np.testing.assert_allclose(var, before[3], atol=1e-15)

    def test_gaussian_factor_exact_fixed_point(self):
        # prior N(0,1), likelihood factor N(g | 1, 1): tilted = N(1/2, 1/2),
        # tilted logZ = log N(1 | 0, 2); one undamped update recovers the
        # factor exactly as the site, with site normalizer 0, and the
        # refresh gives the exact posterior.
        K = np.eye(1)
        prec, nu, logz = flat_sites(1)
        logz_t = -0.5 * np.log(2 * np.pi * 2.0) - 0.25
        prec, nu, logz = site_update(prec, nu, logz,
                                     cavity(np.zeros(1), np.diag(K), prec,
                                            nu),
                                     (logz_t, 0.5, 0.5), 1.0)
        assert prec[0] == pytest.approx(1.0, abs=1e-12)
        assert nu[0] == pytest.approx(1.0, abs=1e-12)
        assert logz[0] == pytest.approx(0.0, abs=1e-12)
        mu, var, _ = ep_posterior(prior_cov(K), 0.0, prec, nu)
        assert mu[0] == pytest.approx(0.5, abs=1e-12)
        assert var[0] == pytest.approx(0.5, abs=1e-12)

    def test_damped_blend_is_linear_in_naturals(self):
        sites = flat_sites(1)
        cav = cavity(np.zeros(1), np.ones(1), *sites[:2])
        tilt = (0.0, 0.5, 0.5)
        prec1, nu1, _ = site_update(*sites, cav, tilt, 1.0)
        prec2, nu2, _ = site_update(*sites, cav, tilt, 0.25)
        assert prec2[0] == pytest.approx(0.25 * prec1[0])
        assert nu2[0] == pytest.approx(0.25 * nu1[0])

    def test_skipped_site_unchanged_others_move(self):
        K = np.array([[1.0, 0.4, 0.1], [0.4, 1.5, 0.3], [0.1, 0.3, 0.8]])
        prec = np.array([0.5, 0.3, 0.2])
        nu = np.array([0.1, -0.2, 0.3])
        logz = np.array([0.1, 0.2, 0.3])
        mu, var, _ = ep_posterior(prior_cov(K), 0.0, prec, nu)
        # site 0's precision exceeds its marginal precision: its cavity
        # variance would be negative
        prec[0] = 1.0 / var[0] + 1.0
        cav = cavity(mu, var, prec, nu)
        cav_mu, cav_var, ok = cav
        assert ok.tolist() == [False, True, True]
        tilt = tilted_moments(cav_mu[ok], cav_var[ok], np.array([0.4, 2.0]))
        before = prec.copy(), nu.copy(), logz.copy()
        new_prec, new_nu, new_logz = site_update(prec, nu, logz, cav, tilt,
                                                 0.8)
        assert (new_prec[0], new_nu[0], new_logz[0]) == (
            prec[0], nu[0], logz[0])
        assert np.all(new_prec[1:] != prec[1:])
        assert np.all(new_nu[1:] != nu[1:])
        assert np.all(new_logz[1:] != logz[1:])
        # the update returns new arrays and leaves its arguments alone
        for arg, old in zip((prec, nu, logz), before):
            assert np.array_equal(arg, old)

    def test_zero_residual_keeps_precisions_nonnegative(self):
        # at m_hat = 0 the factor is exp(-g/2) up to a constant, so every
        # tilted variance equals its cavity variance; quadrature rounding
        # must not leave a negative site precision
        rng = np.random.default_rng(0)
        n = 200
        cav_mu = rng.normal(0.0, 2.0, n)
        cav_var = rng.uniform(0.05, 5.0, n)
        tilt = tilted_moments(cav_mu, cav_var, np.zeros(n))
        prec, nu, _ = site_update(*flat_sites(n),
                                  (cav_mu, cav_var, np.ones(n, bool)), tilt,
                                  1.0)
        assert np.all(prec >= 0)
        np.testing.assert_allclose(nu, -0.5, atol=1e-9)

    def test_moment_matching_at_fixed_point(self):
        # schedule-free EP fixed point: at every site the tilted moments of
        # the cavity equal the marginal of q(g)
        rng = np.random.default_rng(4)
        x = np.linspace(0.0, 1.0, 6)
        K = np.exp(-0.5 * (x[:, None] - x[None, :]) ** 2 / 0.3**2) \
            + 1e-6 * np.eye(6)
        mu0 = -0.3
        m_hat = rng.uniform(0.05, 3.0, size=6)
        prec, nu, logz = flat_sites(6)
        cov = prior_cov(K, 1e-6)
        mu, var = np.full(6, mu0), np.diag(K)
        for _ in range(1000):
            cav = cavity(mu, var, prec, nu)
            cav_mu, cav_var, ok = cav
            tilt = tilted_moments(cav_mu[ok], cav_var[ok], m_hat[ok], 64)
            new_prec, new_nu, logz = site_update(prec, nu, logz, cav, tilt,
                                                 0.8)
            change = max(np.max(np.abs(new_prec - prec)),
                         np.max(np.abs(new_nu - nu)))
            prec, nu = new_prec, new_nu
            mu, var, _ = ep_posterior(cov, mu0, prec, nu)
            if change < 1e-12:
                break
        assert change < 1e-12
        cav_mu, cav_var, ok = cavity(mu, var, prec, nu)
        assert np.all(ok)
        _, mean_t, var_t = tilted_moments(cav_mu, cav_var, m_hat, 64)
        np.testing.assert_allclose(mean_t, mu, rtol=0, atol=1e-8)
        np.testing.assert_allclose(var_t, var, rtol=0, atol=1e-8)


class TestEpPosterior:
    def test_flat_sites_return_prior(self):
        K = np.array([[1.0, 0.2], [0.2, 0.8]])
        mu, var, _ = ep_posterior(prior_cov(K), 0.7, np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(mu, 0.7, atol=1e-12)
        np.testing.assert_allclose(var, np.diag(K), atol=1e-12)
        Sigma = conftest.dense_sigma(_q_cov(np.zeros(2), prior_cov(K)))
        np.testing.assert_allclose(Sigma, K, atol=1e-12)

    def test_scalar_combination(self):
        mu, var, _ = ep_posterior(prior_cov(np.eye(1)), 0.0, np.array([1.0]),
                                  np.array([1.0]))
        assert var[0] == pytest.approx(0.5, abs=1e-12)
        assert mu[0] == pytest.approx(0.5, abs=1e-12)

    def test_gaussian_toy_logz_exact(self):
        # exact Gaussian sites N(y_n | g_n, v_n): logZ must equal the
        # closed-form marginal log N(y | mu0 1, K + diag(v))
        rng = np.random.default_rng(1)
        K = np.array([[1.0, 0.5], [0.5, 2.0]])
        mu0 = 0.3
        v = np.array([0.7, 1.2])
        y = rng.normal(size=2)
        prec = 1.0 / v
        nu = y / v
        logzs = -0.5 * np.log(2 * np.pi * v) \
            + 0.5 * np.log(2 * np.pi / prec) + 0.5 * nu**2 / prec \
            - 0.5 * y**2 / v
        mu, var, logz = ep_posterior(prior_cov(K), mu0, prec, nu, logzs)
        C = K + np.diag(v)
        resid = y - mu0
        want = -0.5 * (2 * np.log(2 * np.pi) + np.linalg.slogdet(C)[1]
                       + resid @ np.linalg.solve(C, resid))
        assert logz == pytest.approx(want, abs=1e-10)
        want_Sigma = np.linalg.inv(np.linalg.inv(K) + np.diag(prec))
        np.testing.assert_allclose(var, np.diag(want_Sigma), atol=1e-10)
        Sigma = conftest.dense_sigma(_q_cov(prec, prior_cov(K)))
        np.testing.assert_allclose(Sigma, want_Sigma, atol=1e-10)

    def test_logz_matches_mpmath_on_fitted_state(self, monkeypatch):
        # oracle: sum log Z~ + log N(site means | mu0 1, K + T^-1) over the
        # active sites, on the unsplit K in 30 digits, at the last state of
        # an N=40 fit with two of its sites set flat
        calls = []
        posterior = hetrvm.ep.ep_posterior

        def recorded(*args):
            calls.append(args)
            return posterior(*args)

        monkeypatch.setattr(hetrvm.ep, "ep_posterior", recorded)
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=40, seed=0))
        model = fit_ep(data, KernelSpec(lengthscale=0.3))
        K = gp_covariance(model.centers, model.noise_prior)
        cov, mu0, prec, nu, logzs = calls[-1]
        prec, nu = prec.copy(), nu.copy()
        prec[[3, 17]] = nu[[3, 17]] = 0.0
        logz = posterior(cov, mu0, prec, nu, logzs)[2]

        a = np.flatnonzero(prec > 0)
        assert a.size == 38
        with mpmath.workdps(30):
            C = mpmath.matrix(K[np.ix_(a, a)].tolist())
            d = mpmath.matrix([mpmath.mpf(nu[i]) / mpmath.mpf(prec[i])
                               - mpmath.mpf(mu0) for i in a])
            for k, i in enumerate(a):
                C[k, k] += 1 / mpmath.mpf(prec[i])
            L = mpmath.cholesky(C)
            logdet = 2 * mpmath.fsum(mpmath.log(L[k, k])
                                     for k in range(a.size))
            quad = (d.T * mpmath.cholesky_solve(C, d))[0]
            want = (mpmath.fsum(mpmath.mpf(logzs[i]) for i in a
                                if np.isfinite(logzs[i]))
                    - 0.5 * (a.size * mpmath.log(2 * mpmath.pi) + logdet
                             + quad))
            assert abs(logz - want) < 1e-11 * abs(want)

    def test_negative_site_precision_raises(self):
        K = np.array([[1.0, 0.2], [0.2, 0.8]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FactorizationError):
                ep_posterior(prior_cov(K), 0.0, np.array([1.0, -1e-12]),
                             np.zeros(2))


class TestFitEp:
    def test_deterministic(self):
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=30, seed=0))
        cfg = EpConfig(max_passes=20)
        m1 = fit_ep(data, KernelSpec(lengthscale=0.3), cfg)
        m2 = fit_ep(data, KernelSpec(lengthscale=0.3), cfg)
        assert np.array_equal(m1.g_prec, m2.g_prec)
        assert np.array_equal(m1.g_coef, m2.g_coef)
        assert m1.training_log == m2.training_log

    def test_learns_heteroscedastic_ramp(self):
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=60, seed=1))
        model = fit_ep(data, KernelSpec(lengthscale=0.3))
        x = data.X[:, 0]
        g_mu = conftest.dense_noise(model)[0]
        assert g_mu[x > 0.7].mean() > g_mu[x < 0.3].mean()

    def test_constant_noise_stays_flat(self):
        data, _ = synth(SynthSpec(generator="const_noise", n=50, seed=2))
        model = fit_ep(data, KernelSpec(lengthscale=0.5))
        g_mu = conftest.dense_noise(model)[0]
        assert np.exp(g_mu.max() - g_mu.min()) < 3.0

    def test_posterior_consistent_with_sites(self):
        data, _ = synth(SynthSpec(n=30, seed=3))
        model = fit_ep(data, KernelSpec(lengthscale=0.3),
                       EpConfig(max_passes=15))
        assert model.status in ("converged", "max_passes", "oscillating")
        assert model.g_prec.shape == model.g_coef.shape == (30,)
        assert np.all(model.g_prec >= 0)
        g_Sigma = conftest.dense_noise(model)[1]
        assert g_Sigma.shape == (30, 30)
        assert np.all(np.linalg.eigvalsh(g_Sigma) > 0)

    def test_cached_rule_changes_no_number(self, monkeypatch):
        # oracle: the same fit with the rule rebuilt on every call
        def uncached(n):
            nodes, weights = np.polynomial.hermite_e.hermegauss(int(n))
            return Quadrature(nodes=nodes,
                              weights=weights / np.sqrt(2.0 * np.pi))

        data, _ = synth(SynthSpec(generator="goldberg_sine", n=100, seed=0))
        cached = fit_ep(data, KernelSpec(lengthscale=0.3))
        monkeypatch.setattr(hetrvm.ep, "gauss_hermite", uncached)
        rebuilt = fit_ep(data, KernelSpec(lengthscale=0.3))
        assert (json.dumps(model_to_dict(cached), sort_keys=True)
                == json.dumps(model_to_dict(rebuilt), sort_keys=True))

    def test_ep_factors_no_n_by_n_matrix(self, monkeypatch):
        # q(g), the normalizer and the site coefficients all come from the
        # r x r factor of each pass's refresh; K is never factored
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=100, seed=0))
        shapes = []
        for module in (hetrvm.vi, hetrvm.ep):
            def counted(A, *args, _factor=module.chol_factor):
                shapes.append(A.shape)
                return _factor(A, *args)

            monkeypatch.setattr(module, "chol_factor", counted)
        fit_ep(data, KernelSpec(lengthscale=0.3))
        assert shapes
        assert max(rows for rows, _ in shapes) < data.n

    @pytest.mark.parametrize("generator,seed", [("goldberg_sine", 1),
                                                ("linear_het", 0)])
    def test_converges_where_creeping_precisions_oscillated(self, generator,
                                                            seed):
        # both ended "oscillating" (passes 37 and 51) while a fixed-point
        # precision update let a precision with an infinite optimum creep
        # toward it
        data, _ = synth(SynthSpec(generator=generator, n=100, seed=seed))
        model = fit_ep(data, KernelSpec(lengthscale=0.3))
        assert model.status == "converged"

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(generator=hst.sampled_from(["goldberg_sine", "linear_het",
                                       "const_noise"]),
           n=hst.integers(3, 40), seed=hst.integers(0, 10_000),
           lengthscale=hst.floats(0.05, 3.0),
           log10_scale=hst.floats(-3.0, 3.0))
    def test_fit_ends_in_a_named_status(self, generator, n, seed,
                                        lengthscale, log10_scale):
        # no update is rejected: whatever the data, a fit must end in a
        # named status with a finite, positive-definite q(g)
        data, _ = synth(SynthSpec(generator=generator, n=n, seed=seed))
        data = Dataset(data.X, data.y * 10.0**log10_scale)
        model = fit_ep(data, KernelSpec(lengthscale=lengthscale))
        assert model.status in ("converged", "oscillating", "max_passes")
        assert np.all(np.isfinite(model.g_coef))
        assert np.all(np.isfinite(model.g_prec) & (model.g_prec >= 0))
        g_mu, g_Sigma = conftest.dense_noise(model)
        assert np.all(np.isfinite(g_mu))
        assert np.all(np.linalg.eigvalsh(g_Sigma) > 0)
        pred = predict(model, data.X)
        for field in (pred.latent_mean, pred.latent_var, pred.total_var,
                      pred.g_mean, pred.g_var):
            assert np.all(np.isfinite(field))

    @pytest.mark.parametrize("bad", [
        pytest.param(dict(max_passes=0), id="bad4"),
        pytest.param(dict(tol=-1.0), id="bad5"),
        pytest.param(dict(tol=float("nan")), id="bad6"),
        pytest.param(dict(max_passes=-3), id="bad7"),
        pytest.param(dict(max_passes=1.5), id="bad8"),
        pytest.param(dict(max_passes=True), id="bad9"),
        pytest.param(dict(tol=float("inf")), id="bad10"),
        pytest.param(dict(tol=-float("inf")), id="bad12"),
        pytest.param(dict(max_passes=float("inf")), id="bad13")])
    def test_invalid_config_rejected_before_setup(self, monkeypatch, bad):
        def no_setup(*args, **kwargs):
            raise AssertionError("config must be checked before setup")

        monkeypatch.setattr(hetrvm.ep, "build_design_matrix", no_setup)
        data, _ = synth(SynthSpec(n=10, seed=0))
        with pytest.raises(ValueError):
            fit_ep(data, KernelSpec(lengthscale=0.3), EpConfig(**bad))
