import json
from importlib import import_module

import numpy as np
import pytest
import scipy.linalg as sla

from hetrvm.data import SynthSpec, synth
from hetrvm.ep import fit_ep
from hetrvm.kernels import (KernelSpec, cross_covariance, design_matrix_at,
                            gp_covariance)
from hetrvm.numerics import gauss_hermite, lognormal_mean
from hetrvm.predict import (PredictiveDist, nlpd, predict, rmse,
                            rvm_predictive_dist)
from hetrvm.rvm import fit_rvm, rvm_predict
from hetrvm.serialize import model_from_dict, model_to_dict
from hetrvm.vi import VIConfig, fit_vi

# the module, not the ``hetrvm.predict`` function the package exports
predict_module = import_module("hetrvm.predict")
FIELDS = ("latent_mean", "latent_var", "g_mean", "g_var", "total_var")


def dist(mean, lv, gm, gv):
    """Predictive moments from arrays; ``nlpd`` does not read
    ``total_var``, which would overflow at the clip test's g_var."""
    mean, lv, gm, gv = (np.asarray(a, dtype=float) for a in (mean, lv, gm, gv))
    return PredictiveDist(latent_mean=mean, latent_var=lv, g_mean=gm,
                          g_var=gv, total_var=np.full(mean.size, np.nan))


def const_dist(mean, lv, gm, gv):
    n = len(mean)
    return dist(mean, np.full(n, lv), np.full(n, gm), np.full(n, gv))


class TestRmse:
    def test_identical_zero(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
            np.sqrt(25.0 / 2.0), abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=10), rng.normal(size=10)
        p = rng.permutation(10)
        assert rmse(a, b) == pytest.approx(rmse(a[p], b[p]), rel=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no targets"):
            rmse([], [])

    def test_nonfinite_target_rejected(self):
        with pytest.raises(ValueError, match="non-finite target"):
            rmse([0.0, 1.0], [0.0, np.nan])


class TestNlpd:
    def test_standard_normal_at_mode(self):
        d = const_dist([0.0], lv=0.0, gm=0.0, gv=0.0)
        assert nlpd(d, [0.0]) == pytest.approx(0.5 * np.log(2 * np.pi),
                                               abs=1e-12)

    def test_gaussian_special_case_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m, lv, gm = rng.normal(), rng.uniform(0.1, 1), rng.normal() * 0.5
            yv = rng.normal()
            d = const_dist([m], lv=lv, gm=gm, gv=0.0)
            var = lv + np.exp(gm)
            want = 0.5 * (np.log(2 * np.pi * var) + (yv - m) ** 2 / var)
            assert nlpd(d, [yv]) == pytest.approx(want, abs=1e-10)

    def test_matches_dense_grid(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rng.normal()
            lv = rng.uniform(0.05, 0.5)
            gm = rng.normal() * 0.5
            gv = rng.uniform(0.05, 1.0)
            yv = m + rng.normal()
            d = const_dist([m], lv=lv, gm=gm, gv=gv)
            g = np.linspace(gm - 12 * np.sqrt(gv), gm + 12 * np.sqrt(gv),
                            200_001)
            dens = np.exp(-0.5 * (g - gm) ** 2 / gv) / np.sqrt(2 * np.pi * gv)
            var = lv + np.exp(g)
            p = np.exp(-0.5 * (yv - m) ** 2 / var) / np.sqrt(2 * np.pi * var)
            want = -np.log(np.trapezoid(dens * p, g))
            assert nlpd(d, [yv]) == pytest.approx(want, abs=1e-6)

    def test_length_mismatch(self):
        d = const_dist([0.0], 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            nlpd(d, [0.0, 1.0])

    def test_empty_rejected(self):
        d = const_dist([], 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="no targets"):
            nlpd(d, [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_target_rejected(self, bad):
        d = const_dist([0.0, 0.0], 0.1, 0.0, 0.5)
        with pytest.raises(ValueError, match="non-finite target"):
            nlpd(d, [0.0, bad])


def loop_nlpd(pred, y, quad_order=32):
    """The per-point NLPD loop, kept as the oracle for the array code."""
    y = np.asarray(y, dtype=float).ravel()
    quad = gauss_hermite(quad_order)
    total = 0.0
    for m, lv, gm, gv, yi in zip(pred.latent_mean, pred.latent_var,
                                 pred.g_mean, pred.g_var, y):
        if gv < 1e-14:
            var = lv + np.exp(gm)
            ll = -0.5 * (np.log(2 * np.pi * var) + (yi - m) ** 2 / var)
        else:
            g = gm + np.sqrt(gv) * quad.nodes
            var = lv + np.exp(np.clip(g, -700, 700))
            logp = -0.5 * (np.log(2 * np.pi * var) + (yi - m) ** 2 / var)
            shift = np.max(logp)
            ll = shift + np.log(np.sum(quad.weights * np.exp(logp - shift)))
        total += ll
    return float(-total / y.size)


class TestVectorizedNlpd:
    """The (points x nodes) array code against the per-point loop."""

    def test_mixed_branches(self):
        rng = np.random.default_rng(10)
        n = 400
        gv = rng.uniform(0.0, 1.0, n)
        gv[::3] = 0.0
        gv[1::7] = 1e-15          # below the threshold: exact branch
        gv[2::7] = 2e-14          # just above it: quadrature
        assert np.any(gv < 1e-14) and np.any(gv >= 1e-14)
        d = dist(rng.normal(size=n), rng.uniform(0.0, 0.5, n),
                 rng.normal(size=n), gv)
        y = d.latent_mean + rng.normal(size=n)
        assert nlpd(d, y) == pytest.approx(loop_nlpd(d, y), rel=1e-12)

    def test_nodes_hit_clip(self):
        rng = np.random.default_rng(11)
        n = 50
        # sqrt(g_var) * max |node| is far beyond 700 on both sides
        d = dist(rng.normal(size=n), rng.uniform(0.1, 1.0, n),
                 rng.uniform(-5.0, 5.0, n), np.full(n, 200.0**2))
        g = d.g_mean[:, None] + np.sqrt(d.g_var)[:, None] * \
            gauss_hermite(32).nodes
        assert np.all(g.max(axis=1) > 700) and np.all(g.min(axis=1) < -700)
        y = d.latent_mean + rng.normal(size=n)
        assert nlpd(d, y) == pytest.approx(loop_nlpd(d, y), rel=1e-12)

    def test_far_outliers(self):
        """Every node's log density underflows exp() without the max
        shift of the log-sum-exp."""
        rng = np.random.default_rng(13)
        n = 60
        d = dist(rng.normal(size=n), rng.uniform(0.1, 0.5, n),
                 rng.normal(size=n) * 0.5, rng.uniform(1e-4, 1e-2, n))
        y = d.latent_mean + rng.choice((-1e3, 1e3), n)
        assert nlpd(d, y) == pytest.approx(loop_nlpd(d, y), rel=1e-12)

    def test_all_deterministic(self):
        data, _ = synth(SynthSpec(n=40, seed=4))
        model = fit_rvm(data, KernelSpec(lengthscale=0.3))
        d = rvm_predictive_dist(model, data.X)
        assert np.all(d.g_var == 0.0)
        assert nlpd(d, data.y) == pytest.approx(loop_nlpd(d, data.y),
                                                rel=1e-12)

    @pytest.mark.parametrize("order", [2, 64])
    def test_quad_order(self, order):
        rng = np.random.default_rng(12)
        n = 200
        gv = rng.uniform(0.0, 2.0, n)
        gv[::4] = 0.0
        d = dist(rng.normal(size=n), rng.uniform(0.0, 0.5, n),
                 rng.normal(size=n), gv)
        y = d.latent_mean + rng.normal(size=n)
        assert nlpd(d, y, quad_order=order) == pytest.approx(
            loop_nlpd(d, y, quad_order=order), rel=1e-12)


@pytest.fixture(scope="module")
def vi_model():
    data, _ = synth(SynthSpec(generator="goldberg_sine", n=50, seed=0))
    return data, fit_vi(data, KernelSpec(lengthscale=0.3))


@pytest.fixture(scope="module")
def ep_model():
    data, _ = synth(SynthSpec(n=30, seed=2))
    return data, fit_ep(data, KernelSpec(lengthscale=0.3))


def fresh(model):
    """A copy of ``model`` that has never predicted."""
    return model_from_dict(model_to_dict(model))


def dense_predict(model, Xstar):
    """The noise-GP conditioning rebuilt from scratch on every call: the
    dense covariance at the centers, its factor and both solves."""
    record = model.standardization
    Xs = record.apply_x(Xstar)
    Phi_s = design_matrix_at(Xs, model.kernel, model.centers,
                             model.active_indices)
    latent_mean = Phi_s @ model.mu_w
    latent_var = np.maximum(
        np.sum((Phi_s @ model.Sigma_w) * Phi_s, axis=1), 0.0)
    prior = model.noise_prior()
    L = sla.cholesky(gp_covariance(model.centers, prior), lower=True,
                     check_finite=False)
    ks = cross_covariance(Xs, model.centers, prior)
    kss = prior.kernel.signal_variance + prior.jitter
    W = sla.cho_solve((L, True), ks.T, check_finite=False)
    g_mean = model.noise_mu0 + ks @ sla.cho_solve(
        (L, True), model.g_mu - model.noise_mu0, check_finite=False)
    reduce_term = np.sum(ks * W.T, axis=1)
    add_term = np.sum(W * (model.g_Sigma @ W), axis=0)
    g_var = np.maximum(kss - reduce_term + add_term, 0.0)
    scale2 = record.y_scale**2
    latent_var = latent_var * scale2
    g_mean = g_mean + np.log(scale2)
    return PredictiveDist(latent_mean=record.invert_y(latent_mean),
                          latent_var=latent_var, g_mean=g_mean, g_var=g_var,
                          total_var=latent_var + lognormal_mean(g_mean, g_var))


class TestNoiseReadout:
    """The noise-GP factor is built once per model and kept on it."""

    @pytest.mark.parametrize("which", ["vi_model", "ep_model"])
    def test_matches_dense_oracle(self, which, request):
        data, model = request.getfixturevalue(which)
        model = fresh(model)
        grid = np.linspace(-0.2, 1.2, 37)[:, None]
        for X in (data.X, grid, grid[5:6], data.X, grid[:1]):
            got, want = predict(model, X), dense_predict(model, X)
            for f in FIELDS:
                assert np.array_equal(getattr(got, f), getattr(want, f)), f

    def test_factor_once_per_model(self, vi_model, monkeypatch):
        data, model = vi_model
        model = fresh(model)
        calls = []
        real = predict_module.chol_factor

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(predict_module, "chol_factor", counting)
        for X in (data.X, data.X[:1], data.X[3:9]):
            predict(model, X)
        assert len(calls) == 1
        copy = fresh(model)
        predict(copy, data.X[:1])
        predict(copy, data.X)
        assert len(calls) == 2

    def test_cached_arrays_read_only(self, ep_model):
        data, model = ep_model
        model = fresh(model)
        predict(model, data.X[:1])
        readout = model._noise_readout
        for arr in (readout.L, readout.a):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_cache_not_serialized(self, vi_model):
        data, model = vi_model
        model = fresh(model)
        before = json.dumps(model_to_dict(model))
        predict(model, data.X)
        assert model._noise_readout is not None
        assert json.dumps(model_to_dict(model)) == before

    def test_clamped_model_skips_factor(self, monkeypatch):
        data, _ = synth(SynthSpec(generator="const_noise", n=25, seed=1))
        c = np.log(0.09)
        model = fit_vi(data, KernelSpec(lengthscale=0.5),
                       VIConfig(clamp_g=c, max_iter=40, standardize=False))

        def refuse(*args, **kwargs):
            raise AssertionError("clamped model factored the noise GP")

        monkeypatch.setattr(predict_module, "chol_factor", refuse)
        for X in (np.array([[0.3], [5.0]]), np.array([[1.0]])):
            pred = predict(model, X)
            assert np.array_equal(pred.g_var, np.zeros(len(X)))
            assert np.array_equal(pred.g_mean, np.full(len(X), c))
        assert model._noise_readout.prior is None


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_predict_rejects(self, vi_model, bad):
        _, model = vi_model
        with pytest.raises(ValueError, match="non-finite"):
            predict(model, [[bad]])
        with pytest.raises(ValueError, match="non-finite"):
            predict(model, [[0.5], [bad]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rvm_predictive_dist_rejects(self, bad):
        data, _ = synth(SynthSpec(generator="const_noise", n=30, seed=3))
        model = fit_rvm(data, KernelSpec(lengthscale=0.4))
        with pytest.raises(ValueError, match="non-finite"):
            rvm_predictive_dist(model, [[bad]])
        with pytest.raises(ValueError, match="non-finite"):
            rvm_predictive_dist(model, [[0.5], [bad]])


class TestPredict:
    def test_total_exceeds_latent(self, vi_model):
        data, model = vi_model
        pred = predict(model, data.X)
        assert np.all(pred.total_var > pred.latent_var)
        assert np.all(pred.latent_var >= 0)
        assert np.all(pred.g_var >= 0)

    def test_fits_signal(self, vi_model):
        data, model = vi_model
        pred = predict(model, data.X)
        truth = 2.0 * np.sin(2.0 * np.pi * data.X[:, 0])
        assert rmse(pred.latent_mean, truth) < 0.6

    def test_noise_ramp_in_original_units(self, vi_model):
        data, model = vi_model
        grid = np.array([[0.1], [0.9]])
        pred = predict(model, grid)
        noise = pred.total_var - pred.latent_var
        assert noise[1] > noise[0]  # noisier at large x

    def test_clamped_model_constant_noise(self):
        data, _ = synth(SynthSpec(generator="const_noise", n=25, seed=1))
        c = np.log(0.09)
        model = fit_vi(data, KernelSpec(lengthscale=0.5),
                       VIConfig(clamp_g=c, max_iter=40, standardize=False))
        pred = predict(model, np.array([[0.3], [5.0]]))
        noise = pred.total_var - pred.latent_var
        np.testing.assert_allclose(noise, np.exp(c), rtol=1e-10)
        np.testing.assert_allclose(pred.g_var, 0.0, atol=1e-15)

    def test_ep_model_predicts(self):
        data, _ = synth(SynthSpec(n=30, seed=2))
        model = fit_ep(data, KernelSpec(lengthscale=0.3))
        pred = predict(model, data.X)
        assert np.all(np.isfinite(pred.total_var))
        assert np.all(pred.total_var > pred.latent_var)


class TestRvmPredictiveDist:
    def test_consistent_with_rvm_predict(self):
        data, _ = synth(SynthSpec(generator="const_noise", n=40, seed=3))
        model = fit_rvm(data, KernelSpec(lengthscale=0.4))
        mean, var = rvm_predict(model, data.X)
        dist = rvm_predictive_dist(model, data.X)
        np.testing.assert_allclose(dist.latent_mean, mean, atol=1e-12)
        np.testing.assert_allclose(dist.total_var, var, atol=1e-12)
        np.testing.assert_allclose(dist.g_var, 0.0, atol=1e-15)

    def test_nlpd_finite(self):
        data, _ = synth(SynthSpec(n=40, seed=4))
        model = fit_rvm(data, KernelSpec(lengthscale=0.3))
        dist = rvm_predictive_dist(model, data.X)
        assert np.isfinite(nlpd(dist, data.y))
