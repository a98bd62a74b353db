"""Behaviour that fit_rvm, fit_vi and fit_ep share."""

from importlib import import_module

import conftest
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

import hetrvm.ep
import hetrvm.vi
from hetrvm.data import DataError, Dataset, SynthSpec, synth
from hetrvm.ep import EpConfig, fit_ep
from hetrvm.kernels import KernelSpec, build_design_matrix, gp_covariance
from hetrvm.predict import predict
from hetrvm.rvm import fit_rvm
from hetrvm.serialize import (load_model, model_from_dict, model_to_dict,
                              save_model)
from hetrvm.vi import (VIConfig, VariationalState, collapsed_bound, fit_vi,
                       noise_diag, weight_posterior)

# the module, not the ``hetrvm.predict`` function the package exports
predict_module = import_module("hetrvm.predict")
TRAINERS = {"rvm": fit_rvm, "vi": fit_vi, "ep": fit_ep}
FIELDS = ("latent_mean", "latent_var", "g_mean", "g_var", "total_var")
# every status a trainer can end a fit in
STATUSES = {"rvm": {"converged", "max_iter", "degenerate"},
            "vi": {"converged", "max_iter", "stalled", "degenerate"},
            "ep": {"converged", "max_passes", "oscillating", "degenerate"}}


@pytest.mark.parametrize("include_bias", [True, False])
@pytest.mark.parametrize("c", [0.1, 3.5])
@pytest.mark.parametrize("method", ["rvm", "vi", "ep"])
def test_constant_target_is_degenerate(tmp_path, method, c, include_bias):
    # VI used to raise FactorizationError here, and EP to end "converged"
    # with a noise variance of about 5e-16.  Without a bias column the
    # model has no weight, and the standardization alone predicts c
    fit = TRAINERS[method]
    data = Dataset(np.linspace(-1.0, 1.0, 30)[:, None], np.full(30, c))
    kernel = KernelSpec(lengthscale=0.5, include_bias=include_bias)
    model = fit(data, kernel)
    rvm = fit_rvm(data, kernel)
    basis = [0] if include_bias else []
    assert model.method == method
    assert model.status == "degenerate" and model.active_indices == basis
    Xt = np.array([[-0.3], [0.4], [2.0]])
    pred = predict(model, Xt)
    np.testing.assert_allclose(pred.latent_mean, c, rtol=1e-12)
    assert np.array_equal(pred.total_var, predict(rvm, Xt).total_var)
    save_model(model, tmp_path / "m.json")
    loaded = load_model(tmp_path / "m.json")
    assert (loaded.method, loaded.status, loaded.active_indices) == (
        method, "degenerate", basis)
    for field in FIELDS:
        assert np.array_equal(getattr(predict(loaded, Xt), field),
                              getattr(pred, field))


@pytest.mark.parametrize("fit", [fit_vi, fit_ep])
def test_constant_target_still_needs_three_points(fit):
    with pytest.raises(DataError, match="at least 3 points"):
        fit(Dataset(np.array([[0.0], [1.0]]), np.array([2.0, 2.0])))


@pytest.mark.parametrize("method", ["rvm", "vi", "ep"])
def test_model_does_not_alias_the_inputs(method):
    # float64 2-D inputs reach the trainer as the caller's own array;
    # the model keeps the standardized inputs, which must not share it
    fit = TRAINERS[method]
    train, _ = synth(SynthSpec(n=30, seed=0))
    X = train.X.copy()
    data = Dataset(X, train.y)
    assert np.shares_memory(data.X, X)
    model = fit(data, KernelSpec(lengthscale=0.3))
    centers = model.centers.copy()
    Xt = np.linspace(0.0, 1.0, 7)[:, None]
    before = predict(model, Xt)
    X[:] = 123.0
    assert np.array_equal(model.centers, centers)
    after = predict(model, Xt)
    for field in FIELDS:
        assert np.array_equal(getattr(after, field), getattr(before, field))


@pytest.mark.parametrize("module, fit", [(hetrvm.vi, fit_vi),
                                         (hetrvm.ep, fit_ep)])
def test_training_and_prediction_share_one_noise_prior(monkeypatch, module,
                                                       fit):
    # the split of the prior covariance the fit trains under is to the
    # bit the one predict rebuilds from the model's noise prior, also
    # after a round trip through the model's document
    built, read = [], []
    setup, split = hetrvm.vi._setup, predict_module._split_prior

    def setup_spy(work):
        prior, cov = setup(work)
        built.append(cov)
        return prior, cov

    def split_spy(X, prior):
        read.append(split(X, prior))
        return read[-1]

    monkeypatch.setattr(module, "_setup", setup_spy)
    monkeypatch.setattr(predict_module, "_split_prior", split_spy)
    data, _ = synth(SynthSpec(generator="goldberg_sine", n=60, seed=0))
    model = fit(data, KernelSpec(lengthscale=0.3))
    predict(model, data.X[:1])
    predict(model_from_dict(model_to_dict(model)), data.X[:1])
    (trained,) = built
    assert len(read) == 2
    for cov in read:
        assert cov.jitter == trained.jitter
        assert np.array_equal(cov.F, trained.F)


def _training_arrays(model, data):
    """The design matrix and target a model was fitted to, in its
    standardized units."""
    Phi = build_design_matrix(model.centers, model.kernel)
    return Phi, model.standardization.apply_y(data.y)


@pytest.mark.parametrize("generator", ["goldberg_sine", "linear_het",
                                       "const_noise"])
@pytest.mark.parametrize("method", ["rvm", "vi", "ep"])
def test_model_keeps_the_posterior_of_its_final_state(method, generator):
    # the trainer hands the model the weight posterior it last fitted,
    # without a refit: it is the one of the final basis, precisions and
    # noise
    fit = TRAINERS[method]
    data, _ = synth(SynthSpec(generator=generator, n=60, seed=0))
    model = fit(data, KernelSpec(lengthscale=0.3))
    assert model.status == "converged" and model.active_indices
    Phi, y = _training_arrays(model, data)
    r = noise_diag(*conftest.dense_noise(model))
    mu_w, Sigma_w = weight_posterior(Phi[:, model.active_indices],
                                     model.alpha, r, y)
    np.testing.assert_allclose(model.mu_w, mu_w, rtol=1e-10, atol=0)
    np.testing.assert_allclose(model.Sigma_w, Sigma_w, rtol=1e-10, atol=0)


@pytest.mark.parametrize("generator", ["goldberg_sine", "linear_het",
                                       "const_noise"])
def test_vi_logs_the_bound_at_its_final_state(generator):
    # the last logged bound, from the reduced-system factor L-BFGS uses,
    # is the dense collapsed bound at the state the model returns
    data, _ = synth(SynthSpec(generator=generator, n=60, seed=0))
    model = fit_vi(data, KernelSpec(lengthscale=0.3))
    assert model.status == "converged"
    Phi, y = _training_arrays(model, data)
    g_mu, g_Sigma = conftest.dense_noise(model)
    state = VariationalState(
        mu=g_mu, Sigma=g_Sigma, alpha=model.alpha,
        active_indices=model.active_indices, mu0=model.noise_prior.mu0,
        K=gp_covariance(model.centers, model.noise_prior))
    assert model.training_log[-1] == pytest.approx(
        collapsed_bound(state, Phi, y), rel=1e-9, abs=0)


def _sine_target(X):
    """The inputs ``X`` (20 rows) with a sine target."""
    return Dataset(X, np.sin(np.arange(20.0)))


@pytest.mark.parametrize("fit, config", [(fit_vi, VIConfig),
                                         (fit_ep, EpConfig)])
def test_noise_lengthscale_out_of_range_is_a_data_error(fit, config):
    # the noise GP's lengthscale is the median standardized input
    # distance, which the caller never sets: it is 0 when the inputs are
    # all equal, and its square underflows when 18 of 20 inputs lie
    # within 1e-158 of their mean
    near = 1e-158 * np.linspace(-1.0, 1.0, 18)
    for X in (np.full(20, 5.0), np.concatenate([[-1.0, 1.0], near])):
        with pytest.raises(DataError, match="noise GP's lengthscale"):
            fit(_sine_target(X[:, None]), KernelSpec(), config())
    model = fit(_sine_target(1e-150 * np.arange(20.0)[:, None]),
                KernelSpec(), config())
    assert model.status == "converged"


@settings(derandomize=True, max_examples=40, deadline=None)
@given(generator=hst.sampled_from(["goldberg_sine", "linear_het",
                                   "const_noise"]),
       n=hst.integers(3, 150), seed=hst.integers(0, 10_000),
       lengthscale=hst.floats(0.05, 3.0), log10_scale=hst.floats(-3.0, 3.0))
def test_every_fit_ends_in_a_named_status(generator, n, seed, lengthscale,
                                          log10_scale):
    # whatever the data, no trainer raises: each ends in one of its
    # statuses with a finite log and a finite, positive, distinct basis;
    # VI and EP hold one noise-GP prior
    data, _ = synth(SynthSpec(generator=generator, n=n, seed=seed))
    data = Dataset(data.X, data.y * 10.0**log10_scale)
    kernel = KernelSpec(lengthscale=lengthscale)
    models = {}
    for method, fit in TRAINERS.items():
        model = models[method] = fit(data, kernel)
        assert model.status in STATUSES[method]
        assert np.all(np.isfinite(model.training_log))
        assert np.all(np.isfinite(model.alpha) & (model.alpha > 0))
        assert len(set(model.active_indices)) == len(model.active_indices)
    vi, ep = models["vi"], models["ep"]
    assert vi.noise_prior.lengthscale == ep.noise_prior.lengthscale
    for model in (vi, ep):
        assert model.noise_prior.signal_variance == 1.0
        assert model.noise_prior.jitter == 1e-6
