import json
import tracemalloc
from importlib import import_module

import conftest
import numpy as np
import pytest
import scipy.linalg as sla

from hetrvm.data import DataError, Dataset, SynthSpec, synth
from hetrvm.ep import fit_ep
from hetrvm.kernels import (KernelSpec, cross_covariance, design_matrix_at,
                            gp_covariance)
from hetrvm.numerics import gauss_hermite
from hetrvm.predict import PredictiveDist, nlpd, predict, rmse
from hetrvm.rvm import fit_rvm
from hetrvm.serialize import model_from_dict, model_to_dict
from hetrvm.vi import VIConfig, fit_vi

# np.trapezoid is new in numpy 2.0; pyproject.toml accepts numpy 1.24
trapezoid = getattr(np, "trapezoid", None) or np.trapz

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
            want = -np.log(trapezoid(dens * p, g))
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


def loop_nlpd(pred, y):
    """The per-point NLPD loop over 32 Gauss-Hermite nodes, kept as the
    oracle for the array code."""
    y = np.asarray(y, dtype=float).ravel()
    quad = gauss_hermite(32)
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
        d = predict(model, data.X)
        assert np.all(d.g_var == 0.0)
        assert nlpd(d, data.y) == pytest.approx(loop_nlpd(d, data.y),
                                                rel=1e-12)

    @pytest.mark.parametrize("extra", [-1, 0, 1, 1025])
    def test_block_boundaries(self, extra):
        # nlpd scores the quadrature points in blocks of B: B - 1, B,
        # B + 1 and 2B + 1 of them, every third point exact between them,
        # and the last partial block holding nodes beyond the clip and
        # far outliers
        B = predict_module._block_rows(32)
        assert B == 1024
        n_quad = B + extra
        rng = np.random.default_rng(14)
        n = n_quad + n_quad // 2
        exact = np.arange(n) % 3 == 2
        gv = rng.uniform(1e-3, 1.0, n)
        gv[exact] = np.where(rng.random(exact.sum()) < 0.5, 0.0, 1e-15)
        d = dist(rng.normal(size=n), rng.uniform(0.05, 0.5, n),
                 rng.normal(size=n) * 0.5, gv)
        y = d.latent_mean + rng.normal(size=n)
        last = np.flatnonzero(~exact)[(n_quad - 1) // B * B:]
        assert last.size == n_quad - (n_quad - 1) // B * B
        d.g_var[last[::2]] = 200.0**2
        y[last[::-2]] += rng.choice((-1e3, 1e3), last[::-2].size)
        assert nlpd(d, y) == pytest.approx(loop_nlpd(d, y), rel=1e-12)


@pytest.fixture(scope="module")
def vi_model():
    data, _ = synth(SynthSpec(generator="goldberg_sine", n=50, seed=0))
    return data, fit_vi(data, KernelSpec(lengthscale=0.3))


@pytest.fixture(scope="module")
def rvm_model():
    data, _ = synth(SynthSpec(generator="goldberg_sine", n=50, seed=0))
    return data, fit_rvm(data, KernelSpec(lengthscale=0.3))


@pytest.fixture(scope="module")
def ep_model():
    data, _ = synth(SynthSpec(n=30, seed=2))
    return data, fit_ep(data, KernelSpec(lengthscale=0.3))


@pytest.fixture(scope="module")
def draw_400():
    return synth(SynthSpec(generator="goldberg_sine", n=400, seed=0))[0]


@pytest.fixture(scope="module")
def vi_model_400(draw_400):
    return draw_400, fit_vi(draw_400, KernelSpec(lengthscale=0.3))


@pytest.fixture(scope="module")
def ep_model_400(draw_400):
    return draw_400, fit_ep(draw_400, KernelSpec(lengthscale=0.3))


def fresh(model):
    """A copy of ``model`` that has never predicted."""
    return model_from_dict(model_to_dict(model))


def dense_predict(model, Xstar):
    """The noise-GP conditioning rebuilt from scratch on every call from
    the dense q(g) = N(g_mu, g_Sigma) at the centers: the covariance K,
    its factor and both solves, g_mean = mu0 + k*^T K^-1 (g_mu - mu0) and
    g_var = k** - k*^T K^-1 k* + k*^T K^-1 g_Sigma K^-1 k*."""
    record = model.standardization
    Xs = record.apply_x(Xstar)
    Phi_s = design_matrix_at(Xs, model.kernel,
                             model.centers)[:, model.active_indices]
    latent_mean = Phi_s @ model.mu_w
    latent_var = np.maximum(
        np.sum((Phi_s @ model.Sigma_w) * Phi_s, axis=1), 0.0)
    if model.noise_clamped:
        g_mean = np.full(len(Xs), model.noise_prior.mu0)
        g_var = np.zeros(len(Xs))
    else:
        g_mean, g_var = dense_noise_predict(model, Xs)
    scale2 = record.y_scale**2
    latent_var = latent_var * scale2
    g_mean = g_mean + np.log(scale2)
    return PredictiveDist(latent_mean=record.invert_y(latent_mean),
                          latent_var=latent_var, g_mean=g_mean, g_var=g_var,
                          total_var=latent_var + np.exp(g_mean + 0.5 * g_var))


def dense_noise_predict(model, Xs):
    """g_mean and g_var of ``dense_predict`` at standardized inputs."""
    g_mu, g_Sigma = conftest.dense_noise(model)
    prior = model.noise_prior
    L = sla.cholesky(gp_covariance(model.centers, prior), lower=True,
                     check_finite=False)
    ks = cross_covariance(Xs, model.centers, prior)
    kss = prior.signal_variance + prior.jitter
    W = sla.cho_solve((L, True), ks.T, check_finite=False)
    g_mean = model.noise_prior.mu0 + ks @ sla.cho_solve(
        (L, True), g_mu - model.noise_prior.mu0, check_finite=False)
    reduce_term = np.sum(ks * W.T, axis=1)
    add_term = np.sum(W * (g_Sigma @ W), axis=0)
    return g_mean, np.maximum(kss - reduce_term + add_term, 0.0)


def assert_matches_dense(got, want, exact=True):
    """The latent fields share their arithmetic with the oracle and must
    be equal (to 1e-12 relative when not ``exact``: with several input
    columns BLAS may sum the basis's cross term in another order); the
    noise fields come from the site form against the dense moments."""
    for f in ("latent_mean", "latent_var"):
        if exact:
            assert np.array_equal(getattr(got, f), getattr(want, f)), f
        else:
            np.testing.assert_allclose(getattr(got, f), getattr(want, f),
                                       rtol=1e-12, atol=1e-12, err_msg=f)
    np.testing.assert_allclose(got.g_mean, want.g_mean, rtol=0, atol=1e-12)
    for f in ("g_var", "total_var"):
        np.testing.assert_allclose(getattr(got, f), getattr(want, f),
                                   rtol=1e-10, atol=0, err_msg=f)


def assert_single_points_match_batch(model, X):
    batch = predict(model, X)
    for i in range(len(X)):
        one = predict(model, X[i:i + 1])
        for f in FIELDS:
            np.testing.assert_allclose(getattr(one, f),
                                       getattr(batch, f)[i:i + 1],
                                       rtol=1e-12, atol=1e-12, err_msg=f)


class TestNoiseReadout:
    """The noise-GP readout is built once per model and kept on it."""

    @pytest.mark.parametrize("which", ["vi_model", "ep_model",
                                       "vi_model_400", "ep_model_400"])
    def test_matches_dense_oracle(self, which, request):
        data, model = request.getfixturevalue(which)
        model = fresh(model)
        grid = np.linspace(-0.2, 1.2, 37)[:, None]
        for X in (data.X, grid, grid[5:6], data.X, grid[:1]):
            assert_matches_dense(predict(model, X), dense_predict(model, X))

    def test_factor_once_per_model(self, vi_model, monkeypatch):
        data, model = vi_model
        model = fresh(model)
        calls = []

        def counting(name):
            real = getattr(predict_module, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("_split_prior", "_q_cov"):
            monkeypatch.setattr(predict_module, name, counting(name))
        readout = None
        for X in (data.X, data.X[:1], data.X[3:9]):
            predict(model, X)
            readout = model._read_path if readout is None else readout
            assert model._read_path is readout
        assert calls == ["_split_prior", "_q_cov"]
        copy = fresh(model)
        predict(copy, data.X[:1])
        predict(copy, data.X)
        assert calls == ["_split_prior", "_q_cov"] * 2
        assert copy._read_path is not readout
        for field in ("Dinv", "W"):
            assert np.array_equal(getattr(copy._read_path, field),
                                  getattr(readout, field))

    def test_cached_arrays_read_only(self, ep_model):
        # an N-vector and one r x N matrix, r < N, and no N x N array
        data, model = ep_model
        model = fresh(model)
        predict(model, data.X[:1])
        readout = model._read_path
        r = readout.W.shape[0]
        assert readout.Dinv.shape == (data.n,)
        assert readout.W.shape == (r, data.n) and r < data.n
        kept = [v for v in vars(readout).values()
                if isinstance(v, np.ndarray)]
        for array in kept:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0
        assert all(v.shape != (data.n, data.n) for v in kept)

    def test_readout_is_whitened_root(self, ep_model):
        # D^-1 - W^T W = (K + T^-1)^-1 by Woodbury on the split
        # K = j I + F F^T, D = j I + T^-1 and W = L^-1 F^T D^-1 with
        # L L^T = I + F^T D^-1 F
        data, model = ep_model
        model = fresh(model)
        predict(model, data.X[:1])
        readout = model._read_path
        K = gp_covariance(model.centers, model.noise_prior)
        want = np.linalg.inv(K + np.diag(1.0 / model.g_prec))
        got = np.diag(readout.Dinv) - readout.W.T @ readout.W
        np.testing.assert_allclose(got, want, rtol=1e-8,
                                   atol=1e-8 * np.max(np.abs(want)))
        tau, j = model.g_prec, model.noise_prior.jitter
        assert np.array_equal(readout.Dinv, tau / (1.0 + j * tau))

    @pytest.mark.parametrize("which", ["vi_model", "ep_model"])
    def test_single_point_matches_batch(self, which, request):
        # the check the predict_serve benchmark makes on every query
        data, model = request.getfixturevalue(which)
        X = np.concatenate([data.X, np.linspace(-0.2, 1.2, 23)[:, None]])
        assert_single_points_match_batch(fresh(model), X)

    def test_cache_not_serialized(self, vi_model):
        data, model = vi_model
        model = fresh(model)
        before = json.dumps(model_to_dict(model))
        predict(model, data.X)
        assert model._read_path is not None
        assert json.dumps(model_to_dict(model)) == before

    def test_clamped_model_skips_factor(self, monkeypatch):
        data, _ = synth(SynthSpec(generator="const_noise", n=25, seed=1))
        model = fit_rvm(data, KernelSpec(lengthscale=0.5))
        # the clamped log-noise, in the original units
        c = model.noise_prior.mu0 + np.log(model.standardization.y_scale**2)

        def refuse(*args, **kwargs):
            raise AssertionError("clamped model split the noise GP")

        for name in ("_split_prior", "_q_cov"):
            monkeypatch.setattr(predict_module, name, refuse)
        for X in (np.array([[0.3], [5.0]]), np.array([[1.0]])):
            pred = predict(model, X)
            assert np.array_equal(pred.g_var, np.zeros(len(X)))
            assert np.array_equal(pred.g_mean, np.full(len(X), c))
        assert model._read_path.prior is None


@pytest.fixture(scope="module")
def draw_40():
    return synth(SynthSpec(generator="goldberg_sine", n=40, seed=0))[0]


@pytest.fixture(scope="module")
def draw_3d():
    """60 points in three input columns, the noise rising along the
    first."""
    rng = np.random.default_rng(3)
    X = rng.uniform(0.0, 1.0, size=(60, 3))
    f = np.sin(4.0 * X[:, 0]) + X[:, 1] - X[:, 2] ** 2
    return Dataset(X, f + (0.05 + 0.5 * X[:, 0]) * rng.normal(size=60))


class TestReadPathBases:
    """Every basis family, with or without a bias column, and several
    input columns read through the same per-block step as the rbf models
    above, against the dense oracle, one point at a time as in a batch."""

    @pytest.mark.parametrize("fit", [fit_vi, fit_ep], ids=["vi", "ep"])
    @pytest.mark.parametrize("kernel", [
        KernelSpec(family="linear"),
        KernelSpec(family="polynomial", degree=2),
        KernelSpec(lengthscale=0.3)], ids=["linear", "polynomial", "rbf"])
    def test_noise_gp_model(self, draw_40, fit, kernel):
        model = fit(draw_40, kernel)
        assert not model.noise_clamped
        grid = np.linspace(-0.2, 1.2, 37)[:, None]
        for X in (draw_40.X, grid, grid[5:6]):
            assert_matches_dense(predict(fresh(model), X),
                                 dense_predict(model, X))
        assert_single_points_match_batch(fresh(model), grid)

    @pytest.mark.parametrize("fit", [fit_vi, fit_ep], ids=["vi", "ep"])
    def test_three_inputs(self, draw_3d, fit):
        model = fit(draw_3d, KernelSpec(lengthscale=1.0))
        assert not model.noise_clamped and model.centers.shape[1] == 3
        X = np.random.default_rng(4).uniform(-0.1, 1.1, size=(41, 3))
        assert_matches_dense(predict(fresh(model), X),
                             dense_predict(model, X), exact=False)
        assert_single_points_match_batch(fresh(model), X)

    @pytest.mark.parametrize("fit", [fit_rvm, fit_vi, fit_ep],
                             ids=["rvm", "vi", "ep"])
    def test_no_bias_column(self, draw_40, fit):
        model = fit(draw_40, KernelSpec(lengthscale=0.3, include_bias=False))
        assert model.noise_clamped == (fit is fit_rvm)
        grid = np.linspace(-0.2, 1.2, 37)[:, None]
        assert_matches_dense(predict(fresh(model), grid),
                             dense_predict(model, grid))
        assert_single_points_match_batch(fresh(model), grid)


class TestInputWidth:
    @pytest.mark.parametrize("width", [0, 2, 3])
    def test_wrong_width_is_data_error(self, vi_model, width):
        # named with both widths before any arithmetic, also for a width
        # that standardization would broadcast
        _, model = vi_model
        model = fresh(model)
        with pytest.raises(DataError, match=f"{width} columns.*trained on 1"):
            predict(model, np.zeros((4, width)))
        assert model._read_path is None


def block_calls(model, X, monkeypatch):
    """The rows of every block's basis and k* evaluations that
    ``predict(model, X)`` makes, in call order."""
    rows = {"basis": [], "k*": []}
    real = predict_module._block_kernels

    def call(*args, **kwargs):
        Phi_s, ks = real(*args, **kwargs)
        rows["basis"].append(Phi_s.shape[0])
        if ks is not None:
            rows["k*"].append(ks.shape[0])
        return Phi_s, ks

    with monkeypatch.context() as patch:
        patch.setattr(predict_module, "_block_kernels", call)
        predict(model, X)
    return rows


class TestBlocks:
    """``predict`` reads a batch in row blocks of B points; B follows from
    the widest block temporaries, k* at the N centres (the basis at the m
    active centres for a clamped model)."""

    @pytest.fixture(params=["rvm_model", "vi_model", "ep_model"])
    def blocked(self, request, monkeypatch):
        data, model = request.getfixturevalue(request.param)
        model = fresh(model)
        rows = block_calls(model, np.linspace(0.0, 1.0, 20_000)[:, None],
                           monkeypatch)["basis"]
        B = rows[0]
        assert sum(rows) == 20_000 and set(rows[:-1]) == {B}
        return model, B

    def test_block_size(self, blocked, monkeypatch):
        # one block per B rows, each of a few hundred KB, and a noise-GP
        # model evaluates k* once per block, never at all rows at once
        model, B = blocked
        N, m = model.centers.shape[0], len(model.active_indices)
        width = m if model.noise_clamped else max(m, N)
        assert B % 16 == 0 and 8 * B * width <= 1 << 18
        for n, want in ((1, [1]), (B + 1, [B + 1]), (B + 2, [B, 2]),
                        (2 * B + 1, [B, B + 1])):
            # a last block of one row joins the block before it
            rows = block_calls(model, np.zeros((n, 1)), monkeypatch)
            assert rows["basis"] == want
            assert rows["k*"] == ([] if model.noise_clamped else want)

    def test_block_boundaries(self, blocked):
        # batches of 0, 1, B - 1, B, B + 1 and 2B + 1 rows: each row equals
        # its own single-point prediction, the batch equals the dense
        # oracle, and its NLPD the per-point loop's
        model, B = blocked
        X = np.linspace(-0.2, 1.2, 2 * B + 1)[:, None]
        ones = [predict(model, X[i:i + 1]) for i in range(len(X))]
        y = np.sin(6.0 * X[:, 0]) + np.cos(40.0 * X[:, 0])
        for n in (0, 1, B - 1, B, B + 1, 2 * B + 1):
            batch = predict(model, X[:n])
            for f in FIELDS:
                got = getattr(batch, f)
                assert got.shape == (n,), f
                want = np.concatenate([np.empty(0)] + [getattr(one, f)
                                                       for one in ones[:n]])
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12, err_msg=f)
            assert_matches_dense(batch, dense_predict(model, X[:n]))
            if n:
                assert nlpd(batch, y[:n]) == pytest.approx(
                    loop_nlpd(batch, y[:n]), rel=1e-12)

    def test_empty_batch(self, blocked):
        model, _ = blocked
        pred = predict(model, np.empty((0, 1)))
        for f in FIELDS:
            got = getattr(pred, f)
            assert isinstance(got, np.ndarray) and got.shape == (0,), f


class TestMemory:
    """No n* x N array and no n* x nodes grid: peak traced allocations of
    a 50,000-point batch on an N=400 model."""

    def test_predict_and_nlpd_peaks(self, vi_model_400):
        _, model = vi_model_400
        model = fresh(model)
        n, N = 50_000, model.centers.shape[0]
        assert N == 400
        X = np.linspace(-0.2, 1.2, n)[:, None]
        y = np.sin(6.0 * X[:, 0])
        predict(model, X[:1])      # the readout, built once per model

        def peak(call, *args):
            # bytes allocated at the call's peak, beyond those held before
            tracemalloc.start()
            try:
                out = call(*args)
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        pred, predict_peak = peak(predict, model, X)
        score, nlpd_peak = peak(nlpd, pred, y)
        assert np.isfinite(score)
        assert predict_peak < n * N * 8 / 4
        assert nlpd_peak < n * 32 * 8 / 2


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
            predict(model, [[bad]])
        with pytest.raises(ValueError, match="non-finite"):
            predict(model, [[0.5], [bad]])


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
        # a constant target: VI returns the degenerate model, clamped at
        # unit noise in standardized units
        data, _ = synth(SynthSpec(generator="const_noise", n=25, seed=1))
        data = Dataset(data.X, np.full(data.n, 0.3))
        model = fit_vi(data, KernelSpec(lengthscale=0.5),
                       VIConfig(max_iter=40))
        assert model.status == "degenerate" and model.noise_clamped
        c = model.noise_prior.mu0 + np.log(model.standardization.y_scale**2)
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


def rvm_predict(model, X):
    """The homoscedastic RVM predictive in original units, from the
    weight posterior and sigma2 = exp(noise_prior.mu0): mean phi^T mu_w and
    variance sigma2 + phi^T Sigma_w phi."""
    record = model.standardization
    Phi = design_matrix_at(record.apply_x(X), model.kernel,
                           model.centers)[:, model.active_indices]
    sigma2 = np.exp(model.noise_prior.mu0)
    var = sigma2 + np.sum((Phi @ model.Sigma_w) * Phi, axis=1)
    return record.invert_y(Phi @ model.mu_w), var * record.y_scale**2


class TestRvmPredictiveDist:
    def test_consistent_with_rvm_predict(self):
        data, _ = synth(SynthSpec(generator="const_noise", n=40, seed=3))
        model = fit_rvm(data, KernelSpec(lengthscale=0.4))
        assert model.method == "rvm"
        mean, var = rvm_predict(model, data.X)
        dist = predict(model, data.X)
        np.testing.assert_allclose(dist.latent_mean, mean, atol=1e-12)
        np.testing.assert_allclose(dist.total_var, var, atol=1e-12)
        np.testing.assert_allclose(dist.g_var, 0.0, atol=1e-15)

    def test_nlpd_finite(self):
        data, _ = synth(SynthSpec(n=40, seed=4))
        model = fit_rvm(data, KernelSpec(lengthscale=0.3))
        dist = predict(model, data.X)
        assert np.isfinite(nlpd(dist, data.y))
