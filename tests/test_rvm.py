import numpy as np
import pytest

import hetrvm.rvm
import hetrvm.vi
from hetrvm.data import Dataset, SynthSpec, synth
from hetrvm.kernels import KernelSpec, build_design_matrix
from hetrvm.predict import predict
from hetrvm.rvm import RvmConfig, fit_rvm, sparsity_quality


class TestSparsityQuality:
    def test_empty_model_identity_covariance(self):
        Phi = np.array([[1.0], [0.0]])
        s, q = sparsity_quality(Phi, [1.0, 0.0], [], [], 1.0, 0)
        assert s == pytest.approx(1.0, abs=1e-12)
        assert q == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_target(self):
        Phi = np.array([[1.0], [0.0]])
        s, q = sparsity_quality(Phi, [0.0, 1.0], [], [], 1.0, 0)
        assert q == pytest.approx(0.0, abs=1e-12)
        assert s > 0.0

    def test_column_scaling(self):
        rng = np.random.default_rng(0)
        Phi = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        s1, q1 = sparsity_quality(Phi, y, [1], [2.0], 0.5, 0)
        c = 3.0
        Phi2 = Phi.copy()
        Phi2[:, 0] *= c
        s2, q2 = sparsity_quality(Phi2, y, [1], [2.0], 0.5, 0)
        assert s2 == pytest.approx(c**2 * s1, rel=1e-10)
        assert q2 == pytest.approx(c * q1, rel=1e-10)
        # inclusion test q^2 > s is invariant to the rescaling
        assert (q1**2 > s1) == (q2**2 > s2)

    def test_excludes_basis_j(self):
        rng = np.random.default_rng(1)
        Phi = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        # with j active, s/q must be computed from C without column j
        s_with, q_with = sparsity_quality(Phi, y, [0, 1], [1.0, 1.0], 1.0, 0)
        s_wo, q_wo = sparsity_quality(Phi, y, [1], [1.0], 1.0, 0)
        assert s_with == pytest.approx(s_wo, rel=1e-12)
        assert q_with == pytest.approx(q_wo, rel=1e-12)


class TestAlphaGridOracle:
    def test_single_basis_alpha_matches_grid(self):
        # alpha = s^2 / (q^2 - s) should maximize log N(y | 0, phi phi^T/a + I)
        rng = np.random.default_rng(2)
        phi = rng.normal(size=8)
        y = 2.0 * phi + 0.3 * rng.normal(size=8)
        s = float(phi @ phi)
        q = float(phi @ y)
        assert q**2 > s
        a_hat = s**2 / (q**2 - s)

        def loglik(a):
            C = np.outer(phi, phi) / a + np.eye(8)
            sign, logdet = np.linalg.slogdet(C)
            return -0.5 * (8 * np.log(2 * np.pi) + logdet
                           + y @ np.linalg.solve(C, y))

        grid = np.exp(np.linspace(np.log(a_hat) - 3, np.log(a_hat) + 3, 4001))
        vals = [loglik(a) for a in grid]
        a_grid = grid[int(np.argmax(vals))]
        assert abs(np.log(a_hat) - np.log(a_grid)) < 2 * (6 / 4000)


class TestFitRvm:
    def test_recovers_single_basis(self):
        rng = np.random.default_rng(3)
        X = np.linspace(0, 1, 30)[:, None]
        kernel = KernelSpec(lengthscale=0.2)
        Phi = build_design_matrix(X, kernel).values
        y = 3.0 * Phi[:, 7] + 1e-4 * rng.normal(size=30)
        model = fit_rvm(Dataset(X, y), kernel,
                        RvmConfig(standardize=False))
        assert 7 in model.active_indices
        w = model.mu_w[model.active_indices.index(7)]
        assert w == pytest.approx(3.0, abs=0.05)

    def test_pure_noise_prefers_empty_or_bias(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.uniform(0, 1, 30)[:, None]
            y = rng.normal(size=30)
            model = fit_rvm(Dataset(X, y), KernelSpec())
            if set(model.active_indices) <= {0}:
                hits += 1
        assert hits >= 8

    def test_training_log_monotone(self):
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=40, seed=1))
        model = fit_rvm(data, KernelSpec(lengthscale=0.3))
        log = np.asarray(model.training_log)
        assert np.all(np.diff(log) >= -1e-8)

    def test_deterministic(self):
        data, _ = synth(SynthSpec(n=40, seed=2))
        m1 = fit_rvm(data, KernelSpec(lengthscale=0.3))
        m2 = fit_rvm(data, KernelSpec(lengthscale=0.3))
        assert m1.training_log == m2.training_log
        assert np.array_equal(m1.mu_w, m2.mu_w)

    def test_constant_target_bias_only(self):
        X = np.linspace(0, 1, 10)[:, None]
        model = fit_rvm(Dataset(X, np.full(10, 5.0)), KernelSpec())
        assert set(model.active_indices) <= {0}

    @pytest.mark.parametrize("bad", [
        dict(max_iter=0), dict(max_iter=-3), dict(tol=-1.0),
        dict(tol=float("nan")), dict(alpha_threshold=0.0),
        dict(alpha_threshold=-1.0), dict(alpha_threshold=float("nan")),
        dict(max_iter=1.5), dict(max_iter=True), dict(tol=float("inf"))])
    def test_invalid_config_rejected_before_setup(self, monkeypatch, bad):
        def no_setup(*args, **kwargs):
            raise AssertionError("config must be checked before setup")

        monkeypatch.setattr(hetrvm.rvm, "build_design_matrix", no_setup)
        data, _ = synth(SynthSpec(n=10, seed=0))
        with pytest.raises(ValueError):
            fit_rvm(data, KernelSpec(lengthscale=0.3), RvmConfig(**bad))

    def test_one_factorization_per_state(self, monkeypatch):
        """An iteration factors the weight precision at most twice: once
        for the state after its basis action, once to score the noise
        re-estimate (whose posterior is kept when it is accepted)."""
        real = hetrvm.vi._factor
        calls = []

        def counting(G, alpha):
            calls.append(alpha.size)
            return real(G, alpha)

        for module in (hetrvm.vi, hetrvm.rvm):
            monkeypatch.setattr(module, "_factor", counting, raising=False)
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=60, seed=0))
        model = fit_rvm(data, KernelSpec(lengthscale=0.3))
        assert model.n_iter >= 10
        # plus the start state and the refit after a final pruning
        assert len(calls) <= 2 * model.n_iter + 2

    def test_sparse_on_structured_data(self):
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=60, seed=0))
        model = fit_rvm(data, KernelSpec(lengthscale=0.3))
        assert 0 < len(model.active_indices) < 61
        assert np.all(model.alpha > 0)
        assert np.exp(model.noise_mu0) > 0


class TestRvmPredict:
    def test_interpolates_noiseless_toy(self):
        X = np.linspace(0, 1, 20)[:, None]
        y = np.sin(2 * np.pi * X[:, 0])
        model = fit_rvm(Dataset(X, y), KernelSpec(lengthscale=0.25))
        pred = predict(model, X)
        mean, var = pred.latent_mean, pred.total_var
        assert np.max(np.abs(mean - y)) < 0.1
        assert np.all(var >= 0)

    def test_variance_at_least_noise(self):
        data, _ = synth(SynthSpec(n=40, seed=3))
        model = fit_rvm(data, KernelSpec(lengthscale=0.3))
        var = predict(model, data.X).total_var
        sigma2_orig = (np.exp(model.noise_mu0)
                       * model.standardization.y_scale**2)
        assert np.all(var >= sigma2_orig - 1e-12)
