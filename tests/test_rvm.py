import mpmath
import numpy as np
import pytest

import hetrvm.core
import hetrvm.rvm
from hetrvm.data import Dataset, SynthSpec, standardize, synth
from hetrvm.kernels import KernelSpec, build_design_matrix
from hetrvm.predict import predict
from hetrvm.rvm import RvmConfig, fit_rvm
from hetrvm.serialize import load_model, save_model
from hetrvm.core import _actions, _weight_fit
from conftest import SelectionLog, all_sq_at
from oracles import dense_sparsity_quality


def sparsity_quality(Phi, y, active, alpha, sigma2, j):
    """Column j's (s_j, q_j) from the basis selection's ``core._all_sq``
    at the constant noise r = sigma2 1, with j left out of C."""
    Phi = np.asarray(Phi, dtype=float)
    s, q = all_sq_at(Phi, np.asarray(y, dtype=float), list(active),
                      np.asarray(alpha, dtype=float),
                      np.full(Phi.shape[0], float(sigma2)))
    return s[j], q[j]


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


def _rvm_problem(seed):
    """A random RBF design, active set (possibly empty, in random order),
    precisions over six decades, a constant noise sigma2 over three and a
    diagonal noise r that spreads it over two more."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    X = rng.uniform(0.0, 1.0, (n, 1))
    kernel = KernelSpec(lengthscale=float(rng.uniform(0.05, 0.5)))
    Phi = build_design_matrix(X, kernel)
    m = int(rng.integers(0, min(Phi.shape[1], 8) + 1))
    active = [int(j) for j in rng.choice(Phi.shape[1], m, replace=False)]
    alpha = 10.0 ** rng.uniform(-3.0, 3.0, m)
    sigma2 = 10.0 ** rng.uniform(-3.0, 0.0)
    y = np.sin(6.0 * X[:, 0]) + np.sqrt(sigma2) * rng.normal(size=n)
    r = sigma2 * 10.0 ** rng.uniform(-1.0, 1.0, n)
    return Phi, y, active, alpha, sigma2, r


def _dense_sq(Phi, y, active, alpha, r):
    """Every column's (s, q) from a dense C_-j at noise diag(r); a column
    outside the model is appended to the active ones and left out."""
    out = []
    for j in range(Phi.shape[1]):
        cols, a = (active, alpha) if j in active else (active + [j],
                                                       np.append(alpha, 1.0))
        out.append(dense_sparsity_quality(Phi[:, cols], a, r, y,
                                           cols.index(j)))
    return np.array(out).T


class TestAllSq:
    """The basis selection's (s, q) of every column, in and out of the
    model, against a dense C_-j at a diagonal noise."""

    @pytest.mark.parametrize("seeds", [range(0, 100), range(100, 200)])
    def test_matches_dense_oracle(self, seeds):
        empty = 0
        for seed in seeds:
            Phi, y, active, alpha, _, r = _rvm_problem(seed)
            empty += not active
            s, q = all_sq_at(Phi, y, active, alpha, r)
            sd, qd = _dense_sq(Phi, y, active, alpha, r)
            np.testing.assert_array_less(
                np.abs(q - qd), 1e-7 * (np.abs(qd) + np.sqrt(sd)))
            # in the model nothing is subtracted (converting from
            # S = phi^T C^-1 phi errs by up to 32% on these problems);
            # outside it Woodbury subtracts from phi^T R^-1 phi
            inside = np.isin(np.arange(s.size), active)
            bound = np.where(inside, 1e-7 * sd,
                             1e-9 * np.sum(Phi**2 / r[:, None], axis=0))
            np.testing.assert_array_less(np.abs(s - sd), bound)
        assert empty > 0

    @pytest.mark.parametrize("seed", [1, 10, 17])
    def test_out_of_model_s_matches_mpmath(self, seed):
        # a column nearly in the active span: through the explicit Sigma_w
        # the Woodbury subtraction was off by up to 2.5e-6 relative here
        Phi, y, active, alpha, sigma2, _ = _rvm_problem(seed)
        s, _ = all_sq_at(Phi, y, active, alpha, np.full(y.size, sigma2))
        with mpmath.workdps(50):
            P = mpmath.matrix(Phi.tolist())
            C = sigma2 * mpmath.eye(y.size)
            for j, a in zip(active, alpha):
                C += P[:, j] * P[:, j].T / a
            Cinv = mpmath.inverse(C)
            for j in set(range(Phi.shape[1])) - set(active):
                want = (P[:, j].T * Cinv * P[:, j])[0]
                assert abs(s[j] - want) < 1e-8 * want, j


class TestActions:
    """Each action's gain l(a_new) - l(a_old) is the change of the log
    evidence after that add, re-estimate or delete."""

    @pytest.mark.parametrize("seed", range(40))
    def test_gain_is_evidence_change(self, seed):
        Phi, y, active, alpha, _, r = _rvm_problem(seed)
        ev = _weight_fit(Phi[:, active], alpha, r, y)[0]
        a_old = np.full(Phi.shape[1], np.inf)
        a_old[active] = alpha
        a_new, gain = _actions(*_dense_sq(Phi, y, active, alpha, r), a_old)
        for j in range(Phi.shape[1]):
            if a_new[j] == a_old[j]:  # out of the model, and staying out
                assert gain[j] == 0.0
                continue
            act = [i for i in active if i != j]
            act += [j] if np.isfinite(a_new[j]) else []
            new = np.array([a_new[i] if i == j else a_old[i] for i in act])
            want = _weight_fit(Phi[:, act], new, r, y)[0] - ev
            assert gain[j] == pytest.approx(want, rel=0,
                                            abs=2e-9 * max(1.0, abs(ev)))


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
        # the target is one basis column at the standardized inputs; the
        # weight comes back in standardized units, y / y_scale
        rng = np.random.default_rng(3)
        X = np.linspace(0, 1, 30)[:, None]
        kernel = KernelSpec(lengthscale=0.2)
        Phi = build_design_matrix(standardize(Dataset(X, X[:, 0]))[0].X,
                                  kernel)
        y = 3.0 * Phi[:, 7] + 1e-4 * rng.normal(size=30)
        model = fit_rvm(Dataset(X, y), kernel)
        assert 7 in model.active_indices
        w = model.mu_w[model.active_indices.index(7)]
        assert w * model.standardization.y_scale == pytest.approx(3.0,
                                                                  abs=0.05)

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

    @pytest.mark.parametrize("include_bias", [True, False])
    @pytest.mark.parametrize("c", [3.5, 0.1])
    def test_degenerate_predicts_the_constant(self, tmp_path, include_bias,
                                              c):
        # the standardized target is 0, so the bias weight (if any) is 0
        # and the standardization's y_mean predicts the constant
        X = np.linspace(0, 1, 30)[:, None]
        model = fit_rvm(Dataset(X, np.full(30, c)),
                        KernelSpec(lengthscale=0.5,
                                   include_bias=include_bias))
        basis = [0] if include_bias else []
        assert model.status == "degenerate" and model.active_indices == basis
        Xt = np.array([[-0.3], [0.4], [2.0]])
        np.testing.assert_allclose(predict(model, Xt).latent_mean, c,
                                   rtol=1e-12)
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert loaded.status == "degenerate"
        assert loaded.active_indices == basis
        for field in ("latent_mean", "total_var"):
            assert np.array_equal(getattr(predict(loaded, Xt), field),
                                  getattr(predict(model, Xt), field))

    def test_degenerate_without_bias_is_empty(self):
        X = np.linspace(0, 1, 10)[:, None]
        model = fit_rvm(Dataset(X, np.full(10, 2.0)),
                        KernelSpec(include_bias=False))
        assert model.status == "degenerate" and model.active_indices == []
        assert np.all(predict(model, X).latent_mean == 2.0)

    @pytest.mark.parametrize("bad", [
        dict(max_iter=0), dict(max_iter=-3), dict(tol=-1.0),
        dict(tol=float("nan")), dict(max_iter=1.5), dict(max_iter=True),
        dict(tol=float("inf")), dict(tol=-float("inf")),
        dict(max_iter=float("inf")), dict(max_iter="3"), dict(tol=True),
        dict(tol="1e-6"), dict(tol=None), dict(tol=10**400)])
    def test_invalid_config_rejected_before_setup(self, monkeypatch, bad):
        def no_setup(*args, **kwargs):
            raise AssertionError("config must be checked before setup")

        monkeypatch.setattr(hetrvm.rvm, "build_design_matrix", no_setup)
        data, _ = synth(SynthSpec(n=10, seed=0))
        with pytest.raises(ValueError):
            fit_rvm(data, KernelSpec(lengthscale=0.3), RvmConfig(**bad))

    def test_one_factorization_per_state(self, monkeypatch):
        """The basis selection factors the state it starts at and the
        state it stops at, however many actions it takes, plus any state
        its guard rescored; each alternation factors once more, to score
        the noise re-estimate, as the model keeps the posterior the
        selection returned."""
        real, select = hetrvm.core._factor, hetrvm.rvm.update_alpha
        states, selecting, per_call = [], [False], []
        log = SelectionLog(monkeypatch)

        def counting(G, alpha):
            states.append((selecting[0], G.tobytes() + alpha.tobytes()))
            return real(G, alpha)

        def counted_select(*args):
            selecting[0] = True
            before = (len(states), log.guard)
            try:
                return select(*args)
            finally:
                selecting[0] = False
                per_call.append((len(states) - before[0],
                                 log.guard - before[1]))

        monkeypatch.setattr(hetrvm.core, "_factor", counting)
        monkeypatch.setattr(hetrvm.rvm, "update_alpha", counted_select)
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=60, seed=0))
        model = fit_rvm(data, KernelSpec(lengthscale=0.3))
        within = [key for inside, key in states if inside]
        assert len(set(within)) == len(within)
        assert all(factors <= 2 + guard for factors, guard in per_call)
        # the selection takes many actions all the same
        assert len(log.trail) >= 10
        # and the model keeps the posterior of its last fit, unrefitted
        assert len(states) - len(within) <= model.n_iter

    def test_sparse_on_structured_data(self):
        data, _ = synth(SynthSpec(generator="goldberg_sine", n=60, seed=0))
        model = fit_rvm(data, KernelSpec(lengthscale=0.3))
        assert 0 < len(model.active_indices) < 61
        assert np.all(model.alpha > 0)
        assert np.exp(model.noise_prior.mu0) > 0


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
        sigma2_orig = (np.exp(model.noise_prior.mu0)
                       * model.standardization.y_scale**2)
        assert np.all(var >= sigma2_orig - 1e-12)
