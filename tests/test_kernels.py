import itertools
from importlib import import_module

import numpy as np
import pytest

from hetrvm.data import Dataset, Standardization, standardize
from hetrvm.kernels import (GpNoisePrior, KernelSpec, _sqdist, _sqdist_from,
                            _sqnorms, build_design_matrix, design_matrix_at,
                            gp_covariance, kernel_matrix)
from hetrvm.model import HrvmModel
from hetrvm.numerics import chol_factor

# the module, not the ``hetrvm.predict`` function the package exports
predict_module = import_module("hetrvm.predict")


def _k(kernel, a, b):
    """The kernel between two single inputs, as one kernel_matrix entry."""
    return float(kernel_matrix(kernel, np.atleast_1d(a)[None, :],
                               np.atleast_1d(b)[None, :])[0, 0])


class TestKernelEval:
    def test_rbf_zero_distance(self):
        k = KernelSpec(family="rbf", lengthscale=1.0)
        assert _k(k, [0.3, -0.2], [0.3, -0.2]) == 1.0

    def test_rbf_unit_distance(self):
        k = KernelSpec(family="rbf", lengthscale=1.0)
        assert _k(k, [0.0], [1.0]) == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_linear_dot(self):
        k = KernelSpec(family="linear")
        assert _k(k, [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_polynomial(self):
        k = KernelSpec(family="polynomial", degree=2)
        assert _k(k, [1.0], [2.0]) == pytest.approx((1 + 2) ** 2)

    def test_symmetry_all_families(self):
        rng = np.random.default_rng(0)
        for fam in ("rbf", "linear", "polynomial"):
            k = KernelSpec(family=fam, lengthscale=0.7, degree=3)
            for _ in range(20):
                a, b = rng.normal(size=3), rng.normal(size=3)
                assert _k(k, a, b) == pytest.approx(_k(k, b, a), rel=1e-14)

    def test_rbf_range(self):
        rng = np.random.default_rng(1)
        k = KernelSpec(family="rbf", lengthscale=2.0)
        for _ in range(50):
            a, b = rng.normal(size=2), rng.normal(size=2)
            v = _k(k, a, b)
            assert 0.0 < v <= 1.0
            assert (v == 1.0) == bool(np.all(a == b))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _k(KernelSpec(), [1.0], [1.0, 2.0])

    def test_invalid_spec(self):
        for lengthscale in (-1.0, 1e-300, 1e300):
            # 1e300 squared overflows; 1e-300 squared underflows to zero,
            # and the rbf's 0/0 on the diagonal would be nan.  The noise
            # prior's rbf applies the same rule
            with pytest.raises(ValueError):
                KernelSpec(lengthscale=lengthscale)
            with pytest.raises(ValueError):
                GpNoisePrior(0.0, lengthscale)
        # an integer beyond the float range, as a JSON document can hold
        for make in (lambda: KernelSpec(lengthscale=10**400),
                     lambda: GpNoisePrior(0.0, lengthscale=10**400),
                     lambda: GpNoisePrior(10**400),
                     lambda: GpNoisePrior(0.0, signal_variance=10**400),
                     lambda: GpNoisePrior(0.0, jitter=10**400)):
            with pytest.raises(ValueError):
                make()
        with pytest.raises(ValueError):
            KernelSpec(family="matern")
        for degree in (0, 2.5, True):
            with pytest.raises(ValueError):
                KernelSpec(family="polynomial", degree=degree)


class TestDesignMatrix:
    def test_single_point_with_bias(self):
        d = build_design_matrix(np.array([[0.5]]), KernelSpec())
        np.testing.assert_array_equal(d, [[1.0, 1.0]])

    def test_two_points_no_bias(self):
        k = KernelSpec(include_bias=False)
        d = build_design_matrix(np.array([[0.0], [1.0]]), k)
        e = np.exp(-0.5)
        np.testing.assert_allclose(d, [[1.0, e], [e, 1.0]], atol=1e-15)

    def test_linear_is_gram(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(5, 3))
        k = KernelSpec(family="linear", include_bias=False)
        d = build_design_matrix(X, k)
        np.testing.assert_allclose(d, X @ X.T, atol=1e-12)

    def test_column_count(self):
        X = np.arange(4.0)[:, None]
        assert build_design_matrix(X, KernelSpec()).shape[1] == 5
        assert build_design_matrix(X, KernelSpec(include_bias=False)).shape[1] == 4

    def test_bitwise_reproducible(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 2))
        k = KernelSpec(lengthscale=0.8)
        a = build_design_matrix(X, k)
        b = build_design_matrix(X.copy(), k)
        assert np.array_equal(a, b)


class TestCrossTerm:
    """The cross term 2 X X2^T of the squared distances is a broadcast
    product with one input column and a GEMM with several; each gives
    the GEMM's bits."""

    @staticmethod
    def _gemm(X, X2):
        return _sqdist_from(_sqnorms(X), _sqnorms(X2), 2.0 * X @ X2.T)

    def test_one_column_keeps_the_gemm_bits(self):
        # exact zeros of both signs, mixed signs, and magnitudes from
        # 1e-100 to 1e100, whose squares and products stay normal
        mags = np.array([1e-100, 3.7e-60, 1e-20, 0.3, 1.0, 2.5, 7e19,
                         4.1e60, 1e100])
        values = np.concatenate([[0.0, -0.0], mags, -mags])
        X = values[:, None]
        X2 = np.concatenate([values[::-1], [0.5, -1e-100]])[:, None]
        got = _sqdist(X, X2)
        assert got.tobytes() == self._gemm(X, X2).tobytes()
        assert (got == 0.0).sum() >= len(values)  # each x meets x == c

    def test_several_columns_take_the_gemm(self):
        products = []

        class Spy(np.ndarray):
            def __matmul__(self, other):
                products.append(self.shape)
                return np.asarray(self) @ np.asarray(other)

        rng = np.random.default_rng(11)
        for q, gemms in ((1, 0), (3, 1)):
            X, X2 = (rng.normal(size=(n, q)).view(Spy) for n in (7, 5))
            products.clear()
            got = np.asarray(_sqdist(X, X2))
            assert len(products) == gemms, q
            want = np.asarray(self._gemm(X, X2))
            assert got.tobytes() == want.tobytes()


def read_model(kernel, centers, cols, noise_gp):
    """A model whose active basis columns are ``cols`` over ``centers``,
    in identity units, with a noise GP of unit site precisions or a
    clamped noise; its weights are placeholders."""
    (N, q), m = centers.shape, len(cols)
    sites = np.ones(N) if noise_gp else np.zeros(0)
    return HrvmModel(
        method="vi" if noise_gp else "rvm", kernel=kernel, centers=centers,
        active_indices=list(cols), alpha=np.ones(m), mu_w=np.zeros(m),
        Sigma_w=np.zeros((m, m)), noise_prior=GpNoisePrior(0.0),
        g_prec=sites,
        g_coef=np.zeros(sites.size),
        standardization=Standardization(np.zeros(q), np.ones(q), 0.0, 1.0))


def basis_rows(model, Xstar):
    """The basis rows of one block of ``predict``'s read path."""
    read = predict_module._read_path(model)
    return predict_module._block_kernels(read, model.kernel, Xstar)[0]


class TestDesignMatrixAtActive:
    """The read path's basis rows evaluate the active columns only and
    read the full design matrix's listed columns, for a noise-GP model
    (which reaches every centre) and a clamped one (which reaches the
    listed centres only): bit for bit with one input dimension, where
    the cross term is a single product, and to the last bits with
    several, where BLAS may sum it in another order."""

    FAMILIES = [KernelSpec(lengthscale=0.7, include_bias=b, family=f)
                for f in ("rbf", "linear", "polynomial")
                for b in (True, False)]

    @staticmethod
    def _lists(M, bias):
        """Single columns, the bias first, in the middle and last,
        unsorted lists, every column, and the empty list."""
        lists = [[0], [M - 1], [3, 0, 7], [5, 2, 9, 1], [M - 1, 4, 0],
                 list(range(M)), list(range(M))[::-1], []]
        if bias:
            lists += [[0, 2, 5], [2, 0, 5], [2, 5, 0]]
        return lists

    @pytest.mark.parametrize("q", [1, 3, 5])
    @pytest.mark.parametrize("kernel", FAMILIES,
                             ids=lambda k: f"{k.family}-bias{k.include_bias}")
    def test_equals_full_columns(self, kernel, q):
        rng = np.random.default_rng(q)
        centers = rng.normal(size=(12, q))
        M = 12 + kernel.include_bias
        # one point takes numpy's vector product paths, many its matrix ones
        for n in (1, 2, 40):
            Xstar = rng.normal(size=(n, q))
            full = design_matrix_at(Xstar, kernel, centers)
            for cols, noise_gp in itertools.product(
                    self._lists(M, kernel.include_bias), (False, True)):
                got = basis_rows(read_model(kernel, centers, cols, noise_gp),
                                 Xstar)
                assert got.shape == (n, len(cols))
                assert got.flags.f_contiguous, cols
                if q == 1:
                    assert np.array_equal(got, full[:, cols]), (n, cols)
                else:
                    np.testing.assert_allclose(got, full[:, cols],
                                               rtol=1e-12, atol=1e-12,
                                               err_msg=str((n, cols)))

    def test_single_point_is_a_batch_row(self):
        rng = np.random.default_rng(7)
        centers, Xstar = rng.normal(size=(9, 1)), rng.normal(size=(30, 1))
        for kernel, noise_gp in itertools.product(self.FAMILIES,
                                                  (False, True)):
            model = read_model(kernel, centers, [4, 0, 2], noise_gp)
            batch = basis_rows(model, Xstar)
            for i in (0, 13, 29):
                one = basis_rows(model, Xstar[i:i + 1])
                assert np.array_equal(one[0], batch[i])

    def test_empty_list(self):
        X = np.linspace(0, 1, 6)[:, None]
        for noise_gp in (False, True):
            got = basis_rows(read_model(KernelSpec(), X, [], noise_gp), X)
            assert got.shape == (6, 0)

    def test_evaluates_listed_centres_only(self, monkeypatch):
        # a clamped model's block evaluates the kernel once, at the
        # listed centres (a bias column at one, then overwritten)
        calls = []
        real = predict_module._kernel_values

        def recording(kernel, A):
            calls.append(np.shape(A))
            return real(kernel, A)

        monkeypatch.setattr(predict_module, "_kernel_values", recording)
        X = np.linspace(0, 1, 50)[:, None]
        basis_rows(read_model(KernelSpec(), X, [0, 11, 30], False), X[:7])
        assert calls == [(3, 7)]
        calls.clear()
        basis_rows(read_model(KernelSpec(include_bias=False), X, [11, 30],
                              False), X[:7])
        assert calls == [(2, 7)]


class TestGpCovariance:
    def test_single_point(self):
        prior = GpNoisePrior(mu0=0.0, jitter=1e-6)
        np.testing.assert_allclose(gp_covariance(np.array([[0.0]]), prior),
                                   [[1.000001]], atol=1e-15)

    def test_duplicate_rows_stay_pd(self):
        X = np.array([[0.2], [0.2], [0.7]])
        prior = GpNoisePrior(mu0=0.0, jitter=1e-6)
        chol_factor(gp_covariance(X, prior))  # must not raise

    def test_signal_variance_scaling(self):
        X = np.array([[0.0], [1.0]])
        prior = GpNoisePrior(mu0=0.0, signal_variance=2.0, jitter=1e-12)
        K = gp_covariance(X, prior)
        assert K[0, 1] == pytest.approx(2 * np.exp(-0.5), abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(8, 2))
        prior = GpNoisePrior(mu0=0.0, lengthscale=0.5, jitter=1e-6)
        K = gp_covariance(X, prior)
        assert np.max(np.abs(K - K.T)) == 0.0


class TestStandardize:
    def test_two_point_target(self):
        data = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, 3.0]))
        out, rec = standardize(data)
        np.testing.assert_allclose(out.y, [-1.0, 1.0], atol=1e-14)
        assert rec.y_mean == 2.0
        # population sd (denominator N) of (1, 3) is exactly 1
        assert rec.y_scale == 1.0

    def test_constant_column(self):
        data = Dataset(np.array([[1.0, 5.0], [1.0, 6.0]]), np.array([0.0, 1.0]))
        out, rec = standardize(data)
        assert rec.x_scale[0] == 1.0
        np.testing.assert_allclose(out.X[:, 0], [0.0, 0.0], atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.normal(size=(10, 3)), rng.normal(size=10))
        out, rec = standardize(data)
        np.testing.assert_allclose(rec.invert_x(out.X), data.X, atol=1e-12)
        np.testing.assert_allclose(rec.invert_y(out.y), data.y, atol=1e-12)


def test_kernel_matrix_cross_shape():
    rng = np.random.default_rng(6)
    A, B = rng.normal(size=(4, 2)), rng.normal(size=(7, 2))
    assert kernel_matrix(KernelSpec(), A, B).shape == (4, 7)
