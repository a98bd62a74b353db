import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from hetrvm.numerics import (FactorizationError, chol_factor, chol_solve,
                             gauss_hermite, gauss_kl, lower_solve)
from oracles import grad_check


def _solve_logdet(A, b):
    """Solve A x = b and return (x, log|A|) from chol_factor's factor, the
    way the trainers use it."""
    L = chol_factor(A, "A")
    x = sla.cho_solve((L, True), np.asarray(b, dtype=float))
    return x, 2.0 * float(np.sum(np.log(np.diag(L))))


class TestPsdSolve:
    """Positive-definite solves and log-determinants through chol_factor."""

    def test_identity(self):
        x, ld = _solve_logdet(np.eye(3), np.arange(3.0))
        np.testing.assert_allclose(x, [0.0, 1.0, 2.0], atol=1e-15)
        assert ld == 0.0

    def test_diagonal_logdet(self):
        A = np.diag([2.0, 5.0])
        x, ld = _solve_logdet(A, np.array([4.0, 10.0]))
        np.testing.assert_allclose(x, [2.0, 2.0], atol=1e-14)
        assert ld == pytest.approx(np.log(10.0), abs=1e-12)

    def test_random_spd(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(6, 6))
        A = M @ M.T + 6 * np.eye(6)
        b = rng.normal(size=6)
        x, ld = _solve_logdet(A, b)
        np.testing.assert_allclose(A @ x, b, atol=1e-10)
        assert ld == pytest.approx(np.linalg.slogdet(A)[1], rel=1e-12)

    def test_non_pd_raises_with_pivot(self):
        A = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(FactorizationError) as exc:
            chol_factor(A)
        assert exc.value.pivot == 2

    def test_asymmetric_rejected(self):
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            chol_factor(A)

    def test_near_singular_still_factors(self):
        A = np.diag([1.0, 1e-13])
        x, _ = _solve_logdet(A, np.array([1.0, 1e-13]))
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-6)


class TestGaussKl:
    def test_equal_is_zero(self):
        Sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        mu = np.array([0.1, -0.2])
        assert gauss_kl(mu, Sigma, mu, Sigma) == 0.0

    def test_univariate_closed_form(self):
        # KL(N(1, 2) || N(0, 1)) = (2 + 1 - 1 - log 2) / 2
        got = gauss_kl([1.0], [[2.0]], [0.0], [[1.0]])
        assert got == pytest.approx(0.5 * (2.0 + 1.0 - 1.0 - np.log(2.0)),
                                    abs=1e-12)

    def test_mean_shift_identity_covs(self):
        d = np.array([1.0, 2.0, 3.0])
        got = gauss_kl(d, np.eye(3), np.zeros(3), np.eye(3))
        assert got == pytest.approx(0.5 * float(d @ d), abs=1e-12)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            A = rng.normal(size=(4, 4))
            B = rng.normal(size=(4, 4))
            assert gauss_kl(rng.normal(size=4), A @ A.T + np.eye(4),
                            rng.normal(size=4), B @ B.T + np.eye(4)) >= 0.0

    def test_singular_input_raises(self):
        with pytest.raises((FactorizationError, ValueError)):
            gauss_kl([0.0, 0.0], np.zeros((2, 2)), [0.0, 0.0], np.eye(2))


class TestGaussHermite:
    def test_moments_order_10(self):
        q = gauss_hermite(10)
        assert float(q.weights.sum()) == pytest.approx(1.0, abs=1e-12)
        assert float(q.weights @ q.nodes) == pytest.approx(0.0, abs=1e-12)
        assert float(q.weights @ q.nodes**2) == pytest.approx(1.0, abs=1e-12)
        assert float(q.weights @ q.nodes**4) == pytest.approx(3.0, abs=1e-10)

    def test_lognormal_integral(self):
        # E[exp(Z)] = exp(1/2); order 20 is accurate to ~1e-9
        q = gauss_hermite(20)
        got = float(q.weights @ np.exp(q.nodes))
        assert got == pytest.approx(np.exp(0.5), abs=1e-8)

    def test_polynomial_exactness(self):
        q = gauss_hermite(3)  # exact through degree 5
        assert float(q.weights @ q.nodes**4) == pytest.approx(3.0, abs=1e-10)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            gauss_hermite(0)
        with pytest.raises(ValueError):
            gauss_hermite(129)
        gauss_hermite(1)
        gauss_hermite(128)

    def test_rule_built_once_per_order(self):
        assert gauss_hermite(32) is gauss_hermite(np.int64(32))
        assert gauss_hermite(32) is not gauss_hermite(31)

    def test_cached_arrays_read_only(self):
        q = gauss_hermite(32)
        with pytest.raises(ValueError):
            q.nodes[0] = 0.0
        with pytest.raises(ValueError):
            q.weights *= 2.0
        assert gauss_hermite(32).weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestGradCheck:
    """The central-difference checker of tests/oracles.py."""

    def test_quadratic_passes(self):
        A = np.array([[3.0, 1.0], [1.0, 2.0]])
        f = lambda x: 0.5 * x @ A @ x
        g = lambda x: A @ x
        assert grad_check(f, g, np.array([0.7, -1.3])) < 1e-8

    def test_wrong_gradient_detected(self):
        f = lambda x: float(np.sum(x**2))
        g = lambda x: 3.0 * x  # wrong scale
        assert grad_check(f, g, np.array([1.0, 2.0])) > 1e-2

    def test_nonfinite_objective_raises(self):
        f = lambda x: np.inf
        g = lambda x: np.zeros_like(x)
        with pytest.raises(ValueError):
            grad_check(f, g, np.array([0.0]))


def test_chol_factor_matches_numpy():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(5, 5))
    A = M @ M.T + 5 * np.eye(5)
    np.testing.assert_allclose(chol_factor(A), np.linalg.cholesky(A),
                               atol=1e-10)


def _laid_out(A, layout):
    """A copy of A that is C-ordered, Fortran-ordered, or a strided view
    into a larger array (neither)."""
    A = np.asarray(A, dtype=float)
    if layout == "C":
        return np.ascontiguousarray(A)
    if layout == "F":
        return np.asfortranarray(A)
    big = np.full(tuple(2 * d for d in A.shape), np.nan)
    view = big[(slice(None, None, 2),) * A.ndim]
    view[...] = A
    return view


def _spd(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    return M @ M.T + n * np.eye(n)


class TestDirectLapack:
    """chol_factor, chol_solve and lower_solve call LAPACK directly and
    must return the bits scipy.linalg's wrappers return."""

    SIZES = [0, 1, 7, 31, 101]
    LAYOUTS = ["C", "F", "strided"]

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n", SIZES)
    def test_factor_equals_scipy(self, n, layout):
        A = _laid_out(_spd(n, n), layout)
        want = sla.cholesky(A, lower=True, check_finite=False)
        got = chol_factor(A)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("rhs", ["vector", "matrix"])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n", SIZES)
    def test_solves_equal_scipy(self, n, layout, rhs):
        rng = np.random.default_rng(n + 1)
        L = _laid_out(sla.cholesky(_spd(n, n), lower=True), layout)
        b = _laid_out(rng.normal(size=(n,) if rhs == "vector" else (n, 3)),
                      layout)
        want = sla.cho_solve((L, True), b, check_finite=False)
        got = chol_solve(L, b)
        assert got.shape == want.shape and np.array_equal(got, want)
        want = sla.solve_triangular(L, b, lower=True, check_finite=False)
        got = lower_solve(L, b)
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("n, bad", [(3, 1), (7, 5), (31, 31)])
    def test_pivot_matches_scipy_message(self, n, bad):
        A = _spd(n, n)
        A[bad - 1, bad - 1] = -1e6   # leading minor ``bad`` fails first
        with pytest.raises(sla.LinAlgError) as ref:
            sla.cholesky(A, lower=True, check_finite=False)
        with pytest.raises(FactorizationError) as exc:
            chol_factor(A)
        assert exc.value.pivot == bad
        assert str(ref.value).startswith(f"{bad}-th leading minor")

    def test_singular_triangle_raises(self):
        with pytest.raises(FactorizationError):
            lower_solve(np.diag([1.0, 0.0, 2.0]), np.ones(3))


class TestNonFiniteInput:
    """A non-finite entry anywhere raises, without a warning, rather than
    returning a NaN factor or the factor of another matrix."""

    @staticmethod
    def _case(name):
        A = np.eye(3)
        if name == "nan_diagonal":
            A[1, 1] = np.nan
        elif name == "nan_upper":
            A[0, 2] = np.nan
        elif name == "nan_lower":  # the triangle LAPACK reads
            A[2, 0] = np.nan
        elif name == "inf_diagonal":
            A[1, 1] = np.inf
        elif name == "neg_inf_off_diagonal":
            A[0, 2] = A[2, 0] = -np.inf
        else:
            A[0, 2] = A[2, 0] = np.inf
        return A

    @pytest.mark.parametrize("name", ["nan_diagonal", "nan_upper",
                                      "nan_lower", "inf_diagonal",
                                      "inf_off_diagonal",
                                      "neg_inf_off_diagonal"])
    def test_raises_without_warning(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FactorizationError,
                               match="has a non-finite entry"):
                chol_factor(self._case(name))

    def test_asymmetry_is_reported_before_the_factorization(self):
        # not positive definite and not symmetric: the symmetry check
        # comes first, a plain ValueError and not a FactorizationError
        A = np.array([[1.0, 2.0], [3.0, 1.0]])
        with pytest.raises(ValueError, match="not symmetric") as exc:
            chol_factor(A, "A")
        assert not isinstance(exc.value, FactorizationError)
