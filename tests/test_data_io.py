import numpy as np
import pytest

from hetrvm.data import (DataError, Dataset, SynthSpec, load_csv, standardize,
                         synth)
from hetrvm.kernels import KernelSpec
from hetrvm.predict import predict
from hetrvm.rvm import fit_rvm


class TestDataset:
    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 1)), np.zeros(2))

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.array([[np.nan]]), np.array([0.0]))
        with pytest.raises(DataError):
            Dataset(np.array([[1.0]]), np.array([np.inf]))

    def test_1d_x_promoted(self):
        d = Dataset(np.array([[1.0], [2.0]]), [3.0, 4.0])
        assert d.X.shape == (2, 1)
        assert d.n == 2 and d.q == 1


class TestStandardize:
    @staticmethod
    def _data(column, y=None):
        rng = np.random.default_rng(0)
        x1 = np.linspace(-1.0, 1.0, 30)
        if y is None:
            y = np.sin(3.0 * x1) + 0.1 * rng.normal(size=30)
        return Dataset(np.column_stack([x1, column]), y)

    @pytest.mark.parametrize("c", [0.1, 0.5, -7.3, 1e6])
    def test_constant_column_maps_to_zero(self, c):
        # the computed sd of a constant 0.1 column is round-off (4.2e-17
        # at N=30), not 0
        work, record = standardize(self._data(np.full(30, c)))
        assert record.x_scale[1] == 1.0 and record.x_mean[1] == c
        assert np.all(work.X[:, 1] == 0.0)

    def test_constant_target_maps_to_zero(self):
        work, record = standardize(self._data(np.zeros(30), np.full(30, 0.1)))
        assert record.y_scale == 1.0 and record.y_mean == 0.1
        assert np.all(work.y == 0.0)

    def test_varying_data_keeps_its_bits(self):
        data = self._data(np.linspace(0.0, 5.0, 30) ** 2)
        work, record = standardize(data)
        assert np.array_equal(record.x_mean, data.X.mean(axis=0))
        assert np.array_equal(record.x_scale, data.X.std(axis=0))
        assert record.y_mean == data.y.mean()
        assert record.y_scale == data.y.std()
        want = (data.X - record.x_mean) / record.x_scale
        assert np.array_equal(work.X, want)

    def test_tiny_shift_of_constant_input_keeps_predictions(self):
        # a test input 1e-6 off a constant training column is close to it,
        # not many round-off standard deviations away
        data = self._data(np.full(30, 0.1))
        model = fit_rvm(data, KernelSpec(lengthscale=0.5))
        Xt = np.array([[-0.5, 0.1], [0.0, 0.1], [0.5, 0.1]])
        at = predict(model, Xt).latent_mean
        shifted = predict(model, Xt + [0.0, 1e-6]).latent_mean
        np.testing.assert_allclose(shifted, at, rtol=0, atol=1e-6)
        assert np.ptp(at) > 1.0


class TestLoadCsv:
    def test_basic_with_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0.5,1.5\n1.0,2.0\n")
        d = load_csv(p)
        np.testing.assert_allclose(d.X, [[0.5], [1.0]])
        np.testing.assert_allclose(d.y, [1.5, 2.0])

    def test_target_by_name(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,target,b\n1,10,2\n3,30,4\n")
        d = load_csv(p, target_column="target")
        np.testing.assert_allclose(d.y, [10.0, 30.0])
        np.testing.assert_allclose(d.X, [[1.0, 2.0], [3.0, 4.0]])

    def test_target_by_index(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,10\n2,20\n")
        d = load_csv(p, has_header=False, target_column=0)
        np.testing.assert_allclose(d.y, [1.0, 2.0])

    def test_non_numeric_reports_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n1,oops\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(p)

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n1,2,3\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DataError):
            load_csv(p)

    def test_unknown_target_name(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n")
        with pytest.raises(DataError):
            load_csv(p, target_column="z")

    def test_single_column_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y\n1\n2\n")
        with pytest.raises(DataError):
            load_csv(p)


class TestSynth:
    def test_deterministic(self):
        spec = SynthSpec(generator="goldberg_sine", n=50, seed=7)
        d1, sd1 = synth(spec)
        d2, sd2 = synth(spec)
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(d1.y, d2.y)
        assert np.array_equal(sd1, sd2)

    def test_seed_changes_draw(self):
        d1, _ = synth(SynthSpec(n=50, seed=0))
        d2, _ = synth(SynthSpec(n=50, seed=1))
        assert not np.array_equal(d1.y, d2.y)

    def test_goldberg_noise_profile(self):
        d, sd = synth(SynthSpec(generator="goldberg_sine", n=200, seed=3))
        x = d.X[:, 0]
        assert np.all((0.0 <= x) & (x <= 1.0))
        np.testing.assert_allclose(sd, 0.5 + x, atol=1e-15)
        resid = d.y - 2.0 * np.sin(2.0 * np.pi * x)
        # standardized residuals should look N(0, 1)
        z = resid / sd
        assert abs(z.mean()) < 0.2
        assert abs(z.std() - 1.0) < 0.15

    def test_linear_het_profile(self):
        d, sd = synth(SynthSpec(generator="linear_het", n=100, seed=4))
        np.testing.assert_allclose(sd, 0.1 + 0.4 * d.X[:, 0], atol=1e-15)

    def test_const_noise_sigma(self):
        d, sd = synth(SynthSpec(generator="const_noise", n=60, seed=5,
                                sigma=0.7))
        np.testing.assert_allclose(sd, 0.7, atol=1e-15)
        assert np.all((0.0 <= d.X[:, 0]) & (d.X[:, 0] <= 2 * np.pi))

    def test_goldberg_tail_noise_level(self):
        # sample std of the noise for x in [0.9, 1] should be near 1.45
        d, _ = synth(SynthSpec(generator="goldberg_sine", n=2000, seed=11))
        x = d.X[:, 0]
        mask = x >= 0.9
        resid = d.y[mask] - 2.0 * np.sin(2.0 * np.pi * x[mask])
        assert abs(resid.std() - 1.45) < 0.15

    def test_invalid_generator(self):
        with pytest.raises(DataError):
            SynthSpec(generator="nope")

    def test_minimum_n(self):
        with pytest.raises(DataError):
            SynthSpec(n=2)

    @pytest.mark.parametrize("n", [20.5, 3.0])
    def test_non_integer_n(self, n):
        with pytest.raises(DataError):
            SynthSpec(n=n)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_invalid_seed(self, seed):
        with pytest.raises(DataError):
            SynthSpec(seed=seed)

    @pytest.mark.parametrize("sigma", [-1.0, 0.0, float("nan"), float("inf")])
    def test_invalid_sigma(self, sigma):
        with pytest.raises(DataError):
            SynthSpec(generator="const_noise", sigma=sigma)
