import re

import numpy as np
import pytest

from hetrvm.cli import run
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

    @pytest.mark.parametrize("c", [0.1, 0.5, -7.3, 1e6, 1e308])
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

    def test_overflowing_scale_raises(self):
        # the sd of this column overflows; it used to become inf, which
        # standardized every input to 0
        column = np.resize([1e300, -1e300, 5e299, 0.0, 2e299], 30)
        with pytest.raises(DataError, match="input column 1"):
            standardize(self._data(column))
        with pytest.raises(DataError, match="target"):
            standardize(self._data(np.zeros(30), column))

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
        # a numpy integer indexes as an int does
        for index in (0, np.int64(0), np.int32(0)):
            d = load_csv(p, has_header=False, target_column=index)
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

    @pytest.mark.parametrize("text", ["y\n1\n2,3\n", "x,y\n1,2\n3,4,5,6\n"])
    def test_row_a_multiple_of_the_first_is_ragged(self, tmp_path, text):
        # the cell count is checked per row, not only in total
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(DataError,
                           match="inconsistent column count at row 3"):
            load_csv(p)

    @pytest.mark.parametrize("text", ["x,y\n1,2,3\n4,5,6\n",
                                      "a,x,y\n1,2\n3,4\n"])
    def test_header_width_must_match_rows(self, tmp_path, text):
        # a header naming fewer (or more) columns than the rows hold would
        # let --target by name pick another column
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(DataError, match="header names"):
            load_csv(p, target_column="y")
        with pytest.raises(DataError, match="header names"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "absent.csv")

    def test_not_utf8_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"x,y\n1,2\n\xff,3\n")
        with pytest.raises(DataError, match="cannot read"):
            load_csv(p)

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

    @pytest.mark.parametrize("text", ["y,x,y\n1,2,3\n4,5,6\n",
                                      "x,y,y\n1,2,3\n4,5,6\n"])
    def test_target_name_given_twice(self, tmp_path, text):
        # the name cannot tell which column is the target; other names
        # may repeat, since inputs are read by position
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(DataError, match="'y' more than once"):
            load_csv(p, target_column="y")
        assert load_csv(p, target_column="x").X.shape == (2, 2)

    def test_single_column_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y\n1\n2\n")
        with pytest.raises(DataError):
            load_csv(p)

    def test_target_bool_rejected(self, tmp_path):
        # a bool is neither a column index nor a header name
        p = tmp_path / "d.csv"
        p.write_text("x,y,z\n1,2,3\n")
        for target in (True, False):
            with pytest.raises(DataError, match="target column"):
                load_csv(p, target_column=target)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell_reports_row(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text(f"x,y\n1,2\n\n3,4\n5,{cell}\n6,7\n")
        with pytest.raises(DataError,
                           match=re.escape(f"{p}: non-finite cell at row 5")):
            load_csv(p)

    @pytest.mark.parametrize("text, message", [
        ("x,y\n\n\n1,2\nfoo,3\n", "non-numeric cell at row 5"),
        ("x,y\n1,2\n \n\t\n3,4,5\n", "inconsistent column count at row 5"),
        ("\n\nx,y\n1,2\n\n1,oops\n", "non-numeric cell at row 6")],
        ids=["non_numeric", "ragged", "header_after_blanks"])
    def test_row_number_counts_blank_lines(self, tmp_path, text, message):
        # the docstring's row numbers are the file's line numbers
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(DataError, match=message):
            load_csv(p)

    @pytest.mark.parametrize("has_header", [True, False])
    def test_byte_order_mark_is_skipped(self, tmp_path, has_header):
        # spreadsheet tools often write UTF-8 with a byte-order mark
        text = ("x0,y\n" if has_header else "") + "0.25,1.5\n-3,2e-3\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text.encode("utf-8"))
        bom.write_bytes(text.encode("utf-8-sig"))
        target = "x0" if has_header else 0
        for kw in ({}, {"target_column": target}):
            want = load_csv(plain, has_header=has_header, **kw)
            got = load_csv(bom, has_header=has_header, **kw)
            assert got.X.tobytes() == want.X.tobytes()
            assert got.y.tobytes() == want.y.tobytes()


def _float_rows(text):
    """The rows of a CSV text as ``float(cell.strip())``, blank lines
    skipped: the parse ``load_csv`` must reproduce bit for bit."""
    lines = text.replace("\r\n", "\n").split("\n")
    return np.array([[float(c.strip()) for c in ln.split(",")]
                     for ln in lines if ln.strip()])


class TestLoadCsvParse:
    @pytest.mark.parametrize("body", [
        " 0.5 ,\t1.5\n\t1.0\t, 2.0  \n",
        "0.5,1.5\r\n1.0,2.0\r\n",
        "-0.0,+1.5\n1e-320,1_000\n",
        "0.1,0.2\n0.3,0.4",
        "0.1,0.2\n\n \n\t\n0.3,0.4\n\n",
        "1,2,3\n-4.5e2, 6E-1 ,  +7.\n.5,-.25,8_8.0_1\n",
    ], ids=["spaces_tabs", "crlf", "signs_subnormal_underscore",
            "no_final_newline", "blank_lines", "three_columns"])
    @pytest.mark.parametrize("has_header", [True, False])
    def test_cells_parse_as_float_of_stripped_cell(self, tmp_path, body,
                                                   has_header):
        width = body.split("\n")[0].count(",") + 1
        head = ",".join(f"c{i}" for i in range(width)) + "\n"
        p = tmp_path / "d.csv"
        p.write_bytes(((head if has_header else "") + body).encode())
        want = _float_rows(body)
        for target in range(width):
            d = load_csv(p, has_header=has_header, target_column=target)
            assert d.y.tobytes() == want[:, target].tobytes()
            assert d.X.tobytes() == np.delete(want, target, axis=1).tobytes()
        d = load_csv(p, has_header=has_header)
        assert d.y.tobytes() == want[:, -1].tobytes()

    @pytest.mark.parametrize("n, seed", [(100, 0), (1000, 300_000)])
    def test_synth_files_load_the_drawn_arrays(self, tmp_path, n, seed):
        # the two files the README flow (and its benchmark) writes: repr
        # round-trips every float, so the file holds the draw's bits
        p = tmp_path / "d.csv"
        assert run(["synth", "--generator", "goldberg_sine", "--n", str(n),
                    "--seed", str(seed), "--out", str(p)]) == 0
        drawn, _ = synth(SynthSpec(generator="goldberg_sine", n=n, seed=seed))
        d = load_csv(p)
        assert d.X.tobytes() == drawn.X.tobytes()
        assert d.y.tobytes() == drawn.y.tobytes()
        assert d.X.flags.c_contiguous and d.y.flags.c_contiguous


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

    @pytest.mark.parametrize("sigma", [
        -1.0, 0.0, float("nan"), float("inf"), True, "0.3", None,
        pytest.param(10**400, id="huge_int")])
    def test_invalid_sigma(self, sigma):
        with pytest.raises(DataError):
            SynthSpec(generator="const_noise", sigma=sigma)
