import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hetrvm
from hetrvm import cli
from hetrvm.cli import run
from hetrvm.data import SynthSpec, load_csv
from hetrvm.ep import EpConfig, fit_ep
from hetrvm.kernels import KernelSpec
from hetrvm.rvm import RvmConfig, fit_rvm
from hetrvm.serialize import model_to_dict
from hetrvm.vi import VIConfig, fit_vi
from conftest import (drop_field, drop_last, set_corner, set_field,
                      set_first, set_index, set_record)


@pytest.fixture(scope="module")
def train_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    path = root / "train.csv"
    assert run(["synth", "--generator", "goldberg_sine", "--n", "30",
                "--seed", "0", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def headerless_csv(train_csv, tmp_path_factory):
    """``train_csv`` without its header, the target moved to column 0."""
    path = tmp_path_factory.mktemp("cli") / "headerless.csv"
    rows = [ln.split(",") for ln in train_csv.read_text().splitlines()[1:]]
    path.write_text("".join(f"{y},{x}\n" for x, y in rows))
    return path


@pytest.fixture(scope="module")
def vi_model(train_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_model") / "vi.json"
    code = run(["train", "--method", "vi", "--data", str(train_csv),
                "--out", str(path), "--lengthscale", "0.3",
                "--max-iter", "20"])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def rvm_model(train_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_model") / "rvm.json"
    assert run(["train", "--method", "rvm", "--data", str(train_csv),
                "--out", str(path), "--lengthscale", "0.3"]) == 0
    return path


class TestSynth:
    def test_writes_csv_with_noise(self, tmp_path):
        out = tmp_path / "d.csv"
        noise = tmp_path / "sd.csv"
        assert run(["synth", "--n", "10", "--out", str(out),
                    "--noise-out", str(noise)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x0,y"
        assert len(lines) == 11
        assert noise.read_text().splitlines()[0] == "noise_sd"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["synth", "--n", "15", "--seed", "3", "--out", str(a)])
        run(["synth", "--n", "15", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_module_form_runs_the_cli(self, tmp_path):
        # `python -m hetrvm.cli ...` is the console script without an
        # installed entry point: it runs the command, not just the import
        src = str(Path(hetrvm.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        out = tmp_path / "x.csv"
        done = subprocess.run([sys.executable, "-m", "hetrvm.cli", "synth",
                               "--n", "10", "--out", str(out)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        assert load_csv(out).n == 10


class TestTrain:
    def test_byte_identical_reruns(self, train_csv, tmp_path):
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = ["train", "--method", "vi", "--data", str(train_csv),
                "--lengthscale", "0.3", "--max-iter", "15"]
        assert run(args + ["--out", str(m1)]) == 0
        assert run(args + ["--out", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    @pytest.mark.parametrize("method", ["rvm", "ep"])
    def test_other_methods(self, train_csv, tmp_path, method):
        out = tmp_path / "m.json"
        assert run(["train", "--method", method, "--data", str(train_csv),
                    "--out", str(out), "--lengthscale", "0.3",
                    "--max-iter", "15"]) == 0
        assert out.exists()

    @pytest.mark.parametrize("method", ["rvm", "vi", "ep"])
    def test_defaults_are_the_librarys(self, train_csv, tmp_path, method):
        """Given only --lengthscale, ``hetrvm train`` saves the model the
        library fits at its default config."""
        out = tmp_path / "m.json"
        assert run(["train", "--method", method, "--data", str(train_csv),
                    "--out", str(out), "--lengthscale", "0.3"]) == 0
        fit = {"rvm": fit_rvm, "vi": fit_vi, "ep": fit_ep}[method]
        want = model_to_dict(fit(load_csv(train_csv),
                                 KernelSpec(lengthscale=0.3)))
        # compared as JSON text, in which a nan of EP's log equals itself
        assert (json.dumps(json.loads(out.read_text()), sort_keys=True)
                == json.dumps(want, sort_keys=True))


class TestPredictEvaluate:
    def test_predict_tsv_shape(self, vi_model, train_csv, tmp_path):
        out = tmp_path / "pred.tsv"
        assert run(["predict", "--model", str(vi_model),
                    "--data", str(train_csv), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# {")  # embedded resolved config
        header = lines[1].split("\t")
        assert header == ["x0", "y_true", "pred_mean", "pred_sd_total",
                          "pred_sd_latent", "noise_sd"]
        assert len(lines) == 32
        row = [float(v) for v in lines[2].split("\t")]
        assert np.all(np.isfinite(row))

    def test_rvm_model_predicts(self, rvm_model, train_csv, tmp_path):
        out = tmp_path / "pred.tsv"
        assert run(["predict", "--model", str(rvm_model),
                    "--data", str(train_csv), "--out", str(out)]) == 0
        rows = [[float(v) for v in line.split("\t")]
                for line in out.read_text().splitlines()[2:]]
        assert len(rows) == 30
        noise_sd = {row[-1] for row in rows}
        assert len(noise_sd) == 1 and noise_sd.pop() > 0

    def test_evaluate_report(self, vi_model, train_csv, tmp_path):
        report = tmp_path / "report.txt"
        assert run(["evaluate", "--model", str(vi_model),
                    "--data", str(train_csv), "--report", str(report)]) == 0
        text = report.read_text()
        kv = dict(line.split("=", 1) for line in text.strip().splitlines())
        assert kv["format_version"] == "1"
        assert np.isfinite(float(kv["rmse"]))
        assert np.isfinite(float(kv["nlpd"]))
        assert int(kv["active_basis"]) < 31


class TestHeaderless:
    """With --no-header, --target N selects the 0-based column N."""

    def test_target_index_selects_column(self, headerless_csv, train_csv,
                                         tmp_path):
        # the headerless file holds (y, x): column 0 is the target
        out = tmp_path / "m.json"
        assert run(["train", "--method", "rvm", "--data", str(headerless_csv),
                    "--no-header", "--target", "0", "--out", str(out)]) == 0
        ref = tmp_path / "ref.json"
        assert run(["train", "--method", "rvm", "--data", str(train_csv),
                    "--out", str(ref)]) == 0
        assert json.loads(out.read_text())["mu_w"] \
            == json.loads(ref.read_text())["mu_w"]

    def test_predict_and_evaluate_read_target_index(self, headerless_csv,
                                                    vi_model, train_csv,
                                                    tmp_path):
        reports = []
        for data, opts in ((headerless_csv, ["--no-header", "--target", "0"]),
                           (train_csv, [])):
            report = tmp_path / "r.txt"
            assert run(["evaluate", "--model", str(vi_model),
                        "--data", str(data), "--report", str(report)]
                       + opts) == 0
            reports.append(report.read_text().splitlines()[2:])
            pred = tmp_path / "p.tsv"
            assert run(["predict", "--model", str(vi_model),
                        "--data", str(data), "--out", str(pred)]
                       + opts) == 0
            reports.append(pred.read_text().splitlines()[1:])
        assert reports[0] == reports[2] and reports[1] == reports[3]


class TestBenchmark:
    def test_row_per_method_and_seed(self, tmp_path):
        report = tmp_path / "bench.tsv"
        assert run(["benchmark", "--generator", "const_noise", "--n", "20",
                    "--seeds", "2", "--methods", "rvm,vi",
                    "--lengthscale", "0.4", "--max-iter", "10",
                    "--report", str(report)]) == 0
        lines = report.read_text().strip().splitlines()
        assert lines[2] == "method\tseed\trmse\tnlpd\tactive_basis"
        rows = [ln.split("\t") for ln in lines[3:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("rvm", "0"), ("vi", "0"), ("rvm", "1"), ("vi", "1")]


class TestParserReuse:
    """``run`` parses with one parser per process.  argparse keeps no
    state between parses, so calls in sequence act as calls on freshly
    built parsers do."""

    CALLS = (["train", "--method", "nonsense"],
             ["train", "--method", "rvm", "--data", "train.csv",
              "--out", "m.json", "--lengthscale", "0.3"],
             ["--help"],
             ["predict", "--model", "m.json", "--data", "train.csv",
              "--out", "p.tsv"])

    def _sequence(self, directory, train_csv, monkeypatch, capsys):
        directory.mkdir()
        monkeypatch.chdir(directory)
        shutil.copy(train_csv, "train.csv")
        calls = []
        for argv in self.CALLS:
            code = run(argv)
            calls.append((code, *capsys.readouterr()))
        files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
        return calls, files

    def test_reused_parser_acts_as_fresh_ones(self, train_csv, tmp_path,
                                              monkeypatch, capsys):
        reused = self._sequence(tmp_path / "reused", train_csv, monkeypatch,
                                capsys)
        # the builder without its memo builds a new parser on every call
        monkeypatch.setattr(cli, "build_parser", getattr(
            cli.build_parser, "__wrapped__", cli.build_parser))
        fresh = self._sequence(tmp_path / "fresh", train_csv, monkeypatch,
                               capsys)
        assert [c[0] for c in reused[0]] == [2, 0, 0, 0]
        assert reused == fresh
        assert set(reused[1]) == {"train.csv", "m.json", "p.tsv"}

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()


class TestExitCodes:
    def test_usage_error(self):
        assert run(["train", "--method", "nonsense"]) == 2
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize("method", ["rvm", "vi", "ep"])
    @pytest.mark.parametrize("option, value", [
        ("--max-iter", "0"), ("--max-iter", "-2"), ("--max-iter", "1.5"),
        ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf")])
    def test_invalid_fit_setting_is_usage_error(self, train_csv, tmp_path,
                                                method, option, value):
        out = tmp_path / "m.json"
        assert run(["train", "--method", method, "--data", str(train_csv),
                    "--out", str(out), option, value]) == 2
        assert not out.exists()
        assert run(["benchmark", "--n", "10", "--seeds", "1",
                    "--methods", method, "--report",
                    str(tmp_path / "bench.tsv"), option, value]) == 2
        assert not (tmp_path / "bench.tsv").exists()

    @pytest.mark.parametrize("option, value", [
        ("--methods", "foo"), ("--methods", ","), ("--seeds", "0"),
        ("--seeds", "-3"), ("--lengthscale", "-1"), ("--lengthscale", "nan"),
        ("--degree", "-2")])
    def test_invalid_benchmark_setting_is_usage_error(self, tmp_path, option,
                                                      value):
        report = tmp_path / "bench.tsv"
        assert run(["benchmark", "--n", "10", "--seeds", "1",
                    "--methods", "rvm", "--report", str(report),
                    option, value]) == 2
        assert not report.exists()

    @pytest.mark.parametrize("option, value", [
        ("--lengthscale", "-1"), ("--lengthscale", "nan"), ("--degree", "-2")])
    def test_invalid_kernel_setting_is_usage_error(self, train_csv, tmp_path,
                                                   option, value):
        out = tmp_path / "m.json"
        assert run(["train", "--method", "rvm", "--data", str(train_csv),
                    "--out", str(out), option, value]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_invalid_synth_seed_is_usage_error(self, tmp_path, seed):
        out = tmp_path / "d.csv"
        assert run(["synth", "--seed", seed, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("n", ["2", "0", "-1"])
    def test_too_few_points_is_usage_error(self, tmp_path, n):
        out = tmp_path / "d.csv"
        assert run(["synth", "--n", n, "--out", str(out)]) == 2
        assert not out.exists()
        report = tmp_path / "bench.tsv"
        assert run(["benchmark", "--n", n, "--seeds", "1", "--methods",
                    "rvm", "--report", str(report)]) == 2
        assert not report.exists()

    def test_seed_is_not_a_fit_option(self, train_csv, tmp_path):
        # a fit has no random state: only synth takes --seed.  Nor has it
        # a precision threshold: the basis selection's deletes are its
        # only pruning
        out, report = tmp_path / "m.json", tmp_path / "bench.tsv"
        for option in (["--seed", "0"], ["--alpha-threshold", "1e12"]):
            assert run(["train", "--method", "ep", "--data", str(train_csv),
                        "--out", str(out), *option]) == 2
            assert not out.exists()
            assert run(["benchmark", "--n", "10", "--seeds", "1",
                        "--methods", "ep", "--report", str(report),
                        *option]) == 2
            assert not report.exists()

    def test_negative_sigma_is_usage_error(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["synth", "--generator", "const_noise", "--sigma", "-1",
                    "--out", str(out)]) == 2
        assert not out.exists()

    def test_data_error_missing_file(self, tmp_path):
        assert run(["train", "--method", "vi",
                    "--data", str(tmp_path / "absent.csv"),
                    "--out", str(tmp_path / "m.json")]) == 3

    def test_data_error_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,oops\n")
        assert run(["train", "--method", "rvm", "--data", str(bad),
                    "--out", str(tmp_path / "m.json")]) == 3

    @pytest.mark.parametrize("target", [[], ["--target", "y"]])
    def test_data_error_header_narrower_than_rows(self, tmp_path, capsys,
                                                  target):
        bad = tmp_path / "narrow.csv"
        bad.write_text("x,y\n" + "".join(f"{i},{i % 3},{2 * i}\n"
                                          for i in range(10)))
        assert run(["train", "--method", "rvm", "--data", str(bad),
                    "--out", str(tmp_path / "m.json")] + target) == 3
        assert "header names 2 columns" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_data_error_overflowing_column(self, tmp_path):
        bad = tmp_path / "big.csv"
        bad.write_text("x,y\n1e300,0\n-1e300,1\n5e299,2\n0,3\n2e299,4\n")
        assert run(["train", "--method", "rvm", "--data", str(bad),
                    "--out", str(tmp_path / "m.json")]) == 3
        assert not (tmp_path / "m.json").exists()

    def test_data_error_too_few_points(self, tmp_path):
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("x,y\n0,1\n1,2\n")
        assert run(["train", "--method", "vi", "--data", str(tiny),
                    "--out", str(tmp_path / "m.json")]) == 3

    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    @pytest.mark.parametrize("target", ["x0", "1.0", "last", ""])
    def test_headerless_target_must_be_an_index(self, vi_model, tmp_path,
                                                 command, target):
        # a usage error before any file is read: --data does not exist
        out = {"train": ["--method", "rvm", "--out", str(tmp_path / "m")],
               "predict": ["--model", str(vi_model),
                           "--out", str(tmp_path / "p")],
               "evaluate": ["--model", str(vi_model)]}[command]
        assert run([command, "--data", str(tmp_path / "absent.csv"),
                    "--no-header", "--target", target] + out) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target", ["2", "-1"])
    def test_headerless_target_outside_file_is_data_error(
            self, headerless_csv, tmp_path, target):
        assert run(["train", "--method", "rvm", "--data",
                    str(headerless_csv), "--no-header", "--target", target,
                    "--out", str(tmp_path / "m.json")]) == 3

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_wide_csv_is_data_error(self, vi_model, train_csv, tmp_path,
                                    capsys, command):
        # the input column twice: a data error naming both widths, not a
        # numeric failure
        rows = [ln.split(",") for ln in train_csv.read_text().splitlines()]
        wide = tmp_path / "wide.csv"
        wide.write_text("".join(f"{x},{x},{y}\n" for x, y in rows))
        out = ["--out", str(tmp_path / "p.tsv")] if command == "predict" else []
        assert run([command, "--model", str(vi_model),
                    "--data", str(wide)] + out) == 3
        err = capsys.readouterr().err
        assert "data error" in err
        assert "2 columns" in err and "trained on 1" in err

    def test_schema_error_is_data_error(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{\"format_version\": 42}")
        data = tmp_path / "d.csv"
        data.write_text("x,y\n0,1\n1,2\n2,3\n")
        assert run(["predict", "--model", str(bogus), "--data", str(data),
                    "--out", str(tmp_path / "p.tsv")]) == 3


# option -> (argparse type, the library objects the CLI builds from it)
_TRAIN_OPTIONS = {
    "--max-iter": (int, lambda v: (RvmConfig(max_iter=v), VIConfig(max_iter=v),
                                   EpConfig(max_passes=v))),
    "--tol": (float, lambda v: (RvmConfig(tol=v), VIConfig(tol=v),
                                EpConfig(tol=v))),
    "--lengthscale": (float, lambda v: KernelSpec(lengthscale=v)),
    "--degree": (int, lambda v: KernelSpec(degree=v)),
}
_SYNTH_OPTIONS = {
    "--n": (int, lambda v: SynthSpec(n=v)),
    "--seed": (int, lambda v: SynthSpec(seed=v)),
    "--sigma": (float, lambda v: SynthSpec(sigma=v)),
}
_PROBES = ["0", "-1", "1.5", "1e-300", "1e300", "nan", "inf", "-inf"]


def _library_rejects(parse, build, text):
    try:
        build(parse(text))
    except ValueError:  # DataError included
        return True
    return False


class TestCliMatchesLibrary:
    """The CLI rejects a setting (exit 2, no file) exactly when argparse
    cannot read it as a number or the library object built from it
    raises, so the two cannot drift apart."""

    @pytest.mark.parametrize("value", _PROBES)
    @pytest.mark.parametrize("option", sorted(_TRAIN_OPTIONS))
    def test_train(self, train_csv, tmp_path, option, value):
        out = tmp_path / "m.json"
        argv = ["train", "--method", "ep", "--data", str(train_csv),
                "--out", str(out), "--lengthscale", "0.3",
                f"{option}={value}"]
        if option != "--max-iter":
            argv += ["--max-iter", "1"]
        code = run(argv)
        if _library_rejects(*_TRAIN_OPTIONS[option], value):
            assert code == 2
            assert not out.exists()
        else:
            assert code != 2

    @pytest.mark.parametrize("value", _PROBES)
    @pytest.mark.parametrize("option", sorted(_SYNTH_OPTIONS))
    def test_synth(self, tmp_path, option, value):
        out = tmp_path / "d.csv"
        code = run(["synth", "--out", str(out), f"{option}={value}"])
        if _library_rejects(*_SYNTH_OPTIONS[option], value):
            assert code == 2
            assert not out.exists()
        else:
            assert code != 2


@pytest.mark.parametrize("method, mutate", [
    pytest.param("rvm", set_index(0, 999), id="rvm-index-past-n_basis"),
    pytest.param("rvm", set_index(0, -1), id="rvm-index-negative"),
    pytest.param("rvm", drop_last("alpha"), id="rvm-alpha-short"),
    pytest.param("vi", set_field("format_version", 1), id="vi-format1"),
    pytest.param("vi", drop_last("g_prec"), id="vi-g_prec-short"),
    pytest.param("vi", set_first("g_prec", -1.0), id="vi-g_prec-negative"),
    pytest.param("vi", set_first("g_coef", float("nan")), id="vi-g_coef-nan"),
    pytest.param("vi", set_field("g_const", 0.0), id="vi-two-noise-forms"),
    pytest.param("vi", drop_last("centers"), id="vi-centers-short"),
    pytest.param("rvm", drop_field("g_const"), id="rvm-g_const-missing"),
    pytest.param("rvm", set_field("g_const", float("nan")),
                 id="rvm-g_const-nan"),
    pytest.param("vi", set_field("noise_jitter", -1.0),
                 id="vi-noise_jitter-negative"),
    pytest.param("vi", set_field("noise_lengthscale", 0.0),
                 id="vi-noise_lengthscale-zero"),
    pytest.param("vi", set_field("noise_signal_variance", float("nan")),
                 id="vi-noise_signal_variance-nan"),
    pytest.param("vi", set_field("noise_mu0", float("nan")),
                 id="vi-noise_mu0-nan"),
    pytest.param("vi", set_field("method", "banana"), id="vi-method-unknown"),
    pytest.param("rvm", set_field("status", 17), id="rvm-status-not-a-string"),
    pytest.param("vi", set_first("mu_w", float("nan")), id="vi-mu_w-nan"),
    pytest.param("vi", set_record("y_scale", 0.0), id="vi-y_scale-zero"),
    pytest.param("vi", set_corner("centers", float("nan")),
                 id="vi-centers-nan"),
    pytest.param("rvm", set_first("alpha", 0.0), id="rvm-alpha-zero"),
    pytest.param("vi", set_record("x_mean", [0.5, 0.5]),
                 id="vi-x_mean-two-entries"),
])
def test_inconsistent_model_file_is_data_error(request, train_csv, tmp_path,
                                               capsys, method, mutate):
    """A model file whose sizes disagree is a data error (exit 3) at
    load time, not a traceback, a silently different NLPD or a numeric
    failure."""
    model = request.getfixturevalue(f"{method}_model")
    doc = json.loads(model.read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["evaluate", "--model", str(bad),
                "--data", str(train_csv)]) == 3
    assert "data error" in capsys.readouterr().err
