import json
from pathlib import Path

import numpy as np
import pytest

from hetrvm.data import Dataset, SynthSpec, synth
from hetrvm.ep import EpConfig, fit_ep
from hetrvm.kernels import KernelSpec
from hetrvm.predict import nlpd, predict
from hetrvm.rvm import fit_rvm
from hetrvm.serialize import (SchemaError, load_model, model_from_dict,
                              model_to_dict, save_model)
from hetrvm.vi import VIConfig, fit_vi
from conftest import (drop_field, drop_last, set_corner, set_field,
                      set_first, set_index, set_record)


@pytest.fixture(scope="module")
def fitted():
    data, _ = synth(SynthSpec(generator="goldberg_sine", n=30, seed=0))
    kernel = KernelSpec(lengthscale=0.3)
    return {
        "data": data,
        "vi": fit_vi(data, kernel, VIConfig(max_iter=15)),
        "ep": fit_ep(data, kernel, EpConfig(max_passes=15)),
        "rvm": fit_rvm(data, kernel),
    }


@pytest.mark.parametrize("method", ["vi", "ep", "rvm"])
def test_round_trip_predictions_bit_identical(fitted, tmp_path, method):
    model = fitted[method]
    data = fitted["data"]
    path = tmp_path / f"{method}.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.method == method
    before = predict(model, data.X)
    after = predict(loaded, data.X)
    assert np.array_equal(before.latent_mean, after.latent_mean)
    assert np.array_equal(before.total_var, after.total_var)
    assert np.array_equal(before.g_mean, after.g_mean)


def test_save_is_byte_stable(fitted, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(fitted["vi"], p1)
    save_model(fitted["vi"], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_rejected(fitted, tmp_path):
    path = tmp_path / "m.json"
    save_model(fitted["vi"], path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(SchemaError):
        load_model(path)


def test_unknown_version_rejected(fitted, tmp_path):
    doc = model_to_dict(fitted["rvm"])
    doc["format_version"] = 99
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="version"):
        load_model(path)


@pytest.mark.parametrize("version", [
    4, True, 1.0, "1", None, pytest.param(1, id="format1")])
def test_version_is_a_known_integer(fitted, version):
    """The version decides which fields a document may carry, so only
    the integers 2 to 3 are versions (``True == 1`` in Python); format 1
    is no longer read."""
    doc = model_to_dict(fitted["vi"])
    doc["format_version"] = version
    with pytest.raises(SchemaError, match="version"):
        model_from_dict(doc)


def test_missing_field_names_problem(fitted):
    doc = model_to_dict(fitted["rvm"])
    del doc["alpha"]
    with pytest.raises(SchemaError, match="alpha"):
        model_from_dict(doc)


def test_unknown_kind_rejected(fitted):
    doc = model_to_dict(fitted["rvm"])
    doc["model_kind"] = "mystery"
    with pytest.raises(SchemaError, match="model_kind"):
        model_from_dict(doc)


def test_kernel_signal_variance_is_not_read(fitted):
    """Every file carries the basis kernel's signal variance at 1; any
    other positive value loads, predicts the same and saves as 1, since
    no basis ever read it."""
    doc = model_to_dict(fitted["vi"])
    assert doc["kernel"]["signal_variance"] == 1.0
    doc["kernel"]["signal_variance"] = 2.5
    loaded = model_from_dict(doc)
    X = fitted["data"].X
    assert np.array_equal(predict(loaded, X).total_var,
                          predict(fitted["vi"], X).total_var)
    assert model_to_dict(loaded)["kernel"]["signal_variance"] == 1.0


def test_training_log_may_hold_nan(fitted):
    """EP logs nan where its marginal-likelihood estimate is undefined, so
    a log holding nan (or ints) loads as floats."""
    doc = model_to_dict(fitted["ep"])
    doc["training_log"] = [float("nan"), 2, -1.5]
    log = model_from_dict(json.loads(json.dumps(doc))).training_log
    assert np.isnan(log[0]) and log[1:] == [2.0, -1.5]


def test_fields_preserved_exactly(fitted, tmp_path):
    model = fitted["ep"]
    path = tmp_path / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(model.mu_w, loaded.mu_w)
    assert np.array_equal(model.Sigma_w, loaded.Sigma_w)
    assert np.array_equal(model.g_prec, loaded.g_prec)
    assert np.array_equal(model.g_coef, loaded.g_coef)
    assert model.training_log == loaded.training_log
    assert model.active_indices == loaded.active_indices
    assert model.kernel == loaded.kernel


def _shrink_weights(doc):
    # mu_w and Sigma_w agree with each other, not with the active set
    doc["mu_w"] = doc["mu_w"][:-1]
    doc["Sigma_w"] = [row[:-1] for row in doc["Sigma_w"][:-1]]


def _flatten(key):
    def mutate(doc):
        doc[key] = [v for row in doc[key] for v in row]
    return mutate


def _repeat_index(doc):
    doc["active_indices"][1] = doc["active_indices"][0]


def _both_noise_forms(doc):
    doc["g_const"] = doc["noise_mu0"]


def _no_noise_form(doc):
    del doc["g_prec"], doc["g_coef"]


def _noise_const(value):
    def mutate(doc):
        del doc["g_prec"], doc["g_coef"]
        doc["g_const"] = value
    return mutate


def _site_and_format1(doc):
    doc["g_mu"] = [doc["noise_mu0"]] * len(doc["g_prec"])


def _clamped(mutate):
    """``mutate`` applied to the document clamped at its own ``noise_mu0``,
    written as a clamped model writes it (format 2, ``g_const``)."""
    def clamp_then(doc):
        del doc["g_prec"], doc["g_coef"]
        doc["g_const"] = doc["noise_mu0"]
        doc["format_version"] = 2
        mutate(doc)
    return clamp_then


def _log_noise(value):
    """A clamped document's log noise, ``noise_mu0`` and ``g_const`` both,
    set to ``value``."""
    def mutate(doc):
        doc["noise_mu0"] = doc["g_const"] = value
    return mutate


def _kernel_field(key, value):
    def mutate(doc):
        doc["kernel"][key] = value
    return mutate


@pytest.mark.parametrize("mutate", [
    pytest.param(set_index(0, 999), id="index-past-n_basis"),
    pytest.param(set_index(0, -1), id="index-negative"),
    pytest.param(set_index(0, 2.5), id="index-not-integer"),
    pytest.param(_repeat_index, id="index-repeated"),
    pytest.param(drop_last("alpha"), id="alpha-short"),
    pytest.param(_shrink_weights, id="mu_w-short"),
    pytest.param(_flatten("Sigma_w"), id="Sigma_w-flat"),
    pytest.param(drop_last("g_prec"), id="g_prec-short"),
    pytest.param(drop_last("g_coef"), id="g_coef-short"),
    pytest.param(set_first("g_prec", -1e-3), id="g_prec-negative"),
    pytest.param(set_first("g_prec", float("nan")), id="g_prec-nan"),
    pytest.param(set_first("g_prec", float("inf")), id="g_prec-inf"),
    pytest.param(set_first("g_coef", float("nan")), id="g_coef-nan"),
    pytest.param(set_first("g_coef", -float("inf")), id="g_coef-minus-inf"),
    pytest.param(drop_field("g_coef"), id="g_coef-missing"),
    pytest.param(drop_last("centers"), id="centers-short"),
    pytest.param(_flatten("centers"), id="centers-flat"),
    pytest.param(_both_noise_forms, id="noise-both-forms"),
    pytest.param(_no_noise_form, id="noise-neither-form"),
    pytest.param(_site_and_format1, id="noise-site-and-format1-forms"),
    pytest.param(_noise_const(float("nan")), id="g_const-nan"),
    pytest.param(_noise_const(float("inf")), id="g_const-inf"),
    pytest.param(_noise_const(-float("inf")), id="g_const-minus-inf"),
    pytest.param(_noise_const("0.5"), id="g_const-string"),
    pytest.param(_noise_const(True), id="g_const-bool"),
    pytest.param(_noise_const([0.5]), id="g_const-list"),
    pytest.param(_clamped(set_field("noise_mu0", 5.0)),
                 id="clamped-noise_mu0-not-g_const"),
    pytest.param(set_field("noise_jitter", -1.0), id="noise_jitter-negative"),
    pytest.param(set_field("noise_jitter", 0.0), id="noise_jitter-zero"),
    pytest.param(set_field("noise_jitter", float("inf")),
                 id="noise_jitter-inf"),
    pytest.param(set_field("noise_lengthscale", 0.0),
                 id="noise_lengthscale-zero"),
    pytest.param(set_field("noise_lengthscale", float("nan")),
                 id="noise_lengthscale-nan"),
    pytest.param(set_field("noise_lengthscale", 1e300),
                 id="noise_lengthscale-square-overflows"),
    pytest.param(set_field("noise_signal_variance", float("nan")),
                 id="noise_signal_variance-nan"),
    pytest.param(set_field("noise_signal_variance", 0.0),
                 id="noise_signal_variance-zero"),
    pytest.param(set_field("noise_lengthscale", "0.5"),
                 id="noise_lengthscale-string"),
    pytest.param(set_field("noise_mu0", True), id="noise_mu0-bool"),
    pytest.param(set_field("noise_jitter", "1e-6"), id="noise_jitter-string"),
    pytest.param(set_field("noise_signal_variance", True),
                 id="noise_signal_variance-bool"),
    pytest.param(_kernel_field("signal_variance", 0.0),
                 id="kernel-signal_variance-zero"),
    pytest.param(_kernel_field("signal_variance", float("nan")),
                 id="kernel-signal_variance-nan"),
    pytest.param(_kernel_field("signal_variance", True),
                 id="kernel-signal_variance-bool"),
    pytest.param(_kernel_field("include_bias", 2), id="kernel-include_bias-2"),
    pytest.param(_kernel_field("include_bias", 1), id="kernel-include_bias-1"),
    pytest.param(_kernel_field("include_bias", 1.0),
                 id="kernel-include_bias-1.0"),
    pytest.param(_kernel_field("lengthscale", True),
                 id="kernel-lengthscale-bool"),
    pytest.param(set_field("noise_mu0", float("nan")), id="noise_mu0-nan"),
    pytest.param(set_field("noise_mu0", -float("inf")),
                 id="noise_mu0-minus-inf"),
    pytest.param(set_field("method", "banana"), id="method-unknown"),
    pytest.param(set_field("method", ["vi"]), id="method-list"),
    pytest.param(set_field("status", 17), id="status-int"),
    pytest.param(set_field("status", None), id="status-null"),
    pytest.param(set_field("n_iter", 2.5), id="n_iter-float"),
    pytest.param(set_field("n_iter", -4), id="n_iter-negative"),
    pytest.param(set_field("n_iter", True), id="n_iter-bool"),
    pytest.param(set_field("n_iter", "7"), id="n_iter-string"),
    pytest.param(set_field("config", [1, 2]), id="config-list"),
    pytest.param(set_field("config", "x"), id="config-string"),
    pytest.param(drop_field("config"), id="config-missing"),
    pytest.param(set_field("training_log", "12"), id="training_log-string"),
    pytest.param(set_first("alpha", float("nan")), id="alpha-nan"),
    pytest.param(set_first("alpha", float("inf")), id="alpha-inf"),
    pytest.param(set_first("alpha", 0.0), id="alpha-zero"),
    pytest.param(set_first("mu_w", float("nan")), id="mu_w-nan"),
    pytest.param(set_first("mu_w", -float("inf")), id="mu_w-minus-inf"),
    pytest.param(set_corner("Sigma_w", float("nan")), id="Sigma_w-nan"),
    pytest.param(set_corner("centers", float("nan")), id="centers-nan"),
    pytest.param(set_corner("centers", float("inf")), id="centers-inf"),
    pytest.param(set_record("x_mean", [float("nan")]), id="x_mean-nan"),
    pytest.param(set_record("x_mean", [0.5, 0.5]), id="x_mean-two-entries"),
    pytest.param(set_record("x_scale", []), id="x_scale-empty"),
    pytest.param(set_record("x_scale", [[1.0]]), id="x_scale-nested"),
    pytest.param(set_record("x_scale", [0.0]), id="x_scale-zero"),
    pytest.param(set_record("x_scale", [-1.0]), id="x_scale-negative"),
    pytest.param(set_record("x_scale", [float("inf")]), id="x_scale-inf"),
    pytest.param(set_record("y_mean", float("nan")), id="y_mean-nan"),
    pytest.param(set_record("y_scale", 0.0), id="y_scale-zero"),
    pytest.param(set_record("y_scale", -2.0), id="y_scale-negative"),
    pytest.param(set_record("y_scale", float("nan")), id="y_scale-nan"),
    # a JSON integer beyond the float range
    pytest.param(set_first("alpha", 10**400), id="alpha-int-overflows"),
    pytest.param(_clamped(_log_noise(10**400)),
                 id="clamped-noise_mu0-and-g_const-int-overflow"),
    # a string or bool where a number belongs
    pytest.param(set_record("y_mean", "0.5"), id="y_mean-string"),
    pytest.param(set_record("y_scale", True), id="y_scale-bool"),
    pytest.param(set_corner("centers", "0.25"), id="centers-string"),
    pytest.param(set_first("mu_w", True), id="mu_w-bool"),
    pytest.param(set_record("x_scale", ["1.5"]), id="x_scale-string"),
    pytest.param(set_first("g_prec", "0.1"), id="g_prec-string"),
])
def test_inconsistent_document_rejected(fitted, mutate):
    """A document whose index and array sizes disagree, whose method no
    trainer has, whose status is not a string, whose noise-GP prior
    ``GpNoisePrior`` rejects (a mean that is not finite included), whose
    clamped log-noise ``g_const`` is not that prior's mean, whose values
    are not of their JSON types (a bool ``include_bias``, numbers
    elsewhere, a string or bool among them included), whose integers
    overflow a float, or whose weight posterior,
    centres or standardization hold
    a non-finite number (or a precision or scale that is not positive),
    or whose input standardization is not as wide as ``centers``, fails
    to load, rather than loading and then predicting from wrapped
    or truncated arrays, or nan (or failing later as a numeric error)."""
    doc = model_to_dict(fitted["vi"])
    assert len(doc["active_indices"]) >= 2
    mutate(doc)
    with pytest.raises(SchemaError):
        model_from_dict(doc)


LEGACY = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name", ["rvm", "hetrvm", "vi", "ep"])
def test_format1_file_names_the_resave_route(name):
    """Format 1 is no longer read: a format-1 file, of kind "rvm" or
    "hetrvm" with q(g) as g_mu and the N x N g_Sigma, raises a
    SchemaError that names format 1 and the route to a readable file, a
    load and re-save with hetrvm at commit 2469dfe or earlier."""
    path = LEGACY / f"legacy_{name}_format1.json"
    assert json.loads(path.read_text())["format_version"] == 1
    with pytest.raises(SchemaError, match=r"format 1 .*no longer read.*"
                       r"2469dfe or earlier.*re-saves it as format 2 or 3"):
        load_model(path)


def test_model_files_are_compact_json(fitted, tmp_path):
    path = tmp_path / "m.json"
    save_model(fitted["rvm"], path)
    text = path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert text == json.dumps(model_to_dict(fitted["rvm"]),
                              sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def clamped_vi(fitted):
    # a constant target: the degenerate VI model, clamped at unit noise
    data = fitted["data"]
    return fit_vi(Dataset(data.X, np.full(data.n, -1.5)),
                  KernelSpec(lengthscale=0.3), VIConfig(max_iter=5))


PRED_FIELDS = ("latent_mean", "latent_var", "g_mean", "g_var", "total_var")


@pytest.mark.parametrize("name", ["rvm", "clamped_vi"])
def test_clamped_noise_written_as_one_number(fitted, clamped_vi, name):
    """A clamped model writes its log-noise as the one number ``g_const``,
    and loads back with the same fields to the bit."""
    model = clamped_vi if name == "clamped_vi" else fitted[name]
    assert model.noise_clamped
    doc = model_to_dict(model)
    assert doc["format_version"] == 2
    assert not {"g_mu", "g_Sigma", "g_prec", "g_coef"} & set(doc)
    assert doc["g_const"] == model.noise_prior.mu0
    loaded = model_from_dict(json.loads(json.dumps(doc)))
    assert loaded.noise_prior.mu0 == model.noise_prior.mu0
    assert np.array_equal(loaded.g_prec, model.g_prec)
    assert np.array_equal(loaded.g_coef, model.g_coef)
    assert loaded.g_prec.dtype == loaded.g_coef.dtype == np.float64
    X = fitted["data"].X
    before, after = predict(model, X), predict(loaded, X)
    for field in PRED_FIELDS:
        assert np.array_equal(getattr(before, field), getattr(after, field))
    assert model_to_dict(loaded) == doc


@pytest.mark.parametrize("method", ["vi", "ep"])
def test_posterior_noise_keeps_its_arrays(fitted, method):
    # q(g) in site form: two N-vectors, which format 3 added
    model = fitted[method]
    assert not model.noise_clamped
    doc = model_to_dict(model)
    assert doc["format_version"] == 3
    assert not {"g_const", "g_mu", "g_Sigma"} & set(doc)
    n = len(doc["centers"])
    assert len(doc["g_prec"]) == len(doc["g_coef"]) == n
    assert doc["g_prec"] == model.g_prec.tolist()
    assert doc["g_coef"] == model.g_coef.tolist()


@pytest.mark.parametrize("method", ["vi", "rvm"])
def test_raw_units_file_loads_and_predicts(tmp_path, method):
    """A file fitted in raw units, as the trainers wrote them before they
    always standardized (``"standardize": false`` in its config and an
    identity standardization), loads, predicts to the bit what it
    predicted when written, and saves back to the same bytes."""
    path = LEGACY / f"legacy_{method}_raw_units.json"
    doc = json.loads(path.read_text())
    expected = json.loads(
        (LEGACY / f"legacy_{method}_raw_units_pred.json").read_text())
    assert doc["config"]["standardize"] is False
    assert doc["standardization"] == {"x_mean": [0.0], "x_scale": [1.0],
                                      "y_mean": 0.0, "y_scale": 1.0}
    model = load_model(path)
    assert model.method == method and model.config == doc["config"]
    pred = predict(model, np.asarray(expected["X"]))
    for name in PRED_FIELDS:
        assert np.array_equal(getattr(pred, name), expected[name]), name
    assert nlpd(pred, expected["y"]) == expected["nlpd"]
    save_model(model, tmp_path / "m.json")
    assert (tmp_path / "m.json").read_bytes() == path.read_bytes()
