"""Versioned JSON persistence for trained models.

Numbers are written with Python's shortest round-trip float encoding, so
a save / load cycle reproduces predictions to the last bit.  The format
is self-describing: a version field, the model kind, and every field
needed to rebuild the model.  Files are compact JSON with sorted keys.

Every model is written as kind "hetrvm", with the oldest format version
that reads it.  A clamped model (every RVM, and every degenerate fit)
writes its log-noise as the one number ``g_const`` (format 2), so RVM
files keep their bytes; a VI or EP model writes q(g) in site form, the
N-vectors ``g_prec`` and ``g_coef`` (format 3, see ``HrvmModel``).

Formats 2 and 3 load; format 1 (kind "rvm", or q(g) as ``g_mu`` and
the N x N ``g_Sigma``) is no longer read, and raises ``SchemaError``.
hetrvm at commit 2469dfe or earlier loads a format-1 file, and its
``save_model`` re-saves it as format 2 or 3.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import fields

import numpy as np

from .data import Standardization
from .kernels import GpNoisePrior, KernelSpec
from .model import HrvmModel
from .numerics import _is_number, _square_in_range

__all__ = ["FORMAT_VERSION", "SchemaError", "save_model", "load_model",
           "model_to_dict", "model_from_dict"]

FORMAT_VERSION = 3


class SchemaError(ValueError):
    """Model file violates the expected schema (bad version, missing or
    malformed field)."""


def _arr(a):
    return np.asarray(a, dtype=float).tolist()


def _kernel_to_dict(k: KernelSpec):
    # every file carries a basis-kernel signal variance of 1, which no
    # basis reads, so that files keep their bytes and older readers, which
    # require the key, still load them
    return {"family": k.family, "lengthscale": k.lengthscale,
            "degree": k.degree, "include_bias": k.include_bias,
            "signal_variance": 1.0}


def _kernel_from_dict(d):
    """The basis kernel of a document.  Its ``signal_variance`` must be
    a positive and finite number, and is not read: it never changed a
    prediction."""
    sv = d["signal_variance"]
    if not (_is_number(sv) and np.isfinite(sv) and sv > 0):
        raise SchemaError(f"signal_variance {sv!r} is not positive and finite")
    return KernelSpec(family=d["family"], lengthscale=d["lengthscale"],
                      degree=d["degree"], include_bias=d["include_bias"])


# the noise prior's fields, each saved as "noise_" + its name
_PRIOR_FIELDS = [f.name for f in fields(GpNoisePrior)]


def _std_to_dict(s: Standardization):
    return {"x_mean": _arr(s.x_mean), "x_scale": _arr(s.x_scale),
            "y_mean": s.y_mean, "y_scale": s.y_scale}


def _std_from_dict(d):
    y_mean, y_scale = d["y_mean"], d["y_scale"]
    if not (_is_number(y_mean) and _is_number(y_scale)):
        raise SchemaError(f"y_mean {y_mean!r} and y_scale {y_scale!r} "
                          "must be numbers")
    # predict scales the noise variance by y_scale^2 and takes its log
    if not _square_in_range(y_scale):
        raise SchemaError(f"y_scale {y_scale!r} must be positive, and its "
                          "square finite and at least the smallest normal "
                          "float")
    return Standardization(x_mean=_numbers(d["x_mean"], "x_mean"),
                           x_scale=_numbers(d["x_scale"], "x_scale"),
                           y_mean=float(y_mean), y_scale=float(y_scale))


def model_to_dict(model: HrvmModel) -> dict:
    if not isinstance(model, HrvmModel):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return {
        **_noise_to_dict(model),
        "model_kind": "hetrvm",
        "method": model.method,
        "kernel": _kernel_to_dict(model.kernel),
        "centers": _arr(model.centers),
        "active_indices": list(map(int, model.active_indices)),
        "alpha": _arr(model.alpha),
        "mu_w": _arr(model.mu_w),
        "Sigma_w": _arr(model.Sigma_w),
        **{"noise_" + name: getattr(model.noise_prior, name)
           for name in _PRIOR_FIELDS},
        "standardization": _std_to_dict(model.standardization),
        "training_log": [float(v) for v in model.training_log],
        "status": model.status,
        "n_iter": int(model.n_iter),
        "config": model.config,
    }


def _noise_to_dict(model: HrvmModel) -> dict:
    """The log-noise fields and the format version they need."""
    if model.noise_clamped:
        return {"format_version": 2, "g_const": model.noise_prior.mu0}
    return {"format_version": FORMAT_VERSION, "g_prec": _arr(model.g_prec),
            "g_coef": _arr(model.g_coef)}


def _numbers(value, name: str) -> np.ndarray:
    """``value``, a list (or nested lists) of JSON numbers, as a float
    array.  A string, bool or null among them raises ``SchemaError``,
    where ``float`` would read ``"0.5"`` as 0.5 and ``true`` as 1."""
    a = np.asarray(value, dtype=float)
    leaves = [value] if a.ndim == 0 else value
    for _ in range(a.ndim - 1):
        leaves = itertools.chain.from_iterable(leaves)
    # whether a value is a number depends on its type only, so one value
    # of each type is checked: a list of N floats costs microseconds
    if not all(map(_is_number, {type(v): v for v in leaves}.values())):
        raise SchemaError(f"every entry of {name} must be a number")
    return a


def _array(doc: dict, key: str, *shape: int) -> np.ndarray:
    """``doc[key]`` as a float array of the given shape."""
    a = _numbers(doc[key], key)
    if a.size == 0 and 0 in shape:
        a = a.reshape(shape)  # an empty matrix is written as []
    if a.shape != shape:
        raise SchemaError(f"{key} has shape {a.shape}, expected {shape}")
    return a


def _noise_from_dict(doc: dict, n: int) -> dict:
    """The ``HrvmModel`` log-noise fields of a document over N centers:
    ``noise_prior``, from the ``noise_*`` values, which must be numbers
    that ``GpNoisePrior`` accepts, and the sites ``g_prec`` and ``g_coef``
    of the one posterior form.  A clamped model has no sites, and its
    ``g_const`` must be the prior's mean: the log noise is read once."""
    values = [doc["noise_" + name] for name in _PRIOR_FIELDS]
    if not all(map(_is_number, values)):
        raise SchemaError(f"every noise_* value must be a number: {values}")
    prior = GpNoisePrior(*map(float, values))
    if ("g_const" in doc) == ("g_prec" in doc or "g_coef" in doc):
        raise SchemaError("the log-noise needs g_const, or g_prec and "
                          "g_coef, but not both")
    if "g_const" in doc:
        const = doc["g_const"]
        if not (_is_number(const) and const == prior.mu0):
            raise SchemaError(f"g_const {const!r} is not noise_mu0")
        return dict(noise_prior=prior, g_prec=np.zeros(0), g_coef=np.zeros(0))
    prec, coef = _array(doc, "g_prec", n), _array(doc, "g_coef", n)
    if not np.all(np.isfinite(coef) & np.isfinite(prec) & (prec >= 0.0)):
        raise SchemaError("g_prec must be finite and nonnegative, and "
                          "g_coef finite")
    return dict(noise_prior=prior, g_prec=prec, g_coef=coef)


def _model(doc: dict) -> HrvmModel:
    """The model of a "hetrvm" document, whose sizes must agree: N rows
    of ``centers``, m distinct ``active_indices`` in [0, n_basis), the
    weight and noise posteriors sized m and N, and one ``x_mean`` and
    ``x_scale`` entry per column of ``centers``.  The method must be a
    trainer's, the status a string, the noise-GP prior one that
    ``GpNoisePrior`` accepts, with a clamped model's ``g_const`` its mean,
    every number a JSON number (not a string, bool or null) in the float
    range, and every number but the training log (EP can log nan) finite,
    precisions and scales > 0, and ``y_scale`` one whose square is finite
    and at least the smallest normal float.  The record of the run must be
    well formed too: ``n_iter`` a nonnegative integer, ``config`` an
    object and ``training_log`` a list of numbers."""
    if doc["method"] not in ("rvm", "vi", "ep"):
        raise SchemaError(f"unknown method {doc['method']!r}")
    if not isinstance(doc["status"], str):
        raise SchemaError(f"status {doc['status']!r} is not a string")
    n_iter, config, log = doc["n_iter"], doc["config"], doc["training_log"]
    if not (type(n_iter) is int and n_iter >= 0 and isinstance(config, dict)
            and isinstance(log, list) and all(map(_is_number, log))):
        raise SchemaError("n_iter must be a nonnegative integer, config an "
                          "object and training_log a list of numbers")
    kernel = _kernel_from_dict(doc["kernel"])
    centers = _numbers(doc["centers"], "centers")
    if centers.ndim != 2:
        raise SchemaError(f"centers has shape {centers.shape}, expected "
                          "(points, inputs)")
    n = centers.shape[0]
    n_basis = n + int(kernel.include_bias)
    active = doc["active_indices"]
    if not (all(type(i) is int and 0 <= i < n_basis for i in active)
            and len(set(active)) == len(active)):
        raise SchemaError("active_indices must be distinct integers in "
                          f"[0, {n_basis})")
    m = len(active)
    model = HrvmModel(
        method=doc["method"],
        kernel=kernel,
        centers=centers,
        active_indices=list(active),
        alpha=_array(doc, "alpha", m),
        mu_w=_array(doc, "mu_w", m),
        Sigma_w=_array(doc, "Sigma_w", m, m),
        **_noise_from_dict(doc, n),
        standardization=_std_from_dict(doc["standardization"]),
        training_log=[float(v) for v in log],
        status=doc["status"],
        n_iter=n_iter,
        config=config,
    )
    record = model.standardization
    width = centers.shape[1]
    for name in ("x_mean", "x_scale"):
        shape = getattr(record, name).shape
        if shape != (width,):
            raise SchemaError(f"{name} has shape {shape}, expected ({width},)"
                              " for the columns of centers")
    for name, value in dict(
            alpha=model.alpha, x_scale=record.x_scale, mu_w=model.mu_w,
            Sigma_w=model.Sigma_w, centers=model.centers,
            x_mean=record.x_mean, y_mean=record.y_mean).items():
        positive = name in ("alpha", "x_scale")
        if not np.all((value > (0.0 if positive else -np.inf))
                      & (value < np.inf)):
            raise SchemaError(f"{name} must be finite"
                              + (" and positive" if positive else ""))
    return model


def model_from_dict(doc: dict) -> HrvmModel:
    """The model of a saved document.  A document that breaks the schema,
    or whose index and array sizes disagree, raises ``SchemaError``."""
    if not isinstance(doc, dict):
        raise SchemaError("model document must be a JSON object")
    version = doc.get("format_version")
    if ((type(version) is int and version == 1)
            or "g_mu" in doc or "g_Sigma" in doc):
        raise SchemaError("model format 1 (format_version 1, or q(g) as g_mu "
                          "and g_Sigma) is no longer read: hetrvm at commit "
                          "2469dfe or earlier loads the file, and its "
                          "save_model re-saves it as format 2 or 3")
    if type(version) is not int or not 2 <= version <= FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version {version!r} "
                          f"(expected 2 to {FORMAT_VERSION})")
    kind = doc.get("model_kind")
    if kind != "hetrvm":
        raise SchemaError(f"unknown model_kind {kind!r}")
    try:
        return _model(doc)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: a JSON integer beyond the float range, such as 1e400
        # written out in digits
        raise SchemaError(f"malformed model document: {exc}") from exc


def save_model(model, path) -> None:
    doc = model_to_dict(model)
    text = json.dumps(doc, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_model(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    return model_from_dict(doc)
