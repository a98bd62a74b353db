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

One table, ``_FIELDS``, gives each field's JSON type, shape and rule:
``model_to_dict`` writes from it, ``model_from_dict`` reads through it,
and README's model-format table lists it.

Formats 2 and 3 load; format 1 (kind "rvm", or q(g) as ``g_mu`` and
the N x N ``g_Sigma``) is no longer read, and raises ``SchemaError``.
hetrvm at commit 2469dfe or earlier loads a format-1 file, and its
``save_model`` re-saves it as format 2 or 3.
"""

from __future__ import annotations

import itertools
import json
from functools import partial
from operator import attrgetter
from typing import NamedTuple, Optional, Tuple

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


class _Field(NamedTuple):
    """One field of a model document.

    ``key`` is its name, as ``place.name`` inside the ``kernel`` or
    ``standardization`` object.  ``type`` is its JSON type: ``int``,
    ``bool``, ``str``, ``number`` (not a bool) and ``object``, or a list
    held as a float ``array`` of ``shape``, as a list of ``floats`` or
    as a list of ``ints``.  A shape names its sizes: N rows of
    ``centers``, m ``active_indices`` and q input columns; the first field
    that has a size fixes it.  ``held`` says whether the model holds the
    value, as the attribute the key names (``noise_`` + name as
    ``noise_prior``'s).  ``rule`` names the test in ``_RULES`` the value
    must pass, and ``formats`` gives the versions that carry the field."""

    key: str
    type: str
    shape: Tuple[str, ...]
    held: bool
    rule: Optional[str]
    formats: Tuple[int, ...] = (2, 3)

    @property
    def attr(self) -> str:
        """The model attribute of a held field, as a dotted path."""
        return self.key.replace("noise_", "noise_prior.", 1)


# in the order the loader reads them: a rule may read an earlier field
_FIELDS = [_Field(*row) for row in (
    # key                       type      shape       held   rule
    ("format_version",          "int",    (),         False, "version"),
    ("model_kind",              "str",    (),         False, "hetrvm"),
    ("method",                  "str",    (),         True,  "method"),
    ("status",                  "str",    (),         True,  None),
    ("n_iter",                  "int",    (),         True,  "nonneg"),
    ("config",                  "object", (),         True,  None),
    # EP logs nan where its marginal-likelihood estimate is undefined
    ("training_log",            "floats", ("log",),   True,  None),
    ("kernel.family",           "str",    (),         True,  "KernelSpec"),
    ("kernel.lengthscale",      "number", (),         True,  "KernelSpec"),
    ("kernel.degree",           "int",    (),         True,  "KernelSpec"),
    ("kernel.include_bias",     "bool",   (),         True,  "KernelSpec"),
    ("kernel.signal_variance",  "number", (),         False, "positive"),
    ("centers",                 "array",  ("N", "q"), True,  "finite"),
    ("active_indices",          "ints",   ("m",),     True,  "index"),
    ("alpha",                   "array",  ("m",),     True,  "positive"),
    ("mu_w",                    "array",  ("m",),     True,  "finite"),
    ("Sigma_w",                 "array",  ("m", "m"), True,  "finite"),
    ("noise_mu0",               "number", (),         True,  "GpNoisePrior"),
    ("noise_lengthscale",       "number", (),         True,  "GpNoisePrior"),
    ("noise_signal_variance",   "number", (),         True,  "GpNoisePrior"),
    ("noise_jitter",            "number", (),         True,  "GpNoisePrior"),
    ("g_const",                 "number", (),         False, "mu0", (2,)),
    ("g_prec",                  "array",  ("N",),     True,  "nonneg", (3,)),
    ("g_coef",                  "array",  ("N",),     True,  "finite", (3,)),
    ("standardization.x_mean",  "array",  ("q",),     True,  "finite"),
    ("standardization.x_scale", "array",  ("q",),     True,  "positive"),
    ("standardization.y_mean",  "number", (),         True,  "finite"),
    # predict scales the noise variance by y_scale^2 and takes its log
    ("standardization.y_scale", "number", (),         True,  "square"),
)]

# np.all without its Python-level dispatch, microseconds a rule
_all = partial(np.logical_and.reduce, axis=None)
# each rule's text, and its test of a value given what is known before it;
# a rule named after a class is the check its constructor makes
_RULES = {
    "finite": ("finite", lambda v, _: _all(np.abs(v) < np.inf)),
    "positive": ("finite and positive",
                 lambda v, _: _all((0.0 < v) & (v < np.inf))),
    "nonneg": ("finite and nonnegative",
               lambda v, _: _all((0.0 <= v) & (v < np.inf))),
    "square": ("positive, and its square finite and at least the smallest "
               "normal float", lambda v, _: _square_in_range(v)),
    "version": (f"2 to {FORMAT_VERSION}",
                lambda v, _: 2 <= v <= FORMAT_VERSION),
    "hetrvm": ('"hetrvm"', lambda v, _: v == "hetrvm"),
    "method": ("rvm, vi or ep", lambda v, _: v in ("rvm", "vi", "ep")),
    "index": ("distinct and in [0, number of basis columns)",
              lambda v, known: len(set(v)) == len(v) and all(
                  0 <= i < known["N"] + known["kernel.include_bias"]
                  for i in v)),
    "mu0": ("noise_mu0", lambda v, known: v == known["noise_mu0"]),
}

_TYPES = {
    "int": lambda v: type(v) is int,
    "bool": lambda v: type(v) is bool,
    "str": lambda v: isinstance(v, str),
    "number": _is_number,
    "object": lambda v: isinstance(v, dict),
    "ints": lambda v: isinstance(v, list) and all(type(i) is int for i in v),
}

# how a value of each type is read and written (any other as it is)
_READ = {"floats": lambda a: a.tolist(), "ints": list}
_WRITE = {"array": lambda v: np.asarray(v, dtype=float).tolist(),
          "floats": lambda v: [float(x) for x in v],
          "ints": lambda v: list(map(int, v)), "int": int}


def model_to_dict(model: HrvmModel) -> dict:
    if not isinstance(model, HrvmModel):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    version = 2 if model.noise_clamped else FORMAT_VERSION
    # the fields the model does not hold.  Every file carries a basis-kernel
    # signal variance of 1, which no basis reads, so that files keep their
    # bytes and older readers, which require the key, still load them
    extra = {"format_version": version, "model_kind": "hetrvm",
             "kernel.signal_variance": 1.0, "g_const": model.noise_prior.mu0}
    doc = {}
    for field in (f for f in _FIELDS if version in f.formats):
        value = (attrgetter(field.attr)(model) if field.held
                 else extra[field.key])
        value = _WRITE[field.type](value) if field.type in _WRITE else value
        place, _, name = field.key.rpartition(".")
        (doc.setdefault(place, {}) if place else doc)[name] = value
    return doc


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


def _read(doc: dict, field: _Field, known: dict):
    """The value of ``field`` in ``doc``, of its type, shape and rule;
    ``known`` holds the fields read before it, and the sizes (N, m, q)
    their shapes fixed."""
    place, _, name = field.key.rpartition(".")
    value = (doc[place] if place else doc)[name]
    if field.type in ("array", "floats"):
        value = _numbers(value, field.key)
    elif not _TYPES[field.type](value):
        raise SchemaError(f"{field.key} {value!r:.40} is not of JSON type "
                          f"{field.type}")
    elif field.type == "number":
        value = float(value)  # OverflowError beyond the float range
    if field.shape:  # a value of a scalar type is a scalar
        expected = tuple(known.get(s) for s in field.shape)
        if 0 in expected and np.size(value) == 0:
            value = value.reshape(expected)  # an empty matrix is written []
        shape = np.shape(value)
        if len(shape) != len(expected) or any(
                e not in (None, n) for e, n in zip(expected, shape)):
            raise SchemaError(f"{field.key} has shape {shape}, expected "
                              f"({', '.join(field.shape)})")
        known.update(zip(field.shape, shape))
    text, test = _RULES.get(field.rule, (None, None))
    if test is not None and not test(value, known):
        raise SchemaError(f"{field.key} must be {text}")
    return _READ[field.type](value) if field.type in _READ else value


def _model(doc: dict) -> HrvmModel:
    """The model of a "hetrvm" document: every field of ``_FIELDS`` that
    its log-noise form's format carries, and no field of the other."""
    version = 2 if "g_const" in doc else FORMAT_VERSION
    known = {}
    parts = {"": {"g_prec": np.zeros(0), "g_coef": np.zeros(0)},
             "kernel": {}, "noise_prior": {}, "standardization": {}}
    for field in (f for f in _FIELDS if version in f.formats):
        known[field.key] = value = _read(doc, field, known)
        if field.held:
            place, _, name = field.attr.rpartition(".")
            parts[place][name] = value
    if set(doc) & {f.key for f in _FIELDS if version not in f.formats}:
        raise SchemaError("the log-noise is g_const, or g_prec and g_coef, "
                          "not both")
    return HrvmModel(**parts[""], kernel=KernelSpec(**parts["kernel"]),
                     noise_prior=GpNoisePrior(**parts["noise_prior"]),
                     standardization=Standardization(
                         **parts["standardization"]))


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
    """The model saved at ``path``.  A file that is not UTF-8 JSON, or
    that nests deeper than the decoder takes, raises ``SchemaError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise SchemaError(f"{path}: not UTF-8 JSON ({exc})") from exc
    return model_from_dict(doc)
