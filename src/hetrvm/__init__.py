"""Sparse kernel regression with input-dependent noise.

A relevance vector machine whose noise variance is exp(g(x)) for a
latent Gaussian process g, trained either by a collapsed variational
bound or by expectation propagation, with a homoscedastic RVM baseline:
the same model with the log-noise held at a constant.

The package exports the user-facing API; the trainers' building blocks
stay importable from their own modules.
"""

from .data import Dataset, DataError, Standardization, SynthSpec, load_csv, standardize, synth
from .ep import EpConfig, fit_ep
from .kernels import KernelSpec
from .model import HrvmModel
from .numerics import FactorizationError
from .predict import PredictiveDist, nlpd, predict, rmse
from .rvm import RvmConfig, fit_rvm
from .serialize import SchemaError, load_model, save_model
from .vi import VIConfig, fit_vi

__all__ = [
    "Dataset", "DataError", "Standardization", "SynthSpec", "load_csv",
    "standardize", "synth", "KernelSpec", "RvmConfig", "VIConfig",
    "EpConfig", "fit_rvm", "fit_vi", "fit_ep", "HrvmModel",
    "PredictiveDist", "predict", "nlpd", "rmse", "save_model", "load_model",
    "SchemaError", "FactorizationError",
]

__version__ = "0.1.0"
