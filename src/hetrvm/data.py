"""Datasets: construction, standardization, CSV ingestion and synthetic
heteroscedastic generators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _check_int

__all__ = [
    "DataError",
    "Standardization",
    "Dataset",
    "standardize",
    "load_csv",
    "SynthSpec",
    "synth",
]


class DataError(ValueError):
    """Malformed input data (file or in-memory)."""


@dataclass(frozen=True)
class Standardization:
    """Per-column affine map applied to X and y; suffices to invert it."""

    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: float
    y_scale: float

    def apply_x(self, X):
        return (np.atleast_2d(np.asarray(X, dtype=float)) - self.x_mean) / self.x_scale

    def invert_x(self, X):
        return np.atleast_2d(np.asarray(X, dtype=float)) * self.x_scale + self.x_mean

    def apply_y(self, y):
        return (np.asarray(y, dtype=float) - self.y_mean) / self.y_scale

    def invert_y(self, y):
        return np.asarray(y, dtype=float) * self.y_scale + self.y_mean

    @staticmethod
    def identity(q: int) -> "Standardization":
        return Standardization(np.zeros(q), np.ones(q), 0.0, 1.0)


@dataclass(frozen=True)
class Dataset:
    """Inputs X (N x Q) and targets y (N)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if X.shape[0] != y.size:
            raise DataError(f"X has {X.shape[0]} rows but y has {y.size} entries")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise DataError("dataset must have at least one row and one feature")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise DataError("dataset contains non-finite values")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def q(self) -> int:
        return self.X.shape[1]


def _location_scale(v, name):
    """Mean and population sd along axis 0.  A constant column gets its
    own value and scale 1, so it maps to exactly 0: a round-off sd would
    blow a tiny change of its input up to many standard deviations.  A
    mean or sd that overflows raises ``DataError``: ``name`` formatted
    with the column's index."""
    with np.errstate(over="ignore"):
        const = np.ptp(v, axis=0) == 0
        loc = np.where(const, v[0], v.mean(axis=0))
        scale = np.where(const, 1.0, v.std(axis=0))
    bad = np.flatnonzero(~(np.isfinite(loc) & np.isfinite(scale)))
    if bad.size:
        raise DataError(name.format(bad[0]) + " has a mean or standard "
                        "deviation that overflows")
    return loc, np.where(scale > 0, scale, 1.0)


def standardize(data: Dataset):
    """Map each X column and y to zero mean / unit standard deviation
    (population sd, denominator N).  A constant column or target keeps
    scale 1 and is centred at its value (see _location_scale).  Returns
    the standardized dataset and the :class:`Standardization` that maps
    back."""
    x_mean, x_scale = _location_scale(data.X, "input column {}")
    y_mean, y_scale = map(float, _location_scale(data.y, "the target"))
    record = Standardization(x_mean, x_scale, y_mean, y_scale)
    return Dataset(record.apply_x(data.X), record.apply_y(data.y)), record


def load_csv(path, has_header: bool = True, target_column=None) -> Dataset:
    """Parse a numeric CSV into a Dataset.

    ``target_column`` names (header) or indexes the target; defaults to the
    last column.  Non-numeric cells are rejected with their row number
    (1-based, counting the header).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: empty file")

    header = None
    start = 0
    if has_header:
        header = [c.strip() for c in lines[0].split(",")]
        start = 1
    rows = []
    for lineno, ln in enumerate(lines[start:], start=start + 1):
        cells = [c.strip() for c in ln.split(",")]
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise DataError(f"{path}: non-numeric cell at row {lineno}") from exc
        if len(rows[-1]) != len(rows[0]):
            raise DataError(f"{path}: inconsistent column count at row {lineno}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    ncol = arr.shape[1]
    if ncol < 2:
        raise DataError(f"{path}: need at least one feature and one target column")

    if target_column is None:
        tidx = ncol - 1
    elif isinstance(target_column, int):
        tidx = target_column
    else:
        if header is None or target_column not in header:
            raise DataError(f"{path}: unknown target column {target_column!r}")
        tidx = header.index(target_column)
    if not (0 <= tidx < ncol):
        raise DataError(f"{path}: target column index {tidx} out of range")
    y = arr[:, tidx]
    X = np.delete(arr, tidx, axis=1)
    return Dataset(X, y)


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic heteroscedastic regression problem, fully determined by
    (generator, n, seed, params)."""

    generator: str = "goldberg_sine"
    n: int = 100
    seed: int = 0
    sigma: float = 0.3  # const_noise only

    def __post_init__(self):
        if self.generator not in ("goldberg_sine", "linear_het", "const_noise"):
            raise DataError(f"unknown generator {self.generator!r}")
        _check_int(self.n, "n", 3, DataError)
        _check_int(self.seed, "seed", 0, DataError)
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise DataError("sigma must be positive and finite")


def synth(spec: SynthSpec):
    """Draw a synthetic dataset; returns (Dataset, true per-point noise std).

    goldberg_sine: x ~ U[0,1], y = 2 sin(2 pi x) + eps, sd(eps) = 0.5 + x.
    linear_het:    x ~ U[0,1], y = x + eps,            sd(eps) = 0.1 + 0.4 x.
    const_noise:   x ~ U[0,2 pi], y = sin(x) + eps,    sd(eps) = sigma.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    if spec.generator == "goldberg_sine":
        x = rng.uniform(0.0, 1.0, n)
        sd = 0.5 + x
        y = 2.0 * np.sin(2.0 * np.pi * x) + sd * rng.standard_normal(n)
    elif spec.generator == "linear_het":
        x = rng.uniform(0.0, 1.0, n)
        sd = 0.1 + 0.4 * x
        y = x + sd * rng.standard_normal(n)
    else:  # const_noise
        x = rng.uniform(0.0, 2.0 * np.pi, n)
        sd = np.full(n, float(spec.sigma))
        y = np.sin(x) + sd * rng.standard_normal(n)
    return Dataset(x[:, None], y), sd
