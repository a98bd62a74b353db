"""Datasets: construction, standardization, CSV ingestion and synthetic
heteroscedastic generators."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .numerics import _as_float, _check_int

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

    ``target_column`` names (header) or indexes (any integer, numpy's
    included) the target; defaults to the last column.  A bool is neither,
    and is rejected.  The file is read as UTF-8, skipping a leading
    byte-order mark; a file that is not UTF-8 is rejected.  Blank lines are
    skipped.  Each cell is ``float(cell)``, which ignores the whitespace
    around it.  A non-numeric or non-finite cell and a row of another width
    than the first are rejected with their row number: the file's line
    number, 1-based, counting the header and blank lines.  A header whose
    column count differs from the rows' is rejected too, since a name could
    then pick another column, and so is a target name that the header gives
    twice.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = [(lineno, ln) for lineno, ln in enumerate(text.split("\n"), 1)
             if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty file")

    header = None
    if has_header:
        header = [c.strip() for c in lines[0][1].split(",")]
        lines = lines[1:]
    if not lines:
        raise DataError(f"{path}: no data rows")
    values = []
    ncol = lines[0][1].count(",") + 1
    for row, (lineno, ln) in enumerate(lines, 1):
        try:
            values.extend(map(float, ln.split(",")))
        except ValueError as exc:
            raise DataError(f"{path}: non-numeric cell at row {lineno}") from exc
        if len(values) != row * ncol:
            raise DataError(f"{path}: inconsistent column count at row {lineno}")
    arr = np.array(values).reshape(len(lines), ncol)
    if header is not None and len(header) != ncol:
        raise DataError(f"{path}: the header names {len(header)} columns, "
                        f"the rows hold {ncol}")
    if ncol < 2:
        raise DataError(f"{path}: need at least one feature and one target column")

    if target_column is None:
        tidx = ncol - 1
    elif isinstance(target_column, bool):
        raise DataError(f"{path}: target column {target_column!r} is neither "
                        "a column index nor a header name")
    elif isinstance(target_column, numbers.Integral):
        tidx = int(target_column)
    else:
        if header is None or target_column not in header:
            raise DataError(f"{path}: unknown target column {target_column!r}")
        if header.count(target_column) > 1:
            raise DataError(f"{path}: the header names target column "
                            f"{target_column!r} more than once")
        tidx = header.index(target_column)
    if not (0 <= tidx < ncol):
        raise DataError(f"{path}: target column index {tidx} out of range")
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}: non-finite cell at row "
                        f"{lines[int(finite.argmin())][0]}")
    return Dataset(arr[:, [i for i in range(ncol) if i != tidx]],
                   arr[:, tidx])


_GENERATORS = ("goldberg_sine", "linear_het", "const_noise")


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic heteroscedastic regression problem, fully determined by
    (generator, n, seed, params)."""

    generator: str = "goldberg_sine"
    n: int = 100
    seed: int = 0
    sigma: float = 0.3  # const_noise only

    def __post_init__(self):
        if self.generator not in _GENERATORS:
            raise DataError(f"unknown generator {self.generator!r}")
        _check_int(self.n, "n", 3, DataError)
        _check_int(self.seed, "seed", 0, DataError)
        sigma = _as_float(self.sigma)
        if not (sigma is not None and np.isfinite(sigma) and sigma > 0):
            raise DataError("sigma must be a positive and finite number")


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
