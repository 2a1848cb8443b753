"""polmem's file formats: how each file is parsed, checked and written.

Configs and histograms are JSON objects; sweeps are CSV files, a header row
then one row of full-precision numbers (`repr(float)`) per point; a fit's
FitResult is written as JSON or as `param,value,stderr` rows.  Readers
accept finite numbers only and raise DataError (ConfigError for a config)
naming the file, and for a CSV the line and field.  Writers are atomic.
"""

import contextlib
import csv
import io
import json
import numbers
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, named


def is_finite_number(v) -> bool:
    """A real number, not a bool, that is finite as a float (huge ints are not)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def read_json(path, error=DataError) -> dict:
    """The JSON object stored at path; anything else raises `error`."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise error(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{path} must hold a JSON object, got {type(data).__name__}")
    return data


def _finite(text: str, where: str) -> float:
    with contextlib.suppress(ValueError):
        if is_finite_number(v := float(text)):
            return v
    raise DataError(f"{where}: {text!r} is not a finite number")


def write_text(path, text: str) -> None:
    """Write text into a temp file renamed over path; the temp file is removed
    if the write or the rename fails."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


@dataclass(frozen=True)
class Window:
    """Half-open time window [start, end) in microseconds."""

    start: float
    end: float

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ConfigError(f"window must satisfy 0 <= start < end, got [{self.start}, {self.end})")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ArrivalHistogram:
    """Time-binned photon counts accumulated over n_trials pulses."""

    t_start: float
    bin_width: float
    counts: np.ndarray
    n_trials: int
    label: str = ""

    def __post_init__(self):
        if not is_finite_number(self.t_start):
            raise DataError(f"t_start must be a finite number, got {self.t_start!r}")
        if not (is_finite_number(self.bin_width) and self.bin_width > 0):
            raise DataError(f"bin_width must be a finite number > 0, got {self.bin_width!r}")
        n = self.n_trials
        if not (isinstance(n, numbers.Integral) and is_finite_number(n) and n >= 1):
            raise DataError(f"n_trials must be an integer >= 1, got {n!r}")
        try:
            counts = np.asarray(self.counts)
        except ValueError:  # nested lists of unequal lengths, or nested too deep
            counts = None
        if counts is None or counts.ndim != 1:
            raise DataError("counts must be one-dimensional")
        if counts.size and (counts.dtype == bool or not np.can_cast(counts.dtype, np.int64)):
            raise DataError(f"counts must be 64-bit integers, got {counts.dtype} values")
        self.counts = counts.astype(np.int64, copy=False)
        if np.any(self.counts < 0):
            raise DataError("counts must be nonnegative")
        # nonnegative int64 partial sums wrap negative at the first overflow
        if (self.counts.cumsum() < 0).any():
            raise DataError("counts must total at most 2**63 - 1 (64-bit integers)")
        if not isinstance(self.label, str):
            raise DataError(f"label must be text, got {type(self.label).__name__}")

    def total(self) -> int:
        return int(self.counts.sum())

    def to_json(self) -> dict:
        return {
            "t_start_us": self.t_start,
            "bin_width_us": self.bin_width,
            "n_trials": self.n_trials,
            "counts": self.counts.tolist(),
            "label": self.label,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ArrivalHistogram":
        expected = {"t_start_us", "bin_width_us", "n_trials", "counts", "label"}
        if set(data) != expected:
            raise DataError(f"histogram keys must be {sorted(expected)}, got {sorted(data)}")
        return cls(
            t_start=data["t_start_us"],
            bin_width=data["bin_width_us"],
            counts=data["counts"],
            n_trials=data["n_trials"],
            label=data["label"],
        )

    def save(self, path) -> None:
        write_text(path, json.dumps(self.to_json()) + "\n")

    @classmethod
    def load(cls, path) -> "ArrivalHistogram":
        data = read_json(path)
        with named(path):
            return cls.from_json(data)


@dataclass
class SweepSeries:
    """Generic measured series: abscissa, values, statistical errors."""

    x: np.ndarray
    y: np.ndarray
    y_err: np.ndarray
    x_name: str = "x"
    y_name: str = "y"

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.y_err = np.asarray(self.y_err, dtype=float)
        if not len(self.x) == len(self.y) == len(self.y_err):
            raise DataError("x, y and y_err must have equal length")

    def __len__(self) -> int:
        return len(self.x)

    def save_csv(self, path) -> None:
        """CSV with header `<x_name>,<y_name>,y_err`, one row per point, each
        number as repr(float)."""
        buf = io.StringIO()
        rows = ([repr(float(v)) for v in row] for row in zip(self.x, self.y, self.y_err))
        csv.writer(buf).writerows([[self.x_name, self.y_name, "y_err"], *rows])
        write_text(path, buf.getvalue())

    @classmethod
    def load_csv(cls, path) -> "SweepSeries":
        """Read a sweep CSV: a header `<x_name>,<y_name>,y_err`, then rows of
        three finite numbers."""
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None or len(header) != 3 or header[2] != "y_err":
                    raise DataError(f"{path} is not a sweep CSV (expected 3 columns ending in "
                                    f"y_err, got header {header})")
                rows = []
                for row in reader:
                    where = f"{path}, line {reader.line_num}"
                    if len(row) != 3:
                        raise DataError(f"{where}: {len(row)} fields, the header has 3")
                    rows.append([_finite(v, f"{where}, field {name!r}")
                                 for name, v in zip(header, row)])
        except (OSError, ValueError, csv.Error) as exc:  # ValueError: bad UTF-8
            raise DataError(f"cannot read {path}: {exc}") from exc
        x, y, y_err = np.array(rows, dtype=float).reshape(len(rows), 3).T
        return cls(x, y, y_err, header[0], header[1])


@dataclass
class FitResult:
    """Parameter estimates with per-parameter uncertainties.

    params and stderr share keys, and stderr[k] is the 1-sigma error of
    params[k] from the fit covariance.  residual_norm is the (weighted)
    2-norm of the final residual vector.
    """

    params: dict[str, float]
    stderr: dict[str, float] = field(default_factory=dict)
    residual_norm: float = 0.0
    n_points: int = 0

    def __post_init__(self):
        for k, v in self.stderr.items():
            if v < 0:
                raise ValueError(f"stderr[{k!r}] must be >= 0, got {v}")
        if self.n_points and self.n_points < len(self.params):
            raise ValueError("fewer points than parameters")

    def to_dict(self) -> dict:
        return {
            "params": dict(self.params),
            "stderr": dict(self.stderr),
            "residual_norm": self.residual_norm,
            "n_points": self.n_points,
        }
