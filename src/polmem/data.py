"""polmem's file formats: how each file is parsed, checked and written.

Configs and histograms are JSON objects; sweeps are CSV files, a header row
then one row of full-precision numbers (`repr(float)`) per point.  Readers
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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


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


def read_csv(path, header=None) -> tuple[list, np.ndarray]:
    """The header row and a float array of the rows after it.  Every row must
    be as wide as the header, every field a finite number; header, if given,
    is the header required."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            top = next(reader, None)
            if top is None or top != (header or top):
                raise DataError(f"{path}: expected header {header or 'row'}, got {top}")
            rows = []
            for row in reader:
                where = f"{path}, line {reader.line_num}"
                if len(row) != len(top):
                    raise DataError(f"{where}: {len(row)} fields, the header has {len(top)}")
                rows.append([_finite(v, f"{where}, field {name!r}") for name, v in zip(top, row)])
    except (OSError, ValueError, csv.Error) as exc:  # ValueError: bad UTF-8
        raise DataError(f"cannot read {path}: {exc}") from exc
    return top, np.array(rows, dtype=float).reshape(len(rows), len(top))


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


def write_csv(path, header, rows) -> None:
    """Write a header row and rows of numbers, each as repr(float(v))."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *([repr(float(v)) for v in row] for row in rows)])
    write_text(path, buf.getvalue())


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
        counts = np.asarray(self.counts)
        if counts.ndim != 1:
            raise DataError("counts must be one-dimensional")
        if counts.size and (counts.dtype == bool or not np.can_cast(counts.dtype, np.int64)):
            raise DataError(f"counts must be 64-bit integers, got {counts.dtype} values")
        self.counts = counts.astype(np.int64, copy=False)
        if np.any(self.counts < 0):
            raise DataError("counts must be nonnegative")

    @property
    def t_max(self) -> float:
        return self.t_start + len(self.counts) * self.bin_width

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
            label=str(data["label"]),
        )

    def save(self, path) -> None:
        write_text(path, json.dumps(self.to_json()) + "\n")

    @classmethod
    def load(cls, path) -> "ArrivalHistogram":
        data = read_json(path)
        try:
            return cls.from_json(data)
        except (DataError, ValueError) as exc:  # ValueError: ragged counts
            raise DataError(f"{path}: {exc}") from exc


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
        """CSV with header `<x_name>,<y_name>,y_err`; full-precision floats."""
        write_csv(path, [self.x_name, self.y_name, "y_err"], zip(self.x, self.y, self.y_err))

    @classmethod
    def load_csv(cls, path) -> "SweepSeries":
        header, body = read_csv(path)
        if len(header) != 3 or header[2] != "y_err":
            raise DataError(f"{path} is not a sweep CSV (expected 3 columns ending in y_err)")
        return cls(body[:, 0], body[:, 1], body[:, 2], header[0], header[1])
