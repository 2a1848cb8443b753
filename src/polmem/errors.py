"""Exception types shared across the package, and `named`, which names their input."""

import contextlib
import warnings


class PolmemError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PolmemError):
    """Invalid configuration, schema violation, or malformed input file."""


class DataError(PolmemError):
    """Input data violates a precondition (unphysical state, bad window, ...)."""


class UndefinedRatioError(DataError):
    """A requested ratio has a zero denominator (no detections, no background)."""


class FitError(PolmemError):
    """A fit could not be performed or did not converge to a usable estimate."""


class IllConditionedFitError(FitError):
    """Design matrix is rank deficient; the sampled angles are degenerate."""


class DegenerateGeometryError(FitError):
    """Input vectors are collinear; the rotation is not uniquely determined."""


@contextlib.contextmanager
def named(where: str):
    """Put `where: ` in front of every PolmemError and warning raised inside.

    A PolmemError is re-raised as the same type (chained to the original);
    any other exception passes through unchanged.  Warnings are recorded
    with `warnings.catch_warnings` and re-issued with the prefix when the
    block ends, also when it raises, attributed to the `with` statement.
    """
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield
    except PolmemError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    finally:
        for w in caught:
            warnings.warn(f"{where}: {w.message}", w.category, stacklevel=3)
