"""Exception hierarchy, and the value checks the input records share.

Every error raised by the library derives from DonorgateError so callers can
catch at the package boundary. The harness maps these onto per-stage exit
codes.
"""

import math
import numbers
from dataclasses import fields

import numpy as np


class DonorgateError(Exception):
    """Base class for all library errors."""


class InvalidSpecError(DonorgateError):
    """A lattice or scenario specification violates its invariants."""


class InvalidModelError(DonorgateError):
    """Donor-model parameters are unphysical (e.g. Coulombic binding <= 0)."""


class InsufficientRegionError(DonorgateError):
    """The enumerated region is too small for the requested shell count."""


class FitFailureError(DonorgateError):
    """Gaussian expansion fit did not reach the required residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class IllConditionedGeometryError(DonorgateError):
    """Two-center geometry with near-unit overlap; integrals unreliable."""


class DependencyError(DonorgateError):
    """A required upstream result (integrals, transitions) is missing."""


class DimensionError(DonorgateError):
    """Spin-system size exceeds the dense-matrix budget."""


class PreconditionError(DonorgateError):
    """An operation was called outside its documented preconditions."""


class NoCleanGateError(DonorgateError):
    """No gate time in the searched range disentangles the control.

    Carries the best candidate found so callers can inspect how close the
    search came.
    """

    def __init__(self, message: str, best_candidate=None):
        super().__init__(message)
        self.best_candidate = best_candidate


class ScenarioValidationError(DonorgateError):
    """Scenario file failed schema validation; `path` locates the offence."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class StageError(DonorgateError):
    """Pipeline failure with stage attribution."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


# -- value checks shared by the input records --------------------------------

def finite(value, what: str, error=InvalidSpecError) -> float:
    """`value` as a float; it must be a finite real number (a bool or a
    string is not one)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise error(f"{what} must be a finite number, got {value!r}")
    return float(value)


def finite_matrix(value, shape: tuple, what: str) -> np.ndarray:
    """`value` as an array of `shape` (a ragged nesting has none) with an
    integer or float dtype and finite entries, else PreconditionError."""
    try:
        array = np.asarray(value)
    except ValueError:
        raise PreconditionError(f"{what} is ragged, not of shape {shape}") from None
    if array.shape != shape:
        raise PreconditionError(f"{what} has shape {array.shape}, not {shape}")
    if array.dtype.kind not in "iuf" or not np.isfinite(array).all():
        raise PreconditionError(f"{what} must hold finite numbers")
    return array


def count(value, what: str, error=InvalidSpecError) -> int:
    """`value` as an int; it must be a non-negative integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise error(f"{what} must be a non-negative integer, got {value!r}")
    return int(value)


def text(value, what: str, error=InvalidSpecError) -> str:
    """`value` itself; it must already be a string (a number is not one)."""
    if not isinstance(value, str):
        raise error(f"{what} must be a string, got {value!r}")
    return value


def store_finite(record, *names, error=InvalidSpecError) -> None:
    """Store the named fields of the frozen dataclass `record` as finite
    floats; a field whose default is None may also be None."""
    optional = {f.name for f in fields(record) if f.default is None}
    for name in names:
        value = getattr(record, name)
        if value is not None or name not in optional:
            object.__setattr__(record, name, finite(value, name, error))


def sorted_pairs(items, value) -> tuple:
    """A mapping, or (key, value) pairs with unique string keys, as
    (key, value(v)) pairs sorted by key."""
    pairs = items.items() if hasattr(items, "items") else items
    out = tuple(sorted((text(k, "key"), value(v)) for k, v in pairs))
    keys = [k for k, _ in out]
    if len(set(keys)) != len(keys):
        raise InvalidSpecError(f"duplicate keys in {keys}")
    return out
