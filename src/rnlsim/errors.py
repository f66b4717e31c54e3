"""Exception types shared across the package, and the one copy of each input check."""

from __future__ import annotations

import math
import numbers


class ConfigError(ValueError):
    """Invalid run configuration: unknown key, bad value, or inconsistent inputs."""


class AmbiguousScheduleError(ValueError):
    """Two impact times fall inside the guard band, so no reliable ordering exists."""


def require_finite(name: str, value: float) -> float:
    """value as a finite float; bools and other non-reals (strings too) are refused."""
    if type(value) is not float:  # an exact float is never a bool or a string
        # bool is a numbers.Integral; numpy.bool_ is neither Real nor Integral.
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def require_int(name: str, value: int, low: int, high: int) -> int:
    """value as an int in [low, high]; bools and floats are refused, not converted."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def require_flag(name: str, value: bool) -> bool:
    if value is not True and value is not False:
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value
