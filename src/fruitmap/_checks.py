"""Type checks for values that arrive from JSON configs and reports.

Python's json module parses NaN and Infinity, and bool is a subclass of int,
so range comparisons alone let such values through.
"""

from __future__ import annotations

import math
import numbers


def is_int(value: object) -> bool:
    """An integer, numpy's included; bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value: object) -> bool:
    """A finite int, float or numpy real; bool is not one."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def is_finite_point(value: object) -> bool:
    """A JSON list of three finite reals."""
    return isinstance(value, list) and len(value) == 3 and all(map(is_finite_real, value))


def check_types(obj: object, integers: tuple[str, ...], reals: tuple[str, ...]) -> None:
    """Raise ValueError naming the first listed attribute of obj of the wrong type."""
    for name in integers:
        value = getattr(obj, name)
        if not is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    for name in reals:
        value = getattr(obj, name)
        if not is_finite_real(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
