"""Field checks for every record, built from JSON or in memory.

Python's json module parses NaN and Infinity, and bool is a subclass of int,
so range comparisons alone let such values through. A record checks its own
fields in __post_init__ through check_types, and from_doc builds any record
from a JSON object, so the same checks and messages hold on both paths.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import Iterable, TypeVar

import numpy as np

Record = TypeVar("Record")


def is_int(value: object) -> bool:
    """An integer, numpy's included; bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value: object) -> bool:
    """A finite int, float or numpy real that fits a float; bool is not one."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def is_finite_point(value: object) -> bool:
    """A list, tuple or 1-D array of three finite reals."""
    return (
        isinstance(value, (list, tuple, np.ndarray))
        and len(value) == 3
        and all(map(is_finite_real, value))
    )


def check_types(
    obj: object,
    integers: tuple[str, ...] = (),
    reals: tuple[str, ...] = (),
    points: tuple[str, ...] = (),
    also: Iterable[str] = (),
) -> None:
    """Raise one ValueError naming every listed attribute of obj of the wrong type.

    also holds the messages of the record's other field checks, so that the
    one ValueError names every wrong field.
    """
    wrong = [
        f"{name} must be {noun}, got {getattr(obj, name)!r}"
        for names, check, noun in (
            (integers, is_int, "an integer"),
            (reals, is_finite_real, "a finite number"),
            (points, is_finite_point, "3 coordinates, each a finite number"),
        )
        for name in names
        if not check(getattr(obj, name))
    ]
    wrong.extend(also)
    if wrong:
        raise ValueError("; ".join(wrong))


def from_doc(cls: type[Record], doc: object) -> Record:
    """The cls record a JSON object describes; ValueError if it is malformed.

    Every field without a default must be present. Keys that are not fields
    of cls, such as provenance, are ignored; cls's constructor checks values.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"expected an object, got {type(doc).__name__}")
    fields = dataclasses.fields(cls)
    missing = [
        repr(f.name)
        for f in fields
        if f.name not in doc
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    return cls(**{f.name: doc[f.name] for f in fields if f.name in doc})
