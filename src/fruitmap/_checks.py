"""Field checks for every record, built from JSON or in memory, and the one
JSON boundary.

Python's json module parses NaN and Infinity, and bool is a subclass of int,
so range comparisons alone let such values through. A record checks its own
fields in __post_init__ through check_types, and from_doc builds any record
from a JSON object, so the same checks and messages hold on both paths.
check_types checks each field against its annotation, a string in every
record module (`from __future__ import annotations`), through _TYPES; a
bounded field's annotation (PositiveFloat, NonNegativeInt, ...) states its
range as well as its type. A record checks the fields no entry covers itself
and passes those messages as also, so one ValueError names every wrong field,
ranges included. read_json and write_json are the one reader and writer of
every JSON document, json_digest the one provenance hash, and config_digest
that hash over config dataclasses. check_pose is the one rule every rigid
pose passes, a frame's or a fiducial's, read from disk or built in memory.

This module imports no numpy, so the stages that only read and write JSON
(report, eval, align, --version) start without it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import sys
from pathlib import Path
from typing import Iterable, TypeVar

Record = TypeVar("Record")


class DatasetError(ValueError):
    """A scan dataset failed validation."""


def json_digest(doc: object) -> str:
    """sha256 hex digest of doc's sorted-key JSON; the one provenance hash."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def config_digest(*configs: object) -> str:
    """json_digest over the fields of the given config dataclasses, in order."""
    return json_digest([dataclasses.asdict(cfg) for cfg in configs])  # type: ignore[call-overload]


def read_json(path: Path | str) -> dict:
    """The JSON object in path; the one reader of every JSON document.

    Undecodable bytes, malformed JSON, nesting or integers larger than the
    parser allows (RFC 8259 section 9 lets it set such limits) and a top level
    that is not an object raise DatasetError naming path. A file that cannot
    be opened raises the OSError from opening it.
    """
    data = Path(path).read_bytes()
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # decode and parse errors are ValueErrors
        raise DatasetError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DatasetError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def write_json(path: Path | str, doc: object, sort_keys: bool = False) -> None:
    """Write doc as indented JSON; evaluation and report documents sort their keys."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n", encoding="utf-8")


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
    numpy = sys.modules.get("numpy")  # not loaded: value cannot be an ndarray
    return (
        isinstance(value, (list, tuple) if numpy is None else (list, tuple, numpy.ndarray))
        and len(value) == 3
        and all(map(is_finite_real, value))
    )


def _close(x: float, y: float, atol: float) -> bool:
    """np.allclose's test of one value x against its target y: |x - y| <= atol + 1e-5 * |y|."""
    return abs(x - y) <= atol + 1e-5 * abs(y)


def _dot(u: tuple[float, ...], v: tuple[float, ...]) -> float:
    return (u[0] * v[0] + u[1] * v[1]) + u[2] * v[2]


def check_pose(values: object) -> tuple[float, ...]:
    """values, the 16 row-major numbers of a rigid pose, as floats; ValueError if not rigid.

    The pose must be a list (or tuple) of 16 finite numbers whose bottom row
    is [0, 0, 0, 1] within 1e-12 and whose rotation R is proper: R^T R = I
    within 1e-9, and det R >= 0. Closeness is np.allclose's test,
    |x - y| <= atol + 1e-5 * |y|, so a diagonal entry of R^T R may differ
    from 1 by up to 1e-9 + 1e-5.
    """
    if not (isinstance(values, (list, tuple)) and all(map(is_finite_real, values))):
        raise ValueError("pose must be a list of finite numbers")
    if len(values) != 16:
        raise ValueError(f"invalid pose: expected 16 values, got ({len(values)},)")
    pose = tuple(map(float, values))
    if not all(map(_close, pose[12:], (0.0, 0.0, 0.0, 1.0), [1e-12] * 4)):
        raise ValueError(f"invalid pose: bottom row must be [0, 0, 0, 1], got {list(pose[12:])}")
    x, y, z = cols = [pose[j:12:4] for j in range(3)]  # R's columns
    if not all(_close(_dot(u, v), float(i == j), 1e-9)  # R^T R, entry by entry
               for i, u in enumerate(cols) for j, v in enumerate(cols)):
        raise ValueError("invalid pose: rotation is not orthonormal within 1e-9")
    if _dot(x, (y[1] * z[2] - y[2] * z[1], y[2] * z[0] - y[0] * z[2],
                y[0] * z[1] - y[1] * z[0])) < 0:  # det R, the columns' triple product
        raise ValueError(
            "invalid pose: rotation has negative determinant (reflection, not a rotation)"
        )
    return pose


def _is_pair_of(check):
    """A predicate: a list or tuple of two values, each passing check."""
    return lambda value: (
        isinstance(value, (list, tuple)) and len(value) == 2 and all(map(check, value))
    )


is_finite_pair = _is_pair_of(is_finite_real)  # a list or tuple of two finite reals

# Range annotations: plain aliases, so a type checker reads a PositiveFloat
# field as a float, while check_types reads the name and checks the range.
PositiveFloat = float     # finite, > 0
NonNegativeFloat = float  # finite, >= 0
PositiveInt = int         # >= 1
NonNegativeInt = int      # >= 0

# annotation string: (predicate, what the field must be, shown with its value
# in place of {!r}); a list of pairs can run to hundreds, so it is not shown
_TYPES = {
    "int": (is_int, "an integer, got {!r}"),
    "float": (is_finite_real, "a finite number, got {!r}"),
    "PositiveFloat": (lambda v: is_finite_real(v) and v > 0, "a finite number > 0, got {!r}"),
    "NonNegativeFloat": (lambda v: is_finite_real(v) and v >= 0,
                         "a finite number >= 0, got {!r}"),
    "PositiveInt": (lambda v: is_int(v) and v >= 1, "an integer >= 1, got {!r}"),
    "NonNegativeInt": (lambda v: is_int(v) and v >= 0, "an integer >= 0, got {!r}"),
    "float | None": (lambda v: v is None or is_finite_real(v), "a finite number, got {!r}"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string, got {!r}"),
    "tuple[float, float, float]": (is_finite_point,
                                   "3 coordinates, each a finite number, got {!r}"),
    "tuple[int, int]": (_is_pair_of(is_int), "a pair of integers, got {!r}"),
    "tuple[float, float]": (is_finite_pair, "a pair of finite numbers, got {!r}"),
    "tuple[tuple[float, float], ...]": (
        lambda v: isinstance(v, (list, tuple)) and all(map(is_finite_pair, v)),
        "a list of pairs of finite numbers",
    ),
    "frozenset[str]": (
        lambda v: isinstance(v, (list, tuple, set, frozenset))
        and all(isinstance(item, str) for item in v),
        "a list of strings, got {!r}",
    ),
}


def check_types(obj: object, also: Iterable[str] = ()) -> None:
    """Raise one ValueError naming every field of obj of the wrong type or range.

    Fields come in order, each checked against its annotation's _TYPES entry;
    also holds the messages of the record's other field checks.
    """
    wrong = []
    for f in dataclasses.fields(obj):  # type: ignore[arg-type]
        if f.type in _TYPES:
            check, noun = _TYPES[f.type]
            value = getattr(obj, f.name)
            if not check(value):
                wrong.append(f"{f.name} must be {noun.format(value)}")
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
