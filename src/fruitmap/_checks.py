"""Field checks for every record, built from JSON or in memory, and the one
JSON boundary.

Python's json module parses NaN and Infinity, and bool is a subclass of int,
so range comparisons alone let such values through. A record checks its own
fields in __post_init__ through check_types, and from_doc builds any record
from a JSON object, so the same checks and messages hold on both paths.
read_json and write_json are the one reader and writer of every JSON
document, json_digest the one provenance hash, and config_digest that hash
over config dataclasses.

This module imports no numpy, so the stages that only read and write JSON
(report, --version) start without it.
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
